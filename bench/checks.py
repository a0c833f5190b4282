"""Reference values and output checks, written without maxstop.

Exact references come from two routes that share no code with the
library's forward (max, endpoint) dynamic programme:

* path enumeration, every +-1 path of length n <= 16 one by one;
* the reflection principle in closed form for larger n: for m >= max(0, l),
  P(M_n >= m, S_n = l) = C(n, (n + 2m - l)/2) p^((n+l)/2) q^((n-l)/2).

Quadrature is checked against the 1-D law of the running maximum of
Brownian motion with drift lam,
P(M_t <= m) = Phi((m - lam t)/sqrt t) - e^(2 lam m) Phi((-m - lam t)/sqrt t),
and M - B under lam has the law of M under -lam.  Monte Carlo estimates
must lie within 4 standard errors of an exact value.

Every check is either a value check (an output must equal, or be
statistically consistent with, its reference) or a claim check (a
guarantee the library advertises: a quadrature error bound bounds the
error, a reward used as convex is convex).  A job fails when any check
fails; the output is incorrect when a value check fails.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

HALF = Fraction(1, 2)
MC_SIGMAS = 4.0
QUAD_VALUE_TOL = 1e-6  # the verdict scale of the library's quadrature checks


# --- rewards ------------------------------------------------------------------


def reward_values(spec: str, horizon: int) -> list:
    """Values on {0..horizon} of a CLI discrete reward string, as Fractions."""
    kind, _, arg = spec.partition(":")
    ks = range(horizon + 1)
    if kind == "table":
        vals = [Fraction(v) for v in arg.split(",")]
        if len(vals) <= horizon:
            raise ValueError(f"table {spec!r} does not cover 0..{horizon}")
        return vals[: horizon + 1]
    if kind == "geometric":
        return [Fraction(arg) ** k for k in ks]
    if kind == "indicator_top":
        return [Fraction(int(k == 0)) for k in ks]
    if kind == "linear":
        return [Fraction(arg) - k for k in ks]
    if kind == "exp_decay_table":
        # the documented construction: exp(-sigma k) rationalized to 1e-12
        sigma = float(Fraction(arg))
        return [Fraction(math.exp(-sigma * k)).limit_denominator(10**12) for k in ks]
    raise ValueError(f"no reference for reward {spec!r}")


def shape_flags(values: list) -> dict:
    """First- and second-difference flags of a reward table."""
    d1 = [b - a for a, b in zip(values, values[1:])]
    d2 = [b - a for a, b in zip(d1, d1[1:])]
    return {
        "nonincreasing": all(d <= 0 for d in d1),
        "convex": all(d >= 0 for d in d2),
        "strictly_convex": all(d > 0 for d in d2),
        "strictly_decreasing": bool(d1) and all(d < 0 for d in d1),
        "constant": all(d == 0 for d in d1),
        "linear": all(d == 0 for d in d2),
    }


# --- exact walk laws ------------------------------------------------------------


@lru_cache(maxsize=None)
def path_counts(n: int) -> dict:
    """Number of +-1 paths of length n ending with (M_n, S_n) = (m, l)."""
    ends = [(0, 0)]
    for _ in range(n):
        ends = [nxt for m, s in ends for nxt in ((max(m, s + 1), s + 1), (m, s - 1))]
    counts = {}
    for key in ends:
        counts[key] = counts.get(key, 0) + 1
    return counts


@lru_cache(maxsize=None)
def closed_form_counts(n: int) -> dict:
    """The same counts by the reflection principle: for m >= max(0, l) the paths
    ending at l that reach m are as many as the paths ending at 2m - l."""
    def at_least(m, l):
        ups = (n + 2 * m - l) // 2
        return comb(n, ups) if ups <= n else 0

    counts = {
        (m, l): at_least(m, l) - at_least(m + 1, l)
        for l in range(-n, n + 1, 2)
        for m in range(max(0, l), n + 1)
    }
    return {key: c for key, c in counts.items() if c}


def joint_law(p: Fraction, n: int) -> dict:
    """Exact pmf of (M_n, S_n): path enumeration up to n = 16, closed form above."""
    q = 1 - p
    counts = path_counts(n) if n <= 16 else closed_form_counts(n)
    return {
        (m, l): c * p ** ((n + l) // 2) * q ** ((n - l) // 2) for (m, l), c in counts.items()
    }


def expect(law: dict, fn) -> Fraction:
    return sum(pr * fn(m, l) for (m, l), pr in law.items())


def tau0_value(law: dict, f: list) -> Fraction:
    """Stop at once: E[f(M_N)]."""
    return expect(law, lambda m, l: f[m])


def tauN_value(law: dict, f: list) -> Fraction:
    """Run to the horizon: E[f(M_N - S_N)]."""
    return expect(law, lambda m, l: f[m - l])


def markov_rule_value(p: Fraction, n: int, f: list, stops) -> Fraction:
    """Exact value of a rule that stops in drawdown state (k, z) when stops(k, z).

    Stopping at (k, z) is worth E[f(z v M_{n-k})], by the Markov property.
    """
    max_laws = []
    for j in range(n + 1):
        law = {}
        for (m, _l), pr in joint_law(p, j).items():
            law[m] = law.get(m, 0) + pr
        max_laws.append(law)
    dist = {0: Fraction(1)}
    total = Fraction(0)
    for k in range(n + 1):
        nxt = {}
        for z, pr in dist.items():
            if k == n or stops(k, z):
                total += pr * sum(pm * f[max(z, m)] for m, pm in max_laws[n - k].items())
            else:
                for z2, step in ((max(z - 1, 0), p), (z + 1, 1 - p)):
                    nxt[z2] = nxt.get(z2, 0) + pr * step
        dist = nxt
    return total


def policy_stops(policy: str, n: int, from_step: int = 0):
    if policy == "tau0":
        return lambda k, z: True
    if policy == "tauN":
        return lambda k, z: k == n
    if policy == "stop-at-max":
        return lambda k, z: k == n or (z == 0 and k >= from_step)
    raise ValueError(policy)


def expected_label(p: Fraction, n: int, flags: dict) -> str | None:
    """The uniqueness label the theorems fix for a nonincreasing convex f, if any."""
    if p < HALF and not flags["constant"]:
        return "UNIQUE_TAU0"
    if p > HALF and flags["strictly_decreasing"]:
        return "UNIQUE_TAUN"
    if p == HALF and n >= 2 and flags["strictly_convex"]:
        return "TIE_CLASS"
    if p == HALF and n >= 2 and flags["linear"] and not flags["constant"]:
        return "NOT_UNIQUE"
    return None


# --- Brownian references -----------------------------------------------------------


def _phi(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


@lru_cache(maxsize=None)
def exp_decay_g(t: float, x: float, lam: float, sigma: float) -> float:
    """E[exp(-sigma (x v M_t))] under drift lam, by 1-D quadrature.

    E[f(x v M)] = f(x) - int_x^inf (-f'(m)) P(M > m) dm, on 200 panels of
    30-point Gauss-Legendre out to 14 standard deviations past the drift.
    """
    st = math.sqrt(t)
    upper = x + abs(lam) * t + 14.0 * st
    nodes, weights = np.polynomial.legendre.leggauss(30)
    edges = np.linspace(x, upper, 201)
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        ms = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        vals = [
            sigma * math.exp(-sigma * m)
            * (_phi((lam * t - m) / st) + math.exp(2 * lam * m) * _phi((-m - lam * t) / st))
            for m in ms
        ]
        total += 0.5 * (b - a) * float(np.dot(weights, vals))
    return math.exp(-sigma * x) - total


# --- checking --------------------------------------------------------------------


class JobCheck:
    """Failed checks of one job, split into value checks and claim checks."""

    def __init__(self):
        self.value_failures = []
        self.claim_failures = []
        self.bound_violations = 0

    def value(self, ok: bool, what: str):
        if not ok:
            self.value_failures.append(what)

    def claim(self, ok: bool, what: str):
        if not ok:
            self.claim_failures.append(what)

    @property
    def failed(self) -> bool:
        return bool(self.value_failures or self.claim_failures)


def references(job: dict) -> dict:
    """Everything a job's outputs are compared with, computed once per run."""
    kind = job["kind"]
    ref = {}
    if kind in ("cli_solve", "cli_evaluate", "cli_oracle"):
        p, n = Fraction(job["p"]), job["N"]
        f = reward_values(job["reward"], n)
        law = joint_law(p, n)
        ref.update(flags=shape_flags(f), tau0=tau0_value(law, f), tauN=tauN_value(law, f))
    elif kind == "key_inequality":
        p, n, i = Fraction(job["p"]), job["n"], job["i"]
        f = reward_values(job["reward"], job["horizon"])
        law = joint_law(p, n)
        ref.update(
            flags=shape_flags(f),
            lhs=expect(law, lambda m, l: f[max(i, m) - l]),
            key_rhs=expect(law, lambda m, l: f[max(i, m - l)]),
            cor_rhs=expect(law, lambda m, l: f[max(i, m)]),
        )
    elif kind == "quadrature":
        t, x, lam, sigma = job["t"], job["x"], job["lam"], job["sigma"]
        ref.update(g=exp_decay_g(t, x, lam, sigma), key_rhs=exp_decay_g(t, x, -lam, sigma))
    elif kind == "mc_walk":
        p, n = Fraction(job["p"]), job["n"]
        f = reward_values(job["reward"], n)
        stops = policy_stops(job["policy"], n, job["from_step"])
        ref.update(value=markov_rule_value(p, n, f, stops))
    elif kind == "mc_bm":
        lam, T, sigma = job["lam"], job["T"], job["sigma"]
        ref.update(tau0=exp_decay_g(T, 0.0, lam, sigma), tauT=exp_decay_g(T, 0.0, -lam, sigma))
    return ref


def _check_cli_exact(job, out, ref, c: JobCheck):
    out = json.loads(out["report"])
    p, n = Fraction(job["p"]), job["N"]
    flags = ref["flags"]
    convex = flags["nonincreasing"] and flags["convex"]
    c.claim(convex, f"reward {job['reward'][:40]} used as nonincreasing convex is not, on 0..{n}")
    if job["kind"] == "cli_evaluate":
        want = ref["tauN"] if job["policy"] == "tauN" else ref["tau0"]  # stop-at-max stops at 0
        c.value(Fraction(out["value"]["value"]) == want, "policy value != reference")
        return
    if job["kind"] == "cli_oracle":
        c.value(out["dp_match"] is True, "oracle optimum != DP optimum")
        c.value(out["cross_validate"] is True, "cross_validate is false")
        optimum = Fraction(out["optimum"]["value"])
        if convex:
            label = expected_label(p, n, flags)
            if label in ("UNIQUE_TAU0", "UNIQUE_TAUN"):
                c.value(out["n_optimal_classes"] == 1, "unique optimum has several rule classes")
    else:
        tau0, tauN = Fraction(out["value_tau0"]["value"]), Fraction(out["value_tauN"]["value"])
        c.value(tau0 == ref["tau0"], "value_tau0 != reference")
        c.value(tauN == ref["tauN"], "value_tauN != reference")
        c.value(len(out["policy"]) == (n + 1) * (n + 2) // 2, "policy does not cover every state")
        optimum = Fraction(out["optimal_value"]["value"])
        if convex:
            label = expected_label(p, n, flags)
            if label is not None:
                c.value(out["unique"] == label, f"label {out['unique']} != {label}")
    c.value(optimum >= max(ref["tau0"], ref["tauN"]), "optimum below a bang-bang rule")
    if convex and p <= HALF:
        c.value(optimum == ref["tau0"], "bang-bang: optimum != tau0 value for p <= 1/2")
    if convex and p >= HALF:
        c.value(optimum == ref["tauN"], "bang-bang: optimum != tauN value for p >= 1/2")


def _check_key_inequality(job, out, ref, c: JobCheck):
    p, n, i = Fraction(job["p"]), job["n"], job["i"]
    flags = ref["flags"]
    c.value(out["flags"] == flags, "classify flags != second-difference flags")
    lhs, key_rhs = Fraction(out["key"]["lhs"]), Fraction(out["key"]["rhs"])
    cor_lhs, cor_rhs = Fraction(out["corollary"]["lhs"]), Fraction(out["corollary"]["rhs"])
    c.value(lhs == ref["lhs"] and cor_lhs == ref["lhs"], "E[f((i v M) - S)] != reference")
    c.value(key_rhs == ref["key_rhs"], "E[f(i v (M - S))] != reference")
    c.value(cor_rhs == ref["cor_rhs"], "E[f(i v M)] != reference")
    c.value(out["key"]["strict"] == (lhs > key_rhs), "key strict flag wrong")
    c.value(out["corollary"]["strict"] == (cor_lhs > cor_rhs), "corollary strict flag wrong")
    convex = flags["nonincreasing"] and flags["convex"]
    c.claim(convex, f"reward {job['reward'][:40]} used as nonincreasing convex is not, on 0..{job['horizon']}")
    if not convex or p < HALF:
        return
    c.value(lhs >= key_rhs and cor_lhs >= cor_rhs, "key inequality or corollary violated")
    if i == 0:
        c.value(lhs == key_rhs, "key inequality not an equality at i = 0")
    if p == HALF and flags["linear"]:
        c.value(lhs == key_rhs, "key inequality not an equality for linear f at p = 1/2")
    if n > 0 and p > HALF and flags["strictly_decreasing"]:
        c.value(cor_lhs > cor_rhs, "corollary not strict")
        if i > 0:
            c.value(lhs > key_rhs, "key inequality not strict (strict decrease)")
    if n > 0 and i > 0 and flags["strictly_convex"]:
        c.value(lhs > key_rhs, "key inequality not strict (strict convexity)")


def _check_quadrature(job, out, ref, c: JobCheck):
    g, g_err = out["g"]
    key_lhs, key_rhs, key_bound = out["key"]
    for name, value, bound, want in (
        ("g_bm", g, g_err, ref["g"]),
        ("key rhs", key_rhs, key_bound, ref["key_rhs"]),
    ):
        err = abs(value - want)
        c.value(err <= QUAD_VALUE_TOL, f"{name} off by {err:.3e} from the 1-D reference")
        if err > bound:
            c.bound_violations += 1
        c.claim(err <= bound, f"{name} error {err:.3e} exceeds its claimed bound {bound:.3e}")
    if job["lam"] >= 0:
        c.value(key_lhs >= key_rhs - key_bound, "Brownian key inequality violated")
        want = "strict" if job["x"] > 0 else "equal_within_tolerance"
        c.value(out["verdict"] == want, f"verdict {out['verdict']} != {want}")


def _within(est: float, se: float, want: float) -> bool:
    return abs(est - want) <= MC_SIGMAS * se + 1e-12


def _check_mc_walk(job, out, ref, c: JobCheck):
    c.value(Fraction(out["exact"]) == ref["value"], "evaluate_policy != reference")
    est, se, reps = out["mc"]
    c.value(reps == job["replications"], "replication count")
    c.value(_within(est, se, float(ref["value"])), f"MC {est} not within 4 SE of {float(ref['value'])}")


def _check_mc_bm(job, out, ref, c: JobCheck):
    ests = {rule: (est, se) for rule, est, se in out["estimates"]}
    c.value(len(ests) == len(job["rules"]), "missing rule estimates")
    for rule in ("tau0", "tauT"):
        est, se = ests[rule]
        c.value(_within(est, se, ref[rule]), f"{rule} MC {est} not within 4 SE of {ref[rule]}")
    best = "tau0" if job["lam"] < 0 else "tauT"
    b_est, b_se = ests[best]
    for rule, (est, se) in ests.items():
        c.value(b_est > est - MC_SIGMAS * math.hypot(b_se, se), f"{rule} beats {best}")


_CHECKERS = {
    "cli_solve": _check_cli_exact,
    "cli_evaluate": _check_cli_exact,
    "cli_oracle": _check_cli_exact,
    "key_inequality": _check_key_inequality,
    "quadrature": _check_quadrature,
    "mc_walk": _check_mc_walk,
    "mc_bm": _check_mc_bm,
}


def check_job(job: dict, out: dict, ref: dict) -> JobCheck:
    c = JobCheck()
    if "error" in out:
        c.value(False, out["error"])
    elif out.get("exit_code", 0) != 0:
        c.value(False, f"CLI exit code {out['exit_code']}")
    elif job["kind"] == "reflection":
        c.value(out["reflection"] is True, "reflection identity fails")
        c.value(out["time_reversal"] is True, "time reversal identity fails")
    else:
        _CHECKERS[job["kind"]](job, out, ref, c)
    return c
