"""Shared brute-force oracles for the test suite.

Everything here recomputes walk functionals by enumerating all 2^n paths
directly, independently of the library's forward-DP code paths, so tests
compare two genuinely different routes to the same exact value.  The
Bellman reference runs the solver's recursion in Fractions on stop values
from those enumerations, sharing no code with the library.  The rule
enumerator below is the oracle's own oracle: it values every
history-dependent stopping rule class on every path (n <= 4), and the
prefix-tree reference values every step history on its own, with nothing
memoized (n <= 12).  The Brownian grid reference is the shared fixed-grid
loop that valued the drawdown and time rules before stopped rows left the
step loop early, and the joint density's mass is scipy's 2-D quadrature.
The policy sweep reference values a Markov rule by the full backward
sweep, over every row and every G row, and the joint-law view reads the
library's reference joint pass in Fractions.
"""

import math
from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product

import numpy as np
import pytest
from scipy import integrate

from maxstop import oracle, walkdist
from maxstop.rewards import reward_numerators


def all_paths(n):
    return list(product((1, -1), repeat=n))


def path_prob(path, p):
    prob = Fraction(1) if isinstance(p, (Fraction, int)) else 1.0
    q = 1 - p
    for x in path:
        prob *= p if x == 1 else q
    return prob


def path_max_end(path):
    """(M_n, S_n) of one path."""
    s = m = 0
    for x in path:
        s += x
        m = max(m, s)
    return m, s


@lru_cache(maxsize=None)
def _path_stats(p, n):
    """(probability, M_n, S_n) of every path, in all_paths order."""
    return tuple((path_prob(path, p), *path_max_end(path)) for path in all_paths(n))


def last_row(rows):
    """The last row of a law generator (the law at the horizon)."""
    return deque(rows, maxlen=1)[0]


def brute_expect(p, n, fn):
    """E[fn(M_n, S_n)] by full path enumeration."""
    return sum(pr * fn(m, s) for pr, m, s in _path_stats(p, n))


def brute_joint(p, n):
    """Joint pmf of (M_n, S_n) by full path enumeration."""
    out = {}
    for pr, k, l in _path_stats(p, n):
        out[(k, l)] = out.get((k, l), Fraction(0)) + pr
    return out


def brute_rule_value(p, n, f, stops):
    """E[f(M_n - S_tau)] by full path enumeration, where tau is the first
    k < n with stops(k, M_k - S_k), else n."""
    total = Fraction(0)
    for path, (pr, m_n, _s_n) in zip(all_paths(n), _path_stats(p, n)):
        s = m = 0
        for k in range(n + 1):
            if k == n or stops(k, m - s):
                break
            s += path[k]
            m = max(m, s)
        total += pr * f(m_n - s)
    return total


@lru_cache(maxsize=None)
def _max_law(p, n):
    """Law of M_n by full path enumeration, as {m: probability}."""
    law = {}
    for pr, m, _s in _path_stats(p, n):
        law[m] = law.get(m, 0) + pr
    return law


def bellman_reference(p, n, f):
    """(values, decisions) of sup_tau E[f(M_n - S_tau)] over (step, drawdown)
    states, by backward induction in Fractions, independently of dpsolver.

    Stopping in state (k, z) pays E[f(z v M_{n-k})], taken from the
    path-enumerated law of the maximum; continuing moves the drawdown to
    (z - 1) v 0 with probability p and to z + 1 with probability 1 - p.
    values maps every state to its optimal value; decisions maps it to
    "STOP", "CONTINUE" or "TIE" (stop and continue exactly equal), and
    every state at k = n stops.
    """
    q = 1 - p
    values = {(n, z): Fraction(f(z)) for z in range(n + 1)}
    decisions = {(n, z): "STOP" for z in range(n + 1)}
    for k in range(n - 1, -1, -1):
        law = _max_law(p, n - k)
        for z in range(k + 1):
            stop = sum(pr * f(max(z, m)) for m, pr in law.items())
            cont = p * values[(k + 1, max(z - 1, 0))] + q * values[(k + 1, z + 1)]
            values[(k, z)] = max(stop, cont)
            decisions[(k, z)] = "STOP" if stop > cont else "CONTINUE" if cont > stop else "TIE"
    return values, decisions


def reference_label(n, decisions):
    """The uniqueness label that the decisions of `bellman_reference` imply,
    by the rules listed in the dpsolver module docstring."""
    inner = {s: d for s, d in decisions.items() if s[0] < n}
    ties = {s for s, d in inner.items() if d == "TIE"}
    if inner.get((0, 0)) == "STOP":
        return "UNIQUE_TAU0"
    if inner and set(inner.values()) == {"CONTINUE"}:
        return "UNIQUE_TAUN"
    if ties == {(k, 0) for k in range(n)} and "STOP" not in inner.values():
        return "TIE_CLASS"
    return "NOT_UNIQUE" if ties else "UNKNOWN"


def brute_stopping_index(n, stop_prefixes, path):
    """First k < n with path[:k] in stop_prefixes, else n."""
    return next((k for k in range(n) if path[:k] in stop_prefixes), n)


@lru_cache(maxsize=None)
def brute_rule_classes(n, at_max_only=False):
    """Signatures of every history-dependent rule class at horizon n.

    A rule is a pruned decision tree, the set of step prefixes where it
    stops; its signature is its stopping index on each path, in all_paths
    order, and rules with one signature are one class (decisions below an
    earlier stop never matter).  With at_max_only, rules may stop before n
    only at prefixes with zero drawdown.
    """

    def trees(prefix):
        if len(prefix) == n:
            return [frozenset()]
        out = []
        if not at_max_only or path_max_end(prefix)[0] == sum(prefix):
            out.append(frozenset({prefix}))
        ups, downs = trees(prefix + (1,)), trees(prefix + (-1,))
        return out + [u | d for u in ups for d in downs]

    paths = all_paths(n)
    return frozenset(
        tuple(brute_stopping_index(n, tree, path) for path in paths) for tree in trees(())
    )


def brute_oracle(p, n, f):
    """(optimum, signatures of the optimal classes) of E[f(M_n - S_tau)] over
    every history-dependent stopping rule, by valuing each class path by path."""
    return _brute_oracle(p, n, tuple(f(z) for z in range(n + 1)))


@lru_cache(maxsize=None)
def _brute_oracle(p, n, fv):
    stats = _path_stats(p, n)
    payoff = [
        [fv[m - s] for s in accumulate(path, initial=0)]
        for path, (_pr, m, _end) in zip(all_paths(n), stats)
    ]
    values = {
        sig: sum(pr * row[k] for (pr, _m, _end), row, k in zip(stats, payoff, sig))
        for sig in brute_rule_classes(n)
    }
    best = max(values.values())
    return best, frozenset(sig for sig, v in values.items() if v == best)


def brute_agrees(p, n, f, value, label):
    """Whether a claimed optimum and uniqueness label hold, judged on the set
    of optimal classes: exactly tau = 0 for UNIQUE_TAU0, exactly tau = n for
    UNIQUE_TAUN, exactly the stop-at-max-or-n classes for TIE_CLASS, at least
    two classes for NOT_UNIQUE, and for UNKNOWN one class that is neither
    tau = 0 nor tau = n."""
    best, optimal = brute_oracle(p, n, f)
    if value != best:
        return False
    if label == "UNIQUE_TAU0":
        return optimal == {(0,) * 2**n}
    if label == "UNIQUE_TAUN":
        return optimal == {(n,) * 2**n}
    if label == "TIE_CLASS":
        return optimal == brute_rule_classes(n, at_max_only=True)
    if label == "NOT_UNIQUE":
        return len(optimal) >= 2
    return len(optimal) == 1 and optimal.isdisjoint({(0,) * 2**n, (n,) * 2**n})


def _fraction_suffix_max_laws(p, n):
    """laws[j][m] = P(max(0, S_1, ..., S_j) = m) for j = 0..n, in Fractions."""
    q = 1 - p
    laws = [[Fraction(1)]]
    for j in range(1, n + 1):
        law = [Fraction(0)] * (j + 1)
        for m, pr in enumerate(laws[-1]):
            law[m + 1] += p * pr
            law[max(m - 1, 0)] += q * pr
        laws.append(law)
    return laws


def prefix_tree_oracle(w, f):
    """The oracle's result by backward induction over every one of the
    2^(N+1) - 1 step histories, in Fractions, with nothing memoized: each
    history is valued and decided on its own, where the oracle values each
    (k, S_k, M_k) once.  Stopping at a history pays E[f(z v M')], M' the
    maximum of the remaining walk; the flags and the class count follow
    `oracle.OracleResult`."""
    n, p = w.n, w.p
    q = 1 - p
    fv = [f(z) for z in range(n + 1)]
    laws = _fraction_suffix_max_laws(p, n)
    flags = {"root": n == 0, "continue": True, "tie": True}

    def visit(k, s, m):
        z = m - s
        if k == n:
            return Fraction(fv[z]), 1
        up_value, up_count = visit(k + 1, s + 1, max(m, s + 1))
        down_value, down_count = visit(k + 1, s - 1, m)
        cont = p * up_value + q * down_value
        stop = sum(pr * fv[max(z, j)] for j, pr in enumerate(laws[n - k]))
        if k == 0:
            flags["root"] = stop > cont
        if stop >= cont:
            flags["continue"] = False
        if stop > cont or (stop == cont) != (z == 0):
            flags["tie"] = False
        return max(stop, cont), (stop >= cont) + (cont >= stop) * up_count * down_count

    value, count = visit(0, 0, 0)
    return oracle.OracleResult(
        value=value,
        n_rules_total=2 ** (2**n - 1),
        n_optimal_classes=count,
        n_paths=2**n,
        stop_strict_at_root=flags["root"],
        continue_strict_everywhere=flags["continue"],
        tie_pattern=flags["tie"],
    )


def evaluate_reference(w, f, pol):
    """Value of a Markov drawdown rule by the full backward sweep: every row
    k = N..0, every G(N-k, .) row built from every law of M, a STOP or TIE
    state taking G(N-k, z), a CONTINUE state a * V(z-1 v 0) + (b - a) * V(z+1),
    on integer numerators over b**(N-k) * D.  G is summed directly over the
    law, sharing no code with the solver's row kernel."""
    n, a, b = w.n, w.p.numerator, w.p.denominator
    fnum, den = reward_numerators(f, n)
    g_rows = (
        [sum(c * fnum[max(i, m)] for m, c in enumerate(law)) for i in range(n - j + 1)]
        for j, law in enumerate(walkdist.max_laws(w))
    )
    V = next(g_rows)  # G(0, .) = f: every rule stops at the horizon
    for k in range(n - 1, -1, -1):
        G = next(g_rows)
        den *= b
        V = [
            a * V[z - 1 if z else 0] + (b - a) * V[z + 1] if d == "CONTINUE" else g
            for z, (g, d) in enumerate(zip(G, pol.rows[k]))
        ]
    return Fraction(V[0], den)


def joint_law(p, n):
    """Law of (M_n, S_n) as {(max, endpoint): Fraction}: the library's joint
    pass (`walkdist._forward_laws`, rows m of integer numerators over b**n
    for z = M_n - S_n = 0..n - m) in Fractions, without its zero entries."""
    return joint_from_rows(walkdist._forward_laws(p.numerator, p.denominator, n), p.denominator**n)


def joint_from_rows(rows, den):
    """{(max, endpoint): Fraction} from rows m of (M_n, Z_n) numerators over
    den, z = 0..n - m, without the zero entries."""
    return {(m, m - z): Fraction(c, den) for m, row in enumerate(rows) for z, c in enumerate(row) if c}


def max_marginal(joint):
    """Law of M_n, {m: probability}, from a joint law of (M_n, S_n)."""
    out = {}
    for (m, _s), pr in joint.items():
        out[m] = out.get(m, 0) + pr
    return out


def drawdown_marginal(joint):
    """Law of Z_n = M_n - S_n, {z: probability}, from a joint law of (M_n, S_n)."""
    out = {}
    for (m, s), pr in joint.items():
        out[m - s] = out.get(m - s, 0) + pr
    return out


def brownian_grid_reference(seed, model, fv, rules):
    """Samples of fv(M_T - B_tau), one array per grid rule, from one shared
    loop that steps every row to T: chunk c of 10,000 rows reads stream c,
    skips one normal and one uniform per row, then draws one normal and
    one uniform per row and step, the step's maximum from its endpoint by
    inverting P(max >= s | end) = exp(-2 s (s - end) / dt).  A drawdown
    rule stops at the first grid time with drawdown >= a (a > 0) or
    <= sqrt(dt) / 2 (a = 0), a time rule at the first k dt >= t0, either
    at T at the latest.  It shares no code with `brownian`."""
    steps, lam = model.mc.steps, model.lam
    dt = model.T / steps
    eps = 0.5 * math.sqrt(dt)
    samples = [[] for _rule in rules]
    for chunk, start in enumerate(range(0, model.mc.replications, 10_000)):
        count = min(10_000, model.mc.replications - start)
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(chunk,))))
        gen.standard_normal(count), gen.random(count)
        b, m = np.zeros(count), np.zeros(count)
        stopped = [np.zeros(count, dtype=bool) for _rule in rules]
        b_tau = [np.zeros(count) for _rule in rules]
        for k in range(1, steps + 1):
            inc = lam * dt + math.sqrt(dt) * gen.standard_normal(count)
            u = 1.0 - gen.random(count)
            m = np.maximum(m, b + 0.5 * (inc + np.sqrt(inc**2 - 2.0 * dt * np.log(u))))
            b = b + inc
            for rule, done, bt in zip(rules, stopped, b_tau):
                if rule.kind == "time_threshold":
                    trigger = k * dt >= rule.param
                elif rule.param > 0:
                    trigger = m - b >= rule.param
                else:
                    trigger = m - b <= eps
                now = ~done & (trigger | (k == steps))
                bt[now] = b[now]
                done |= now
        for sample, bt in zip(samples, b_tau):
            sample.append(fv(m - bt))
    return [np.concatenate(sample) for sample in samples]


def joint_density_mass(density, t, lam):
    """Integral of density(s, b, t, lam) over b within lam t +- 12 sqrt(t)
    and s from max(0, b) to 12 sqrt(t) above it, by scipy's adaptive
    dblquad: the mass of the joint law of (M_t, B_t), up to 1e-9."""
    reach = 12.0 * math.sqrt(t)
    value, _abserr = integrate.dblquad(
        lambda s, b: density(s, b, t, lam), lam * t - reach, lam * t + reach,
        lambda b: max(0.0, b), lambda b: max(0.0, b) + reach, epsabs=1e-9, epsrel=0.0,
    )
    return value


@pytest.fixture
def p_grid():
    return [Fraction(k, 10) for k in range(1, 10)]


def assert_refused(valid, *fields, match=None):
    """A record of valid's type with these fields raises ValueError matching
    `match` on every construction path: the constructor, `_make`, and
    `_replace` of every field on the valid record."""
    cls = type(valid)
    for build in (
        lambda: cls(*fields),
        lambda: cls._make(fields),
        lambda: valid._replace(**dict(zip(cls._fields, fields))),
    ):
        with pytest.raises(ValueError, match=match):
            build()
