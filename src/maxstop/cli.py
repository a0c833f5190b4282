"""Command-line driver: solvers, verification suites, parameter sweeps.

Every command writes one JSON report (stdout or --output) embedding the
resolved configuration and tool version, with every numeric tagged by how
it was produced: exact rational, quadrature with an error bound, or Monte
Carlo with a standard error.  Probabilities are given as 'a/b' rationals;
bare floats are rejected where exactness is part of the contract.

This module is the only writer of reports: the library's result types are
plain dataclasses, and every number goes out through `_exact`, `_quad` or
`_mc`, which tag it.

Exit status: 0 all checks passed, 1 a theorem check failed (the failing
instance is serialized in the report), 2 configuration error (a bad flag,
environment variable, reward or output path), 3 internal failure (a
library ValueError).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import os
import sys
from fractions import Fraction

from . import __version__, brownian, coupling, dpsolver, oracle, rewards, walkdist
from ._lazy import np

GRID_VERSION = "grids-v1"
DEFAULT_P_GRID = tuple(Fraction(k, 10) for k in range(1, 10))
DEFAULT_N_GRID = tuple(range(1, 11))
DEFAULT_INEQ_N = 8
DEFAULT_INEQ_I = 8
DEFAULT_REFLECTION_N = 12

ENV_SEED = "MAXSTOP_SEED"


class ConfigError(Exception):
    pass


def _positive(kind, noun: str):
    """argparse type: a finite number of the given kind that must be > 0."""

    def parse(text: str):
        try:
            v = kind(text)
        except ValueError:
            v = None
        if v is None or not 0 < v < math.inf:
            raise argparse.ArgumentTypeError(f"must be a positive {noun}, got {text!r}")
        return v

    return parse


def _finite(text: str) -> float:
    """argparse type: a finite float."""
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return v


def _nonnegative_int(text: str) -> int:
    """argparse type: an integer >= 0."""
    try:
        v = int(text)
    except ValueError:
        v = None
    if v is None or v < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return v


def _int_list(text: str) -> list:
    """argparse type: comma-separated integers >= 0."""
    return [_nonnegative_int(v) for v in text.split(",")]


def parse_probability(text: str) -> Fraction:
    """Accept 'a/b' (or an integer-free rational string); reject bare floats."""
    if "." in text or "e" in text.lower():
        raise ConfigError(
            f"probability {text!r} looks like a float; pass an exact rational like 2/5"
        )
    try:
        p = Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"cannot parse probability {text!r}: {e}") from e
    if not 0 < p < 1:
        raise ConfigError(f"probability must lie in (0,1), got {p}")
    return p


def parse_reward(text: str, horizon: int | None = None) -> rewards.RewardSpec:
    """Parse the compact reward syntax used on the command line.

    table:1,1,0  geometric:1/2  indicator_top  linear:3  exp_decay:1.0
    exp_decay_table:1/2 (rationalized on {0..N})  power:0.5
    piecewise:0=1,2=0 (continuous piecewise-linear)
    """
    kind, _, arg = text.partition(":")
    try:
        if kind == "table":
            return rewards.table_reward([Fraction(v) for v in arg.split(",")])
        if kind == "geometric":
            return rewards.geometric_reward(Fraction(arg))
        if kind == "indicator_top":
            return rewards.indicator_top_reward()
        if kind == "linear":
            return rewards.linear_reward(Fraction(arg))
        if kind == "linear_continuous":
            return rewards.linear_reward(Fraction(arg), domain=rewards.CONTINUOUS)
        if kind == "exp_decay":
            return rewards.exp_decay_reward(float(arg))
        if kind == "exp_decay_table":
            if horizon is None:
                raise ConfigError("exp_decay_table needs a horizon (--N)")
            return rewards.exp_decay_table(Fraction(arg), horizon)
        if kind == "power":
            return rewards.power_penalty_reward(float(arg))
        if kind == "piecewise":
            pts = [pair.split("=") for pair in arg.split(",")]
            xs = [float(a) for a, _b in pts]
            ys = [float(b) for _a, b in pts]
            return rewards.custom_table_reward(xs, ys)
    except (ValueError, KeyError, ZeroDivisionError) as e:
        raise ConfigError(f"cannot parse reward {text!r}: {e}") from e
    raise ConfigError(f"unknown reward syntax {text!r}")


def _exact(v) -> dict:
    return {"mode": "exact", "value": str(Fraction(v))}


def _quad(result) -> dict:
    return {"mode": "quadrature", "value": result.value, "error_bound": result.error}


def _mc(est) -> dict:
    return {"mode": "mc", "value": est.estimate, "stderr": est.stderr}


def _solve_fields(rep: dpsolver.SolveReport) -> dict:
    """The values and uniqueness label that `solve` and `sweep` report."""
    return {
        "optimal_value": _exact(rep.optimal_value),
        "value_tau0": _exact(rep.value_tau0),
        "value_tauN": _exact(rep.value_tauN),
        "unique": rep.unique,
    }


def _policy_listing(pol: dpsolver.PolicyTable) -> str:
    """The [k, z, decision] triples of every state in (k, z) order, laid out
    as json.dumps(indent=2) lays out a list under a top-level key.  k and z
    are ints and the decisions are plain ASCII tokens, so no escaping
    arises.  Each row is one join of its decisions with per-z strings
    built once."""
    zs = [f'{z},\n      "' for z in range(pol.n + 1)]
    return "[\n" + ",\n".join(
        f"    [\n      {k},\n      "
        + f'"\n    ],\n    [\n      {k},\n      '.join(map(operator.add, zs, row))
        + '"\n    ]'
        for k, row in enumerate(pol.rows)
    ) + "\n  ]"


def _pair_listing(pairs: tuple) -> str:
    """A sequence of (int, int) pairs laid out as json.dumps(indent=2) lays
    out a list of 2-lists under a top-level key; no pairs give '[]'."""
    if not pairs:
        return "[]"
    return "[\n" + ",\n".join(
        [f"    [\n      {k},\n      {z}\n    ]" for k, z in pairs]
    ) + "\n  ]"


def _write(files: list) -> None:
    """Write each (path, text) of a list of named files.

    Every path is opened (in append mode, which keeps an existing file's
    content) before any is written.  A path that cannot be opened or
    written is a configuration error, and the files this call created are
    then removed.  A file that existed before the call is not restored: a
    failed write can leave it truncated or partly written.
    """
    made = []
    try:
        for path, _text in files:
            existed = os.path.exists(path)
            open(path, "a").close()
            if not existed:
                made.append(path)
        for path, text in files:
            with open(path, "w") as fh:
                fh.write(text)
    except OSError as e:
        for created in made:
            os.remove(created)
        raise _unwritable(path, e) from e


def _unwritable(path: str, e: OSError) -> ConfigError:
    return ConfigError(f"cannot write {path!r}: {e.strerror or e}")


def _emit(report: dict, args, failed: bool, listings: dict | None = None,
          files: tuple = ()) -> int:
    """Write the report, and each further (path, text) of `files`.

    `listings` maps top-level keys to preformatted JSON lists (see
    `_policy_listing` and `_pair_listing`).  json.dumps(indent=2) runs the
    pure-Python encoder, so a per-state listing goes in as null and its text
    is spliced in where the sorted keys put it: top-level keys are the only
    ones indented by two spaces.  The files are written before the report
    goes to stdout, so a path that cannot be written prints no report and
    leaves no file that this call created (see `_write`).
    """
    report["tool_version"] = __version__
    listings = listings or {}
    report.update(dict.fromkeys(listings))
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    for key, listing in listings.items():
        text = text.replace(f'\n  "{key}": null', f'\n  "{key}": {listing}', 1)
    output = getattr(args, "output", None)
    _write([(output, text), *files] if output else files)
    if not output:
        sys.stdout.write(text)
    return 1 if failed else 0


def _default_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    text = os.environ.get(ENV_SEED, "0")
    try:
        return _nonnegative_int(text)
    except argparse.ArgumentTypeError as e:
        raise ConfigError(f"environment variable {ENV_SEED}: {e}") from e


# --- commands ----------------------------------------------------------------


def cmd_solve(args) -> int:
    p = parse_probability(args.p)
    f = parse_reward(args.reward, horizon=args.N)
    rep = dpsolver.solve(walkdist.WalkParams(p, args.N), f)
    report = {
        "command": "solve",
        "config": {"p": str(p), "N": args.N, "reward": args.reward},
        **_solve_fields(rep),
    }
    listings = {"policy": _policy_listing(rep.policy), "tie_states": _pair_listing(rep.tie_states)}
    files = ((args.policy_csv, rep.policy.to_csv()),) if args.policy_csv else ()
    return _emit(report, args, failed=False, listings=listings, files=files)


def _named_policy(name: str, n: int) -> dpsolver.PolicyTable:
    if name == "tau0":
        return dpsolver.policy_tau0(n)
    if name == "tauN":
        return dpsolver.policy_tauN(n)
    if name == "stop-at-max":
        return dpsolver.policy_stop_at_max(n)
    raise ConfigError(f"unknown policy {name!r} (tau0 | tauN | stop-at-max)")


def cmd_evaluate(args) -> int:
    p = parse_probability(args.p)
    f = parse_reward(args.reward, horizon=args.N)
    pol = _named_policy(args.policy, args.N)
    value = dpsolver.evaluate_policy(walkdist.WalkParams(p, args.N), f, pol)
    report = {
        "command": "evaluate",
        "config": {"p": str(p), "N": args.N, "reward": args.reward, "policy": args.policy},
        "value": _exact(value),
    }
    return _emit(report, args, failed=False)


def cmd_oracle(args) -> int:
    p = parse_probability(args.p)
    f = parse_reward(args.reward, horizon=args.N)
    w = walkdist.WalkParams(p, args.N)
    try:
        res = oracle.enumerate_optimum(w, f)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    rep = dpsolver.solve(w, f)
    dp_match = res.value == rep.optimal_value
    report = {
        "command": "oracle",
        "config": {"p": str(p), "N": args.N, "reward": args.reward},
        "optimum": _exact(res.value),
        "n_rules_total": res.n_rules_total,
        "n_optimal_classes": res.n_optimal_classes,
        "dp_match": dp_match,
        "cross_validate": oracle.agrees(res, rep),
    }
    return _emit(report, args, failed=not dp_match)


def _discrete_reward_family(n: int) -> list:
    return [
        ("indicator_top", rewards.indicator_top_reward()),
        ("geometric:1/2", rewards.geometric_reward(Fraction(1, 2))),
        ("geometric:3/4", rewards.geometric_reward(Fraction(3, 4))),
        ("exp_decay_table:1", rewards.exp_decay_table(1, 2 * n + 1)),
        ("linear", rewards.linear_reward(2 * n + 1)),
        ("convex_table", rewards.table_reward([max(0, n - 2 * k) for k in range(2 * n + 2)])),
    ]


def cmd_verify_discrete(args) -> int:
    checks = []
    failures = []

    def record(name: str, ok: bool, detail: dict | None = None):
        checks.append({"check": name, "passed": ok})
        if not ok:
            failures.append({"check": name, **(detail or {})})

    for p in DEFAULT_P_GRID:
        for n in range(0, DEFAULT_REFLECTION_N + 1):
            w = walkdist.WalkParams(p, n)
            if not walkdist.reflection_check(w):
                record(f"reflection p={p} n={n}", False, {"p": str(p), "n": n})
            if not walkdist.time_reversal_check(w):
                record(f"time_reversal p={p} n={n}", False, {"p": str(p), "n": n})
    record("reflection+time_reversal grid", not failures)

    ineq_ok = True
    ineq_horizon = DEFAULT_INEQ_N + DEFAULT_INEQ_I
    ineq_family = [
        (name, f, rewards.classify(f, horizon=2 * ineq_horizon + 1))
        for name, f in _discrete_reward_family(ineq_horizon)
    ]
    for p in [pp for pp in DEFAULT_P_GRID if pp >= Fraction(1, 2)]:
        for n in range(0, DEFAULT_INEQ_N + 1):
            w = walkdist.WalkParams(p, n)
            for name, f, flags in ineq_family:
                for i in range(0, DEFAULT_INEQ_I + 1):
                    key = walkdist.check_key_inequality(w, f, i)
                    cor = walkdist.check_corollary(w, f, i)
                    ok = key.holds and cor.holds
                    if n > 0 and i > 0:
                        if p > Fraction(1, 2) and flags.strictly_decreasing:
                            ok = ok and key.strict and cor.strict
                        if flags.strictly_convex:
                            ok = ok and key.strict
                    if i == 0:
                        ok = ok and key.equal
                    if not ok:
                        ineq_ok = False
                        failures.append(
                            {"check": "key_inequality_grid", "p": str(p), "n": n, "i": i, "f": name}
                        )
    record("key_inequality+corollary grid", ineq_ok)

    thm_ok = True
    families = {n: _discrete_reward_family(n) for n in DEFAULT_N_GRID}
    for p in DEFAULT_P_GRID:
        for n in DEFAULT_N_GRID:
            w = walkdist.WalkParams(p, n)
            for name, f in families[n]:
                rep = dpsolver.solve(w, f)
                ok = True
                if p <= Fraction(1, 2):
                    ok = ok and rep.optimal_value == rep.value_tau0
                if p >= Fraction(1, 2):
                    ok = ok and rep.optimal_value == rep.value_tauN
                if not ok:
                    thm_ok = False
                    failures.append(
                        {"check": "bang_bang", "p": str(p), "N": n, "f": name}
                    )
    record("bang_bang grid", thm_ok)

    report = {
        "command": "verify-discrete",
        "config": {"grid_version": GRID_VERSION},
        "checks": checks,
        "failures": failures,
    }
    return _emit(report, args, failed=bool(failures))


def cmd_simulate(args) -> int:
    seed = _default_seed(args)
    ps = tuple(parse_probability(t) for t in args.ps.split(","))
    if len(set(ps)) < len(ps):
        raise ConfigError(f"--ps lists a probability twice: {args.ps!r}")
    ordering_violations = 0
    endpoints = {p: [] for p in ps}
    for cp in coupling.simulate(seed, args.n, ps, args.replications):
        ordering_violations += cp.ordering_violations()
        for p in ps:
            endpoints[p].append(cp.s[p][:, -1].astype(float))

    report = {
        "command": "simulate",
        "config": {
            "seed": seed,
            "n": args.n,
            "ps": [str(p) for p in ps],
            "replications": args.replications,
            "generator": coupling.GENERATOR,
        },
        "ordering_violations": ordering_violations,
        "mean_endpoint": {
            str(p): _mc(coupling.McEstimate.from_sample(np.concatenate(endpoints[p]))) for p in ps
        },
    }
    return _emit(report, args, failed=ordering_violations > 0)


def cmd_bm_verify(args) -> int:
    failures = []
    checks = []

    for t in (1.0, 2.0):
        for lam in (-1.0, 0.0, 1.0):
            norm = brownian.expect_joint(lambda s, b: np.ones_like(s), t, lam)
            ok = abs(norm.value - 1.0) < 1e-6
            checks.append(
                {"check": f"normalization t={t} lam={lam}", "passed": ok, "value": _quad(norm)}
            )
            if not ok:
                failures.append({"check": "normalization", "t": t, "lam": lam})

    rng = np.random.Generator(np.random.PCG64(_default_seed(args)))
    for lam in (0.3, 1.0, -0.7):
        b = rng.uniform(-3, 3, size=10_000)
        s = np.maximum(b, 0) + rng.uniform(0, 3, size=10_000)
        disc = brownian.density_reflection_check(1.0, lam, (s, b))
        ok = disc < 1e-12
        checks.append({"check": f"reflection lam={lam}", "passed": ok, "max_rel_disc": disc})
        if not ok:
            failures.append({"check": "density_reflection", "lam": lam, "max_rel_disc": disc})

    for lam in (0.3, 1.0):
        bg = np.linspace(0.05, 3.0, 40)
        sg = bg[:, None] + np.linspace(0.0, 3.0, 40)[None, :]
        hp = brownian.joint_density(sg, np.broadcast_to(bg[:, None], sg.shape), 1.0, lam)
        hm = brownian.joint_density(sg, np.broadcast_to(bg[:, None], sg.shape), 1.0, -lam)
        ok = bool(np.all(hp >= hm))
        checks.append({"check": f"density_ordering lam={lam}", "passed": ok})
        if not ok:
            failures.append({"check": "density_ordering", "lam": lam})

    f = rewards.exp_decay_reward(1.0)
    for t in (0.5, 1.0):
        for x in (0.0, 0.5, 1.0):
            for lam in (0.0, 0.5, 1.0):
                rep = brownian.check_bm_key_inequality(t, x, lam, f)
                ok = rep.verdict != "violated"
                if x > 0 and lam > 0:
                    ok = rep.verdict == "strict"
                checks.append(
                    {
                        "check": f"bm_key_inequality t={t} x={x} lam={lam}",
                        "passed": ok,
                        "report": {
                            "lhs": rep.lhs,
                            "rhs": rep.rhs,
                            "quad_error_bound": rep.quad_error_bound,
                            "verdict": rep.verdict,
                        },
                    }
                )
                if not ok:
                    failures.append({"check": "bm_key_inequality", "t": t, "x": x, "lam": lam})

    report = {
        "command": "bm-verify",
        "config": {"seed": _default_seed(args), "grid_version": GRID_VERSION},
        "checks": checks,
        "failures": failures,
    }
    return _emit(report, args, failed=bool(failures))


def _parse_bm_rule(text: str) -> brownian.BmRule:
    kind, _, arg = text.partition(":")
    try:
        if kind == "tau0":
            return brownian.BmRule("tau0")
        if kind == "tauT":
            return brownian.BmRule("tauT")
        if kind == "drawdown":
            return brownian.BmRule("drawdown_threshold", float(arg))
        if kind == "time":
            return brownian.BmRule("time_threshold", float(arg))
    except ValueError as e:
        raise ConfigError(f"cannot parse rule {text!r}: {e}") from e
    raise ConfigError(f"unknown rule {text!r} (tau0 | tauT | drawdown:a | time:t0)")


def cmd_bm_mc(args) -> int:
    seed = _default_seed(args)
    rule = _parse_bm_rule(args.rule)
    t_max = brownian._max_horizon(args.steps, rule)
    if args.T > t_max:
        raise ConfigError(f"--T must lie in (0, {t_max:.6g}] for rule {args.rule!r} "
                          f"at --steps {args.steps}, got {args.T:g}")
    limit = brownian.max_drift(args.T, args.steps, rule)
    if abs(args.lam) > limit:
        raise ConfigError(f"--lam must lie in [-{limit:.6g}, {limit:.6g}] for rule {args.rule!r} "
                          f"at --T {args.T:g} and --steps {args.steps}, got {args.lam:g}")
    f = parse_reward(args.reward)
    model = brownian.BmModel(
        lam=args.lam,
        T=args.T,
        mc=brownian.McConfig(steps=args.steps, replications=args.replications),
    )
    est = brownian.mc_bm_rule_value(seed, model, f, rule)
    report = {
        "command": "bm-mc",
        "config": {
            "seed": seed,
            "lam": args.lam,
            "T": args.T,
            "steps": args.steps,
            "replications": args.replications,
            "rule": args.rule,
            "reward": args.reward,
            "generator": coupling.GENERATOR,
        },
        "estimate": {**_mc(est), "rule": rule.label(), "steps": est.steps},
    }
    return _emit(report, args, failed=False)


def cmd_sweep(args) -> int:
    texts = args.p_list.split(",")
    ps = [parse_probability(t) for t in texts]
    if len(set(ps)) < len(ps):
        raise ConfigError(f"--p-list lists a probability twice: {args.p_list!r}")
    if len(set(args.n_list)) < len(args.n_list):
        raise ConfigError(f"--n-list lists a horizon twice: {args.n_list}")
    cells = {}
    for n in args.n_list:
        f = parse_reward(args.reward, horizon=n)
        for text, p in zip(texts, ps):
            cells[f"p={text},N={n}"] = _solve_fields(dpsolver.solve(walkdist.WalkParams(p, n), f))
    report = {
        "command": "sweep",
        "config": {"reward": args.reward, "p_list": texts, "n_list": args.n_list},
        "cells": cells,
    }
    return _emit(report, args, failed=False)


# --- parser ------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: each parse_args call fills a fresh namespace."""
    ap = argparse.ArgumentParser(
        prog="maxstop",
        description="Solve and verify optimal stopping relative to the ultimate maximum",
    )
    ap.add_argument("--output", help="write the JSON report here instead of stdout")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="exact backward-induction solve")
    sp.add_argument("--p", required=True, help="up probability as a rational a/b")
    sp.add_argument("--N", type=_nonnegative_int, required=True)
    sp.add_argument("--reward", required=True)
    sp.add_argument("--policy-csv", help="also write the optimal policy as CSV")
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("evaluate", help="exact value of a named Markov policy")
    sp.add_argument("--p", required=True)
    sp.add_argument("--N", type=_nonnegative_int, required=True)
    sp.add_argument("--reward", required=True)
    sp.add_argument("--policy", required=True, help="tau0 | tauN | stop-at-max")
    sp.set_defaults(fn=cmd_evaluate)

    sp = sub.add_parser("oracle", help="exhaustive small-horizon ground truth")
    sp.add_argument("--p", required=True)
    sp.add_argument("--N", type=_nonnegative_int, required=True)
    sp.add_argument("--reward", required=True)
    sp.set_defaults(fn=cmd_oracle)

    sp = sub.add_parser("verify-discrete", help="exact theorem checks on the default grid")
    sp.set_defaults(fn=cmd_verify_discrete)

    sp = sub.add_parser("simulate", help="coupled walks from shared uniforms")
    sp.add_argument("--seed", type=_nonnegative_int, default=None)
    sp.add_argument("--n", type=_nonnegative_int, required=True)
    sp.add_argument("--ps", required=True, help="comma-separated rationals, e.g. 1/4,3/4")
    sp.add_argument("--replications", type=_positive(int, "integer"), default=1000)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("bm-verify", help="Brownian density and inequality checks")
    sp.add_argument("--seed", type=_nonnegative_int, default=None)
    sp.set_defaults(fn=cmd_bm_verify)

    sp = sub.add_parser("bm-mc", help="Monte Carlo value of a Brownian stopping rule")
    sp.add_argument("--seed", type=_nonnegative_int, default=None)
    sp.add_argument("--lam", type=_finite, required=True)
    sp.add_argument("--T", type=_positive(float, "number"), default=1.0)
    sp.add_argument("--steps", type=_positive(int, "integer"), default=1000)
    sp.add_argument("--replications", type=_positive(int, "integer"), default=100_000)
    sp.add_argument("--rule", required=True, help="tau0 | tauT | drawdown:a | time:t0")
    sp.add_argument("--reward", required=True)
    sp.set_defaults(fn=cmd_bm_mc)

    sp = sub.add_parser("sweep", help="solve over a parameter grid")
    sp.add_argument("--reward", required=True)
    sp.add_argument("--p-list", required=True)
    sp.add_argument("--n-list", type=_int_list, required=True)
    sp.set_defaults(fn=cmd_sweep)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, rewards.RewardDomainError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
