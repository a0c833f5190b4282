"""Command-line driver: solvers, verification suites, parameter sweeps.

Every command writes one JSON report (stdout or --output) embedding the
resolved configuration and tool version, with every numeric tagged by how
it was produced: exact rational, quadrature with an error bound, or Monte
Carlo with a standard error.  Probabilities are given as 'a/b' rationals;
bare floats are rejected where exactness is part of the contract.

Exit status: 0 all checks passed, 1 a theorem check failed (the failing
instance is serialized in the report), 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__, brownian, coupling, dpsolver, oracle, rewards, walkdist

GRID_VERSION = "grids-v1"
DEFAULT_P_GRID = tuple(Fraction(k, 10) for k in range(1, 10))
DEFAULT_N_GRID = tuple(range(1, 11))
DEFAULT_INEQ_N = 8
DEFAULT_INEQ_I = 8
DEFAULT_REFLECTION_N = 12

ENV_SEED = "MAXSTOP_SEED"


class ConfigError(Exception):
    pass


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
    except (ValueError, KeyError) as e:
        raise ConfigError(f"cannot parse reward {text!r}: {e}") from e
    raise ConfigError(f"unknown reward syntax {text!r}")


def _exact(v) -> dict:
    return {"mode": "exact", "value": str(Fraction(v))}


def _quad(result) -> dict:
    return {"mode": "quadrature", "value": result.value, "error_bound": result.error}


def _mc(est) -> dict:
    return {"mode": "mc", "value": est.estimate, "stderr": est.stderr}


def _emit(report: dict, args, failed: bool) -> int:
    report["tool_version"] = __version__
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 1 if failed else 0


def _default_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get(ENV_SEED, "0"))


# --- commands ----------------------------------------------------------------


def cmd_solve(args) -> int:
    p = parse_probability(args.p)
    f = parse_reward(args.reward, horizon=args.N)
    rep = dpsolver.solve(walkdist.WalkParams(p, args.N), f)
    report = {
        "command": "solve",
        "config": {"p": str(p), "N": args.N, "reward": args.reward},
        "optimal_value": _exact(rep.optimal_value),
        "value_tau0": _exact(rep.value_tau0),
        "value_tauN": _exact(rep.value_tauN),
        "unique": rep.unique,
        "tie_states": [list(s) for s in rep.tie_states],
        "policy": sorted([k, z, d] for (k, z), d in rep.policy.decisions.items()),
    }
    if args.policy_csv:
        with open(args.policy_csv, "w") as fh:
            fh.write(rep.policy.to_csv())
    return _emit(report, args, failed=False)


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
        res = oracle.enumerate_optimum(w, f, max_n=args.max_n)
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
        "cross_validate": oracle.cross_validate(w, f, max_n=args.max_n),
    }
    return _emit(report, args, failed=not dp_match)


def _discrete_reward_family(n: int) -> list:
    fam = [
        ("indicator_top", rewards.indicator_top_reward()),
        ("geometric:1/2", rewards.geometric_reward(Fraction(1, 2))),
        ("geometric:3/4", rewards.geometric_reward(Fraction(3, 4))),
        ("exp_decay_table:1", rewards.exp_decay_table(1, 2 * n + 1)),
        ("linear", rewards.linear_reward(2 * n + 1)),
        ("convex_table", rewards.table_reward([max(0, n - 2 * k) for k in range(2 * n + 2)])),
    ]
    return fam


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
    for p in [pp for pp in DEFAULT_P_GRID if pp >= Fraction(1, 2)]:
        for n in range(0, DEFAULT_INEQ_N + 1):
            w = walkdist.WalkParams(p, n)
            for name, f in _discrete_reward_family(DEFAULT_INEQ_N + DEFAULT_INEQ_I):
                flags = rewards.classify(f, horizon=2 * (DEFAULT_INEQ_N + DEFAULT_INEQ_I) + 1)
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
    for p in DEFAULT_P_GRID:
        for n in DEFAULT_N_GRID:
            w = walkdist.WalkParams(p, n)
            for name, f in _discrete_reward_family(n):
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
        "config": {"grid": args.grid, "grid_version": GRID_VERSION},
        "checks": checks,
        "failures": failures,
    }
    return _emit(report, args, failed=bool(failures))


def cmd_simulate(args) -> int:
    import math

    seed = _default_seed(args)
    ps = tuple(parse_probability(t) for t in args.ps.split(","))
    ordering_violations = 0
    endpoints = {p: [] for p in ps}
    paths = []
    for cp in coupling.simulate(seed, args.n, ps, args.replications):
        if not cp.check_ordering():
            ordering_violations += 1
        for p in ps:
            endpoints[p].append(int(cp.s[p][-1]))
        if args.csv_out and cp.replication < args.csv_limit:
            paths.append(cp)
    if args.csv_out:
        with open(args.csv_out, "w") as fh:
            fh.write(coupling.paths_to_csv(paths))

    def mc_mean(vals):
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / len(vals)
        return {"mode": "mc", "value": mean, "stderr": math.sqrt(var / len(vals))}

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
        "mean_endpoint": {str(p): mc_mean(endpoints[p]) for p in ps},
    }
    return _emit(report, args, failed=ordering_violations > 0)


def cmd_bm_verify(args) -> int:
    import numpy as np

    failures = []
    checks = []
    quad = brownian.QuadConfig()

    for t in (1.0, 2.0):
        for lam in (-1.0, 0.0, 1.0):
            norm = brownian.expect_joint(lambda s, b: np.ones_like(s), t, lam, quad)
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
                rep = brownian.check_bm_key_inequality(t, x, lam, f, quad)
                ok = rep.verdict != "violated"
                if x > 0 and lam > 0:
                    ok = rep.verdict == "strict"
                checks.append(
                    {
                        "check": f"bm_key_inequality t={t} x={x} lam={lam}",
                        "passed": ok,
                        "report": json.loads(rep.to_json()),
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
    f = parse_reward(args.reward)
    model = brownian.BmModel(
        lam=args.lam,
        T=args.T,
        mc=brownian.McConfig(steps=args.steps, replications=args.replications, seed=seed),
    )
    rule = _parse_bm_rule(args.rule)
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
        "estimate": {
            "mode": "mc",
            "value": est.estimate,
            "stderr": est.stderr,
            "rule": est.rule,
            "steps": est.steps,
        },
    }
    return _emit(report, args, failed=False)


def _solve_cell(task):
    p_text, n, reward_text = task
    p = parse_probability(p_text)
    f = parse_reward(reward_text, horizon=n)
    rep = dpsolver.solve(walkdist.WalkParams(p, n), f)
    return {
        "optimal_value": _exact(rep.optimal_value),
        "value_tau0": _exact(rep.value_tau0),
        "value_tauN": _exact(rep.value_tauN),
        "unique": rep.unique,
    }


def cmd_sweep(args) -> int:
    ps = args.p_list.split(",")
    ns = [int(v) for v in args.n_list.split(",")]
    tasks = sorted((p, n, args.reward) for p in ps for n in ns)
    if args.workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_solve_cell, tasks))
    else:
        results = [_solve_cell(t) for t in tasks]
    cells = {f"p={p},N={n}": res for (p, n, _r), res in zip(tasks, results)}
    report = {
        "command": "sweep",
        "config": {"reward": args.reward, "p_list": ps, "n_list": ns, "workers": args.workers},
        "cells": cells,
    }
    return _emit(report, args, failed=False)


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="maxstop",
        description="Solve and verify optimal stopping relative to the ultimate maximum",
    )
    ap.add_argument("--output", help="write the JSON report here instead of stdout")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="exact backward-induction solve")
    sp.add_argument("--p", required=True, help="up probability as a rational a/b")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--reward", required=True)
    sp.add_argument("--policy-csv", help="also write the optimal policy as CSV")
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("evaluate", help="exact value of a named Markov policy")
    sp.add_argument("--p", required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--reward", required=True)
    sp.add_argument("--policy", required=True, help="tau0 | tauN | stop-at-max")
    sp.set_defaults(fn=cmd_evaluate)

    sp = sub.add_parser("oracle", help="exhaustive small-horizon ground truth")
    sp.add_argument("--p", required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--reward", required=True)
    sp.add_argument("--max-n", type=int, default=oracle.DEFAULT_MAX_HORIZON)
    sp.set_defaults(fn=cmd_oracle)

    sp = sub.add_parser("verify-discrete", help="exact theorem checks on the default grid")
    sp.add_argument("--grid", default="default")
    sp.set_defaults(fn=cmd_verify_discrete)

    sp = sub.add_parser("simulate", help="coupled walks from shared uniforms")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--ps", required=True, help="comma-separated rationals, e.g. 1/4,3/4")
    sp.add_argument("--replications", type=int, default=1000)
    sp.add_argument("--csv-out", help="dump the first replications as CSV")
    sp.add_argument("--csv-limit", type=int, default=10)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("bm-verify", help="Brownian density and inequality checks")
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(fn=cmd_bm_verify)

    sp = sub.add_parser("bm-mc", help="Monte Carlo value of a Brownian stopping rule")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--lam", type=float, required=True)
    sp.add_argument("--T", type=float, default=1.0)
    sp.add_argument("--steps", type=int, default=1000)
    sp.add_argument("--replications", type=int, default=100_000)
    sp.add_argument("--rule", required=True, help="tau0 | tauT | drawdown:a | time:t0")
    sp.add_argument("--reward", required=True)
    sp.set_defaults(fn=cmd_bm_mc)

    sp = sub.add_parser("sweep", help="solve over a parameter grid")
    sp.add_argument("--reward", required=True)
    sp.add_argument("--p-list", required=True)
    sp.add_argument("--n-list", required=True)
    sp.add_argument("--workers", type=int, default=1)
    sp.set_defaults(fn=cmd_sweep)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
