"""Command-line driver: solvers, verification suites, parameter sweeps.

Every command writes one JSON report (stdout or --output) embedding the
resolved configuration and tool version, with every numeric tagged by how
it was produced: exact rational, quadrature with an error bound, or Monte
Carlo with a standard error.  Probabilities are given as 'a/b' rationals;
bare floats are rejected where exactness is part of the contract.

This module is the only writer of reports: the library's result types are
plain `NamedTuple` records, and every number goes out through `_exact`,
`_quad` or `_mc`, which tag it.

Exit status: 0 all checks passed, 1 a theorem check failed (the failing
instance is serialized in the report), 2 configuration error (a bad flag,
reward or output path, or input that a library check such as
`oracle.check_horizon` or `brownian.check_limits` refuses before the
work starts), 3 internal failure (any other exception, a ValueError
raised during the work included).
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


class ConfigError(Exception):
    pass


def _number(kind, ok, what: str):
    """argparse type: a number v = kind(text) with ok(v), else the error
    'must be <what>', which argparse prefixes with the flag."""

    def parse(text: str):
        try:
            v = kind(text)
        except ValueError:
            v = None
        if v is None or not ok(v):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return v

    return parse


_nonnegative_int = _number(int, lambda v: v >= 0, "an integer >= 0")


def _int_list(text: str) -> list:
    """argparse type: comma-separated integers >= 0."""
    return [_nonnegative_int(v) for v in text.split(",")]


def _config_check(check, *args) -> None:
    """Run a library check of the input; its ValueError is a configuration error."""
    try:
        check(*args)
    except ValueError as e:
        raise ConfigError(str(e)) from e


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
                raise ConfigError("exp_decay_table is a discrete reward, a table on {0..N}; "
                                  "use exp_decay:sigma for Brownian motion")
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


def _policy_listing(pol: dpsolver.PolicyTable) -> list:
    """The [k, z, decision] triples of every state in (k, z) order, as the
    parts of the text that json.dumps(indent=2) writes for that list under a
    top-level key: for each row k, its head (with the '[' or ',' before
    it), one join of its decisions with per-z strings built once, and its
    tail; then the closing bracket.  No part is copied into another.  k and
    z are ints and the decisions are plain ASCII tokens, so no escaping
    arises."""
    zs = [f'{z},\n      "' for z in range(pol.n + 1)]
    parts = []
    for k, row in enumerate(pol.rows):
        parts += (f"{',' if k else '['}\n    [\n      {k},\n      ",
                  f'"\n    ],\n    [\n      {k},\n      '.join(map(operator.add, zs, row)),
                  '"\n    ]')
    parts.append("\n  ]")
    return parts


def _pair_listing(pairs: tuple) -> list:
    """A sequence of (int, int) pairs as the parts of the text that
    json.dumps(indent=2) writes for a list of 2-lists under a top-level key,
    one part per pair; no pairs give '[]'."""
    if not pairs:
        return ["[]"]
    parts = [f"{',' if i else '['}\n    [\n      {k},\n      {z}\n    ]"
             for i, (k, z) in enumerate(pairs)]
    parts.append("\n  ]")
    return parts


def _write(files: list) -> None:
    """Write each (path, text) of a list of named files.

    Two paths that name one file (after resolving symlinks) are a
    configuration error before anything is opened, since the later write
    would replace the earlier.  Every path is opened (in append mode, which
    keeps an existing file's content) before any is written.  A path that
    cannot be opened or written is a configuration error, and the files
    this call created are then removed.  A file that existed before the
    call is not restored: a failed write can leave it truncated or partly
    written.
    """
    seen = set()
    for path, _text in files:
        real = os.path.realpath(path)
        if real in seen:
            raise ConfigError(f"two outputs name the same file {path!r}")
        seen.add(real)
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

    `listings` maps top-level keys to the parts of preformatted JSON lists
    (see `_policy_listing` and `_pair_listing`).  json.dumps(indent=2) runs
    the pure-Python encoder, so the report is dumped with each listing as
    null.  That small text is cut at each placeholder in sorted-key order
    (top-level keys are the only ones indented by two spaces), and the
    report is its pieces and the listings' parts in one join.  The files
    are written before the report goes to stdout, so a path that cannot be
    written prints no report and leaves no file that this call created
    (see `_write`).
    """
    report["tool_version"] = __version__
    listings = listings or {}
    report.update(dict.fromkeys(listings))
    rest = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    parts = []
    for key in sorted(listings):
        head, _, rest = rest.partition(f'\n  "{key}": null')
        parts += (head, f'\n  "{key}": ', *listings[key])
    parts.append(rest)
    text = "".join(parts)
    output = getattr(args, "output", None)
    _write([(output, text), *files] if output else files)
    if not output:
        sys.stdout.write(text)
    return 1 if failed else 0


class _Checks:
    """The `checks` and `failures` lists of a verify report.

    `record` adds a check, and unless it passed its failure (by default the
    check's name alone).  A grid's failed points go to `failures` through
    `fail` (or through `record`, to list them in `checks` too); `grid` then
    adds the grid's own check, failed if any failure came after the
    previous grid's check.
    """

    def __init__(self):
        self.checks, self.failures, self._grid_start = [], [], 0

    def record(self, check: str, ok: bool, failure: dict | None = None, **fields) -> None:
        self.checks.append({"check": check, "passed": ok, **fields})
        if not ok:
            self.failures.append(failure or {"check": check})

    def fail(self, check: str, **detail) -> None:
        self.failures.append({"check": check, **detail})

    def grid(self, check: str) -> None:
        self.record(check, len(self.failures) == self._grid_start)
        self._grid_start = len(self.failures)

    def emit(self, args, command: str, config: dict) -> int:
        report = {"command": command, "config": config, "checks": self.checks,
                  "failures": self.failures}
        return _emit(report, args, failed=bool(self.failures))


# --- commands ----------------------------------------------------------------


def _walk_args(args) -> tuple:
    """(WalkParams, reward, config) of the --p, --N and --reward flags."""
    p = parse_probability(args.p)
    f = parse_reward(args.reward, horizon=args.N)
    config = {"p": str(p), "N": args.N, "reward": args.reward}
    return walkdist.WalkParams(p, args.N), f, config


def cmd_solve(args) -> int:
    w, f, config = _walk_args(args)
    rep = dpsolver.solve(w, f)
    report = {"command": "solve", "config": config, **_solve_fields(rep)}
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
    w, f, config = _walk_args(args)
    value = dpsolver.evaluate_policy(w, f, _named_policy(args.policy, args.N))
    report = {
        "command": "evaluate",
        "config": {**config, "policy": args.policy},
        "value": _exact(value),
    }
    return _emit(report, args, failed=False)


def cmd_oracle(args) -> int:
    w, f, config = _walk_args(args)
    _config_check(oracle.check_horizon, args.N)
    res = oracle.enumerate_optimum(w, f)
    rep = dpsolver.solve(w, f)
    dp_match = res.value == rep.optimal_value
    cross_validate = oracle.agrees(res, rep)
    report = {
        "command": "oracle",
        "config": config,
        "optimum": _exact(res.value),
        "n_rules_total": res.n_rules_total,
        "n_optimal_classes": res.n_optimal_classes,
        "dp_match": dp_match,
        "cross_validate": cross_validate,
    }
    return _emit(report, args, failed=not (dp_match and cross_validate))


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
    rec = _Checks()
    for p in DEFAULT_P_GRID:
        for n in range(0, DEFAULT_REFLECTION_N + 1):
            w = walkdist.WalkParams(p, n)
            for name, check in (("reflection", walkdist.reflection_check),
                                ("time_reversal", walkdist.time_reversal_check)):
                if not check(w):
                    label = f"{name} p={p} n={n}"
                    rec.record(label, False, {"check": label, "p": str(p), "n": n})
    rec.grid("reflection+time_reversal grid")

    half = Fraction(1, 2)
    ineq_horizon = DEFAULT_INEQ_N + DEFAULT_INEQ_I
    ineq_family = [
        (name, f, rewards.classify(f, horizon=2 * ineq_horizon + 1))
        for name, f in _discrete_reward_family(ineq_horizon)
    ]
    for p in [pp for pp in DEFAULT_P_GRID if pp >= half]:
        for n in range(0, DEFAULT_INEQ_N + 1):
            w = walkdist.WalkParams(p, n)
            for name, f, flags in ineq_family:
                for i in range(0, DEFAULT_INEQ_I + 1):
                    key = walkdist.check_key_inequality(w, f, i)
                    cor = walkdist.check_corollary(w, f, i)
                    ok = key.holds and cor.holds
                    if i == 0 or p == half and flags.linear:
                        ok = ok and key.equal
                    if n > 0 and p > half and flags.strictly_decreasing:
                        ok = ok and cor.strict and (i == 0 or key.strict)
                    if n > 0 and i > 0 and flags.strictly_convex:
                        ok = ok and key.strict
                    if not ok:
                        rec.fail("key_inequality_grid", p=str(p), n=n, i=i, f=name)
    rec.grid("key_inequality+corollary grid")

    families = {n: _discrete_reward_family(n) for n in DEFAULT_N_GRID}
    for p in DEFAULT_P_GRID:
        for n in DEFAULT_N_GRID:
            w = walkdist.WalkParams(p, n)
            for name, f in families[n]:
                rep = dpsolver.solve(w, f)
                if (p <= half and rep.optimal_value != rep.value_tau0
                        or p >= half and rep.optimal_value != rep.value_tauN):
                    rec.fail("bang_bang", p=str(p), N=n, f=name)
    rec.grid("bang_bang grid")
    return rec.emit(args, "verify-discrete", {"grid_version": GRID_VERSION})


def cmd_bm_verify(args) -> int:
    rec = _Checks()
    for t in (1.0, 2.0):
        for lam in (-1.0, 0.0, 1.0):
            norm = brownian._expect_floor_max(np.ones_like, (), t, lam, 0.0, 0.0)
            rec.record(f"normalization t={t} lam={lam}", abs(norm.value - 1.0) < 1e-6,
                       {"check": "normalization", "t": t, "lam": lam}, value=_quad(norm))

    rng = coupling._rng(args.seed)
    for lam in (0.3, 1.0, -0.7):
        b = rng.uniform(-3, 3, size=10_000)
        s = np.maximum(b, 0) + rng.uniform(0, 3, size=10_000)
        disc = brownian.density_reflection_check(1.0, lam, (s, b))
        rec.record(f"reflection lam={lam}", disc < 1e-12,
                   {"check": "density_reflection", "lam": lam, "max_rel_disc": disc},
                   max_rel_disc=disc)

    for lam in (0.3, 1.0):
        bg = np.linspace(0.05, 3.0, 40)
        sg = bg[:, None] + np.linspace(0.0, 3.0, 40)[None, :]
        hp = brownian.joint_density(sg, np.broadcast_to(bg[:, None], sg.shape), 1.0, lam)
        hm = brownian.joint_density(sg, np.broadcast_to(bg[:, None], sg.shape), 1.0, -lam)
        rec.record(f"density_ordering lam={lam}", bool(np.all(hp >= hm)),
                   {"check": "density_ordering", "lam": lam})

    f = rewards.exp_decay_reward(1.0)
    for t in (0.5, 1.0):
        for x in (0.0, 0.5, 1.0):
            for lam in (0.0, 0.5, 1.0):
                rep = brownian.check_bm_key_inequality(t, x, lam, f)
                ok = rep.verdict == "strict" if x > 0 and lam > 0 else rep.verdict != "violated"
                report = {"lhs": rep.lhs, "rhs": rep.rhs,
                          "quad_error_bound": rep.quad_error_bound, "verdict": rep.verdict}
                rec.record(f"bm_key_inequality t={t} x={x} lam={lam}", ok,
                           {"check": "bm_key_inequality", "t": t, "x": x, "lam": lam},
                           report=report)
    return rec.emit(args, "bm-verify", {"seed": args.seed, "grid_version": GRID_VERSION})


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
    rule = _parse_bm_rule(args.rule)
    model = brownian.BmModel(
        lam=args.lam,
        T=args.T,
        mc=brownian.McConfig(steps=args.steps, replications=args.replications),
    )
    _config_check(brownian.check_limits, model, [rule])
    f = parse_reward(args.reward)
    est = brownian.mc_bm_rule_values(args.seed, model, f, [rule])[0]
    report = {
        "command": "bm-mc",
        "config": {
            "seed": args.seed,
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
    walk = argparse.ArgumentParser(add_help=False)
    walk.add_argument("--p", required=True, help="up probability as a rational a/b")
    walk.add_argument("--N", type=_nonnegative_int, required=True)
    walk.add_argument("--reward", required=True)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_nonnegative_int, default=0)

    sp = sub.add_parser("solve", parents=[walk], help="exact backward-induction solve")
    sp.add_argument("--policy-csv", help="also write the optimal policy as CSV")
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("evaluate", parents=[walk], help="exact value of a named Markov policy")
    sp.add_argument("--policy", required=True, help="tau0 | tauN | stop-at-max (stops at "
                    "time 0, where the drawdown is 0, so it values as tau0)")
    sp.set_defaults(fn=cmd_evaluate)

    sp = sub.add_parser("oracle", parents=[walk], help="exhaustive small-horizon ground truth")
    sp.set_defaults(fn=cmd_oracle)

    sp = sub.add_parser("verify-discrete", help="exact theorem checks on the default grid")
    sp.set_defaults(fn=cmd_verify_discrete)

    sp = sub.add_parser("bm-verify", parents=[seeded],
                        help="Brownian density and inequality checks")
    sp.set_defaults(fn=cmd_bm_verify)

    positive = _number(int, lambda v: v > 0, "a positive integer")
    sp = sub.add_parser("bm-mc", parents=[seeded],
                        help="Monte Carlo value of a Brownian stopping rule")
    sp.add_argument("--lam", type=_number(float, math.isfinite, "a finite number"), required=True)
    sp.add_argument("--T", type=_number(float, lambda v: 0 < v < math.inf, "a positive number"),
                    default=1.0)
    sp.add_argument("--steps", type=positive, default=brownian.McConfig().steps)
    sp.add_argument("--replications", type=positive, default=brownian.McConfig().replications)
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
    except Exception as e:  # exit 1 means only a failed theorem check
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
