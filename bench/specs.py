"""Seeded job lists for the three benchmark workloads.

A job is a plain dict of inputs (strings, ints, floats), so the parent
process can compute references for it without importing maxstop and the
worker can run it.  The same (workload, seed, small) always gives the same
jobs.  The seed moves the inputs, never the shape of a workload: every seed
has the same number of jobs of each kind, the same reward families and the
same horizons, so the time of a pass and the number of jobs that trip a
known library defect do not depend on the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

# p below, at and above 1/2, with small and larger denominators
LARGE_PS = ("1/2", "2/5", "3/7", "3/5", "4/7")
GRID_PS = ("1/4", "1/3", "2/5", "3/7", "1/2", "4/7", "3/5", "2/3", "3/4")
GRID_PS_UPPER = tuple(p for p in GRID_PS if Fraction(p) >= Fraction(1, 2))

GRID_MAX_N = 16

MC_WALK_N = 20

# Quadrature points are a fixed design, not seeded: the cost of one point
# ranges over 30x (x = 0 needs ~30 panels, x > 0 up to ~1400), and whether a
# claimed error bound holds is a deterministic function of the point, so
# seeded points would make wall_s and failed_ratio depend on the seed more
# than on the code.  (0.5, 0.25, 1.0) is a known bound violation.
QUAD_POINTS = (
    (0.5, 0.0, -1.0),
    (1.0, 0.0, 1.0),
    (2.0, 0.0, -0.4),
    (0.5, 0.25, 1.0),
    (1.0, 0.25, -1.0),
    (1.0, 0.5, 0.4),
    (2.0, 0.5, -0.4),
)
QUAD_SIGMA = 1.0


def _table_spec(n: int, rng: random.Random) -> str:
    """A nonincreasing convex integer table on {0..n}: hinge or square."""
    if rng.random() < 0.5:
        c = rng.randint(n // 2, n)
        vals = [max(0, c - 2 * k) for k in range(n + 1)]
    else:
        vals = [(n - k) ** 2 for k in range(n + 1)]
    return "table:" + ",".join(str(v) for v in vals)


def _cli_reward(family: str, n: int, rng: random.Random) -> str:
    """A CLI reward string of the given discrete family, on {0..n}."""
    if family == "geometric":
        return "geometric:" + rng.choice(("1/2", "2/3", "3/4"))
    if family == "indicator_top":
        return "indicator_top"
    if family == "linear":
        return f"linear:{n + rng.randint(0, 5)}"
    if family == "table":
        return _table_spec(n, rng)
    if family == "exp_decay_table":
        return "exp_decay_table:" + rng.choice(("1", "1/2"))
    raise ValueError(family)


FAMILIES = ("geometric", "indicator_top", "linear", "table", "exp_decay_table")


def exact_large(seed: int, small: bool = False) -> list:
    """Five CLI solve/evaluate jobs at N = 86..90, one per p: no two share a law.

    Which p, N, reward family and command go together is fixed, since the
    law pass costs more at larger N and denominators; the seed picks each
    family's parameters, the evaluated policies and the job order.
    """
    rng = random.Random(f"exact_large:{seed}")
    base = 12 if small else 86
    commands = ("solve", "solve", "solve", "evaluate", "evaluate")
    jobs = []
    for k, (p, family, command) in enumerate(zip(LARGE_PS, FAMILIES, commands)):
        n = base + k
        job = {"kind": "cli_" + command, "p": p, "N": n, "reward": _cli_reward(family, n, rng)}
        if command == "evaluate":
            job["policy"] = rng.choice(("tau0", "tauN", "stop-at-max"))
        jobs.append(job)
    rng.shuffle(jobs)
    return jobs


def grid_family(n: int) -> list:
    """CLI reward strings used by the exact grid on {0..n}: every discrete family."""
    return [
        "indicator_top",
        "geometric:1/2",
        "geometric:3/4",
        "exp_decay_table:1",
        "exp_decay_table:1/2",
        f"linear:{n}",
        "table:" + ",".join(str(max(0, n // 2 - k)) for k in range(n + 1)),
    ]


def exact_grid(seed: int, small: bool = False) -> list:
    """Many small exact jobs (N <= 16) that share laws between them."""
    rng = random.Random(f"exact_grid:{seed}")
    max_n = 6 if small else GRID_MAX_N
    jobs = []
    for n in list(range(max_n + 1)) * (1 if small else 8):
        jobs.append({"kind": "reflection", "p": rng.choice(GRID_PS), "n": n})

    # f must cover i + n; every reward lives on the domain of the CLI verify
    # grid, {0..2*16+1}, so the one that is not convex there is used as
    # convex in every seed
    horizon = 2 * max_n + 1
    key_ns = [2, 4] if small else [2, 4, 6, 8, 10, 12, 14, 16] * 4
    for reward in grid_family(horizon):
        for n in key_ns:
            jobs.append({
                "kind": "key_inequality", "p": rng.choice(GRID_PS_UPPER), "n": n,
                "i": rng.randint(0, max_n), "reward": reward, "horizon": horizon,
            })

    solve_ns = [3, 6] if small else [2, 4, 6, 8, 10, 12, 14, 16] * 2
    for idx in range(len(grid_family(0))):
        for n in solve_ns:
            jobs.append({
                "kind": "cli_solve", "p": rng.choice(GRID_PS), "N": n,
                "reward": grid_family(n)[idx],
            })

    for n in [2, 3] if small else [3] * 6 + [4] * 6:
        jobs.append({
            "kind": "cli_oracle", "p": rng.choice(GRID_PS), "N": n,
            "reward": rng.choice(grid_family(n)),
        })
    rng.shuffle(jobs)
    return jobs


def stochastic(seed: int, small: bool = False) -> list:
    """Quadrature at fixed design points plus two seeded Monte Carlo shapes."""
    rng = random.Random(f"stochastic:{seed}")
    points = QUAD_POINTS[:2] if small else QUAD_POINTS
    jobs = [
        {"kind": "quadrature", "t": t, "x": x, "lam": lam, "sigma": QUAD_SIGMA}
        for t, x, lam in points
    ]
    # many replications of short walks: cost is one stream per replication
    walk_reps = 500 if small else 20_000
    n = MC_WALK_N
    for p, policy in zip(("2/5", "1/2", "3/5"), ("tau0", "tauN", "stop-at-max")):
        jobs.append({
            "kind": "mc_walk", "seed": rng.randrange(2**31), "p": p, "n": n,
            "reward": rng.choice(("geometric:1/2", "geometric:3/4", "indicator_top")),
            "policy": policy, "from_step": rng.randint(1, n - 1), "replications": walk_reps,
        })
    # fewer replications of long bridge-refined paths: cost is the step kernel
    for lam in (-rng.choice((0.5, 1.0)), rng.choice((0.5, 1.0))):
        jobs.append({
            "kind": "mc_bm", "seed": rng.randrange(2**31), "lam": lam, "T": 1.0,
            "steps": 100 if small else 1000, "replications": 500 if small else 10_000,
            "sigma": QUAD_SIGMA,
            "rules": ["tau0", "tauT", "drawdown:0.5", "drawdown:0"],
        })
    return jobs


WORKLOADS = {"exact_large": exact_large, "exact_grid": exact_grid, "stochastic": stochastic}
