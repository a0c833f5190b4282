"""Families of walks driven by shared uniforms, and seeded Monte Carlo.

One stream of uniforms U_1..U_n drives a walk for every requested p via
X_k = +1 iff U_k <= p, so walks for larger p dominate pathwise and their
drawdowns are pathwise smaller.  That ordering is a hard invariant of the
construction, not a statistical one, and is asserted as such.

Reproducibility: streams come from numpy's PCG64 generator, one child
stream per block of BLOCK replications spawned from the root SeedSequence:
replication r is row r mod BLOCK of the (BLOCK, n) uniform matrix of block
r // BLOCK.  A run with fewer replications draws a prefix of the same rows,
so results are bit-identical for a given seed regardless of batching.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .dpsolver import CONTINUE, PolicyTable
from .walkdist import WalkParams, final_law, max_laws

GENERATOR = "pcg64-v2"  # bump if the stream layout ever changes
BLOCK = 20_000  # replications per stream; fixed: part of the stream layout


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,))))


def _blocks(seed: int, replications: int, first_stream: int = 0):
    """(generator, row count) for each block of the stream layout."""
    for block, start in enumerate(range(0, replications, BLOCK)):
        yield _rng(seed, first_stream + block), min(BLOCK, replications - start)


@dataclass(frozen=True)
class CoupledPaths:
    """One replication of the common-uniform construction."""

    seed: int
    replication: int
    n: int
    ps: tuple
    s: dict  # p -> int array of S_0..S_n
    m: dict  # p -> running max
    z: dict  # p -> drawdown

    def check_ordering(self) -> bool:
        """Pathwise: larger p gives pointwise larger walk and smaller drawdown."""
        ordered = sorted(self.ps)
        for lo, hi in zip(ordered, ordered[1:]):
            if not (self.s[hi] >= self.s[lo]).all():
                return False
            if not (self.z[hi] <= self.z[lo]).all():
                return False
        return True


def _walk_arrays(uniforms: np.ndarray, p) -> tuple:
    steps = np.where(uniforms <= float(p), 1, -1)
    s = np.concatenate(
        [np.zeros((*steps.shape[:-1], 1), dtype=np.int64), np.cumsum(steps, axis=-1)], axis=-1
    )
    m = np.maximum.accumulate(s, axis=-1)  # S_0 = 0 seeds the running max
    return s, m, m - s


def simulate(seed: int, n: int, ps, replications: int):
    """Yield CoupledPaths, one per replication, deterministically per seed."""
    if replications < 1:
        raise ValueError("need at least one replication")
    ps = tuple(ps)
    # each block's rows, drawn one at a time
    rows = (gen.random(n) for gen, count in _blocks(seed, replications) for _ in range(count))
    for r, u in enumerate(rows):
        s, m, z = {}, {}, {}
        for p in ps:
            s[p], m[p], z[p] = _walk_arrays(u, p)
        yield CoupledPaths(seed=seed, replication=r, n=n, ps=ps, s=s, m=m, z=z)


def paths_to_csv(paths) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["replication", "k", "p", "S", "M", "Z"])
    for cp in paths:
        for p in cp.ps:
            for k in range(cp.n + 1):
                w.writerow([cp.replication, k, str(p), cp.s[p][k], cp.m[p][k], cp.z[p][k]])
    return buf.getvalue()


@dataclass(frozen=True)
class McEstimate:
    """Sample mean and its standard error; steps is the number of grid steps
    per simulated path, None when no path was discretized."""

    estimate: float
    stderr: float
    replications: int
    steps: int | None = None

    @classmethod
    def from_sample(cls, vals: np.ndarray, steps: int | None = None) -> "McEstimate":
        n = len(vals)
        if vals.min() == vals.max():  # constant sample: mean is exact, spread is zero
            return cls(float(vals[0]), 0.0, n, steps)
        # Dividing by a power of two is exact and keeps the sum of squares finite.
        scale = 2.0 ** math.frexp(float(np.abs(vals).max()))[1]
        return cls(float(vals.mean()), float((vals / scale).std() * scale / math.sqrt(n)), n, steps)


def _batched_uniform_walks(seed: int, n: int, replications: int, p, first_stream: int = 0):
    """(S, M, Z) arrays, one batch per block of the stream layout."""
    for gen, count in _blocks(seed, replications, first_stream):
        yield _walk_arrays(gen.random((count, n)), p)


def mc_rule_value(seed: int, w: WalkParams, f, pol: PolicyTable, replications: int) -> McEstimate:
    """Unbiased Monte Carlo estimate of E[f(M_N - S_tau)] under a Markov rule."""
    n = w.n
    if pol.n != n:
        raise ValueError(f"policy horizon {pol.n} does not match walk horizon {w.n}")
    stop_mat = np.zeros((n + 1, n + 2), dtype=bool)
    for k, row in enumerate(pol.rows):
        stop_mat[k, : k + 1] = [d != CONTINUE for d in row]
    stop_mat[n, :] = True

    f_lut = np.array([float(f(i)) for i in range(n + 1)])
    chunks = []
    for s, m, z in _batched_uniform_walks(seed, n, replications, w.p):
        reps = s.shape[0]
        stopped = np.zeros(reps, dtype=bool)
        s_tau = np.zeros(reps, dtype=np.int64)
        for k in range(n + 1):
            now = ~stopped & stop_mat[k, z[:, k]]
            s_tau[now] = s[now, k]
            stopped |= now
        chunks.append(f_lut[m[:, -1] - s_tau])
    return McEstimate.from_sample(np.concatenate(chunks))


@dataclass(frozen=True)
class TimeReversalReport:
    """Empirical check that M_n under p matches Z_n under q in law."""

    tv_max: float
    tv_drawdown: float
    tolerance: float
    passed: bool


def mc_time_reversal_check(
    seed: int, w: WalkParams, replications: int, tolerance: float | None = None
) -> TimeReversalReport:
    """Simulate M_n under p and Z_n under q on independent streams and compare
    each empirical law to its exact counterpart in total variation."""
    n = w.n
    if tolerance is None:
        # ~4x the typical TV fluctuation of an empirical law on n+1 atoms
        tolerance = 2.4 * math.sqrt((n + 1) / replications)

    # the law of Z_n under q, which time reversal makes the law of M_n under p
    den = w.p.denominator**n
    exact = [c / den for c in final_law(max_laws(w))]

    counts_m = np.zeros(n + 1)
    counts_z = np.zeros(n + 1)
    for s, m, z in _batched_uniform_walks(seed, n, replications, w.p):
        counts_m += np.bincount(m[:, -1], minlength=n + 1)
    p_blocks = -(-replications // BLOCK)  # the q-walk's blocks follow the p-walk's
    for s, m, z in _batched_uniform_walks(seed, n, replications, w.q, first_stream=p_blocks):
        counts_z += np.bincount(z[:, -1], minlength=n + 1)

    tv_m = 0.5 * sum(abs(counts_m[k] / replications - exact[k]) for k in range(n + 1))
    tv_z = 0.5 * sum(abs(counts_z[k] / replications - exact[k]) for k in range(n + 1))
    return TimeReversalReport(
        tv_max=float(tv_m),
        tv_drawdown=float(tv_z),
        tolerance=float(tolerance),
        passed=bool(tv_m < tolerance and tv_z < tolerance),
    )
