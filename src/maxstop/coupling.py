"""Seeded Monte Carlo for walk rules, and the one random stream layout.

Reproducibility: streams come from numpy's PCG64 generator, one child
stream per block of BLOCK replications spawned from the root SeedSequence:
replication r is row r mod BLOCK of the (BLOCK, n) uniform matrix of block
r // BLOCK, and its walk steps up where the uniform is <= p.  A run with
fewer replications draws a prefix of the same rows, so results are
bit-identical for a given seed regardless of batching.  `_blocks` is the
one place that lays out streams, and `_rng` the one place that builds a
generator; the Brownian simulator reads the same blocks: a block's stream
starts with one normal and one uniform per row (the exact (M_T, B_T)
pairs), and each path rule re-reads the stream from the point right after
them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._lazy import np
from .dpsolver import CONTINUE, PolicyTable
from .walkdist import WalkParams

GENERATOR = "pcg64-v6"  # bump if the stream layout ever changes
BLOCK = 10_000  # replications per stream; fixed: part of the stream layout
_CELLS = 2**16  # uniforms drawn at once by `mc_rule_value`; bounds a batch's memory


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,))))


def _blocks(seed: int, replications: int):
    """(generator, row count) for each block of BLOCK rows of the stream
    layout; block b reads stream b."""
    for block, start in enumerate(range(0, replications, BLOCK)):
        yield _rng(seed, block), min(BLOCK, replications - start)


class McEstimate(NamedTuple):
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


def mc_rule_value(seed: int, w: WalkParams, f, pol: PolicyTable, replications: int) -> McEstimate:
    """Unbiased Monte Carlo estimate of E[f(M_N - S_tau)] under a Markov rule.

    Each block's (rows, n) uniforms are drawn a slice of rows at a time;
    row-major draws read the stream as one row at a time would, so the
    slicing does not move any path.
    """
    n = w.n
    if pol.n != n:
        raise ValueError(f"policy horizon {pol.n} does not match walk horizon {w.n}")
    if replications < 1:
        raise ValueError("need at least one replication")
    stop_mat = np.zeros((n + 1, n + 2), dtype=bool)
    for k, row in enumerate(pol.rows):
        stop_mat[k, : k + 1] = [d != CONTINUE for d in row]
    stop_mat[n, :] = True

    f_lut = np.array([float(f(i)) for i in range(n + 1)])
    p = float(w.p)
    rows = max(1, _CELLS // max(n, 1))
    chunks = []
    for gen, count in _blocks(seed, replications):
        for start in range(0, count, rows):
            reps = min(rows, count - start)
            s = np.zeros((reps, n + 1), dtype=np.int64)
            np.cumsum(np.where(gen.random((reps, n)) <= p, 1, -1), axis=1, out=s[:, 1:])
            m = np.maximum.accumulate(s, axis=1)  # S_0 = 0 seeds the running max
            z = m - s
            stopped = np.zeros(reps, dtype=bool)
            s_tau = np.zeros(reps, dtype=np.int64)
            for k in range(n + 1):
                now = ~stopped & stop_mat[k, z[:, k]]
                s_tau[now] = s[now, k]
                stopped |= now
            chunks.append(f_lut[m[:, -1] - s_tau])
    return McEstimate.from_sample(np.concatenate(chunks))
