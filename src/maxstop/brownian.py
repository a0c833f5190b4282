"""Joint law of (max, endpoint) for drifted Brownian motion, and rule values.

The joint density of (M_t, B_t) for drift lambda is

    h(s, b) = sqrt(2/pi) * (2s - b) / t^(3/2)
              * exp(-(2s - b)^2 / (2t)) * exp(lambda * (b - lambda * t / 2))

on s >= 0, b <= s.  Expectations E[f(x v M - B)] etc. are computed by
adaptive tensor-product Gauss-Legendre quadrature in the coordinates
(s, z) = (M, M - B), where the support is the quadrant z, s >= 0 and the
Jacobian is 1, over a box covering `_SIGMAS` standard deviations.  Kinks of
the integrands lie on the lines s = x, z = x and, for a piecewise-linear
reward, s or z = a node; callers declare them as the first panel cuts.  The
reported error is the 6- versus 12-point panel residual plus the truncated
tail mass: it bounds the error when the integrand is smooth between the
declared lines.  One kink is not declared: inside dtilde_bm, a
custom_table reward bends on the diagonals z - s = node - x for s < x.

Sampling (M_T, B_T) needs no path discretization: conditionally on
B_t = b, P(M_t >= s | B_t = b) = exp(-2s(s-b)/t), which inverts to
M = (b + sqrt(b^2 - 2t ln U)) / 2.  The same inversion applied per grid
segment ("bridge max refinement") removes the O(sqrt(dt)) bias of the
running maximum in discretized path simulation.
"""

from __future__ import annotations

import functools
import heapq
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from ._lazy import np
from .coupling import McEstimate, _blocks
from .rewards import RewardDomainError, RewardSpec

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


class QuadratureError(RuntimeError):
    """Adaptive refinement ran out of panels before reaching the tolerance."""

    def __init__(self, achieved: float, requested: float):
        self.achieved = achieved
        self.requested = requested
        super().__init__(
            f"quadrature did not converge: achieved error bound {achieved:.3e} "
            f"> requested {requested:.3e}"
        )


_SIGMAS = 8.0  # quadrature box half-width in units of sqrt(t)
_EPS_COEFF = 0.5  # stop-at-running-max triggers at Z <= _EPS_COEFF * sqrt(dt)
_TOL = 1e-7  # summed panel residual at which `expect_joint` stops refining
_MAX_PANELS = 6000  # panels `expect_joint` may evaluate before it gives up


@dataclass(frozen=True)
class McConfig:
    steps: int = 1000
    replications: int = 100_000


@dataclass(frozen=True)
class BmModel:
    lam: float
    T: float
    mc: McConfig = field(default_factory=McConfig)

    def __post_init__(self):
        if not 0 < self.T < math.inf:
            raise ValueError(f"horizon T must be finite and positive, got {self.T}")
        if not math.isfinite(self.lam):
            raise ValueError(f"drift lam must be finite, got {self.lam}")


def joint_density(s, b, t: float, lam: float):
    """Density of (M_t, B_t); zero outside the support s >= max(b, 0)."""
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    s = np.asarray(s, dtype=float)
    b = np.asarray(b, dtype=float)
    u = 2.0 * s - b
    inside = (s >= 0) & (b <= s)
    val = np.where(
        inside,
        SQRT_2_OVER_PI * u * t ** (-1.5) * np.exp(-np.square(u) / (2.0 * t))
        * np.exp(lam * (b - lam * t / 2.0)),
        0.0,
    )
    return val if val.ndim else float(val)


def density_reflection_check(t: float, lam: float, grid) -> float:
    """Max relative discrepancy of h(s,b;lam) = h(s-b,-b;-lam) over the grid."""
    s, b = np.asarray(grid[0], dtype=float), np.asarray(grid[1], dtype=float)
    h1 = joint_density(s, b, t, lam)
    h2 = joint_density(s - b, -b, t, -lam)
    scale = np.maximum(np.abs(h1), np.finfo(float).tiny)
    return float(np.max(np.abs(h1 - h2) / scale))


class QuadResult(NamedTuple):
    value: float
    error: float
    panels: int = 0  # panels evaluated; 0 when no integral was needed (t = 0)


def _tensor_rule(n: int):
    """Nodes and weights of the n x n Gauss-Legendre rule on [-1, 1]^2, flattened."""
    x, w = np.polynomial.legendre.leggauss(n)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    return xx.ravel(), yy.ravel(), np.outer(w, w).ravel()


@functools.cache
def _gl_pair():
    """The 6- and 12-point rules side by side, so one integrand call serves
    both; built on first use, so importing maxstop does not load numpy.polynomial."""
    return tuple(np.concatenate(parts) for parts in zip(_tensor_rule(6), _tensor_rule(12)))


_N6 = 36  # nodes of the 6-point rule, first in _gl_pair()


def _panel_estimates(fn, s0, s1, z0, z1):
    """(coarse, fine) tensor Gauss-Legendre estimates on one (s, z) panel."""
    u, v, w = _gl_pair()
    ss = 0.5 * (s1 - s0) * u + 0.5 * (s1 + s0)
    zz = 0.5 * (z1 - z0) * v + 0.5 * (z1 + z0)
    vals = fn(ss, zz) * w
    area = 0.25 * (s1 - s0) * (z1 - z0)
    return area * float(vals[:_N6].sum()), area * float(vals[_N6:].sum())


def _edges(hi: float, cuts) -> list:
    """Panel edges on [0, hi]: the ends plus the declared cuts strictly inside."""
    return [0.0, *sorted({float(c) for c in cuts if 0.0 < c < hi}), hi]


def expect_joint(
    phi: Callable,
    t: float,
    lam: float,
    *,
    s_cuts=(),
    z_cuts=(),
) -> QuadResult:
    """Adaptive quadrature of E[phi(M_t, B_t)] against the joint density.

    phi(s, b) must be numpy-vectorized.  The integral runs over
    (s, z) = (M, M - B) on the box [0, s_hi] x [0, z_hi], with
    s_hi = max(lam t, 0) + c sqrt(t) and z_hi = max(-lam t, 0) + c sqrt(t)
    (c = _SIGMAS); the support of the density is the whole quadrant and
    the Jacobian is 1, so the integrand is phi(s, s - z) h(s, s - z).

    s_cuts and z_cuts declare the lines s = const and z = const where phi
    has a kink or a jump; they seed the first panel cuts.  Panels are then
    split in four, worst first, until the summed residual |Q12 - Q6| of the
    6- and 12-point tensor Gauss-Legendre rules is within _TOL.

    The returned error is that residual plus the truncated tail mass times
    max |phi| seen.  The residual bounds the 12-point error only when phi
    is smooth inside every panel: an undeclared kink or jump can make it
    understate the error.
    """
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    st = math.sqrt(t)
    s_hi = max(lam * t, 0.0) + _SIGMAS * st
    z_hi = max(-lam * t, 0.0) + _SIGMAS * st
    max_abs_phi = 0.0

    def integrand(ss, zz):
        nonlocal max_abs_phi
        bb = ss - zz
        pv = phi(ss, bb)
        m = float(np.max(np.abs(pv)))
        if m > max_abs_phi:
            max_abs_phi = m
        return pv * joint_density(ss, bb, t, lam)

    heap = []
    total, total_err = 0.0, 0.0
    evaluated = 0  # also the heap's tie-breaker

    def push(s0, s1, z0, z1):
        nonlocal total, total_err, evaluated
        coarse, fine = _panel_estimates(integrand, s0, s1, z0, z1)
        err = abs(fine - coarse)
        heapq.heappush(heap, (-err, evaluated, (s0, s1, z0, z1, fine, err)))
        evaluated += 1
        total += fine
        total_err += err

    s_edges, z_edges = _edges(s_hi, s_cuts), _edges(z_hi, z_cuts)
    for s0, s1 in zip(s_edges, s_edges[1:]):
        for z0, z1 in zip(z_edges, z_edges[1:]):
            push(s0, s1, z0, z1)

    while total_err > _TOL and len(heap) < _MAX_PANELS:
        _negerr, _sn, (s0, s1, z0, z1, fine, err) = heapq.heappop(heap)
        total -= fine
        total_err -= err
        sm, zm = 0.5 * (s0 + s1), 0.5 * (z0 + z1)
        for a, b in ((s0, sm), (sm, s1)):
            for lo, hi in ((z0, zm), (zm, z1)):
                push(a, b, lo, hi)

    # truncated mass outside the box: P(M > s_hi) + P(M - B > z_hi) <= 4 Phi(-c)
    tail = 4.0 * 0.5 * math.erfc(_SIGMAS / math.sqrt(2.0))
    bound = total_err + tail * max(max_abs_phi, 1.0)
    if total_err > _TOL:
        raise QuadratureError(achieved=bound, requested=_TOL)
    return QuadResult(value=total, error=bound, panels=evaluated)


def _vectorized_reward(f: RewardSpec) -> Callable:
    """f's numpy form; a reward defined only on the integers has none."""
    if f.array is None:
        raise RewardDomainError(f"reward kind {f.kind!r} has no continuous evaluation")
    return f.array


def g_bm(t: float, x: float, lam: float, f) -> QuadResult:
    """E[f(x v M_t)] under drift lam."""
    if x < 0:
        raise ValueError("x must be >= 0")
    fv = _vectorized_reward(f)
    if t == 0:
        return QuadResult(float(fv(np.asarray(x))), 0.0)
    return expect_joint(lambda s, b: fv(np.maximum(x, s)), t, lam, s_cuts=(x, *f.nodes))


def dtilde_bm(t: float, x: float, lam: float, f) -> QuadResult:
    """E[f((x v M_t) - B_t)] under drift lam."""
    if x < 0:
        raise ValueError("x must be >= 0")
    fv = _vectorized_reward(f)
    if t == 0:
        return QuadResult(float(fv(np.asarray(x))), 0.0)
    # f's argument is z where s >= x, so its nodes are z-lines there; where
    # s < x it is z + x - s, whose kinks lie on diagonals no cut can follow
    return expect_joint(
        lambda s, b: fv(np.maximum(x, s) - b), t, lam, s_cuts=(x,), z_cuts=f.nodes
    )


def d_bm(t: float, x: float, lam: float, f) -> QuadResult:
    """E[f((x v M_t) - B_t)] under drift -lam (the reflected companion)."""
    return dtilde_bm(t, x, -lam, f)


@dataclass(frozen=True)
class BmInequalityReport:
    lhs: float
    rhs: float
    quad_error_bound: float

    @property
    def strict_margin(self) -> float:
        return self.lhs - self.rhs

    @property
    def verdict(self) -> str:
        if self.strict_margin > self.quad_error_bound:
            return "strict"
        if abs(self.strict_margin) <= self.quad_error_bound:
            return "equal_within_tolerance"
        return "violated"


def check_bm_key_inequality(t: float, x: float, lam: float, f) -> BmInequalityReport:
    """E[f((x v M) - B)] >= E[f(x v (M - B))]; holds for nonincreasing convex
    f when lam >= 0, any lam accepted for raw reporting."""
    if x < 0:
        raise ValueError("x must be >= 0")
    fv = _vectorized_reward(f)
    if t == 0:
        v = float(fv(np.asarray(x)))
        return BmInequalityReport(lhs=v, rhs=v, quad_error_bound=0.0)
    lhs = dtilde_bm(t, x, lam, f)
    rhs = expect_joint(lambda s, b: fv(np.maximum(x, s - b)), t, lam, z_cuts=(x, *f.nodes))
    return BmInequalityReport(
        lhs=lhs.value, rhs=rhs.value, quad_error_bound=lhs.error + rhs.error
    )


def check_bm_corollary(t: float, x: float, lam: float, f) -> BmInequalityReport:
    """E[f((x v M) - B)] >= E[f(x v M)] (strict for lam > 0, f nonconstant)."""
    lhs = dtilde_bm(t, x, lam, f)
    rhs = g_bm(t, x, lam, f)
    return BmInequalityReport(
        lhs=lhs.value, rhs=rhs.value, quad_error_bound=lhs.error + rhs.error
    )


# --- sampling ---------------------------------------------------------------


def _conditional_max(endpoint: np.ndarray, duration: float, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw of the segment max given the segment endpoint delta."""
    return 0.5 * (endpoint + np.sqrt(endpoint**2 - 2.0 * duration * np.log(u)))


# `_conditional_max` squares a segment's endpoint lam * t + sqrt(t) * Z and
# adds -2 t log(u), so both must stay finite.  u = 1 - random() >= 2**-53
# bounds -log(u) by 53 log 2, and numpy's ziggurat normal sampler returns
# |Z| < 12.3 (its tail draw r + x, r = 3.654, accepts only x**2 < 2 * 53 log 2).
# The drift part gets half of sqrt(float max) and the Gaussian part a
# quarter, which caps the segment length t; the log(u) term then takes
# less than a twentieth of float max.
_SQRT_MAX = math.sqrt(sys.float_info.max)
_MAX_SEGMENT = (_SQRT_MAX / (4 * 12.3)) ** 2


def _segments(steps: int, rule: BmRule) -> int:
    """tau0 / tauT draw (M_T, B_T) as one segment, the other rules as `steps`."""
    return 1 if rule.kind in _EXACT_KINDS else steps


def _max_horizon(steps: int, rule: BmRule) -> float:
    """Largest T the samplers represent for this rule."""
    return _MAX_SEGMENT * _segments(steps, rule)


def max_drift(T: float, steps: int, rule: BmRule) -> float:
    """Largest |lam| the samplers represent for this rule at T <= `_max_horizon`."""
    return _SQRT_MAX / (2.0 * (T / _segments(steps, rule)))


@dataclass(frozen=True)
class BmRule:
    """Stopping rules evaluated by simulation.

    kind: 'tau0' | 'tauT' | 'drawdown_threshold' | 'time_threshold'.
    drawdown_threshold(a) stops when the drawdown reaches a > 0; the a = 0
    case means "stop at the running max": first grid time (after 0) with
    drawdown <= eps, eps = _EPS_COEFF * sqrt(dt), since an exact zero of the
    drawdown is unobservable on a grid.
    """

    kind: str
    param: float | None = None

    def __post_init__(self):
        if self.kind not in ("tau0", "tauT", "drawdown_threshold", "time_threshold"):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.kind in ("drawdown_threshold", "time_threshold"):
            if self.param is None:
                raise ValueError(f"rule {self.kind} needs a parameter")
            if not self.param >= 0:
                raise ValueError(f"rule {self.kind} needs a parameter >= 0, got {self.param}")

    def label(self) -> str:
        return self.kind if self.param is None else f"{self.kind}({self.param:g})"


_EXACT_KINDS = ("tau0", "tauT")  # rules valued on the exact (M_T, B_T) pair
_CHUNK = 10_000  # rows per stream; fixed: chunk boundaries are part of the stream layout


def _chunks(seed: int, replications: int):
    """(generator, normals, uniforms) per chunk: chunk c of _CHUNK rows reads
    stream c, whose first draws are one normal and one uniform per row."""
    if replications < 1:
        raise ValueError("need at least one replication")
    for gen, count in _blocks(seed, replications, _CHUNK):
        yield gen, gen.standard_normal(count), gen.random(count)


def _max_endpoint(t: float, lam: float, normal: np.ndarray, uniform: np.ndarray) -> tuple:
    """Exact-in-law (M_t, B_t) from a chunk's first draws."""
    b = lam * t + math.sqrt(t) * normal
    return _conditional_max(b, t, 1.0 - uniform), b  # 1 - uniform in (0, 1]


def sample_max_endpoint(seed: int, t: float, lam: float, replications: int) -> np.ndarray:
    """Exact-in-law samples of (M_t, B_t), shape (replications, 2): the pairs
    on which `mc_bm_rule_values` values tau0 and tauT."""
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    return np.concatenate([
        np.column_stack(_max_endpoint(t, lam, normal, uniform))
        for _gen, normal, uniform in _chunks(seed, replications)
    ])


def mc_bm_rule_values(seed: int, model: BmModel, f, rules) -> list:
    """Estimate E[f(M_T - B_tau)] for several BmRules, one McEstimate per rule,
    in order.

    Each chunk's first draws give every row its exact (M_T, B_T), on which
    tau0 / tauT are valued without discretization error; the other rules
    share the bridge-max-refined Euler paths of model.mc.steps steps drawn
    after them.  No estimate depends on the other rules in the call, and
    the exact and path estimates read disjoint draws.
    """
    fv = _vectorized_reward(f)
    exact = [idx for idx, rule in enumerate(rules) if rule.kind in _EXACT_KINDS]
    grid_rules = [(idx, rule) for idx, rule in enumerate(rules) if rule.kind not in _EXACT_KINDS]
    steps = model.mc.steps
    if grid_rules and steps < 1:
        raise ValueError("need at least one step per path")
    dt = model.T / max(steps, 1)
    eps = _EPS_COEFF * math.sqrt(dt)
    collected = [[] for _rule in rules]

    for gen, normal, uniform in _chunks(seed, model.mc.replications):
        if exact:  # a path rule's T may be too long for one segment: leave the draws raw
            m_T, b_T = _max_endpoint(model.T, model.lam, normal, uniform)
            for idx in exact:
                collected[idx].append(fv(m_T if rules[idx].kind == "tau0" else m_T - b_T))
        if not grid_rules:
            continue
        count = len(normal)
        b = np.zeros(count)
        m = np.zeros(count)
        stopped = {idx: np.zeros(count, dtype=bool) for idx, _r in grid_rules}
        b_tau = {idx: np.zeros(count) for idx, _r in grid_rules}
        for k in range(1, steps + 1):
            inc = model.lam * dt + math.sqrt(dt) * gen.standard_normal(count)
            seg_max = _conditional_max(inc, dt, 1.0 - gen.random(count))
            m = np.maximum(m, b + seg_max)
            b = b + inc
            z = m - b
            tk = k * dt
            for idx, rule in grid_rules:
                if rule.kind == "drawdown_threshold":
                    if rule.param > 0:
                        trigger = z >= rule.param
                    else:
                        trigger = z <= eps
                else:
                    trigger = tk >= rule.param
                now = ~stopped[idx] & (trigger | (k == steps))
                b_tau[idx][now] = b[now]
                stopped[idx] |= now
        for idx, _rule in grid_rules:
            collected[idx].append(fv(m - b_tau[idx]))

    return [
        McEstimate.from_sample(np.concatenate(vals), None if idx in exact else steps)
        for idx, vals in enumerate(collected)
    ]


def mc_bm_rule_value(seed: int, model: BmModel, f, rule: BmRule) -> McEstimate:
    return mc_bm_rule_values(seed, model, f, [rule])[0]
