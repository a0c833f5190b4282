"""Laws of the maximum of drifted Brownian motion, and rule values.

The joint density of (M_t, B_t) for drift lambda is

    h(s, b) = sqrt(2/pi) * (2s - b) / t^(3/2)
              * exp(-(2s - b)^2 / (2t)) * exp(lambda * (b - lambda * t / 2))

on s >= 0, b <= s.  Every functional the checks need is E[f(floor v V)]
with V = (start + B_t) v M_t, start >= 0, under some drift mu, and by
reflection (Borodin & Salminen, Handbook of Brownian Motion, 2002)

    P(V <= y) = Phi((y - start - mu t)/sqrt(t))
                - exp(2 mu y) Phi((-y - start - mu t)/sqrt(t)),   y >= 0.

One 1-D Gauss-Legendre rule over y (`_expect_floor_max`) gives
E[f(x v M_t)] (mu = lambda, floor x, start 0), E[f(x v (M_t - B_t))]
(the same under -lambda) and, by time reversal, E[f((x v M_t) - B_t)]
(mu = -lambda, floor 0, start x).  V's density is smooth for y > 0, so
its panel edges are the floor and the reward's nodes, plus edges around
V's Gaussian bump and M_t's Exp(2 |mu|) spike when one panel would not
resolve them; |mu| sqrt(t) <= 50 and floor + start <= 1e3 sqrt(t) are
accepted.

Sampling (M_T, B_T) needs no path discretization: the same conditional
law inverts to M = (b + sqrt(b^2 - 2t ln U)) / 2.  `_jump` is the one
exact draw, one normal and one uniform per row: it gives the tau0 / tauT
pairs, a time rule's two pieces and every stopped row's final draw.  Per
grid segment ("bridge max refinement") the same inversion removes the
O(sqrt(dt)) bias of the running maximum: the drawdown rules step only
Z = M - B, record each row's Z_tau and T - tau where it stops, and value
every stopped row by one final `_jump` over the rest of its path
(`_path_rule`).  Every draw spans at most T, so one range bounds every
rule's sampler: `check_limits` accepts 0 < T <= 7.4e304 and
|lam| <= 6.7e153 / T.  Streams come from `coupling._blocks`, which also
refuses fewer than one replication.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable, NamedTuple

from ._lazy import np
from ._record import Checked
from .coupling import McEstimate, _blocks
from .rewards import RewardDomainError, RewardSpec

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

_SIGMAS = 8.0  # quadrature range past start + |mu| t, in units of sqrt(t)
_WIDE = 3.0  # past start + |mu| t = _WIDE sqrt(t), V's bump and spike get panel edges
_MAX_DRIFT = 50.0  # largest |mu| sqrt(t) that `_expect_floor_max` accepts
_MAX_X = 1e3  # largest floor + start that it accepts, in units of sqrt(t)
_EPS_COEFF = 0.5  # stop-at-running-max triggers at Z <= _EPS_COEFF * sqrt(dt)
_GL_POINTS = 20  # Gauss-Legendre points per sub-panel of `_expect_floor_max`


class McConfig(NamedTuple):
    steps: int = 1000
    replications: int = 100_000


class BmModel(NamedTuple):
    lam: float
    T: float
    mc: McConfig = McConfig()


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


@functools.cache
def _unit_rule():
    """Nodes and weights on [0, 1] of the 20-point Gauss-Legendre rule; built
    on first use, so importing maxstop does not load numpy.polynomial."""
    x, w = np.polynomial.legendre.leggauss(_GL_POINTS)
    return 0.5 * (1.0 + x), 0.5 * w


def _normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _reflected_cdf(y: float, t: float, mu: float, start: float) -> float:
    """exp(2 mu y) Phi(-z), z = (y + start + mu t) / sqrt(t), without
    overflow.  Past z = 37, where erfc underflows, Phi(-z) is phi(z) / z
    times 1 - 1/z^2 + 3/z^4 - ... (nine terms, the last below 2^-53), and
    exp(2 mu y) phi(z) = phi(a) exp(-2 mu start), a = (y + start - mu t) /
    sqrt(t), which keeps the exponent free of cancellation."""
    root_t = math.sqrt(t)
    z = (y + start + mu * t) / root_t
    if z < 37.0:
        return math.exp(2.0 * mu * y) * _normal_cdf(-z)
    series, term = 0.0, 1.0
    for k in range(1, 10):
        series, term = series + term, -term * (2 * k - 1) / (z * z)
    a = (y + start - mu * t) / root_t
    return math.exp(-0.5 * a * a - 2.0 * mu * start) / (z * math.sqrt(2.0 * math.pi)) * series


def _expect_floor_max(fv: Callable, nodes, t: float, mu: float, floor: float,
                      start: float) -> QuadResult:
    """E[fv(floor v V)], V = (start + B_t) v M_t under drift mu, for
    floor, start >= 0 and a numpy-vectorized fv smooth between its nodes.

    The value is fv(floor) P(V <= floor) plus the integral of fv against
    V's density, phi(a) (1 + exp(-2 y start / t)) / sqrt(t)
    - 2 mu exp(2 mu y) Phi(b) with a, b the arguments of Phi above, over
    [floor, floor + start + |mu| t + c sqrt(t)] (c = _SIGMAS), by the
    20-point rule on two halves of each panel between the nodes.  Once
    start + |mu| t exceeds 3 sqrt(t), edges at shift +- 2^j sqrt(t)
    (j = 0..3) resolve V's Gaussian bump at shift = start + mu t, and for
    mu sqrt(t) < -1 edges at floor + 2^j / (2 |mu|) resolve M_t's
    Exp(2 |mu|) spike.  `_reflected_cdf` takes exp(2 mu y) Phi(b) without
    overflow.  The error is an estimate: the difference from the rule on
    whole panels, plus P(V > upper end) max(1, max |fv| on the nodes), plus
    a rounding allowance 8 n u sum |w fv p| over the n nodes (u = 2^-53).
    At t = 0, V = start: the value is fv(floor v start), exact.  A t,
    floor or start that is not finite and >= 0, or a mu that is not
    finite, raises ValueError naming it; the public callers pass their x
    as the floor or the start and their lam as +-mu.  At t > 0 so does
    |mu| sqrt(t) > 50 or floor + start > 1e3 sqrt(t): there the error
    against a 60-digit mpmath closed form was seen to exceed the estimate
    (at |mu| sqrt(t) = 100, and at x = 3e3 sqrt(t), where the rounding of
    y near x, which the estimate does not count, reaches 1e-12 of V's
    width).
    """
    if not 0 <= t < math.inf:
        raise ValueError(f"time must be nonnegative and finite, got t = {t}")
    for name, value in (("floor", floor), ("start", start)):
        if not 0 <= value < math.inf:
            raise ValueError(f"x must be >= 0 and finite, got {name} = {value}")
    if not math.isfinite(mu):
        raise ValueError(f"drift must be finite, got mu = {mu}")
    if t == 0:
        return QuadResult(float(fv(np.float64(max(floor, start)))), 0.0)
    root_t, shift = math.sqrt(t), start + mu * t
    if not abs(mu) * root_t <= _MAX_DRIFT:
        raise ValueError(f"drift must satisfy |lam| sqrt(t) <= {_MAX_DRIFT:g}, "
                         f"got {abs(mu) * root_t:g}")
    if not floor + start <= _MAX_X * root_t:
        raise ValueError(f"x must be <= {_MAX_X:g} sqrt(t), got x = {floor + start:g} "
                         f"at t = {t:g}")
    upper = floor + start + abs(mu) * t + _SIGMAS * root_t
    marks = {floor, upper, *map(float, nodes)}
    if start + abs(mu) * t > _WIDE * root_t:
        marks.update(shift + root_t * np.array([-8.0, -4.0, -2.0, -1.0, 1.0, 2.0, 4.0, 8.0]))
        if mu * root_t < -1.0:
            marks.update(floor + np.exp2(np.arange(64)) * (-0.5 / mu))
    edges = np.array(sorted(c for c in marks if floor <= c <= upper))
    halves = np.sort(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))
    (u, unit_w), estimates = _unit_rule(), []
    for cuts in (edges, halves):
        width = np.diff(cuts)[:, None]
        y, w = (cuts[:-1, None] + width * u).ravel(), (width * unit_w).ravel()
        a, z = (y - shift) / root_t, (y + shift) / root_t
        with np.errstate(over="ignore", invalid="ignore"):
            reflected = 2.0 * mu * np.exp(2.0 * mu * y) * np.array(
                [_normal_cdf(-v) for v in z.tolist()])
        for i in np.flatnonzero(z >= 37.0):  # erfc underflows, exp may overflow
            reflected[i] = 2.0 * mu * _reflected_cdf(float(y[i]), t, mu, start)
        density = (0.5 * SQRT_2_OVER_PI / root_t * np.exp(-0.5 * np.square(a))
                   * (1.0 + np.exp(-2.0 * start / t * y)) - reflected)
        terms = w * fv(y) * density
        estimates.append(float(np.sum(terms)))
    coarse, fine = estimates
    below = _normal_cdf((floor - shift) / root_t) - _reflected_cdf(floor, t, mu, start)
    tail = _normal_cdf((shift - upper) / root_t) + _reflected_cdf(upper, t, mu, start)
    rounding = 8 * 2.0**-53 * len(terms) * float(np.sum(np.abs(terms)))
    tail *= max(1.0, float(np.max(np.abs(fv(y)))))
    return QuadResult(float(fv(np.float64(floor))) * below + fine,
                      abs(fine - coarse) + tail + rounding)


def _vectorized_reward(f: RewardSpec) -> Callable:
    """f's numpy form; a reward defined only on the integers has none."""
    if f.array is None:
        raise RewardDomainError(f"reward kind {f.kind!r} has no continuous evaluation")
    return f.array


def g_bm(t: float, x: float, lam: float, f) -> QuadResult:
    """E[f(x v M_t)] under drift lam."""
    return _expect_floor_max(_vectorized_reward(f), f.nodes, t, lam, x, 0.0)


def dtilde_bm(t: float, x: float, lam: float, f) -> QuadResult:
    """E[f((x v M_t) - B_t)] under drift lam."""
    # time reversal: (x v M_t) - B_t under lam has the law of
    # (x + B_t) v M_t under -lam
    return _expect_floor_max(_vectorized_reward(f), f.nodes, t, -lam, 0.0, x)


class BmInequalityReport(NamedTuple):
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


def _check_against(t: float, x: float, lam: float, f, mu: float) -> BmInequalityReport:
    """E[f((x v M_t) - B_t)] under drift lam against E[f(x v M_t)] under mu."""
    lhs, rhs = dtilde_bm(t, x, lam, f), g_bm(t, x, mu, f)
    return BmInequalityReport(lhs.value, rhs.value, lhs.error + rhs.error)


def check_bm_key_inequality(t: float, x: float, lam: float, f) -> BmInequalityReport:
    """E[f((x v M) - B)] >= E[f(x v (M - B))]; holds for nonincreasing convex
    f when lam >= 0, any lam accepted for raw reporting."""
    return _check_against(t, x, lam, f, -lam)  # M - B under lam: M under -lam


def check_bm_corollary(t: float, x: float, lam: float, f) -> BmInequalityReport:
    """E[f((x v M) - B)] >= E[f(x v M)] (strict for lam > 0, f nonconstant)."""
    return _check_against(t, x, lam, f, lam)


# --- sampling ---------------------------------------------------------------


def _conditional_max(endpoint: np.ndarray, duration, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw of the segment max given the segment endpoint delta,
    (delta + sqrt(delta^2 - 2 duration ln u)) / 2, built in one buffer."""
    s = np.log(u)
    s *= -2.0 * duration
    s += np.square(endpoint)
    np.sqrt(s, out=s)
    s += endpoint
    s *= 0.5
    return s


# `_conditional_max` squares an endpoint lam * t + sqrt(t) * Z and adds
# -2 t log(u), so both must stay finite.  u = 1 - random() >= 2**-53 bounds
# -log(u) by 53 log 2, and numpy's ziggurat normal sampler returns |Z| < 12.3
# (its tail draw r + x, r = 3.654, accepts only x**2 < 2 * 53 log 2).  Every
# draw spans at most T, so `check_limits` gives the drift part at most half
# of sqrt(float max) and the Gaussian part a quarter, which caps T; the
# log(u) term then takes less than a twentieth of float max.
_SQRT_MAX = math.sqrt(sys.float_info.max)
_MAX_SEGMENT = (_SQRT_MAX / (4 * 12.3)) ** 2


def check_limits(model: BmModel, rules) -> None:
    """Raise ValueError, naming the bound, unless the samplers represent
    every rule under model: 0 < T <= `_MAX_SEGMENT` (about 7.4e304) and
    |lam| <= sqrt(float max) / (2 T) (about 6.7e153 / T) for every rule,
    NaN and inf refused; a grid rule also needs from one step to float max
    of them and a grid step T / steps above 0."""
    steps, T, lam = model.mc.steps, model.T, model.lam
    if not 0 < T <= _MAX_SEGMENT:
        raise ValueError(f"horizon T = {T:g} is outside (0, {_MAX_SEGMENT:.6g}], "
                         "the range the samplers represent")
    limit = min(_SQRT_MAX / (2.0 * T), sys.float_info.max)  # so lam = inf fails at tiny T too
    if not abs(lam) <= limit:
        raise ValueError(f"drift |lam| = {abs(lam):g} is outside [0, {limit:.6g}], "
                         f"the range the samplers represent at T = {T:g}")
    for rule in rules:
        if rule.kind in _EXACT_KINDS:
            continue
        at = f"for {rule.label()} at {steps} steps"
        if steps < 1:
            raise ValueError(f"need at least one step per path {at}")
        if steps > sys.float_info.max:
            raise ValueError(f"the step count exceeds the float range {at}")
        if T / steps == 0:
            raise ValueError(f"T = {T:g} gives a grid step of 0 {at}")


class _Rule(NamedTuple):
    kind: str
    param: float | None = None


class BmRule(Checked, _Rule):
    """Stopping rules evaluated by simulation.

    kind: 'tau0' | 'tauT' | 'drawdown_threshold' | 'time_threshold'.
    drawdown_threshold(a) stops when the drawdown reaches a > 0; the a = 0
    case means "stop at the running max": first grid time (after 0) with
    drawdown <= eps, eps = _EPS_COEFF * sqrt(dt), since an exact zero of the
    drawdown is unobservable on a grid.
    """

    __slots__ = ()

    def _check(self):
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


def _jump(gen, t: np.ndarray, lam: float) -> tuple:
    """Exact-in-law (M_t, B_t), one row per duration in t, from gen's next
    draws: one normal and one uniform per row.  Every t is at most T, which
    `check_limits` keeps within the bounds of one draw."""
    b = lam * t + np.sqrt(t) * gen.standard_normal(len(t))
    m = _conditional_max(b, t, 1.0 - gen.random(len(t)))  # 1 - random() in (0, 1]
    return np.maximum(0.0, m), b


def _path_rule(gen, rule: BmRule, model: BmModel, count: int) -> np.ndarray:
    """M_T - B_tau of `count` rows under one grid rule, from gen's next draws.

    A drawdown rule steps only Z = M - B of its running rows, on the grid
    of model.mc.steps steps: step k draws the increment X and, from one
    uniform, the step's bridge maximum S given X, and Z becomes
    max(Z, S) - X, exact in law at grid times.  A row stops at the first
    k < steps at which its trigger holds: its Z_tau and T - tau are
    recorded there and it is stepped no more; the others end at T with
    Z_T.  After the last step one `_jump` draws, for all stopped rows in
    row order, the maximum M' of the rest of the path over each row's
    T - k dt, and M_T - B_tau = max(Z_tau, M').  A time_threshold rule
    stops every row at the first grid time k dt >= param (or T): one
    `_jump` there and one for the rest.  No draw spans more than T, so the
    model needs only `check_limits`.
    """
    steps, lam, T = model.mc.steps, model.lam, model.T
    dt = T / steps
    if rule.kind == "time_threshold":
        k = next((k for k in range(1, steps) if k * dt >= rule.param), steps)
        m, b = _jump(gen, np.full(count, k * dt), lam)
        if k < steps:
            m = np.maximum(m, b + _jump(gen, np.full(count, T - k * dt), lam)[0])
        return m - b

    rows = np.arange(count)  # the chunk row of each running row
    z = np.zeros(count)
    out, rest = np.empty(count), np.zeros(count)  # rest: T - tau, 0 for rows that reach T
    sqrt_dt, eps = math.sqrt(dt), _EPS_COEFF * math.sqrt(dt)
    for k in range(1, steps + 1):
        x = gen.normal(lam * dt, sqrt_dt, len(z))
        z = np.maximum(z, _conditional_max(x, dt, 1.0 - gen.random(len(z))))
        z -= x
        if k == steps:
            break
        hit = (z >= rule.param) if rule.param > 0 else (z <= eps)
        if hit.any():
            stop = rows[hit]
            out[stop], rest[stop] = z[hit], T - k * dt
            rows, z = rows[~hit], z[~hit]
    out[rows] = z
    stopped = np.flatnonzero(rest)
    out[stopped] = np.maximum(out[stopped], _jump(gen, rest[stopped], lam)[0])
    return out


def sample_max_endpoint(seed: int, t: float, lam: float, replications: int) -> np.ndarray:
    """Exact-in-law samples of (M_t, B_t), shape (replications, 2): the pairs
    on which `mc_bm_rule_values` values tau0 and tauT, for t and lam that
    `check_limits` accepts."""
    check_limits(BmModel(lam, t), ())
    return np.concatenate([np.column_stack(_jump(gen, np.full(count, t), lam))
                           for gen, count in _blocks(seed, replications)])


def mc_bm_rule_values(seed: int, model: BmModel, f, rules) -> list:
    """Estimate E[f(M_T - B_tau)] for several BmRules, one McEstimate per rule,
    in order.

    Each chunk's first draws give every row its exact (M_T, B_T) by one
    `_jump`, on which tau0 / tauT are valued without discretization error.
    Each grid rule then re-reads the chunk's stream from the point right
    after those draws and simulates its own rows (`_path_rule`):
    bridge-max-refined steps of model.mc.steps, then one exact draw of the
    rest of the path for all stopped rows.  So no estimate depends on the
    other rules in the call or on their order, and the exact and path
    estimates read disjoint draws.  A model outside the range that
    `check_limits` accepts raises ValueError before any draw.
    """
    fv = _vectorized_reward(f)
    check_limits(model, rules)
    collected = [[] for _rule in rules]
    for gen, count in _blocks(seed, model.mc.replications):
        m_T, b_T = _jump(gen, np.full(count, model.T), model.lam)
        after_pairs = gen.bit_generator.state
        for rule, vals in zip(rules, collected):
            if rule.kind == "tau0":
                vals.append(fv(m_T))
            elif rule.kind == "tauT":
                vals.append(fv(m_T - b_T))
            else:
                gen.bit_generator.state = after_pairs
                vals.append(fv(_path_rule(gen, rule, model, count)))
    return [
        McEstimate.from_sample(np.concatenate(vals),
                               None if rule.kind in _EXACT_KINDS else model.mc.steps)
        for rule, vals in zip(rules, collected)
    ]
