"""Reward functions of the distance to the ultimate maximum.

A reward is a function f on {0,...,N} (discrete horizon) or [0, inf)
(continuous horizon).  The bang-bang optimality results hold for
nonincreasing convex f, and which theorem applies depends on structural
properties (strict convexity, strict decrease, ...).  Both settings ask
for them on {0..N} only, so `classify` decides them there, by checking
first and second differences on all points, in exact rational arithmetic
whenever the parameters are rational.

Built-in families:

``table``                   f given by N+1 values on {0..N}
``geometric``               f(k) = d**k, 0 < d < 1
``exp_decay``               f(x) = exp(-sigma*x), sigma > 0
``indicator_top``           f(0) = 1, f(k) = 0 for k >= 1
``power_penalty_negated``   f(x) = -x**alpha, 0 < alpha < 1 (the negated
                            concave penalty; maximizing it minimizes the
                            penalty x**alpha)
``linear``                  f(x) = c - x
``custom_table``            continuous piecewise-linear interpolation of
                            (xs, ys) breakpoints, clamped outside
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

DISCRETE = "discrete"
CONTINUOUS = "continuous"

_KINDS = {
    "table",
    "exp_decay",
    "geometric",
    "indicator_top",
    "power_penalty_negated",
    "linear",
    "custom_table",
}


class RewardDomainError(ValueError):
    """A reward is not defined, or not of the needed kind, where it is used."""


def as_rational(x):
    """Coerce ints and Fractions to Fraction; floats stay float."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a number")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return x
    raise TypeError(f"cannot interpret {x!r} as a number")


@dataclass(frozen=True)
class RewardSpec:
    """A reward function plus the metadata needed to evaluate and classify it."""

    kind: str
    params: dict = field(default_factory=dict)
    domain: str = DISCRETE
    table: tuple = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown reward kind {self.kind!r}")
        if self.domain not in (DISCRETE, CONTINUOUS):
            raise ValueError(f"domain must be 'discrete' or 'continuous', got {self.domain!r}")
        if self.kind == "table":
            if not self.table:
                raise ValueError("table reward needs a nonempty value table")
            object.__setattr__(self, "table", tuple(as_rational(v) for v in self.table))
        if self.kind == "geometric":
            d = as_rational(self.params["d"])
            if not 0 < d < 1:
                raise ValueError(f"geometric reward needs 0 < d < 1, got {d}")
        if self.kind == "exp_decay":
            if not self.params["sigma"] > 0:
                raise ValueError("exp_decay reward needs sigma > 0")
        if self.kind == "power_penalty_negated":
            if not 0 < self.params["alpha"] < 1:
                raise ValueError("power_penalty_negated needs 0 < alpha < 1")
        if self.kind == "custom_table":
            xs, ys = self.params["xs"], self.params["ys"]
            if len(xs) != len(ys) or len(xs) < 2:
                raise ValueError("custom_table needs matching xs/ys with >= 2 points")
            if any(b <= a for a, b in zip(xs, xs[1:])):
                raise ValueError("custom_table xs must be strictly increasing")

    def __call__(self, x):
        return evaluate(self, x)


def evaluate(f: RewardSpec, x):
    """Evaluate f at x.

    Exact rational result for table/geometric/indicator_top/linear kinds at
    integer (or rational-compatible) arguments; float otherwise.  Arguments
    outside the declared domain raise ValueError.
    """
    if isinstance(x, float) and not x.is_integer() and f.domain == DISCRETE:
        raise ValueError(f"discrete reward evaluated at non-integer {x}")
    if x < 0:
        raise ValueError(f"reward argument must be >= 0, got {x}")

    if f.kind == "table":
        k = int(x)
        if k >= len(f.table):
            raise ValueError(f"table reward has {len(f.table)} entries, index {k} out of range")
        return f.table[k]
    if f.kind == "geometric":
        d = as_rational(f.params["d"])
        if f.domain == DISCRETE or (isinstance(x, int) or float(x).is_integer()):
            return d ** int(x)
        return float(d) ** float(x)
    if f.kind == "exp_decay":
        return math.exp(-f.params["sigma"] * float(x))
    if f.kind == "indicator_top":
        return Fraction(1) if x == 0 else Fraction(0)
    if f.kind == "power_penalty_negated":
        return -(float(x) ** f.params["alpha"])
    if f.kind == "linear":
        c = as_rational(f.params["c"])
        if isinstance(c, Fraction) and (isinstance(x, (int, Fraction)) or float(x).is_integer()):
            return c - Fraction(x)
        return float(c) - float(x)
    if f.kind == "custom_table":
        return _interp_clamped(f.params["xs"], f.params["ys"], float(x))
    raise AssertionError(f.kind)


def _interp_clamped(xs, ys, x):
    if x <= xs[0]:
        return ys[0]
    if x >= xs[-1]:
        return ys[-1]
    for i in range(len(xs) - 1):
        if xs[i] <= x <= xs[i + 1]:
            w = (x - xs[i]) / (xs[i + 1] - xs[i])
            return ys[i] * (1 - w) + ys[i + 1] * w
    raise AssertionError


@dataclass(frozen=True)
class RewardFlags:
    """Structural properties of a reward, as used by the optimality theorems.

    Always satisfies: strictly_convex => convex,
    strictly_decreasing => nonincreasing and not constant,
    constant => linear.
    """

    nonincreasing: bool
    convex: bool
    strictly_convex: bool
    strictly_decreasing: bool
    constant: bool
    linear: bool

    def __post_init__(self):
        if self.strictly_convex and not self.convex:
            raise ValueError("strictly_convex requires convex")
        if self.strictly_decreasing and (not self.nonincreasing or self.constant):
            raise ValueError("strictly_decreasing requires nonincreasing and nonconstant")
        if self.constant and not self.linear:
            raise ValueError("constant requires linear")


def classify(f: RewardSpec, horizon=None) -> RewardFlags:
    """Decide the structural flags of a discrete-domain f.

    Exact first/second-difference tests on all horizon+1 points (horizon < 2
    leaves the convexity flags vacuously true).  A table reward defaults to
    its own length; a closed-form reward needs the horizon.
    """
    if f.domain != DISCRETE:
        raise ValueError(f"classify needs a discrete-domain reward, got domain {f.domain!r}")
    if horizon is None:
        if f.kind != "table":
            raise ValueError("classify on a closed-form discrete reward needs a horizon")
        horizon = len(f.table) - 1
    values = [evaluate(f, k) for k in range(horizon + 1)]
    d1 = [b - a for a, b in zip(values, values[1:])]
    d2 = [b - a for a, b in zip(d1, d1[1:])]
    return RewardFlags(
        nonincreasing=all(d <= 0 for d in d1),
        convex=all(d >= 0 for d in d2),
        strictly_convex=all(d > 0 for d in d2),
        strictly_decreasing=bool(d1) and all(d < 0 for d in d1),
        constant=all(d == 0 for d in d1),
        linear=all(d == 0 for d in d2),
    )


# canonical constructors


def table_reward(values) -> RewardSpec:
    return RewardSpec(kind="table", table=tuple(values))


def geometric_reward(d) -> RewardSpec:
    return RewardSpec(kind="geometric", params={"d": as_rational(d)})


def indicator_top_reward() -> RewardSpec:
    return RewardSpec(kind="indicator_top")


def linear_reward(c, domain=DISCRETE) -> RewardSpec:
    return RewardSpec(kind="linear", params={"c": as_rational(c)}, domain=domain)


def exp_decay_reward(sigma: float) -> RewardSpec:
    return RewardSpec(kind="exp_decay", params={"sigma": sigma}, domain=CONTINUOUS)


def power_penalty_reward(alpha: float) -> RewardSpec:
    return RewardSpec(kind="power_penalty_negated", params={"alpha": alpha}, domain=CONTINUOUS)


def custom_table_reward(xs, ys) -> RewardSpec:
    return RewardSpec(
        kind="custom_table", params={"xs": tuple(xs), "ys": tuple(ys)}, domain=CONTINUOUS
    )


def exp_decay_table(sigma, horizon: int, max_denominator: int = 10**12) -> RewardSpec:
    """Rationalize exp(-sigma*k) on {0..horizon} into an exact table.

    The denominator cap keeps the rationalization error ~1e-12, far below
    the smallest second difference of the family at the horizons we use, so
    the strict convexity and strict decrease of exp(-sigma*x) survive the
    rounding and can then be certified exactly on the table.
    """
    vals = [
        Fraction(math.exp(-float(sigma) * k)).limit_denominator(max_denominator)
        for k in range(horizon + 1)
    ]
    return RewardSpec(kind="table", table=tuple(vals))
