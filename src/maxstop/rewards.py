"""Reward functions of the distance to the ultimate maximum.

A reward is a function f on {0,...,N} (discrete horizon) or [0, inf)
(continuous horizon).  The bang-bang optimality results hold for
nonincreasing convex f, and which theorem applies depends on structural
properties (strict convexity, strict decrease, ...).  Both settings ask
for them on {0..N} only, so `classify` decides them there, by checking
first and second differences on all points, exactly: on the values as
integers over their common denominator.

Built-in families, each defined by its constructor alone:

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

import functools
import math
import operator
from collections.abc import Callable
from fractions import Fraction
from itertools import accumulate, repeat
from typing import NamedTuple

from ._lazy import np
from ._record import Checked

DISCRETE = "discrete"
CONTINUOUS = "continuous"


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


def rational_numerators(values: list) -> tuple:
    """(numerators, D): exact values f(0), f(1), ... as a tuple of integers
    over their least common denominator D.

    Raises RewardDomainError at the first value that is not an int or a
    Fraction, naming its argument.
    """
    for z, v in enumerate(values):
        if not isinstance(v, (int, Fraction)):
            raise RewardDomainError(
                f"reward value f({z}) = {v!r} is not rational; exact arithmetic needs a rational reward"
            )
    den = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def _numerators_via(at) -> Callable:
    """The generic `numerators` form: f(0..n) through `at`, then
    `rational_numerators`, which rejects a value that is not rational."""
    return lambda n: rational_numerators([at(z) for z in range(n + 1)])


class RewardSpec(NamedTuple):
    """A reward function, built by one of the constructors below.

    The constructor checks the parameters once and binds every form of f:
    `at` is f at one argument, exact on integers for the rational kinds;
    `numerators(n)` is `rational_numerators` of f(0..n), the same integers
    and D, in closed form for the rational kinds (memoized per n for a
    table) and through `at` for the float kinds, so it raises what `at` and
    `rational_numerators` raise there; `array` is f on a numpy array, None
    for a kind with no continuous form; `nodes` are the kinks of a
    piecewise-linear f; `size` is a table's length.  Equality is tuple
    equality over the fields, and the bound forms are closures, which
    compare by identity, so a spec equals itself and its copies only.
    """

    kind: str
    domain: str
    at: Callable
    numerators: Callable
    array: Callable | None = None
    nodes: tuple = ()
    size: int | None = None

    def __call__(self, x):
        return evaluate(self, x)


def reward_numerators(f, n: int) -> tuple:
    """(numerators, D) of f(0..n): the bound form of a RewardSpec, and
    `rational_numerators` over f(z) for any other callable.

    Raises RewardDomainError naming the first z where f is undefined or not
    rational.
    """
    try:
        return (f.numerators if isinstance(f, RewardSpec) else _numerators_via(f))(n)
    except RewardDomainError:
        raise
    except ValueError as e:
        raise RewardDomainError(f"reward must be defined on 0..{n}: {e}") from e


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
    return f.at(x)


class _Flags(NamedTuple):
    nonincreasing: bool
    convex: bool
    strictly_convex: bool
    strictly_decreasing: bool
    constant: bool
    linear: bool


class RewardFlags(Checked, _Flags):
    """Structural properties of a reward, as used by the optimality theorems.

    Always satisfies: strictly_convex => convex,
    strictly_decreasing => nonincreasing and not constant,
    constant => linear.
    """

    __slots__ = ()

    def _check(self):
        if self.strictly_convex and not self.convex:
            raise ValueError("strictly_convex requires convex")
        if self.strictly_decreasing and (not self.nonincreasing or self.constant):
            raise ValueError("strictly_decreasing requires nonincreasing and nonconstant")
        if self.constant and not self.linear:
            raise ValueError("constant requires linear")


def classify(f: RewardSpec, horizon=None) -> RewardFlags:
    """Decide the structural flags of a discrete-domain f.

    Exact first/second-difference tests on all horizon+1 points (horizon < 2
    leaves the convexity flags vacuously true), taken on the numerators over
    the values' common denominator, which keeps every sign.  A table reward
    defaults to its own length; a closed-form reward needs the horizon.  A
    value that is undefined or not rational raises RewardDomainError.
    """
    if f.domain != DISCRETE:
        raise ValueError(f"classify needs a discrete-domain reward, got domain {f.domain!r}")
    if horizon is None:
        if f.size is None:
            raise ValueError("classify on a closed-form discrete reward needs a horizon")
        horizon = f.size - 1
    nums, _den = reward_numerators(f, horizon)
    d1 = [b - a for a, b in zip(nums, nums[1:])]
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
    table = tuple(as_rational(v) for v in values)
    if not table:
        raise ValueError("table reward needs a nonempty value table")

    def at(x):
        k = int(x)
        if k >= len(table):
            raise ValueError(f"table reward has {len(table)} entries, index {k} out of range")
        return table[k]

    # a failed n raises and is not memoized, so at most len(table) entries
    numerators = functools.cache(_numerators_via(at))
    return RewardSpec("table", DISCRETE, at, numerators, size=len(table))


def _powers(x: int, n: int) -> list:
    """[1, x, x**2, ..., x**n]."""
    return list(accumulate(repeat(x, n), operator.mul, initial=1))


def geometric_reward(d) -> RewardSpec:
    d = as_rational(d)
    if not 0 < d < 1:
        raise ValueError(f"geometric reward needs 0 < d < 1, got {d}")
    d_float = float(d)

    def at(x):
        return d ** int(x)

    def numerators(n):
        # d**k = a**k / b**k in lowest terms, so D = b**n and the k-th
        # numerator is a**k * b**(n - k)
        ups, downs = _powers(d.numerator, n), _powers(d.denominator, n)
        return tuple(map(operator.mul, ups, reversed(downs))), downs[-1]

    if not isinstance(d, Fraction):
        numerators = _numerators_via(at)
    return RewardSpec("geometric", DISCRETE, at, numerators, lambda x: np.power(d_float, x))


def indicator_top_reward() -> RewardSpec:
    return RewardSpec(
        "indicator_top", DISCRETE,
        lambda x: Fraction(1) if x == 0 else Fraction(0), lambda n: ((1,) + (0,) * n, 1),
    )


def linear_reward(c, domain=DISCRETE) -> RewardSpec:
    if domain not in (DISCRETE, CONTINUOUS):
        raise ValueError(f"domain must be 'discrete' or 'continuous', got {domain!r}")
    c = as_rational(c)
    if domain == CONTINUOUS:
        try:
            in_range = math.isfinite(float(c))
        except OverflowError:
            in_range = False
        if not in_range:
            raise ValueError("continuous linear reward needs a finite c within float range")

    def at(x):
        if isinstance(c, Fraction) and (isinstance(x, (int, Fraction)) or float(x).is_integer()):
            return c - Fraction(x)
        return float(c) - float(x)

    def numerators(n):
        # c - k = (u - k*v) / v in lowest terms for c = u/v, so D = v
        u, v = c.numerator, c.denominator
        return tuple(u - k * v for k in range(n + 1)), v

    if not isinstance(c, Fraction):
        numerators = _numerators_via(at)
    # float(c) on use, so an exact c beyond float range still solves exactly
    return RewardSpec("linear", domain, at, numerators, lambda x: float(c) - x)


def exp_decay_reward(sigma: float) -> RewardSpec:
    sigma = float(sigma)
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"exp_decay reward needs a finite sigma > 0, got {sigma}")
    exp = np.exp  # loads numpy now, not in the first quadrature or Monte Carlo job

    def at(x):
        return math.exp(-sigma * float(x))

    return RewardSpec("exp_decay", CONTINUOUS, at, _numerators_via(at), lambda x: exp(-sigma * x))


def power_penalty_reward(alpha: float) -> RewardSpec:
    if not 0 < alpha < 1:
        raise ValueError("power_penalty_negated needs 0 < alpha < 1")
    alpha = float(alpha)
    power = np.power  # loads numpy now, as exp_decay_reward does

    def at(x):
        return -(float(x) ** alpha)

    return RewardSpec(
        "power_penalty_negated", CONTINUOUS, at, _numerators_via(at), lambda x: -power(x, alpha)
    )


def custom_table_reward(xs, ys) -> RewardSpec:
    xs, ys = tuple(map(float, xs)), tuple(map(float, ys))
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("custom_table needs matching xs/ys with >= 2 points")
    if not all(map(math.isfinite, xs + ys)):
        raise ValueError("custom_table needs finite xs and ys")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("custom_table xs must be strictly increasing")
    rises = [b - a for a, b in zip(ys, ys[1:])]
    slopes = [dy / (b - a) for dy, a, b in zip(rises, xs, xs[1:])]
    if not all(map(math.isfinite, rises + slopes)):
        raise ValueError("custom_table needs finite differences and slopes between its points")
    array = functools.partial(np.interp, xp=np.array(xs), fp=np.array(ys))

    def at(x):
        return float(array(float(x)))

    return RewardSpec("custom_table", CONTINUOUS, at, _numerators_via(at), array, nodes=xs)


def exp_decay_table(sigma, horizon: int) -> RewardSpec:
    """Rationalize exp(-sigma*k) on {0..horizon} into an exact table.

    Each value is the closest fraction with denominator <= 10**12 (error
    ~1e-12).  Strict convexity and strict decrease of exp(-sigma*x) survive
    this rounding only while the second differences stay well above it:
    `classify` finds the table strictly convex and strictly decreasing for
    horizon <= 28 at sigma = 1 and <= 56 at sigma = 1/2, and not convex
    from horizon 29 and 57 on.
    """
    try:
        sigma = float(sigma)
    except OverflowError:  # an exact sigma beyond float range
        sigma = math.inf
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"exp_decay_table needs a finite sigma > 0, got {sigma}")
    return table_reward(_rational_exp(sigma, k) for k in range(horizon + 1))


@functools.lru_cache(maxsize=4096)
def _rational_exp(sigma: float, k: int) -> Fraction:
    """exp(-sigma*k) as the closest fraction with denominator <= 10**12.

    `sweep` and `verify-discrete` build the table again for each horizon,
    so each value is rationalized once per process; the 4096 entries take
    about 1 MB.
    """
    return Fraction(math.exp(-sigma * k)).limit_denominator(10**12)
