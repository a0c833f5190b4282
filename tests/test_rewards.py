import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxstop import dpsolver, rewards, walkdist
from maxstop.rewards import (
    RewardFlags,
    classify,
    evaluate,
    exp_decay_table,
    geometric_reward,
    indicator_top_reward,
    linear_reward,
    table_reward,
)

from conftest import assert_refused


class TestEvaluate:
    def test_indicator_top(self):
        f = indicator_top_reward()
        assert evaluate(f, 0) == 1
        assert evaluate(f, 3) == 0

    def test_table(self):
        f = table_reward([1, 1, 0])
        assert evaluate(f, 1) == 1
        assert evaluate(f, 0) == 1
        assert evaluate(f, 2) == 0

    def test_geometric_at_zero(self):
        assert evaluate(geometric_reward(Fraction(1, 2)), 0) == 1

    def test_geometric_exact(self):
        f = geometric_reward(Fraction(1, 3))
        assert evaluate(f, 4) == Fraction(1, 81)
        assert isinstance(evaluate(f, 4), Fraction)

    def test_out_of_domain(self):
        with pytest.raises(ValueError):
            evaluate(table_reward([1, 0]), 2)
        with pytest.raises(ValueError):
            evaluate(geometric_reward(Fraction(1, 2)), -1)

    def test_linear(self):
        f = linear_reward(3)
        assert evaluate(f, 2) == 1
        assert evaluate(f, 5) == -2
        assert evaluate(linear_reward(10**400), 3) == 10**400 - 3  # beyond float range

    def test_custom_table_interpolates_and_clamps(self):
        f = rewards.custom_table_reward([0.0, 2.0], [1.0, 0.0])
        assert evaluate(f, 1.0) == pytest.approx(0.5)
        assert evaluate(f, 3.0) == 0.0  # clamped: max(0, 1 - x/2)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            geometric_reward(Fraction(3, 2))
        with pytest.raises(ValueError):
            rewards.exp_decay_reward(-1.0)
        with pytest.raises(ValueError):
            rewards.power_penalty_reward(1.5)

    def test_non_finite_params_rejected(self):
        for build in (
            lambda: rewards.custom_table_reward([0.0, 1.0], [math.nan, 0.0]),
            lambda: rewards.custom_table_reward([math.nan, 1.0], [1.0, 0.0]),
            lambda: rewards.custom_table_reward([0.0, math.inf], [1.0, 0.0]),
            lambda: rewards.exp_decay_reward(math.inf),
            lambda: rewards.exp_decay_reward(math.nan),
        ):
            with pytest.raises(ValueError, match="finite"):
                build()

    def test_float_overflow_rejected(self):
        for build in (
            lambda: rewards.custom_table_reward([0.0, 1.0], [1e308, -1e308]),  # the rise overflows
            lambda: rewards.custom_table_reward([0.0, 1e-300], [1e10, 0.0]),  # the slope overflows
            lambda: rewards.linear_reward(Fraction(10**400), rewards.CONTINUOUS),
        ):
            with pytest.raises(ValueError, match="finite"):
                build()
        assert rewards.linear_reward(Fraction(10**400))(1) == 10**400 - 1  # discrete c stays exact


class TestForms:
    def test_array_form_matches_exact_form(self):
        ints = list(range(13))
        grid = ints + np.linspace(0.0, 12.0, 97).tolist()
        for f, xs in (
            (geometric_reward(Fraction(2, 3)), ints),
            (linear_reward(Fraction(7, 2)), ints),
            (linear_reward(Fraction(7, 2), domain=rewards.CONTINUOUS), grid),
            (rewards.exp_decay_reward(0.7), grid),
            (rewards.power_penalty_reward(0.5), grid),
            (rewards.custom_table_reward([0.0, 1.0, 3.0, 6.0], [2.0, 1.0, 0.5, 0.25]), grid),
        ):
            np.testing.assert_allclose(
                f.array(np.array(xs)), [float(f(x)) for x in xs], rtol=1e-14, atol=0, err_msg=f.kind
            )

    def test_discrete_only_kinds_have_no_array_form(self):
        assert table_reward([1, 0]).array is None
        assert indicator_top_reward().array is None


class TestClassify:
    def test_winner_take_two_table_not_convex(self):
        # second difference 1 - 2*1 + 0 = -1 < 0
        flags = classify(table_reward([1, 1, 0]))
        assert not flags.convex
        assert flags.nonincreasing

    def test_geometric_half_all_strict(self):
        flags = classify(geometric_reward(Fraction(1, 2)), horizon=5)
        assert flags.nonincreasing
        assert flags.convex
        assert flags.strictly_convex
        assert flags.strictly_decreasing

    def test_constant_table(self):
        c = Fraction(7, 3)
        flags = classify(table_reward([c, c, c]))
        assert flags.constant
        assert flags.linear
        assert flags.convex
        assert not flags.strictly_decreasing

    def test_indicator_top(self):
        flags = classify(indicator_top_reward(), horizon=5)
        assert flags.nonincreasing and flags.convex
        assert not flags.strictly_decreasing  # flat beyond 1
        assert not flags.strictly_convex

    def test_short_horizon_vacuous_convexity(self):
        flags = classify(table_reward([2, 1]))
        assert flags.convex and flags.strictly_convex  # no second differences to check

    def test_continuous_domain_rejected(self):
        # linear between its nodes, so not strictly convex: flags taken on a
        # probe grid would claim a hypothesis the reward does not have
        for f in (
            rewards.custom_table_reward([0, 2, 4], [1, 0, 0]),
            rewards.exp_decay_reward(1.0),
            rewards.linear_reward(1, domain=rewards.CONTINUOUS),
        ):
            with pytest.raises(ValueError, match="domain 'continuous'"):
                classify(f)
            with pytest.raises(ValueError, match="domain 'continuous'"):
                classify(f, horizon=4)

    def test_float_table_refused(self):
        with pytest.raises(rewards.RewardDomainError, match=r"f\(0\) = 0\.5 is not rational"):
            classify(table_reward([0.5, 0.25, 0.125]))

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 16, 33, 60])
    def test_flags_match_fraction_differences(self, n):
        """The flags on integer numerators equal a direct Fraction-difference
        test, for the rewards of `bench/specs.grid_family(n)` plus
        winner-take-two; exp_decay_table stops being convex at n = 29 / 57."""
        family = [
            indicator_top_reward(),
            geometric_reward(Fraction(1, 2)),
            geometric_reward(Fraction(3, 4)),
            exp_decay_table(1, n),
            exp_decay_table(Fraction(1, 2), n),
            linear_reward(n),
            table_reward([max(0, n // 2 - k) for k in range(n + 1)]),
            table_reward([1, 1] + [0] * n),
        ]
        for f in family:
            vals = [Fraction(f(k)) for k in range(n + 1)]
            d1 = [b - a for a, b in zip(vals, vals[1:])]
            d2 = [b - a for a, b in zip(d1, d1[1:])]
            assert classify(f, horizon=n) == RewardFlags(
                nonincreasing=all(d <= 0 for d in d1),
                convex=all(d >= 0 for d in d2),
                strictly_convex=all(d > 0 for d in d2),
                strictly_decreasing=bool(d1) and all(d < 0 for d in d1),
                constant=all(d == 0 for d in d1),
                linear=all(d == 0 for d in d2),
            ), (f.kind, n)

    def test_closed_form_needs_horizon(self):
        with pytest.raises(ValueError, match="needs a horizon"):
            classify(geometric_reward(Fraction(1, 2)))

    @given(
        num=st.integers(min_value=1, max_value=9),
        den=st.integers(min_value=2, max_value=10),
        n=st.integers(min_value=2, max_value=10),
    )
    @settings(max_examples=60)
    def test_geometric_matches_direct_difference_test(self, num, den, n):
        if num >= den:
            return
        d = Fraction(num, den)
        flags = classify(geometric_reward(d), horizon=n)
        vals = [d**k for k in range(n + 1)]
        # d^k (1-d)^2 > 0: always strictly convex and strictly decreasing
        assert flags.strictly_convex == all(
            vals[k] - 2 * vals[k + 1] + vals[k + 2] > 0 for k in range(n - 1)
        )
        assert flags.strictly_decreasing

    def test_exp_decay_table_keeps_strictness(self):
        for sigma in (Fraction(1, 2), 1):
            flags = classify(exp_decay_table(sigma, 15))
            assert flags.strictly_convex
            assert flags.strictly_decreasing

    @pytest.mark.parametrize(
        "sigma, horizon, strict",
        [(1, 28, True), (Fraction(1, 2), 56, True), (1, 29, False), (Fraction(1, 2), 57, False)],
    )
    def test_exp_decay_table_strict_range(self, sigma, horizon, strict):
        """The rounding to denominators <= 10**12 breaks convexity past these
        horizons, as the docstring states."""
        flags = classify(exp_decay_table(sigma, horizon))
        if strict:
            assert flags.strictly_convex and flags.strictly_decreasing
        else:
            assert not flags.convex

    @pytest.mark.parametrize("sigma", [0, -1, Fraction(-1, 2), Fraction(1, 10**400), math.inf,
                                       math.nan, Fraction(10**400)])
    def test_exp_decay_table_needs_positive_finite_sigma(self, sigma):
        # 10**-400 rounds to 0.0; -1 at a long horizon would overflow exp;
        # float(10**400) raises OverflowError
        with pytest.raises(ValueError, match="finite sigma > 0"):
            exp_decay_table(sigma, 800)


class TestFlagsInvariants:
    """Each refusal on every construction path, from a valid record with
    every flag false."""

    VALID = RewardFlags(*(False,) * 6)

    def test_strictly_convex_requires_convex(self):
        assert_refused(self.VALID, True, False, True, False, False, False,
                       match="strictly_convex requires convex")

    def test_strictly_decreasing_requires_nonincreasing_nonconstant(self):
        assert_refused(self.VALID, False, True, False, True, False, False,
                       match="strictly_decreasing requires nonincreasing and nonconstant")
        assert_refused(self.VALID, True, True, False, True, True, True,
                       match="strictly_decreasing requires nonincreasing and nonconstant")

    def test_constant_requires_linear(self):
        assert_refused(self.VALID, True, True, False, False, True, False,
                       match="constant requires linear")


def _numerators_by_values(f, n):
    """The route the bound `numerators` form replaces: f(0..n), then reduced."""
    return rewards.rational_numerators([f(z) for z in range(n + 1)])


RATIONAL_KINDS = {
    "table": table_reward([Fraction(k % 7 - 3, k % 5 + 1) for k in range(91)]),
    "geometric:2/3": geometric_reward(Fraction(2, 3)),
    "geometric:1/10": geometric_reward(Fraction(1, 10)),
    "indicator_top": indicator_top_reward(),
    "linear:7": linear_reward(7),
    "linear:-7/3": linear_reward(Fraction(-7, 3)),
    "linear_continuous:5/2": linear_reward(Fraction(5, 2), domain=rewards.CONTINUOUS),
    "exp_decay_table:1": exp_decay_table(1, 90),
    "exp_decay_table:1/2": exp_decay_table(Fraction(1, 2), 90),
}


class TestNumerators:
    @pytest.mark.parametrize("n", [0, 1, 7, 33, 90])
    @pytest.mark.parametrize("name", list(RATIONAL_KINDS))
    def test_bound_form_matches_values(self, name, n):
        f = RATIONAL_KINDS[name]
        assert f.numerators(n) == _numerators_by_values(f, n)

    def test_table_form_is_memoized_per_horizon(self):
        f = table_reward([Fraction(1, 2), Fraction(1, 3), 0])
        assert f.numerators(1) is f.numerators(1)
        assert f.numerators(1) == ((3, 2), 6)
        assert f.numerators(2) == ((3, 2, 0), 6)

    @given(
        table=st.lists(st.fractions(max_denominator=30), min_size=1, max_size=25),
        d=st.fractions(min_value=0, max_value=1, max_denominator=40).filter(lambda d: 0 < d < 1),
        c=st.fractions(min_value=-50, max_value=50, max_denominator=40),
        n=st.integers(min_value=0, max_value=24),
    )
    @settings(max_examples=80)
    def test_bound_forms_match_values(self, table, d, c, n):
        for f in (table_reward(table), geometric_reward(d), linear_reward(c),
                  linear_reward(c, domain=rewards.CONTINUOUS)):
            if f.size is None or n < f.size:
                assert f.numerators(n) == _numerators_by_values(f, n), (f.kind, n)


def _raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


NOT_RATIONAL = "is not rational; exact arithmetic needs a rational reward"


class TestNumeratorErrors:
    """A reward the exact layer cannot use fails with the same exception and
    message through every caller of its numerators."""

    @pytest.mark.parametrize(
        "f, value",
        [
            (rewards.exp_decay_reward(1.0), "1.0"),
            (rewards.power_penalty_reward(0.5), "-0.0"),
            (rewards.custom_table_reward([0, 2], [1, 0]), "1.0"),
            (table_reward([0.5, 0.25, 0.125]), "0.5"),
            (geometric_reward(0.5), "1.0"),
            (linear_reward(2.5), "2.5"),
        ],
        ids=["exp_decay", "power", "piecewise", "float_table", "float_geometric", "float_linear"],
    )
    def test_float_kinds(self, f, value):
        expected = (rewards.RewardDomainError, f"reward value f(0) = {value} {NOT_RATIONAL}")
        w = walkdist.WalkParams(Fraction(1, 2), 2)
        assert _raised(lambda: dpsolver.solve(w, f)) == expected
        assert _raised(lambda: walkdist.check_key_inequality(w, f, 0)) == expected
        if f.domain == rewards.DISCRETE:
            assert _raised(lambda: classify(f, horizon=2)) == expected
        else:
            assert _raised(lambda: classify(f, horizon=2)) == (
                ValueError, "classify needs a discrete-domain reward, got domain 'continuous'"
            )

    def test_table_index_out_of_range(self):
        f = table_reward([2, 1, 0])
        w = walkdist.WalkParams(Fraction(1, 2), 4)
        expected = (
            rewards.RewardDomainError,
            "reward must be defined on 0..4: table reward has 3 entries, index 3 out of range",
        )
        assert _raised(lambda: dpsolver.solve(w, f)) == expected
        assert _raised(lambda: dpsolver.evaluate_policy(w, f, dpsolver.policy_tauN(4))) == expected
        assert _raised(lambda: walkdist.check_key_inequality(w, f, 0)) == expected
        assert _raised(lambda: classify(f, horizon=4)) == expected

    def test_short_float_table_reports_the_index_first(self):
        f = table_reward([0.5, 0.25])
        w = walkdist.WalkParams(Fraction(1, 2), 3)
        assert _raised(lambda: walkdist.check_key_inequality(w, f, 0)) == (
            rewards.RewardDomainError,
            "reward must be defined on 0..3: table reward has 2 entries, index 2 out of range",
        )
