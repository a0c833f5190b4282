from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxstop import rewards, walkdist
from maxstop.walkdist import (
    JointLaw,
    WalkParams,
    check_corollary,
    check_key_inequality,
    d_value,
    drawdown_laws,
    g_value,
    joint_pmf,
    max_laws,
    max_marginals,
    reflection_check,
    time_reversal_check,
)

from conftest import brute_expect, brute_joint

GEOM_HALF = rewards.geometric_reward(Fraction(1, 2))

rational_p = st.builds(
    Fraction, st.integers(min_value=1, max_value=9), st.just(10)
)


class TestJointPmf:
    def test_zero_steps(self):
        assert joint_pmf(WalkParams(Fraction(1, 3), 0)).entries == {(0, 0): 1}

    def test_one_step(self):
        p = Fraction(2, 7)
        law = joint_pmf(WalkParams(p, 1))
        assert law.entries == {(1, 1): p, (0, -1): 1 - p}

    def test_three_steps_half(self):
        law = joint_pmf(WalkParams(Fraction(1, 2), 3))
        assert law.entries == brute_joint(Fraction(1, 2), 3)
        assert law.entries[(3, 3)] == Fraction(1, 8)

    @given(p=rational_p, n=st.integers(min_value=0, max_value=8))
    @settings(max_examples=50, deadline=None)
    def test_matches_enumeration_and_mass_one(self, p, n):
        law = joint_pmf(WalkParams(p, n))
        assert law.entries == brute_joint(p, n)
        assert law.total_mass() == 1

    @given(p=rational_p, n=st.integers(min_value=0, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_support_structure(self, p, n):
        for (k, l), pr in joint_pmf(WalkParams(p, n)).entries.items():
            assert pr > 0
            assert k >= max(l, 0)
            assert abs(l) <= n
            assert (n - l) % 2 == 0

    def test_csv_and_json(self):
        law = joint_pmf(WalkParams(Fraction(1, 2), 2))
        csv_text = law.to_csv()
        assert csv_text.splitlines()[0] == "n,k,l,prob_numerator,prob_denominator"
        assert "2,2,2,1,4" in csv_text
        assert '"n": 2' in law.to_json()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            WalkParams(Fraction(0), 3)
        with pytest.raises(ValueError):
            WalkParams(Fraction(1, 2), -1)
        with pytest.raises(ValueError, match="exact Fraction"):
            WalkParams(0.4, 3)


def _rows_as_laws(rows, b):
    """Integer numerator rows over b**k as dicts of Fractions."""
    return [{x: Fraction(c, b**k) for x, c in enumerate(row)} for k, row in enumerate(rows)]


class TestDrawdownKernel:
    """The integer drawdown-chain laws against two independent routes."""

    def test_matches_enumeration(self, p_grid):
        for p in p_grid:
            w = WalkParams(p, 12)
            m_laws = _rows_as_laws(max_laws(w), p.denominator)
            z_laws = _rows_as_laws(drawdown_laws(w), p.denominator)
            assert max_marginals(w) == m_laws
            for n in range(13):
                law = JointLaw(n, brute_joint(p, n))
                assert m_laws[n] == law.max_marginal(), (p, n)
                assert z_laws[n] == law.drawdown_marginal(), (p, n)

    def test_matches_joint_pass(self, p_grid):
        for p in p_grid:
            w = WalkParams(p, 40)
            m_laws = _rows_as_laws(max_laws(w), p.denominator)
            z_laws = _rows_as_laws(drawdown_laws(w), p.denominator)
            for n, entries in enumerate(walkdist._forward_laws(p, 40)):
                law = JointLaw(n, entries)
                assert m_laws[n] == law.max_marginal(), (p, n)
                assert z_laws[n] == law.drawdown_marginal(), (p, n)


class TestReflectionAndReversal:
    def test_zero_steps_any_p(self):
        assert reflection_check(WalkParams(Fraction(3, 7), 0))

    def test_paper_instance(self):
        assert reflection_check(WalkParams(Fraction(2, 3), 5))

    def test_symmetric_case_laws_identical(self):
        w = WalkParams(Fraction(1, 2), 4)
        assert reflection_check(w)
        assert joint_pmf(w).entries == joint_pmf(w.swapped()).entries

    def test_grid(self, p_grid):
        for p in p_grid:
            for n in range(0, 13):
                w = WalkParams(p, n)
                assert reflection_check(w)
                assert time_reversal_check(w)


class TestValues:
    def test_g_at_zero_steps(self):
        for i in range(5):
            assert g_value(WalkParams(Fraction(1, 3), 4), GEOM_HALF, 0, i) == GEOM_HALF(i)

    def test_g_one_step(self):
        assert g_value(WalkParams(Fraction(1, 2), 1), GEOM_HALF, 1, 0) == Fraction(3, 4)

    def test_g_two_steps_winner_take_two(self):
        f = rewards.table_reward([1, 1, 0])
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)):
            assert g_value(WalkParams(p, 2), f, 2, 0) == 1 - p**2

    def test_d_at_zero_steps(self):
        for i in range(5):
            assert d_value(WalkParams(Fraction(2, 3), 3), GEOM_HALF, 0, i) == GEOM_HALF(i)

    def test_d_equals_g_at_zero_drawdown_symmetric(self):
        w = WalkParams(Fraction(1, 2), 6)
        for k in range(7):
            assert d_value(w, GEOM_HALF, k, 0) == g_value(w, GEOM_HALF, k, 0)

    def test_dtilde_frozen_value(self):
        # 4-path enumeration: 49/72 for p=2/3, k=2, i=1
        assert d_value(WalkParams(Fraction(2, 3), 2), GEOM_HALF, 2, 1) == Fraction(49, 72)

    @given(p=rational_p, n=st.integers(min_value=0, max_value=7), i=st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_g_and_d_match_enumeration(self, p, n, i):
        w = WalkParams(p, n)
        assert g_value(w, GEOM_HALF, n, i) == brute_expect(
            p, n, lambda m, s: GEOM_HALF(max(i, m))
        )
        assert d_value(w, GEOM_HALF, n, i) == brute_expect(
            p, n, lambda m, s: GEOM_HALF(max(i, m) - s)
        )

    def test_g_monotone_in_drawdown(self):
        w = WalkParams(Fraction(3, 5), 6)
        for k in range(7):
            vals = [g_value(w, GEOM_HALF, k, i) for i in range(8)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_horizon_guard(self):
        with pytest.raises(ValueError):
            g_value(WalkParams(Fraction(1, 2), 3), GEOM_HALF, 4, 0)


class TestKeyInequality:
    def test_zero_drawdown_is_equality(self):
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(4, 5)):
            for f in (GEOM_HALF, rewards.indicator_top_reward()):
                rep = check_key_inequality(WalkParams(p, 4), f, 0)
                assert rep.equal and not rep.strict

    def test_frozen_strict_instance(self):
        rep = check_key_inequality(WalkParams(Fraction(3, 5), 2), GEOM_HALF, 1)
        assert (rep.lhs, rep.rhs) == (Fraction(31, 50), Fraction(23, 50))
        assert rep.strict
        assert rep.witness == (2, 2)

    def test_linear_reward_gives_equality_at_half(self):
        # psi vanishes identically for linear f
        f = rewards.linear_reward(3)
        rep = check_key_inequality(WalkParams(Fraction(1, 2), 3), f, 2)
        assert rep.equal
        assert rep.witness is None

    def test_corollary_zero_steps(self):
        rep = check_corollary(WalkParams(Fraction(2, 3), 0), GEOM_HALF, 3)
        assert rep.equal

    def test_corollary_frozen_strict_instance(self):
        f = rewards.geometric_reward(Fraction(1, 3))
        rep = check_corollary(WalkParams(Fraction(3, 4), 3), f, 0)
        assert (rep.lhs, rep.rhs) == (Fraction(85, 108), Fraction(1, 4))
        assert rep.strict

    def test_corollary_indicator_holds(self):
        rep = check_corollary(WalkParams(Fraction(1, 2), 2), rewards.indicator_top_reward(), 1)
        assert rep.holds

    @given(
        p=st.sampled_from([Fraction(5, 10), Fraction(6, 10), Fraction(8, 10)]),
        n=st.integers(min_value=0, max_value=6),
        i=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_inequality_pattern_small_grid(self, p, n, i):
        """lhs >= rhs for p >= 1/2 and convex nonincreasing f, strict exactly
        under the strict-decrease/strict-convexity hypotheses."""
        for f in (GEOM_HALF, rewards.indicator_top_reward(), rewards.linear_reward(20)):
            flags = rewards.classify(f, horizon=2 * 6 + 6)
            rep = check_key_inequality(WalkParams(p, n), f, i)
            assert rep.holds
            if n > 0 and i > 0:
                if p > Fraction(1, 2) and flags.strictly_decreasing:
                    assert rep.strict
                if flags.strictly_convex:
                    assert rep.strict

    def test_report_json(self):
        rep = check_key_inequality(WalkParams(Fraction(3, 5), 2), GEOM_HALF, 1)
        assert '"strict": true' in rep.to_json()
