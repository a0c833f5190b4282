from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxstop import dpsolver, rewards
from maxstop.dpsolver import (
    NOT_UNIQUE,
    TIE_CLASS,
    UNIQUE_TAU0,
    UNIQUE_TAUN,
    PolicyTable,
    evaluate_policy,
    policy_stop_at_max,
    policy_tau0,
    policy_tauN,
    solve,
)
from maxstop.walkdist import WalkParams

from conftest import brute_expect, brute_rule_value

GEOM_HALF = rewards.geometric_reward(Fraction(1, 2))
WINNER_TAKE_TWO = rewards.table_reward([1, 1, 0])

rational_p = st.builds(Fraction, st.integers(min_value=1, max_value=9), st.just(10))


class TestSolve:
    @pytest.mark.parametrize("p", [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
    def test_winner_take_two_counterexample(self, p):
        rep = solve(WalkParams(p, 2), WINNER_TAKE_TWO)
        assert rep.optimal_value == 1
        assert rep.value_tau0 == 1 - p**2
        assert rep.value_tauN == 1 - (1 - p) ** 2
        assert rep.optimal_value > max(rep.value_tau0, rep.value_tauN)
        # the optimum is attained by stopping at every k=1 state
        assert rep.policy.stops(1, 0) and rep.policy.stops(1, 1)

    def test_subcritical_stops_immediately(self):
        rep = solve(WalkParams(Fraction(2, 5), 5), GEOM_HALF)
        expected = brute_expect(Fraction(2, 5), 5, lambda m, s: GEOM_HALF(m))
        assert rep.optimal_value == rep.value_tau0 == expected

    def test_supercritical_runs_to_horizon(self):
        p = Fraction(7, 10)
        rep = solve(WalkParams(p, 6), GEOM_HALF)
        expected = brute_expect(p, 6, lambda m, s: GEOM_HALF(m - s))
        assert rep.optimal_value == rep.value_tauN == expected

    def test_zero_horizon(self):
        rep = solve(WalkParams(Fraction(1, 3), 0), GEOM_HALF)
        assert rep.optimal_value == 1

    def test_reward_domain_too_small(self):
        with pytest.raises(ValueError):
            solve(WalkParams(Fraction(1, 2), 4), rewards.table_reward([1, 0]))

    @given(
        p=rational_p,
        n=st.integers(min_value=0, max_value=7),
        table=st.lists(st.integers(min_value=-4, max_value=9), min_size=8, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_bellman_consistency_any_reward(self, p, n, table):
        """V >= both actions with equality at one, for arbitrary rewards."""
        f = rewards.table_reward(table)
        rep = solve(WalkParams(p, n), f)
        assert rep.optimal_value >= max(rep.value_tau0, rep.value_tauN)
        for (k, z), stop in rep.stop_values.items():
            cont = rep.continue_values[(k, z)]
            v = max(stop, cont)
            assert v >= stop and v >= cont

    @given(p=rational_p, n=st.integers(min_value=1, max_value=7))
    @settings(max_examples=40, deadline=None)
    def test_bang_bang_for_convex_families(self, p, n):
        rep = solve(WalkParams(p, n), GEOM_HALF)
        if p <= Fraction(1, 2):
            assert rep.optimal_value == rep.value_tau0
        if p >= Fraction(1, 2):
            assert rep.optimal_value == rep.value_tauN

    def test_value_monotone_in_drawdown(self):
        rep = solve(WalkParams(Fraction(2, 5), 6), GEOM_HALF)
        # reconstruct V from recorded stop/continue values
        for k in range(6):
            vals = [
                max(rep.stop_values[(k, z)], rep.continue_values[(k, z)])
                for z in range(k + 1)
            ]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_non_rational_reward_rejected(self):
        def f(z):
            return Fraction(1, z + 1) if z < 3 else 0.25

        w = WalkParams(Fraction(2, 5), 5)
        with pytest.raises(ValueError, match=r"f\(3\) = 0\.25 is not rational"):
            solve(w, f)
        with pytest.raises(ValueError, match=r"f\(3\)"):
            evaluate_policy(w, f, policy_tau0(5))
        with pytest.raises(ValueError, match=r"f\(0\)"):
            solve(w, rewards.exp_decay_reward(1.0))
        # only f(0..N) is checked
        assert solve(WalkParams(Fraction(2, 5), 2), f).value_tau0 == Fraction(58, 75)

    def test_report_json(self):
        rep = solve(WalkParams(Fraction(1, 2), 2), WINNER_TAKE_TWO)
        text = rep.to_json()
        assert '"mode": "exact"' in text and '"value": "1"' in text


class TestEvaluatePolicy:
    @pytest.mark.parametrize("p", [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
    def test_canonical_rules_winner_take_two(self, p):
        w = WalkParams(p, 2)
        assert evaluate_policy(w, WINNER_TAKE_TWO, policy_tau0(2)) == 1 - p**2
        assert evaluate_policy(w, WINNER_TAKE_TWO, policy_tauN(2)) == 1 - (1 - p) ** 2

    def test_stop_at_max_matches_tau0_at_half(self):
        w = WalkParams(Fraction(1, 2), 4)
        f = rewards.indicator_top_reward()
        assert evaluate_policy(w, f, policy_stop_at_max(4)) == evaluate_policy(
            w, f, policy_tau0(4)
        )

    @given(p=rational_p, n=st.integers(min_value=0, max_value=7))
    @settings(max_examples=40, deadline=None)
    def test_canonical_rules_match_enumeration(self, p, n):
        w = WalkParams(p, n)
        assert evaluate_policy(w, GEOM_HALF, policy_tau0(n)) == brute_expect(
            p, n, lambda m, s: GEOM_HALF(m)
        )
        assert evaluate_policy(w, GEOM_HALF, policy_tauN(n)) == brute_expect(
            p, n, lambda m, s: GEOM_HALF(m - s)
        )

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            PolicyTable(2, {(0, 0): "STOP"})  # missing states
        dec = {(k, z): "CONTINUE" for k in range(3) for z in range(k + 1)}
        dec.update({(2, z): "CONTINUE" for z in range(3)})
        with pytest.raises(ValueError):
            PolicyTable(2, dec)  # must stop at the horizon
        with pytest.raises(ValueError):
            evaluate_policy(WalkParams(Fraction(1, 2), 3), GEOM_HALF, policy_tau0(2))

    def test_policy_csv(self):
        text = policy_stop_at_max(2).to_csv()
        assert text.splitlines()[0] == "k,z,decision"
        assert "1,0,STOP" in text and "1,1,CONTINUE" in text


class TestAgainstEnumeration:
    NONCONVEX = rewards.table_reward([3, -1, 4, 1, -5, 9, 2, -6, 5, 3, 5, -8, 9])

    def test_values_match_enumeration(self, p_grid):
        """value_tau0, value_tauN and three policy values, n <= 12, every p."""
        for p in p_grid:
            for n in range(13):
                w = WalkParams(p, n)
                s = (n + 1) // 2
                for f in (GEOM_HALF, self.NONCONVEX):
                    tau0 = brute_expect(p, n, lambda m, _s: f(m))
                    tauN = brute_expect(p, n, lambda m, s_n: f(m - s_n))
                    at_max = brute_rule_value(p, n, f, lambda k, z: k >= s and z == 0)
                    rep = solve(w, f)
                    assert (rep.value_tau0, rep.value_tauN) == (tau0, tauN), (p, n)
                    assert evaluate_policy(w, f, policy_tau0(n)) == tau0, (p, n)
                    assert evaluate_policy(w, f, policy_tauN(n)) == tauN, (p, n)
                    assert evaluate_policy(w, f, policy_stop_at_max(n, s)) == at_max, (p, n)


class TestUniqueness:
    def test_subcritical_nonconstant_unique_tau0(self):
        rep = solve(WalkParams(Fraction(1, 3), 6), GEOM_HALF)
        assert rep.unique == UNIQUE_TAU0
        # deep states with drawdown above the remaining steps may tie exactly
        # (here p/d + q*d = 1); they are unreachable under any optimal play and
        # do not break uniqueness, which hinges on the strict root decision
        assert (0, 0) not in rep.tie_states

    def test_indicator_top_subcritical_unique_tau0(self):
        # stopping is NOT dominant in every deep state here; uniqueness still
        # follows from the strict root decision
        rep = solve(WalkParams(Fraction(1, 3), 2), rewards.indicator_top_reward())
        assert rep.unique == UNIQUE_TAU0

    def test_supercritical_strictly_decreasing_unique_tauN(self):
        rep = solve(WalkParams(Fraction(2, 3), 6), GEOM_HALF)
        assert rep.unique == UNIQUE_TAUN
        assert rep.tie_states == ()

    def test_symmetric_strictly_convex_tie_class(self):
        rep = solve(WalkParams(Fraction(1, 2), 5), GEOM_HALF)
        assert rep.unique == TIE_CLASS
        assert set(rep.tie_states) == {(k, 0) for k in range(5)}

    def test_symmetric_linear_not_unique_all_tie(self):
        rep = solve(WalkParams(Fraction(1, 2), 3), rewards.table_reward([3, 2, 1, 0]))
        assert rep.unique == NOT_UNIQUE
        assert set(rep.tie_states) == {(k, z) for k in range(3) for z in range(k + 1)}

    def test_counterexample_not_unique(self):
        rep = solve(WalkParams(Fraction(1, 2), 2), WINNER_TAKE_TWO)
        assert rep.unique == NOT_UNIQUE

    def test_tie_class_policies_all_attain_optimum(self):
        """Exhaustive over all 2^N stop-at-zero-drawdown subsets at N=5."""
        n = 5
        w = WalkParams(Fraction(1, 2), n)
        rep = solve(w, GEOM_HALF)
        for mask in range(2**n):
            dec = {}
            for k in range(n + 1):
                for z in range(k + 1):
                    stop = k == n or (z == 0 and mask >> k & 1)
                    dec[(k, z)] = dpsolver.STOP if stop else dpsolver.CONTINUE
            assert evaluate_policy(w, GEOM_HALF, PolicyTable(n, dec)) == rep.optimal_value

    def test_stopping_at_positive_drawdown_is_strictly_worse(self):
        n = 5
        w = WalkParams(Fraction(1, 2), n)
        rep = solve(w, GEOM_HALF)
        dec = {(k, z): dpsolver.CONTINUE for k in range(n) for z in range(k + 1)}
        dec.update({(n, z): dpsolver.STOP for z in range(n + 1)})
        dec[(2, 2)] = dpsolver.STOP  # outside the optimal class
        assert evaluate_policy(w, GEOM_HALF, PolicyTable(n, dec)) < rep.optimal_value
