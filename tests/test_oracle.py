from fractions import Fraction

import pytest

from conftest import (
    brute_agrees,
    brute_oracle,
    brute_rule_classes,
    brute_stopping_index,
    prefix_tree_oracle,
)
from maxstop import dpsolver, oracle, rewards
from maxstop.dpsolver import NOT_UNIQUE, TIE_CLASS, UNIQUE_TAU0, UNIQUE_TAUN, UNKNOWN
from maxstop.oracle import enumerate_optimum
from maxstop.walkdist import WalkParams

GEOM_HALF = rewards.geometric_reward(Fraction(1, 2))
WINNER_TAKE_TWO = rewards.table_reward([1, 1, 0])
HALF = Fraction(1, 2)
LABELS = (UNIQUE_TAU0, UNIQUE_TAUN, TIE_CLASS, NOT_UNIQUE, UNKNOWN)


def oracle_agrees(w, f) -> bool:
    """Whether the oracle confirms the solver's value and label (as `oracle` reports)."""
    return oracle.agrees(enumerate_optimum(w, f), dpsolver.solve(w, f))

# tables cover {0..4}; the last two are not convex, the last not monotone
BRUTE_REWARDS = [
    ("geometric:1/2", GEOM_HALF),
    ("indicator_top", rewards.indicator_top_reward()),
    ("linear", rewards.table_reward([4, 3, 2, 1, 0])),
    ("winner_take_two", rewards.table_reward([1, 1, 0, 0, 0])),
    ("non_monotone", rewards.table_reward([0, 2, 1, 3, 0])),
]


class TestEnumerate:
    def test_one_step_symmetric_tie(self):
        # tau=0 and tau=1 both give (f(0)+f(1))/2 = 3/4
        res = enumerate_optimum(WalkParams(Fraction(1, 2), 1), GEOM_HALF)
        assert res.value == Fraction(3, 4)
        assert res.n_optimal_classes == 2
        assert not res.stop_strict_at_root and res.tie_pattern
        assert res.n_rules_total == 2

    def test_winner_take_two_stops_at_one(self):
        res = enumerate_optimum(WalkParams(Fraction(1, 3), 2), WINNER_TAKE_TWO)
        assert res.value == 1
        # the rule stopping at every length-1 history is optimal: index 1 on
        # each of the 4 paths
        assert (1, 1, 1, 1) in brute_oracle(Fraction(1, 3), 2, WINNER_TAKE_TWO)[1]
        assert res.n_rules_total == 2**3

    def test_supercritical_unique_all_continue(self):
        w = WalkParams(Fraction(3, 4), 3)
        res = enumerate_optimum(w, GEOM_HALF)
        rep = dpsolver.solve(w, GEOM_HALF)
        assert res.value == rep.value_tauN
        assert res.n_optimal_classes == 1 and res.continue_strict_everywhere
        assert brute_oracle(w.p, 3, GEOM_HALF)[1] == {tuple([3] * 8)}

    def test_zero_horizon(self):
        res = enumerate_optimum(WalkParams(Fraction(1, 2), 0), GEOM_HALF)
        assert res.value == 1
        assert res.n_optimal_classes == 1

    def test_refuses_large_horizon(self):
        with pytest.raises(ValueError, match="N <= 13"):
            enumerate_optimum(WalkParams(Fraction(1, 2), 14), GEOM_HALF)
        oracle.check_horizon(13)
        with pytest.raises(ValueError, match="N <= 13"):
            oracle.check_horizon(14)

    def test_reward_too_short_is_a_domain_error(self):
        with pytest.raises(rewards.RewardDomainError,
                           match="table reward has 3 entries, index 4 out of range"):
            enumerate_optimum(WalkParams(HALF, 4), rewards.table_reward([1, 1, 0]))

    def test_refuses_float_reward(self):
        """A float f(z) would leave exact arithmetic without notice."""
        with pytest.raises(rewards.RewardDomainError, match=r"f\(0\) = 1.0"):
            enumerate_optimum(WalkParams(HALF, 3), rewards.exp_decay_reward(1.0))
        with pytest.raises(rewards.RewardDomainError, match=r"f\(2\) = 0.5"):
            enumerate_optimum(WalkParams(HALF, 3), rewards.table_reward([1, 1, 0.5, 0]))

    def test_rule_count_and_class_count(self):
        res = enumerate_optimum(WalkParams(Fraction(1, 2), 4), GEOM_HALF)
        assert res.n_rules_total == 2 ** (2**4 - 1)
        assert res.n_paths == 16

    def test_oracle_dominates_every_policy(self):
        w = WalkParams(Fraction(2, 5), 4)
        res = enumerate_optimum(w, GEOM_HALF)
        for pol in (
            dpsolver.policy_tau0(4),
            dpsolver.policy_tauN(4),
            dpsolver.policy_stop_at_max(4),
            dpsolver.policy_stop_at_max(4, from_step=2),
        ):
            assert res.value >= dpsolver.evaluate_policy(w, GEOM_HALF, pol)

    def test_history_rule_stopping_index(self):
        stop_prefixes = frozenset({(1,)})
        assert brute_stopping_index(2, stop_prefixes, (1, 1)) == 1
        assert brute_stopping_index(2, stop_prefixes, (-1, 1)) == 2

    @pytest.mark.parametrize("p", [Fraction(2, 5), HALF, Fraction(3, 5)])
    def test_horizon_twelve_matches_dp(self, p):
        w = WalkParams(p, 12)
        res = enumerate_optimum(w, GEOM_HALF)
        assert res.value == dpsolver.solve(w, GEOM_HALF).optimal_value
        assert oracle_agrees(w, GEOM_HALF)


class TestCrossValidate:
    def test_subcritical_geometric(self):
        assert oracle_agrees(WalkParams(Fraction(1, 3), 3), GEOM_HALF)

    def test_tie_class_indicator(self):
        w = WalkParams(Fraction(1, 2), 2)
        f = rewards.indicator_top_reward()
        # indicator_top is not strictly convex: more rules than the
        # stop-at-max class are optimal, so NOT_UNIQUE, and the oracle agrees
        rep = dpsolver.solve(w, f)
        assert rep.unique in (dpsolver.TIE_CLASS, dpsolver.NOT_UNIQUE)
        assert oracle_agrees(w, f)

    def test_tie_class_strictly_convex(self):
        w = WalkParams(Fraction(1, 2), 3)
        assert dpsolver.solve(w, GEOM_HALF).unique == dpsolver.TIE_CLASS
        assert oracle_agrees(w, GEOM_HALF)

    def test_linear_all_rules_optimal(self):
        w = WalkParams(Fraction(1, 2), 2)
        f = rewards.table_reward([2, 1, 0])
        res = enumerate_optimum(w, f)
        assert res.n_optimal_classes == 5  # every rule class at N=2
        assert dpsolver.solve(w, f).unique == dpsolver.NOT_UNIQUE
        assert oracle_agrees(w, f)

    def test_counterexample(self):
        assert oracle_agrees(WalkParams(Fraction(1, 3), 2), WINNER_TAKE_TWO)

    def test_supercritical(self):
        assert oracle_agrees(WalkParams(Fraction(3, 4), 3), GEOM_HALF)

    def test_tie_class_signature_set(self):
        sigs = brute_rule_classes(2, at_max_only=True)
        # N=2 stop-at-max rules: decisions free at (), (1,); (-1,) has z=1
        assert tuple([0, 0, 0, 0]) in sigs  # stop immediately
        assert tuple([2, 2, 2, 2]) in sigs  # never stop early
        assert all(len(sig) == 4 for sig in sigs)

    def test_small_grid_all_cells(self, p_grid):
        for p in p_grid:
            for n in range(1, 4):
                assert oracle_agrees(WalkParams(p, n), GEOM_HALF)

    @pytest.mark.parametrize(
        "p, n, f, wrong",
        [
            (HALF, 3, GEOM_HALF, UNIQUE_TAUN),  # truly TIE_CLASS
            (HALF, 3, GEOM_HALF, UNIQUE_TAU0),
            (Fraction(1, 3), 3, GEOM_HALF, UNIQUE_TAUN),  # truly UNIQUE_TAU0
            (Fraction(3, 4), 3, GEOM_HALF, TIE_CLASS),  # truly UNIQUE_TAUN
            (HALF, 2, rewards.table_reward([2, 1, 0]), TIE_CLASS),  # truly NOT_UNIQUE
            (Fraction(2, 5), 4, GEOM_HALF, NOT_UNIQUE),  # truly UNIQUE_TAU0
            (Fraction(2, 5), 4, GEOM_HALF, UNKNOWN),  # truly UNIQUE_TAU0
            (Fraction(3, 4), 3, GEOM_HALF, UNKNOWN),  # truly UNIQUE_TAUN
            (HALF, 3, GEOM_HALF, UNKNOWN),  # truly TIE_CLASS
        ],
    )
    def test_wrong_label_is_caught(self, p, n, f, wrong, monkeypatch):
        w = WalkParams(p, n)
        assert oracle_agrees(w, f)
        solve = dpsolver.solve
        monkeypatch.setattr(dpsolver, "solve", lambda w, f: solve(w, f)._replace(unique=wrong))
        assert not oracle_agrees(w, f)

    @pytest.mark.parametrize("r", [Fraction(3, 2), Fraction(2)], ids=str)
    @pytest.mark.parametrize("p", [Fraction(19, 40), Fraction(23, 40), Fraction(9, 20),
                                   Fraction(11, 20)], ids=str)
    @pytest.mark.parametrize("n", [10, 12])
    def test_unknown_label_is_one_strict_class(self, r, p, n):
        """f(z) = -r^z is decreasing and strictly concave, outside the
        bang-bang theorem: the solver labels it UNKNOWN, and the oracle finds
        a single optimal class that is neither tau = 0 nor tau = N."""
        f = rewards.table_reward([-(r**z) for z in range(n + 1)])
        w = WalkParams(p, n)
        assert dpsolver.solve(w, f).unique == UNKNOWN
        res = enumerate_optimum(w, f)
        assert res.n_optimal_classes == 1
        assert not res.stop_strict_at_root and not res.continue_strict_everywhere
        assert oracle_agrees(w, f)

    @pytest.mark.parametrize("p, n", [(Fraction(2, 5), 4), (HALF, 6), (Fraction(3, 4), 10)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_value_off_by_one_unit_is_caught(self, p, n, sign, monkeypatch):
        w = WalkParams(p, n)
        assert oracle_agrees(w, GEOM_HALF)
        solve = dpsolver.solve

        def off(w, f):
            rep = solve(w, f)
            return rep._replace(optimal_value=rep.optimal_value + sign * Fraction(1, p.denominator**n))

        monkeypatch.setattr(dpsolver, "solve", off)
        assert not oracle_agrees(w, GEOM_HALF)


class TestAgainstBruteEnumeration:
    """The prefix-tree oracle against valuing every rule class path by path."""

    def test_value_count_and_verdict(self, p_grid):
        seen = set()
        for n in range(5):
            for name, f in BRUTE_REWARDS:
                for p in p_grid:
                    w = WalkParams(p, n)
                    res = enumerate_optimum(w, f)
                    best, optimal = brute_oracle(p, n, f)
                    assert res.value == best, (name, p, n)
                    assert res.n_optimal_classes == len(optimal), (name, p, n)
                    assert res.stop_strict_at_root == (optimal == {(0,) * 2**n})
                    assert res.continue_strict_everywhere == (optimal == {(n,) * 2**n})
                    assert res.tie_pattern == (optimal == brute_rule_classes(n, at_max_only=True))
                    rep = dpsolver.solve(w, f)
                    seen.add(rep.unique)
                    verdict = brute_agrees(p, n, f, rep.optimal_value, rep.unique)
                    assert oracle_agrees(w, f) == verdict, (name, p, n)
                    # a wrong label gets the brute verdict too
                    for label in LABELS:
                        assert oracle.agrees(res, rep._replace(unique=label)) == brute_agrees(
                            p, n, f, rep.optimal_value, label
                        ), (name, p, n, label)
        assert seen == set(LABELS)


class TestAgainstPrefixTree:
    """Each (k, S_k, M_k) valued once against every history valued on its own
    (`conftest.prefix_tree_oracle`), every result field, N <= 12."""

    @pytest.mark.parametrize("p", [Fraction(2, 5), HALF, Fraction(3, 5)], ids=str)
    @pytest.mark.parametrize("name", ["geometric:1/2", "indicator_top"])
    def test_every_field(self, p, name):
        f = dict(BRUTE_REWARDS)[name]
        for n in range(13):
            w = WalkParams(p, n)
            assert enumerate_optimum(w, f) == prefix_tree_oracle(w, f), (n, p)

    @pytest.mark.parametrize("p", [Fraction(19, 40), Fraction(23, 40)], ids=str)
    def test_every_field_concave_unknown(self, p):
        """f(z) = -(3/2)^z, the strictly concave reward the solver labels UNKNOWN."""
        f = rewards.table_reward([-(Fraction(3, 2) ** z) for z in range(13)])
        assert dpsolver.solve(WalkParams(p, 12), f).unique == UNKNOWN
        for n in range(13):
            w = WalkParams(p, n)
            assert enumerate_optimum(w, f) == prefix_tree_oracle(w, f), (n, p)


class TestIndependence:
    def test_oracle_does_not_read_the_bound_numerators(self):
        """The oracle values f itself; the solver it checks reads the reward's
        bound integer form, so a broken form fails the solver only."""

        def broken(n):
            raise RuntimeError("numerators form read")

        w = WalkParams(Fraction(3, 5), 4)
        for _name, f in BRUTE_REWARDS:
            f_broken = f._replace(numerators=broken)
            assert enumerate_optimum(w, f_broken) == enumerate_optimum(w, f)
            with pytest.raises(RuntimeError, match="numerators form read"):
                dpsolver.solve(w, f_broken)
