import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxstop import dpsolver, rewards, walkdist
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

from conftest import (
    assert_refused,
    bellman_reference,
    brute_expect,
    brute_joint,
    brute_rule_value,
    evaluate_reference,
    last_row,
    reference_label,
)

GEOM_HALF = rewards.geometric_reward(Fraction(1, 2))
WINNER_TAKE_TWO = rewards.table_reward([1, 1, 0])


def winner_take_two(n):
    """Winner-take-two on {0..n}: pays 1 within one of the maximum."""
    return rewards.table_reward([1, 1] + [0] * n)


def policy_drawdown_threshold(n, z0):
    """Stop once the drawdown reaches z0, else at the horizon n."""
    rows = tuple(tuple(dpsolver.STOP if z >= z0 else dpsolver.CONTINUE for z in range(k + 1))
                 for k in range(n))
    return PolicyTable(n, rows + ((dpsolver.STOP,) * (n + 1),))


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
        assert set(rep.policy.rows[1]) <= {dpsolver.STOP, dpsolver.TIE}  # a TIE stops

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
        """The optimum and every decision equal the Fraction Bellman reference,
        for arbitrary rewards."""
        f = rewards.table_reward(table)
        rep = solve(WalkParams(p, n), f)
        values, decisions = bellman_reference(p, n, f)
        assert rep.optimal_value == values[(0, 0)]
        assert rep.optimal_value >= max(rep.value_tau0, rep.value_tauN)
        assert rep.policy.decisions == decisions

    @given(p=rational_p, n=st.integers(min_value=1, max_value=7))
    @settings(max_examples=40, deadline=None)
    def test_bang_bang_for_convex_families(self, p, n):
        rep = solve(WalkParams(p, n), GEOM_HALF)
        if p <= Fraction(1, 2):
            assert rep.optimal_value == rep.value_tau0
        if p >= Fraction(1, 2):
            assert rep.optimal_value == rep.value_tauN

    def test_value_monotone_in_drawdown(self):
        p, n = Fraction(2, 5), 6
        rep = solve(WalkParams(p, n), GEOM_HALF)
        # the solver keeps no per-state values: read V off the reference,
        # whose optimum and decisions the solver's match
        values, decisions = bellman_reference(p, n, GEOM_HALF)
        assert rep.optimal_value == values[(0, 0)]
        assert rep.policy.decisions == decisions
        for k in range(n):
            vals = [values[(k, z)] for z in range(k + 1)]
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
        """Each refusal by `from_decisions` and on every construction path."""
        valid = policy_tau0(2)
        missing = r"missing or invalid decision at \(1, 0\): None"
        with pytest.raises(ValueError, match=missing):
            PolicyTable.from_decisions(2, {(0, 0): "STOP"})  # missing states
        assert_refused(valid, 2, (("STOP",), (None,) * 2, (None,) * 3), match=missing)
        dec = {(k, z): "CONTINUE" for k in range(3) for z in range(k + 1)}
        dec.update({(2, z): "CONTINUE" for z in range(3)})
        with pytest.raises(ValueError, match="must stop at the horizon"):
            PolicyTable.from_decisions(2, dec)
        all_continue = tuple(("CONTINUE",) * (k + 1) for k in range(3))
        assert_refused(valid, 2, all_continue, match="must stop at the horizon")
        # wrong row length, then a row short
        assert_refused(valid, 2, (("STOP",), ("STOP",) * 3, ("STOP",) * 3),
                       match="row 1 has 3 decisions")
        assert_refused(valid, 2, (("STOP",), ("STOP",) * 2), match="2 rows")
        with pytest.raises(ValueError):
            evaluate_policy(WalkParams(Fraction(1, 2), 3), GEOM_HALF, policy_tau0(2))

    def test_policy_pickle_round_trip(self):
        pol = policy_stop_at_max(3)
        back = pickle.loads(pickle.dumps(pol))
        assert back == pol and type(back) is PolicyTable

    def test_policy_csv(self):
        text = policy_stop_at_max(2).to_csv()
        assert text.splitlines()[0] == "k,z,decision"
        assert "1,0,STOP" in text and "1,1,CONTINUE" in text


class TestPrunedSweep:
    """`evaluate_policy` sweeps from the first row with no CONTINUE up to the
    first row that holds a STOP or TIE, reading one G row per swept row, and
    closes with the drawdown law at that row; the full sweep of
    `conftest.evaluate_reference` is the reference."""

    PS = [Fraction(1, 4), Fraction(2, 5), Fraction(1, 2), Fraction(3, 5)]
    CHOICES = (dpsolver.STOP, dpsolver.CONTINUE, dpsolver.TIE)

    @classmethod
    def random_rule(cls, rng, n):
        """Rows all CONTINUE, sparse (a few STOP / TIE), mixed, or with no
        CONTINUE (rare, so the sweep starts at varied rows); one rule in
        three also stops in every state of row n // 2."""
        rows = []
        for k in range(n):
            kind = rng.choices(("continue", "sparse", "mixed", "stop"), (8, 5, 6, 1))[0]
            if kind == "continue":
                row = (dpsolver.CONTINUE,) * (k + 1)
            elif kind == "sparse":
                row = tuple(rng.choice(cls.CHOICES) if rng.random() < 0.2 else dpsolver.CONTINUE
                            for _z in range(k + 1))
            elif kind == "mixed":
                row = tuple(rng.choice(cls.CHOICES) for _z in range(k + 1))
            else:
                row = tuple(rng.choice((dpsolver.STOP, dpsolver.TIE)) for _z in range(k + 1))
            rows.append(row)
        if n and rng.random() < 1 / 3:
            rows[n // 2] = (dpsolver.STOP,) * (n // 2 + 1)
        return PolicyTable(n, tuple(rows) + ((dpsolver.STOP,) * (n + 1),))

    @pytest.mark.parametrize("p", PS)
    def test_random_rules_match_the_full_sweep(self, p):
        rng = random.Random(f"pruned-{p}")
        starts, tops = set(), set()
        for n in (0, 1, 2, 3, 5, 8, 13, 21, 30, 40):
            w = WalkParams(p, n)
            table = rewards.table_reward([rng.randint(-9, 9) for _z in range(n + 1)])
            family = (GEOM_HALF, winner_take_two(n), rewards.exp_decay_table(Fraction(1, 2), n),
                      table)
            held = tuple((dpsolver.CONTINUE,) * (k + 1) for k in range(n // 2))
            for _ in range(10):
                pol = self.random_rule(rng, n)
                # the same rule held back for its first n // 2 steps, so that
                # the sweep also ends at rows far from 0
                for rule in (pol, PolicyTable(n, held + pol.rows[n // 2 :])):
                    starts.add(next(k for k, row in enumerate(rule.rows)
                                    if dpsolver.CONTINUE not in row))
                    tops.add(next(k for k, row in enumerate(rule.rows)
                                  if row.count(dpsolver.CONTINUE) < len(row)))
                    for f in family:
                        assert evaluate_policy(w, f, rule) == evaluate_reference(w, f, rule), (p, n)
        assert len(starts) > 10  # the sweep starts at many different rows
        assert len(tops) > 10  # and ends at many different rows

    @pytest.mark.parametrize("p", PS)
    def test_named_rules_match_the_full_sweep(self, p):
        for n in range(30):
            w = WalkParams(p, n)
            f = rewards.table_reward([3, 1, 2, 0, 2] * 6)
            rules = [policy_tau0(n), policy_tauN(n)] + [
                policy_stop_at_max(n, s) for s in range(0, n + 1, 4)
            ]
            for pol in rules:
                assert evaluate_policy(w, f, pol) == evaluate_reference(w, f, pol), (p, n)

    @pytest.mark.parametrize(
        "policy, g_rows, laws, closed_forms",
        [
            (policy_tau0(200), [200], 1, [0, 200]),
            (policy_stop_at_max(200), [200], 1, [0, 200]),  # stops at time 0
            (policy_tauN(200), [], 0, [200]),
            (policy_stop_at_max(200, from_step=150), list(range(50, 0, -1)), 50, [1, 150]),
            (policy_drawdown_threshold(200, 30), list(range(170, 0, -1)), 170, [1, 30]),
        ],
        ids=["tau0", "stop-at-max", "tauN", "stop-at-max-from-150", "drawdown-30"],
    )
    def test_builds_only_the_rows_it_reads(self, policy, g_rows, laws, closed_forms,
                                           monkeypatch):
        """G rows (by j = N - k), laws of M pulled from `max_laws` (the
        first one closed-form, the rest kernel steps) and the horizons of
        every closed-form law (`max_law`) that one evaluate at N = 200
        builds."""
        built, pulled, horizons = [], [], []
        real_row, real_laws, real_law = dpsolver._g_row, walkdist.max_laws, walkdist.max_law

        def counted_row(law, fnum, j, n):
            built.append(j)
            return real_row(law, fnum, j, n)

        def counted_laws(w, first=0):
            for law in real_laws(w, first):
                pulled.append(len(law))
                yield law

        def counted_law(p, n):
            horizons.append(n)
            return real_law(p, n)

        w = WalkParams(Fraction(3, 5), 200)
        reference = evaluate_reference(w, GEOM_HALF, policy)
        monkeypatch.setattr(dpsolver, "_g_row", counted_row)
        monkeypatch.setattr(dpsolver, "max_laws", counted_laws)
        monkeypatch.setattr(dpsolver, "max_law", counted_law)
        monkeypatch.setattr(walkdist, "max_law", counted_law)  # the first row of max_laws
        assert evaluate_policy(w, GEOM_HALF, policy) == reference
        assert (sorted(built, reverse=True), len(pulled)) == (g_rows, laws)
        assert sorted(horizons) == closed_forms

    @pytest.mark.parametrize("policy", [policy_tau0, policy_tauN, policy_stop_at_max])
    def test_large_horizon_matches_the_kernel(self, policy):
        """At N = 1000 the closed-form rows give the values that the
        kernel's last rows give: tau0 and stop-at-max (which stops at time
        0) E[f(M_N)], tauN E[f(M_N - S_N)]."""
        n, p = 1000, Fraction(2, 5)
        w = WalkParams(p, n)
        fnum, den = rewards.reward_numerators(GEOM_HALF, n)
        rows = walkdist.drawdown_laws(w) if policy is policy_tauN else walkdist.max_laws(w)
        value = Fraction(sum(map(operator.mul, last_row(rows), fnum)), den * 5**n)
        assert evaluate_policy(w, GEOM_HALF, policy(n)) == value

    @pytest.mark.parametrize("p", PS)
    def test_tauN_is_the_solver_value(self, p):
        w = WalkParams(p, 150)
        for f in (GEOM_HALF, winner_take_two(150)):
            assert evaluate_policy(w, f, policy_tauN(150)) == solve(w, f).value_tauN


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

    @pytest.mark.parametrize("p", [Fraction(1, 4), Fraction(1, 2), Fraction(3, 5)])
    def test_random_markov_policies_match_enumeration(self, p):
        """The backward fold against path enumeration for random STOP /
        CONTINUE / TIE rules (TIE stops), 20 rules per horizon, n <= 8."""
        rng = random.Random(f"evaluate-{p}")
        choices = (dpsolver.STOP, dpsolver.CONTINUE, dpsolver.TIE)
        for n in range(9):
            for _ in range(20):
                dec = {(k, z): rng.choice(choices) for k in range(n) for z in range(k + 1)}
                dec.update({(n, z): dpsolver.STOP for z in range(n + 1)})
                pol = PolicyTable.from_decisions(n, dec)
                want = brute_rule_value(
                    p, n, self.NONCONVEX, lambda k, z: dec[k, z] != dpsolver.CONTINUE
                )
                assert evaluate_policy(WalkParams(p, n), self.NONCONVEX, pol) == want, (p, n, dec)


class TestAgainstBellmanReference:
    PS = [Fraction(1, 4), Fraction(2, 5), Fraction(1, 2), Fraction(3, 5), Fraction(3, 4)]

    @staticmethod
    def family(n):
        """The rewards of `bench/specs.grid_family(n)`, plus winner-take-two."""
        return {
            "indicator_top": rewards.indicator_top_reward(),
            "geometric:1/2": GEOM_HALF,
            "geometric:3/4": rewards.geometric_reward(Fraction(3, 4)),
            "exp_decay_table:1": rewards.exp_decay_table(1, n),
            "exp_decay_table:1/2": rewards.exp_decay_table(Fraction(1, 2), n),
            "linear": rewards.linear_reward(n),
            "table": rewards.table_reward([max(0, n // 2 - k) for k in range(n + 1)]),
            "winner_take_two": rewards.table_reward([1, 1] + [0] * n),
        }

    @pytest.mark.parametrize("p", PS)
    def test_streamed_sweep_matches_reference(self, p):
        """Every reported field, in exact Fractions, for N = 0..12."""
        for n in range(13):
            joint = brute_joint(p, n)
            for name, f in self.family(n).items():
                rep = solve(WalkParams(p, n), f)
                values, decisions = bellman_reference(p, n, f)
                ties = tuple(sorted(s for s, d in decisions.items() if d == "TIE"))
                case = (p, n, name)
                assert rep.optimal_value == values[(0, 0)], case
                assert rep.value_tau0 == sum(pr * f(m) for (m, _s), pr in joint.items()), case
                assert rep.value_tauN == sum(pr * f(m - s) for (m, s), pr in joint.items()), case
                assert rep.policy.decisions == decisions, case
                assert rep.tie_states == ties, case
                assert rep.unique == reference_label(n, decisions), case


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
            pol = PolicyTable.from_decisions(n, dec)
            assert evaluate_policy(w, GEOM_HALF, pol) == rep.optimal_value

    def test_tie_class_needs_no_strict_stop(self):
        """Zero-drawdown ties at every k < N are the TIE_CLASS pattern only
        when no state strictly stops; a strict stop elsewhere is another
        optimal rule."""
        n = 3
        dec = {(k, z): dpsolver.CONTINUE for k in range(n) for z in range(k + 1)}
        dec.update({(n, z): dpsolver.STOP for z in range(n + 1)})
        ties = [(k, 0) for k in range(n)]
        dec.update(dict.fromkeys(ties, dpsolver.TIE))
        rows = PolicyTable.from_decisions(n, dec).rows
        assert dpsolver._classify_uniqueness(n, rows, False, ties) == TIE_CLASS
        dec[(2, 1)] = dpsolver.STOP
        rows = PolicyTable.from_decisions(n, dec).rows
        assert dpsolver._classify_uniqueness(n, rows, True, ties) == NOT_UNIQUE

    def test_stopping_at_positive_drawdown_is_strictly_worse(self):
        n = 5
        w = WalkParams(Fraction(1, 2), n)
        rep = solve(w, GEOM_HALF)
        dec = {(k, z): dpsolver.CONTINUE for k in range(n) for z in range(k + 1)}
        dec.update({(n, z): dpsolver.STOP for z in range(n + 1)})
        dec[(2, 2)] = dpsolver.STOP  # outside the optimal class
        assert evaluate_policy(w, GEOM_HALF, PolicyTable.from_decisions(n, dec)) < rep.optimal_value
