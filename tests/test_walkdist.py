import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxstop import dpsolver, oracle, rewards, walkdist
from maxstop.walkdist import (
    WalkParams,
    check_corollary,
    check_key_inequality,
    drawdown_laws,
    max_law,
    max_laws,
    reflection_check,
    time_reversal_check,
)

from conftest import (
    assert_refused,
    brute_expect,
    brute_joint,
    brute_oracle,
    drawdown_marginal,
    joint_from_rows,
    joint_law,
    last_row,
    max_marginal,
)

GEOM_HALF = rewards.geometric_reward(Fraction(1, 2))

rational_p = st.builds(
    Fraction, st.integers(min_value=1, max_value=9), st.just(10)
)


def g_value(w, f, k, i):
    """G(k, i) = E[f(i v M_k)] under the w.p walk, from the solver's row
    kernel on the law of M_k."""
    fnum, den = rewards.reward_numerators(f, k + i)
    law = last_row(max_laws(WalkParams(w.p, k)))
    return Fraction(dpsolver._g_row(law, fnum, k, k + i)[i], w.p.denominator**k * den)


def drawdown_value(p, k, i, f):
    """E[f((i v M_k) - S_k)] under the p-walk: the law at k of the drawdown
    kernel started at i, summed against f in Fractions."""
    law = last_row(drawdown_laws(WalkParams(p, k), [0] * i + [1]))
    return sum(Fraction(c, p.denominator**k) * f(z) for z, c in enumerate(law))


class TestJointPmf:
    """The joint pass behind the reflection and time-reversal checks, read
    in Fractions (`conftest.joint_law`)."""

    def test_zero_steps(self):
        assert joint_law(Fraction(1, 3), 0) == {(0, 0): 1}

    def test_one_step(self):
        p = Fraction(2, 7)
        assert joint_law(p, 1) == {(1, 1): p, (0, -1): 1 - p}

    def test_three_steps_half(self):
        law = joint_law(Fraction(1, 2), 3)
        assert law == brute_joint(Fraction(1, 2), 3)
        assert law[(3, 3)] == Fraction(1, 8)

    @given(p=rational_p, n=st.integers(min_value=0, max_value=8))
    @settings(max_examples=50, deadline=None)
    def test_matches_enumeration_and_mass_one(self, p, n):
        law = joint_law(p, n)
        assert law == brute_joint(p, n)
        assert sum(law.values()) == 1

    @given(p=rational_p, n=st.integers(min_value=0, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_support_structure(self, p, n):
        for (k, l), pr in joint_law(p, n).items():
            assert pr > 0
            assert k >= max(l, 0)
            assert abs(l) <= n
            assert (n - l) % 2 == 0

    def test_invalid_params(self):
        valid = WalkParams(Fraction(1, 2), 3)
        assert_refused(valid, Fraction(0), 3)
        assert_refused(valid, Fraction(1, 2), -1, match="horizon must be >= 0, got -1")
        assert_refused(valid, Fraction(1, 2), 2.5, match="horizon must be an int, got 2.5")
        assert_refused(valid, 0.4, 3, match="exact Fraction")

    def test_pickle_round_trip(self):
        w = WalkParams(Fraction(2, 5), 7)
        back = pickle.loads(pickle.dumps(w))
        assert back == w and type(back) is WalkParams


def _rows_as_laws(rows, b):
    """Integer numerator rows over b**k as dicts of Fractions."""
    return [{x: Fraction(c, b**k) for x, c in enumerate(row)} for k, row in enumerate(rows)]


def _joint_laws(p, n):
    """Law of (M_k, S_k) for every k = 0..n, from one Fraction forward pass."""
    law = {(0, 0): Fraction(1)}
    laws = [law]
    for _ in range(n):
        nxt = {}
        for (m, s), pr in law.items():
            for key, step in (((max(m, s + 1), s + 1), p), ((m, s - 1), 1 - p)):
                nxt[key] = nxt.get(key, 0) + pr * step
        law = nxt
        laws.append(law)
    return laws


class TestDrawdownKernel:
    """The integer drawdown-chain laws against two independent routes."""

    def test_matches_enumeration(self, p_grid):
        for p in p_grid:
            w = WalkParams(p, 12)
            m_laws = _rows_as_laws(max_laws(w), p.denominator)
            z_laws = _rows_as_laws(drawdown_laws(w), p.denominator)
            for n in range(13):
                law = brute_joint(p, n)
                assert m_laws[n] == max_marginal(law), (p, n)
                assert z_laws[n] == drawdown_marginal(law), (p, n)

    def test_matches_joint_pass(self, p_grid):
        for p in p_grid:
            w = WalkParams(p, 40)
            m_laws = _rows_as_laws(max_laws(w), p.denominator)
            z_laws = _rows_as_laws(drawdown_laws(w), p.denominator)
            laws = _joint_laws(p, 40)
            assert laws[40] == joint_law(p, 40), p
            for n, law in enumerate(laws):
                assert m_laws[n] == max_marginal(law), (p, n)
                assert z_laws[n] == drawdown_marginal(law), (p, n)


class TestMaxLaw:
    """The reflection-principle closed form against the kernel's last row
    and against path enumeration."""

    EXTRA_PS = [Fraction(1, 1000), Fraction(999, 1000), Fraction(12345, 54321)]
    HORIZONS = set(range(65)) | {257, 1000}
    # the large denominator catches a division that is not exact
    START_PS = [Fraction(1, 4), Fraction(2, 5), Fraction(1, 2), Fraction(3, 7),
                Fraction(12345, 54321)]

    def test_is_the_kernel_last_row(self, p_grid):
        for p in p_grid + self.EXTRA_PS:
            b = p.denominator
            # one kernel pass to 1000 yields the last row at every horizon
            for n, row in enumerate(max_laws(WalkParams(p, max(self.HORIZONS)))):
                if n in self.HORIZONS:
                    law = max_law(p, n)
                    assert law == row, (p, n)
                    assert sum(law) == b**n, (p, n)

    @given(p=rational_p, n=st.integers(min_value=0, max_value=12))
    @settings(max_examples=50, deadline=None)
    def test_matches_enumeration(self, p, n):
        law = max_law(p, n)
        b = p.denominator
        assert sum(law) == b**n
        assert {m: Fraction(c, b**n) for m, c in enumerate(law)} == max_marginal(
            brute_joint(p, n))

    def test_any_start_matches_enumeration(self):
        """max_law(q, n, start) is the law of (start v M_n) - S_n under p,
        pushed from path enumeration, for start = 0..2n + 2."""
        for p in self.START_PS:
            for n in range(13):
                joint = brute_joint(p, n)
                for start in range(2 * n + 3):
                    want = [Fraction(0)] * (n + start + 1)
                    for (m, s), pr in joint.items():
                        want[max(start, m) - s] += pr
                    law = max_law(1 - p, n, start)
                    assert [Fraction(c, p.denominator**n) for c in law] == want, (p, n, start)

    def test_any_start_is_the_kernel_last_row(self):
        """max_law(p, n, start) is the drawdown chain of the q-walk from
        start at n, for n <= 40 and start = 0..2n + 2."""
        top = 40
        for p in self.START_PS:
            for start in range(2 * top + 3):
                # one kernel pass to 40 yields the chain at every horizon
                for n, row in enumerate(drawdown_laws(WalkParams(1 - p, top), [0] * start + [1])):
                    if start <= 2 * n + 2:
                        assert max_law(p, n, start) == row, (p, n, start)

    def test_references_do_not_call_it(self, monkeypatch, p_grid):
        """The reflection and time-reversal checks and the prefix-tree oracle
        stay independent of the closed form and of the kernel."""
        def refuse(*args):
            raise AssertionError("law kernel or closed form called")

        for name in ("max_law", "max_laws", "drawdown_laws"):
            monkeypatch.setattr(walkdist, name, refuse)
        monkeypatch.setattr(dpsolver, "max_law", refuse)
        monkeypatch.setattr(dpsolver, "max_laws", refuse)
        walkdist._forward_laws.cache_clear()
        for p in p_grid:
            for n in range(9):
                w = WalkParams(p, n)
                assert reflection_check(w)
                assert time_reversal_check(w)
        for p in (Fraction(2, 5), Fraction(1, 2), Fraction(3, 5)):
            for n in range(5):  # brute_oracle values every rule class, n <= 4
                res = oracle.enumerate_optimum(WalkParams(p, n), GEOM_HALF)
                assert res.value == brute_oracle(p, n, GEOM_HALF)[0], (p, n)


class TestReflectionAndReversal:
    def test_zero_steps_any_p(self):
        assert reflection_check(WalkParams(Fraction(3, 7), 0))

    def test_paper_instance(self):
        assert reflection_check(WalkParams(Fraction(2, 3), 5))

    def test_symmetric_case_laws_identical(self):
        w = WalkParams(Fraction(1, 2), 4)
        assert reflection_check(w)
        assert joint_law(w.p, w.n) == joint_law(w.q, w.n)

    def test_grid(self, p_grid):
        for p in p_grid:
            for n in range(0, 13):
                w = WalkParams(p, n)
                assert reflection_check(w)
                assert time_reversal_check(w)

    @pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(2, 3)])
    def test_checks_fail_on_one_wrong_numerator(self, monkeypatch, p):
        """One q-law numerator off by one fails both checks."""
        w = WalkParams(p, 5)
        real = walkdist._forward_laws

        def off_by_one(a, b, n):
            rows = real(a, b, n)
            if Fraction(a, b) == w.q:  # the last row: all-up paths, M = n, Z = 0
                rows = rows[:-1] + ((rows[-1][0] + 1,),)
            return rows

        monkeypatch.setattr(walkdist, "_forward_laws", off_by_one)
        assert not reflection_check(w)
        assert not time_reversal_check(w)


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
            assert drawdown_value(Fraction(2, 3), 0, i, GEOM_HALF) == GEOM_HALF(i)

    def test_d_equals_g_at_zero_drawdown_symmetric(self):
        w = WalkParams(Fraction(1, 2), 6)
        for k in range(7):
            assert drawdown_value(w.p, k, 0, GEOM_HALF) == g_value(w, GEOM_HALF, k, 0)

    def test_dtilde_frozen_value(self):
        # 4-path enumeration: 49/72 for p=2/3, k=2, i=1
        assert drawdown_value(Fraction(2, 3), 2, 1, GEOM_HALF) == Fraction(49, 72)

    @given(p=rational_p, n=st.integers(min_value=0, max_value=7), i=st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_g_and_d_match_enumeration(self, p, n, i):
        w = WalkParams(p, n)
        assert g_value(w, GEOM_HALF, n, i) == brute_expect(
            p, n, lambda m, s: GEOM_HALF(max(i, m))
        )
        assert drawdown_value(p, n, i, GEOM_HALF) == brute_expect(
            p, n, lambda m, s: GEOM_HALF(max(i, m) - s)
        )

    def test_d_below_the_horizon_matches_enumeration(self, p_grid):
        """The kernel from drawdown i at k steps is the k-step value from i, for
        a nonconvex f."""
        f = rewards.table_reward([3, 1, 2, 0, 2, 1, 1, 0, 3, 0, 1, 2, 0, 1, 0, 2, 1])
        for p in p_grid:
            for k in range(10):
                for i in range(7):
                    ref = brute_expect(p, k, lambda m, s: f(max(i, m) - s))
                    assert drawdown_value(p, k, i, f) == ref, (p, k, i)

    def test_g_monotone_in_drawdown(self):
        w = WalkParams(Fraction(3, 5), 6)
        for k in range(7):
            vals = [g_value(w, GEOM_HALF, k, i) for i in range(8)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    @given(
        p=rational_p,
        n=st.integers(min_value=0, max_value=6),
        i=st.integers(min_value=0, max_value=5),
        table=st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=12), min_size=12, max_size=12
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_values_match_fraction_sums(self, p, n, i, table):
        """The integer-numerator values equal plain Fraction sums over the kernel laws."""
        f = rewards.table_reward(table)
        w = WalkParams(p, n)
        b = p.denominator

        def expect(rows, k, g):
            return sum(Fraction(c, b**k) * g(x) for x, c in enumerate(last_row(rows)))

        for k in range(n + 1):
            assert g_value(w, f, k, i) == expect(max_laws(WalkParams(p, k)), k, lambda m: f(max(i, m)))
        lhs = drawdown_value(p, n, i, f)
        rhs = expect(drawdown_laws(w), n, lambda z: f(max(i, z)))
        rep = check_key_inequality(w, f, i)
        assert (rep.lhs, rep.rhs, rep.strict) == (lhs, rhs, lhs > rhs)

    def test_float_reward_rejected(self):
        f = rewards.table_reward([0.5, 0.25, 0.0])
        with pytest.raises(rewards.RewardDomainError, match=r"f\(0\) = 0\.5 is not rational"):
            check_key_inequality(WalkParams(Fraction(1, 2), 2), f, 0)

    @pytest.mark.parametrize("check", [check_key_inequality, check_corollary])
    def test_negative_drawdown_rejected(self, check):
        with pytest.raises(ValueError, match="drawdown must be >= 0"):
            check(WalkParams(Fraction(1, 2), 3), GEOM_HALF, -1)


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

    def test_linear_reward_gives_equality_at_half(self):
        # psi vanishes identically for linear f
        f = rewards.linear_reward(3)
        rep = check_key_inequality(WalkParams(Fraction(1, 2), 3), f, 2)
        assert rep.equal

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


class TestSteppedCaches:
    """The cached laws of `_forward_laws` and `_final_row` are read in every
    order of requests, and no law read may depend on that order."""

    PS = [Fraction(1, 4), Fraction(2, 5), Fraction(1, 2), Fraction(3, 7), Fraction(12345, 54321)]
    N = 24
    ORDERS = {
        "ascending": list(range(N + 1)),
        "descending": list(range(N, -1, -1)),
        "shuffled": random.Random(5).sample(range(N + 1), N + 1),
    }

    @pytest.mark.parametrize("order", sorted(ORDERS))
    def test_joint_laws_in_any_order(self, order):
        for p in self.PS:
            a, b = p.numerator, p.denominator
            scratch = _joint_laws(p, self.N)  # one Fraction pass from horizon 0
            walkdist._forward_laws.cache_clear()
            got = {n: walkdist._forward_laws(a, b, n) for n in self.ORDERS[order]}
            for n, rows in got.items():  # every law read after all misses: none changed
                assert [len(row) for row in rows] == list(range(n + 1, 0, -1)), (p, n)
                law = joint_from_rows(rows, b**n)
                assert law == scratch[n], (p, n)
                if n <= 12:
                    assert law == brute_joint(p, n), (p, n)
        walkdist._forward_laws.cache_clear()

    @pytest.mark.parametrize("order", sorted(ORDERS))
    def test_chain_rows_in_any_order(self, order):
        for p in self.PS:
            kernel = {start: list(drawdown_laws(WalkParams(p, self.N), [0] * start + [1]))
                      for start in range(4)}
            walkdist._final_row.cache_clear()
            got = {(n, start): walkdist._final_row(p.numerator, p.denominator, n, start)
                   for n in self.ORDERS[order] for start in range(4)}
            for (n, start), row in got.items():  # read after all misses: none changed
                assert list(row) == kernel[start][n], (p, n, start)
        walkdist._final_row.cache_clear()

    def test_one_check_keeps_only_its_two_laws(self):
        walkdist._forward_laws.cache_clear()
        assert reflection_check(WalkParams(Fraction(2, 5), 40))
        assert walkdist._forward_laws.cache_info().currsize == 2  # p and q at 40 only
        walkdist._forward_laws.cache_clear()
        # a miss keeps only the horizon asked, so a grid keeps one law per request
        asked = [(a, 5, n) for a in (1, 2) for n in range(0, 31, 3)]
        random.Random(7).shuffle(asked)
        for key in asked:
            walkdist._forward_laws(*key)
        assert walkdist._forward_laws.cache_info().currsize == len(set(asked))
        walkdist._forward_laws.cache_clear()


class TestFinalRowCache:
    # the tenths and the exact benchmark grid's p values
    PS = sorted({Fraction(k, 10) for k in range(1, 10)} | {
        Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), Fraction(3, 7), Fraction(1, 2),
        Fraction(4, 7), Fraction(3, 5), Fraction(2, 3), Fraction(3, 4)})

    def test_rows_are_the_kernel_rows(self):
        for p in self.PS:
            for n in range(21):
                for start in range(11):
                    row = walkdist._final_row(p.numerator, p.denominator, n, start)
                    assert isinstance(row, tuple)
                    assert walkdist._final_row(p.numerator, p.denominator, n, start) is row
                    kernel = drawdown_laws(WalkParams(p, n), [0] * start + [1])
                    assert list(row) == last_row(kernel)

    def test_solver_sweeps_do_not_fill_it(self):
        walkdist._final_row.cache_clear()
        w = WalkParams(Fraction(3, 5), 200)
        dpsolver.solve(w, GEOM_HALF)
        dpsolver.evaluate_policy(w, GEOM_HALF, dpsolver.policy_stop_at_max(200))
        info = walkdist._final_row.cache_info()
        assert (info.currsize, info.hits, info.misses) == (0, 0, 0)

    def test_checks_share_rows(self):
        walkdist._final_row.cache_clear()
        w = WalkParams(Fraction(3, 5), 6)
        for f in (GEOM_HALF, rewards.indicator_top_reward(), rewards.linear_reward(20)):
            check_key_inequality(w, f, 2)
            check_corollary(w, f, 2)
        # rows (p, 6, 2), (p, 6, 0) and (q, 6, 0), each computed once
        assert walkdist._final_row.cache_info().misses == 3
