import math
from fractions import Fraction

import numpy as np
import pytest

from maxstop import coupling, dpsolver, rewards
from maxstop.coupling import mc_rule_value, simulate
from maxstop.walkdist import WalkParams

GEOM_HALF = rewards.geometric_reward(Fraction(1, 2))


def _rows(batches, p) -> np.ndarray:
    """The batches' walks for p, one row per replication."""
    return np.concatenate([cp.s[p] for cp in batches])


class TestSimulate:
    def test_zero_steps(self):
        (cp,) = simulate(seed=1, n=0, ps=(Fraction(1, 2),), replications=1)
        p = Fraction(1, 2)
        assert cp.s[p].tolist() == [[0]]
        assert cp.m[p].tolist() == [[0]]
        assert cp.z[p].tolist() == [[0]]

    def test_determinism_bit_for_bit(self):
        ps = (Fraction(1, 4), Fraction(3, 4))
        a = list(simulate(seed=42, n=30, ps=ps, replications=5))
        b = list(simulate(seed=42, n=30, ps=ps, replications=5))
        for p in ps:
            assert (_rows(a, p) == _rows(b, p)).all()
        c = list(simulate(seed=43, n=30, ps=(Fraction(1, 4),), replications=5))
        assert (_rows(a, Fraction(1, 4)) != _rows(c, Fraction(1, 4))).any(axis=1).any()

    def test_pathwise_ordering_every_replication(self):
        ps = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
        batches = list(simulate(seed=7, n=50, ps=ps, replications=200))
        assert sum(len(cp.s[ps[0]]) for cp in batches) == 200
        for cp in batches:
            assert cp.ordering_violations() == 0
            # the drawdown ordering restated directly
            assert (cp.z[Fraction(3, 4)] <= cp.z[Fraction(1, 4)]).all()

    def test_ordering_violations_counts_rows(self):
        p, q = Fraction(1, 4), Fraction(3, 4)
        (cp,) = simulate(seed=7, n=5, ps=(p, q), replications=10)
        swapped = coupling.CoupledPaths((p, q), {p: cp.s[q], q: cp.s[p]}, cp.m, cp.z)
        broken = (cp.s[q] != cp.s[p]).any(axis=1).sum()
        assert broken > 0 and swapped.ordering_violations() == broken

    def test_law_of_large_numbers(self):
        p = Fraction(2, 3)
        n, reps = 100, 20_000
        total = 0
        for cp in simulate(seed=11, n=n, ps=(p,), replications=reps):
            total += int(cp.s[p][:, -1].sum())
        mean_step = total / (n * reps)
        drift = float(2 * p - 1)
        se = math.sqrt(4 * float(p) * float(1 - p) / (n * reps))
        assert abs(mean_step - drift) < 4 * se

    def test_replications_validated(self):
        with pytest.raises(ValueError):
            list(simulate(seed=0, n=5, ps=(Fraction(1, 2),), replications=0))


class TestMcRuleValue:
    def test_constant_reward_zero_stderr(self):
        f = rewards.table_reward([Fraction(5, 7)] * 3)
        est = mc_rule_value(1, WalkParams(Fraction(1, 2), 2), f, dpsolver.policy_tau0(2), 500)
        assert est.estimate == pytest.approx(5 / 7)
        assert est.stderr == 0.0

    def test_winner_take_two_tau0(self):
        f = rewards.table_reward([1, 1, 0])
        est = mc_rule_value(5, WalkParams(Fraction(1, 2), 2), f, dpsolver.policy_tau0(2), 100_000)
        assert abs(est.estimate - 0.75) < 4 * est.stderr

    def test_matches_exact_policy_value(self):
        w = WalkParams(Fraction(2, 5), 10)
        exact = dpsolver.evaluate_policy(w, GEOM_HALF, dpsolver.policy_tau0(10))
        est = mc_rule_value(9, w, GEOM_HALF, dpsolver.policy_tau0(10), 100_000)
        assert abs(est.estimate - float(exact)) < 4 * est.stderr

    def test_nontrivial_policy_matches(self):
        w = WalkParams(Fraction(1, 2), 8)
        pol = dpsolver.policy_stop_at_max(8, from_step=3)
        exact = dpsolver.evaluate_policy(w, GEOM_HALF, pol)
        est = mc_rule_value(13, w, GEOM_HALF, pol, 100_000)
        assert abs(est.estimate - float(exact)) < 4 * est.stderr

    def test_policy_horizon_mismatch(self):
        with pytest.raises(ValueError):
            mc_rule_value(0, WalkParams(Fraction(1, 2), 3), GEOM_HALF, dpsolver.policy_tau0(2), 10)


class TestMcEstimate:
    def test_huge_sample_has_finite_stderr(self):
        """A finite sample whose sum of squares overflows a float."""
        vals = np.random.default_rng(4).normal(0.0, 1e153, 100_000)
        with np.errstate(all="raise"):
            est = coupling.McEstimate.from_sample(vals)
        assert math.isfinite(est.stderr)
        assert est.stderr == pytest.approx(1e153 / math.sqrt(100_000), rel=0.02)


class TestStreamLayout:
    """Replication r is row r mod BLOCK of the stream of block r // BLOCK."""

    def test_prefix_across_block_boundary(self):
        p, n = Fraction(1, 2), 30
        full = _rows(simulate(21, n, (p,), coupling.BLOCK + 3), p)
        for k in (2, coupling.BLOCK + 1):
            assert (_rows(simulate(21, n, (p,), k), p) == full[:k]).all()
        # block 1 opens a new stream rather than repeating block 0's rows
        assert (full[coupling.BLOCK:] != full[:3]).any()

    def test_row_slices_read_the_same_stream(self, monkeypatch):
        p, n, reps = Fraction(1, 2), 30, coupling.BLOCK + 3
        full = _rows(simulate(21, n, (p,), reps), p)
        monkeypatch.setattr(coupling, "_CELLS", 4 * n + 1)  # slices of 4 rows
        sliced = list(simulate(21, n, (p,), reps))
        assert max(len(cp.s[p]) for cp in sliced) == 4
        assert (_rows(sliced, p) == full).all()

    def test_mc_rule_value_reads_simulate_paths(self):
        p, n, reps = Fraction(2, 5), 10, coupling.BLOCK + 3
        est = mc_rule_value(17, WalkParams(p, n), GEOM_HALF, dpsolver.policy_tauN(n), reps)
        vals = [
            float(GEOM_HALF(int(z))) for cp in simulate(17, n, (p,), reps) for z in cp.z[p][:, -1]
        ]
        assert abs(est.estimate - math.fsum(vals) / reps) <= 1e-12
