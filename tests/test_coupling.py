import math
from fractions import Fraction

import numpy as np
import pytest

from maxstop import brownian, coupling, dpsolver, rewards
from maxstop.coupling import mc_rule_value
from maxstop.walkdist import WalkParams

GEOM_HALF = rewards.geometric_reward(Fraction(1, 2))


def _sample(*args) -> np.ndarray:
    """The per-replication values that mc_rule_value(*args) averages."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coupling.McEstimate, "from_sample", seen.append)
        mc_rule_value(*args)
    (vals,) = seen
    return vals


class TestMcRuleValue:
    def test_zero_steps(self):
        est = mc_rule_value(1, WalkParams(Fraction(1, 2), 0), GEOM_HALF, dpsolver.policy_tau0(0), 3)
        assert (est.estimate, est.stderr, est.replications) == (1.0, 0.0, 3)

    def test_determinism_bit_for_bit(self):
        args = (WalkParams(Fraction(1, 4), 30), GEOM_HALF, dpsolver.policy_tauN(30), 50)
        assert mc_rule_value(42, *args) == mc_rule_value(42, *args)
        assert mc_rule_value(42, *args) != mc_rule_value(43, *args)

    def test_replications_validated(self):
        with pytest.raises(ValueError, match="at least one replication"):
            mc_rule_value(0, WalkParams(Fraction(1, 2), 5), GEOM_HALF, dpsolver.policy_tau0(5), 0)

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
        # tauN with geometric 1/2 gives each replication 2^-(M_N - S_N)
        w, pol = WalkParams(Fraction(1, 2), 30), dpsolver.policy_tauN(30)
        full = _sample(21, w, GEOM_HALF, pol, coupling.BLOCK + 3)
        for k in (2, coupling.BLOCK + 1):
            assert (_sample(21, w, GEOM_HALF, pol, k) == full[:k]).all()
        # block 1 opens a new stream rather than repeating block 0's rows
        assert (full[coupling.BLOCK:] != full[:3]).any()

    def test_walks_and_brownian_pairs_open_stream_1_at_row_block(self):
        """One layout for every Monte Carlo: row BLOCK reads the first draws
        of stream 1, n uniforms for a walk, one normal and one uniform for a
        Brownian (M_T, B_T) pair."""
        seed, n = 23, 12
        walk = _sample(seed, WalkParams(Fraction(1, 2), n), GEOM_HALF, dpsolver.policy_tauN(n),
                       coupling.BLOCK + 1)
        steps = np.where(coupling._rng(seed, 1).random(n) <= 0.5, 1, -1)
        s = np.concatenate([[0], np.cumsum(steps)])
        assert walk[coupling.BLOCK] == 2.0 ** -(s.max() - s[-1])

        pair = brownian.sample_max_endpoint(seed, 1.0, 0.3, coupling.BLOCK + 1)[coupling.BLOCK]
        gen = coupling._rng(seed, 1)
        b = 0.3 + gen.standard_normal()
        m = 0.5 * (b + math.sqrt(b * b - 2.0 * math.log(1.0 - gen.random())))
        assert tuple(pair) == (m, b)

    def test_row_slices_read_the_same_stream(self, monkeypatch):
        n = 10
        args = (17, WalkParams(Fraction(2, 5), n), GEOM_HALF, dpsolver.policy_tauN(n),
                coupling.BLOCK + 3)
        full = mc_rule_value(*args)
        monkeypatch.setattr(coupling, "_CELLS", 4 * n + 1)  # slices of 4 rows
        assert mc_rule_value(*args) == full

    def test_mc_rule_value_pinned_across_block_boundary(self):
        """Bit-for-bit output of one numpy build; the replications cross into stream 1."""
        n = 10
        est = mc_rule_value(17, WalkParams(Fraction(2, 5), n), GEOM_HALF,
                            dpsolver.policy_tauN(n), coupling.BLOCK + 3)
        assert est.estimate.hex() == "0x1.0d8d9a3199115p-2"
        assert est.stderr.hex() == "0x1.9d21dcd9c7579p-9"
        assert est.replications == coupling.BLOCK + 3
