"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is stated inline; exact means Fraction
equality, statistical checks use 4 standard errors with replication counts
sized so each criterion's false-alarm probability is below 1e-4.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
from conftest import joint_density_mass

from maxstop import brownian as bm
from maxstop import cli, coupling, dpsolver, oracle, rewards, walkdist
from maxstop.walkdist import WalkParams

P_GRID = [Fraction(k, 10) for k in range(1, 10)]
HALF = Fraction(1, 2)


@contextmanager
def criterion(num: int, name: str, budget: float | None = None):
    t0 = time.time()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num} [{name}]: FAIL ({time.time() - t0:.1f}s)")
        raise
    dt = time.time() - t0
    print(f"ACCEPTANCE {num} [{name}]: PASS ({dt:.1f}s)")
    if budget is not None:
        assert dt < budget, f"runtime {dt:.1f}s exceeds the {budget}s budget"


def reward_family(n: int) -> list:
    """The criterion-2/3 reward family on {0..n}: indicator, geometric,
    rationalized exponential decay, and two hand-built convex tables."""
    return [
        ("indicator_top", rewards.indicator_top_reward()),
        ("geometric:1/4", rewards.geometric_reward(Fraction(1, 4))),
        ("geometric:1/2", rewards.geometric_reward(Fraction(1, 2))),
        ("geometric:3/4", rewards.geometric_reward(Fraction(3, 4))),
        ("exp_decay_table:1/2", rewards.exp_decay_table(Fraction(1, 2), n)),
        ("exp_decay_table:1", rewards.exp_decay_table(1, n)),
        ("hinge_table", rewards.table_reward([max(0, n - 2 * k) for k in range(n + 1)])),
        ("square_table", rewards.table_reward([(n - k) ** 2 for k in range(n + 1)])),
    ]


def test_criterion_1_counterexample():
    """Exact reproduction of the nonconvex winner-take-two example at N=2."""
    with criterion(1, "counterexample, exact, <1s", budget=1.0):
        f = rewards.table_reward([1, 1, 0])
        for p in (Fraction(1, 4), Fraction(1, 3), HALF, Fraction(2, 3), Fraction(3, 4)):
            w = WalkParams(p, 2)
            assert dpsolver.evaluate_policy(w, f, dpsolver.policy_tau0(2)) == 1 - p**2
            assert dpsolver.evaluate_policy(w, f, dpsolver.policy_tauN(2)) == 1 - (1 - p) ** 2
            assert dpsolver.solve(w, f).optimal_value == 1


def _tie_class_policy(n: int, mask: int) -> dpsolver.PolicyTable:
    """Stop at zero drawdown at steps selected by the mask bits, else at N."""
    dec = {}
    for k in range(n + 1):
        for z in range(k + 1):
            stop = k == n or (z == 0 and mask >> k & 1)
            dec[(k, z)] = dpsolver.STOP if stop else dpsolver.CONTINUE
    return dpsolver.PolicyTable.from_decisions(n, dec)


def test_criterion_2_bang_bang_grid():
    """Bang-bang equalities, exact, over the full reward/p/N grid.

    At p=1/2 the stop-at-max-or-horizon policies are checked exhaustively
    (all 2^N stopping-step subsets) for N <= 8 and on a fixed sample of
    subsets for larger N.
    """
    with criterion(2, "bang-bang exact grid, <60s", budget=60.0):
        for n in range(1, 16):
            for name, f in reward_family(n):
                for p in P_GRID:
                    rep = dpsolver.solve(WalkParams(p, n), f)
                    if p <= HALF:
                        assert rep.optimal_value == rep.value_tau0, (name, p, n)
                    if p >= HALF:
                        assert rep.optimal_value == rep.value_tauN, (name, p, n)

                # every stop-at-max-or-horizon rule attains the p=1/2 optimum
                w = WalkParams(HALF, n)
                opt = dpsolver.solve(w, f).optimal_value
                if n <= 8:
                    masks = range(2**n)
                else:
                    masks = [0, 2**n - 1, 1, 2 ** (n - 1), 0b0101010101 % 2**n, 37 % 2**n]
                for mask in masks:
                    val = dpsolver.evaluate_policy(w, f, _tie_class_policy(n, mask))
                    assert val == opt, (name, n, mask)


def test_criterion_3_uniqueness_via_oracle():
    """The history-indexed prefix-tree oracle confirms the uniqueness labels
    for N <= oracle.MAX_HORIZON (13)."""
    with criterion(3, "uniqueness vs oracle, <60s", budget=60.0):
        for n in range(1, oracle.MAX_HORIZON + 1):
            fam = reward_family(n) + [("linear", rewards.linear_reward(n))]
            for name, f in fam:
                flags = rewards.classify(f, horizon=n)
                for p in P_GRID:
                    w = WalkParams(p, n)
                    rep = dpsolver.solve(w, f)
                    assert oracle.agrees(oracle.enumerate_optimum(w, f), rep), (name, p, n)
                    label = rep.unique
                    if p < HALF and not flags.constant:
                        assert label == dpsolver.UNIQUE_TAU0, (name, p, n, label)
                    if p > HALF and flags.strictly_decreasing:
                        assert label == dpsolver.UNIQUE_TAUN, (name, p, n, label)
                    if p == HALF and flags.strictly_convex and n >= 2:
                        assert label == dpsolver.TIE_CLASS, (name, n, label)
                    # at n=1 "linear" is vacuous and the two labels coincide
                    if p == HALF and flags.linear and not flags.constant and n >= 2:
                        assert label == dpsolver.NOT_UNIQUE, (name, n, label)


def test_criterion_4_key_inequality_grid():
    """Key inequality and its corollary with the exact strict/equal
    pattern, p in grid, n <= 10, i <= 10, zero violations."""
    with criterion(4, "key inequality exact grid"):
        horizon = 21  # f must cover i + n
        fam = [
            ("indicator_top", rewards.indicator_top_reward()),
            ("geometric:1/2", rewards.geometric_reward(Fraction(1, 2))),
            ("geometric:3/4", rewards.geometric_reward(Fraction(3, 4))),
            ("exp_decay_table:1/2", rewards.exp_decay_table(Fraction(1, 2), horizon)),
            ("linear", rewards.linear_reward(horizon)),
            ("hinge", rewards.table_reward([max(0, 10 - k) for k in range(horizon + 1)])),
        ]
        for name, f in fam:
            flags = rewards.classify(f, horizon=horizon)
            assert flags.nonincreasing and flags.convex
            for p in [pp for pp in P_GRID if pp >= HALF]:
                for n in range(0, 11):
                    w = WalkParams(p, n)
                    for i in range(0, 11):
                        key = walkdist.check_key_inequality(w, f, i)
                        cor = walkdist.check_corollary(w, f, i)
                        assert key.holds and cor.holds, (name, p, n, i)
                        if i == 0:
                            assert key.equal, (name, p, n)
                        if p == HALF and flags.linear:
                            assert key.equal, (name, n, i)
                        if n > 0 and p > HALF and flags.strictly_decreasing:
                            assert cor.strict, (name, p, n, i)
                            if i > 0:
                                assert key.strict, (name, p, n, i)
                        if n > 0 and i > 0 and flags.strictly_convex:
                            assert key.strict, (name, p, n, i)


def test_criterion_5_reflection_time_reversal():
    """Exact distributional identities for every p in the grid, n <= 12."""
    with criterion(5, "reflection and time reversal, exact"):
        for p in P_GRID:
            for n in range(0, 13):
                w = WalkParams(p, n)
                assert walkdist.reflection_check(w), (p, n)
                assert walkdist.time_reversal_check(w), (p, n)


def test_criterion_6_brownian_density():
    """Normalization 1e-6, reflection identity 1e-12 relative on 1e4 random
    points, pointwise density ordering."""
    with criterion(6, "brownian density checks, <60s", budget=60.0):
        for t in (1.0, 2.0):
            for lam in (-1.0, 0.0, 1.0):
                mass = joint_density_mass(bm.joint_density, t, lam)
                assert abs(mass - 1.0) < 1e-6, (t, lam)

        rng = np.random.Generator(np.random.PCG64(2026))
        for lam in (0.3, 1.0, -0.3, -1.0):
            b = rng.uniform(-3.0, 3.0, size=10_000)
            s = np.maximum(b, 0.0) + rng.uniform(0.0, 3.0, size=10_000)
            assert bm.density_reflection_check(1.0, lam, (s, b)) < 1e-12, lam

        for lam in (0.3, 1.0):
            for t in (0.5, 1.0, 2.0):
                b = np.linspace(0.01, 3.0, 50)
                s = b[:, None] + np.linspace(0.0, 3.0, 50)[None, :]
                bb = np.broadcast_to(b[:, None], s.shape)
                assert (
                    bm.joint_density(s, bb, t, lam) >= bm.joint_density(s, bb, t, -lam)
                ).all(), (lam, t)


def test_criterion_7_brownian_inequality_grid():
    """Quadrature verification of the continuous key inequality and its
    corollary: margins vs honest error bounds on a (t, x, lam >= 0) grid."""
    with criterion(7, "brownian inequality quadrature grid, <10s", budget=10.0):
        fam = [
            rewards.exp_decay_reward(1.0),
            rewards.exp_decay_reward(2.0),
            rewards.custom_table_reward([0.0, 2.0], [1.0, 0.0]),  # max(0, 1-x/2)
        ]
        ts = (0.5, 1.0, 2.0)
        xs = (0.0, 0.25, 0.6, 1.2)
        lams = (0.0, 0.4, 1.0)
        for f, t, x, lam in itertools.product(fam, ts, xs, lams):
            rep = bm.check_bm_key_inequality(t, x, lam, f)
            assert rep.lhs >= rep.rhs - rep.quad_error_bound, (f.kind, t, x, lam)
            if x > 0:  # strictness: f nonconstant (drift > 0) / nonlinear (drift 0)
                assert rep.verdict == "strict", (f.kind, t, x, lam)
            else:
                assert rep.verdict == "equal_within_tolerance", (f.kind, t, lam)

        for f, x, lam in itertools.product(fam, xs, lams):
            rep = bm.check_bm_corollary(1.0, x, lam, f)
            assert rep.lhs >= rep.rhs - rep.quad_error_bound, (f.kind, x, lam)
            if lam > 0:  # strict for every x >= 0 when the drift is positive
                assert rep.verdict == "strict", (f.kind, x, lam)

        linear = rewards.linear_reward(1, domain=rewards.CONTINUOUS)
        for t, x in itertools.product(ts, xs):
            rep = bm.check_bm_key_inequality(t, x, 0.0, linear)
            assert abs(rep.lhs - rep.rhs) <= rep.quad_error_bound, (t, x)


def test_criterion_8_brownian_bang_bang_dominance():
    """Statistical dominance at 1e5 replications, 1000 bridge-refined steps:
    each comparison at 4 combined standard errors."""
    with criterion(8, "brownian bang-bang dominance, <10min", budget=600.0):
        f = rewards.exp_decay_reward(1.0)
        alternatives = [
            bm.BmRule("drawdown_threshold", 0.25),
            bm.BmRule("drawdown_threshold", 0.5),
            bm.BmRule("drawdown_threshold", 1.0),
            bm.BmRule("time_threshold", 0.25),
            bm.BmRule("time_threshold", 0.5),
            bm.BmRule("drawdown_threshold", 0.0),  # stop at running max
        ]

        model = bm.BmModel(lam=-1.0, T=1.0)
        rules = [bm.BmRule("tau0"), bm.BmRule("tauT")] + alternatives
        ests = bm.mc_bm_rule_values(811, model, f, rules)
        tau0 = ests[0]
        for rule, est in zip(rules[1:], ests[1:]):
            tol = 4 * math.hypot(tau0.stderr, est.stderr)
            assert tau0.estimate > est.estimate - tol, (rule.label(), "lam=-1")

        model = bm.BmModel(lam=1.0, T=1.0)
        rules = [bm.BmRule("tauT"), bm.BmRule("tau0")] + alternatives
        ests = bm.mc_bm_rule_values(812, model, f, rules)
        tauT = ests[0]
        for rule, est in zip(rules[1:], ests[1:]):
            tol = 4 * math.hypot(tauT.stderr, est.stderr)
            assert tauT.estimate > est.estimate - tol, (rule.label(), "lam=+1")

        model = bm.BmModel(lam=0.0, T=1.0)
        rules = [bm.BmRule("tau0"), bm.BmRule("tauT"), bm.BmRule("drawdown_threshold", 0.0)]
        tau0, tauT, at_max = bm.mc_bm_rule_values(813, model, f, rules)
        # the path rule reads draws disjoint from the exact pair's
        for rule, est in ((rules[0], tau0), (rules[1], tauT)):
            tol = 4 * math.hypot(est.stderr, at_max.stderr)
            assert abs(est.estimate - at_max.estimate) < tol, (rule.label(), "lam=0")
        # tau0 and tauT read the same (M_T, B_T) pairs, negatively correlated
        # through f: test their paired difference
        mb = bm.sample_max_endpoint(813, 1.0, 0.0, model.mc.replications)
        a, b = f.array(mb[:, 0]), f.array(mb[:, 0] - mb[:, 1])
        assert coupling.McEstimate.from_sample(a) == tau0
        assert coupling.McEstimate.from_sample(b) == tauT
        d = a - b
        assert abs(d.mean()) < 4 * d.std() / math.sqrt(len(d)), "tau0 vs tauT, lam=0"


def test_criterion_9_determinism(tmp_path):
    """Byte-identical reports for identical seed and configuration."""
    with criterion(9, "byte-stable reports"):
        cases = [
            ["solve", "--p", "2/5", "--N", "12", "--reward", "geometric:1/2"],
            ["oracle", "--p", "1/3", "--N", "3", "--reward", "table:1,1,0,0"],
            ["bm-mc", "--seed", "6", "--lam", "-0.5", "--steps", "100",
             "--replications", "5000", "--rule", "drawdown:0.5",
             "--reward", "exp_decay:1.0"],
        ]
        for idx, case in enumerate(cases):
            blobs = []
            for run in range(2):
                out = tmp_path / f"case{idx}_run{run}.json"
                code = cli.main(["--output", str(out)] + case)
                assert code == 0
                blobs.append(out.read_bytes())
            assert blobs[0] == blobs[1], case
            json.loads(blobs[0])  # reports stay valid JSON
