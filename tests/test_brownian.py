import itertools
import math
import pickle
import warnings

import numpy as np
import pytest
from conftest import assert_refused, brownian_grid_reference, joint_density_mass
from scipy import integrate
from scipy.special import erfcx
from scipy.stats import norm

from maxstop import brownian as bm
from maxstop import coupling, rewards
from maxstop.coupling import McEstimate

EXP1 = rewards.exp_decay_reward(1.0)
HINGE = rewards.custom_table_reward([0.0, 2.0], [1.0, 0.0])  # max(0, 1 - x/2)
LINEAR = rewards.linear_reward(1, domain=rewards.CONTINUOUS)


def g_closed_form(t, x, sigma=1.0):
    """Independent oracle for E[exp(-sigma*(x v M_t))] at zero drift, from the
    reflection-principle law of the maximum; not used by the library."""
    st = math.sqrt(t)
    return math.exp(-sigma * x) * (2 * norm.cdf(x / st) - 1) + 2 * math.exp(
        sigma * sigma * t / 2
    ) * norm.cdf(-(x + sigma * t) / st)


def max_cdf_drifted(m, t, lam):
    """Independent oracle: P(M_t <= m) for drift lam (textbook formula)."""
    st = math.sqrt(t)
    return norm.cdf((m - lam * t) / st) - math.exp(2 * lam * m) * norm.cdf(
        (-m - lam * t) / st
    )


def max_survival(m, t, lam):
    """Independent oracle: P(M_t > m) for drift lam, vectorized over m."""
    st = math.sqrt(t)
    return norm.sf((m - lam * t) / st) + np.exp(2 * lam * m + norm.logcdf((-m - lam * t) / st))


def expect_f_of_max(t, x, lam, f, fprime, kinks=()):
    """Independent oracle: E[f(x v M_t)] = f(x) + int_x^inf f'(m) P(M_t > m) dm,
    by 20-point Gauss-Legendre on 64 panels per piece between the kinks of f,
    out to 14 standard deviations past the drift."""
    hi = x + abs(lam) * t + 14.0 * math.sqrt(t)
    pieces = sorted({x, hi, *(k for k in kinks if x < k < hi)})
    nodes, weights = np.polynomial.legendre.leggauss(20)
    total = 0.0
    for a, b in zip(pieces, pieces[1:]):
        cuts = np.linspace(a, b, 65)
        lo, up = cuts[:-1, None], cuts[1:, None]
        m = 0.5 * (up - lo) * nodes + 0.5 * (up + lo)
        total += float(np.sum(0.5 * (up - lo) * weights * fprime(m) * max_survival(m, t, lam)))
    return f(x) + total


def exp_decay_floor_max(mp, t, floor, mu, start, sigma=1):
    """Independent oracle, in mpmath: E[exp(-sigma (floor v V))] for
    V = (start + B_t) v M_t under drift mu, floor, start >= 0.

    With P(V <= y) = Phi((y - c)/sqrt(t)) - exp(2 mu y) Phi((-y - c)/sqrt(t)),
    c = start + mu t, the value is exp(-sigma floor) minus sigma times
    int_floor^inf exp(-sigma y) P(V > y) dy, a sum of two integrals
    J(k, d) = int_floor^inf exp(k y) Phi((d - y)/sqrt(t)) dy, each one
    integration by parts from a Gaussian integral in closed form."""
    t, floor, mu, start, sigma = map(mp.mpf, (t, floor, mu, start, sigma))
    st = mp.sqrt(t)
    c = start + mu * t

    def J(k, d):
        if k == 0:
            u = (floor - d) / st
            return st * (mp.npdf(u) - u * mp.ncdf(-u))
        return (mp.exp(k * d + k * k * t / 2) * mp.ncdf((d + k * t - floor) / st)
                - mp.exp(k * floor) * mp.ncdf((d - floor) / st)) / k

    return mp.exp(-sigma * floor) - sigma * (J(-sigma, c) + J(2 * mu - sigma, -c))


def conditional_slope_integral(t, b, lo, hi, sigma):
    """int_lo^hi exp(-sigma (s - b)) P(M_t > s | B_t = b) ds for lo >= max(0, b),
    where P(M_t > s | B_t = b) = exp(-2 s (s - b) / t): the exponent is
    quadratic in s, so the integral is a difference of scaled erfc values."""
    a = 2.0 / t
    centre = b / 2 - sigma * t / 4  # vertex of the exponent, <= lo

    def part(s):
        if s == math.inf:
            return 0.0
        return float(erfcx(math.sqrt(a) * (s - centre))) * math.exp(
            -sigma * (s - b) - 2 * s * (s - b) / t
        )

    return 0.5 * math.sqrt(math.pi / a) * (part(lo) - part(hi))


def expect_f_after_max(t, x, lam, f, slope, kinks=()):
    """Independent oracle: E[f((x v M_t) - B_t)] for drift lam.

    Given B_t = b, x v M_t >= a = max(x, b) and exceeds s >= a with
    probability exp(-2 s (s - b) / t), so integrating by parts
    E[f((x v M) - b) | b] = f(a - b) + int_a^inf f'(s - b) P(M > s | b) ds.
    f' is given as pieces (c, sigma, u0, u1): c exp(-sigma u) on
    [u0, u1), which the inner integral takes in closed form.  The outer
    integral over the normal law of B_t is scipy's adaptive quad with
    breakpoints where f(a - b) bends: b = x and b = x - kink.
    """
    st = math.sqrt(t)

    def inner(b):
        a = max(x, b)
        total = f(a - b)
        for c, sigma, u0, u1 in slope:
            lo, hi = max(a, b + u0), b + u1
            if lo < hi:
                total += c * conditional_slope_integral(t, b, lo, hi, sigma)
        return total * math.exp(-0.5 * ((b - lam * t) / st) ** 2) / (st * math.sqrt(2 * math.pi))

    lo, hi = lam * t - 12.0 * st, lam * t + 12.0 * st
    points = sorted({x, *(x - k for k in kinks)})
    # the tolerance lies below roundoff on purpose, and quad warns that it
    # stops short of it; looser tolerances move the result by up to 3e-16
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, _abserr = integrate.quad(
            inner, lo, hi, points=[c for c in points if lo < c < hi],
            epsabs=1e-16, epsrel=1e-14, limit=200,
        )
    return value


# (spec, f, f', kinks of f, f' as pieces (c, sigma, u0, u1)) for the honesty grid
HONESTY_REWARDS = {
    "exp_decay:1": (
        EXP1, lambda x: math.exp(-x), lambda m: -np.exp(-m), (), ((-1.0, 1.0, 0.0, math.inf),)
    ),
    "exp_decay:2": (
        rewards.exp_decay_reward(2.0), lambda x: math.exp(-2 * x), lambda m: -2 * np.exp(-2 * m),
        (), ((-2.0, 2.0, 0.0, math.inf),),
    ),
    "hinge": (
        HINGE, lambda x: max(0.0, 1 - x / 2), lambda m: np.where(m < 2.0, -0.5, 0.0), (2.0,),
        ((-0.5, 0.0, 0.0, 2.0),),
    ),
}


class TestJointDensity:
    def test_zero_at_origin(self):
        assert bm.joint_density(0.0, 0.0, 1.0, 0.7) == 0.0

    def test_zero_outside_support(self):
        assert bm.joint_density(1.0, 1.5, 1.0, 0.0) == 0.0
        assert bm.joint_density(-0.5, -1.0, 1.0, 0.0) == 0.0

    def test_rejects_bad_time(self):
        with pytest.raises(ValueError):
            bm.joint_density(1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("t", [1.0, 2.0])
    @pytest.mark.parametrize("lam", [-1.0, 0.0, 1.0])
    def test_normalization(self, t, lam):
        assert abs(joint_density_mass(bm.joint_density, t, lam) - 1.0) < 1e-6
        res = bm._expect_floor_max(np.ones_like, (), t, lam, 0.0, 0.0)  # law of M_t
        assert abs(res.value - 1.0) <= res.error < 1e-6

    def test_reflection_identity_zero_drift_pointwise(self):
        s, b = 1.3, 0.4
        assert bm.joint_density(s, b, 1.0, 0.0) == pytest.approx(
            bm.joint_density(s - b, -b, 1.0, 0.0), rel=1e-14
        )

    def test_reflection_identity_single_point(self):
        disc = bm.density_reflection_check(1.0, 0.7, ([1.0], [0.5]))
        assert disc < 1e-12

    @pytest.mark.parametrize("lam", [0.3, -0.3, 1.5, -1.5])
    def test_reflection_identity_random_grid(self, lam):
        rng = np.random.Generator(np.random.PCG64(7))
        b = rng.uniform(-2.5, 2.5, size=10_000)
        s = np.maximum(b, 0.0) + rng.uniform(0.0, 2.5, size=10_000)
        assert bm.density_reflection_check(1.0, lam, (s, b)) < 1e-12

    @pytest.mark.parametrize("lam", [0.3, 1.0])
    def test_density_ordering_positive_endpoint(self, lam):
        b = np.linspace(0.01, 3.0, 60)
        s = b[:, None] + np.linspace(0.0, 3.0, 60)[None, :]
        bb = np.broadcast_to(b[:, None], s.shape)
        hp = bm.joint_density(s, bb, 1.0, lam)
        hm = bm.joint_density(s, bb, 1.0, -lam)
        assert (hp >= hm).all()
        assert (hp[s > 0] > hm[s > 0]).all()


class TestQuadratureValues:
    @pytest.mark.parametrize("lam", [-1.0, 0.0, 1.0])
    def test_negative_time_rejected(self, lam):
        for op in (bm.g_bm, bm.dtilde_bm):
            with pytest.raises(ValueError, match="time must be nonnegative"):
                op(-1e-300, 0.5, lam, EXP1)

    def test_t_zero_returns_reward(self):
        for op in (bm.g_bm, bm.dtilde_bm):
            assert op(0.0, 0.7, 1.0, EXP1).value == pytest.approx(math.exp(-0.7))

    def test_g_matches_closed_form_zero_drift(self):
        for t, x in [(1.0, 0.0), (1.0, 0.5), (2.0, 1.0), (0.5, 0.25)]:
            res = bm.g_bm(t, x, 0.0, EXP1)
            assert abs(res.value - g_closed_form(t, x)) < res.error + 1e-9

    def test_g_equals_d_at_zero_drift_zero_start(self):
        # D(t, x) is D-tilde under drift -lam, so the two coincide at lam = 0
        g = bm.g_bm(1.0, 0.0, 0.0, EXP1)
        d = bm.dtilde_bm(1.0, 0.0, 0.0, EXP1)
        assert abs(g.value - d.value) < g.error + d.error

    def test_dtilde_beats_g_with_positive_drift(self):
        rep = bm.check_bm_corollary(1.0, 0.5, 1.0, EXP1)
        assert rep.verdict == "strict"

    def test_x_negative_rejected(self):
        with pytest.raises(ValueError):
            bm.g_bm(1.0, -0.1, 0.0, EXP1)

    def test_key_inequality_rejects_negative_x_at_t_zero(self):
        with pytest.raises(ValueError, match="x must be >= 0"):
            bm.check_bm_key_inequality(0.0, -1.0, 0.5, EXP1)

    @pytest.mark.parametrize("name", sorted(HONESTY_REWARDS))
    def test_claimed_error_bounds_hold(self, name):
        """|value - ref| <= claimed error <= 1e-7 for g_bm, the key-inequality
        right-hand side (M - B under lam has the law of M under -lam) and its
        left-hand side dtilde_bm, whose hinge kinks lie on b = x - node."""
        spec, f, fprime, kinks, slope = HONESTY_REWARDS[name]
        misses = []
        for t, x, lam in itertools.product(
            (0.5, 1.0, 2.0), (0.0, 0.25, 0.6, 1.2), (-1.0, -0.4, 0.0, 0.4, 1.0)
        ):
            g = bm.g_bm(t, x, lam, spec)
            rep = bm.check_bm_key_inequality(t, x, lam, spec)
            d = bm.dtilde_bm(t, x, lam, spec)
            for what, value, error, ref in (
                ("g_bm", g.value, g.error, expect_f_of_max(t, x, lam, f, fprime, kinks)),
                ("key rhs", rep.rhs, rep.quad_error_bound,
                 expect_f_of_max(t, x, -lam, f, fprime, kinks)),
                ("dtilde_bm", d.value, d.error, expect_f_after_max(t, x, lam, f, slope, kinks)),
            ):
                if not abs(value - ref) <= error <= 1e-7:
                    misses.append((what, t, x, lam, abs(value - ref), error))
        assert not misses


    def test_match_40_digit_reference(self):
        """g_bm, dtilde_bm and the key-inequality right side within 1e-12 of
        a 40-digit closed form on bm-verify's grid, where x > 0 with lam > 0
        makes (x v M) - B < x reachable.  The dtilde_bm reference reads the
        time-reversed law, which `test_claimed_error_bounds_hold` checks
        against the conditional law instead."""
        mp = pytest.importorskip("mpmath")
        misses = []
        with mp.workdps(40):
            for t, x, lam in itertools.product((0.5, 1.0), (0.0, 0.5, 1.0), (0.0, 0.5, 1.0)):
                for what, value, args in (
                    ("g_bm", bm.g_bm(t, x, lam, EXP1).value, (t, x, lam, 0.0)),
                    ("dtilde_bm", bm.dtilde_bm(t, x, lam, EXP1).value, (t, 0.0, -lam, x)),
                    ("key rhs", bm.check_bm_key_inequality(t, x, lam, EXP1).rhs,
                     (t, x, -lam, 0.0)),
                ):
                    err = abs(value - float(exp_decay_floor_max(mp, *args)))
                    if not err <= 1e-12:
                        misses.append((what, t, x, lam, err))
        assert not misses


class TestKeyInequality:
    def test_zero_start_is_equality(self):
        rep = bm.check_bm_key_inequality(1.0, 0.0, 0.8, EXP1)
        assert rep.strict_margin == 0.0  # identical integrands at x = 0
        assert rep.verdict == "equal_within_tolerance"

    def test_t_zero_is_equality(self):
        rep = bm.check_bm_key_inequality(0.0, 0.5, 0.8, EXP1)
        assert rep.lhs == rep.rhs

    def test_strict_for_positive_drift(self):
        rep = bm.check_bm_key_inequality(1.0, 0.6, 0.8, rewards.exp_decay_reward(2.0))
        assert rep.verdict == "strict"
        assert rep.strict_margin > 100 * rep.quad_error_bound

    def test_strict_at_zero_drift_for_nonlinear(self):
        rep = bm.check_bm_key_inequality(1.0, 0.6, 0.0, EXP1)
        assert rep.verdict == "strict"

    def test_linear_zero_drift_equality_within_bound(self):
        rep = bm.check_bm_key_inequality(1.0, 0.6, 0.0, LINEAR)
        assert rep.verdict == "equal_within_tolerance"


class TestExactSampler:
    def test_support_constraint(self):
        mb = bm.sample_max_endpoint(seed=1, t=1.0, lam=0.5, replications=50_000)
        assert (mb[:, 0] >= np.maximum(mb[:, 1], 0.0)).all()

    def test_max_cdf_zero_drift(self):
        reps = 100_000
        mb = bm.sample_max_endpoint(seed=2, t=1.0, lam=0.0, replications=reps)
        target = 2 * norm.cdf(1.0) - 1  # P(M_1 <= 1) ~ 0.6827
        phat = float(np.mean(mb[:, 0] <= 1.0))
        se = math.sqrt(target * (1 - target) / reps)
        assert abs(phat - target) < 4 * se

    def test_endpoint_mean_with_drift(self):
        reps = 100_000
        mb = bm.sample_max_endpoint(seed=3, t=1.0, lam=1.0, replications=reps)
        se = 1.0 / math.sqrt(reps)
        assert abs(float(np.mean(mb[:, 1])) - 1.0) < 4 * se

    def test_ecdf_matches_quadrature_cdf_dkw(self):
        """Sampler vs the law of the maximum, at a DKW-style band."""
        reps = 100_000
        t, lam = 1.0, 0.6
        mb = bm.sample_max_endpoint(seed=4, t=t, lam=lam, replications=reps)
        band = math.sqrt(math.log(2 / 1e-4) / (2 * reps))  # ~0.00704
        for m in (0.5, 1.0, 2.0):
            # the step integrand jumps at y = m, declared as a node
            cdf_quad = bm._expect_floor_max(
                lambda y: (y <= m).astype(float), (m,), t, lam, 0.0, 0.0
            )
            # independent closed-form oracle agrees with the quadrature route
            ref = max_cdf_drifted(m, t, lam)
            assert abs(cdf_quad.value - ref) < 1e-4
            assert abs(cdf_quad.value - ref) <= cdf_quad.error
            ecdf = float(np.mean(mb[:, 0] <= m))
            assert abs(ecdf - ref) < band
            assert abs(ecdf - cdf_quad.value) < band + 1e-4

    def test_jump_with_one_duration_per_row(self):
        """One `_jump` over rows of two durations: each group's ecdf of M_t
        lies within the DKW band of the closed-form law at its own t."""
        reps = 50_000
        lam = 0.6
        t = np.tile([0.25, 1.0], reps)
        m, _b = bm._jump(np.random.Generator(np.random.PCG64(5)), t, lam)
        band = math.sqrt(math.log(2 / 1e-4) / (2 * reps))  # ~0.00995
        for duration in (0.25, 1.0):
            group = m[t == duration]
            assert len(group) == reps
            for level in (0.25, 0.5, 1.0, 2.0):
                ecdf = float(np.mean(group <= level))
                assert abs(ecdf - max_cdf_drifted(level, duration, lam)) < band

    def test_determinism(self):
        a = bm.sample_max_endpoint(seed=9, t=1.0, lam=0.2, replications=1000)
        b = bm.sample_max_endpoint(seed=9, t=1.0, lam=0.2, replications=1000)
        assert (a == b).all()


class TestMcRules:
    def test_constant_reward_exact(self):
        const = rewards.custom_table_reward([0.0, 1.0], [0.625, 0.625])
        model = bm.BmModel(lam=0.3, T=1.0, mc=bm.McConfig(steps=50, replications=2000))
        for rule in (bm.BmRule("tau0"), bm.BmRule("drawdown_threshold", 0.5)):
            (est,) = bm.mc_bm_rule_values(1, model, const, [rule])
            assert est.estimate == 0.625
            assert est.stderr == 0.0

    def test_tau0_matches_quadrature(self):
        model = bm.BmModel(lam=-1.0, T=1.0, mc=bm.McConfig(replications=100_000))
        (est,) = bm.mc_bm_rule_values(7, model, EXP1, [bm.BmRule("tau0")])
        exact = bm.g_bm(1.0, 0.0, -1.0, EXP1)
        assert abs(est.estimate - exact.value) < 4 * est.stderr
        assert est.steps is None  # exact sampler, no discretization

    def test_tauT_matches_quadrature(self):
        model = bm.BmModel(lam=1.0, T=1.0, mc=bm.McConfig(replications=100_000))
        (est,) = bm.mc_bm_rule_values(8, model, EXP1, [bm.BmRule("tauT")])
        exact = bm.dtilde_bm(1.0, 0.0, 1.0, EXP1)
        assert abs(est.estimate - exact.value) < 4 * est.stderr

    def test_negative_drift_dominance_smoke(self):
        model = bm.BmModel(
            lam=-1.0, T=1.0, mc=bm.McConfig(steps=250, replications=20_000)
        )
        ests = bm.mc_bm_rule_values(
            11, model, EXP1, [bm.BmRule("tau0"), bm.BmRule("drawdown_threshold", 0.5)]
        )
        tau0, alt = ests
        assert tau0.estimate > alt.estimate - 4 * math.hypot(tau0.stderr, alt.stderr)

    def test_time_threshold_matches_unconditioned_expectation(self):
        """Stopping at fixed t0 under zero drift: E[f(M_T - B_t0)] has an
        independent Monte Carlo oracle from direct normal sampling."""
        t0_frac = 0.5
        model = bm.BmModel(lam=0.0, T=1.0, mc=bm.McConfig(steps=400, replications=50_000))
        (est,) = bm.mc_bm_rule_values(13, model, EXP1, [bm.BmRule("time_threshold", t0_frac)])
        rng = np.random.Generator(np.random.PCG64(99))
        n = 200_000
        b1 = rng.standard_normal(n) * math.sqrt(t0_frac)
        b2 = b1 + rng.standard_normal(n) * math.sqrt(1 - t0_frac)
        u1 = 1.0 - rng.random(n)
        u2 = 1.0 - rng.random(n)
        m1 = 0.5 * (b1 + np.sqrt(b1**2 - 2 * t0_frac * np.log(u1)))
        m2 = b1 + 0.5 * (
            (b2 - b1) + np.sqrt((b2 - b1) ** 2 - 2 * (1 - t0_frac) * np.log(u2))
        )
        vals = np.exp(-(np.maximum(m1, m2) - b1))
        oracle = float(vals.mean())
        oracle_se = float(vals.std() / math.sqrt(n))
        assert abs(est.estimate - oracle) < 4 * math.hypot(est.stderr, oracle_se)

    def test_rule_validation(self):
        valid = bm.BmRule("drawdown_threshold", 0.5)
        assert_refused(valid, "nonsense", None, match="unknown rule kind 'nonsense'")
        assert_refused(valid, "drawdown_threshold", None,
                       match="rule drawdown_threshold needs a parameter$")

    def test_rule_pickle_round_trip(self):
        rule = bm.BmRule("time_threshold", 0.25)
        back = pickle.loads(pickle.dumps(rule))
        assert back == rule and type(back) is bm.BmRule

    def test_model_validation(self):
        with pytest.raises(ValueError, match=r"horizon T = 0 is outside \(0, 7.42652e\+304\]"):
            bm.check_limits(bm.BmModel(lam=0.0, T=0.0), [bm.BmRule("tau0")])

    @pytest.mark.parametrize("T", [math.nan, math.inf])
    def test_model_rejects_non_finite_horizon(self, T):
        with pytest.raises(ValueError, match="horizon T"):
            bm.check_limits(bm.BmModel(lam=0.0, T=T), [bm.BmRule("tau0")])

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_model_rejects_non_finite_drift(self, lam, monkeypatch):
        """A non-finite drift is refused before any draw, with no warning."""
        monkeypatch.setattr(bm, "_chunks", None)  # any draw would fail
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"drift \|lam\| = (nan|inf) is outside"):
                bm.mc_bm_rule_values(1, bm.BmModel(lam=lam, T=1.0), EXP1, [bm.BmRule("tau0")])

    def test_infinite_drift_is_refused_at_the_smallest_horizon(self):
        """At T = 5e-324 sqrt(float max) / (2 T) is inf; the bound is capped,
        so lam = inf still fails while every finite lam passes."""
        T = 5e-324
        bm.check_limits(bm.BmModel(lam=1e308, T=T), [bm.BmRule("tau0")])
        with pytest.raises(ValueError, match=r"is outside \[0, 1.79769e\+308\]"):
            bm.check_limits(bm.BmModel(lam=math.inf, T=T), [bm.BmRule("tau0")])

    @pytest.mark.parametrize("rule", [
        bm.BmRule("tau0"), bm.BmRule("tauT"),
        bm.BmRule("drawdown_threshold", 0.5), bm.BmRule("time_threshold", 0.5),
    ], ids=lambda rule: rule.kind)
    def test_drift_beyond_max_drift_raises_before_sampling(self, rule, monkeypatch):
        """Before the check a time rule overflowed in `_jump`, tau0 returned
        0.0 and a drawdown rule warned about NaN.  Every rule has the one
        bound sqrt(float max) / (2 T)."""
        monkeypatch.setattr(bm, "_chunks", None)  # any draw would fail
        model = bm.BmModel(lam=1e300, T=1e10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"drift \|lam\| = 1e\+300 is outside "
                                                 r"\[0, 6.7039e\+143\], .* at T = 1e\+10$"):
                bm.mc_bm_rule_values(1, model, EXP1, [rule])

    def test_horizon_beyond_max_horizon_raises_for_that_rule(self, monkeypatch):
        """T = 1e306 lies beyond the one horizon bound, for a grid rule as for
        tau0: the message names the bound."""
        monkeypatch.setattr(bm, "_chunks", None)
        model = bm.BmModel(lam=0.0, T=1e306)
        for rules in ([bm.BmRule("time_threshold", 0.5)], [bm.BmRule("tau0")]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=r"^horizon T = 1e\+306 is outside "
                                                     r"\(0, 7.42652e\+304\]"):
                    bm.mc_bm_rule_values(1, model, EXP1, rules)

    @pytest.mark.parametrize("sign", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("T", [1.0, bm._MAX_SEGMENT], ids=["T1", "Tmax"])
    def test_corners_of_the_range_give_finite_estimates(self, T, sign):
        """At T = 1 and T = `_MAX_SEGMENT`, with lam at minus the bound, 0 and
        the bound, every rule kind gives a finite estimate and standard
        error under the reward linear in the drawdown, with no warning."""
        model = bm.BmModel(lam=sign * bm._SQRT_MAX / (2.0 * T), T=T,
                           mc=bm.McConfig(steps=10, replications=2000))
        rules = [bm.BmRule("tau0"), bm.BmRule("tauT"), bm.BmRule("drawdown_threshold", 0.0),
                 bm.BmRule("drawdown_threshold", 0.5 * math.sqrt(T)),
                 bm.BmRule("time_threshold", 0.45 * T)]  # five steps in, five to go
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ests = bm.mc_bm_rule_values(53, model, LINEAR, rules)
        for rule, est in zip(rules, ests):
            assert math.isfinite(est.estimate) and math.isfinite(est.stderr), rule.label()

    def test_step_count_beyond_float_range_raises_for_grid_rules(self):
        """`_max_horizon` and the grid step converted the step count to a
        float and raised OverflowError; tau0 draws one segment and passes."""
        model = bm.BmModel(lam=0.0, T=1.0, mc=bm.McConfig(steps=10**400))
        bm.check_limits(model, [bm.BmRule("tau0")])
        with pytest.raises(ValueError, match="the step count exceeds the float range "
                                             r"for drawdown_threshold\(0\) at 10{400} steps$"):
            bm.check_limits(model, [bm.BmRule("tau0"), bm.BmRule("drawdown_threshold", 0.0)])


class TestPathRules:
    """Grid rules step the drawdown of their own running rows; every stopped
    row is valued by one final exact draw of the rest of its path."""

    @pytest.mark.parametrize("lam", [-1.0, 0.0, 1.0])
    def test_drawdown_rules_match_the_fixed_grid_reference(self, lam):
        """Against the loop that steps every row to T, on another seed so the
        two estimates are independent: within 4 combined standard errors."""
        rules = [bm.BmRule("drawdown_threshold", a) for a in (0.0, 0.5, 1.0)]
        model = bm.BmModel(lam=lam, T=1.0, mc=bm.McConfig(steps=100, replications=40_000))
        ests = bm.mc_bm_rule_values(41, model, EXP1, rules)
        for rule, est, sample in zip(
            rules, ests, brownian_grid_reference(42, model, EXP1.array, rules)
        ):
            ref = McEstimate.from_sample(sample)
            assert abs(est.estimate - ref.estimate) < 4 * math.hypot(est.stderr, ref.stderr), (
                rule.label(), est, ref
            )

    def test_reference_is_the_fixed_grid_loop(self):
        """The reference reproduces, bit for bit, the `bm-mc` estimate that the
        fixed-grid loop reported (seed 6, lam -0.5, 100 steps, 5,000
        replications, drawdown 0.5)."""
        model = bm.BmModel(lam=-0.5, T=1.0, mc=bm.McConfig(steps=100, replications=5000))
        rule = bm.BmRule("drawdown_threshold", 0.5)
        (sample,) = brownian_grid_reference(6, model, EXP1.array, [rule])
        ref = McEstimate.from_sample(sample)
        assert (ref.estimate, ref.stderr) == (0.507117479148211, 0.0016939580896006576)

    @pytest.mark.parametrize("s", [0.25, 0.5])
    @pytest.mark.parametrize("lam", [-1.0, 1.0])
    def test_time_rule_matches_the_law_of_two_maxima(self, s, lam):
        """Stopped at s, M_T - B_s = max(X, Y) with X = M_s - B_s, which has the
        law of the max over s under drift -lam (time reversal), and Y the max
        of the rest of the path above B_s, over T - s under drift lam,
        independent of X.  E[exp(-max(X, Y))] = 1 - int_0^inf e^-m (1 -
        P(X <= m) P(Y <= m)) dm, by quad on the closed-form law of M_t."""
        model = bm.BmModel(lam=lam, T=1.0, mc=bm.McConfig(replications=100_000))
        (est,) = bm.mc_bm_rule_values(51, model, EXP1, [bm.BmRule("time_threshold", s)])
        tail, _err = integrate.quad(
            lambda m: math.exp(-m)
            * (1.0 - max_cdf_drifted(m, s, -lam) * max_cdf_drifted(m, 1.0 - s, lam)),
            0.0, 40.0, epsabs=1e-12, epsrel=1e-12, limit=200,
        )
        assert abs(est.estimate - (1.0 - tail)) < 4 * est.stderr

    def test_estimate_does_not_depend_on_the_rule_order(self):
        rules = [
            bm.BmRule("tau0"), bm.BmRule("drawdown_threshold", 0.5),
            bm.BmRule("time_threshold", 0.4), bm.BmRule("drawdown_threshold", 0.0),
        ]
        model = bm.BmModel(lam=0.3, T=1.0, mc=bm.McConfig(steps=50, replications=12_000))
        forward = bm.mc_bm_rule_values(52, model, EXP1, rules)
        assert bm.mc_bm_rule_values(52, model, EXP1, rules[::-1]) == forward[::-1]


class TestChunkLayout:
    """Chunk c of coupling.BLOCK rows reads stream c: every row's exact
    (M_T, B_T) draws, then each path rule's own draws, which start from
    that point."""

    REPS = 2 * coupling.BLOCK + 5_003
    RULES = [
        bm.BmRule("tau0"), bm.BmRule("tauT"),
        bm.BmRule("drawdown_threshold", 0.5), bm.BmRule("time_threshold", 0.4),
    ]

    def model(self):
        return bm.BmModel(lam=0.3, T=1.0, mc=bm.McConfig(steps=20, replications=self.REPS))

    def test_each_rule_alone_matches_the_joint_call(self):
        together = bm.mc_bm_rule_values(31, self.model(), EXP1, self.RULES)
        for rule, est in zip(self.RULES, together):
            assert bm.mc_bm_rule_values(31, self.model(), EXP1, [rule]) == [est], rule.label()

    @pytest.mark.parametrize("a", [0.3, 0.0])
    def test_drawdown_layout_replayed_in_plain_numpy(self, a):
        """The stream layout of a drawdown rule, replayed bit for bit without
        `brownian`: stream 0 reads one normal and one uniform per row for the
        exact pairs; then, per step, one normal N(lam dt, dt) and one uniform
        for each row still running, in row order; a row stops at the first
        step k < steps with drawdown >= a (a > 0) or <= sqrt(dt) / 2 (a = 0);
        then the stopped rows, in row order, read one normal and one uniform
        each for the maximum of the rest of their path over T - k dt."""
        seed, lam, steps, reps, T = 33, 0.4, 6, 50, 1.0
        dt = T / steps
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0,))))
        gen.standard_normal(reps), gen.random(reps)
        z, rest = np.zeros(reps), np.zeros(reps)
        running = np.ones(reps, dtype=bool)
        for k in range(1, steps + 1):
            idx = np.flatnonzero(running)
            x = gen.normal(lam * dt, math.sqrt(dt), len(idx))
            u = 1.0 - gen.random(len(idx))
            z[idx] = np.maximum(z[idx], 0.5 * (x + np.sqrt(x**2 - 2.0 * dt * np.log(u)))) - x
            if k < steps:
                hit = idx[(z[idx] >= a) if a > 0 else (z[idx] <= 0.5 * math.sqrt(dt))]
                rest[hit] = T - k * dt
                running[hit] = False
        done = np.flatnonzero(~running)
        assert 0 < len(done) < reps
        t = rest[done]
        x = lam * t + np.sqrt(t) * gen.standard_normal(len(done))
        u = 1.0 - gen.random(len(done))
        z[done] = np.maximum(z[done], 0.5 * (x + np.sqrt(x**2 - 2.0 * t * np.log(u))))
        model = bm.BmModel(lam=lam, T=T, mc=bm.McConfig(steps=steps, replications=reps))
        rule = bm.BmRule("drawdown_threshold", a)
        assert bm.mc_bm_rule_values(seed, model, EXP1, [rule]) == [
            McEstimate.from_sample(EXP1.array(z), steps)
        ]

    def test_exact_rules_read_sample_max_endpoint(self):
        tau0, tauT = bm.mc_bm_rule_values(31, self.model(), EXP1, self.RULES)[:2]
        mb = bm.sample_max_endpoint(31, 1.0, 0.3, self.REPS)
        assert mb.shape == (self.REPS, 2)
        assert tau0 == McEstimate.from_sample(EXP1.array(mb[:, 0]))
        assert tauT == McEstimate.from_sample(EXP1.array(mb[:, 0] - mb[:, 1]))

    def test_zero_replications_rejected(self):
        with pytest.raises(ValueError, match="at least one replication"):
            bm.sample_max_endpoint(1, 1.0, 0.0, 0)
        model = bm.BmModel(lam=0.0, T=1.0, mc=bm.McConfig(replications=0))
        with pytest.raises(ValueError, match="at least one replication"):
            bm.mc_bm_rule_values(1, model, EXP1, [bm.BmRule("tau0")])

    def test_whole_chunks_do_not_depend_on_later_rows(self):
        full = bm.sample_max_endpoint(32, 1.0, 0.0, self.REPS)
        for k in (coupling.BLOCK, 2 * coupling.BLOCK):
            assert (bm.sample_max_endpoint(32, 1.0, 0.0, k) == full[:k]).all()
        # chunk 1 opens a new stream rather than repeating chunk 0's rows
        assert (full[coupling.BLOCK : coupling.BLOCK + 3] != full[:3]).any()
