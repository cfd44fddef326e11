import math
import warnings

import mpmath
import numpy as np
import pytest

from aldlab import (
    BoundInputs,
    BoundsError,
    bcomp_bound,
    bresp_upper,
    component_init_kl,
    error_budget,
    horizon,
    init_kl_bound,
    kd_constant,
    ratio_p_moment,
    score_fourth_moment,
    tilted_params,
    weight_kl,
)
from aldlab import bounds


def simple_inputs(**kw):
    base = dict(
        weights=[1.0],
        weights_tilde=[1.0],
        sigma=[[1.0]],
        dsigma=[[0.0]],
        dmeans=[[0.0]],
        lambdas=[1.0],
        gammas=[1.0],
    )
    base.update(kw)
    return BoundInputs(**base)


def random_perturbed_inputs(rng, d=3, k=2, band=0.08, dm_scale=0.15):
    """Random instance whose variance ratios stay inside the +-8 moment band."""
    w = rng.uniform(0.2, 1.0, size=k)
    w = w / w.sum()
    sigma = rng.uniform(0.5, 2.0, size=(k, d))
    lam = rng.uniform(0.5, 2.0, size=d)
    gam = rng.uniform(0.2, 1.5, size=d)
    v0 = sigma  # annealed variances are smallest at fraction 0
    dsigma = rng.uniform(-band, band, size=(k, d)) * v0
    dmeans = rng.normal(scale=dm_scale, size=(k, d))
    means = rng.uniform(-1.5, 1.5, size=(k, d))
    return BoundInputs(
        weights=w, weights_tilde=w, sigma=sigma, dsigma=dsigma, dmeans=dmeans,
        lambdas=lam, gammas=gam, means=means,
    )


def annealed(inp, kappa):
    """``(v, v_tilde)`` at one fraction, each (K, d)."""
    v, vt = inp._annealed((kappa,))
    return v[0], vt[0]


class TestKdConstant:
    def test_single_term(self):
        assert kd_constant(simple_inputs()) == pytest.approx(math.log(2.0) / 16.0)
        assert kd_constant(simple_inputs()) == pytest.approx(0.0433217, abs=5e-8)

    def test_vanishing_smoothing(self):
        inp = simple_inputs(lambdas=[1e-12])
        assert kd_constant(inp) == pytest.approx(0.0, abs=1e-10)

    def test_fig2_green_partial_sums_vs_mpmath(self):
        # independent arbitrary-precision partial sums of the same series
        taus = (1.2, 2.0)
        w = (0.75, 0.25)

        def mp_kd(d):
            with mpmath.workdps(50):
                total = mpmath.mpf(0)
                for wi, tau in zip(w, taus):
                    for j in range(1, d + 1):
                        lam = 40 * mpmath.mpf(j) ** mpmath.mpf(-2.7)
                        gam = mpmath.mpf(j) ** mpmath.mpf(-1.5)
                        sig = tau * mpmath.mpf(j) ** mpmath.mpf(-1.25)
                        total += wi * (lam / gam) * mpmath.log(1 + lam / sig)
                return float(total / 16)

        def inputs(d):
            js = np.arange(1, d + 1, dtype=float)
            return BoundInputs(
                weights=w,
                weights_tilde=w,
                sigma=np.vstack([1.2 * js**-1.25, 2.0 * js**-1.25]),
                dsigma=np.zeros((2, d)),
                dmeans=np.zeros((2, d)),
                lambdas=40.0 * js**-2.7,
                gammas=js**-1.5,
            )

        k5 = kd_constant(inputs(5))
        k65 = kd_constant(inputs(65))
        assert k5 == pytest.approx(mp_kd(5), rel=1e-12)
        assert k65 == pytest.approx(mp_kd(65), rel=1e-12)
        assert k65 - k5 == pytest.approx(mp_kd(65) - mp_kd(5), rel=1e-9)
        assert k65 > k5  # nondecreasing in d


class TestHorizon:
    def test_zero(self):
        assert horizon(0.0, 0.3) == 0.0

    def test_division(self):
        assert horizon(0.0433217, 0.1) == pytest.approx(0.433217)

    def test_prescribed_accuracy(self):
        assert horizon(1.0, 0.3) == pytest.approx(1.0 / 0.3)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(BoundsError):
            horizon(1.0, 0.0)


class TestWeightKl:
    def test_equal_weights(self):
        assert weight_kl([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_swapped_weights_value(self):
        # 0.75 ln(7.5) + 0.25 ln(0.25/0.9), checked in 50-digit arithmetic
        with mpmath.workdps(50):
            expected = float(
                mpmath.mpf("0.75") * mpmath.log(mpmath.mpf("7.5"))
                + mpmath.mpf("0.25") * mpmath.log(mpmath.mpf("0.25") / mpmath.mpf("0.9"))
            )
        got = weight_kl([0.75, 0.25], [0.1, 0.9])
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(1.190943, abs=1e-6)

    def test_singleton(self):
        assert weight_kl([1.0], [1.0]) == 0.0


class TestComponentInitKl:
    def test_zero_perturbation(self):
        assert component_init_kl(simple_inputs(), 0) == 0.0

    def test_mean_shift(self):
        inp = simple_inputs(dmeans=[[2.0]])
        assert component_init_kl(inp, 0) == pytest.approx(1.0)

    def test_variance_doubling_vs_quadrature(self):
        # KL(N(0,1) || N(0,2)) by direct numerical integration
        inp = simple_inputs(lambdas=[1e-300], dsigma=[[1.0]])
        got = component_init_kl(inp, 0)
        assert got == pytest.approx(0.5 * (math.log(2.0) - 0.5), rel=1e-10)
        assert got == pytest.approx(0.096574, abs=5e-7)
        xs = np.linspace(-12, 12, 20001)

        def logn(x, v):
            return -0.5 * (x * x / v + math.log(2 * math.pi * v))

        p = np.exp([logn(x, 1.0) for x in xs])
        integrand = p * (np.array([logn(x, 1.0) for x in xs]) - np.array([logn(x, 2.0) for x in xs]))
        quad = float(np.trapezoid(integrand, xs))
        assert got == pytest.approx(quad, abs=1e-6)

    def test_evaluated_at_full_smoothing_fraction(self):
        # KL(N(0, 1.5 + 2) || N(0, 1.5 + 0.5 + 2)): the smoothing enters at fraction 1
        inp = simple_inputs(sigma=[[1.5]], dsigma=[[0.5]], lambdas=[2.0])
        assert component_init_kl(inp, 0) == pytest.approx(0.5 * (math.log(4.0 / 3.5) - 0.5 / 4.0))


class TestInitKlBound:
    def test_zero_perturbation(self):
        inp = BoundInputs(
            weights=[0.75, 0.25], weights_tilde=[0.75, 0.25],
            sigma=[[1.0], [2.0]], dsigma=[[0.0], [0.0]], dmeans=[[0.0], [0.0]],
            lambdas=[1.0], gammas=[1.0],
        )
        assert init_kl_bound(inp) == 0.0

    def test_weight_only_equals_weight_kl(self):
        inp = BoundInputs(
            weights=[0.75, 0.25], weights_tilde=[0.1, 0.9],
            sigma=[[1.0, 0.25], [1.0, 0.25]], dsigma=np.zeros((2, 2)), dmeans=np.zeros((2, 2)),
            lambdas=[40.0, 2.5], gammas=[1.0, 0.5],
        )
        assert init_kl_bound(inp) == pytest.approx(weight_kl([0.75, 0.25], [0.1, 0.9]))
        assert init_kl_bound(inp) == pytest.approx(1.190943, abs=1e-6)

    def test_singleton_reduces_to_component_term(self):
        inp = simple_inputs(dmeans=[[2.0]])
        assert init_kl_bound(inp) == pytest.approx(component_init_kl(inp, 0))


class TestBcompBound:
    def test_zero_perturbation(self):
        assert bcomp_bound(simple_inputs(), 0.5) == 0.0

    def test_single_coordinate_value(self):
        inp = simple_inputs(dmeans=[[1.0]])
        assert bcomp_bound(inp, 0.0) == pytest.approx(2.0)

    def test_components_enter_by_weight(self):
        # a unit mean shift on the 0.9 component only: 2 * 0.9 * 1
        inp = BoundInputs(weights=[0.9, 0.1], weights_tilde=[0.9, 0.1], sigma=[[1.0], [1.0]],
                          dsigma=[[0.0], [0.0]], dmeans=[[1.0], [0.0]], lambdas=[1.0],
                          gammas=[1.0])
        assert bcomp_bound(inp, 0.0) == pytest.approx(1.8)

    def test_monte_carlo_dominance(self, rng):
        # LHS: E_rho || Gamma^{1/2} sum_i p_i (S~_i - S_i) ||^2
        for trial in range(3):
            inp = random_perturbed_inputs(rng, d=3, k=2)
            lhs = _mc_component_lhs(inp, 0.5, rng, n=200_000)
            assert bcomp_bound(inp, 0.5) >= lhs * 0.97  # 3 sigma MC slack

    def test_nonnegative_and_monotone_in_d(self, rng):
        inp = random_perturbed_inputs(rng, d=4)
        js = slice(0, 3)
        smaller = BoundInputs(
            weights=inp.weights, weights_tilde=inp.weights_tilde,
            sigma=inp.sigma[:, :3], dsigma=inp.dsigma[:, :3], dmeans=inp.dmeans[:, :3],
            lambdas=inp.lambdas[:3], gammas=inp.gammas[:3], means=inp.means[:, :3],
        )
        assert 0.0 <= bcomp_bound(smaller, 0.5) <= bcomp_bound(inp, 0.5)


def _mixture_from_inputs(inp, kappa, perturbed):
    from aldlab import DiagGMM

    means = inp.means + (inp.dmeans if perturbed else 0.0)
    var = annealed(inp, kappa)[1 if perturbed else 0]
    w = inp.weights_tilde if perturbed else inp.weights
    return DiagGMM(weights=w, means=means, variances=var)


def _mc_component_lhs(inp, kappa, rng, n=100_000):
    v, vt = annealed(inp, kappa)
    rho = _mixture_from_inputs(inp, kappa, perturbed=False)
    X = rho.sample(n, rng)
    p = rho.responsibilities(X)
    means_t = inp.means + inp.dmeans
    acc = np.zeros((n, inp.dim))
    for i in range(inp.n_components):
        s_tilde = -(X - means_t[i]) / vt[i]
        s = -(X - inp.means[i]) / v[i]
        acc += p[:, [i]] * (s_tilde - s)
    val = np.sum(inp.gammas * acc * acc, axis=1)
    return float(np.mean(val))


def _mc_responsibility_lhs(inp, kappa, rng, n=100_000):
    vt = annealed(inp, kappa)[1]
    rho = _mixture_from_inputs(inp, kappa, perturbed=False)
    rho_t = _mixture_from_inputs(inp, kappa, perturbed=True)
    X = rho.sample(n, rng)
    p = rho.responsibilities(X)
    pt = rho_t.responsibilities(X)
    means_t = inp.means + inp.dmeans
    acc = np.zeros((n, inp.dim))
    for i in range(inp.n_components):
        s_tilde = -(X - means_t[i]) / vt[i]
        acc += (pt[:, [i]] - p[:, [i]]) * s_tilde
    val = np.sum(inp.gammas * acc * acc, axis=1)
    return float(np.mean(val))


class TestRatioPMoment:
    def test_p_one_and_zero(self, rng):
        for _ in range(10):
            v = float(rng.uniform(0.2, 3.0))
            vt = float(rng.uniform(0.6 * v, 2.0 * v))
            dm = float(rng.normal())
            assert ratio_p_moment(1.0, v, vt, dm) == pytest.approx(1.0)
            assert ratio_p_moment(0.0, v, vt, dm) == pytest.approx(1.0)

    def test_p2_value_vs_dedicated_expression(self):
        # dedicated second-moment expression written independently
        v, vt, dm = 1.0, 1.2, 0.3
        kappa = vt / v
        dedicated = (kappa / math.sqrt(2 * kappa - 1)) * math.exp(dm * dm / (2 * vt - v))
        assert ratio_p_moment(2.0, v, vt, dm) == pytest.approx(dedicated, rel=1e-15)

    def test_p2_monte_carlo(self, rng):
        v, vt, dm = 1.0, 1.2, 0.3
        z = rng.standard_normal(1_000_000)
        x = math.sqrt(vt) * z  # under the perturbed density, mean mt
        # r = phi(x)/phi_tilde(x) with m = mt - dm
        log_r = (
            -0.5 * ((x + dm) ** 2) / v
            + 0.5 * (x**2) / vt
            + 0.5 * math.log(vt / v)
        )
        r2 = np.exp(2 * log_r)
        got = ratio_p_moment(2.0, v, vt, dm)
        se = float(np.std(r2)) / 1000.0
        assert abs(float(np.mean(r2)) - got) < 3 * se

    def test_boundary_flip(self):
        v = 1.0
        assert math.isinf(ratio_p_moment(2.0, v, 0.5 * v, 0.0))
        assert math.isinf(ratio_p_moment(2.0, v, 0.5 * v - 1e-9 / 2, 0.0))
        assert math.isfinite(ratio_p_moment(2.0, v, 0.5 * v + 1e-9 / 2, 0.0))

    def test_negative_p_band(self):
        # p = -8 diverges once vt/v >= 9/8
        assert math.isfinite(ratio_p_moment(-8.0, 1.0, 9.0 / 8.0 - 1e-9, 0.0))
        assert math.isinf(ratio_p_moment(-8.0, 1.0, 9.0 / 8.0 + 1e-9, 0.0))


class TestTiltedParams:
    def test_trivial_tilt(self):
        m, v = 0.7, 1.3
        assert tilted_params(5.0, m, m, v, v) == pytest.approx((m, v))

    def test_direct_substitution(self):
        mean, var = tilted_params(2.0, 0.0, 1.0, 1.0, 2.0)
        assert var == pytest.approx(2.0 / 3.0)
        assert mean == pytest.approx(-1.0 / 3.0)

    def test_rejects_nonnormalizable(self):
        with pytest.raises(BoundsError):
            tilted_params(2.0, 0.0, 0.0, 1.0, 0.5)

    def test_importance_sampling_oracle(self, rng):
        p, m, mt, v, vt = 3.0, 0.2, 0.5, 1.0, 1.1
        x = mt + math.sqrt(vt) * rng.standard_normal(1_000_000)
        log_r = (
            -0.5 * ((x - m) ** 2) / v + 0.5 * ((x - mt) ** 2) / vt + 0.5 * math.log(vt / v)
        )
        wts = np.exp(p * log_r)
        wts /= wts.sum()
        est_mean = float(np.sum(wts * x))
        est_var = float(np.sum(wts * (x - est_mean) ** 2))
        mean, var = tilted_params(p, m, mt, v, vt)
        assert est_mean == pytest.approx(mean, abs=0.01)
        assert est_var == pytest.approx(var, rel=0.02)


class TestScoreFourthMoment:
    def test_one_dimensional_gaussian(self):
        assert score_fourth_moment([1.0], [1.0]) == pytest.approx(3.0)

    def test_two_dimensional_arithmetic(self):
        assert score_fourth_moment([1.0, 1.0], [1.0, 2.0]) == pytest.approx(4.75)

    def test_monte_carlo(self, rng):
        gam = np.array([0.5, 1.0, 2.0])
        vt = np.array([1.0, 0.5, 2.0])
        z = rng.standard_normal((1_000_000, 3)) * np.sqrt(vt)
        norm2 = np.sum(gam * (z / vt) ** 2, axis=1)
        vals = norm2**2
        se = float(np.std(vals)) / 1000.0
        assert abs(float(np.mean(vals)) - score_fourth_moment(gam, vt)) < 3 * se


def tilted_fourth(p, inp, kappa, i):
    """``bounds._tilted_fourth`` of component i at one fraction."""
    v, vt = inp._annealed((kappa,))
    return float(bounds._tilted_fourth(p, inp.gammas, v, vt, inp.dmeans)[0, i])


class TestTiltedScoreFourthBound:
    def test_reduces_to_fourth_moment_plus_slack(self):
        inp = simple_inputs(sigma=[[1.0, 2.0]], dsigma=[[0.0, 0.0]], dmeans=[[0.0, 0.0]],
                            lambdas=[1.0, 1.0], gammas=[1.0, 0.5])
        vt = annealed(inp, 0.0)[1][0]
        expected = score_fourth_moment(inp.gammas, vt) + float(np.sum((inp.gammas / vt) ** 2))
        assert tilted_fourth(8.0, inp, 0.0, 0) == pytest.approx(expected)

    def test_one_dimensional_expansion(self):
        inp = simple_inputs(dsigma=[[0.1]], dmeans=[[0.2]])
        p = 2.0
        v, vt, dm, gam = 1.0, 1.1, 0.2, 1.0
        kap = vt / v
        disc = p * kap - (p - 1)
        lin = gam * (1.0 / (disc * vt) + (p * kap / disc) ** 2 * dm**2 / vt**2)
        quad = gam**2 * (
            3.0 / (disc**2 * vt**2)
            + 6.0 * p**2 * kap**2 * dm**2 / (disc**3 * vt**3)
            + p**4 * kap**4 * dm**4 / (disc**4 * vt**4)
        )
        assert tilted_fourth(p, inp, 0.0, 0) == pytest.approx(lin**2 + quad)

    def test_band_violation_flags_infinity(self):
        inp = simple_inputs(dsigma=[[-0.2]])  # ratio 0.8 < 7/8 at fraction 0
        assert math.isinf(tilted_fourth(8.0, inp, 0.0, 0))

    def test_dominates_importance_weighted_moment(self, rng):
        inp = random_perturbed_inputs(rng, d=2, k=1, band=0.05, dm_scale=0.1)
        p = 8.0
        v, vt = (a[0] for a in annealed(inp, 0.0))  # component 0
        dm = inp.dmeans[0]
        x = np.sqrt(vt) * rng.standard_normal((1_000_000, 2))
        log_r = (-0.5 * (x + dm) ** 2 / v + 0.5 * x**2 / vt + 0.5 * np.log(vt / v)).sum(axis=1)
        wts = np.exp(p * log_r)
        wts /= wts.sum()
        norm2 = np.sum(inp.gammas * (x / vt) ** 2, axis=1)
        mc = float(np.sum(wts * norm2**2))
        assert tilted_fourth(p, inp, 0.0, 0) >= 0.95 * mc


def delta1(inp, kappa):
    """``bounds._delta1`` at power 3 and one fraction."""
    return float(bounds._delta1(inp, *inp._annealed((kappa,)), 3.0)[0])


def r2(inp, kappa):
    """``bounds._r2`` at one fraction."""
    return float(bounds._r2(inp, *inp._annealed((kappa,)))[0])


class TestDelta1Bound:
    def test_zero_weight_perturbation(self, rng):
        inp = random_perturbed_inputs(rng)
        assert delta1(inp, 0.5) == 0.0

    def test_singleton(self):
        assert delta1(simple_inputs(), 1.0) == 0.0

    def test_cross_component_summation_oracle(self):
        d, k = 2, 2
        w = np.array([0.75, 0.25])
        wt = np.array([0.6, 0.4])
        sigma = np.array([[1.0, 0.5], [2.0, 0.7]])
        dsig = np.array([[0.05, 0.02], [-0.03, 0.01]])
        dm = np.array([[0.1, -0.2], [0.0, 0.3]])
        means = np.array([[0.0, 0.0], [3.0, 1.0]])
        lam = np.array([0.8, 0.4])
        gam = np.array([1.0, 0.5])
        kappa = 0.5
        inp = BoundInputs(weights=w, weights_tilde=wt, sigma=sigma, dsigma=dsig,
                          dmeans=dm, lambdas=lam, gammas=gam, means=means)
        factor = sum((wt[i] - w[i]) ** 2 / wt[i] ** 3 for i in range(k))
        c1 = 0.0
        for ell in range(k):
            for i in range(k):
                for h in range(d):
                    v_ell = sigma[ell, h] + kappa * lam[h]
                    vt_i = sigma[i, h] + dsig[i, h] + kappa * lam[h]
                    gap = means[ell, h] - (means[i, h] + dm[i, h])
                    c1 += w[ell] * wt[i] * gam[h] * (v_ell + gap * gap) / vt_i**2
        assert delta1(inp, kappa) == pytest.approx(factor * c1, rel=1e-12)


class TestR2MixtureBound:
    def test_zero_perturbation_is_one(self, rng):
        inp = random_perturbed_inputs(rng, band=0.0, dm_scale=0.0)
        assert r2(inp, 0.5) == pytest.approx(1.0)

    def test_half_variance_is_infinite(self):
        inp = simple_inputs(dsigma=[[-0.5]])
        assert math.isinf(r2(inp, 0.0))

    def test_monte_carlo_density_ratio(self, rng):
        inp = random_perturbed_inputs(rng, d=2, k=2, band=0.06, dm_scale=0.1)
        rho = _mixture_from_inputs(inp, 0.5, perturbed=False)
        rho_t = _mixture_from_inputs(inp, 0.5, perturbed=True)
        X = rho_t.sample(1_000_000, rng)
        log_r = rho.log_density(X) - rho_t.log_density(X)
        vals = np.exp(2 * log_r)
        mc = float(np.mean(vals))
        bound = r2(inp, 0.5)
        se = float(np.std(vals)) / 1000.0
        assert bound >= mc - 3 * se


class TestBrespUpper:
    def test_zero_perturbation_shortcut(self, rng):
        inp = random_perturbed_inputs(rng, band=0.0, dm_scale=0.0)
        res = bresp_upper(inp, 0.5)
        assert res.exact_zero
        assert res.value == 0.0
        assert math.isfinite(res.envelope) and res.envelope > 0.0

    def test_band_violation_infinite(self):
        inp = simple_inputs(dsigma=[[-0.2]])  # ratio 0.8 at fraction 0
        res = bresp_upper(inp, 0.0)
        assert not res.band_ok
        assert math.isinf(res.envelope)

    def test_monte_carlo_dominance(self, rng):
        for _ in range(3):
            inp = random_perturbed_inputs(rng, d=3, k=2, band=0.06, dm_scale=0.1)
            lhs = _mc_responsibility_lhs(inp, 0.5, rng, n=200_000)
            res = bresp_upper(inp, 0.5)
            assert res.value >= lhs


class TestErrorBudget:
    def _inputs(self, rng, **kw):
        return random_perturbed_inputs(rng, **kw)

    def test_zero_perturbation_lines(self, rng):
        inp = random_perturbed_inputs(rng, band=0.0, dm_scale=0.0)
        budget = error_budget(inp, t_horizon=10.0, grid_size=64)
        assert budget.e_init == 0.0
        assert budget.e_score_comp == 0.0
        assert budget.e_score_resp == 0.0
        assert budget.e_score_resp_envelope > 0.0
        assert budget.e_bias == pytest.approx(2.0 * kd_constant(inp) / 10.0)
        assert budget.total() == pytest.approx(budget.e_bias)

    def test_monotone_in_perturbation(self, rng):
        base = random_perturbed_inputs(rng, band=0.03, dm_scale=0.05)
        bigger = BoundInputs(
            weights=base.weights, weights_tilde=base.weights_tilde,
            sigma=base.sigma, dsigma=2 * base.dsigma, dmeans=2 * base.dmeans,
            lambdas=base.lambdas, gammas=base.gammas, means=base.means,
        )
        a = error_budget(base, 5.0, grid_size=64)
        b = error_budget(bigger, 5.0, grid_size=64)
        assert b.e_score_comp >= a.e_score_comp
        assert b.e_init >= a.e_init

    def test_separate_init_inputs(self, rng):
        score_in = random_perturbed_inputs(rng, band=0.05, dm_scale=0.0)
        k = score_in.n_components
        w = np.asarray(score_in.weights)
        wt = np.roll(w, 1)
        init_in = BoundInputs(
            weights=w, weights_tilde=wt, sigma=score_in.sigma,
            dsigma=np.zeros_like(score_in.sigma), dmeans=np.zeros_like(score_in.sigma),
            lambdas=score_in.lambdas, gammas=score_in.gammas, means=score_in.means,
        )
        budget = error_budget(score_in, 5.0, grid_size=32, init_inputs=init_in)
        assert budget.e_init == pytest.approx(weight_kl(w, wt))


class TestGridKernel:
    """``_budget_grid`` evaluates every fraction at once; each row is the single-fraction call."""

    def _weight_perturbed(self, rng):
        inp = random_perturbed_inputs(rng, d=4, k=3)
        wt = 0.8 * inp.weights + 0.2 * np.roll(inp.weights, 1)
        return BoundInputs(
            weights=inp.weights, weights_tilde=wt / wt.sum(), sigma=inp.sigma, dsigma=inp.dsigma,
            dmeans=inp.dmeans, lambdas=inp.lambdas, gammas=inp.gammas, means=inp.means,
        )

    @pytest.mark.parametrize("elems", [1, 100, bounds._GRID_ELEMS])
    def test_rows_equal_single_fraction_calls(self, rng, monkeypatch, elems):
        inp = self._weight_perturbed(rng)
        kappas = np.linspace(0.0, 1.0, 37)
        monkeypatch.setattr(bounds, "_GRID_ELEMS", elems)  # one fraction, several, all per block
        comp, resp, env = bounds._budget_grid(inp, kappas)
        for g, kap in enumerate(kappas):
            b = bresp_upper(inp, kap)
            assert b.weight_term > 0.0 and math.isfinite(b.envelope)
            assert comp[g] == bcomp_bound(inp, kap)
            assert resp[g] == b.value
            assert env[g] == b.envelope

    def test_band_edge_gives_inf_exactly_out_of_band(self):
        # ratio (1.2 + kappa) / (1 + kappa) falls through 9/8 at kappa = 0.6
        inp = simple_inputs(sigma=[[1.0, 2.0]], dsigma=[[0.2, 0.1]], dmeans=[[0.0, 0.1]],
                            lambdas=[1.0, 0.5], gammas=[1.0, 0.5])
        kappas = np.linspace(0.0, 1.0, 101)
        sig, dsig, lam = inp.sigma[0], inp.dsigma[0], inp.lambdas
        ratio = np.array([(sig + dsig + k * lam) / (sig + k * lam) for k in kappas])
        in_band = np.all((ratio > 7.0 / 8.0) & (ratio < 9.0 / 8.0), axis=1)
        assert in_band.any() and not in_band.all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            comp, resp, env = bounds._budget_grid(inp, kappas)
        np.testing.assert_array_equal(np.isinf(env), ~in_band)
        np.testing.assert_array_equal(resp, env)
        assert np.all(np.isfinite(comp))
        for kap, ok in zip(kappas, in_band):
            assert bresp_upper(inp, kap).band_ok == ok

    def test_overflowing_exp_is_inf_not_nan(self):
        # in band, but the p = 8 log moment is 8 * 7 * 100 / 2 = 2800: exp overflows
        inp = simple_inputs(dmeans=[[10.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isinf(ratio_p_moment(8.0, 1.0, 1.0, 10.0))
            comp, resp, env = bounds._budget_grid(inp, np.linspace(0.0, 1.0, 9))
            b = bresp_upper(inp, 0.0)
            budget = error_budget(inp, 1.0, grid_size=9)
        assert b.band_ok and math.isfinite(r2(inp, 0.0))
        assert math.isinf(b.phi_term) and math.isinf(b.envelope)
        assert np.all(np.isinf(env)) and not np.any(np.isnan(env))
        assert np.all(np.isfinite(comp))
        assert math.isinf(budget.e_score_resp) and math.isfinite(budget.e_score_comp)


class TestSingleGaussianBudget:
    """K = 1 with only a mean shift: the component-score line has a closed-form integral."""

    def test_bcomp_integral_matches_closed_form_at_d65(self):
        # fig2 green spectra, first component: sigma_j = 1.2 j^-1.25, lambda_j = 40 j^-2.7, gamma_j = j^-1.5
        d, t_horizon, grid = 65, 7.0, 512
        js = np.arange(1, d + 1, dtype=float)
        sig = 1.2 * js**-1.25
        lam = 40.0 * js**-2.7
        gam = js**-1.5
        dm = 0.3 * js**-0.5
        inp = BoundInputs(weights=[1.0], weights_tilde=[1.0], sigma=[sig], dsigma=np.zeros((1, d)),
                          dmeans=[dm], lambdas=lam, gammas=gam)
        budget = error_budget(inp, t_horizon, grid_size=grid)
        # bcomp(kappa) = 2 sum_j gamma_j dm_j^2 / (sigma_j + kappa lambda_j)^2
        exact = 2.0 * float(np.sum(gam * dm**2 / (sig * (sig + lam))))
        # trapezoid error: h^2/12 (f'(1) - f'(0)) + O(h^4); f is convex, so the rule overshoots
        h = 1.0 / (grid - 1)

        def fprime(kap):
            return float(np.sum(-4.0 * gam * dm**2 * lam / (sig + kap * lam) ** 3))

        correction = h * h / 12.0 * (fprime(1.0) - fprime(0.0))
        got = budget.e_score_comp / t_horizon
        assert got > exact
        assert got - exact == pytest.approx(correction, rel=1e-3)
        assert got == pytest.approx(exact, rel=1e-3)

    def test_single_component_runs_through_error_budget(self):
        d = 5
        js = np.arange(1, d + 1, dtype=float)
        inp = BoundInputs(weights=[1.0], weights_tilde=[1.0], sigma=[js**-1.0],
                          dsigma=[0.02 * js**-1.0], dmeans=[0.1 * js**-1.0],
                          lambdas=2.0 * js**-2.0, gammas=js**-1.5)
        budget = error_budget(inp, 3.0, grid_size=64)
        for line in (budget.e_init, budget.e_score_comp, budget.e_score_resp, budget.e_bias):
            assert math.isfinite(line) and line > 0.0
        assert budget.e_init == pytest.approx(component_init_kl(inp, 0))
        assert budget.e_score_resp == budget.e_score_resp_envelope


class TestBoundInputsValidation:
    def test_rejects_bad_simplex(self):
        with pytest.raises(BoundsError):
            simple_inputs(weights=[0.5])

    @pytest.mark.parametrize("key", ["weights", "weights_tilde"])
    def test_rejects_nan_weight(self, key):
        # NaN passed both the positivity and the sum check
        two = dict(weights=[0.5, 0.5], weights_tilde=[0.5, 0.5], sigma=[[1.0], [1.0]],
                   dsigma=[[0.0], [0.0]], dmeans=[[0.0], [0.0]])
        with pytest.raises(BoundsError, match=f"^{key} must be strictly positive"):
            simple_inputs(**dict(two, **{key: [float("nan"), 0.5]}))

    def test_rejects_nonpositive_perturbed_variance(self):
        with pytest.raises(BoundsError):
            simple_inputs(dsigma=[[-1.0]])

    def test_rejects_bad_kappa(self):
        # the fraction is an argument of the single-fraction bounds, range-checked there
        inp = simple_inputs()
        for kappa in (-0.1, 1.5, float("nan")):
            with pytest.raises(BoundsError, match="kappa must lie in"):
                bcomp_bound(inp, kappa)
            with pytest.raises(BoundsError, match="kappa must lie in"):
                bresp_upper(inp, kappa)
        with pytest.raises(TypeError):
            simple_inputs(kappa=0.5)  # the inputs carry no fraction

    def test_variance_ratio_property(self):
        # v_tilde / v = (sigma + dsigma + kappa lambda) / (sigma + kappa lambda)
        inp = simple_inputs(dsigma=[[0.5]])
        v, vt = inp._annealed((0.0, 1.0))
        np.testing.assert_allclose((vt / v)[:, 0, 0], [1.5, 1.25])
