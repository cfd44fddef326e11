import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aldlab import (
    DiagGMM,
    MixtureError,
    MixturePerturbation,
    PowerLaw,
    apply_perturbation,
    build_truncated_mixture,
    smooth,
)
from aldlab.mixture import _kernel_inputs, mixture_score, score_step
from conftest import fig2_target, fig3_target, random_mixture

NAN, INF = float("nan"), float("inf")


def component_log_densities(gmm, x):
    """Per-component log densities of one point, each a one-component mixture's."""
    return np.array(
        [
            DiagGMM(weights=(1.0,), means=m[None, :], variances=v[None, :]).log_density(x)
            for m, v in zip(gmm.means, gmm.variances)
        ]
    )


def mp_log_density(gmm, x):
    """Independent arbitrary-precision mixture log density."""
    with mpmath.workdps(60):
        total = mpmath.mpf(0)
        for w, m, v in zip(gmm.weights, gmm.means, gmm.variances):
            term = mpmath.mpf(float(w))
            for xj, mj, vj in zip(x, m, v):
                vj = mpmath.mpf(float(vj))
                term *= mpmath.exp(-((mpmath.mpf(float(xj)) - mpmath.mpf(float(mj))) ** 2) / (2 * vj))
                term /= mpmath.sqrt(2 * mpmath.pi * vj)
            total += term
        return float(mpmath.log(total))


class TestBuildTruncatedMixture:
    def test_two_component_power_law(self):
        g = build_truncated_mixture(
            (0.75, 0.25),
            (0.0, 10.0),
            PowerLaw(1.0, 2.0),
            3,
            var_scales=(1.2, 2.0),
        )
        np.testing.assert_allclose(g.means[1], [10.0, 0.0, 0.0])
        np.testing.assert_allclose(g.variances[0], [1.2, 0.3, 1.2 / 9.0])
        np.testing.assert_allclose(g.variances[1], [2.0, 0.5, 2.0 / 9.0])

    def test_single_standard_gaussian(self):
        g = build_truncated_mixture((1.0,), (0.0,), PowerLaw(1.0), 1)
        assert g.dim == 1 and g.n_components == 1
        assert g.log_density(np.zeros(1)) == pytest.approx(-0.5 * math.log(2 * math.pi))

    def test_truncation_consistency(self):
        g5 = fig2_target(5)
        g3 = fig2_target(3)
        np.testing.assert_array_equal(g5.means[:, :3], g3.means)
        np.testing.assert_array_equal(g5.variances[:, :3], g3.variances)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(MixtureError, match="component 1"):
            DiagGMM(weights=(1.0,), means=[[0.0]], variances=[[0.0]])

    @pytest.mark.parametrize(
        "weights, means, variances, message",
        [
            ((NAN, 0.5), [[0.0], [1.0]], [[1.0], [1.0]], "weight of component 1 is not positive"),
            ((0.5, NAN), [[0.0], [1.0]], [[1.0], [1.0]], "weight of component 2 is not positive"),
            ((1.5, -0.5), [[0.0], [1.0]], [[1.0], [1.0]], "weight of component 2 is not positive"),
            ((0.5, 0.5), [[0.0], [INF]], [[1.0], [1.0]], "mean of component 2 at coordinate 1 is not finite"),
            ((0.5, 0.5), [[NAN], [1.0]], [[1.0], [1.0]], "mean of component 1 at coordinate 1 is not finite"),
            ((0.5, 0.5), [[0.0], [1.0]], [[1.0], [NAN]], "variance of component 2 at coordinate 1 is not finite"),
            ((0.5, 0.5), [[0.0], [1.0]], [[INF], [1.0]], "variance of component 1 at coordinate 1 is not finite"),
        ],
        ids=["nan_weight_1", "nan_weight_2", "negative_weight", "inf_mean", "nan_mean", "nan_variance", "inf_variance"],
    )
    def test_rejects_non_finite_or_nonpositive_entries(self, weights, means, variances, message):
        # NaN weights, means and variances used to pass every check, and an infinite mean or variance too
        with pytest.raises(MixtureError, match=message):
            DiagGMM(weights=weights, means=means, variances=variances)

    @pytest.mark.parametrize("offsets, scales", [((0.0,), None), ((0.0, 10.0), (1.0,))], ids=["offsets", "scales"])
    def test_rejects_one_entry_per_weight_mismatch(self, offsets, scales):
        with pytest.raises(MixtureError, match="need one (mean offset|variance scale) per weight"):
            build_truncated_mixture((0.75, 0.25), offsets, PowerLaw(1.0), 2, var_scales=scales)


class TestSmooth:
    def test_level_zero_identity(self):
        g = fig2_target(3)
        assert smooth(g, PowerLaw(40.0), 0.0) is g

    def test_variance_addition(self):
        g = build_truncated_mixture((1.0,), (0.0,), PowerLaw(1.0), 1)
        s = smooth(g, PowerLaw(40.0), 1.0)
        assert s.variances[0, 0] == pytest.approx(41.0)

    def test_fig2_effective_smoothing(self):
        g = fig2_target(4)
        s = smooth(g, PowerLaw(1.0, 2.7), 40.0)
        js = np.arange(1, 5, dtype=float)
        np.testing.assert_allclose(s.variances - g.variances, np.tile(40.0 * js**-2.7, (2, 1)))

    def test_composition_exact_on_dyadic_levels(self):
        # float addition is exact for these level splits
        g = fig2_target(3)
        c = PowerLaw(2.0, 1.5)
        one = smooth(smooth(g, c, 0.5), c, 0.5)
        other = smooth(g, c, 1.0)
        np.testing.assert_array_equal(one.variances, other.variances)


class TestLogDensity:
    def test_standard_gaussian_origin(self):
        g = build_truncated_mixture((1.0,), (0.0,), PowerLaw(1.0), 1)
        assert g.log_density(np.zeros(1)) == pytest.approx(-0.918938533204672742, rel=1e-12)

    def test_degenerate_mixture_matches_single(self, rng):
        single = random_mixture(rng, max_components=1, max_dim=4)
        twin = DiagGMM(
            weights=(0.5, 0.5),
            means=np.vstack([single.means, single.means]),
            variances=np.vstack([single.variances, single.variances]),
        )
        for _ in range(10):
            x = rng.normal(size=single.dim)
            assert twin.log_density(x) == pytest.approx(single.log_density(x), rel=1e-12)

    def test_against_high_precision_oracle(self):
        g = fig2_target(4)
        x = np.array([1.0, 0.5, -0.2, 0.0])
        assert g.log_density(x) == pytest.approx(mp_log_density(g, x), rel=1e-12)

    def test_finite_far_from_modes(self):
        g = fig2_target(2)
        val = g.log_density(np.array([1e3, -1e3]))
        assert np.isfinite(val)

    def test_dimension_mismatch(self):
        with pytest.raises(MixtureError):
            fig2_target(3).log_density(np.zeros(2))

    def test_batched_evaluation(self, rng):
        g = fig2_target(3)
        X = rng.normal(size=(7, 3))
        batched = g.log_density(X)
        singles = [g.log_density(x) for x in X]
        np.testing.assert_allclose(batched, singles, rtol=1e-14)


class TestResponsibilities:
    def test_single_component(self):
        g = build_truncated_mixture((1.0,), (0.0,), PowerLaw(1.0), 2)
        np.testing.assert_allclose(g.responsibilities(np.zeros(2)), [1.0])

    def test_symmetric_midpoint(self):
        g = DiagGMM(weights=(0.5, 0.5), means=[[-3.0], [3.0]], variances=[[1.0], [1.0]])
        np.testing.assert_allclose(g.responsibilities(np.zeros(1)), [0.5, 0.5], atol=1e-15)

    def test_mode_two_dominates_at_its_mean(self):
        g = build_truncated_mixture(
            (0.75, 0.25),
            (0.0, 10.0),
            PowerLaw(1.0, 2.0),
            2,
            var_scales=(1.2, 2.0),
        )
        x = np.array([10.0, 0.0])
        resp = g.responsibilities(x)
        # density-ratio oracle: r_i propto w_i exp(logphi_i)
        log_comp = component_log_densities(g, x)
        num = np.log(g.weights) + log_comp
        expected = np.exp(num - num.max())
        expected /= expected.sum()
        np.testing.assert_allclose(resp, expected, rtol=1e-12)
        assert resp[1] > 0.999

    def test_sum_to_one_well_separated(self, rng):
        g = fig2_target(4)
        X = g.sample(200, rng)
        r = g.responsibilities(X)
        np.testing.assert_allclose(r.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(r >= 0)


class TestScore:
    def test_single_gaussian(self):
        g = build_truncated_mixture((1.0,), (0.0,), PowerLaw(1.0), 1)
        np.testing.assert_allclose(g.score(np.array([2.0])), [-2.0])

    def test_symmetry_zero(self):
        g = DiagGMM(weights=(0.5, 0.5), means=[[-2.0], [2.0]], variances=[[1.5], [1.5]])
        np.testing.assert_allclose(g.score(np.zeros(1)), [0.0], atol=1e-14)

    def test_matches_finite_differences(self):
        g = fig2_target(3)
        x = np.array([1.0, 0.5, -0.2])
        s = g.score(x)
        h = 1e-5
        fd = np.empty(3)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd[j] = (g.log_density(x + e) - g.log_density(x - e)) / (2 * h)
        np.testing.assert_allclose(s, fd, rtol=1e-6)


class TestSample:
    def test_moments_single_gaussian(self):
        g = build_truncated_mixture((1.0,), (0.0,), PowerLaw(1.0), 1)
        pts = g.sample(100_000, np.random.default_rng(5))
        assert abs(pts.mean()) < 4.0 / math.sqrt(100_000)
        assert abs(pts.var() - 1.0) < 0.05

    def test_component_frequency(self):
        g = fig2_target(2)
        pts, idx = g.sample(100_000, np.random.default_rng(6), return_components=True)
        freq = float(np.mean(idx == 0))
        assert abs(freq - 0.75) < 0.01
        assert pts.shape == (100_000, 2)

    def test_degenerate_weight_is_direct_gaussian(self):
        g = build_truncated_mixture((1.0,), (3.0,), PowerLaw(2.0), 2)
        a = g.sample(50, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        rng.random(50)  # component draw happens first
        b = g.means[np.zeros(50, dtype=int)] + np.sqrt(g.variances[0]) * rng.standard_normal((50, 2))
        np.testing.assert_allclose(a, b)

    def test_mixture_cdf_kolmogorov(self):
        # 1-d two-component mixture; KS statistic below the 1% critical value
        g = DiagGMM(weights=(0.6, 0.4), means=[[-1.0], [2.0]], variances=[[0.8], [2.5]])
        n = 100_000
        pts = np.sort(g.sample(n, np.random.default_rng(8))[:, 0])

        def mix_cdf(x):
            z0 = (x - (-1.0)) / math.sqrt(0.8)
            z1 = (x - 2.0) / math.sqrt(2.5)
            return 0.6 * 0.5 * (1 + np.vectorize(math.erf)(z0 / math.sqrt(2))) + 0.4 * 0.5 * (
                1 + np.vectorize(math.erf)(z1 / math.sqrt(2))
            )

        cdf = mix_cdf(pts)
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        ks = max(np.max(np.abs(ecdf_hi - cdf)), np.max(np.abs(cdf - ecdf_lo)))
        assert ks < 1.6276 / math.sqrt(n)  # 1% Kolmogorov critical value


class TestPerturbation:
    def test_zero_perturbation_identity(self):
        g = fig2_target(3)
        p = MixturePerturbation()
        out = apply_perturbation(g, p)
        np.testing.assert_array_equal(out.weights, g.weights)
        np.testing.assert_array_equal(out.means, g.means)
        np.testing.assert_array_equal(out.variances, g.variances)

    def test_weight_only_swap(self):
        g = fig2_target(2)
        p = MixturePerturbation(dweights=(-0.65, 0.65))
        out = apply_perturbation(g, p)
        np.testing.assert_allclose(out.weights, [0.1, 0.9])
        np.testing.assert_array_equal(out.means, g.means)
        np.testing.assert_array_equal(out.variances, g.variances)

    def test_covariance_power_law(self):
        g = fig2_target(2)
        p = MixturePerturbation(dvar=PowerLaw(1.0, 3.5))
        out = apply_perturbation(g, p)
        np.testing.assert_allclose(out.variances - g.variances, [[1.0, 2.0**-3.5]] * 2)

    def test_rejects_bad_weights(self):
        g = fig2_target(2)
        with pytest.raises(MixtureError, match="perturbed mixture: .*component 1"):
            apply_perturbation(g, MixturePerturbation(dweights=(-0.9, 0.9)))
        with pytest.raises(MixtureError, match="perturbed mixture: .*sum"):
            apply_perturbation(g, MixturePerturbation(dweights=(0.1, 0.0)))

    def test_rejects_nonpositive_variance(self):
        g = build_truncated_mixture((1.0,), (0.0,), PowerLaw(0.5), 2)
        pert = MixturePerturbation(dvar=PowerLaw(-0.5))
        with pytest.raises(MixtureError, match="perturbed mixture: .*component 1 at coordinate 1"):
            apply_perturbation(g, pert)


class TestKernelOracle:
    """The matrix-product kernel against the explicit ``(x - m) / v`` form.

    TOL = 1e-12. Each quantity sums at most 2d + 2 = 132 float64 terms, so
    its rounding error is at most about 132 * 1.1e-16 = 1.5e-14 of the sum
    of the terms' magnitudes (the standard bound for a recursive sum); 1e-12
    leaves a factor of about 70 for the exp, log and division steps. The
    magnitudes are the constant 0.5 sum_j |log v_j| + (d/2) log(2 pi) for
    the log density, 1 for responsibilities, and, per score entry,
    (|x_j - c_j| + max_i |m_ij - c_j|) / min_i v_ij about the mean c of the
    modes. Measured: at most 3e-15 on these cases. Evaluated about the
    origin, x^2 - 2 x m + m^2 cancels once the modes and rows sit 1e3 away
    and the error reaches 1e-11 at d = 1 and 1e-6 at d = 65.
    """

    TOL = 1e-12

    @staticmethod
    def explicit(g, x):
        diff = x[:, None, :] - g.means[None]
        q = diff / g.variances[None]
        a = np.log(g.weights) - 0.5 * (
            np.einsum("nkd,nkd->nk", diff, q) + np.log(g.variances).sum(axis=1)
        )
        amax = a.max(axis=1, keepdims=True)
        e = np.exp(a - amax)
        total = e.sum(axis=1, keepdims=True)
        log_p = (amax + np.log(total))[:, 0] - 0.5 * g.dim * math.log(2 * math.pi)
        r = e / total
        return log_p, r, -np.einsum("nk,nkd->nd", r, q)

    @pytest.mark.parametrize("d", [1, 5, 65])
    @pytest.mark.parametrize("make", [fig2_target, fig3_target], ids=["fig2", "fig3"])
    def test_matches_explicit_form(self, make, d):
        base = make(d)  # modes 10 apart on the first coordinate
        pts = base.sample(300, np.random.default_rng(d))
        for shift in (0.0, 1e3, -1e3):  # modes and rows moved together
            g = DiagGMM(weights=base.weights, means=base.means + shift, variances=base.variances)
            c = g.means.mean(axis=0)
            for off in (0.0, 1.0, -3.0, 10.0, 100.0, -1e3, 1e3):  # rows moved off the modes
                x = pts + shift
                x[:, 0] += off
                log_p, r, s = self.explicit(g, x)
                const = 0.5 * np.abs(np.log(g.variances)).max(axis=0).sum() + 0.5 * d * math.log(2 * math.pi)
                np.testing.assert_allclose(g.log_density(x), log_p, rtol=self.TOL, atol=self.TOL * const)
                np.testing.assert_allclose(g.responsibilities(x), r, rtol=0, atol=self.TOL)
                terms = (np.abs(x - c) + np.abs(g.means - c).max(axis=0)) / g.variances.min(axis=0)
                got = mixture_score(g.means, g.variances, np.log(g.weights), x)
                assert np.all(np.abs(got - s) <= self.TOL * (np.abs(s) + terms)), (shift, off)
                np.testing.assert_array_equal(g.score(x), got)

    def test_center_rows_keep_the_bits_of_a_full_subtraction(self):
        # y = x - c is a copy of x where c is zero and a subtraction elsewhere;
        # subtracting on every row gives the same bytes, at -0.0 points too
        means = np.zeros((3, 6))
        means[:, 2] = (3.0, 1.0, -1.0)
        means[:, 4] = (0.0, 2.0, 1.0)
        g = DiagGMM(weights=(0.5, 0.3, 0.2), means=means, variances=np.full((3, 6), 0.7))
        x = g.sample(50, np.random.default_rng(3))
        x[::2, 5] = -0.0
        x[1::4, 0] = -0.0
        xt, c, work = _kernel_inputs(g.means, g.variances, np.log(g.weights), x)
        assert work.rows == (2, 5)
        got = score_step(xt, c.coef, c.half, c.offset, work).copy()
        work.rows, work.center = (0, 6), c.center
        want = score_step(xt, c.coef, c.half, c.offset, work)
        assert got.tobytes() == want.tobytes()

    def test_nonfinite_row_stays_nonfinite(self):
        # a diverged chain stays diverged through the kernel, and its row
        # leaves the other rows' bits alone
        g = fig2_target(5)
        x = g.sample(8, np.random.default_rng(1))
        clean = g.score(x)
        for bad in (np.inf, -np.inf, np.nan, 1e200):
            y = x.copy()
            y[3, 2] = bad
            with np.errstate(over="ignore", invalid="ignore"):
                s = g.score(y)
            assert not np.all(np.isfinite(s[3])), bad
            np.testing.assert_array_equal(np.delete(s, 3, axis=0), np.delete(clean, 3, axis=0))


# -- property-based invariants ------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_score_is_gradient_random_mixtures(seed):
    rng = np.random.default_rng(seed)
    g = random_mixture(rng)
    x = g.sample(1, rng)[0] + rng.normal(scale=0.3, size=g.dim)
    s = g.score(x)
    h = 1e-5
    fd = np.empty(g.dim)
    for j in range(g.dim):
        e = np.zeros(g.dim)
        e[j] = h
        fd[j] = (g.log_density(x + e) - g.log_density(x - e)) / (2 * h)
    np.testing.assert_allclose(s, fd, rtol=1e-6, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shift=st.floats(-200, 200))
def test_responsibility_shift_invariance(seed, shift):
    # responsibilities depend on per-component log densities only through differences
    rng = np.random.default_rng(seed)
    g = random_mixture(rng)
    x = rng.normal(size=g.dim)
    a = np.log(g.weights) + component_log_densities(g, x) + shift
    a -= a.max()
    r_shifted = np.exp(a)
    r_shifted /= r_shifted.sum()
    np.testing.assert_allclose(g.responsibilities(x), r_shifted, rtol=1e-12, atol=1e-15)
    assert g.responsibilities(x).sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    a=st.floats(0.0, 5.0),
    b=st.floats(0.0, 5.0),
)
def test_smooth_composition_property(seed, a, b):
    rng = np.random.default_rng(seed)
    g = random_mixture(rng)
    c = PowerLaw(1.5, 1.0)
    lhs = smooth(smooth(g, c, a), c, b)
    rhs = smooth(g, c, a + b)
    np.testing.assert_allclose(lhs.variances, rhs.variances, rtol=0, atol=1e-12)
