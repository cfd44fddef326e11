import math

import numpy as np
import pytest

from aldlab import PowerLaw, condition_report
from aldlab.conditions import ConditionError


def growth_verdict(sums_by_d):
    """Partial-sum growth oracle: compare successive increments.

    For clean power-law tails the increments shrink (convergent) or grow
    (divergent) from decade to decade.
    """
    (d1, s1), (d2, s2), (d3, s3) = sums_by_d
    inc1 = s2 - s1
    inc2 = s3 - s2
    if s3 == 0.0:
        return "converges"
    if inc2 <= 0.6 * inc1 + 1e-12:
        return "converges"
    if inc2 >= 1.5 * inc1:
        return "diverges"
    return "borderline"


FIG2_GREEN = dict(
    sigma_exponent=1.25,
    sigma_scales=(1.2, 2.0),
    smooth=PowerLaw(40.0, 2.7),
    gamma=PowerLaw(1.0, 1.5),
    mean_gap_sq=100.0,
)
FIG2_RED = dict(
    sigma_exponent=1.25,
    sigma_scales=(1.2, 2.0),
    smooth=PowerLaw(40.0, 0.0),
    gamma=PowerLaw(1.0, 0.0),
    mean_gap_sq=100.0,
)


def fig3_kwargs(gamma_exponent):
    return dict(
        sigma_exponent=2.0,
        sigma_scales=(1.0, 1.0),
        smooth=PowerLaw(40.0, 4.0),
        gamma=PowerLaw(1.0, gamma_exponent),
        dsigma=PowerLaw(0.1, 3.5),
        mean_gap_sq=100.0,
    )


class TestSuffCondition:
    def test_fig2_green_converges_with_stated_margin(self):
        rep = condition_report((0.75, 0.25), **FIG2_GREEN)
        rec = rep["suff_kd"]
        assert rec.verdict == "converges"
        assert rec.exponent_margin == pytest.approx(2.65)

    def test_fig2_red_diverges(self):
        rep = condition_report((0.75, 0.25), **FIG2_RED)
        rec = rep["suff_kd"]
        assert rec.verdict == "diverges"
        # terms grow like j^{1.25}: partial sums behave like d^{2.25}
        (d1, s1), (d2, s2), (d3, s3) = rec.partial_sums
        assert s3 / s2 == pytest.approx((d3 / d2) ** 2.25, rel=0.05)

    def test_partial_sums_match_direct_summation(self):
        rep = condition_report((0.75, 0.25), d_probe=(10, 100, 1000), **FIG2_GREEN)
        rec = rep["suff_kd"]
        js = np.arange(1, 1001, dtype=float)
        lam = 40.0 * js**-2.7
        gam = js**-1.5
        expected = 0.0
        for w, tau in ((0.75, 1.2), (0.25, 2.0)):
            expected_terms = lam**2 / (gam * tau * js**-1.25)
            expected += w * expected_terms.sum()
        assert rec.partial_sum(1000) == pytest.approx(expected, rel=1e-12)


class TestM0Conditions:
    def test_fig3_admissible_passes(self):
        rep = condition_report((0.75, 0.25), **fig3_kwargs(3.5))
        assert rep["m0_first"].verdict == "converges"
        assert rep["m0_second"].verdict == "converges"
        assert rep["m0_first"].exponent_margin == pytest.approx(1.5)

    def test_fig3_non_admissible_fails(self):
        rep = condition_report((0.75, 0.25), **fig3_kwargs(1.0))
        assert rep["m0_first"].verdict == "diverges"
        assert rep["m0_first"].exponent_margin == pytest.approx(-1.0)
        # second series: 2(1-2) = -2
        assert rep["m0_second"].verdict == "diverges"


class TestZeroPerturbations:
    def test_all_perturbation_conditions_trivial(self):
        rep = condition_report((0.75, 0.25), **FIG2_GREEN)
        for name in ("init_mean", "init_var", "mpm_band_series",
                     "mpm_gamma_mean", "mpm_gamma2_mean", "mpm_gamma2_mean4"):
            rec = rep[name]
            assert rec.verdict == "converges"
            assert all(v == 0.0 for _, v in rec.partial_sums)
        assert rep["w1_weights"].partial_sums[0][1] == 0.0


class TestBands:
    def test_band_inside(self):
        rep = condition_report((0.75, 0.25), **fig3_kwargs(3.5))
        assert rep["band_m8"].verdict == "converges"
        assert rep["band_r2"].verdict == "converges"
        # max deviation is dsigma_1 / sigma_1 = 0.1
        assert rep["band_m8"].partial_sums[-1][1] == pytest.approx(0.1)

    def test_band_violated(self):
        kw = fig3_kwargs(3.5)
        kw["dsigma"] = PowerLaw(0.2, 3.5)
        rep = condition_report((0.75, 0.25), **kw)
        assert rep["band_m8"].verdict == "diverges"  # 0.2 > 1/8
        assert rep["band_r2"].verdict == "converges"  # 0.2 < 1/2


class TestSignedPerturbation:
    def test_negative_shift_counts_with_the_same_decay(self):
        plus = condition_report((0.75, 0.25), **fig3_kwargs(3.5))
        kw = fig3_kwargs(3.5)
        kw["dsigma"] = PowerLaw(-0.1, 3.5)
        minus = condition_report((0.75, 0.25), **kw)
        for name in ("init_var", "s1_score_moment", "m0_first", "mpm_band_series"):
            assert minus[name].exponent_margin == plus[name].exponent_margin
            assert minus[name].verdict == plus[name].verdict
        # the series over perturbed variances grow as the variances shrink;
        # those over the unperturbed ones see only |dsigma|
        for name in ("init_var", "s1_score_moment", "m0_first"):
            assert minus[name].partial_sum(100) > plus[name].partial_sum(100) > 0
        assert minus["mpm_band_series"].partial_sum(100) == plus["mpm_band_series"].partial_sum(100) > 0
        assert minus["band_m8"].partial_sum(100) == pytest.approx(0.1)

    def test_nonpositive_perturbed_variance_rejected(self):
        kw = fig3_kwargs(3.5)
        kw["dsigma"] = PowerLaw(-1.0, 3.5)  # sigma_1 + dsigma_1 = 0
        with pytest.raises(ConditionError, match="perturbed variances must be positive"):
            condition_report((0.75, 0.25), **kw)


class TestGrowthAgreement:
    def test_verdicts_agree_with_partial_sum_growth(self):
        configs = [
            ((0.75, 0.25), FIG2_GREEN),
            ((0.75, 0.25), FIG2_RED),
            ((0.75, 0.25), fig3_kwargs(3.5)),
            ((0.75, 0.25), fig3_kwargs(1.0)),
        ]
        series_names = ("suff_kd", "m0_first", "m0_second", "s1_score_moment",
                        "init_mean", "init_var", "mpm_band_series", "mpm_gamma_mean")
        checked = 0
        for weights, kw in configs:
            rep = condition_report(weights, d_probe=(100, 1000, 10000), **kw)
            for name in series_names:
                rec = rep[name]
                oracle = growth_verdict(rec.partial_sums)
                if oracle == "borderline":
                    continue
                assert rec.verdict == oracle, f"{name}: {rec.verdict} vs growth {oracle}"
                checked += 1
        assert checked >= 20

    def test_random_power_laws_agree_with_growth(self, rng):
        for _ in range(25):
            e = float(rng.uniform(0.2, 3.0))
            if abs(e - 1.0) < 0.2:
                continue  # growth oracle is unreliable at the boundary
            scale = float(rng.uniform(0.5, 3.0))
            js = np.arange(1, 10001, dtype=float)
            terms = scale * js**-e
            sums = np.cumsum(terms)
            probe = tuple((d, float(sums[d - 1])) for d in (100, 1000, 10000))
            oracle = growth_verdict(probe)
            expected = "converges" if e > 1 else "diverges"
            if oracle != "borderline":
                assert oracle == expected


class TestReportShape:
    def test_nondecreasing_partial_sums(self):
        rep = condition_report((0.75, 0.25), **fig3_kwargs(1.0))
        for rec in rep.records:
            vals = [v for _, v in rec.partial_sums]
            assert vals == sorted(vals)

    def test_names_and_lookup(self):
        rep = condition_report((1.0,), sigma_exponent=2.0, sigma_scales=(1.0,),
                               smooth=PowerLaw(40.0, 4.0), gamma=PowerLaw(1.0, 3.5))
        assert "suff_kd" in rep.names()
        with pytest.raises(KeyError):
            rep["nope"]
