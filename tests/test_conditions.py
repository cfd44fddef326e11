import math
from dataclasses import replace

import numpy as np
import pytest

from aldlab import BoundInputs, PowerLaw, bounds, condition_report
from aldlab.conditions import ConditionError
from aldlab.config import load_config
from aldlab.experiments import _variant_bound_inputs, variant_condition_report
from aldlab.bounds import error_budget


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
    mean_offsets=(0.0, 10.0),
)
FIG2_RED = dict(
    sigma_exponent=1.25,
    sigma_scales=(1.2, 2.0),
    smooth=PowerLaw(40.0, 0.0),
    gamma=PowerLaw(1.0, 0.0),
    mean_offsets=(0.0, 10.0),
)


def kd_partial_sums(d_values, weights, taus, sigma_exponent, smooth, gamma):
    """Partial sums of the horizon constant's summand, summed directly."""
    js = np.arange(1, max(d_values) + 1, dtype=float)
    lam, gam = smooth.eigenvalues(js.size), gamma.eigenvalues(js.size)
    per_j = sum(
        w * (lam / gam) * np.log1p(lam / (tau * js**-sigma_exponent)) for w, tau in zip(weights, taus)
    ) / 16.0
    return [per_j[:d].sum() for d in d_values]


def fig3_kwargs(gamma_exponent):
    return dict(
        sigma_exponent=2.0,
        sigma_scales=(1.0, 1.0),
        smooth=PowerLaw(40.0, 4.0),
        gamma=PowerLaw(1.0, gamma_exponent),
        dsigma=PowerLaw(0.1, 3.5),
        mean_offsets=(0.0, 10.0),
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
        assert rec.exponent_margin == 0.0
        # flat lambda/gamma times log1p(lambda/sigma), which grows like log j:
        # partial sums behave like d log d
        (d1, s1), (d2, s2), (d3, s3) = rec.partial_sums
        _, direct2, direct3 = kd_partial_sums((d1, d2, d3), (0.75, 0.25), (1.2, 2.0), 1.25,
                                              PowerLaw(40.0, 0.0), PowerLaw(1.0, 0.0))
        assert s3 / s2 == pytest.approx(direct3 / direct2, rel=1e-9)
        assert 10.0 < s3 / s2 < 10.0 * math.log(d3) / math.log(d2)

    def test_partial_sums_match_direct_summation(self):
        rep = condition_report((0.75, 0.25), d_probe=(10, 100, 1000), **FIG2_GREEN)
        rec = rep["suff_kd"]
        (expected,) = kd_partial_sums((1000,), (0.75, 0.25), (1.2, 2.0), 1.25,
                                      FIG2_GREEN["smooth"], FIG2_GREEN["gamma"])
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

    def test_moments_outside_the_band_diverge(self):
        # vt/v = 1.2 at coordinate 1: the -8 ratio moment and its tilt do not
        # exist, so the series are infinite whatever their tails' decay
        kw = fig3_kwargs(3.5)
        kw["dsigma"] = PowerLaw(0.2, 3.5)
        rep = condition_report((0.75, 0.25), **kw)
        for name in ("mpm_band_series", "mpm_gamma_mean", "mpm_gamma2_mean", "mpm_gamma2_mean4"):
            assert rep[name].exponent_margin > 1
            assert rep[name].verdict == "diverges"
            assert all(math.isinf(val) for _, val in rep[name].partial_sums)


class TestSignedPerturbation:
    def test_negative_shift_counts_with_the_same_decay(self):
        plus = condition_report((0.75, 0.25), **fig3_kwargs(3.5))
        kw = fig3_kwargs(3.5)
        kw["dsigma"] = PowerLaw(-0.1, 3.5)
        minus = condition_report((0.75, 0.25), **kw)
        for name in ("init_var", "s1_score_moment", "m0_first", "mpm_band_series"):
            assert minus[name].exponent_margin == plus[name].exponent_margin
            assert minus[name].verdict == plus[name].verdict
        # the series over perturbed variances grow as the variances shrink
        for name in ("init_var", "s1_score_moment", "m0_first"):
            assert minus[name].partial_sum(100) > plus[name].partial_sum(100) > 0
        # the +-8 log ratio moments are not even in dsigma; both shifts count
        assert minus["mpm_band_series"].partial_sum(100) > 0
        assert plus["mpm_band_series"].partial_sum(100) > 0
        assert minus["band_m8"].partial_sum(100) == pytest.approx(0.1)

    def test_nonpositive_perturbed_variance_rejected(self):
        kw = fig3_kwargs(3.5)
        kw["dsigma"] = PowerLaw(-1.0, 3.5)  # sigma_1 + dsigma_1 = 0
        message = "perturbed variance of component 1, coordinate 1 is not positive"
        with pytest.raises(ConditionError, match=message):
            condition_report((0.75, 0.25), **kw)

    def test_sigma_scales_default_to_one_per_weight(self):
        # as in build_truncated_mixture; a one-entry default used to reject every K > 1 call
        kw = dict(FIG2_GREEN, d_probe=(10, 100))
        del kw["sigma_scales"]
        assert condition_report((0.75, 0.25), **kw) == condition_report(
            (0.75, 0.25), sigma_scales=(1.0, 1.0), **kw
        )

    @pytest.mark.parametrize("offsets", [(10.0,), (0.0, 10.0, 20.0)])
    def test_mean_offsets_need_one_per_weight(self, offsets):
        kw = dict(FIG2_GREEN, mean_offsets=offsets)
        with pytest.raises(ConditionError, match="one mean offset per weight"):
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
        assert "suff_kd" in [rec.name for rec in rep.records]
        assert rep["suff_kd"].name == "suff_kd"
        with pytest.raises(KeyError):
            rep["nope"]


class TestTiltedTerms:
    def test_product_form_matches_expansion(self):
        # d = 3, K = 2 with a mean shift: the records' terms lin1, 6 lin0 lin1 and
        # lin1^2 and the budget's fourth-moment bound against the expanded formula
        inp = BoundInputs(
            weights=[0.6, 0.4], weights_tilde=[0.6, 0.4],
            sigma=[[1.0, 0.5, 0.25], [2.0, 0.8, 0.3]],
            dsigma=[[0.05, -0.02, 0.01], [-0.1, 0.04, 0.02]],
            dmeans=[[0.2, -0.1, 0.05], [0.3, 0.15, -0.08]],
            lambdas=[1.0, 0.5, 0.2], gammas=[1.0, 0.7, 0.4],
        )
        v, vt = (a[0] for a in inp._annealed((0.0,)))
        dm, gam = inp.dmeans, inp.gammas
        for p in (8.0, -8.0):
            kap = vt / v
            disc = p * kap - (p - 1)
            lin = gam * (1.0 / (disc * vt) + (p * kap / disc) ** 2 * dm**2 / vt**2)
            quad = gam**2 * (
                3.0 / (disc**2 * vt**2)
                + 6.0 * p**2 * kap**2 * dm**2 / (disc**3 * vt**3)
                + p**4 * kap**4 * dm**4 / (disc**4 * vt**4)
            )
            expected = lin.sum(axis=-1) ** 2 + quad.sum(axis=-1)
            got = bounds._tilted_fourth(p, gam, v[None], vt[None], dm)[0]
            np.testing.assert_allclose(got, expected, rtol=1e-12)
            lin0, lin1, _, cross, mean4 = bounds._tilted_terms(p, gam, v, vt, dm)
            np.testing.assert_allclose(lin0 + lin1, lin, rtol=1e-12)
            np.testing.assert_allclose(cross, 6.0 * gam**2 * p**2 * kap**2 * dm**2 / (disc * vt) ** 3, rtol=1e-12)
            np.testing.assert_allclose(mean4, gam**2 * p**4 * kap**4 * dm**4 / (disc * vt) ** 4, rtol=1e-12)


# -- the verdicts against the budget they guard --------------------------------------

LINK_D = (100, 1000, 10000)
SCORE_RECORDS = ("m0_first", "m0_second", "s1_score_moment", "mpm_band_series", "band_m8")


def random_fig3_variants(n, seed=0):
    """Seeded fig3-shaped variants whose every exponent margin is at least 0.3 away from 1."""
    cfg = load_config("configs/fig3.cfg")
    base = cfg.variants[0]
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < n:
        variant = replace(
            base,
            name=f"random{len(found)}",
            gamma_exponent=float(rng.uniform(0.3, 4.5)),
            cbase_exponent=float(rng.uniform(2.0, 5.0)),
            dsigma_exponent=float(rng.uniform(2.0, 4.5)),
        )
        margins = [
            rec.exponent_margin
            for rec in variant_condition_report(cfg, variant).records
            if not rec.name.startswith("band") and math.isfinite(rec.exponent_margin)
        ]
        if all(abs(m - 1.0) >= 0.3 for m in margins):
            found.append((cfg, variant))
    return found


def link_cases():
    configs = [load_config(f"configs/{name}.cfg") for name in ("bounds", "fig1", "fig3")]
    # a three-component bounds.cfg: every pair of components has its own mean gap
    three = replace(
        configs[0].target, weights=(0.5, 0.25, 0.25), mean_offsets=(0.0, 10.0, 20.0), var_scales=(1.2, 2.0, 2.0)
    )
    configs.append(replace(configs[0], name="bounds_k3", target=three))
    shipped = [(cfg, variant) for cfg in configs for variant in cfg.variants]
    return shipped + random_fig3_variants(3)


class TestBudgetLink:
    def test_verdicts_agree_with_the_budget(self):
        readings = []
        for cfg, variant in link_cases():
            report = variant_condition_report(cfg, variant, d_probe=LINK_D)
            budgets, score_inputs = [], []
            for d in LINK_D:
                score_in, init_in, sched = _variant_bound_inputs(cfg, variant, d)
                budgets.append(error_budget(score_in, sched.t_horizon, grid_size=64, init_inputs=init_in))
                score_inputs.append(score_in)
            label = f"{cfg.name}/{variant.name}"
            kd = report["suff_kd"]
            for d, budget in zip(LINK_D, budgets):
                assert kd.partial_sum(d) == pytest.approx(budget.kd, rel=1e-12), label
            bias = growth_verdict([(d, b.e_bias) for d, b in zip(LINK_D, budgets)])
            assert bias == kd.verdict, f"{label}: e_bias grows as {bias}, suff_kd {kd.verdict}"
            # the score second-moment record sums the weight term's own summand, whatever K
            s1 = report["s1_score_moment"]
            for d, score_in in zip(LINK_D, score_inputs):
                terms = bounds._delta1_terms(score_in, *score_in._annealed((0.0, 1.0)), 3.0)
                assert s1.partial_sum(d) == pytest.approx(terms.max(axis=0).sum(), rel=1e-12), label
            if budgets[-1].e_score_resp == 0.0:
                continue
            resp = growth_verdict([(d, b.e_score_resp) for d, b in zip(LINK_D, budgets)])
            if resp == "borderline":
                continue
            expected = all(report[name].verdict == "converges" for name in SCORE_RECORDS)
            assert (resp == "converges") == expected, f"{label}: e_score_resp grows as {resp}"
            readings.append(resp)
        assert len(readings) >= 4 and set(readings) == {"converges", "diverges"}
