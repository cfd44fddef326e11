#!/usr/bin/env python3
"""Closed-form horizon constants, error budgets, and summability verdicts.

Everything here is exact formula evaluation: no sampling involved.
"""

import numpy as np

from aldlab import (
    BoundInputs,
    PowerLaw,
    bcomp_bound,
    bresp_upper,
    condition_report,
    error_budget,
    horizon,
    kd_constant,
    ratio_p_moment,
    score_fourth_moment,
    tilted_params,
    weight_kl,
)


def inputs_for(d, gamma_exponent, smooth_exponent, dsigma_scale=0.0):
    js = np.arange(1, d + 1, dtype=float)
    sigma = np.vstack([1.2 * js**-1.25, 2.0 * js**-1.25])
    dsig = np.tile(dsigma_scale * js**-3.5, (2, 1))
    return BoundInputs(
        weights=(0.75, 0.25), weights_tilde=(0.75, 0.25),
        sigma=sigma, dsigma=dsig, dmeans=np.zeros((2, d)),
        lambdas=40.0 * js**-smooth_exponent, gammas=js**-gamma_exponent,
        means=np.vstack([np.zeros(d), np.eye(1, d, 0)[0] * 10.0]),
    )


# Horizon constant: plateaus for the tailored spectra, grows for flat ones.
for label, (g_exp, c_exp) in (("tailored", (1.5, 2.7)), ("flat", (0.0, 0.0))):
    kds = {d: kd_constant(inputs_for(d, g_exp, c_exp)) for d in (5, 20, 65)}
    print(f"{label}: K_d at d=5/20/65 ->",
          {d: round(v, 3) for d, v in kds.items()},
          f"; horizon for accuracy 0.3 at d=65: T = {horizon(kds[65], 0.3):.1f}")

# Weight-only initialization mismatch: the Gaussian terms vanish and the
# bound collapses to the discrete weight divergence.
print("\nweight KL (0.75,0.25) vs (0.1,0.9):", round(weight_kl([0.75, 0.25], [0.1, 0.9]), 6))

# Likelihood-ratio moments and the tilted-Gaussian parameters behind the
# responsibility bound.
print("E[r^2] for v=1, vt=1.2, dm=0.3:", round(ratio_p_moment(2, 1.0, 1.2, 0.3), 6))
print("tilt of N(1,2) by r^2 against N(0,1):", tilted_params(2, 0.0, 1.0, 1.0, 2.0))
print("score fourth moment, gammas=(1,1), vts=(1,2):", score_fourth_moment([1, 1], [1, 2]))
print("E[r^2] beyond the validity band (vt = v/2):", ratio_p_moment(2, 1.0, 0.5, 0.0))

# A perturbed instance: per-fraction bounds and the integrated budget.
inp = inputs_for(6, 1.5, 2.7, dsigma_scale=0.05)
print("\nB_comp at fraction 0.5:", round(bcomp_bound(inp, 0.5), 6))
resp = bresp_upper(inp, 0.5)
print(f"B_resp envelope: {resp.envelope:.4f} (band ok: {resp.band_ok})")
budget = error_budget(inp, t_horizon=179.991, grid_size=128)
print("budget lines: init", round(budget.e_init, 6),
      "| score comp", round(budget.e_score_comp, 6),
      "| score resp", round(budget.e_score_resp, 4),
      "| bias", round(budget.e_bias, 4))

# Summability diagnostics behind the dimension-uniformity claims.
report = condition_report(
    (0.75, 0.25), sigma_exponent=1.25, sigma_scales=(1.2, 2.0),
    smooth=PowerLaw(40.0, 2.7), gamma=PowerLaw(1.0, 1.5), mean_offsets=(0.0, 10.0),
)
print("\ncondition verdicts (tailored spectra):")
for rec in report.records:
    print(f"  {rec.name:<20} {rec.verdict:<10} margin {rec.exponent_margin:.3g}")
