#!/usr/bin/env python3
"""Tour of the diagonal-mixture layer.

Builds truncations of an infinite bimodal family, smooths them, and shows
exact densities, responsibilities, scores, and sampling.
"""

import numpy as np

from aldlab import PowerLaw, build_truncated_mixture, smooth

# Two components: weights (0.75, 0.25), means 0 and 10*e_1, variances
# tau_i * j^(-1.25). The same spectra define every truncation dimension.
spectrum = PowerLaw(1.0, 1.25)
target5 = build_truncated_mixture(
    (0.75, 0.25), [0.0, {1: 10.0}], [spectrum, spectrum], d=5, var_scales=(1.2, 2.0)
)
target3 = build_truncated_mixture(
    (0.75, 0.25), [0.0, {1: 10.0}], [spectrum, spectrum], d=3, var_scales=(1.2, 2.0)
)

print("component means:\n", target5.means)
print("component variances:\n", np.round(target5.variances, 4))
print("truncation consistency (first 3 coords match):",
      np.array_equal(target5.variances[:, :3], target3.variances))

x = np.array([1.0, 0.5, -0.2, 0.0, 0.3])
print("\nlog density at x:", target5.log_density(x))
print("responsibilities at x:", np.round(target5.responsibilities(x), 6))
print("score at x:", np.round(target5.score(x), 4))

# Near the second mode the responsibilities flip almost entirely.
x2 = np.array([10.0, 0.0, 0.0, 0.0, 0.0])
print("responsibilities at the second mode:", np.round(target5.responsibilities(x2), 6))

# Smoothing adds level * lambda_j to every variance; composition is additive.
c_base = PowerLaw(1.0, 2.7)
smoothed = smooth(target5, c_base, 40.0)
print("\nsmoothed variances (level 40):\n", np.round(smoothed.variances, 3))

rng = np.random.default_rng(7)
pts, labels = target5.sample(50_000, rng, return_components=True)
print("\nempirical component-1 frequency:", round(float(np.mean(labels == 0)), 4), "(0.75)")
print("empirical mean of coordinate 1:", round(float(pts[:, 0].mean()), 3),
      "(exact:", 0.25 * 10.0, ")")
