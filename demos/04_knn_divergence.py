#!/usr/bin/env python3
"""Calibration and k-robustness of the nearest-neighbor KL estimator."""

import numpy as np

from aldlab import knn_distances, knn_kl, knn_kl_multi

rng = np.random.default_rng(11)

# Same law: the estimate concentrates near zero (it may be slightly negative;
# nothing is clamped).
P = rng.normal(size=(2500, 1))
Q = rng.normal(size=(2500, 1))
print("same law:", round(knn_kl(P, Q, 20).value, 4))

# Unit mean shift in 1-d: the true divergence is exactly 0.5.
print("N(0,1) vs N(1,1):", round(knn_kl(P, Q + 1.0, 20).value, 4), "(true 0.5)")

# Scaling: KL(N(0,1) || N(0,4)) = (1/2)(1/4 - 1 + ln 4) = 0.3181...
print("N(0,1) vs N(0,4):", round(knn_kl(P, 2.0 * Q, 20).value, 4), "(true 0.3181)")

# Robustness to the neighborhood size on a 10-d example; one search at the
# largest k serves every k, with the same values as separate knn_kl calls.
P10 = rng.normal(size=(2500, 10))
Q10 = rng.normal(size=(2500, 10)) + 0.25
true_kl = 10 * 0.5 * 0.25**2
for est in knn_kl_multi(P10, Q10, (20, 50, 80)):
    print(f"k={est.k}: estimate {est.value:.4f} (true {true_kl:.4f})")

# Duplicate samples are clamped and counted, never fatal.
est = knn_kl(P, np.vstack([P, P]), 1)
print("duplicate-heavy comparison: value", round(est.value, 3),
      "clamped pairs", est.clamped_pairs)

# The search kernel itself is exact and returns sorted neighbor distances.
pts = np.array([[0.0], [1.0], [3.0]])
print("neighbor distances from 0 within {0,1,3}:",
      knn_distances(pts, pts, 2, exclude_self=True)[0])
