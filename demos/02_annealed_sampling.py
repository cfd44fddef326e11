#!/usr/bin/env python3
"""Annealed Langevin sampling on a well-separated bimodal target.

Anneals from a heavily smoothed start back to the target along the linear
schedule, and contrasts the tailored spectral design against the flat one at
a dimension where both still work.
"""

import numpy as np

from aldlab import (
    ALDConfig,
    PowerLaw,
    build_truncated_mixture,
    knn_kl,
    make_schedule,
    run_chains,
)

d = 5
target = build_truncated_mixture(
    (0.75, 0.25), [0.0, {1: 10.0}],
    [PowerLaw(1.0, 1.25)] * 2, d, var_scales=(1.2, 2.0),
)

# Short horizon so the difference is visible quickly; the shipped configs use
# the full 20000-step schedule.
schedule = make_schedule(4000, 9e-3, 20.0)
print(f"schedule: {schedule.n_steps} steps, theta_0 = {schedule.theta0}, "
      f"horizon T = {schedule.t_horizon:.1f}")

variants = {
    "tailored (gamma=j^-1.5, C=40 j^-2.7)": (
        PowerLaw(1.0, 1.5), PowerLaw(1.0, 2.7)),
    "flat (gamma=I, C=40 I)": (
        PowerLaw(1.0), PowerLaw(1.0)),
}

reference = target.sample(2000, np.random.default_rng(1))
for name, (gamma, c_base) in variants.items():
    cfg = ALDConfig(dim=d, schedule=schedule, gamma=gamma, c_base=c_base)
    batch = run_chains(cfg, target, 2000, seed=42)
    est = knn_kl(reference, batch.samples, 20)
    frac = float(np.mean(batch.samples[:, 0] > 5.0))
    print(f"{name}: kNN KL = {est.value:.3f}, mode-2 mass = {frac:.3f} (target 0.25)")

# Determinism: a rerun with the same seed reproduces every sample bit for bit,
# and rows do not depend on how many chains were requested.
cfg = ALDConfig(dim=d, schedule=schedule,
                gamma=PowerLaw(1.0, 1.5),
                c_base=PowerLaw(1.0, 2.7))
a = run_chains(cfg, target, 600, seed=42)
b = run_chains(cfg, target, 400, seed=42)
print("rows stable under chain-count changes:",
      np.array_equal(a.samples[:400], b.samples))
