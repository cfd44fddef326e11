#!/usr/bin/env python3
"""Drive the experiment harness on a reduced copy of the shipped configs.

The full reproductions run through the CLI:

    aldlab run configs/fig2.cfg                 # full scale
    aldlab run configs/fig2.cfg --profile ci    # desk scale
    aldlab run configs/fig1.cfg --profile ci
    aldlab run configs/fig3.cfg --profile ci
    aldlab run configs/knn_robustness.cfg       # after the fig2 run
    aldlab bounds configs/bounds.cfg

This script shrinks the fig2 sweep further so it finishes in about a minute
and prints the trend it finds.
"""

import os
import tempfile
from dataclasses import replace

import numpy as np

from aldlab.config import apply_ci_profile, load_config
from aldlab.experiments import run_bounds_report, run_experiment

here = os.path.dirname(os.path.abspath(__file__))
cfg = apply_ci_profile(load_config(os.path.join(here, "..", "configs", "fig2.cfg")))

workdir = tempfile.mkdtemp(prefix="aldlab_demo_")
cfg = replace(
    cfg,
    sweep=replace(cfg.sweep, d_values=(1, 5, 15)),
    sampling=replace(cfg.sampling, repeats=1),
    output=replace(cfg.output, csv=os.path.join(workdir, "fig2_demo.csv"),
                   plot_script=os.path.join(workdir, "fig2_demo_plot.py")),
)
print(f"running a reduced bias-vs-dimension sweep into {workdir} ...")
rows = run_experiment(cfg, workers=2)

print("\n  d   green     red")
for d in cfg.sweep.d_values:
    g = np.mean([r.kl for r in rows if r.variant == "green" and r.d == d])
    r = np.mean([r.kl for r in rows if r.variant == "red" and r.d == d])
    print(f"{d:>3}   {g:7.3f}  {r:7.3f}")
print("\nthe tailored (green) spectra stay controlled while the flat (red)")
print("choice deteriorates as the dimension grows.")
print(f"\nCSV: {cfg.output.csv}")
print(f"plot script (needs matplotlib): python {cfg.output.plot_script}")

bounds_cfg = load_config(os.path.join(here, "..", "configs", "bounds.cfg"))
bounds_cfg = replace(bounds_cfg,
                     output=replace(bounds_cfg.output,
                                    csv=os.path.join(workdir, "bounds.csv")))
report = run_bounds_report(bounds_cfg)
print("\nhorizon constants from the bound report:")
for rec in report["numeric"]:
    if rec["d"] in (5, 65):
        print(f"  {rec['variant']:>6} d={rec['d']:>2}: K_d = {rec['kd']:8.3f}, "
              f"T(0.3) = {rec['t_for_epsilon']:9.2f}")
print("\ncondition verdicts:")
for vname, cond in report["conditions"].items():
    print(f"  {vname}: suff_kd -> {cond['suff_kd'].verdict}")
