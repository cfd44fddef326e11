"""The three benchmark workloads: their configs, one timed pass each, output checks.

Every workload loads a shipped config the way the ``aldlab`` CLI does (the
CI profile and the ``--seed`` override go through ``cli._apply_overrides``)
and redirects its CSV, plot script and chain cache into a scratch directory
of the benchmark's own. One pass is one user-visible operation:

- ``fig2_ci``: ``aldlab run configs/fig2.cfg --profile ci`` at one repeat per
  (variant, d) cell, 12 cells, into an empty cache;
- ``knn_robustness_ci``: ``aldlab run configs/knn_robustness.cfg --profile ci``
  at the same repeat, re-estimating the 12 cached batches at k = 20, 50, 80;
- ``bounds_report``: ``aldlab bounds configs/bounds.cfg``.
"""

from __future__ import annotations

import math
import os
import shutil
from argparse import Namespace
from contextlib import nullcontext
from dataclasses import dataclass, replace

from aldlab import cli, experiments
from aldlab.config import load_config

# One repeat per (variant, d) cell keeps a fig2 pass near 20 s on one core;
# the config's three repeats would triple it.
PASS_REPEATS = 1

CONFIGS = {
    "fig2_ci": "fig2.cfg",
    "knn_robustness_ci": "knn_robustness.cfg",
    "bounds_report": "bounds.cfg",
}


def load_workload_config(root: str, workload: str, seed, outdir: str):
    """The config as ``aldlab run/bounds`` builds it, writing under ``outdir``."""
    cfg = load_config(os.path.join(root, "configs", CONFIGS[workload]))
    if workload == "bounds_report":
        # closed-form and deterministic: no profile, and no seed to apply
        cfg = cli._apply_overrides(cfg, Namespace(profile="full", seed=None))
    else:
        cfg = cli._apply_overrides(cfg, Namespace(profile="ci", seed=seed))
        cfg = replace(cfg, sampling=replace(cfg.sampling, repeats=PASS_REPEATS))
    out = cfg.output
    plot = os.path.join(outdir, os.path.basename(out.plot_script)) if out.plot_script else ""
    return replace(
        cfg,
        output=replace(out, csv=os.path.join(outdir, os.path.basename(out.csv)), plot_script=plot),
    )


@dataclass
class PassOutcome:
    ops: int
    failures: list


def run_sweep(root: str, seed, outdir: str, span=nullcontext) -> None:
    """One fig2 CI pass: every cell simulated, estimated and cached."""
    with span("config.load"):
        cfg = load_workload_config(root, "fig2_ci", seed, outdir)
    with span("experiments.run_experiment"):
        experiments.run_experiment(cfg, workers=1)


def check_sweep(root: str, seed, outdir: str) -> PassOutcome:
    """Every cell finite and not diverged; flat spectra biased above tailored at the top d."""
    cfg = load_workload_config(root, "fig2_ci", seed, outdir)
    expected = len(cfg.variants) * len(cfg.sweep.d_values) * cfg.sampling.repeats
    rows = experiments.read_csv_rows(cfg.output.csv)
    failures = []
    if len(rows) != expected:
        failures.append(f"fig2: {len(rows)} rows written, expected {expected}")
    for r in rows:
        if r.steps == "diverged" or not math.isfinite(r.kl):
            failures.append(f"fig2: {r.variant} d={r.d} repeat={r.repeat} kl={r.kl} steps={r.steps}")
    top = max(cfg.sweep.d_values)

    def mean_kl(variant):
        vals = [r.kl for r in rows if r.variant == variant and r.d == top]
        return sum(vals) / len(vals) if vals else math.nan

    if not mean_kl("red") > mean_kl("green"):
        failures.append(f"fig2: red KL {mean_kl('red')} not above green {mean_kl('green')} at d={top}")
    return PassOutcome(ops=expected, failures=failures)


def run_robustness(root: str, seed, outdir: str, span=nullcontext) -> None:
    """Re-estimate the batches a fig2 CI pass cached in ``outdir`` at every k."""
    with span("config.load"):
        cfg = load_workload_config(root, "knn_robustness_ci", seed, outdir)
    with span("experiments.run_experiment"):
        experiments.run_experiment(cfg, workers=1)


def check_robustness(root: str, seed, outdir: str) -> PassOutcome:
    """All estimates finite; the primary-k rows equal the sweep's KL exactly."""
    cfg = load_workload_config(root, "knn_robustness_ci", seed, outdir)
    sweep_csv = load_workload_config(root, "fig2_ci", seed, outdir).output.csv
    expected = (
        len(cfg.variants) * len(cfg.sweep.d_values) * cfg.sampling.repeats * len(cfg.sampling.k_values)
    )
    rows = experiments.read_csv_rows(cfg.output.csv)
    sweep = {(r.variant, r.d, r.repeat): r.kl for r in experiments.read_csv_rows(sweep_csv)}
    failures = []
    if len(rows) != expected:
        failures.append(f"knn: {len(rows)} rows written, expected {expected}")
    for r in rows:
        if not math.isfinite(r.kl):
            failures.append(f"knn: {r.variant} d={r.d} repeat={r.repeat} k={r.k} kl={r.kl}")
        elif r.k == cfg.sampling.k_primary and sweep.get((r.variant, r.d, r.repeat)) != r.kl:
            failures.append(f"knn: {r.variant} d={r.d} repeat={r.repeat} kl={r.kl} differs from the sweep")
    return PassOutcome(ops=expected, failures=failures)


def run_bounds(root: str, seed, outdir: str, span=nullcontext) -> None:
    """One ``aldlab bounds configs/bounds.cfg`` report."""
    with span("config.load"):
        cfg = load_workload_config(root, "bounds_report", seed, outdir)
    with span("experiments.run_bounds_report"):
        experiments.run_bounds_report(cfg)


BUDGET_COLUMNS = (
    "kd", "t_for_epsilon", "init_kl_bound", "int_bcomp", "int_bresp",
    "int_bresp_envelope", "bias_bound", "total_bound",
)


def check_bounds(root: str, seed, outdir: str, reference_csv: bytes | None) -> tuple:
    """Every budget line finite and >= 0; suff_kd verdicts; CSV bytes as the reference.

    Returns the outcome and the CSV bytes, the reference for later passes.
    """
    cfg = load_workload_config(root, "bounds_report", seed, outdir)
    with open(cfg.output.csv, "rb") as fh:
        data = fh.read()
    lines = data.decode("utf-8").splitlines()
    header = lines[0].split(",")
    records = [dict(zip(header, line.split(","))) for line in lines[1:]]
    expected = len(cfg.variants) * len(cfg.sweep.d_values)
    failures = []
    if len(records) != expected:
        failures.append(f"bounds: {len(records)} rows written, expected {expected}")
    for rec in records:
        bad = [c for c in BUDGET_COLUMNS if not (math.isfinite(float(rec[c])) and float(rec[c]) >= 0.0)]
        if bad:
            failures.append(f"bounds: {rec['variant']} d={rec['d']} has bad lines {bad}")
    verdicts = _suff_kd_verdicts(cfg.output.csv.rsplit(".", 1)[0] + ".txt")
    if verdicts != {"green": "converges", "red": "diverges"}:
        failures.append(f"bounds: suff_kd verdicts {verdicts}")
    if reference_csv is not None and data != reference_csv:
        failures.append("bounds: CSV bytes differ from the first report")
    return PassOutcome(ops=expected, failures=failures), data


def _suff_kd_verdicts(txt_path: str) -> dict:
    """Read the suff_kd verdict of each variant from the text report."""
    verdicts = {}
    variant = None
    with open(txt_path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("variant "):
                variant = line.split()[1]
            elif line.split()[:1] == ["suff_kd"]:
                verdicts[variant] = line.split()[1]
    return verdicts


class Workload:
    """Passes of one workload and their output checks, under a scratch directory."""

    def __init__(self, root: str, name: str, seed, workdir: str):
        self.root = root
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.fill_dir = os.path.join(workdir, "fill")
        self.passes = 0
        self.reference_csv = None

    def pass_dir(self) -> str:
        if self.name == "fig2_ci":
            # every fig2 pass starts from an empty chain cache
            return os.path.join(self.workdir, f"pass{self.passes}")
        if self.name == "knn_robustness_ci":
            return self.fill_dir
        return os.path.join(self.workdir, "bounds")

    def run(self, outdir: str, span) -> None:
        run = {"fig2_ci": run_sweep, "knn_robustness_ci": run_robustness, "bounds_report": run_bounds}
        run[self.name](self.root, self.seed, outdir, span)
        self.passes += 1

    def check(self, outdir: str) -> PassOutcome:
        if self.name == "fig2_ci":
            outcome = check_sweep(self.root, self.seed, outdir)
            shutil.rmtree(outdir, ignore_errors=True)
            return outcome
        if self.name == "knn_robustness_ci":
            return check_robustness(self.root, self.seed, outdir)
        outcome, data = check_bounds(self.root, self.seed, outdir, self.reference_csv)
        if self.reference_csv is None:
            self.reference_csv = data
        return outcome
