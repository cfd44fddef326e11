"""Config-driven experiment harness: sweeps, step searches, reports.

Every experiment fans out independent cells (variant, dimension, repeat),
each seeded from the master seed and the cell key, so results never depend
on execution order or worker count. One function, ``_cell``, decides the
outcome of every cell, for the bias-vs-dimension sweeps, the robustness-to-k
study and the step search alike. Each cell has one cache record, an npz
file named by a content digest of what the cell simulates: it holds the
cell's KL estimates (``ks``, ``kl``) and wall time and, when the cell ran
the config's own schedule length and did not diverge, its chain samples.
The ks a record lacks are searched in its samples and merged into it, and
the record keeps its wall time, so every row takes its wall time from a
record and a rerun with an unchanged config reproduces its output byte for
byte. The robustness study is the sweep at every configured k that never
simulates: it re-estimates cached samples only. The target sample a search
compares the chains with is redrawn from the cell seed when a search needs
it, never stored. The bounds report reads each variant's laws once
(``_variant_laws``), and one ``bounds.family_inputs`` build per variant
serves its budgets and its condition records.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import time
import zipfile
import zlib
from dataclasses import dataclass, replace

import numpy as np

from . import engine
from .bounds import condition_report, error_budget, family_inputs, horizon
from .config import ExperimentConfig, VariantBlock
from .engine import ALDConfig, ChainDivergenceError, make_schedule, run_chains
# knn_kl stays importable from here: perfbench/tracing.py wraps it by this name
from .knn_kl import knn_kl, knn_kl_multi  # noqa: F401
from .mixture import DiagGMM, MixturePerturbation, build_truncated_mixture, smooth
from .spectra import PowerLaw

# Names the float bits of chains and estimates. The chain-cache keys hash it
# (with engine.BLOCK_SIZE), so a change that moves those bits must bump it:
# cache entries from other numerics then miss instead of being served.
NUMERICS_VERSION = 2

CSV_HEADER = ("experiment", "variant", "d", "k", "seed", "repeat", "kl", "steps", "wall_time_s")


class ExperimentError(RuntimeError):
    """Raised for unrunnable experiment setups."""


@dataclass(frozen=True)
class ResultRow:
    """One results-CSV row: the result of one cell, or of one step search, or one k of a cell."""

    experiment: str
    variant: str
    d: int
    k: int
    seed: int
    repeat: int
    kl: float
    steps: object  # step count, or "cap_exceeded" / "diverged"
    wall_time_s: float

    def key(self):
        return (self.experiment, self.variant, self.d, self.k, self.seed, self.repeat)


def _row(cfg: ExperimentConfig, variant: VariantBlock, d: int, repeat: int, k: int, kl, steps, wall_time_s):
    """The row of ``cfg``'s experiment for one (variant, d, repeat) at one k."""
    return ResultRow(cfg.experiment, variant.name, d, k, cfg.sampling.seed, repeat, float(kl), steps, wall_time_s)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _write_csv(path: str, header, records) -> None:
    """Write a header and records with LF endings, quoting only fields that need it."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(value) for value in rec] for rec in records)


def emit_csv(rows, path: str) -> None:
    """Write rows sorted by key; floats at 9 significant digits, LF endings."""
    ordered = sorted(rows, key=lambda r: r.key())
    keys = [r.key() for r in ordered]
    if len(set(keys)) != len(keys):
        dup = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise ExperimentError(f"duplicate result key {dup}")
    _write_csv(path, CSV_HEADER, ([getattr(r, c) for c in CSV_HEADER] for r in ordered))


def read_csv_rows(path: str) -> list:
    """Parse a results CSV back into ResultRow objects."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_HEADER:
            raise ExperimentError(f"unexpected CSV header in {path}")
        for rec in reader:
            steps = rec["steps"]
            if steps not in ("cap_exceeded", "diverged"):
                steps = int(steps)
            out.append(
                ResultRow(
                    experiment=rec["experiment"],
                    variant=rec["variant"],
                    d=int(rec["d"]),
                    k=int(rec["k"]),
                    seed=int(rec["seed"]),
                    repeat=int(rec["repeat"]),
                    kl=float(rec["kl"]),
                    steps=steps,
                    wall_time_s=float(rec["wall_time_s"]),
                )
            )
    return out


# -- cell plumbing -----------------------------------------------------------


def build_target(cfg: ExperimentConfig, d: int) -> DiagGMM:
    tgt = cfg.target
    return build_truncated_mixture(
        tgt.weights, tgt.mean_offsets, PowerLaw(1.0, tgt.var_exponent), d, var_scales=tgt.var_scales
    )


def build_ald_config(cfg: ExperimentConfig, variant: VariantBlock, d: int, n_steps=None) -> ALDConfig:
    """The numerics of one variant at dimension ``d``.

    The only reading of a ``[variant]`` section: the chains run this config,
    and the bounds and condition reports take their schedule, spectra,
    perturbation and initial law from it.
    """
    sched = make_schedule(
        n_steps if n_steps is not None else cfg.schedule.n_steps,
        cfg.schedule.dt,
        cfg.schedule.s_half,
    )
    gamma = PowerLaw(variant.gamma_scale, variant.gamma_exponent)
    c_base = PowerLaw(variant.cbase_scale, variant.cbase_exponent)
    perturbation = init_mixture = None
    if variant.drift == "misspecified":
        perturbation = MixturePerturbation(
            variant.dweights,
            PowerLaw(variant.dmean_scale, variant.dmean_exponent),
            PowerLaw(variant.dsigma_scale, variant.dsigma_exponent),
        )
    if variant.init_weights:
        target = build_target(cfg, d)
        base = DiagGMM(weights=variant.init_weights, means=target.means, variances=target.variances)
        init_mixture = smooth(base, c_base, sched.theta0)
    return ALDConfig(
        dim=d,
        schedule=sched,
        gamma=gamma,
        c_base=c_base,
        drift_mode=variant.drift,
        perturbation=perturbation,
        init_mixture=init_mixture,
    )


def cell_seed(master_seed: int, *parts) -> int:
    text = "|".join([str(master_seed)] + [str(p) for p in parts])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little") % (2**63)


def cache_dir(cfg: ExperimentConfig) -> str:
    return os.path.join(os.path.dirname(os.path.abspath(cfg.output.csv)), "chain_cache")


def _batch_digest(cfg: ExperimentConfig, variant: VariantBlock, d: int, repeat: int, n_steps: int) -> str:
    """Identity of the simulated samples; independent of the estimator's k."""
    text = "|".join(
        [
            repr(cfg.target),
            repr(cfg.schedule),
            repr(variant),
            f"numerics={NUMERICS_VERSION}",
            f"block={engine.BLOCK_SIZE}",
            f"n_steps={n_steps}",
            f"d={d}",
            f"repeat={repeat}",
            f"n={cfg.sampling.n_chains}",
            f"m={cfg.sampling.n_target_samples}",
            f"seed={cfg.sampling.seed}",
        ]
    )
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _batch_path(cfg: ExperimentConfig, variant: VariantBlock, d: int, repeat: int, n_steps: int) -> str:
    return os.path.join(cache_dir(cfg), _batch_digest(cfg, variant, d, repeat, n_steps) + ".npz")


def _load_record(path: str):
    """The cell record at ``path`` as ``({k: kl}, wall_time_s)``, or None.

    Reads the ``ks``, ``kl`` and ``wall_time_s`` members only, never
    ``samples``; the zip CRC of each is checked as it is read. A record that
    is missing, unreadable (torn, say) or unsound is None, a miss: its ks
    and estimates must be equal-length 1-d arrays of distinct integer
    ks >= 1 and finite values, and its wall time a finite float >= 0 of
    shape (), so a spoiled record is never served. Empty ``ks`` and ``kl``
    mark a cell whose chains diverged. A batch written before records held
    their wall time has no ``wall_time_s``: it is not a record, though its
    samples still load.
    """
    if not os.path.exists(path):
        return None
    try:
        with open(path, "rb") as fh, np.load(fh) as data:
            ks, kl, wall = data["ks"], data["kl"], data["wall_time_s"]
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile, zlib.error):
        return None
    if not (
        ks.ndim == kl.ndim == 1
        and ks.shape == kl.shape
        and ks.dtype.kind in "iu"
        and kl.dtype.kind == "f"
        and np.all(ks >= 1)
        and len(np.unique(ks)) == len(ks)
        and np.all(np.isfinite(kl))
        and wall.shape == ()
        and wall.dtype.kind == "f"
        and np.isfinite(wall)
        and wall >= 0
    ):
        return None
    return dict(zip(ks.tolist(), kl.tolist())), float(wall)


def _load_samples(cfg: ExperimentConfig, path: str, d: int):
    """The chain samples stored at ``path``, or None.

    Samples that are missing, unreadable, of the wrong shape or not finite
    are None: no samples are ever served that a fresh simulation could not
    have written. Batches once stored the target sample too
    (``target_samples``); that member is never read, as ``_target_sample``
    redraws the same bits.
    """
    if not os.path.exists(path):
        return None
    try:
        with open(path, "rb") as fh, np.load(fh) as data:
            samples = data["samples"]
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile, zlib.error):
        return None
    if samples.shape != (cfg.sampling.n_chains, d) or not np.all(np.isfinite(samples)):
        return None
    return samples


def _target_sample(cfg: ExperimentConfig, variant: VariantBlock, d: int, repeat: int, n_steps: int) -> np.ndarray:
    """The sample of the target that a cell's chains are compared with.

    Drawn from the cell seed's second stream, so it is the same bits whenever
    it is drawn: a search redraws it rather than reading it from a record.
    """
    seed = cell_seed(cfg.sampling.seed, variant.name, d, repeat, n_steps)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 1)))
    return build_target(cfg, d).sample(cfg.sampling.n_target_samples, rng)


def _search(
    cfg: ExperimentConfig, variant: VariantBlock, d: int, repeat: int, n_steps: int, chain_samples, ks
) -> dict:
    """``{k: kl}`` for a cell's chain samples at each of ``ks``, from one search."""
    p_samples = _target_sample(cfg, variant, d, repeat, n_steps)
    return {est.k: est.value for est in knn_kl_multi(p_samples, chain_samples, ks)}


def _cell(
    cfg: ExperimentConfig, variant: VariantBlock, d: int, repeat: int, steps: int, cache: bool
) -> tuple:
    """One cell's estimates ``{k: kl}`` and its recorded wall time.

    The one place a cell's outcome is decided. A cell at the config's
    schedule length needs every configured k, one of any other length the
    primary k alone. Its cache record (``_batch_path``) holds its estimates
    (``ks``, ``kl``) and its wall time and, when the cell ran the schedule
    length and did not diverge, its chain ``samples``.

    - A record that holds the ks the cell needs, or marks the cell diverged
      (no estimates), is served as stored, so reruns reproduce output bytes.
    - Otherwise the ks the record lacks are searched in its stored samples
      and merged into it; the record keeps its wall time.
    - Otherwise the cell is simulated, searched and recorded with the time
      that took. A knn_robustness cell never simulates: with no usable
      samples, the cache off included, it is an error naming the cell.

    A search draws the target sample (``_target_sample``) then, and never
    stores it.
    """
    path = _batch_path(cfg, variant, d, repeat, steps)
    # k_primary is k_values[0]
    ks = cfg.sampling.k_values if steps == cfg.schedule.n_steps else (cfg.sampling.k_primary,)
    record = _load_record(path) if cache else None
    # a record with no estimates is a diverged cell's, which a rerun would repeat
    if record is not None and (not record[0] or set(ks) <= record[0].keys()):
        return record
    t0 = time.perf_counter()
    chain_samples = _load_samples(cfg, path, d) if cache else None
    estimates, wall_time_s = {}, None
    if record is not None and chain_samples is not None:
        # simulated before, under other ks: search only the ks the record lacks
        estimates, wall_time_s = record
    if chain_samples is None:
        if cfg.experiment == "knn_robustness":
            raise ExperimentError(
                "the knn_robustness study only re-estimates cached chain batches, and found no usable "
                f"samples for variant {variant.name!r}, d={d}, repeat={repeat}; run the sweep experiment "
                f"first and keep the cache on (expected {path})"
            )
        ald = build_ald_config(cfg, variant, d, n_steps=steps)
        # seeded by the cell's physical identity (not the experiment kind), so
        # cached samples are interchangeable with fresh simulation everywhere
        seed = cell_seed(cfg.sampling.seed, variant.name, d, repeat, steps)
        try:
            chain_samples = run_chains(ald, build_target(cfg, d), cfg.sampling.n_chains, seed).samples
        except ChainDivergenceError:
            pass
    if chain_samples is not None:
        missing = [k for k in ks if k not in estimates]
        estimates.update(_search(cfg, variant, d, repeat, steps, chain_samples, missing))
    if wall_time_s is None:
        wall_time_s = time.perf_counter() - t0
    if cache:
        arrays = dict(
            ks=np.array(list(estimates), dtype=np.int64),
            kl=np.array(list(estimates.values()), dtype=np.float64),
            wall_time_s=np.float64(wall_time_s),
        )
        if chain_samples is not None and steps == cfg.schedule.n_steps:
            arrays["samples"] = chain_samples
        # written aside and renamed, so a killed run never leaves a torn
        # record under the name later cells load, and an unusable record
        # there is replaced; the temporary name ends in .npz because numpy
        # appends that suffix to any other name. Uncompressed: random
        # doubles shrink by about 4%, not worth the deflate time.
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path[: -len(".npz")] + f".tmp{os.getpid()}.npz"
        try:
            np.savez(tmp, **arrays)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    return estimates, wall_time_s


def run_cell(cfg: ExperimentConfig, variant: VariantBlock, d: int, repeat: int, cache: bool = True) -> list:
    """The rows of one (variant, d, repeat) cell at the configured schedule, whose outcome ``_cell`` decides.

    The robustness study gets one row per configured k, every other
    experiment the primary k's. Each row carries the record's wall time
    divided by the number of rows, so a single row carries it bit for bit.
    """
    steps = cfg.schedule.n_steps
    estimates, wall_time_s = _cell(cfg, variant, d, repeat, steps, cache)
    ks = cfg.sampling.k_values if cfg.experiment == "knn_robustness" else (cfg.sampling.k_primary,)
    if not estimates:
        estimates, steps = dict.fromkeys(ks, math.nan), "diverged"
    return [_row(cfg, variant, d, repeat, k, estimates[k], steps, wall_time_s / len(ks)) for k in ks]


def _cell_task(args) -> list:
    return run_cell(*args)


def _fan_out(task, args: list, workers) -> list:
    """``[task(a) for a in args]``, in a pool of ``workers`` processes when more than one is asked for.

    The pool gets the tasks in descending d (``a[2]``), ties in the given
    order, so that the longest cells do not start last; the results come
    back in the given order.
    """
    if (workers or 1) > 1:
        # imported here: a serial run need not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        order = sorted(range(len(args)), key=lambda i: -args[i][2])
        out = [None] * len(args)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for i, row in zip(order, pool.map(task, [args[i] for i in order])):
                out[i] = row
        return out
    return [task(a) for a in args]


# -- sweep experiments (bias vs dimension, robustness to k) --------------------


def run_kl_sweep(cfg: ExperimentConfig, workers=None, cache: bool = True) -> list:
    """Shared driver for the sweep-shaped experiments.

    Runs every (variant, d, repeat) cell at the configured schedule: one row
    per cell at the primary k, or, for the robustness study, one per
    configured k (``run_cell``).
    """
    tasks = [
        (cfg, variant, d, repeat, cache)
        for variant in cfg.variants
        for d in cfg.sweep.d_values
        for repeat in range(cfg.sampling.repeats)
    ]
    return [row for rows in _fan_out(_cell_task, tasks, workers) for row in rows]


# -- steps-to-accuracy search -------------------------------------------------


def steps_to_accuracy(
    cfg: ExperimentConfig, variant: VariantBlock, d: int, cache: bool = True
) -> ResultRow:
    """Minimal schedule length whose mean divergence reaches the target accuracy.

    Walks the geometric grid upward until the accuracy is met, then bisects
    between the bracketing grid points (to within 5% or one step). Returns
    the search's row, as repeat 0: its steps are an int, or "cap_exceeded"
    when even the largest grid point misses the accuracy; its kl is the mean
    over repeats at those steps (at the largest grid point when capped); its
    wall time is the sum of the recorded wall times of the cells it ran.
    """
    eps = cfg.sweep.epsilon
    k = cfg.sampling.k_primary
    grid = iter(sorted(set(cfg.sweep.step_grid)))
    lo = hi = None  # largest failing N, smallest passing N
    mean_kl = {}
    wall_time_s = 0.0
    n = next(grid)
    while n is not None:
        kls = []
        for repeat in range(cfg.sampling.repeats):
            estimates, cell_time = _cell(cfg, variant, d, repeat, n, cache)
            wall_time_s += cell_time
            # a diverged cell has no estimates
            kls.append(estimates.get(k, math.inf))
        mean_kl[n] = float(np.mean(kls))
        if mean_kl[n] <= eps:
            hi = n
        else:
            lo = n
        if hi is None:
            n = next(grid, None)
        elif lo is not None and hi - lo > max(1, int(0.05 * hi)):
            n = (lo + hi) // 2
        else:
            n = None
    if hi is None:
        return _row(cfg, variant, d, 0, k, mean_kl[lo], "cap_exceeded", wall_time_s)
    return _row(cfg, variant, d, 0, k, mean_kl[hi], hi, wall_time_s)


def _steps_task(args) -> ResultRow:
    return steps_to_accuracy(*args)


def run_fig1_steps_to_accuracy(cfg: ExperimentConfig, workers=None, cache: bool = True) -> list:
    """One row per (variant, d): the step search's count and mean KL, as repeat 0."""
    tasks = [(cfg, variant, d, cache) for variant in cfg.variants for d in cfg.sweep.d_values]
    return _fan_out(_steps_task, tasks, workers)


# -- bounds report -------------------------------------------------------------


def _variant_laws(cfg: ExperimentConfig, variant: VariantBlock) -> tuple:
    """One variant's laws for ``family_inputs`` and ``condition_report``, its schedule and its initial weights.

    Every value is ``build_ald_config``'s, so the bounds and the condition
    records describe the chains that run. An initial law other than the
    smoothed target differs from it in its weights only, so the initial
    weights are all that ``e_init`` needs of it.
    """
    tgt = cfg.target
    # the laws are dimension-free; d = 1 only reads the variant's numerics
    ald = build_ald_config(cfg, variant, 1)
    pert = ald.perturbation or MixturePerturbation()
    laws = dict(
        sigma_exponent=tgt.var_exponent,
        sigma_scales=tgt.var_scales,
        smooth=PowerLaw(ald.schedule.theta0 * ald.c_base.scale, ald.c_base.exponent),
        gamma=ald.gamma,
        dmean=pert.dmean,
        dsigma=pert.dvar,
        weights_tilde=np.asarray(tgt.weights) + pert.weight_shifts(len(tgt.weights)),
        mean_offsets=tgt.mean_offsets,
    )
    init_weights = tgt.weights if ald.init_mixture is None else ald.init_mixture.weights
    return laws, ald.schedule, init_weights


def run_bounds_report(cfg: ExperimentConfig) -> dict:
    """Tabulate the closed-form bounds and condition verdicts for every variant.

    One ``family_inputs`` build per variant, at the largest swept d, holds
    the arrays of every budget: the score side at d is its first d
    coordinates, and the init side the same with the initial weights and no
    mean or variance shift. The condition records take the same laws at
    ``condition_report``'s own probe dimensions. Each budget is integrated
    on ``error_budget``'s own kappa grid.
    Writes a CSV of per-(variant, d) numbers plus a text report with the
    condition verdicts, and returns everything as a dict.
    """
    eps = cfg.sweep.epsilon
    numeric = []
    conditions = {}
    for variant in cfg.variants:
        laws, sched, init_weights = _variant_laws(cfg, variant)
        score = family_inputs(cfg.target.weights, max(cfg.sweep.d_values), **laws)
        zeros = np.zeros_like(score.sigma)
        init = replace(score, weights_tilde=init_weights, dsigma=zeros, dmeans=zeros)
        for d in cfg.sweep.d_values:
            first_d = slice(0, d)
            budget = error_budget(score.columns(first_d), sched.t_horizon, init_inputs=init.columns(first_d))
            kd = budget.kd
            numeric.append(
                {
                    "variant": variant.name,
                    "d": d,
                    "kd": kd,
                    "t_for_epsilon": horizon(kd, eps),
                    "init_kl_bound": budget.e_init,
                    "int_bcomp": budget.e_score_comp,
                    "int_bresp": budget.e_score_resp,
                    "int_bresp_envelope": budget.e_score_resp_envelope,
                    "bias_bound": budget.e_bias,
                    "total_bound": budget.total(),
                }
            )
        conditions[variant.name] = condition_report(cfg.target.weights, **laws)

    path = cfg.output.csv
    cols = (
        "variant", "d", "kd", "t_for_epsilon", "init_kl_bound",
        "int_bcomp", "int_bresp", "int_bresp_envelope", "bias_bound", "total_bound",
    )
    _write_csv(path, cols, ([rec[c] for c in cols] for rec in numeric))
    txt_path = os.path.splitext(path)[0] + ".txt"
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write(f"bounds report: {cfg.name} (epsilon = {eps})\n")
        for vname, report in conditions.items():
            fh.write(f"\nvariant {vname}\n")
            for rec in report.records:
                sums = ", ".join(f"S({dd})={val:.6g}" for dd, val in rec.partial_sums)
                fh.write(
                    f"  {rec.name:<22} {rec.verdict:<10} margin={rec.exponent_margin:.6g}  {sums}\n"
                )
        fh.write("\nper-dimension bounds written to " + os.path.basename(path) + "\n")
    return {"numeric": numeric, "conditions": conditions, "csv": path, "txt": txt_path}


# -- plot scripts --------------------------------------------------------------


_PLOT_TEMPLATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "plot_template.py")
_CONSTANTS_BEGIN = "# --- constants (rewritten by emit_plot_script) ---\n"
_CONSTANTS_END = "# --- end constants ---\n"


def emit_plot_script(path: str, csv_path: str) -> None:
    """Write a self-contained script that re-plots the CSV.

    The script is ``plot_template.py`` with its ``CSV`` path filled in; it
    works out its labels, title and steps mode from the CSV's rows. It needs
    only the standard library and matplotlib, and only drawing needs
    matplotlib: its ``series()`` reads the CSV and returns what is drawn, and
    can be imported without it. The template's ``LOG_FLOOR`` is applied only
    to non-positive estimates, and only because the y axis is logarithmic; a
    diverged (NaN) mean stays NaN and leaves a gap. The CSV itself keeps raw
    values.
    """
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    rel_csv = os.path.relpath(os.path.abspath(csv_path), parent)
    constant = f"CSV = os.path.join(os.path.dirname(os.path.abspath(__file__)), {rel_csv!r})\n"
    with open(_PLOT_TEMPLATE, "r", encoding="utf-8") as fh:
        template = fh.read()
    head, _, rest = template.partition(_CONSTANTS_BEGIN)
    _, _, tail = rest.partition(_CONSTANTS_END)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head + _CONSTANTS_BEGIN + constant + _CONSTANTS_END + tail)


# -- dispatcher ----------------------------------------------------------------


RUNNERS = {
    "fig1_steps_to_accuracy": run_fig1_steps_to_accuracy,
    "fig2_bias_vs_dim": run_kl_sweep,
    "fig3_score_error": run_kl_sweep,
    "knn_robustness": run_kl_sweep,
}


def run_experiment(cfg: ExperimentConfig, workers=None, cache: bool = True) -> list:
    """Run an experiment end to end: cells, CSV, and plot script."""
    if cfg.experiment == "bounds_report":
        raise ExperimentError("a bounds_report config is closed-form: run it with `aldlab bounds`")
    rows = RUNNERS[cfg.experiment](cfg, workers=workers, cache=cache)
    emit_csv(rows, cfg.output.csv)
    if cfg.output.plot_script:
        emit_plot_script(cfg.output.plot_script, cfg.output.csv)
    return rows
