"""Config-driven experiment harness: sweeps, step searches, reports.

Every experiment fans out independent cells (variant, dimension, repeat),
each seeded from the master seed and the cell key, so results never depend
on execution order or worker count. Each cell has one cache record, an npz
file named by a content digest of what the cell simulates: it holds the
cell's KL estimates (``ks``, ``kl``) and wall time and, when the cell ran
the config's own schedule length and did not diverge, its chain samples.
A rerun with an unchanged config serves every row from the records and
reproduces the output byte for byte. A sweep cell searches its samples once
at every configured k, so the robustness study reads those estimates and
loads samples, to search them, only for the ks a record lacks. The target
sample a search compares the chains with is redrawn from the cell seed when
a search needs it, never stored.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import time
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np

from . import engine
from .bounds import BoundInputs, error_budget, horizon
from .conditions import condition_report
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


def _row(cfg: ExperimentConfig, variant: VariantBlock, d: int, repeat: int, kl, steps, wall_time_s, k=None):
    """The row of ``cfg``'s experiment for one (variant, d, repeat), at the primary k by default."""
    k = cfg.sampling.k_primary if k is None else k
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


def variant_perturbation(variant: VariantBlock) -> MixturePerturbation | None:
    if variant.drift != "misspecified":
        return None
    return MixturePerturbation(
        variant.dweights,
        PowerLaw(variant.dmean_scale, variant.dmean_exponent),
        PowerLaw(variant.dsigma_scale, variant.dsigma_exponent),
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
    init_mixture = None
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
        perturbation=variant_perturbation(variant),
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
        with np.load(path) as data:
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
        with np.load(path) as data:
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


def run_cell(
    cfg: ExperimentConfig,
    variant: VariantBlock,
    d: int,
    repeat: int,
    n_steps=None,
    cache: bool = True,
) -> ResultRow:
    """Simulate one (variant, d, repeat) cell and estimate its divergence at the primary k.

    The cell's cache record (``_batch_path``) holds its estimates (``ks``,
    ``kl``) and its wall time, and, when the cell ran the config's own
    schedule length and did not diverge, its chain ``samples``, the ones the
    robustness study re-estimates. A cell has three outcomes:

    - its record holds the primary k, or marks the cell diverged: the row
      comes from the record, with its stored wall time, so reruns reproduce
      output bytes;
    - its record lacks the primary k, but the file holds usable samples:
      they are searched and the file is rewritten;
    - otherwise the cell is simulated, searched and written.

    A search of samples kept in the record runs once at every configured k,
    one of any other length at the primary k alone; the target sample is
    drawn (``_target_sample``) only then, and never stored.
    """
    steps = int(n_steps if n_steps is not None else cfg.schedule.n_steps)
    path = _batch_path(cfg, variant, d, repeat, steps)
    k_primary = cfg.sampling.k_primary
    record = _load_record(path) if cache else None
    # a record with no estimates is a diverged cell's, which a rerun would repeat
    if record is None or (record[0] and k_primary not in record[0]):
        t0 = time.perf_counter()
        # simulated before (possibly under a different k): search the stored samples
        chain_samples = _load_samples(cfg, path, d) if cache else None
        if chain_samples is None:
            ald = build_ald_config(cfg, variant, d, n_steps=steps)
            # seeded by the cell's physical identity (not the experiment kind), so
            # cached samples are interchangeable with fresh simulation everywhere
            seed = cell_seed(cfg.sampling.seed, variant.name, d, repeat, steps)
            try:
                chain_samples = run_chains(ald, build_target(cfg, d), cfg.sampling.n_chains, seed).samples
            except ChainDivergenceError:
                pass
        keep_samples = chain_samples is not None and steps == cfg.schedule.n_steps
        estimates = {}
        if chain_samples is not None:
            # k_primary is k_values[0]
            ks = cfg.sampling.k_values if keep_samples else (k_primary,)
            estimates = _search(cfg, variant, d, repeat, steps, chain_samples, ks)
        record = estimates, time.perf_counter() - t0
        if cache:
            arrays = dict(
                ks=np.array(list(estimates), dtype=np.int64),
                kl=np.array(list(estimates.values()), dtype=np.float64),
                wall_time_s=np.float64(record[1]),
            )
            if keep_samples:
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
    estimates, wall_time_s = record
    if not estimates:
        return _row(cfg, variant, d, repeat, math.nan, "diverged", wall_time_s)
    return _row(cfg, variant, d, repeat, estimates[k_primary], steps, wall_time_s)


def _cell_task(args) -> ResultRow:
    cfg, variant, d, repeat, cache = args
    return run_cell(cfg, variant, d, repeat, cache=cache)


def _fan_out(task, args: list, workers) -> list:
    """``[task(a) for a in args]``, in a process pool when more than one worker is asked for.

    The pool gets the tasks in descending d (``a[2]``), ties in the given
    order, so that the longest cells do not start last; the results come
    back in the given order.
    """
    nworkers = max(1, int(workers or 1))
    if nworkers > 1:
        # imported here: a serial run need not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        order = sorted(range(len(args)), key=lambda i: -args[i][2])
        out = [None] * len(args)
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            for i, row in zip(order, pool.map(task, [args[i] for i in order])):
                out[i] = row
        return out
    return [task(a) for a in args]


# -- sweep experiments (bias vs dimension) -----------------------------------


def run_kl_sweep(cfg: ExperimentConfig, workers=None, cache: bool = True) -> list:
    """Shared driver for the bias-vs-dimension experiments.

    Runs every (variant, d, repeat) cell at the configured schedule, one row
    per cell with the primary k.
    """
    tasks = [
        (cfg, variant, d, repeat, cache)
        for variant in cfg.variants
        for d in cfg.sweep.d_values
        for repeat in range(cfg.sampling.repeats)
    ]
    return _fan_out(_cell_task, tasks, workers)


# -- steps-to-accuracy search -------------------------------------------------


def _mean_kl_at(cfg: ExperimentConfig, variant: VariantBlock, d: int, n_steps: int, cache: bool) -> float:
    vals = []
    for repeat in range(cfg.sampling.repeats):
        row = run_cell(cfg, variant, d, repeat, n_steps=n_steps, cache=cache)
        vals.append(math.inf if row.steps == "diverged" else row.kl)
    return float(np.mean(vals))


def steps_to_accuracy(
    cfg: ExperimentConfig, variant: VariantBlock, d: int, cache: bool = True
) -> tuple:
    """Minimal schedule length whose mean divergence reaches the target accuracy.

    Walks the geometric grid upward until the accuracy is met, then bisects
    between the bracketing grid points (to within 5% or one step). Returns
    ``(steps, mean_kl)`` where steps is an int, or "cap_exceeded" when even
    the largest grid point misses the accuracy.
    """
    eps = cfg.sweep.epsilon
    grid = sorted(set(cfg.sweep.step_grid))
    lo = None  # largest failing N
    hi = None  # smallest passing N
    hi_kl = math.nan
    last_kl = math.nan
    for n in grid:
        kl = _mean_kl_at(cfg, variant, d, n, cache)
        last_kl = kl
        if kl <= eps:
            hi, hi_kl = n, kl
            break
        lo = n
    if hi is None:
        return "cap_exceeded", last_kl
    if lo is not None:
        while hi - lo > max(1, int(0.05 * hi)):
            mid = (lo + hi) // 2
            kl = _mean_kl_at(cfg, variant, d, mid, cache)
            if kl <= eps:
                hi, hi_kl = mid, kl
            else:
                lo = mid
    return hi, hi_kl


def _steps_task(args) -> ResultRow:
    cfg, variant, d, cache = args
    t0 = time.perf_counter()
    steps, kl = steps_to_accuracy(cfg, variant, d, cache=cache)
    return _row(cfg, variant, d, 0, kl, steps, time.perf_counter() - t0)


def run_fig1_steps_to_accuracy(cfg: ExperimentConfig, workers=None, cache: bool = True) -> list:
    """One row per (variant, d): the step search's count and mean KL, as repeat 0."""
    tasks = [(cfg, variant, d, cache) for variant in cfg.variants for d in cfg.sweep.d_values]
    return _fan_out(_steps_task, tasks, workers)


# -- robustness to k ----------------------------------------------------------


def run_knn_robustness(cfg: ExperimentConfig, workers=None, cache: bool = True) -> list:
    """Estimate cached sweep cells at every configured k, without re-simulating.

    A cell's estimates are read from its record (``_load_record``); its
    samples are loaded only for the ks the record lacks, and searched at
    those ks alone, in one search against the cell's redrawn target sample.
    A cell with no usable samples to search, diverged or never run, is an
    error naming it. A row's ``wall_time_s`` is its equal share of the time
    spent estimating the cell, so it is near zero when every k was read.
    """
    if not cache:
        raise ExperimentError(
            "the knn_robustness study only re-estimates cached chain batches; it cannot run without the cache"
        )
    ks = cfg.sampling.k_values
    steps = cfg.schedule.n_steps
    rows = []
    for variant in cfg.variants:
        for d in cfg.sweep.d_values:
            for repeat in range(cfg.sampling.repeats):
                t0 = time.perf_counter()
                path = _batch_path(cfg, variant, d, repeat, steps)
                record = _load_record(path)
                known = record[0] if record is not None else {}
                missing = [k for k in ks if k not in known]
                if missing:
                    chain_samples = _load_samples(cfg, path, d)
                    if chain_samples is None:
                        raise ExperimentError(
                            f"no usable cached samples for variant {variant.name!r}, d={d}, "
                            f"repeat={repeat}; run the sweep experiment first (expected {path}; "
                            "a diverged cell keeps none)"
                        )
                    known.update(_search(cfg, variant, d, repeat, steps, chain_samples, missing))
                share = (time.perf_counter() - t0) / len(ks)
                rows.extend(_row(cfg, variant, d, repeat, known[k], steps, share, k=k) for k in ks)
    return rows


# -- bounds report -------------------------------------------------------------


def _variant_bound_inputs(cfg: ExperimentConfig, variant: VariantBlock, d: int):
    """Score-side and init-side bound inputs for one variant at one dimension.

    The schedule, spectra, score perturbation and initial law are those of
    ``build_ald_config``, so the bounds describe the chains that run.
    """
    target = build_target(cfg, d)
    ald = build_ald_config(cfg, variant, d)
    k = target.n_components
    w = target.weights
    pert = ald.perturbation or MixturePerturbation()
    common = dict(
        weights=w,
        sigma=target.variances,
        lambdas=ald.schedule.theta0 * ald.c_base.eigenvalues(d),
        gammas=ald.gamma.eigenvalues(d),
        means=target.means,
    )
    score_inputs = BoundInputs(
        weights_tilde=w + pert.weight_shifts(k),
        dsigma=pert.var_shifts(k, d),
        dmeans=pert.mean_shifts(k, d),
        **common,
    )
    # an initial law other than the smoothed target differs from it in its weights only
    zeros = np.zeros((k, d))
    init_inputs = BoundInputs(
        weights_tilde=w if ald.init_mixture is None else ald.init_mixture.weights,
        dsigma=zeros,
        dmeans=zeros,
        **common,
    )
    return score_inputs, init_inputs, ald.schedule


def variant_condition_report(cfg: ExperimentConfig, variant: VariantBlock):
    tgt = cfg.target
    # the conditions are dimension-free; d = 1 only reads the variant's numerics
    ald = build_ald_config(cfg, variant, 1)
    pert = ald.perturbation or MixturePerturbation()
    return condition_report(
        tgt.weights,
        sigma_exponent=tgt.var_exponent,
        sigma_scales=tgt.var_scales,
        smooth=PowerLaw(ald.schedule.theta0 * ald.c_base.scale, ald.c_base.exponent),
        gamma=ald.gamma,
        dmean=pert.dmean,
        dsigma=pert.dvar,
        weights_tilde=np.asarray(tgt.weights) + pert.weight_shifts(len(tgt.weights)),
        mean_offsets=tgt.mean_offsets,
    )


def run_bounds_report(cfg: ExperimentConfig) -> dict:
    """Tabulate the closed-form bounds and condition verdicts for every variant.

    Each budget is integrated on ``error_budget``'s own kappa grid, and the
    conditions are read at ``condition_report``'s own probe dimensions.
    Writes a CSV of per-(variant, d) numbers plus a text report with the
    condition verdicts, and returns everything as a dict.
    """
    eps = cfg.sweep.epsilon
    numeric = []
    conditions = {}
    for variant in cfg.variants:
        for d in cfg.sweep.d_values:
            score_in, init_in, sched = _variant_bound_inputs(cfg, variant, d)
            budget = error_budget(score_in, sched.t_horizon, init_inputs=init_in)
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
        conditions[variant.name] = variant_condition_report(cfg, variant)

    path = cfg.output.csv
    cols = (
        "variant", "d", "kd", "t_for_epsilon", "init_kl_bound",
        "int_bcomp", "int_bresp", "int_bresp_envelope", "bias_bound", "total_bound",
    )
    _write_csv(path, cols, ([rec[c] for c in cols] for rec in numeric))
    txt_path = path.rsplit(".", 1)[0] + ".txt"
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
    "knn_robustness": run_knn_robustness,
}


def run_experiment(cfg: ExperimentConfig, workers=None, cache: bool = True) -> list:
    """Run an experiment end to end: cells, CSV, and plot script."""
    if cfg.experiment == "bounds_report":
        run_bounds_report(cfg)
        return []
    runner = RUNNERS[cfg.experiment]
    rows = runner(cfg, workers=workers, cache=cache)
    emit_csv(rows, cfg.output.csv)
    if cfg.output.plot_script:
        emit_plot_script(cfg.output.plot_script, cfg.output.csv)
    return rows
