"""Config-driven experiment harness: sweeps, step searches, reports.

Every experiment fans out independent cells (variant, dimension, repeat),
each seeded from the master seed and the cell key, so results never depend
on execution order or worker count. Cells cache both their chain samples
and their finished result rows under a content digest: a rerun with an
unchanged config reuses the cache and reproduces the output byte for byte,
and the robustness study re-estimates divergences on stored batches without
re-simulating.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
import zipfile
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import engine
from .bounds import BoundInputs, error_budget, horizon
from .conditions import condition_report
from .config import ExperimentConfig, VariantBlock
from .engine import ALDConfig, ChainDivergenceError, make_schedule, run_chains
from .knn_kl import knn_kl, knn_kl_multi
from .mixture import DiagGMM, MixturePerturbation, build_truncated_mixture, smooth
from .spectra import PowerLaw

WORKERS_ENV = "ALDLAB_WORKERS"

# Names the float bits of chains and estimates. The chain-cache keys hash it
# (with engine.BLOCK_SIZE), so a change that moves those bits must bump it:
# cache entries from other numerics then miss instead of being served.
NUMERICS_VERSION = 2

CSV_HEADER = ("experiment", "variant", "d", "k", "seed", "repeat", "kl", "steps", "wall_time_s")


class ExperimentError(RuntimeError):
    """Raised for unrunnable experiment setups."""


@dataclass(frozen=True)
class ResultRow:
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


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def emit_csv(rows, path: str) -> None:
    """Write rows sorted by key; floats at 9 significant digits, LF endings."""
    ordered = sorted(rows, key=lambda r: r.key())
    keys = [r.key() for r in ordered]
    if len(set(keys)) != len(keys):
        dup = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise ExperimentError(f"duplicate result key {dup}")
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for r in ordered:
            fh.write(
                ",".join(
                    (
                        r.experiment,
                        r.variant,
                        str(r.d),
                        str(r.k),
                        str(r.seed),
                        str(r.repeat),
                        _fmt(float(r.kl)),
                        _fmt(r.steps),
                        _fmt(float(r.wall_time_s)),
                    )
                )
                + "\n"
            )


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


def _load_batch(cfg: ExperimentConfig, path: str, d: int):
    """The cached ``(chain samples, target samples)`` at ``path``, or None.

    A batch that is missing, unreadable (torn, say), of the wrong shape or
    not finite is None: no cache entry is ever served that a fresh
    simulation could not have written.
    """
    if not os.path.exists(path):
        return None
    try:
        with np.load(path) as data:
            arrays = data["samples"], data["target_samples"]
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile, zlib.error):
        return None
    shapes = (cfg.sampling.n_chains, d), (cfg.sampling.n_target_samples, d)
    if any(a.shape != shape or not np.all(np.isfinite(a)) for a, shape in zip(arrays, shapes)):
        return None
    return arrays


def _cell_digest(cfg: ExperimentConfig, variant: VariantBlock, d: int, repeat: int, n_steps: int) -> str:
    text = "|".join(
        [
            _batch_digest(cfg, variant, d, repeat, n_steps),
            f"k={cfg.sampling.k_primary}",
        ]
    )
    return hashlib.sha256(text.encode()).hexdigest()[:20]


@dataclass(frozen=True)
class CellResult:
    variant: str
    d: int
    repeat: int
    n_steps: int
    kl: float
    diverged: bool
    wall_time_s: float


def run_cell(
    cfg: ExperimentConfig,
    variant: VariantBlock,
    d: int,
    repeat: int,
    n_steps=None,
    cache: bool = True,
    keep_batch: bool = True,
) -> CellResult:
    """Simulate one (variant, d, repeat) cell and estimate its divergence.

    Cached by content digest; a cache hit returns the stored result verbatim
    (including its original wall time, so reruns reproduce output bytes).
    """
    steps = int(n_steps if n_steps is not None else cfg.schedule.n_steps)
    digest = _cell_digest(cfg, variant, d, repeat, steps)
    cdir = cache_dir(cfg)
    row_path = os.path.join(cdir, digest + ".json")
    npz_path = _batch_path(cfg, variant, d, repeat, steps)
    if cache and os.path.exists(row_path):
        with open(row_path, "r", encoding="utf-8") as fh:
            return CellResult(**json.load(fh))

    t0 = time.perf_counter()
    diverged = False
    kl = math.nan
    # simulated before (possibly under a different k): reuse the batch
    cached = _load_batch(cfg, npz_path, d) if cache else None
    if cached is not None:
        chain_samples, p_samples = cached
    else:
        target = build_target(cfg, d)
        ald = build_ald_config(cfg, variant, d, n_steps=steps)
        # seeded by the cell's physical identity (not the experiment kind), so
        # cached batches are interchangeable with fresh simulation everywhere
        seed = cell_seed(cfg.sampling.seed, variant.name, d, repeat, steps)
        try:
            chain_samples = run_chains(ald, target, cfg.sampling.n_chains, seed).samples
        except ChainDivergenceError:
            diverged = True
        if not diverged:
            p_rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 1)))
            p_samples = target.sample(cfg.sampling.n_target_samples, p_rng)
    if not diverged:
        kl = knn_kl(p_samples, chain_samples, cfg.sampling.k_primary).value
    wall = time.perf_counter() - t0
    result = CellResult(
        variant=variant.name,
        d=d,
        repeat=repeat,
        n_steps=steps,
        kl=float(kl),
        diverged=diverged,
        wall_time_s=wall,
    )
    if cache:
        os.makedirs(cdir, exist_ok=True)
        if keep_batch and not diverged and cached is None:
            # written aside and renamed, so a killed run never leaves a torn
            # batch under the name later cells load, and an unusable batch
            # there is replaced; the temporary name ends in .npz because
            # numpy appends that suffix to any other name
            tmp_npz = npz_path[: -len(".npz")] + f".tmp{os.getpid()}.npz"
            try:
                np.savez_compressed(tmp_npz, samples=chain_samples, target_samples=p_samples)
                os.replace(tmp_npz, npz_path)
            finally:
                if os.path.exists(tmp_npz):
                    os.remove(tmp_npz)
        tmp = row_path + f".tmp{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(result.__dict__, fh)
        os.replace(tmp, row_path)
    return result


def _cell_task(args) -> CellResult:
    cfg, variant, d, repeat, cache = args
    return run_cell(cfg, variant, d, repeat, cache=cache)


def resolve_workers(workers=None) -> int:
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(WORKERS_ENV, "")
    if env.strip():
        return max(1, int(env))
    return 1


def _fan_out(task, args: list, workers) -> list:
    """``[task(a) for a in args]``, in a process pool when more than one worker is resolved."""
    nworkers = resolve_workers(workers)
    if nworkers > 1:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            return list(pool.map(task, args))
    return [task(a) for a in args]


# -- sweep experiments (bias vs dimension) -----------------------------------


def run_kl_sweep(cfg: ExperimentConfig, workers=None, cache: bool = True) -> list:
    """Shared driver for the bias-vs-dimension experiments.

    Runs every (variant, d, repeat) cell at the configured schedule, writes
    one row per cell with the primary k.
    """
    tasks = [
        (cfg, variant, d, repeat, cache)
        for variant in cfg.variants
        for d in cfg.sweep.d_values
        for repeat in range(cfg.sampling.repeats)
    ]
    rows = []
    for res in _fan_out(_cell_task, tasks, workers):
        rows.append(
            ResultRow(
                experiment=cfg.experiment,
                variant=res.variant,
                d=res.d,
                k=cfg.sampling.k_primary,
                seed=cfg.sampling.seed,
                repeat=res.repeat,
                kl=res.kl,
                steps="diverged" if res.diverged else res.n_steps,
                wall_time_s=res.wall_time_s,
            )
        )
    return rows


# -- steps-to-accuracy search -------------------------------------------------


def _mean_kl_at(cfg: ExperimentConfig, variant: VariantBlock, d: int, n_steps: int, cache: bool) -> float:
    vals = []
    for repeat in range(cfg.sampling.repeats):
        res = run_cell(cfg, variant, d, repeat, n_steps=n_steps, cache=cache, keep_batch=False)
        vals.append(math.inf if res.diverged else res.kl)
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


def run_fig1_steps_to_accuracy(cfg: ExperimentConfig, workers=None, cache: bool = True) -> list:
    cells = [(variant, d) for variant in cfg.variants for d in cfg.sweep.d_values]
    found = _fan_out(_steps_task, [(cfg, variant, d, cache) for variant, d in cells], workers)
    rows = []
    for (variant, d), (steps, kl, wall) in zip(cells, found):
        rows.append(
            ResultRow(
                experiment=cfg.experiment,
                variant=variant.name,
                d=d,
                k=cfg.sampling.k_primary,
                seed=cfg.sampling.seed,
                repeat=0,
                kl=kl,
                steps=steps,
                wall_time_s=wall,
            )
        )
    return rows


def _steps_task(args):
    cfg, variant, d, cache = args
    t0 = time.perf_counter()
    steps, kl = steps_to_accuracy(cfg, variant, d, cache=cache)
    return steps, kl, time.perf_counter() - t0


# -- robustness to k ----------------------------------------------------------


def run_knn_robustness(cfg: ExperimentConfig, workers=None, cache: bool = True) -> list:
    """Re-estimate stored sweep batches at every configured k, without re-simulating."""
    rows = []
    for variant in cfg.variants:
        for d in cfg.sweep.d_values:
            for repeat in range(cfg.sampling.repeats):
                npz_path = _batch_path(cfg, variant, d, repeat, cfg.schedule.n_steps)
                batch = _load_batch(cfg, npz_path, d)
                if batch is None:
                    raise ExperimentError(
                        f"no usable cached batch for variant {variant.name!r}, d={d}, "
                        f"repeat={repeat}; run the sweep experiment first (expected {npz_path})"
                    )
                chain_samples, p_samples = batch
                t0 = time.perf_counter()
                estimates = knn_kl_multi(p_samples, chain_samples, cfg.sampling.k_values)
                # one search serves every k; each row carries an equal share
                share = (time.perf_counter() - t0) / len(estimates)
                for est in estimates:
                    rows.append(
                        ResultRow(
                            experiment="knn_robustness",
                            variant=variant.name,
                            d=d,
                            k=est.k,
                            seed=cfg.sampling.seed,
                            repeat=repeat,
                            kl=est.value,
                            steps=cfg.schedule.n_steps,
                            wall_time_s=share,
                        )
                    )
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


def variant_condition_report(cfg: ExperimentConfig, variant: VariantBlock, d_probe=(100, 1000, 10000)):
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
        d_probe=d_probe,
    )


def run_bounds_report(cfg: ExperimentConfig, grid_size: int = 512) -> dict:
    """Tabulate the closed-form bounds and condition verdicts for every variant.

    Writes a CSV of per-(variant, d) numbers plus a text report with the
    condition verdicts, and returns everything as a dict.
    """
    eps = cfg.sweep.epsilon
    numeric = []
    conditions = {}
    for variant in cfg.variants:
        for d in cfg.sweep.d_values:
            score_in, init_in, sched = _variant_bound_inputs(cfg, variant, d)
            budget = error_budget(score_in, sched.t_horizon, grid_size=grid_size, init_inputs=init_in)
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
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    cols = (
        "variant", "d", "kd", "t_for_epsilon", "init_kl_bound",
        "int_bcomp", "int_bresp", "int_bresp_envelope", "bias_bound", "total_bound",
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for rec in numeric:
            fh.write(",".join(_fmt(rec[c]) for c in cols) + "\n")
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


def emit_plot_script(rows, path: str, csv_path: str) -> None:
    """Write a self-contained script that re-plots the CSV.

    The script is ``plot_template.py`` with its constants block filled in; it
    needs only the standard library and matplotlib, and only drawing needs
    matplotlib: its ``series()`` reads the CSV and returns what is drawn, and
    can be imported without it. The template's ``LOG_FLOOR`` is applied only
    to non-positive estimates, and only because the y axis is logarithmic; a
    diverged (NaN) mean stays NaN and leaves a gap. The CSV itself keeps raw
    values.
    """
    ks = sorted({r.k for r in rows})
    if len(ks) > 1:
        variants = sorted({f"{r.variant} (k={r.k})" for r in rows})
    else:
        variants = sorted({r.variant for r in rows})
    experiments = sorted({r.experiment for r in rows})
    steps_mode = bool(rows) and all(r.experiment == "fig1_steps_to_accuracy" for r in rows)
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    rel_csv = os.path.relpath(os.path.abspath(csv_path), parent)
    constants = [
        f"CSV = os.path.join(os.path.dirname(os.path.abspath(__file__)), {rel_csv!r})",
        f"VARIANTS = {variants!r}",
        f"TITLE = {' / '.join(experiments)!r}",
        f"STEPS_MODE = {steps_mode!r}",
    ]
    with open(_PLOT_TEMPLATE, "r", encoding="utf-8") as fh:
        template = fh.read()
    head, _, rest = template.partition(_CONSTANTS_BEGIN)
    _, _, tail = rest.partition(_CONSTANTS_END)
    text = head + _CONSTANTS_BEGIN + "\n".join(constants) + "\n" + _CONSTANTS_END + tail
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


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
        emit_plot_script(rows, cfg.output.plot_script, cfg.output.csv)
    return rows
