"""Command-line harness.

Verbs::

    aldlab run <config>       run an experiment (CSV + plot script)
    aldlab bounds <config>    closed-form bound / condition report
    aldlab kl --p A --q B --k 20     kNN divergence between two sample files
    aldlab schedule --n 20000 --dt 9e-3 --s 20    print the smoothing levels

``run --seed`` overrides the config seed; ``run --profile ci`` shrinks a run
to desk scale; ``run --workers N`` sets the cell worker pool (one worker by
default) of every sweep, step search and robustness study. ``bounds`` takes
the config alone: its report is closed-form and draws nothing, and ``run``
refuses a bounds config.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .bounds import BoundsError
from .config import ConfigError, apply_ci_profile, load_config
from .engine import EngineError, make_schedule
from .experiments import ExperimentError, run_bounds_report, run_experiment
from .knn_kl import KnnError, knn_kl
from .mixture import MixtureError
from .spectra import SpectrumError


def _load_matrix(path: str) -> np.ndarray:
    """The sample matrix in ``path``, comma- or whitespace-delimited; a file that is not one is a KnnError.

    The delimiter is read from the first data row, the first line that holds more than blanks and a ``#`` comment.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            head = next((data for data in (line.split("#", 1)[0] for line in fh) if data.strip()), None)
        if head is not None:
            return np.loadtxt(path, delimiter="," if "," in head else None, ndmin=2)
    except ValueError as err:
        raise KnnError(f"{path} is not a numeric sample matrix: {err}") from None
    raise KnnError(f"{path} holds no data rows")


def _apply_overrides(cfg, args):
    if args.profile == "ci":
        cfg = apply_ci_profile(cfg)
    if args.seed is not None:
        cfg = replace(cfg, sampling=replace(cfg.sampling, seed=args.seed))
    return cfg


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def cmd_run(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    rows = run_experiment(cfg, workers=args.workers, cache=not args.no_cache)
    print(f"{cfg.experiment}: {len(rows)} rows -> {cfg.output.csv}")
    if cfg.output.plot_script:
        print(f"plot script -> {cfg.output.plot_script}")
    return 0


def cmd_bounds(args) -> int:
    report = run_bounds_report(load_config(args.config))
    print(f"bounds report -> {report['csv']} and {report['txt']}")
    for vname, cond in report["conditions"].items():
        verdicts = ", ".join(f"{rec.name}={rec.verdict}" for rec in cond.records)
        print(f"  {vname}: {verdicts}")
    return 0


def cmd_kl(args) -> int:
    p = _load_matrix(args.p)
    q = _load_matrix(args.q)
    est = knn_kl(p, q, args.k)
    print(
        f"kl={est.value:.9g} k={est.k} n={est.n} m={est.m} dim={est.dim} "
        f"clamped_pairs={est.clamped_pairs}"
    )
    return 0


def cmd_schedule(args) -> int:
    sched = make_schedule(args.n, args.dt, args.s)
    print(f"n_steps={sched.n_steps} dt={sched.dt:g} s_half={sched.s_half:g} "
          f"theta0={sched.theta0:g} t_horizon={sched.t_horizon:.6g}")
    print("k,theta,kappa")
    idx = np.unique(np.clip(np.linspace(0, sched.n_steps - 1, min(args.rows, sched.n_steps)), 0, None).astype(int))
    for k in idx:
        print(f"{k},{sched.theta(int(k)):.9g},{sched.kappa(int(k)):.9g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aldlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None, help="override master seed")
    p_run.add_argument("--profile", choices=("full", "ci"), default="full")
    p_run.add_argument("--workers", type=_positive_int, default=None, help="cell worker processes (at least 1)")
    p_run.add_argument("--no-cache", action="store_true", help="ignore and skip the cell cache")
    p_run.set_defaults(func=cmd_run)

    p_bounds = sub.add_parser("bounds", help="closed-form bound report from a config file")
    p_bounds.add_argument("config")
    p_bounds.set_defaults(func=cmd_bounds)

    p_kl = sub.add_parser("kl", help="kNN KL estimate between two numeric matrix files")
    p_kl.add_argument("--p", required=True, help="samples of the reference law (rows)")
    p_kl.add_argument("--q", required=True, help="samples of the comparison law (rows)")
    p_kl.add_argument("--k", required=True, type=int)
    p_kl.set_defaults(func=cmd_kl)

    p_sched = sub.add_parser("schedule", help="print the linear smoothing schedule")
    p_sched.add_argument("--n", required=True, type=int)
    p_sched.add_argument("--dt", required=True, type=float)
    p_sched.add_argument("--s", required=True, type=float)
    p_sched.add_argument("--rows", type=_positive_int, default=11, help="table rows to print (at least 1)")
    p_sched.set_defaults(func=cmd_schedule)
    return parser


def main(argv=None) -> int:
    """Run one verb; a lab error or an unreadable file is one ``aldlab: <message>`` line on stderr and status 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        ConfigError, ExperimentError, EngineError, KnnError, MixtureError, BoundsError, SpectrumError,
        OSError,
    ) as err:
        print(f"aldlab: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
