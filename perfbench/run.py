#!/usr/bin/env python3
"""aldlab benchmark: three user commands, timed end to end and traced by layer.

Run from the root of an aldlab checkout::

    python3 perfbench/run.py --workload fig2_ci --seed 1 --seconds 25 --trace 0

Workloads are ``fig2_ci``, ``knn_robustness_ci`` and ``bounds_report`` (see
``workloads.py`` and ``perfbench/README.md``). Everything runs in this one
process, one operation at a time, with ``workers=1`` and BLAS threads pinned
to 1. Timed passes repeat until ``--seconds`` would be exceeded (at least
one). With ``--trace 0`` the result holds the end-to-end metrics, from
untraced passes; with ``--trace 1`` untraced and traced passes alternate and
the result holds the per-layer metrics of the traced ones plus the tracing
overhead. The last line of standard output is the result as JSON; metric
names and units are those of ``BENCHMARK.json``. Scratch files go under
``perfbench/.work/`` and are removed on exit; a traced run leaves the spans
of its last traced pass in ``perfbench/out/``.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# Pinned before numpy is first imported, here and in every child process.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig2_ci", "knn_robustness_ci", "bounds_report")
REQUIRED = (
    "BENCHMARK.json",
    "src/aldlab/__init__.py",
    "configs/fig2.cfg",
    "configs/knn_robustness.cfg",
    "configs/bounds.cfg",
)
SETUP_PROBES = 8  # extra set-ups in fresh processes; set-up is their median with ours
CHILD_TIMEOUT_S = 150


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=None, help="master seed; default: the config's seed")
    p.add_argument("--seconds", type=float, default=25.0, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--fill", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload: str, seed, outdir: str):
    """Imports, config load, CI profile and seed override: what a user's command pays first."""
    import workloads

    return workloads.load_workload_config(ROOT, workload, seed, outdir)


def child(args: list) -> float:
    """Run this script in a fresh process; return its wall time."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, os.path.abspath(__file__), *args], check=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0


def setup_probe() -> float:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *sys.argv[1:], "--probe-setup"],
        check=True, timeout=CHILD_TIMEOUT_S, capture_output=True, text=True,
    )
    return float(out.stdout.split()[-1])


def environment() -> dict:
    import numpy as np

    from aldlab import engine

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in THREAD_ENV},
        "block_size": engine.BLOCK_SIZE,
        "commit": commit,
    }


def timed_passes(work, seconds: float, trace: bool) -> dict:
    """Alternate untraced (and, when tracing, traced) passes until the time is used."""
    import tracing

    walls = {False: [], True: []}
    cpu = {False: [], True: []}
    layers = []
    spans = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        traced = trace and len(walls[True]) < len(walls[False])
        outdir = work.pass_dir()
        os.makedirs(outdir, exist_ok=True)
        tracer = tracing.Tracer() if traced else None
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            if traced:
                with tracer.patched(), tracer.span("pass") as root:
                    work.run(outdir, tracer.span)
            else:
                work.run(outdir, nullcontext)
            wall = time.perf_counter() - t0
            cpu[traced].append(time.process_time() - c0)
            outcome = work.check(outdir)
        except Exception:  # a pass that raises counts as one failed operation and ends the run
            traceback.print_exc()
            attempted += 1
            failed += 1
            break
        attempted += outcome.ops
        failed += min(outcome.ops, len(outcome.failures))
        for msg in outcome.failures:
            print("check failed:", msg, file=sys.stderr)
        walls[traced].append(wall)
        if traced:
            layers.append(tracing.layer_metrics(tracer.spans, root))
            spans = tracer.spans
        elapsed = time.perf_counter() - start
        typical = statistics.median(walls[False] + walls[True])
        done = walls[False] and (walls[True] or not trace)
        if done and elapsed + typical > seconds:
            break
    return {"walls": walls, "cpu": cpu, "layers": layers, "spans": spans, "attempted": attempted, "failed": failed}


def metric_table() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"run.py: not an aldlab checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    if args.probe_setup:
        setup(args.workload, args.seed, os.path.join(HERE, ".work", "probe"))
        print(time.perf_counter() - _T0)
        return 0
    if args.fill:
        import workloads

        workloads.run_sweep(ROOT, args.seed, args.fill)
        outcome = workloads.check_sweep(ROOT, args.seed, args.fill)
        for msg in outcome.failures:
            print("fill check failed:", msg, file=sys.stderr)
        return 1 if outcome.failures else 0

    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup(args.workload, args.seed, workdir)
        samples = [time.perf_counter() - _T0]
        samples += [setup_probe() for _ in range(SETUP_PROBES)]
        setup_s = statistics.median(samples)
        import workloads

        work = workloads.Workload(ROOT, args.workload, args.seed, workdir)
        if args.workload == "knn_robustness_ci":
            # the program's own fig2 CI pass fills the chain cache, in its own process
            fill = ["--workload", "fig2_ci", "--fill", work.fill_dir]
            if args.seed is not None:
                fill += ["--seed", str(args.seed)]
            setup_s += child(fill)
        env = environment()
        print("env", json.dumps(env, sort_keys=True))
        res = timed_passes(work, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = res["walls"]
    if not walls[False] or (args.trace and not res["layers"]):
        print("run.py: no pass completed", file=sys.stderr)
        return 1
    print("passes", json.dumps({"untraced_s": walls[False], "traced_s": walls[True], "untraced_cpu_s": res["cpu"][False], "setup_s": samples}))
    if work.reference_csv is not None:
        print("bounds csv sha256", hashlib.sha256(work.reference_csv).hexdigest())

    table = metric_table()
    wall = statistics.median(walls[False])
    if args.trace:
        values = {
            name: statistics.median(layer[name] for layer in res["layers"])
            for name in res["layers"][0]
        }
        values["trace.overhead_frac"] = (statistics.median(walls[True]) - wall) / wall
        units = table["per_layer"]
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        trace_path = os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "spans": [s.as_dict() for s in res["spans"]]}, fh)
    else:
        values = {
            "wall_s": wall,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = table["end_to_end"]
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
