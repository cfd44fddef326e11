"""Spans recorded from the benchmark side around the program's public calls.

``Tracer.patched()`` swaps each name in ``PATCHES`` for a wrapper that opens
a span, calls the original and closes the span, and puts every original
back on exit. Spans live in memory as (id, parent id, name, start, end,
attrs); ``layer_metrics`` turns the spans of one pass into per-layer
numbers. A layer's ``*_s`` metric is self time: span duration minus the part
covered by its child spans. ``*_ms.d<d>`` metrics are the median inclusive
duration of one call at dimension d, and 0 where the workload has no such
call.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from aldlab import bounds, engine, experiments, mixture

FIG2_DS = (1, 5, 10, 15, 20, 25)
BOUNDS_DS = (1, 5, 20, 65)

# Spans whose self time belongs to a program layer rather than to the
# experiment harness or to the benchmark itself.
LAYER_SPANS = (
    "config.load",
    "engine.run_chains",
    "knn_kl.knn_kl",
    "mixture.build_target",
    "mixture.build_ald_config",
    "mixture.sample",
    "bounds.error_budget",
    "bounds.bresp_upper",
    "bounds.bcomp_bound",
    "conditions.condition_report",
    "experiments.cache_write",
    "experiments.cache_read",
)
HARNESS_SPANS = (
    "experiments.run_experiment",
    "experiments.run_bounds_report",
    "experiments.run_cell",
    "experiments.emit_csv",
    "experiments.emit_plot_script",
)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, sid, parent, name):
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = time.perf_counter()
        self.end = self.start
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "name": self.name,
            "start": self.start, "end": self.end, "attrs": self.attrs,
        }


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _chain_attrs(fn, args, kwargs, out) -> dict:
    a = _bound(fn, args, kwargs)
    n_chains = int(a["n_chains"])
    return {
        "d": a["config"].dim,
        "chains": n_chains,
        "steps": a["config"].schedule.n_steps - 1,
        "blocks": -(-n_chains // engine.BLOCK_SIZE),
    }


def _knn_attrs(fn, args, kwargs, out) -> dict:
    return {"n": out.n, "m": out.m, "d": out.dim, "k": out.k, "clamped": out.clamped_pairs}


def _budget_attrs(fn, args, kwargs, out) -> dict:
    return {"d": int(_bound(fn, args, kwargs)["inputs"].sigma.shape[1])}


def _file_attrs(fn, args, kwargs, out) -> dict:
    path = args[0]
    return {"bytes": os.path.getsize(path) if isinstance(path, str) else 0}


# (owner, attribute, span name, attrs from (fn, args, kwargs, result) or None)
PATCHES = (
    (experiments, "run_cell", "experiments.run_cell", None),
    (experiments, "emit_csv", "experiments.emit_csv", None),
    (experiments, "emit_plot_script", "experiments.emit_plot_script", None),
    (experiments, "build_target", "mixture.build_target", None),
    (experiments, "build_ald_config", "mixture.build_ald_config", None),
    (mixture.DiagGMM, "sample", "mixture.sample", None),
    (experiments, "run_chains", "engine.run_chains", _chain_attrs),
    (experiments, "knn_kl", "knn_kl.knn_kl", _knn_attrs),
    (experiments, "error_budget", "bounds.error_budget", _budget_attrs),
    (bounds, "bresp_upper", "bounds.bresp_upper", None),
    (bounds, "bcomp_bound", "bounds.bcomp_bound", None),
    (experiments, "condition_report", "conditions.condition_report", None),
    (np, "savez_compressed", "experiments.cache_write", _file_attrs),
    (np, "load", "experiments.cache_read", _file_attrs),
)


class Tracer:
    """Collects spans in memory; one instance per traced pass."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name: str) -> Span:
        rec = Span(len(self.spans), self._stack[-1] if self._stack else None, name)
        self.spans.append(rec)
        self._stack.append(rec.id)
        return rec

    def _close(self, rec: Span) -> None:
        rec.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if attrs is not None:
                rec.attrs = attrs(fn, args, kwargs, out)
            return out

        return traced

    @contextmanager
    def patched(self):
        saved = []
        try:
            for owner, attr, name, attrs in PATCHES:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn, attrs))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)


def _median_by_d(spans, ds, per_call) -> dict:
    groups = defaultdict(list)
    for s in spans:
        groups[s.attrs["d"]].append(per_call(s))
    return {d: statistics.median(groups[d]) if groups[d] else 0.0 for d in ds}


def layer_metrics(spans: list, root: Span) -> dict:
    """Per-layer numbers of one traced pass whose top span is ``root``."""
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    self_time = {s.id: s.duration - covered[s.id] for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def self_s(*names) -> float:
        return sum((self_time[s.id] for n in names for s in by_name[n]), 0.0)

    def enclosing_cell(s):
        while s.parent is not None:
            s = spans[s.parent]
            if s.name == "experiments.run_cell":
                return s.id
        return None

    chains = by_name["engine.run_chains"]
    knn = by_name["knn_kl.knn_kl"]
    reads = by_name["experiments.cache_read"]
    writes = by_name["experiments.cache_write"]
    simulated = {enclosing_cell(s) for s in chains}
    loaded = {enclosing_cell(s) for s in reads}
    cells = [s.id for s in by_name["experiments.run_cell"]]

    run_chains_s = self_s("engine.run_chains")
    chain_steps = sum(s.attrs["chains"] * s.attrs["steps"] for s in chains)
    knn_s = self_s("knn_kl.knn_kl")
    pair_evals = sum(s.attrs["n"] ** 2 + s.attrs["n"] * s.attrs["m"] for s in knn)
    step_ms = _median_by_d(chains, FIG2_DS, lambda s: 1e3 * s.duration / (s.attrs["blocks"] * s.attrs["steps"]))
    call_ms = _median_by_d(knn, FIG2_DS, lambda s: 1e3 * s.duration)
    budget_ms = _median_by_d(by_name["bounds.error_budget"], BOUNDS_DS, lambda s: 1e3 * s.duration)

    out = {
        "engine.run_chains_s": run_chains_s,
        "engine.chain_steps": chain_steps,
        "engine.chain_steps_per_s": chain_steps / run_chains_s if run_chains_s > 0 else 0.0,
    }
    out.update({f"engine.block_step_ms.d{d}": v for d, v in step_ms.items()})
    out.update(
        {
            "knn_kl.knn_kl_s": knn_s,
            "knn_kl.calls": len(knn),
            "knn_kl.pair_evals": pair_evals,
            "knn_kl.pair_evals_per_s": pair_evals / knn_s if knn_s > 0 else 0.0,
            "knn_kl.clamped_pairs": sum(s.attrs["clamped"] for s in knn),
        }
    )
    out.update({f"knn_kl.call_ms.d{d}": v for d, v in call_ms.items()})
    out.update(
        {
            "experiments.cache_write_s": self_s("experiments.cache_write"),
            "experiments.cache_write_bytes": sum(s.attrs["bytes"] for s in writes),
            "experiments.cache_read_s": self_s("experiments.cache_read"),
            "experiments.cache_read_bytes": sum(s.attrs["bytes"] for s in reads),
            "experiments.cache_misses": sum(1 for c in cells if c in simulated),
            "experiments.batch_hits": len(reads),
            "experiments.row_hits": sum(1 for c in cells if c not in simulated and c not in loaded),
            "experiments.self_s": self_s(*HARNESS_SPANS),
            "bounds.error_budget_s": self_s("bounds.error_budget"),
            "bounds.bresp_upper_s": self_s("bounds.bresp_upper"),
            "bounds.bcomp_bound_s": self_s("bounds.bcomp_bound"),
            "bounds.evals": len(by_name["bounds.bresp_upper"]),
            "conditions.condition_report_s": self_s("conditions.condition_report"),
            "mixture.build_s": self_s("mixture.build_target", "mixture.build_ald_config"),
            "mixture.sample_s": self_s("mixture.sample"),
            "config.load_s": self_s("config.load"),
            "trace.coverage_frac": self_s(*LAYER_SPANS) / root.duration if root.duration > 0 else math.nan,
            "trace.spans": len(spans),
        }
    )
    out.update({f"bounds.error_budget_ms.d{d}": v for d, v in budget_ms.items()})
    return out
