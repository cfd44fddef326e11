import concurrent.futures
import dataclasses
import hashlib
import importlib.util
import inspect
import json
import math
import os
import runpy
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from aldlab import engine, experiments, plot_template
from aldlab.bounds import BoundInputs, error_budget, weight_kl
from aldlab.config import load_config, parse_config_text
from aldlab.experiments import (
    ExperimentError,
    ResultRow,
    cache_dir,
    emit_csv,
    emit_plot_script,
    read_csv_rows,
    run_bounds_report,
    run_cell,
    run_experiment,
    run_kl_sweep,
    steps_to_accuracy,
)
from conftest import BOUNDS_DWEIGHTS, variant_named

knn_kl_module = importlib.import_module("aldlab.knn_kl")  # the package name knn_kl is the function

TINY_FIG2 = """
[experiment]
kind = fig2_bias_vs_dim
name = tiny

[target]
weights = 0.75, 0.25
mean_offsets = 0.0, 10.0
var_exponent = 1.25
var_scales = 1.2, 2.0

[schedule]
n_steps = 80
dt = 0.05
s_half = 20.0

[sampling]
n_chains = 80
n_target_samples = 80
k_values = 5, 10
repeats = 2
seed = 777

[sweep]
d_values = 1, 2

[variant green]
gamma_exponent = 1.5
cbase_exponent = 2.7

[variant red]
gamma_scale = 1.0
cbase_scale = 1.0
"""


TINY_GREEN = variant_named(parse_config_text(TINY_FIG2), "green")


def tiny_cfg(tmp_path, text=TINY_FIG2, name="out"):
    cfg = parse_config_text(text)
    return replace(
        cfg,
        output=replace(
            cfg.output,
            csv=str(tmp_path / f"{name}.csv"),
            plot_script=str(tmp_path / f"{name}_plot.py"),
        ),
    )


class TestEmitCsv:
    def test_header_only(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        emit_csv([], path)
        with open(path, "rb") as fh:
            data = fh.read()
        assert data == b"experiment,variant,d,k,seed,repeat,kl,steps,wall_time_s\n"

    def test_roundtrip(self, tmp_path):
        rows = [
            ResultRow("fig2_bias_vs_dim", "green", 5, 20, 1, 0, 0.123456789123, 100, 2.5),
            ResultRow("fig2_bias_vs_dim", "green", 1, 20, 1, 0, -0.25, "cap_exceeded", 0.5),
        ]
        path = str(tmp_path / "rt.csv")
        emit_csv(rows, path)
        back = read_csv_rows(path)
        assert back[0].d == 1 and back[0].steps == "cap_exceeded"
        assert back[1].kl == pytest.approx(0.123456789, rel=1e-9)

    def test_duplicate_keys_rejected(self, tmp_path):
        row = ResultRow("e", "v", 1, 20, 1, 0, 0.0, 10, 0.0)
        with pytest.raises(ExperimentError, match="duplicate"):
            emit_csv([row, row], str(tmp_path / "dup.csv"))

    def test_sorted_output(self, tmp_path):
        rows = [
            ResultRow("e", "v", 5, 20, 1, 0, 0.0, 10, 0.0),
            ResultRow("e", "v", 1, 20, 1, 0, 0.0, 10, 0.0),
        ]
        path = str(tmp_path / "sorted.csv")
        emit_csv(rows, path)
        back = read_csv_rows(path)
        assert [r.d for r in back] == [1, 5]


class TestSweepExperiment:
    def test_rows_and_determinism(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        rows = run_experiment(cfg)
        # 2 variants x 2 dims x 2 repeats
        assert len(rows) == 8
        with open(cfg.output.csv, "rb") as fh:
            first = fh.read()
        # cached rerun reproduces bytes
        run_experiment(cfg)
        with open(cfg.output.csv, "rb") as fh:
            assert fh.read() == first
        # fresh cache reproduces all value columns
        cfg2 = replace(
            cfg,
            output=replace(cfg.output, csv=str(tmp_path / "b" / "out.csv"),
                           plot_script=""),
        )
        rows2 = run_experiment(cfg2)
        a = sorted((r.key(), r.kl, r.steps) for r in rows)
        b = sorted((r.key(), r.kl, r.steps) for r in rows2)
        assert a == b

    def test_worker_pool_matches_serial(self, tmp_path):
        cfg = tiny_cfg(tmp_path, name="serial")
        serial = {r.key(): r.kl for r in run_experiment(cfg, workers=1)}
        cfg2 = tiny_cfg(tmp_path / "w2", name="pool")
        os.makedirs(tmp_path / "w2", exist_ok=True)
        pooled = {r.key(): r.kl for r in run_experiment(cfg2, workers=2)}
        assert serial.keys() == {k for k in pooled}
        for key, val in serial.items():
            assert pooled[key] == val

    def test_pool_gets_longest_cells_first_and_rows_keep_order(self, monkeypatch):
        # the pool is handed the tasks in descending d, ties in the given order,
        # and the results come back in the given order
        handed = []

        class Pool:
            def __init__(self, max_workers):
                assert max_workers == 2

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                handed.extend(items)
                return map(fn, items)

        # _fan_out imports the pool class only when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        args = [("cfg", "v", d, r) for d, r in ((1, 0), (25, 0), (5, 0), (25, 1), (10, 0))]
        assert experiments._fan_out(lambda a: a[2:], args, 2) == [a[2:] for a in args]
        assert [a[2:] for a in handed] == [(25, 0), (25, 1), (10, 0), (5, 0), (1, 0)]

    def test_torn_batch_write_leaves_no_batch(self, tmp_path, monkeypatch):
        # a run killed inside savez must not leave a partial batch
        # under the name that later cells and the robustness study load
        cfg = tiny_cfg(tmp_path, name="torn")
        green = variant_named(cfg, "green")

        def torn(path, **arrays):
            with open(path, "wb") as fh:
                fh.write(b"PK\x03\x04 partial")
            raise OSError("killed mid-write")

        monkeypatch.setattr(np, "savez", torn)
        with pytest.raises(OSError, match="mid-write"):
            run_cell(cfg, green, 2, 0)
        monkeypatch.undo()
        assert os.listdir(cache_dir(cfg)) == []
        (again,) = run_cell(cfg, green, 2, 0)
        assert math.isfinite(again.kl)
        assert sum(f.endswith(".npz") for f in os.listdir(cache_dir(cfg))) == 1

    def test_compressed_batch_is_served(self, tmp_path, monkeypatch):
        # batches were once written compressed; such a batch still loads
        # as it is and spares the simulation
        cfg = tiny_cfg(tmp_path)
        (first,) = run_cell(cfg, TINY_GREEN, 2, 0)
        cdir = cache_dir(cfg)
        (npz,) = [os.path.join(cdir, f) for f in os.listdir(cdir) if f.endswith(".npz")]
        with np.load(npz) as data:
            samples = data["samples"]
        np.savez_compressed(npz, samples=samples)
        monkeypatch.setattr(experiments, "run_chains", no_simulation)
        assert run_cell(cfg, TINY_GREEN, 2, 0)[0].kl == first.kl

    @pytest.mark.parametrize("spoil", ["torn", "wrong_shape", "non_finite"])
    def test_unusable_batch_is_resimulated_and_replaced(self, tmp_path, spoil):
        # a batch that cannot be served is a cache miss: the cell re-simulates
        # the same bits and the spoiled file is replaced by a usable one
        (clean,) = run_cell(tiny_cfg(tmp_path / "clean"), TINY_GREEN, 2, 0)
        cfg = tiny_cfg(tmp_path / "spoiled")
        run_cell(cfg, TINY_GREEN, 2, 0)
        cdir = cache_dir(cfg)
        (npz,) = [os.path.join(cdir, f) for f in os.listdir(cdir) if f.endswith(".npz")]
        with np.load(npz) as data:
            good = data["samples"]
        if spoil == "torn":
            with open(npz, "rb") as fh:
                head = fh.read()[: os.path.getsize(npz) // 2]
            with open(npz, "wb") as fh:
                fh.write(head)
        elif spoil == "wrong_shape":
            np.savez_compressed(npz, samples=good[:3])
        else:
            bad = good.copy()
            bad[0, 0] = np.nan
            np.savez_compressed(npz, samples=bad)
        (again,) = run_cell(cfg, TINY_GREEN, 2, 0)
        assert again.kl == clean.kl
        with np.load(npz) as data:
            np.testing.assert_array_equal(data["samples"], good)

    def test_fresh_batch_holds_samples_and_estimates_only(self, tmp_path):
        # the target sample is redrawn from the cell seed, never stored
        cfg = tiny_cfg(tmp_path, name="fresh")
        run_cell(cfg, TINY_GREEN, 2, 0)
        (npz,) = [os.path.join(cache_dir(cfg), f) for f in os.listdir(cache_dir(cfg))]
        with np.load(npz) as data:
            assert sorted(data.files) == ["kl", "ks", "samples", "wall_time_s"]

    def test_record_holds_what_the_key_does_not(self, tmp_path, monkeypatch):
        cfg = tiny_cfg(tmp_path, name="row")
        (row,) = run_cell(cfg, TINY_GREEN, 2, 1)
        assert row.key() == ("fig2_bias_vs_dim", "green", 2, 5, 777, 1)
        assert row.steps == cfg.schedule.n_steps
        (npz,) = [os.path.join(cache_dir(cfg), f) for f in os.listdir(cache_dir(cfg))]
        with np.load(npz) as data:
            assert data["ks"].tolist()[0] == cfg.sampling.k_primary
            assert data["kl"].tolist()[0] == row.kl
            assert data["wall_time_s"].shape == () and float(data["wall_time_s"]) == row.wall_time_s
            samples, ks = data["samples"], data["ks"]
        calls = spy_searches(monkeypatch)
        assert run_cell(cfg, TINY_GREEN, 2, 1) == [row]  # a hit returns the stored row verbatim
        # the stored primary estimate is served as it is, with no search
        np.savez(npz, samples=samples, ks=ks, kl=np.array([0.25, 0.5]), wall_time_s=np.float64(1.5))
        assert run_cell(cfg, TINY_GREEN, 2, 1) == [replace(row, kl=0.25, wall_time_s=1.5)]
        assert calls == []

    def test_batch_kept_only_at_the_schedule_length(self, tmp_path):
        # the robustness study reads samples of the config's own length only;
        # a record of another length holds the primary k's estimate alone
        cfg = tiny_cfg(tmp_path, name="keep")
        members = {}
        for n_steps in (40, cfg.schedule.n_steps):
            experiments._cell(cfg, TINY_GREEN, 1, 0, n_steps, cache=True)
            with np.load(experiments._batch_path(cfg, TINY_GREEN, 1, 0, n_steps)) as data:
                members[n_steps] = (sorted(data.files), data["ks"].tolist())
        assert members == {
            40: (["kl", "ks", "wall_time_s"], [5]),
            80: (["kl", "ks", "samples", "wall_time_s"], [5, 10]),
        }

    def test_row_file_of_the_older_shape_is_never_read(self, tmp_path):
        # rows were once cached in JSON files beside the batches, first holding
        # the whole cell record, then only kl, steps and wall_time_s; no such
        # file is read, so neither can be a hit or an error
        cfg = tiny_cfg(tmp_path, name="old")
        (fresh,) = run_cell(tiny_cfg(tmp_path / "fresh"), TINY_GREEN, 2, 0)
        batch = experiments._batch_digest(cfg, TINY_GREEN, 2, 0, cfg.schedule.n_steps)
        k = cfg.sampling.k_primary
        os.makedirs(cache_dir(cfg))
        for suffix, row in [
            ("", {"variant": "green", "d": 2, "repeat": 0, "n_steps": 80, "kl": 9.0,
                  "diverged": False, "wall_time_s": 0.0}),
            ("|row=kl,steps,wall_time_s", {"kl": 9.0, "steps": 80, "wall_time_s": 0.0}),
        ]:
            old = hashlib.sha256(f"{batch}|k={k}{suffix}".encode()).hexdigest()[:20]
            with open(os.path.join(cache_dir(cfg), old + ".json"), "w") as fh:
                json.dump(row, fh)
        assert run_cell(cfg, TINY_GREEN, 2, 0)[0].kl == fresh.kl

    def test_diverged_cell_is_recorded_without_samples(self, tmp_path, monkeypatch):
        cfg = tiny_cfg(tmp_path, text=TINY_FIG2.replace("dt = 0.05", "dt = 1e6"), name="div")
        rows = run_experiment(cfg)
        assert len(rows) == 8
        assert all(math.isnan(r.kl) and r.steps == "diverged" for r in read_csv_rows(cfg.output.csv))
        with open(cfg.output.csv, "rb") as fh:
            first = fh.read()
        records = TestKnnRobustness._batches(cfg)
        assert len(records) == 8
        for npz in records:
            with np.load(npz) as data:
                assert sorted(data.files) == ["kl", "ks", "wall_time_s"]
                assert data["ks"].shape == data["kl"].shape == (0,)
        monkeypatch.setattr(experiments, "run_chains", no_simulation)
        run_experiment(cfg)
        with open(cfg.output.csv, "rb") as fh:
            assert fh.read() == first
        rob = run_kl_sweep(replace(cfg, experiment="knn_robustness"))
        assert len(rob) == 16 and all(math.isnan(r.kl) and r.steps == "diverged" for r in rob)

    def test_cached_reruns_read_no_samples(self, tmp_path, monkeypatch):
        # every row of a rerun, and every estimate the sweep stored, is read
        # from the records alone
        cfg = tiny_cfg(tmp_path, name="rerun")
        run_experiment(cfg)
        with open(cfg.output.csv, "rb") as fh:
            first = fh.read()

        def no_samples(*args, **kwargs):
            raise AssertionError("samples were read")

        monkeypatch.setattr(experiments, "_load_samples", no_samples)
        run_experiment(cfg)
        with open(cfg.output.csv, "rb") as fh:
            assert fh.read() == first
        assert len(run_kl_sweep(replace(cfg, experiment="knn_robustness"))) == 16

    def test_plot_script_lists_variants_and_runs(self, tmp_path):
        cfg = tiny_cfg(tmp_path, name="plot")
        run_experiment(cfg)
        with open(cfg.output.plot_script, encoding="utf-8") as fh:
            assert "LOG_FLOOR" in fh.read()
        by_cell = {}
        for r in read_csv_rows(cfg.output.csv):
            by_cell.setdefault(r.variant, {}).setdefault(r.d, []).append(r.kl)
        got = plot_series(cfg.output.plot_script)
        assert list(got) == ["green", "red"]
        for variant, by_d in by_cell.items():
            ds, ys = got[variant]
            assert ds == sorted(by_d)
            means = [sum(by_d[d]) / len(by_d[d]) for d in ds]
            floored = [plot_template.LOG_FLOOR if m <= 0 else m for m in means]
            assert ys == pytest.approx(floored, rel=1e-12)


def no_simulation(*args, **kwargs):
    raise AssertionError("a cached cell was simulated again")


def spy_searches(monkeypatch):
    """Record the ranks of every kNN search from here on."""
    calls = []
    search = knn_kl_module.knn_distances

    def spy(points, queries, k, exclude_self=False):
        calls.append(tuple(k))
        return search(points, queries, k, exclude_self=exclude_self)

    monkeypatch.setattr(knn_kl_module, "knn_distances", spy)
    return calls


def plot_series(script):
    """The emitted script's data half, loaded without running its main()."""
    return runpy.run_path(script)["series"]()


def emit_rows(tmp_path, name, rows):
    """Write rows as <name>.csv and emit <name>_plot.py for them; return the script."""
    csv = str(tmp_path / f"{name}.csv")
    script = str(tmp_path / f"{name}_plot.py")
    emit_csv(rows, csv)
    emit_plot_script(script, csv)
    return script


def multi_k_rows():
    rows = []
    for variant in ("green", "red"):
        for k in (20, 50):
            for d in (5, 25):
                rows.append(
                    ResultRow("knn_robustness", variant, d, k, 1, 0, 0.1 * d / k, 2000, 0.1)
                )
    return rows


def fig1_rows():
    cells = [("green", 1, 100), ("green", 5, 400), ("green", 10, "cap_exceeded"),
             ("red", 1, 200), ("red", 5, "cap_exceeded"), ("red", 10, "cap_exceeded")]
    return [ResultRow("fig1_steps_to_accuracy", v, d, 20, 1, 0, 0.01, s, 0.1) for v, d, s in cells]


def test_multi_k_plot_script(tmp_path):
    got = plot_series(emit_rows(tmp_path, "rob", multi_k_rows()))
    assert list(got) == ["green (k=20)", "green (k=50)", "red (k=20)", "red (k=50)"]
    for k in (20, 50):
        for variant in ("green", "red"):
            ds, ys = got[f"{variant} (k={k})"]
            assert ds == [5, 25]
            assert ys == pytest.approx([0.1 * 5 / k, 0.1 * 25 / k], rel=1e-8)


def test_plot_series_floors_only_non_positive_means(tmp_path):
    rows = [
        ResultRow("fig2_bias_vs_dim", "green", 1, 20, 1, 0, 0.05, 100, 0.1),
        ResultRow("fig2_bias_vs_dim", "green", 5, 20, 1, 0, math.nan, "diverged", 0.1),
        ResultRow("fig2_bias_vs_dim", "green", 10, 20, 1, 0, 0.02, 100, 0.1),
        ResultRow("fig2_bias_vs_dim", "green", 10, 20, 1, 1, math.nan, "diverged", 0.1),
        ResultRow("fig2_bias_vs_dim", "green", 20, 20, 1, 0, -0.01, 100, 0.1),
    ]
    ds, ys = plot_series(emit_rows(tmp_path, "div", rows))["green"]
    assert ds == [1, 5, 10, 20]
    assert ys[0] == pytest.approx(0.05)
    # a diverged cell, or one diverged repeat, leaves a gap: never the floor
    assert math.isnan(ys[1]) and math.isnan(ys[2])
    assert ys[3] == 1e-4


def test_plot_series_steps_mode(tmp_path):
    assert plot_series(emit_rows(tmp_path, "steps", fig1_rows())) == {
        "green": ([1, 5], [100, 400]),
        "green (cap exceeded)": ([10], [400]),
        "red": ([1], [200]),
        "red (cap exceeded)": ([5, 10], [200, 200]),
    }


def test_plot_scripts_render(tmp_path):
    pytest.importorskip("matplotlib")
    cfg = tiny_cfg(tmp_path, name="plot")
    run_experiment(cfg)
    scripts = [
        cfg.output.plot_script,
        emit_rows(tmp_path, "rob", multi_k_rows()),
        emit_rows(tmp_path, "steps", fig1_rows()),
    ]
    for script in scripts:
        proc = subprocess.run([sys.executable, script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert os.path.exists(os.path.splitext(script)[0] + ".png")


class TestKnnRobustness:
    def test_reuses_cached_batches(self, tmp_path):
        cfg = tiny_cfg(tmp_path, name="rob")
        run_experiment(cfg)
        rob_cfg = replace(cfg, experiment="knn_robustness")
        rows = run_kl_sweep(rob_cfg)
        # 2 variants x 2 d x 2 repeats x 2 k
        assert len(rows) == 16
        ks = {r.k for r in rows}
        assert ks == {5, 10}
        keyed = {(r.variant, r.d, r.repeat, r.k) for r in rows}
        assert len(keyed) == 16

    def test_torn_batch_names_the_cell(self, tmp_path, monkeypatch):
        cfg = tiny_cfg(tmp_path, name="rob")
        run_experiment(cfg)
        cdir = cache_dir(cfg)
        for f in os.listdir(cdir):
            if f.endswith(".npz"):
                with open(os.path.join(cdir, f), "wb") as fh:
                    fh.write(b"PK\x03\x04 partial")
        rob_cfg = replace(cfg, experiment="knn_robustness")
        monkeypatch.setattr(experiments, "run_chains", no_simulation)
        with pytest.raises(ExperimentError, match="variant 'green', d=1, repeat=0; run the sweep"):
            run_kl_sweep(rob_cfg)

    @pytest.mark.parametrize("owner, name", [(experiments, "NUMERICS_VERSION"), (engine, "BLOCK_SIZE")])
    def test_other_numerics_miss_the_cache(self, tmp_path, monkeypatch, owner, name):
        # a batch simulated under other numerics is never served: the keys
        # hash the numerics version and the block size
        cfg = tiny_cfg(tmp_path, name="rob")
        run_experiment(cfg)
        rob_cfg = replace(cfg, experiment="knn_robustness")
        assert len(run_kl_sweep(rob_cfg)) == 16
        monkeypatch.setattr(owner, name, getattr(owner, name) + 1)
        monkeypatch.setattr(experiments, "run_chains", no_simulation)
        with pytest.raises(ExperimentError, match="variant 'green', d=1, repeat=0; run the sweep"):
            run_kl_sweep(rob_cfg)

    def test_refuses_to_run_without_the_cache(self, tmp_path, monkeypatch):
        # the study has nothing to simulate: with the cache off it would still
        # have read it, so it refuses instead
        cfg = tiny_cfg(tmp_path, name="rob")
        run_experiment(cfg)
        rob_cfg = replace(cfg, experiment="knn_robustness")
        monkeypatch.setattr(experiments, "run_chains", no_simulation)
        with pytest.raises(
            ExperimentError,
            match="only re-estimates cached chain batches.*variant 'green', d=1, repeat=0; run the sweep",
        ):
            run_experiment(rob_cfg, cache=False)

    def test_missing_cache_instructs_rerun(self, tmp_path, monkeypatch):
        cfg = tiny_cfg(tmp_path, name="nocache")
        rob_cfg = replace(cfg, experiment="knn_robustness")
        monkeypatch.setattr(experiments, "run_chains", no_simulation)
        with pytest.raises(ExperimentError, match="run the sweep"):
            run_kl_sweep(rob_cfg)

    @staticmethod
    def _batches(cfg):
        cdir = cache_dir(cfg)
        return sorted(os.path.join(cdir, f) for f in os.listdir(cdir) if f.endswith(".npz"))

    @staticmethod
    def _rewrite(npz, **stored):
        # the record's samples and wall time with ``stored`` in place of its estimates
        with np.load(npz) as data:
            kept = {name: data[name] for name in ("samples", "wall_time_s")}
        np.savez(npz, **{**kept, **stored})

    @staticmethod
    def _estimates(rows):
        return [dataclasses.replace(r, wall_time_s=0.0) for r in rows]

    def test_reads_the_sweeps_stored_estimates(self, tmp_path, monkeypatch):
        # the sweep stores every configured k beside each batch; the study reads
        # them without a search, and they equal a search of the same batches
        cfg = tiny_cfg(tmp_path, name="rob")
        run_experiment(cfg)
        rob_cfg = replace(cfg, experiment="knn_robustness")
        calls = spy_searches(monkeypatch)
        read = run_kl_sweep(rob_cfg)
        assert calls == []
        for npz in self._batches(cfg):
            with np.load(npz) as data:
                np.testing.assert_array_equal(data["ks"], [5, 10])
            self._rewrite(npz)
        searched = run_kl_sweep(rob_cfg)
        assert len(calls) == 2 * 8  # the rho and nu searches of every batch
        assert self._estimates(read) == self._estimates(searched)

    def test_ks_a_batch_lacks_are_searched(self, tmp_path, monkeypatch):
        cfg = tiny_cfg(tmp_path, name="rob")
        run_experiment(cfg)
        rob_cfg = replace(cfg, experiment="knn_robustness")
        wide = replace(rob_cfg, sampling=replace(cfg.sampling, k_values=(5, 7, 10)))
        calls = spy_searches(monkeypatch)
        rows = run_kl_sweep(wide)
        assert set(calls) == {(7,)}  # only the k no batch stores
        # the searched k was merged into each record, which kept its wall time
        calls.clear()
        assert run_kl_sweep(wide) == rows
        assert calls == []
        for npz in self._batches(cfg):
            self._rewrite(npz)
        calls.clear()
        assert self._estimates(run_kl_sweep(wide)) == self._estimates(rows)
        assert set(calls) == {(5, 7, 10)}

    def test_pool_matches_serial_byte_for_byte(self, tmp_path):
        # the study fans its cells out like the sweep; on copies of one cache
        # it writes the same bytes with one worker and with two, the k the
        # records lack searched and merged either way
        cfg = tiny_cfg(tmp_path / "serial", name="fig2")
        run_experiment(cfg)
        shutil.copytree(cache_dir(cfg), tmp_path / "pool" / "chain_cache")
        out = {}
        for workers, where in ((1, "serial"), (2, "pool")):
            rob_cfg = tiny_cfg(tmp_path / where, name="rob")
            rob_cfg = replace(
                rob_cfg, experiment="knn_robustness", sampling=replace(cfg.sampling, k_values=(5, 7, 10))
            )
            run_experiment(rob_cfg, workers=workers)
            with open(rob_cfg.output.csv, "rb") as fh:
                out[workers] = fh.read()
        assert out[1] == out[2]
        assert out[1].count(b"\n") == 1 + 8 * 3

    @pytest.mark.parametrize(
        "spoil",
        ["length_mismatch", "nan", "zero_k", "non_integer_k", "nan_wall", "negative_wall", "wall_not_scalar"],
    )
    def test_spoiled_estimates_are_never_served(self, tmp_path, monkeypatch, spoil):
        # every value below differs from the true estimates, so one served would show
        cfg = tiny_cfg(tmp_path, name="rob")
        run_experiment(cfg)
        rob_cfg = replace(cfg, experiment="knn_robustness")
        clean = run_kl_sweep(rob_cfg)
        stored = {
            "length_mismatch": dict(ks=np.array([5, 10]), kl=np.array([9.0, 9.0, 9.0])),
            "nan": dict(ks=np.array([5, 10]), kl=np.array([9.0, np.nan])),
            "zero_k": dict(ks=np.array([0, 5, 10]), kl=np.array([9.0, 9.0, 9.0])),
            "non_integer_k": dict(ks=np.array([5.5, 10.0]), kl=np.array([9.0, 9.0])),
            "nan_wall": dict(ks=np.array([5, 10]), kl=np.array([9.0, 9.0]), wall_time_s=np.float64(np.nan)),
            "negative_wall": dict(ks=np.array([5, 10]), kl=np.array([9.0, 9.0]), wall_time_s=np.float64(-1.0)),
            "wall_not_scalar": dict(ks=np.array([5, 10]), kl=np.array([9.0, 9.0]), wall_time_s=np.array([0.5])),
        }[spoil]
        for npz in self._batches(cfg):
            self._rewrite(npz, **stored)
        calls = spy_searches(monkeypatch)
        assert self._estimates(run_kl_sweep(rob_cfg)) == self._estimates(clean)
        assert set(calls) == {(5, 10)}
        # a sweep cell whose record is spoiled searches its samples again too
        fresh = {(r.variant, r.d, r.repeat): r.kl for r in clean if r.k == cfg.sampling.k_primary}
        assert {(r.variant, r.d, r.repeat): r.kl for r in run_experiment(cfg)} == fresh

    # sha256 (first 16 hex digits) of the ``target_samples`` each batch of
    # TINY_FIG2 held when batches stored the target sample, read from batches
    # that code wrote; the redraw must give the same bits, or the estimates
    # those batches store and a search for the ks they lack would compare the
    # chains with different target samples
    STORED_TARGET_SHA256 = {
        ("green", 1, 0): "a46e7c588456092b",
        ("green", 1, 1): "15bc8e42d65a2990",
        ("green", 2, 0): "5088fa1819efff6f",
        ("green", 2, 1): "a4977d6192aa61a4",
        ("red", 1, 0): "3ba821de750eaad8",
        ("red", 1, 1): "c4dea1c6d152fd14",
        ("red", 2, 0): "8dfcff1be171bfa1",
        ("red", 2, 1): "98c00a28210314aa",
    }

    @staticmethod
    def _cells(cfg):
        return [(v, d, r) for v in cfg.variants for d in cfg.sweep.d_values for r in range(cfg.sampling.repeats)]

    def test_redrawn_target_sample_is_the_one_batches_stored(self, tmp_path):
        cfg = tiny_cfg(tmp_path, name="rob")
        got = {}
        for variant, d, repeat in self._cells(cfg):
            sample = experiments._target_sample(cfg, variant, d, repeat, cfg.schedule.n_steps)
            assert sample.shape == (cfg.sampling.n_target_samples, d) and sample.dtype == np.float64
            got[(variant.name, d, repeat)] = hashlib.sha256(sample.tobytes()).hexdigest()[:16]
        assert got == self.STORED_TARGET_SHA256

    @pytest.mark.parametrize("save", [np.savez, np.savez_compressed], ids=["plain", "compressed"])
    def test_batches_that_store_the_target_sample_are_served(self, tmp_path, monkeypatch, save):
        # batches once held target_samples beside samples, ks and kl, plain or
        # compressed, and no wall time; such a batch is no record, but its
        # samples are served: the sweep searches them once and rewrites the
        # file as a record, which the next pass reads without a search
        cfg = tiny_cfg(tmp_path, name="rob")
        fresh = run_experiment(cfg)
        rob_cfg = replace(cfg, experiment="knn_robustness")
        fresh_rob = run_kl_sweep(rob_cfg)
        for variant, d, repeat in self._cells(cfg):
            npz = experiments._batch_path(cfg, variant, d, repeat, cfg.schedule.n_steps)
            with np.load(npz) as data:
                arrays = {name: data[name] for name in ("samples", "ks", "kl")}
            target = experiments._target_sample(cfg, variant, d, repeat, cfg.schedule.n_steps)
            save(npz, samples=arrays["samples"], target_samples=target, ks=arrays["ks"], kl=arrays["kl"])
        calls = spy_searches(monkeypatch)
        writes = []
        savez = np.savez
        monkeypatch.setattr(np, "savez", lambda path, **arrays: writes.append(path) or savez(path, **arrays))
        monkeypatch.setattr(experiments, "run_chains", no_simulation)
        assert self._estimates(run_experiment(cfg)) == self._estimates(fresh)
        assert len(calls) == 2 * 8 and len(writes) == 8  # one search and one write per cell
        for npz in self._batches(cfg):
            with np.load(npz) as data:
                assert sorted(data.files) == ["kl", "ks", "samples", "wall_time_s"]
        calls.clear()
        writes.clear()
        assert self._estimates(run_experiment(cfg)) == self._estimates(fresh)
        assert self._estimates(run_kl_sweep(rob_cfg)) == self._estimates(fresh_rob)
        assert calls == [] and writes == []

    def test_k_above_sample_count_rejected(self, tmp_path):
        cfg = tiny_cfg(tmp_path, name="bigk")
        run_experiment(cfg)
        from aldlab.knn_kl import KnnError

        bad = replace(cfg, experiment="knn_robustness",
                      sampling=replace(cfg.sampling, k_values=(120,)))
        with pytest.raises(KnnError):
            run_kl_sweep(bad)


TINY_FIG1 = """
[experiment]
kind = fig1_steps_to_accuracy

[target]
weights = 1.0
mean_offsets = 0.0
var_exponent = 0.0
var_scales = 1.0

[schedule]
n_steps = 400
dt = 0.05
s_half = 5.0

[sampling]
n_chains = 300
n_target_samples = 300
k_values = 10
repeats = 2
seed = 11

[sweep]
d_values = 1
epsilon = 0.25
step_grid = 25, 50, 100, 200, 400

[variant only]
gamma_scale = 1.0
cbase_scale = 1.0
"""


class TestStepsToAccuracy:
    def test_single_gaussian_search(self, tmp_path):
        cfg = tiny_cfg(tmp_path, text=TINY_FIG1, name="steps")
        rows = run_experiment(cfg)
        assert len(rows) == 1
        row = rows[0]
        assert row.steps != "cap_exceeded"
        assert int(row.steps) <= 400
        assert row.kl <= 0.25

    def test_cap_exceeded(self, tmp_path):
        text = TINY_FIG1.replace("epsilon = 0.25", "epsilon = 1e-9")
        cfg = tiny_cfg(tmp_path, text=text, name="cap")
        rows = run_experiment(cfg)
        assert rows[0].steps == "cap_exceeded"
        assert math.isfinite(rows[0].kl)

    def test_bisection_refines_bracket(self, tmp_path):
        cfg = tiny_cfg(tmp_path, text=TINY_FIG1, name="bisect")
        row = steps_to_accuracy(cfg, cfg.variants[0], 1)
        # refined value is at most a grid point and at least the grid predecessor
        assert 25 <= row.steps <= 400
        assert row.kl <= cfg.sweep.epsilon


def test_cached_reruns_are_byte_equal(tmp_path):
    # every experiment kind's rows take their wall time from the cell records,
    # so a second run into the same cache writes the same bytes
    fig2 = tiny_cfg(tmp_path / "fig2", name="fig2")
    fig3_text = TINY_FIG2.replace("fig2_bias_vs_dim", "fig3_score_error")
    cfgs = [
        tiny_cfg(tmp_path / "fig1", text=TINY_FIG1, name="fig1"),
        fig2,
        tiny_cfg(tmp_path / "fig3", text=fig3_text, name="fig3"),
        replace(tiny_cfg(tmp_path / "fig2", name="rob"), experiment="knn_robustness",
                sampling=replace(fig2.sampling, k_values=(5, 7, 10))),
    ]
    for cfg in cfgs:
        runs = []
        for _ in range(2):
            run_experiment(cfg)
            with open(cfg.output.csv, "rb") as fh:
                runs.append(fh.read())
        assert runs[0] == runs[1], cfg.experiment


class TestBoundsReport:
    def test_run_refuses_a_bounds_config(self, tmp_path):
        # the report has one entry point, `aldlab bounds`, which takes no seed or profile
        cfg = load_config("configs/bounds.cfg")
        cfg = replace(cfg, output=replace(cfg.output, csv=str(tmp_path / "bounds.csv")))
        with pytest.raises(ExperimentError, match="run it with `aldlab bounds`"):
            run_experiment(cfg)
        assert os.listdir(tmp_path) == []

    def test_report_files_and_verdicts(self, tmp_path):
        cfg = load_config("configs/bounds.cfg")
        cfg = replace(
            cfg,
            sweep=replace(cfg.sweep, d_values=(1, 5, 20, 65)),
            output=replace(cfg.output, csv=str(tmp_path / "bounds.csv")),
        )
        rep = run_bounds_report(cfg)
        assert os.path.exists(rep["csv"]) and os.path.exists(rep["txt"])
        green = rep["conditions"]["green"]
        red = rep["conditions"]["red"]
        assert green["suff_kd"].verdict == "converges"
        assert red["suff_kd"].verdict == "diverges"
        by_key = {(r["variant"], r["d"]): r for r in rep["numeric"]}
        # zero perturbation: every perturbation line is exactly zero
        for rec in rep["numeric"]:
            assert rec["init_kl_bound"] == 0.0
            assert rec["int_bcomp"] == 0.0
            assert rec["int_bresp"] == 0.0
        # kd plateau for the green spectra
        assert by_key[("green", 65)]["kd"] <= 1.05 * by_key[("green", 20)]["kd"]
        # red kd keeps growing
        assert by_key[("red", 65)]["kd"] > 2.0 * by_key[("red", 20)]["kd"]
        with open(rep["txt"], encoding="utf-8") as fh:
            text = fh.read()
        assert "variant green" in text and "suff_kd" in text

    def test_text_report_sits_beside_a_csv_without_extension(self, tmp_path):
        # a dot in a directory name is no extension: the report lands in the
        # CSV's own directory, named after it
        csv_path = tmp_path / "bt" / "out.v2" / "bounds"
        cfg = load_config("configs/bounds.cfg")
        cfg = replace(
            cfg, sweep=replace(cfg.sweep, d_values=(1, 5)), output=replace(cfg.output, csv=str(csv_path))
        )
        rep = run_bounds_report(cfg)
        assert rep["txt"] == str(csv_path) + ".txt"
        assert sorted(os.listdir(csv_path.parent)) == ["bounds", "bounds.txt"]
        assert os.listdir(tmp_path / "bt") == ["out.v2"]

    @pytest.mark.parametrize("name", ["bounds", "fig3"])
    def test_report_bytes_match_golden(self, tmp_path, name):
        cfg = load_config(f"configs/{name}.cfg")
        cfg = replace(cfg, output=replace(cfg.output, csv=str(tmp_path / f"{name}.csv")))
        rep = run_bounds_report(cfg)
        for path in (rep["csv"], rep["txt"]):
            golden = os.path.join(os.path.dirname(__file__), "golden", os.path.basename(path))
            with open(path, "rb") as got, open(golden, "rb") as want:
                assert got.read() == want.read(), os.path.basename(path)

    def test_fig3_perturbation_and_init_law_reach_the_bounds(self, tmp_path, monkeypatch):
        cfg = load_config("configs/fig3.cfg")
        cfg = replace(
            cfg,
            sweep=replace(cfg.sweep, d_values=(1, 5)),
            output=replace(cfg.output, csv=str(tmp_path / "fig3_bounds.csv")),
        )
        seen = []

        def recording_budget(inputs, t_horizon, **kwargs):
            seen.append(inputs)
            return error_budget(inputs, t_horizon, **kwargs)

        monkeypatch.setattr(experiments, "error_budget", recording_budget)
        rep = run_bounds_report(cfg)
        assert len(rep["numeric"]) == len(seen) == 4
        w_kl = weight_kl((0.75, 0.25), (0.1, 0.9))
        for rec in rep["numeric"]:
            assert rec["init_kl_bound"] == w_kl
            assert rec["int_bcomp"] > 0
        for inputs in seen:
            js = np.arange(1, inputs.dim + 1, dtype=float)
            for row in inputs.dsigma:
                np.testing.assert_array_equal(row, 0.1 * js**-3.5)
            assert not np.any(inputs.dmeans)

    def test_signed_perturbation_reaches_the_conditions(self, tmp_path):
        # a negative covariance shift shrinks the score's variances, so the
        # score-moment and initialization series grow; the sign must survive
        cfg = load_config("configs/fig3.cfg")
        plus = variant_named(cfg, "admissible")
        minus = replace(plus, name="minus", dsigma_scale=-0.1)
        cfg = replace(
            cfg,
            variants=(plus, minus),
            sweep=replace(cfg.sweep, d_values=(1,)),
            output=replace(cfg.output, csv=str(tmp_path / "signed.csv")),
        )
        conditions = run_bounds_report(cfg)["conditions"]
        for name in ("s1_score_moment", "init_var"):
            assert (
                conditions["minus"][name].partial_sum(100)
                > conditions["admissible"][name].partial_sum(100)
                > 0
            )

    def test_weight_perturbation_reaches_the_conditions(self, tmp_path):
        text = BOUNDS_DWEIGHTS.replace("results/dw.csv", str(tmp_path / "dw.csv"))
        rep = run_bounds_report(parse_config_text(text))
        (rec,) = rep["numeric"]
        assert rec["int_bresp"] > 0
        report = rep["conditions"]["shifted"]
        assert report["w1_weights"].partial_sum(100) > 0
        assert report["w2_weight_ratio"].partial_sum(100) > 1


def test_benchmark_hooks_exist():
    # the benchmark's tracer swaps each (owner, attr) in PATCHES for a wrapper and reads these
    # parameters by name; a deletion here would break traced runs without failing untraced ones
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert len(tracing.PATCHES) == 14
    missing = [(owner.__name__, attr) for owner, attr, _, _ in tracing.PATCHES if not hasattr(owner, attr)]
    assert missing == []
    assert {"config", "n_chains"} <= inspect.signature(experiments.run_chains).parameters.keys()
    assert "inputs" in inspect.signature(experiments.error_budget).parameters
    assert "sigma" in {f.name for f in dataclasses.fields(BoundInputs)}
