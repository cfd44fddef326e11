import csv
import runpy
import warnings

import numpy as np
import pytest

from aldlab import knn_kl
from aldlab.cli import main
from aldlab.experiments import read_csv_rows


def test_schedule_verb(capsys):
    assert main(["schedule", "--n", "20000", "--dt", "9e-3", "--s", "20"]) == 0
    out = capsys.readouterr().out
    assert "theta0=40" in out
    assert "t_horizon=179.991" in out
    lines = [l for l in out.splitlines() if l and l[0].isdigit()]
    first = lines[0].split(",")
    last = lines[-1].split(",")
    assert first[0] == "0" and float(first[1]) == 40.0 and float(first[2]) == 1.0
    assert last[0] == "19999" and float(last[1]) == 0.0


@pytest.mark.parametrize("rows", ["0", "-1"])
def test_schedule_rows_below_one_rejected(capsys, rows):
    with pytest.raises(SystemExit) as err:
        main(["schedule", "--n", "100", "--dt", "0.1", "--s", "5", "--rows", rows])
    assert err.value.code == 2
    assert f"argument --rows: must be at least 1, got {rows}" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_run_workers_below_one_rejected(capsys, workers):
    # refused while parsing, before the config is read or any process starts
    with pytest.raises(SystemExit) as err:
        main(["run", "no_such.cfg", "--workers", workers])
    assert err.value.code == 2
    assert f"argument --workers: must be at least 1, got {workers}" in capsys.readouterr().err


def test_kl_verb(tmp_path, capsys):
    rng = np.random.default_rng(3)
    p = rng.normal(size=(400, 2))
    q = rng.normal(size=(400, 2)) + 0.4
    pfile = tmp_path / "p.txt"
    qfile = tmp_path / "q.csv"
    np.savetxt(pfile, p)  # whitespace-delimited
    np.savetxt(qfile, q, delimiter=",")  # comma-delimited
    assert main(["kl", "--p", str(pfile), "--q", str(qfile), "--k", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("kl=")
    assert "n=400 m=400 dim=2" in out

    expected = knn_kl(p, np.loadtxt(qfile, delimiter=","), 5).value
    got = float(out.split()[0].split("=")[1])
    assert got == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize(
    "text", ["a,b\n1,2\n3,4\n", "1 2\n3 4 5\n", "\xff\xfe\n"], ids=["header", "ragged", "not_utf8"]
)
def test_kl_verb_names_a_file_that_is_no_matrix(tmp_path, capsys, text):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(text.encode("latin-1"))
    good = tmp_path / "good.txt"
    np.savetxt(good, np.random.default_rng(4).normal(size=(20, 2)))
    assert main(["kl", "--p", str(bad), "--q", str(good), "--k", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"aldlab: {bad} is not a numeric sample matrix: ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("comma", [False, True], ids=["comment_with_comma", "leading_blank_line"])
def test_kl_verb_reads_the_delimiter_from_the_first_data_row(tmp_path, capsys, comma):
    rng = np.random.default_rng(5)
    p = rng.normal(size=(40, 2))
    q = rng.normal(size=(40, 2))
    pfile = tmp_path / "p.txt"
    qfile = tmp_path / "q.txt"
    if comma:
        np.savetxt(pfile, p, delimiter=",")
        pfile.write_text("\n" + pfile.read_text())
    else:
        np.savetxt(pfile, p, header="x, y")  # first line "# x, y", rows whitespace-delimited
    np.savetxt(qfile, q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["kl", "--p", str(pfile), "--q", str(qfile), "--k", "3"]) == 0
    assert capsys.readouterr().out.split()[0] == f"kl={knn_kl(p, q, 3).value:.9g}"


def test_kl_verb_names_a_file_with_no_data_rows(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    good = tmp_path / "good.txt"
    np.savetxt(good, np.random.default_rng(4).normal(size=(20, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["kl", "--p", str(empty), "--q", str(good), "--k", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"aldlab: {empty} holds no data rows\n"


def test_run_verb_tiny(tmp_path, capsys):
    cfg_text = """
[experiment]
kind = fig2_bias_vs_dim

[schedule]
n_steps = 40
dt = 0.05
s_half = 20.0

[sampling]
n_chains = 50
n_target_samples = 50
k_values = 5
repeats = 1
seed = 5

[sweep]
d_values = 1

[variant solo]
gamma_scale = 1.0
cbase_scale = 1.0

[output]
csv = {csv}
plot_script = {plot}
"""
    path = tmp_path / "tiny.cfg"
    path.write_text(
        cfg_text.format(csv=tmp_path / "tiny.csv", plot=tmp_path / "tiny_plot.py")
    )
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "1 rows" in out
    assert (tmp_path / "tiny.csv").exists()
    assert (tmp_path / "tiny_plot.py").exists()
    # seed override produces a different estimate
    first = (tmp_path / "tiny.csv").read_text()
    assert main(["run", str(path), "--seed", "99", "--no-cache"]) == 0
    second = (tmp_path / "tiny.csv").read_text()
    assert first.splitlines()[0] == second.splitlines()[0]
    assert first != second


def test_bounds_verb(tmp_path, capsys):
    cfg_text = """
[experiment]
kind = bounds_report

[sweep]
d_values = 1, 5

[variant green]
gamma_exponent = 1.5
cbase_exponent = 2.7

[output]
csv = {csv}
"""
    path = tmp_path / "bounds.cfg"
    path.write_text(cfg_text.format(csv=tmp_path / "bounds.csv"))
    assert main(["bounds", str(path)]) == 0
    out = capsys.readouterr().out
    assert "suff_kd=converges" in out
    assert (tmp_path / "bounds.csv").exists()
    assert (tmp_path / "bounds.txt").exists()


@pytest.mark.parametrize("option", [["--seed", "1"], ["--profile", "ci"]], ids=["seed", "profile"])
def test_bounds_takes_no_seed(capsys, option):
    # the bound report is closed-form and draws nothing, so neither a seed nor
    # a desk-scale profile reaches it
    with pytest.raises(SystemExit) as err:
        main(["bounds", "bounds.cfg", *option])
    assert err.value.code == 2
    assert "unrecognized arguments: " + " ".join(option) in capsys.readouterr().err


def test_lab_errors_are_one_line(tmp_path, capsys):
    # a lab error is a message on stderr and status 1, not a traceback
    assert main(["run", "configs/bounds.cfg"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "aldlab: a bounds_report config is closed-form: run it with `aldlab bounds`\n"

    with open("configs/bounds.cfg", encoding="utf-8") as fh:
        text = fh.read().replace("gamma_scale = 1.0", "gamma_scale = 0")
    path = tmp_path / "zero_gamma.cfg"
    path.write_text(text.replace("csv = results/", f"csv = {tmp_path}/"), encoding="utf-8")
    assert main(["bounds", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("aldlab: ") and "gamma_scale" in err and len(err.splitlines()) == 1
    assert not (tmp_path / "bounds.csv").exists()

    assert main(["bounds", str(tmp_path / "missing.cfg")]) == 1
    assert capsys.readouterr().err.startswith("aldlab: [Errno 2] No such file or directory")


ODD_NAMES = ("a,b", 'say "hi"')


def test_variant_names_that_need_csv_quoting(tmp_path):
    # a name with a comma or a quote is quoted in every CSV, and reads back unchanged
    variants = "".join(f"\n[variant {name}]\ngamma_scale = 1.0\ncbase_scale = 1.0\n" for name in ODD_NAMES)
    run_cfg = tmp_path / "odd.cfg"
    run_cfg.write_text(
        f"""
[experiment]
kind = fig2_bias_vs_dim

[schedule]
n_steps = 40
dt = 0.05
s_half = 20.0

[sampling]
n_chains = 50
n_target_samples = 50
k_values = 5
repeats = 1
seed = 5

[sweep]
d_values = 1, 2
{variants}
[output]
csv = {tmp_path / "odd.csv"}
plot_script = {tmp_path / "odd_plot.py"}
"""
    )
    assert main(["run", str(run_cfg)]) == 0
    assert sorted({r.variant for r in read_csv_rows(tmp_path / "odd.csv")}) == sorted(ODD_NAMES)
    labels = runpy.run_path(str(tmp_path / "odd_plot.py"))["series"]()
    assert sorted(labels) == sorted(ODD_NAMES)

    bounds_cfg = tmp_path / "odd_bounds.cfg"
    bounds_cfg.write_text(
        f"[experiment]\nkind = bounds_report\n\n[sweep]\nd_values = 1, 5\n{variants}\n"
        f"[output]\ncsv = {tmp_path / 'odd_bounds.csv'}\n"
    )
    assert main(["bounds", str(bounds_cfg)]) == 0
    with open(tmp_path / "odd_bounds.csv", newline="") as fh:
        records = list(csv.DictReader(fh))
    assert [r["variant"] for r in records] == [name for name in ODD_NAMES for _ in (1, 5)]
    assert all(None not in r and float(r["kd"]) > 0 for r in records)

