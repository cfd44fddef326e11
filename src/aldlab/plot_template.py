#!/usr/bin/env python3
"""Regenerate an aldlab experiment figure from its CSV.

This file is the template that ``aldlab.experiments.emit_plot_script`` fills
in: it rewrites the ``CSV`` path below and writes the result beside the
experiment's CSV. The written script needs nothing from aldlab: its labels,
title and steps mode all come from the CSV's rows.

``series()`` reads the CSV with the standard library alone and returns what
the figure draws, so it can be imported and checked without matplotlib.
Only ``main()``, which draws the figure and saves it next to this file as a
``.png``, imports matplotlib.
"""
import csv
import os
from collections import defaultdict

# --- constants (rewritten by emit_plot_script) ---
CSV = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results.csv")
# --- end constants ---

STEPS_EXPERIMENT = "fig1_steps_to_accuracy"
CAPPED = " (cap exceeded)"
LOG_FLOOR = 1e-4  # non-positive mean estimates are drawn here on the log axis


def _read(csv_path):
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _steps_mode(rows):
    """Whether the rows are step-search results, drawn as step counts."""
    return bool(rows) and all(r["experiment"] == STEPS_EXPERIMENT for r in rows)


def _steps_series(rows):
    out = {}
    for variant in sorted({r["variant"] for r in rows}):
        pts = sorted((int(r["d"]), r["steps"]) for r in rows if r["variant"] == variant)
        solved = [(d, int(s)) for d, s in pts if s not in ("cap_exceeded", "diverged")]
        capped = [d for d, s in pts if s == "cap_exceeded"]
        if solved:
            out[variant] = ([d for d, _ in solved], [s for _, s in solved])
        if capped:
            # drawn at the largest solved count, a marker that the cap was hit
            cap_y = max((s for _, s in solved), default=1)
            out[variant + CAPPED] = (capped, [cap_y] * len(capped))
    return out


def _kl_series(rows):
    multi_k = len({r["k"] for r in rows}) > 1
    acc = defaultdict(lambda: defaultdict(list))
    for r in rows:
        label = r["variant"] + (" (k=" + r["k"] + ")" if multi_k else "")
        acc[label][int(r["d"])].append(float(r["kl"]))
    out = {}
    for label in sorted(acc):
        by_d = acc[label]
        ds = sorted(by_d)
        ys = [sum(by_d[d]) / len(by_d[d]) for d in ds]
        # Floor only non-positive estimates, for the log axis. A NaN mean (a
        # diverged cell) stays NaN and leaves a gap in the line.
        out[label] = (ds, [LOG_FLOOR if y <= 0 else y for y in ys])
    return out


def _series(rows):
    return _steps_series(rows) if _steps_mode(rows) else _kl_series(rows)


def series(csv_path=CSV):
    """Map each plotted label to its (ds, ys), exactly as drawn.

    In steps mode (every row a step search) a variant's solved points are
    under its own name and its cap-exceeded points under ``name + CAPPED``;
    otherwise each label, the variant with ``" (k=K)"`` when the rows hold
    more than one k, maps to the per-d mean KL, with non-positive means
    raised to ``LOG_FLOOR``.
    """
    return _series(_read(csv_path))


def main():
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    rows = _read(CSV)
    steps_mode = _steps_mode(rows)
    fig, ax = plt.subplots(figsize=(6, 4))
    for label, (ds, ys) in _series(rows).items():
        if steps_mode and label.endswith(CAPPED):
            ax.plot(ds, ys, marker="x", linestyle="none", label=label)
        else:
            ax.plot(ds, ys, marker="o", label=label)
    if steps_mode:
        ax.set_ylabel("steps to accuracy")
    else:
        ax.set_yscale("log")
        ax.set_ylabel("empirical KL (kNN)")
    ax.set_xlabel("dimension d")
    ax.set_title(" / ".join(sorted({r["experiment"] for r in rows})))
    ax.legend()
    fig.tight_layout()
    png = os.path.splitext(os.path.abspath(__file__))[0] + ".png"
    fig.savefig(png, dpi=150)
    print("wrote", png)


if __name__ == "__main__":
    main()
