"""The three workloads: how each makes its inputs, which CLI steps one timed
pass runs, how much work a pass does, and how its outputs are checked.

Every check reads only files: the generated inputs (with their ground
truth) and the pass's outputs. Nothing here imports the program.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import os
from dataclasses import dataclass
from typing import Callable

SWEEP_METHODS = 10
SWEEP_GRID_POINTS = 21
SWEEP_SHAPE = (99, 149)

# ROADMAP's 3000 x 520 scale probe takes ~62 s a pass; 500 locales keep the
# 520 weekly intervals at 17.6x the cells of the 99 x 149 study.
DETECT_SHAPE = (500, 520)


@dataclass(frozen=True)
class Step:
    name: str          # the CLI subcommand, used for the cli.<name>.* metrics
    args: list[str]    # arguments after `vrf-sentinel`


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, str], tuple[str, list[str]]]  # seed, dir -> child.py mode, args
    steps: Callable[[int, str, str], list[Step]]  # seed, inputs, out -> steps
    units: Callable[[str], int]                   # inputs -> work units in one pass
    check: Callable[[int, str, str], list[tuple[str, bool, str]]]


def _read_csv(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# --- labeled_chain ------------------------------------------------------------------


def _labeled_steps(seed: int, inp: str, out: str) -> list[Step]:
    snaps, schema = os.path.join(inp, "snapshots"), os.path.join(inp, "schema.cfg")
    diff, matrix = os.path.join(out, "diff"), os.path.join(out, "matrix")
    feats, model, pred = (os.path.join(out, d) for d in ("features", "model", "predict"))
    features_csv = os.path.join(feats, "group_features.csv")
    return [
        Step("diff", ["diff", "--snapshots", snaps, "--schema", schema, "--out", diff]),
        Step("matrix", [
            "matrix", "--changes", os.path.join(diff, "changes.csv"), "--snapshots", snaps,
            "--schema", schema, "--change-type", "deactivation", "--out", matrix]),
        Step("features", [
            "features", "--changes", os.path.join(diff, "changes.csv"), "--snapshots", snaps,
            "--schema", schema, "--labels", os.path.join(inp, "labels.csv"),
            "--change-type", "deactivation", "--out", feats]),
        Step("train", [
            "train", "--features", features_csv, "--holdout", "0.2",
            "--seed", str(seed), "--out", model]),
        Step("predict", [
            "predict", "--model", os.path.join(model, "model.json"),
            "--scaler", os.path.join(model, "scaler.json"), "--features", features_csv,
            "--threshold", "0.95", "--out", pred]),
    ]


def _snapshot_rows(inp: str) -> int:
    snap_dir = os.path.join(inp, "snapshots")
    rows = 0
    for name in os.listdir(snap_dir):
        with open(os.path.join(snap_dir, name), "rb") as fh:
            rows += sum(1 for _ in fh) - 1
    return rows


def _labeled_check(seed: int, inp: str, out: str) -> list[tuple[str, bool, str]]:
    with open(os.path.join(inp, "groundtruth.json"), encoding="utf-8") as fh:
        truth = json.load(fh)
    start = dt.date.fromisoformat(truth["start_date"])
    days = truth["interval_days"]
    want = {
        (voter, ctype, (start + dt.timedelta(days=(interval + 1) * days)).isoformat())
        for interval, voter, _locale, ctype, _cause in truth["changes"]
    }
    changes = _read_csv(os.path.join(out, "diff", "changes.csv"))[1:]
    got = {(row[0], row[2], row[4]) for row in changes}
    deactivations = sum(1 for row in changes if row[2] == "deactivation")

    rows = _read_csv(os.path.join(out, "matrix", "matrix_deactivation.csv"))
    blocks, block = [], []
    for row in rows[1:]:
        if row:
            block.append(row)
        else:
            blocks.append(block)
            block = []
    blocks.append(block)
    raw_sum = sum(int(v) for row in blocks[1] for v in row[1:])

    metrics = dict(_read_csv(os.path.join(out, "model", "eval_metrics.csv"))[1:])
    accuracy = float(metrics["accuracy"])
    groups = len(_read_csv(os.path.join(out, "features", "group_features.csv"))) - 1
    predictions = len(_read_csv(os.path.join(out, "predict", "predictions.csv"))) - 1
    return [
        ("changes_equal_groundtruth", got == want and len(got) == len(changes),
         f"{len(got)} changes, {len(want)} in ground truth"),
        ("matrix_raw_sum", raw_sum == deactivations,
         f"raw counts {raw_sum}, deactivations {deactivations}"),
        ("holdout_accuracy", accuracy >= 0.8, f"accuracy {accuracy}"),
        ("one_prediction_per_group", predictions == groups and groups > 0,
         f"{predictions} predictions, {groups} groups"),
    ]


# --- sweep_99x149 -------------------------------------------------------------------


def _sweep_steps(seed: int, inp: str, out: str) -> list[Step]:
    return [Step("evaluate", [
        "evaluate", "--matrix", os.path.join(inp, "matrix_deactivation.csv"),
        "--fraction", "0.01", "--top-k", "20", "--grid-points", str(SWEEP_GRID_POINTS),
        "--seed", str(seed), "--out", out])]


def _sweep_check(seed: int, inp: str, out: str) -> list[tuple[str, bool, str]]:
    header, values = _read_csv(os.path.join(out, "auc_summary.csv"))
    auc = dict(zip(header[1:], (float(v) for v in values[1:])))
    margin_cl = auc["cl_std_5"] - auc["global_std"]
    margin_nmf = auc["nmf"] - auc["global_std"]
    return [
        ("ten_methods", len(auc) == SWEEP_METHODS, f"{len(auc)} methods"),
        ("auc_in_unit_interval", all(0.0 <= a <= 1.0 for a in auc.values()), repr(auc)),
        ("cl_std_5_beats_global_std", margin_cl >= 0.1, f"margin {margin_cl:.4f}"),
        ("nmf_beats_global_std", margin_nmf >= 0.1, f"margin {margin_nmf:.4f}"),
    ]


# --- detect_500x520 -----------------------------------------------------------------

DETECT_METHODS = (("cl_iqr", "cl_iqr_5", ["--window", "2"]), ("rpca", "rpca", []))


def _detect_steps(seed: int, inp: str, out: str) -> list[Step]:
    matrix = os.path.join(inp, "matrix_deactivation.csv")
    return [
        Step("detect", ["detect", "--matrix", matrix, "--method", method, *extra,
                        "--out", os.path.join(out, method)])
        for method, _file_id, extra in DETECT_METHODS
    ]


def _detect_check(seed: int, inp: str, out: str) -> list[tuple[str, bool, str]]:
    with open(os.path.join(inp, "planted.json"), encoding="utf-8") as fh:
        planted = [tuple(cell) for cell in json.load(fh)["planted"]]
    rows, cols = DETECT_SHAPE
    cells = rows * cols
    top = cells // 100
    results = []
    for method, file_id, _extra in DETECT_METHODS:
        ranked = _read_csv(os.path.join(out, method, f"ranked_{file_id}.csv"))[1:]
        seen = {(r[1], r[2]) for r in ranked}
        ranks_ok = [int(r[0]) for r in ranked] == list(range(1, len(ranked) + 1))
        results.append((
            f"{method}_each_cell_once",
            len(ranked) == cells and len(seen) == cells and ranks_ok,
            f"{len(ranked)} rows, {len(seen)} distinct cells of {cells}",
        ))
        rank_of = {(r[1], r[2]): int(r[0]) for r in ranked}
        worst = max(rank_of.get(cell, cells + 1) for cell in planted)
        results.append((f"{method}_planted_in_top_1pct", worst <= top,
                        f"worst planted rank {worst} of {cells}"))
    return results


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="labeled_chain",
            setup=lambda seed, d: ("setup", ["labeled_chain", str(seed), d]),
            steps=_labeled_steps,
            units=_snapshot_rows,
            check=_labeled_check,
        ),
        Workload(
            name="sweep_99x149",
            setup=lambda seed, d: ("cli", ["synth", "--preset", "matrix",
                                           "--seed", str(seed), "--out", d]),
            steps=_sweep_steps,
            units=lambda inp: SWEEP_METHODS * SWEEP_GRID_POINTS * SWEEP_SHAPE[0] * SWEEP_SHAPE[1],
            check=_sweep_check,
        ),
        Workload(
            name="detect_500x520",
            setup=lambda seed, d: ("setup", ["detect_500x520", str(seed), d]),
            steps=_detect_steps,
            units=lambda inp: len(DETECT_METHODS) * DETECT_SHAPE[0] * DETECT_SHAPE[1],
            check=_detect_check,
        ),
    )
}
