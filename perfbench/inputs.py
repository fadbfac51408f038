"""Seeded input generators for the workloads whose inputs no CLI preset makes.

`sweep_99x149` needs none: its set-up is `vrf-sentinel synth --preset matrix`.
These run inside a child process with the program's `src` on the path.
"""

from __future__ import annotations

import dataclasses
import json
import os

from vrf_sentinel import modmatrix, synthgen, vrf_io
from vrf_sentinel.records import ChangeType
from workloads import DETECT_SHAPE

# The labeled preset (17 snapshots x ~55k voters) takes ~15 s to write and
# ~56 s to run through the chain on a 2-core machine, more than one
# benchmark run may take. Half its locale population keeps all 99 locales,
# 16 intervals, events and label mix, with ~27k voters a snapshot. A quarter
# was tried and dropped: its smaller change groups pushed holdout accuracy
# below 0.8 on some seeds (0.78 on seed 7, where the preset gives 0.97).
LABELED_POPULATION_SCALE = 0.5

# Quiet-region cells and event columns of the 99 x 149 study, scaled below.
_STUDY_SHAPE = (99, 149)
_STUDY_ANOMALIES = ((7, 23), (31, 58), (54, 87), (80, 112))
_STUDY_EVENTS = (12, 18, 34, 44, 70, 96, 122, 140)


def write_labeled(seed: int, out: str) -> None:
    """The files `synth --preset labeled` writes, at the scaled population."""
    preset = synthgen.labeled_scenario_config(seed=seed)
    config = dataclasses.replace(
        preset, population_median=preset.population_median * LABELED_POPULATION_SCALE
    )
    snap_dir = os.path.join(out, "snapshots")
    os.makedirs(snap_dir, exist_ok=True)
    truth = None
    for snapshot, truth in synthgen.iter_scenario_snapshots(config):
        vrf_io.write_snapshot(
            snapshot,
            os.path.join(snap_dir, f"snapshot_{snapshot.snapshot_date.isoformat()}.csv"),
        )
    with open(os.path.join(out, "groundtruth.json"), "w", encoding="utf-8") as fh:
        fh.write(truth.to_json())
        fh.write("\n")
    with open(os.path.join(out, "schema.cfg"), "w", encoding="utf-8") as fh:
        for field in vrf_io.LOGICAL_FIELDS:
            fh.write(f"{field} = {field}\n")
    labeled = synthgen.scenario_labels(truth, ChangeType.DEACTIVATION)
    with open(os.path.join(out, "labels.csv"), "w", encoding="utf-8") as fh:
        fh.write("locale,interval_start,change_type,label\n")
        for locale, interval_index, label in sorted(labeled):
            start = truth.interval(interval_index).start.isoformat()
            fh.write(f"{locale},{start},deactivation,{label}\n")


def write_detect(seed: int, out: str) -> None:
    """A DETECT_SHAPE matrix with four planted cells, plus their labels."""
    rows, cols = DETECT_SHAPE
    fi, fj = rows / _STUDY_SHAPE[0], cols / _STUDY_SHAPE[1]
    config = synthgen.MatrixScenarioConfig(
        n_locales=rows,
        n_intervals=cols,
        event_intervals=tuple(round(j * fj) for j in _STUDY_EVENTS),
        anomaly_cells=tuple((round(i * fi), round(j * fj)) for i, j in _STUDY_ANOMALIES),
        seed=seed,
    )
    matrix, truth = synthgen.generate_matrix_scenario(config)
    os.makedirs(out, exist_ok=True)
    modmatrix.matrix_to_csv(matrix, os.path.join(out, "matrix_deactivation.csv"))
    planted = [
        [matrix.locales[r.locale_index], matrix.intervals[r.interval_index].start.isoformat()]
        for r in truth.anomaly_refs
    ]
    with open(os.path.join(out, "planted.json"), "w", encoding="utf-8") as fh:
        json.dump({"shape": [rows, cols], "planted": planted}, fh, indent=1)
        fh.write("\n")


WRITERS = {"labeled_chain": write_labeled, "detect_500x520": write_detect}
