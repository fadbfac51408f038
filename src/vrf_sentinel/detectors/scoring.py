"""Statistical anomaly scores: temporal, cross-locale, and global.

All three share the same two normalizations of a value x against a pool of
values: the z-score (x - mean) / std with the population standard
deviation, and the IQR score (x - Q3) / (Q3 - Q1) with linearly
interpolated quartiles. They differ only in which pool each entry is
scored against:

  temporal      - the entry's own row (one locale over time)
  cross-locale  - all rows within a sliding column window of width 2w+1,
                  clipped at the matrix edges
  global        - the whole matrix

When the pool has zero spread, a value at or below the pool level scores 0
and a value above it scores +inf, which ranks ahead of every finite score.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import FileParseError, VrfError
from ..modmatrix import DateInterval, ModificationMatrix
from ..vrf_io import csv_writer


@dataclass(frozen=True)
class ScoreMatrix:
    """Per-entry anomaly scores aligned with a source modification matrix."""

    method: str
    scores: np.ndarray
    locales: tuple[str, ...]
    intervals: tuple[DateInterval, ...]
    params: dict[str, Any] = field(default_factory=dict)
    source_values: np.ndarray | None = None

    def __post_init__(self) -> None:
        expected = (len(self.locales), len(self.intervals))
        if self.scores.shape != expected:
            raise VrfError(f"score grid shape {self.scores.shape} != labels {expected}")
        self.scores.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.scores.shape


def _score_matrix(
    matrix: ModificationMatrix,
    method: str,
    scores: np.ndarray,
    params: dict[str, Any],
) -> ScoreMatrix:
    return ScoreMatrix(
        method=method,
        scores=scores,
        locales=matrix.locales,
        intervals=matrix.intervals,
        params=params,
        source_values=matrix.values,
    )


def _ratio(x: np.ndarray | float, center: float, spread: float) -> np.ndarray | float:
    """(x - center) / spread elementwise; with zero spread, 0 at or below
    the center and +inf above it."""
    diff = np.asarray(x, dtype=float) - center
    if spread == 0:
        # [()] gives a scalar back for a scalar x
        return np.where(diff <= 0, 0.0, math.inf)[()]
    return diff / spread


def zscore(x: np.ndarray | float, mean: float, std: float) -> np.ndarray | float:
    """(x - mean) / std, with the zero-spread sentinel rule."""
    if std < 0:
        raise VrfError("std must be >= 0")
    return _ratio(x, mean, std)


def iqr_score(x: np.ndarray | float, q1: float, q3: float) -> np.ndarray | float:
    """(x - Q3) / (Q3 - Q1), with the zero-spread sentinel rule."""
    if q3 < q1:
        raise VrfError("q3 must be >= q1")
    return _ratio(x, q3, q3 - q1)


def _apply_stat(values: np.ndarray, pool: np.ndarray, stat: str) -> np.ndarray:
    """Score every entry of `values` against the flat pool `pool`."""
    if stat == "std":
        if pool.min() == pool.max():
            # constant pool: rounding in the mean must not dodge the
            # zero-variance sentinel rule
            mean, std = float(pool[0]), 0.0
        else:
            mean, std = float(np.mean(pool)), float(np.std(pool))
        return zscore(values, mean, std)
    if stat == "iqr":
        q1 = float(np.quantile(pool, 0.25))
        q3 = float(np.quantile(pool, 0.75))
        return iqr_score(values, q1, q3)
    raise VrfError(f"unknown statistic {stat!r} (expected 'std' or 'iqr')")


def temporal_scores(matrix: ModificationMatrix, stat: str = "std") -> ScoreMatrix:
    """Score each entry against its own locale's time series."""
    n_rows, n_cols = matrix.shape
    if n_cols < 2:
        raise VrfError("temporal scoring needs at least 2 intervals")
    scores = np.zeros((n_rows, n_cols))
    for i in range(n_rows):
        scores[i] = _apply_stat(matrix.values[i], matrix.values[i], stat)
    return _score_matrix(matrix, f"temporal_{stat}", scores, {"stat": stat})


def cross_locale_scores(
    matrix: ModificationMatrix, stat: str = "std", w: int = 2
) -> ScoreMatrix:
    """Score each entry against all locales within a +-w column window.

    Windows are clipped to existing columns at the matrix edges. The window
    statistics are shared by every row at a given column.
    """
    if w < 0:
        raise VrfError("window half-width w must be >= 0")
    n_rows, n_cols = matrix.shape
    scores = np.zeros((n_rows, n_cols))
    for j in range(n_cols):
        lo, hi = max(0, j - w), min(n_cols, j + w + 1)
        pool = matrix.values[:, lo:hi].ravel()
        scores[:, j] = _apply_stat(matrix.values[:, j], pool, stat)
    width = 2 * w + 1
    return _score_matrix(
        matrix, f"cl_{stat}_{width}", scores, {"stat": stat, "w": w, "width": width}
    )


def global_scores(matrix: ModificationMatrix, stat: str = "std") -> ScoreMatrix:
    """Score each entry against the whole matrix (baseline; rank-equivalent
    to ranking the raw values)."""
    if matrix.values.size < 2:
        raise VrfError("global scoring needs at least 2 entries")
    pool = matrix.values.ravel()
    scores = _apply_stat(matrix.values, pool, stat)
    return _score_matrix(matrix, f"global_{stat}", scores, {"stat": stat})


def scores_to_csv(score_matrix: ScoreMatrix, path: str) -> None:
    """Score CSV: one JSON params line, then the matrix-CSV style layout."""
    days = score_matrix.intervals[0].days
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(
            json.dumps(
                {"method": score_matrix.method, "params": score_matrix.params},
                sort_keys=True,
            )
            + "\n"
        )
        writer = csv_writer(fh, score_matrix.locales)
        writer.writerow(
            [f"{score_matrix.method}:{days}"]
            + [iv.start.isoformat() for iv in score_matrix.intervals]
        )
        for i, locale in enumerate(score_matrix.locales):
            writer.writerow([locale] + [repr(float(v)) for v in score_matrix.scores[i]])


def scores_from_csv(path: str) -> ScoreMatrix:
    """Read back a score CSV (the source-values grid is not persisted)."""
    with open(path, newline="", encoding="utf-8") as fh:
        meta = json.loads(fh.readline())
        rows = list(csv.reader(fh))
    if not rows:
        raise FileParseError(f"{path}: missing score grid")
    corner, *date_cells = rows[0]
    days = int(corner.split(":")[-1])
    starts = [dt.date.fromisoformat(c) for c in date_cells]
    intervals = tuple(
        DateInterval(s, s + dt.timedelta(days=days)) for s in starts
    )
    locales = []
    grid = np.zeros((len(rows) - 1, len(starts)))
    for i, row in enumerate(rows[1:]):
        if len(row) != len(starts) + 1:
            raise FileParseError(f"{path}: row {i} has wrong cell count")
        locales.append(row[0])
        grid[i] = [float(c) for c in row[1:]]
    return ScoreMatrix(
        method=meta["method"],
        scores=grid,
        locales=tuple(locales),
        intervals=intervals,
        params=meta["params"],
    )
