"""Statistical anomaly scores: temporal, cross-locale, and global.

All three share the same two normalizations of a value x against a pool of
values: the z-score (x - mean) / std with the population standard
deviation, and the IQR score (x - Q3) / (Q3 - Q1) with linearly
interpolated quartiles. Each takes a float grid (locales x intervals) and
returns a score grid of its shape. They differ only in which pool each
entry is scored against:

  temporal      - the entry's own row (one locale over time)
  cross-locale  - all rows within a sliding column window of width 2w+1,
                  clipped at the matrix edges
  global        - the whole matrix

When the pool has zero spread, a value at or below the pool level scores 0
and a value above it scores +inf, which ranks ahead of every finite score.

One batched kernel, `_pool_scores`, scores them all: it takes the pools as
rows and reduces along axis 1 once, bit-identical to scoring each pool on
its own. The cross-locale pools overlap, so they are copied out and scored
in chunks of interior columns holding at most `POOL_CHUNK_VALUES` pooled
values each; the 2w clipped edge columns are scored one at a time.

Score files use the grid CSV layout described in `modmatrix`; a
`ScoreMatrix` labels a grid for them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import FileParseError, VrfError
from ..modmatrix import DateInterval, read_grid, write_grid

POOL_CHUNK_VALUES = 1 << 18  # pooled values per cross-locale chunk: 2 MiB of float64


@dataclass(frozen=True)
class ScoreMatrix:
    """A detector's score grid with the labels and params its files carry."""

    method: str
    scores: np.ndarray
    locales: tuple[str, ...]
    intervals: tuple[DateInterval, ...]
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        expected = (len(self.locales), len(self.intervals))
        if self.scores.shape != expected:
            raise VrfError(f"score grid shape {self.scores.shape} != labels {expected}")
        self.scores.setflags(write=False)


class Scored(NamedTuple):
    """A score grid and the params its score file records (nmf and rpca
    add their convergence and iteration count)."""

    scores: np.ndarray
    params: dict[str, Any]


def zscore(x: np.ndarray | float, mean, std) -> np.ndarray | float:
    """(x - mean) / std elementwise; where std is zero, 0 at or below the
    mean and +inf above it, and a quotient past the float range is ±inf.
    `mean` and `std` may be arrays that broadcast against x."""
    if np.any(np.less(std, 0)):
        raise VrfError("std must be >= 0")
    diff = np.asarray(x, dtype=float) - mean
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # [()] gives a scalar back for scalar arguments
        return np.where(std == 0, np.where(diff <= 0, 0.0, math.inf), diff / std)[()]


def iqr_score(x: np.ndarray | float, q1, q3) -> np.ndarray | float:
    """(x - Q3) / (Q3 - Q1), with zscore's zero-spread rule."""
    if np.any(np.less(q3, q1)):
        raise VrfError("q3 must be >= q1")
    return zscore(x, q3, np.subtract(q3, q1))


def _pool_scores(values: np.ndarray, pools: np.ndarray, stat: str) -> np.ndarray:
    """Score row i of `values` against the pool in row i of `pools`."""
    # contiguous rows: each pool is summed in the order a lone 1-D pool is
    pools = np.ascontiguousarray(pools)
    if stat == "std":
        # constant pool: rounding in the mean must not dodge the
        # zero-variance sentinel rule
        constant = pools.min(axis=1) == pools.max(axis=1)
        mean = np.where(constant, pools[:, 0], np.mean(pools, axis=1))
        std = np.where(constant, 0.0, np.std(pools, axis=1))
        return zscore(values, mean[:, None], std[:, None])
    if stat == "iqr":
        q1, q3 = np.quantile(pools, (0.25, 0.75), axis=1)
        return iqr_score(values, q1[:, None], q3[:, None])
    raise VrfError(f"unknown statistic {stat!r} (expected 'std' or 'iqr')")


def temporal_scores(values: np.ndarray, stat: str = "std") -> np.ndarray:
    """Score each entry against its own locale's time series."""
    if values.shape[1] < 2:
        raise VrfError("temporal scoring needs at least 2 intervals")
    return _pool_scores(values, values, stat)


def cross_locale_scores(values: np.ndarray, stat: str = "std", w: int = 2) -> np.ndarray:
    """Score each entry against all locales within a +-w column window.

    Windows are clipped to existing columns at the matrix edges. The window
    statistics are shared by every row at a given column.
    """
    if w < 0:
        raise VrfError("window half-width w must be >= 0")
    n_rows, n_cols = values.shape
    width = 2 * w + 1
    scores = np.zeros((n_rows, n_cols))
    # interior columns a chunk at a time, column j's pool values[:, j - w:j + w + 1].ravel()
    step = max(1, POOL_CHUNK_VALUES // (n_rows * width))
    for lo in range(w, n_cols - w, step):
        hi = min(lo + step, n_cols - w)
        windows = sliding_window_view(values[:, lo - w:hi + w], width, axis=1)
        pools = windows.transpose(1, 0, 2).reshape(hi - lo, n_rows * width)
        scores[:, lo:hi] = _pool_scores(values[:, lo:hi].T, pools, stat).T
    for j in (j for j in range(n_cols) if not w <= j < n_cols - w):
        lo, hi = max(0, j - w), min(n_cols, j + w + 1)
        scores[:, j] = _pool_scores(values[None, :, j], values[:, lo:hi].reshape(1, -1), stat)[0]
    return scores


def global_scores(values: np.ndarray, stat: str = "std") -> np.ndarray:
    """Score each entry against the whole grid (baseline; rank-equivalent
    to ranking the raw values)."""
    if values.size < 2:
        raise VrfError("global scoring needs at least 2 entries")
    flat = values.reshape(1, -1)
    return _pool_scores(flat, flat, stat).reshape(values.shape)


def scores_to_csv(score_matrix: ScoreMatrix, path: str) -> None:
    """Score CSV: one JSON params line, then the grid layout of `modmatrix`
    with one block of `repr` floats under the method id."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        meta = {"method": score_matrix.method, "params": score_matrix.params}
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
        write_grid(
            fh, score_matrix.method, score_matrix.intervals, score_matrix.locales,
            [(map(float.__repr__, row.tolist()) for row in score_matrix.scores)],
        )


def scores_from_csv(path: str) -> ScoreMatrix:
    """Read back a score CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            meta = json.loads(fh.readline())
        except (ValueError, RecursionError) as exc:
            raise FileParseError(f"{path}: first line is not JSON ({exc})") from None
        if not isinstance(meta, dict) or not {"method", "params"} <= meta.keys():
            raise FileParseError(f"{path}: params line needs an object with method and params")
        _, intervals, locales, (grid,) = read_grid(fh, path, 1)
    return ScoreMatrix(
        method=meta["method"], scores=grid, locales=locales, intervals=intervals,
        params=meta["params"],
    )
