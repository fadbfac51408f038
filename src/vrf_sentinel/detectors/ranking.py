"""Deterministic total ordering of score-grid entries."""

from __future__ import annotations

import numpy as np

from ..errors import VrfError
from ..vrf_io import csv_cell, csv_line
from .scoring import ScoreMatrix


def rank_entries(
    scores: np.ndarray, source: np.ndarray | None = None, k: int | None = None
) -> np.ndarray:
    """All grid entries in descending score order, or only the first `k`:
    flat row-major cell indices (locale_index * n_intervals +
    interval_index), best first.

    +inf sentinel scores come first, among themselves ordered by the
    `source` grid's value descending when one is given; remaining ties
    break by (locale_index, interval_index) ascending. With `k`, a
    partition picks the cells at or above the k-th score and only those
    are sorted.
    """
    if k is not None and k < 1:
        raise VrfError(f"k={k} must be at least 1")
    keys = -scores.ravel()
    cells = None  # every cell
    if k is not None and k < keys.size:
        kth = np.partition(keys, k - 1)[k - 1]
        if not np.isnan(kth):  # NaN sorts last: fewer than k cells are numbers
            cells = np.flatnonzero(keys <= kth)  # the top k and their ties, in cell order
            keys = keys[cells]
    order = np.argsort(keys, kind="stable")
    if cells is not None:
        order = cells[order]
    if source is not None:
        # the +inf cells are the prefix of `order`, in cell order
        head = order[:np.count_nonzero(np.isneginf(keys))]
        head[:] = head[np.argsort(-source.ravel()[head], kind="stable")]
    return order[:k]


def ranked_to_csv(score_matrix: ScoreMatrix, order: np.ndarray, path: str) -> None:
    """Write one row per cell in the ranking `order` (`rank_entries`), one
    grid row's worth of ranks at a time: each block's cells are split into
    locale and interval and their scores gathered on their own, so the
    writer holds no array the size of the grid."""
    starts = [iv.start.isoformat() for iv in score_matrix.intervals]
    scores = score_matrix.scores.ravel()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(csv_line(("rank", "locale", "interval_start", "score")))
        locales = list(map(csv_cell, score_matrix.locales))
        for lo in range(0, len(order), len(starts)):
            block = order[lo:lo + len(starts)]
            rows, cols = np.divmod(block, len(starts))
            lines = map(",".join, zip(
                map(str, range(lo + 1, lo + len(block) + 1)),
                map(locales.__getitem__, rows.tolist()),
                map(starts.__getitem__, cols.tolist()),
                map(float.__repr__, scores[block].tolist()),
            ))
            fh.write("\n".join(lines) + "\n")
