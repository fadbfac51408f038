"""Deterministic total ordering of score-matrix entries."""

from __future__ import annotations

import numpy as np

from ..vrf_io import csv_cell, csv_line
from .scoring import ScoreMatrix


def rank_entries(score_matrix: ScoreMatrix) -> np.ndarray:
    """All matrix entries in descending score order: a permutation of the
    flat row-major cell indices (locale_index * n_intervals +
    interval_index), best first.

    +inf sentinel scores come first (among themselves ordered by source
    value descending); remaining ties break by (locale_index,
    interval_index) ascending.
    """
    scores = score_matrix.scores.ravel()
    # Raw source value breaks ties only among +inf sentinels.
    sentinel_tiebreak = np.zeros(scores.shape)
    if score_matrix.source_values is not None:
        sentinel = np.isposinf(scores)
        sentinel_tiebreak[sentinel] = -score_matrix.source_values.ravel()[sentinel]
    return np.lexsort((np.arange(scores.size), sentinel_tiebreak, -scores))


def ranked_to_csv(score_matrix: ScoreMatrix, path: str) -> None:
    """Rank the entries and write one row per cell, best first, joining
    the rows of one grid row's worth of ranks per write."""
    order = rank_entries(score_matrix)
    starts = [iv.start.isoformat() for iv in score_matrix.intervals]
    rows, cols = np.divmod(order, len(starts))
    scores = score_matrix.scores.ravel()[order]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(csv_line(("rank", "locale", "interval_start", "score")))
        locales = list(map(csv_cell, score_matrix.locales))
        for lo in range(0, len(order), len(starts)):
            hi = lo + len(starts)
            lines = map(",".join, zip(
                map(str, range(lo + 1, hi + 1)),
                map(locales.__getitem__, rows[lo:hi].tolist()),
                map(starts.__getitem__, cols[lo:hi].tolist()),
                map(float.__repr__, scores[lo:hi].tolist()),
            ))
            fh.write("\n".join(lines) + "\n")
