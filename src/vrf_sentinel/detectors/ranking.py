"""Deterministic total ordering of score-matrix entries."""

from __future__ import annotations

import numpy as np

from ..vrf_io import csv_writer
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
    """Rank the entries and write one row per cell, best first."""
    order = rank_entries(score_matrix)
    locales = score_matrix.locales
    starts = [iv.start.isoformat() for iv in score_matrix.intervals]
    rows, cols = np.divmod(order, len(starts))
    cells = zip(rows.tolist(), cols.tolist(), score_matrix.scores.ravel()[order].tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv_writer(fh, locales)
        writer.writerow(["rank", "locale", "interval_start", "score"])
        writer.writerows(
            [rank, locales[i], starts[j], repr(score)]
            for rank, (i, j, score) in enumerate(cells, start=1)
        )
