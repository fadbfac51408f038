"""Deterministic total ordering of score-matrix entries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..modmatrix import MatrixEntryRef
from ..vrf_io import csv_writer
from .scoring import ScoreMatrix


@dataclass(frozen=True, eq=False)
class RankedEntries:
    """All matrix entries in descending score order.

    `order` is a permutation of the flat row-major cell indices
    (locale_index * n_intervals + interval_index), best first, and `scores`
    is the flat score grid it indexes. +inf sentinel scores come first
    (among themselves ordered by source value descending); remaining ties
    break by (locale_index, interval_index) ascending. Length is always
    rows * cols.
    """

    method: str
    order: np.ndarray
    scores: np.ndarray
    locales: tuple[str, ...]
    interval_starts: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.order)

    def top(self, k: int) -> list[MatrixEntryRef]:
        n_cols = len(self.interval_starts)
        return [MatrixEntryRef(*divmod(ix, n_cols)) for ix in self.order[:k].tolist()]


def rank_entries(score_matrix: ScoreMatrix) -> RankedEntries:
    scores = score_matrix.scores.ravel()
    # Raw source value breaks ties only among +inf sentinels.
    sentinel_tiebreak = np.zeros(scores.shape)
    if score_matrix.source_values is not None:
        sentinel = np.isposinf(scores)
        sentinel_tiebreak[sentinel] = -score_matrix.source_values.ravel()[sentinel]
    order = np.lexsort((np.arange(scores.size), sentinel_tiebreak, -scores))
    return RankedEntries(
        method=score_matrix.method,
        order=order,
        scores=scores,
        locales=score_matrix.locales,
        interval_starts=tuple(iv.start.isoformat() for iv in score_matrix.intervals),
    )


def ranked_to_csv(ranked: RankedEntries, path: str) -> None:
    rows, cols = np.divmod(ranked.order, len(ranked.interval_starts))
    cells = zip(rows.tolist(), cols.tolist(), ranked.scores[ranked.order].tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv_writer(fh, ranked.locales)
        writer.writerow(["rank", "locale", "interval_start", "score"])
        writer.writerows(
            [rank, ranked.locales[i], ranked.interval_starts[j], repr(score)]
            for rank, (i, j, score) in enumerate(cells, start=1)
        )
