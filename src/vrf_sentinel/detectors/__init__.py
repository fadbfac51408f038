"""Anomaly detectors over modification-matrix value grids, plus the
method registry.

Every detector takes a float grid (locales x intervals) and returns a score
grid of its shape. `score_with_method` runs one by method id; it and
`check_method`, which it calls, are the only code that reads or names an
id. An id is one of

    nmf, rpca,
    cl_std_<width>, cl_iqr_<width>   (any odd width, no leading zero),
    temporal_std, temporal_iqr,
    global_std, global_iqr

and `METHOD_IDS` lists the ten that the evaluation harness runs by default.
The package hands on only the names that the rest of the program reads.
"""

from __future__ import annotations

import re
from typing import Any

import numpy as np

from ..errors import DataError, VrfError
from .nmf import nmf_residual_scores
from .ranking import rank_entries, ranked_to_csv
from .rpca import rpca_scores
from .scoring import (
    Scored,
    ScoreMatrix,
    cross_locale_scores,
    global_scores,
    scores_from_csv,
    scores_to_csv,
    temporal_scores,
)

METHOD_IDS = (
    "nmf",
    "rpca",
    "cl_std_5",
    "cl_std_3",
    "cl_iqr_5",
    "cl_iqr_3",
    "temporal_std",
    "temporal_iqr",
    "global_std",
    "global_iqr",
)

# a row or whole-grid pool and its statistic, or the cross-locale statistic
# and a window width written canonically; nine digits cover a window wider
# than any grid, and stay far below int()'s limit on digits
_POOLED_ID = re.compile(r"(temporal|global)_(std|iqr)|cl_(std|iqr)_(0|[1-9][0-9]{0,8})")


def check_method(method: str) -> re.Match | None:
    """The match of a pooled id's (pool, stat, cross-locale stat, width),
    or None for nmf and rpca; raises `VrfError` for any other id."""
    if method in ("nmf", "rpca"):
        return None
    match = _POOLED_ID.fullmatch(method)
    if match is None:
        raise VrfError(
            f"unknown detector method {method!r} (known: {', '.join(METHOD_IDS)}, "
            "or cl_std_<width> and cl_iqr_<width> for any odd width)"
        )
    if match[4] is not None and int(match[4]) % 2 != 1:
        raise VrfError(f"cross-locale window width must be odd, got {match[4]}")
    return match


def score_with_method(
    values: np.ndarray,
    method: str,
    **overrides: Any,
) -> Scored:
    """Score a grid with the detector a method id names, returning the
    score grid and the params its score file records.

    Overrides are forwarded to nmf (`k`, `tol`, `max_iter`) and rpca
    (`lam`, `tol`, `max_iter`); the pooled ids fix their own settings.
    Every detector is deterministic: one grid always gets the same scores.
    """
    # an overflow warns no one: a NaN it leaves is refused below, and ±inf ranks
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "nmf":
            scored = nmf_residual_scores(values, **overrides)
        elif method == "rpca":
            scored = rpca_scores(values, **overrides)
        else:
            pool, stat, cl_stat, width = check_method(method).groups()
            if pool == "temporal":
                scored = Scored(temporal_scores(values, stat), {"stat": stat})
            elif pool == "global":
                scored = Scored(global_scores(values, stat), {"stat": stat})
            else:
                w = int(width) // 2
                params = {"stat": cl_stat, "w": w, "width": int(width)}
                scored = Scored(cross_locale_scores(values, cl_stat, w), params)
    if np.isnan(scored.scores).any():  # a NaN has no place in a ranking
        raise DataError(f"detector {method} scored NaN on this matrix, so it cannot rank it")
    return scored
