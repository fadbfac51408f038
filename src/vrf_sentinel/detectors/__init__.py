"""Anomaly detectors over modification matrices, plus the method registry.

The registry exposes the ten standard method ids used by the evaluation
harness and the CLI:

    nmf, rpca,
    cl_std_5, cl_std_3, cl_iqr_5, cl_iqr_3,
    temporal_std, temporal_iqr,
    global_std, global_iqr
"""

from __future__ import annotations

from typing import Any

from ..errors import VrfError
from ..modmatrix import ModificationMatrix
from .nmf import DEFAULT_K, NmfResult, nmf_factorize, nmf_residual_scores
from .ranking import RankedEntries, rank_entries, ranked_to_csv
from .rpca import RpcaResult, default_lambda, rpca_decompose, rpca_scores
from .scoring import (
    ScoreMatrix,
    cross_locale_scores,
    global_scores,
    iqr_score,
    scores_from_csv,
    scores_to_csv,
    temporal_scores,
    zscore,
)

__all__ = [
    "DEFAULT_K",
    "METHOD_IDS",
    "NmfResult",
    "RankedEntries",
    "RpcaResult",
    "ScoreMatrix",
    "cross_locale_scores",
    "default_lambda",
    "global_scores",
    "iqr_score",
    "nmf_factorize",
    "nmf_residual_scores",
    "rank_entries",
    "ranked_to_csv",
    "rpca_decompose",
    "rpca_scores",
    "score_with_method",
    "scores_from_csv",
    "scores_to_csv",
    "temporal_scores",
    "zscore",
]

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


def score_with_method(
    matrix: ModificationMatrix,
    method: str,
    seed: int = 0,
    **overrides: Any,
) -> ScoreMatrix:
    """Run one registered detector by id.

    Overrides are forwarded to the detector (`k`, `lam`, `tol`,
    `max_iter`); the window-based ids fix their own width. `seed` is used
    only by nmf; every other detector is deterministic.
    """
    if method == "nmf":
        return nmf_residual_scores(matrix, seed=seed, **overrides)
    if method == "rpca":
        return rpca_scores(matrix, **overrides)
    if method.startswith("cl_"):
        _, stat, width_token = method.split("_")
        width = int(width_token)
        if width % 2 != 1:
            raise VrfError(f"cross-locale window width must be odd, got {width}")
        return cross_locale_scores(matrix, stat=stat, w=(width - 1) // 2)
    if method.startswith("temporal_"):
        return temporal_scores(matrix, stat=method.removeprefix("temporal_"))
    if method.startswith("global_"):
        return global_scores(matrix, stat=method.removeprefix("global_"))
    raise VrfError(f"unknown detector method {method!r} (known: {', '.join(METHOD_IDS)})")
