"""Sparse-plus-low-rank decomposition detector.

Splits the matrix into a low-rank part (nuclear-norm penalized) and a
sparse part (l1 penalized) subject to the two summing back to the input.
Solved by iterative shrinkage with an augmented-Lagrangian multiplier:
each pass applies singular-value soft-thresholding for the low-rank part
and entrywise soft-thresholding (threshold lambda * step) for the sparse
part, then a dual update; the shrinkage step starts at 1/spectral-norm
and decays geometrically so the equality constraint is met to tolerance.
Anomaly scores are the entries of the sparse component.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..errors import VrfError
from ..modmatrix import ModificationMatrix
from .scoring import ScoreMatrix, _score_matrix

logger = logging.getLogger(__name__)

DEFAULT_TOL = 1e-7      # relative Frobenius feasibility
DEFAULT_MAX_ITER = 1000
_STEP_DECAY = 1.6       # per-iteration shrink of the thresholding step
_STEP_SCALE = 0.8       # initial step = _STEP_SCALE * spectral norm


def default_lambda(shape: tuple[int, int]) -> float:
    """Standard sparsity weight 1/sqrt(max dimension)."""
    return 1.0 / np.sqrt(max(shape))


def _soft_threshold(x: np.ndarray, tau: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


def _svd_threshold(x: np.ndarray, tau: float) -> np.ndarray:
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    s = np.maximum(s - tau, 0.0)
    keep = s > 0
    return (u[:, keep] * s[keep]) @ vt[keep, :]


@dataclass(frozen=True)
class RpcaResult:
    low_rank: np.ndarray
    sparse: np.ndarray
    converged: bool
    iterations: int
    residual: float  # ||M - L - S||_F / ||M||_F


def rpca_decompose(
    matrix: ModificationMatrix | np.ndarray,
    lam: float | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> RpcaResult:
    """Decompose into low-rank + sparse parts (deterministic)."""
    m = matrix.values if isinstance(matrix, ModificationMatrix) else np.asarray(matrix, float)
    if lam is None:
        lam = default_lambda(m.shape)
    if lam <= 0:
        raise VrfError("lambda must be positive")

    m_fro = float(np.linalg.norm(m, "fro"))
    if m_fro == 0.0:
        return RpcaResult(np.zeros_like(m), np.zeros_like(m), True, 0, 0.0)

    spectral = float(np.linalg.svd(m, compute_uv=False)[0])
    step = _STEP_SCALE * spectral          # initial SVT threshold
    mu = 1.0 / step                        # dual ascent weight, grows as step decays
    dual_scale = max(spectral, float(np.max(np.abs(m))) / lam)
    dual = m / dual_scale

    low = np.zeros_like(m)
    sparse = np.zeros_like(m)
    converged = False
    iterations = 0
    residual = 1.0
    for iterations in range(1, max_iter + 1):
        low = _svd_threshold(m - sparse + dual / mu, step)
        sparse = _soft_threshold(m - low + dual / mu, lam * step)
        gap = m - low - sparse
        dual = dual + mu * gap
        residual = float(np.linalg.norm(gap, "fro")) / m_fro
        if residual <= tol:
            converged = True
            break
        step /= _STEP_DECAY
        mu *= _STEP_DECAY

    if not converged:
        logger.warning(
            "decomposition stopped at max_iter=%d with residual %.3g", max_iter, residual
        )
    return RpcaResult(low, sparse, converged, iterations, residual)


def rpca_scores(
    matrix: ModificationMatrix,
    lam: float | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ScoreMatrix:
    """Sparse-component entries as anomaly scores."""
    if lam is None:
        lam = default_lambda(matrix.shape)
    result = rpca_decompose(matrix, lam=lam, tol=tol, max_iter=max_iter)
    return _score_matrix(
        matrix,
        "rpca",
        result.sparse,
        {
            "lambda": lam,
            "tol": tol,
            "max_iter": max_iter,
            "converged": result.converged,
            "iterations": result.iterations,
            "residual": result.residual,
        },
    )
