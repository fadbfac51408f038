"""Non-negative factorization residual detector.

Factor the matrix as the product of two non-negative matrices of inner
dimension k, minimizing the squared Frobenius reconstruction error by
cyclic coordinate descent on the factor columns (HALS updates). Anomaly
scores are the signed residual `values - reconstruction`: entries the
low-rank model under-predicts rank highest.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..errors import VrfError
from .scoring import Scored

logger = logging.getLogger(__name__)

DEFAULT_K = 5
DEFAULT_TOL = 1e-4     # relative objective change
DEFAULT_MAX_ITER = 200
_EPS = 1e-12


@dataclass(frozen=True)
class NmfResult:
    row_factors: np.ndarray   # (n_rows, k), >= 0
    col_factors: np.ndarray   # (n_cols, k), >= 0
    objective: list[float]    # squared Frobenius error per iteration (index 0 = init)
    converged: bool

    def reconstruction(self) -> np.ndarray:
        return self.row_factors @ self.col_factors.T


def _nndsvd_init(m: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic SVD-based non-negative init; zero entries are filled
    with the matrix mean so no coordinate starts locked at zero. If the SVD
    fails, both factors start from one fixed uniform draw instead."""
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError:
        logger.warning("SVD failed during init; falling back to a fixed uniform draw")
        rng = np.random.default_rng(0)
        scale = np.sqrt(max(m.mean(), _EPS) / k)
        return (
            rng.uniform(0.0, 1.0, size=(m.shape[0], k)) * scale,
            rng.uniform(0.0, 1.0, size=(m.shape[1], k)) * scale,
        )
    p = np.zeros((m.shape[0], k))
    q = np.zeros((m.shape[1], k))
    p[:, 0] = np.sqrt(s[0]) * np.abs(u[:, 0])
    q[:, 0] = np.sqrt(s[0]) * np.abs(vt[0, :])
    for t in range(1, k):
        x, y = u[:, t], vt[t, :]
        xp, xn = np.maximum(x, 0), np.maximum(-x, 0)
        yp, yn = np.maximum(y, 0), np.maximum(-y, 0)
        pos = np.linalg.norm(xp) * np.linalg.norm(yp)
        neg = np.linalg.norm(xn) * np.linalg.norm(yn)
        if pos >= neg:
            xs, ys, norm = xp, yp, pos
        else:
            xs, ys, norm = xn, yn, neg
        if norm <= _EPS:
            continue  # degenerate direction; mean fill below covers it
        coef = np.sqrt(s[t] * norm)
        p[:, t] = coef * xs / np.linalg.norm(xs)
        q[:, t] = coef * ys / np.linalg.norm(ys)
    fill = max(float(m.mean()), _EPS)
    p[p <= 0] = fill
    q[q <= 0] = fill
    return p, q


def _update_columns(f: np.ndarray, gram: np.ndarray, cross: np.ndarray) -> None:
    """One HALS half-sweep in place: solve each column of `f` exactly, with
    a non-negativity clip, given the fixed factor's `gram` and `cross`."""
    for t in range(f.shape[1]):
        denom = gram[t, t]
        if denom <= _EPS:
            continue
        f[:, t] = np.maximum(0.0, f[:, t] + (cross[:, t] - f @ gram[:, t]) / denom)


def nmf_factorize(
    values: np.ndarray,
    k: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> NmfResult:
    """Coordinate-descent non-negative factorization of a non-negative matrix.

    Each iteration cycles over the k columns of both factors, solving each
    column subproblem exactly with a non-negativity clip, so the objective
    is non-increasing across iterations. Stops when the relative objective
    change falls below `tol` or after `max_iter` iterations.
    """
    m = np.asarray(values, dtype=float)
    if np.any(m < 0):
        raise VrfError("factorization input must be non-negative")
    if k < 1 or k > min(m.shape):
        raise VrfError(f"k must be in [1, {min(m.shape)}], got {k}")

    p, q = _nndsvd_init(m, k)

    def objective() -> float:
        diff = m - p @ q.T
        return float(np.sum(diff * diff))

    history = [objective()]
    converged = False
    for _ in range(max_iter):
        # the gram and cross products only involve the fixed factor, so
        # they are exact for the whole half-sweep
        _update_columns(p, q.T @ q, m @ q)
        _update_columns(q, p.T @ p, m.T @ p)

        history.append(objective())
        prev, curr = history[-2], history[-1]
        if prev - curr <= tol * max(prev, _EPS):
            converged = True
            break

    return NmfResult(row_factors=p, col_factors=q, objective=history, converged=converged)


def nmf_residual_scores(
    values: np.ndarray,
    k: int = DEFAULT_K,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> Scored:
    """Signed residual scores `values - reconstruction` under a rank-k
    non-negative factorization. k is clamped to min(grid shape)."""
    if k > min(values.shape):
        logger.warning("k=%d exceeds min(shape)=%d; clamping", k, min(values.shape))
        k = min(values.shape)
    result = nmf_factorize(values, k=k, tol=tol, max_iter=max_iter)
    return Scored(values - result.reconstruction(), {
        "k": k,
        "tol": tol,
        "max_iter": max_iter,
        "converged": result.converged,
        "iterations": len(result.objective) - 1,
        "objective": result.objective[-1],
    })
