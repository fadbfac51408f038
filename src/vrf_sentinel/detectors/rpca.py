"""Sparse-plus-low-rank decomposition detector.

Splits the matrix into a low-rank part (nuclear-norm penalized) and a
sparse part (l1 penalized) subject to the two summing back to the input.
Solved by iterative shrinkage with an augmented-Lagrangian multiplier:
each pass applies singular-value soft-thresholding for the low-rank part
and entrywise soft-thresholding (threshold lambda * step) for the sparse
part, then a dual update; the shrinkage step starts at 1/spectral-norm
and decays geometrically so the equality constraint is met to tolerance.
Anomaly scores are the entries of the sparse component.

Singular values are thresholded without an SVD, from `np.linalg.eigh` of
the smaller Gram matrix (x x^T or x^T x). That squares the condition
number, which costs accuracy only in singular values far below the largest;
`tests/oracles.py::svd_threshold` keeps the SVD version as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import VrfError
from .scoring import Scored

DEFAULT_TOL = 1e-7      # relative Frobenius feasibility
DEFAULT_MAX_ITER = 1000
_STEP_DECAY = 1.6       # per-iteration shrink of the thresholding step
_STEP_SCALE = 0.8       # initial step = _STEP_SCALE * spectral norm


def default_lambda(shape: tuple[int, int]) -> float:
    """Standard sparsity weight 1/sqrt(max dimension)."""
    return 1.0 / np.sqrt(max(shape))


def _soft_threshold(x: np.ndarray, tau: float, spare: np.ndarray) -> np.ndarray:
    """x shrunk toward 0 by tau, sign(x) * max(|x| - tau, 0), written over x;
    `spare`, a dead grid of x's shape, holds the signs."""
    sign = np.sign(x, out=spare)
    np.abs(x, out=x)
    x -= tau
    np.maximum(x, 0.0, out=x)
    return np.multiply(sign, x, out=x)


def _svd_threshold(x: np.ndarray, tau: float) -> np.ndarray:
    """Soft-threshold the singular values of x by tau, from the eigenpairs
    of x x^T: the kept left singular vectors, scaled by (s - tau) / s."""
    if x.shape[0] > x.shape[1]:  # the transpose has the smaller Gram matrix
        return _svd_threshold(x.T, tau).T
    eigvals, u = np.linalg.eigh(x @ x.T)
    s = np.sqrt(np.maximum(eigvals, 0.0))
    keep = s > tau
    u, s = u[:, keep], s[keep]
    projected = u.T @ x
    u *= (s - tau) / s  # u is a copy of the kept columns, scaled in place
    return u @ projected


@dataclass(frozen=True)
class RpcaResult:
    low_rank: np.ndarray
    sparse: np.ndarray
    converged: bool
    iterations: int
    residual: float  # ||M - L - S||_F / ||M||_F


def rpca_decompose(
    values: np.ndarray,
    lam: float | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> RpcaResult:
    """Decompose a grid into low-rank + sparse parts (deterministic)."""
    m = np.asarray(values, dtype=float)
    if lam is None:
        lam = default_lambda(m.shape)
    if not 0 < lam < np.inf:  # also false for nan
        raise VrfError(f"lambda must be positive and finite, got {lam!r}")

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
    # Each step writes into a grid that is dead by then, so only m, dual and
    # the thresholding input are alive through the SVT, and at most m, dual,
    # low, sparse and gap around it.
    for iterations in range(1, max_iter + 1):
        x = np.subtract(m, sparse, out=sparse)  # m - sparse + dual / mu
        x += np.divide(dual, mu, out=low)
        del low, sparse
        low = _svd_threshold(x, step)
        gap = np.divide(dual, mu)
        sparse = np.subtract(m, low, out=x)  # m - low + dual / mu
        sparse += gap
        sparse = _soft_threshold(sparse, lam * step, spare=gap)
        np.subtract(m, low, out=gap)
        gap -= sparse
        residual = float(np.linalg.norm(gap, "fro")) / m_fro
        gap *= mu
        dual += gap  # dual + mu * gap
        del gap
        if residual <= tol:
            converged = True
            break
        step /= _STEP_DECAY
        mu *= _STEP_DECAY

    return RpcaResult(low, sparse, converged, iterations, residual)


def rpca_scores(
    values: np.ndarray,
    lam: float | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> Scored:
    """Sparse-component entries as anomaly scores."""
    if lam is None:
        lam = default_lambda(values.shape)
    result = rpca_decompose(values, lam=lam, tol=tol, max_iter=max_iter)
    return Scored(result.sparse, {
        "lambda": lam,
        "tol": tol,
        "max_iter": max_iter,
        "converged": result.converged,
        "iterations": result.iterations,
        "residual": result.residual,
    })
