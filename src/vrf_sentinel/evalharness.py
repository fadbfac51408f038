"""Sparse-additive-noise evaluation of the detectors.

Perturbs a small random fraction of matrix entries by a positive amount
gamma, asks each detector to rank all entries, and measures the precision
of the top k against the perturbed set. Sweeping gamma from 0 to 20x the
matrix mean and integrating precision over the sweep (normalized to [0,1])
summarizes each method with a single AUC figure.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from .detectors import rank_entries, score_with_method
from .errors import VrfError
from .vrf_io import csv_line

DEFAULT_FRACTION = 0.01
DEFAULT_TOP_K = 20
DEFAULT_GRID_POINTS = 21
GAMMA_SPAN_MULTIPLIER = 20.0  # grid upper end = 20 * mean(values)


def perturbed_cells(
    shape: tuple[int, int], fraction: float = DEFAULT_FRACTION, seed: int = 0
) -> np.ndarray:
    """A seeded sparse cell set of one matrix shape: sorted, distinct flat
    row-major indices (locale_index * n_intervals + interval_index), a
    `fraction` of all cells and at least one."""
    if not 0 < fraction <= 1:
        raise VrfError("fraction must be in (0, 1]")
    total = shape[0] * shape[1]
    count = max(1, int(round(fraction * total)))
    return np.sort(np.random.default_rng(seed).choice(total, size=count, replace=False))


def perturb(values: np.ndarray, cells: np.ndarray, gamma: float) -> np.ndarray:
    """Read-only copy of the values grid with gamma added to each of the
    distinct flat `cells`."""
    if gamma < 0:
        raise VrfError("gamma must be non-negative")
    perturbed = np.array(values, dtype=float, order="C")
    perturbed.reshape(-1)[cells] += gamma
    perturbed.setflags(write=False)
    return perturbed


def precision_at_k(order: np.ndarray, cells: np.ndarray, k: int) -> float:
    """Share of the top k entries of the ranking `order` (a permutation of
    flat cells, best first) that are among the flat `cells`."""
    if k < 1:
        raise VrfError(f"k={k} must be at least 1")
    if k > len(order):
        raise VrfError(f"k={k} exceeds ranking length {len(order)}")
    return int(np.count_nonzero(np.isin(order[:k], cells))) / k


@dataclass(frozen=True)
class SweepResult:
    method: str
    gamma_grid: tuple[float, ...]
    precision_at_k: tuple[float, ...]
    auc: float
    unconverged: int = 0  # grid points whose detector did not converge
    iterations: int = 0   # detector iterations over all grid points (0 if not iterative)

    def __post_init__(self) -> None:
        if len(self.gamma_grid) != len(self.precision_at_k):
            raise VrfError("gamma grid and precision lists must align")


def _normalized_auc(gammas: np.ndarray, precisions: np.ndarray) -> float:
    span = float(gammas[-1] - gammas[0])
    if span == 0.0:
        return float(np.mean(precisions))
    return float(np.trapezoid(precisions, gammas) / span)


def point_seed(seed: int, grid_index: int) -> int:
    """Deterministic per-grid-point sub-seed."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(grid_index,))
    return int(ss.generate_state(1)[0])


@dataclass(frozen=True)
class _Sweep:
    """The settings every point of one sweep shares; a point is a (method,
    grid index) pair."""

    values: np.ndarray
    gammas: np.ndarray
    fraction: float
    k: int
    seed: int

    def point(self, task: tuple[str, int]) -> tuple[float, int, int]:
        """Precision at k of one method at one grid point, whether its
        detector did not converge (0 or 1), and its iterations."""
        method, index = task
        cells = perturbed_cells(self.values.shape, self.fraction, point_seed(self.seed, index))
        perturbed = perturb(self.values, cells, float(self.gammas[index]))
        scores, params = score_with_method(perturbed, method)
        precision = precision_at_k(rank_entries(scores, perturbed, k=self.k), cells, self.k)
        return precision, int(not params.get("converged", True)), int(params.get("iterations", 0))

    def result(self, method: str, points: list[tuple[float, int, int]]) -> SweepResult:
        precisions, unconverged, iterations = zip(*points)
        return SweepResult(
            method=method,
            gamma_grid=tuple(float(g) for g in self.gammas),
            precision_at_k=precisions,
            auc=_normalized_auc(self.gammas, np.asarray(precisions)),
            unconverged=sum(unconverged),
            iterations=sum(iterations),
        )


_worker_sweep: _Sweep | None = None  # set once in each pool worker, never in the caller


def _start_worker(sweep: _Sweep) -> None:
    global _worker_sweep
    _worker_sweep = sweep


def _worker_point(task: tuple[str, int]) -> tuple[float, int, int]:
    return _worker_sweep.point(task)


def gamma_sweeps(
    values: np.ndarray,
    methods: list[str] | tuple[str, ...],
    fraction: float = DEFAULT_FRACTION,
    k: int = DEFAULT_TOP_K,
    grid_points: int = DEFAULT_GRID_POINTS,
    seed: int = 0,
    workers: int = 1,
) -> list[SweepResult]:
    """Precision-vs-gamma sweeps of each method on one values grid, in
    method order.

    Each grid point draws a fresh perturbed set from a sub-seed of (seed,
    point index). With several `workers` the points run on a fork
    pool, one task per (method, grid index) in order; the values grid
    reaches the workers through the fork, and each point's result does not
    depend on which process ran it. The CLI forks only from a process it
    pinned to one BLAS thread, so no BLAS thread runs at the fork.
    """
    if grid_points < 2:
        raise VrfError("grid_points must be >= 2")
    gamma_max = GAMMA_SPAN_MULTIPLIER * float(np.mean(values))
    sweep = _Sweep(values, np.linspace(0.0, gamma_max, grid_points), fraction, k, seed)
    tasks = [(method, index) for method in methods for index in range(grid_points)]
    workers = min(workers, len(tasks))
    if workers > 1:
        fork = multiprocessing.get_context("fork")
        with fork.Pool(workers, initializer=_start_worker, initargs=(sweep,)) as pool:
            points = pool.map(_worker_point, tasks, chunksize=1)
            pool.close()
            pool.join()
    else:
        points = list(map(sweep.point, tasks))
    return [
        sweep.result(method, points[n * grid_points:(n + 1) * grid_points])
        for n, method in enumerate(methods)
    ]


def sweep_report(
    results: list[SweepResult],
    outdir: str,
    change_type: str = "deactivation",
) -> dict[str, str]:
    """Write the sweep CSV, the AUC summary, and an SVG line plot.

    Returns the mapping of artifact kind to written path.
    """
    from .plots import render_sweep_svg

    os.makedirs(outdir, exist_ok=True)
    sweep_path = os.path.join(outdir, f"sweep_{change_type}.csv")
    with open(sweep_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(csv_line(("method", "gamma", "precision")))
        for result in results:
            for gamma, precision in zip(result.gamma_grid, result.precision_at_k):
                fh.write(csv_line((result.method, repr(gamma), repr(precision))))
        for result in results:  # one AUC summary row per method
            fh.write(csv_line((result.method, "auc", repr(result.auc))))

    auc_path = os.path.join(outdir, "auc_summary.csv")
    with open(auc_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(csv_line(("change_type", *[r.method for r in results])))
        if results:
            fh.write(csv_line((change_type, *["%.6f" % r.auc for r in results])))

    svg_path = os.path.join(outdir, f"sweep_{change_type}.svg")
    render_sweep_svg(results, svg_path, title=f"precision@k vs gamma ({change_type})")
    return {"sweep": sweep_path, "auc": auc_path, "svg": svg_path}
