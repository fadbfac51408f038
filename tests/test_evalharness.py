import csv
import datetime as dt
import math

import numpy as np
import pytest

import vrf_sentinel.evalharness as ev
from vrf_sentinel.detectors import global_scores, rank_entries
from vrf_sentinel.detectors.ranking import RankedEntries
from vrf_sentinel.errors import VrfError
from vrf_sentinel.modmatrix import MatrixEntryRef, ModificationMatrix, build_intervals
from vrf_sentinel.records import ChangeType


def as_matrix(values):
    values = np.asarray(values, dtype=float)
    n_rows, n_cols = values.shape
    start = dt.date(2019, 1, 3)
    return ModificationMatrix(
        change_type=ChangeType.DEACTIVATION,
        locales=tuple(f"L{i:03d}" for i in range(n_rows)),
        intervals=build_intervals(start, start + dt.timedelta(days=7 * (n_cols - 1)), 7),
        values=values,
        raw_counts=np.zeros_like(values, dtype=np.int64),
        populations=np.ones_like(values, dtype=np.int64),
    )


def ranking_of(cells):
    """RankedEntries straight from an explicit order of every cell of a grid."""
    n_rows = 1 + max(i for i, _ in cells)
    n_cols = 1 + max(j for _, j in cells)
    order = np.array([i * n_cols + j for i, j in cells])
    scores = np.empty(len(cells))
    scores[order] = -np.arange(len(cells), dtype=float)
    return RankedEntries(
        method="fixed",
        order=order,
        scores=scores,
        locales=tuple(f"L{i}" for i in range(n_rows)),
        interval_starts=("2019-01-03",) * n_cols,
    )


# --- perturbation ----------------------------------------------------------------


def test_perturb_gamma_zero_is_identity():
    matrix = as_matrix(np.random.default_rng(0).uniform(0, 1, size=(5, 6)))
    spec = ev.PerturbationSpec(shape=matrix.shape, gamma=0.0, fraction=0.1, seed=1)
    assert np.array_equal(ev.perturb(matrix, spec).values, matrix.values)


def test_perturb_exact_cell_count():
    spec = ev.PerturbationSpec(shape=(10, 10), gamma=1.0, fraction=0.01, seed=2)
    assert len(spec.perturbed_set) == 1
    spec = ev.PerturbationSpec(shape=(99, 149), gamma=1.0, fraction=0.01, seed=2)
    assert len(spec.perturbed_set) == 148  # round(147.51)
    assert len(set(spec.perturbed_set)) == len(spec.perturbed_set)


def test_perturb_deltas_are_exactly_gamma():
    matrix = as_matrix(np.random.default_rng(3).uniform(0, 1, size=(8, 9)))
    spec = ev.PerturbationSpec(shape=matrix.shape, gamma=2.5, fraction=0.05, seed=4)
    diff = ev.perturb(matrix, spec).values - matrix.values
    for i in range(8):
        for j in range(9):
            expected = 2.5 if MatrixEntryRef(i, j) in spec.truth() else 0.0
            assert diff[i, j] == expected


def test_perturb_leaves_raw_counts():
    matrix = as_matrix(np.random.default_rng(5).uniform(0, 1, size=(4, 4)))
    spec = ev.PerturbationSpec(shape=matrix.shape, gamma=1.0, fraction=0.2, seed=6)
    assert np.array_equal(ev.perturb(matrix, spec).raw_counts, matrix.raw_counts)


def test_perturb_seed_deterministic():
    a = ev.PerturbationSpec(shape=(20, 20), gamma=1.0, fraction=0.05, seed=7)
    b = ev.PerturbationSpec(shape=(20, 20), gamma=1.0, fraction=0.05, seed=7)
    c = ev.PerturbationSpec(shape=(20, 20), gamma=1.0, fraction=0.05, seed=8)
    assert a.perturbed_set == b.perturbed_set
    assert a.perturbed_set != c.perturbed_set


# --- precision and rank metrics ----------------------------------------------------


def test_precision_truth_equals_topk():
    ranked = ranking_of([(0, n) for n in range(10)])
    truth = {MatrixEntryRef(0, n) for n in range(4)}
    assert ev.precision_at_k(ranked, truth, 4) == 1.0


def test_precision_disjoint():
    ranked = ranking_of([(0, n) for n in range(10)])
    truth = {MatrixEntryRef(9, 9)}
    assert ev.precision_at_k(ranked, truth, 5) == 0.0


def test_precision_three_quarters():
    ranked = ranking_of([(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)])
    truth = {MatrixEntryRef(0, 0), MatrixEntryRef(0, 1), MatrixEntryRef(0, 3)}
    assert ev.precision_at_k(ranked, truth, 4) == 0.75


def test_average_rank_best_case():
    cells = [(0, n) for n in range(10)]
    ranked = ranking_of(cells)
    truth = {MatrixEntryRef(0, n) for n in range(4)}
    assert ev.average_rank(ranked, truth) == 2.5


def test_average_rank_worst_case_14751():
    # full-size ranking: truth at the very bottom of 99 * 149 entries
    values = np.arange(99 * 149, dtype=float).reshape(99, 149)[::-1]
    matrix = as_matrix(values)
    ranked = rank_entries(global_scores(matrix, "std"))
    bottom = ranked.top(len(ranked))[-4:]
    assert ev.average_rank(ranked, set(bottom)) == 14749.5


def test_average_rank_single_top():
    ranked = ranking_of([(0, 0), (0, 1)])
    assert ev.average_rank(ranked, {MatrixEntryRef(0, 0)}) == 1.0


def test_average_rank_empty_truth_rejected():
    with pytest.raises(VrfError):
        ev.average_rank(ranking_of([(0, 0)]), set())


# --- sweeps ------------------------------------------------------------------------


def test_sweep_constant_background_reaches_one():
    matrix = as_matrix(np.full((10, 12), 1.0))
    result = ev.gamma_sweep(matrix, "global_std", fraction=0.05, k=6, grid_points=5, seed=0)
    assert result.precision_at_k[0] <= 0.2  # no signal at gamma=0
    assert all(p == 1.0 for p in result.precision_at_k[1:])


def test_sweep_grid_endpoint_is_twenty_times_mean():
    rng = np.random.default_rng(9)
    matrix = as_matrix(rng.uniform(0, 2, size=(8, 9)))
    result = ev.gamma_sweep(matrix, "global_std", grid_points=5, k=5, seed=1)
    assert result.gamma_grid[0] == 0.0
    assert result.gamma_grid[-1] == pytest.approx(20.0 * matrix.values.mean(), rel=1e-12)


def test_sweep_reproducible():
    rng = np.random.default_rng(10)
    matrix = as_matrix(rng.uniform(0, 1, size=(10, 10)))
    a = ev.gamma_sweep(matrix, "cl_std_3", fraction=0.05, k=5, grid_points=4, seed=3)
    b = ev.gamma_sweep(matrix, "cl_std_3", fraction=0.05, k=5, grid_points=4, seed=3)
    assert a == b


def test_sweep_fixed_mask_reuses_cells():
    rng = np.random.default_rng(11)
    matrix = as_matrix(rng.uniform(0.4, 0.6, size=(12, 12)))
    fixed = ev.gamma_sweep(
        matrix, "global_std", fraction=0.05, k=7, grid_points=6, seed=4, fixed_mask=True
    )
    # monotone difficulty: same mask, growing gamma, global scoring
    precisions = fixed.precision_at_k
    assert all(b >= a for a, b in zip(precisions[1:], precisions[2:]))


def test_auc_bounds_and_normalization():
    rng = np.random.default_rng(12)
    matrix = as_matrix(rng.uniform(0, 1, size=(9, 9)))
    for method in ("global_std", "temporal_iqr", "cl_std_3"):
        result = ev.gamma_sweep(matrix, method, fraction=0.05, k=5, grid_points=4, seed=5)
        assert 0.0 <= result.auc <= 1.0


def test_gamma_zero_precision_matches_fraction():
    """With no signal, mean precision over seeds sits near the fraction."""
    rng = np.random.default_rng(13)
    matrix = as_matrix(rng.uniform(0, 1, size=(20, 25)))
    ranked = rank_entries(global_scores(matrix, "std"))
    fraction, k = 0.05, 10
    precisions = []
    for seed in range(100):
        spec = ev.PerturbationSpec(shape=matrix.shape, gamma=0.0, fraction=fraction, seed=seed)
        precisions.append(ev.precision_at_k(ranked, spec.truth(), k))
    mean = float(np.mean(precisions))
    se = float(np.std(precisions)) / math.sqrt(len(precisions))
    assert abs(mean - fraction) <= 3 * se + 1e-9


# --- report artifacts ----------------------------------------------------------------


def test_sweep_report_row_counts(tmp_path):
    results = [
        ev.SweepResult("global_std", (0.0, 1.0, 2.0), (0.0, 0.5, 1.0), auc=0.5, k=5),
        ev.SweepResult("cl_std_3", (0.0, 1.0, 2.0), (0.5, 1.0, 1.0), auc=0.875, k=5),
    ]
    paths = ev.sweep_report(results, str(tmp_path), change_type="address")
    with open(paths["sweep"]) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 6 + 2  # header + data rows + one auc row per method
    assert sum(1 for r in rows if r[1] == "auc") == 2
    with open(paths["auc"]) as fh:
        auc_rows = list(csv.reader(fh))
    assert auc_rows[0] == ["change_type", "global_std", "cl_std_3"]
    assert auc_rows[1][0] == "address"
    assert all(0.0 <= float(v) <= 1.0 for v in auc_rows[1][1:])
    assert (tmp_path / "sweep_address.svg").exists()


def test_sweep_report_empty(tmp_path):
    paths = ev.sweep_report([], str(tmp_path), change_type="party")
    with open(paths["sweep"]) as fh:
        rows = list(csv.reader(fh))
    assert rows == [["method", "gamma", "precision"]]


def test_average_rank_bounds_property():
    """best achievable mean rank with t truths is (t+1)/2; worst is n - (t-1)/2."""
    rng = np.random.default_rng(14)
    n_rows, n_cols = 6, 8
    total = n_rows * n_cols
    for _ in range(20):
        values = rng.uniform(0, 1, size=(n_rows, n_cols))
        ranked = rank_entries(global_scores(_matrix_for_bounds(values), "std"))
        t = int(rng.integers(1, 6))
        refs = ranked.top(len(ranked))
        truth = set(rng.choice(len(refs), size=t, replace=False).tolist())
        got = ev.average_rank(ranked, {refs[i] for i in truth})
        assert (t + 1) / 2 <= got <= total - (t - 1) / 2


def _matrix_for_bounds(values):
    return as_matrix(values)
