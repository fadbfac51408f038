import csv
import math
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
import vrf_sentinel.evalharness as ev
from vrf_sentinel.detectors import global_scores, rank_entries
from vrf_sentinel.errors import VrfError
from vrf_sentinel.modmatrix import MatrixEntryRef


def ranking_of(cells):
    """A ranking (flat cell indices, best first) straight from an explicit
    order of every cell of a grid."""
    n_cols = 1 + max(j for _, j in cells)
    return np.array([i * n_cols + j for i, j in cells])


# --- perturbation ----------------------------------------------------------------


def test_perturb_gamma_zero_is_identity():
    values = np.random.default_rng(0).uniform(0, 1, size=(5, 6))
    cells = ev.perturbed_cells(values.shape, fraction=0.1, seed=1)
    assert np.array_equal(ev.perturb(values, cells, 0.0), values)


def test_perturb_exact_cell_count():
    cells = ev.perturbed_cells((10, 10), fraction=0.01, seed=2)
    assert len(cells) == 1
    cells = ev.perturbed_cells((99, 149), fraction=0.01, seed=2)
    assert len(cells) == 148  # round(147.51)
    assert len(set(cells.tolist())) == len(cells)


def test_perturb_deltas_are_exactly_gamma():
    values = np.random.default_rng(3).uniform(0, 1, size=(8, 9))
    cells = ev.perturbed_cells(values.shape, fraction=0.05, seed=4)
    diff = ev.perturb(values, cells, 2.5) - values
    for i in range(8):
        for j in range(9):
            expected = 2.5 if i * 9 + j in cells else 0.0
            assert diff[i, j] == expected


def test_perturb_returns_a_read_only_copy():
    values = np.random.default_rng(5).uniform(0, 1, size=(4, 4))
    before = values.copy()
    cells = ev.perturbed_cells(values.shape, fraction=0.2, seed=6)
    perturbed = ev.perturb(values, cells, 1.0)
    assert np.array_equal(values, before)
    assert not perturbed.flags.writeable


def test_perturb_seed_deterministic():
    a = ev.perturbed_cells((20, 20), fraction=0.05, seed=7)
    b = ev.perturbed_cells((20, 20), fraction=0.05, seed=7)
    c = ev.perturbed_cells((20, 20), fraction=0.05, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# --- precision and rank metrics ----------------------------------------------------


def test_precision_truth_equals_topk():
    ranked = ranking_of([(0, n) for n in range(10)])
    truth = np.arange(4)
    assert ev.precision_at_k(ranked, truth, 4) == 1.0


def test_precision_disjoint():
    ranked = ranking_of([(0, n) for n in range(10)])
    truth = np.array([9 * 10 + 9])
    assert ev.precision_at_k(ranked, truth, 5) == 0.0


def test_precision_three_quarters():
    ranked = ranking_of([(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)])
    truth = np.array([0, 1, 3])
    assert ev.precision_at_k(ranked, truth, 4) == 0.75


@pytest.mark.parametrize("k", [0, -3])
def test_precision_rejects_k_below_one(k):
    ranked = ranking_of([(0, n) for n in range(10)])
    with pytest.raises(VrfError, match="at least 1"):
        ev.precision_at_k(ranked, np.arange(4), k)


# The average rank of flat cells in a ranking, as acceptance criterion 2
# computes it: (np.flatnonzero(np.isin(order, cells)) + 1).mean()


def test_average_rank_best_case():
    cells = [(0, n) for n in range(10)]
    ranked = ranking_of(cells)
    truth = np.arange(4)
    assert (np.flatnonzero(np.isin(ranked, truth)) + 1).mean() == 2.5


def test_average_rank_worst_case_14751():
    # full-size ranking: truth at the very bottom of 99 * 149 entries
    values = np.arange(99 * 149, dtype=float).reshape(99, 149)[::-1]
    order = rank_entries(global_scores(values, "std"), values)
    bottom = order[-4:]
    assert (np.flatnonzero(np.isin(order, bottom)) + 1).mean() == 14749.5


def test_average_rank_single_top():
    ranked = ranking_of([(0, 0), (0, 1)])
    assert (np.flatnonzero(np.isin(ranked, [0])) + 1).mean() == 1.0


# few distinct values, so ties, signed zeros and both infinities are common
_SCORE_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf])


@st.composite
def grids_and_cells(draw, values):
    """A grid drawn from `values`, a second grid or None, and a distinct,
    unsorted set of its flat cells."""
    n_rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    grid = st.lists(values, min_size=n_rows * n_cols, max_size=n_rows * n_cols).map(
        lambda cells: np.array(cells, dtype=float).reshape(n_rows, n_cols)
    )
    cells = st.lists(st.integers(0, n_rows * n_cols - 1), min_size=1, unique=True)
    return draw(grid), draw(st.none() | grid), np.array(draw(cells))


@given(grids_and_cells(_SCORE_VALUES))
def test_flat_cell_metrics_match_brute_force(case):
    scores, source, cells = case
    n_cols = scores.shape[1]
    order = rank_entries(scores, source)
    truth = {MatrixEntryRef(*divmod(cell, n_cols)) for cell in cells.tolist()}
    for k in range(1, len(order) + 1):
        got = ev.precision_at_k(order, cells, k)
        assert got == oracles.bf_precision_at_k(order, n_cols, truth, k)
    average_rank = (np.flatnonzero(np.isin(order, cells)) + 1).mean()
    assert average_rank == oracles.bf_average_rank(order, n_cols, truth)


@given(grids_and_cells(st.floats(0.0, 1e9)), st.floats(0.0, 1e9))
def test_perturb_adds_gamma_to_exactly_the_listed_cells(case, gamma):
    values, _, cells = case
    want = values.copy()
    for cell in cells.tolist():
        i, j = divmod(cell, values.shape[1])
        want[i, j] += gamma
    assert ev.perturb(values, cells, gamma).tobytes() == want.tobytes()


# --- sweeps ------------------------------------------------------------------------


def test_sweep_constant_background_reaches_one():
    result = ev.gamma_sweeps(
        np.full((10, 12), 1.0), ("global_std",), fraction=0.05, k=6, grid_points=5, seed=0
    )[0]
    assert result.precision_at_k[0] <= 0.2  # no signal at gamma=0
    assert all(p == 1.0 for p in result.precision_at_k[1:])


def test_sweep_grid_endpoint_is_twenty_times_mean():
    rng = np.random.default_rng(9)
    values = rng.uniform(0, 2, size=(8, 9))
    result = ev.gamma_sweeps(values, ("global_std",), grid_points=5, k=5, seed=1)[0]
    assert result.gamma_grid[0] == 0.0
    assert result.gamma_grid[-1] == pytest.approx(20.0 * values.mean(), rel=1e-12)


def test_sweep_reproducible():
    rng = np.random.default_rng(10)
    values = rng.uniform(0, 1, size=(10, 10))
    a = ev.gamma_sweeps(values, ("cl_std_3",), fraction=0.05, k=5, grid_points=4, seed=3)[0]
    b = ev.gamma_sweeps(values, ("cl_std_3",), fraction=0.05, k=5, grid_points=4, seed=3)[0]
    assert a == b


def test_sweeps_on_a_fork_pool_match_one_process_and_leave_no_worker():
    values = np.random.default_rng(14).uniform(0, 1, size=(9, 11))
    methods = ("nmf", "rpca", "cl_std_3", "global_iqr")
    options = dict(fraction=0.05, k=5, grid_points=4, seed=6)
    serial = ev.gamma_sweeps(values, methods, **options)
    assert ev.gamma_sweeps(values, methods, workers=3, **options) == serial
    assert multiprocessing.active_children() == []
    assert [result.method for result in serial] == list(methods)
    assert serial[1] == ev.gamma_sweeps(values, ("rpca",), **options)[0]


def test_auc_bounds_and_normalization():
    rng = np.random.default_rng(12)
    values = rng.uniform(0, 1, size=(9, 9))
    for method in ("global_std", "temporal_iqr", "cl_std_3"):
        result = ev.gamma_sweeps(values, (method,), fraction=0.05, k=5, grid_points=4, seed=5)[0]
        assert 0.0 <= result.auc <= 1.0


def test_gamma_zero_precision_matches_fraction():
    """With no signal, mean precision over seeds sits near the fraction."""
    rng = np.random.default_rng(13)
    values = rng.uniform(0, 1, size=(20, 25))
    ranked = rank_entries(global_scores(values, "std"), values)
    fraction, k = 0.05, 10
    precisions = []
    for seed in range(100):
        cells = ev.perturbed_cells(values.shape, fraction=fraction, seed=seed)
        precisions.append(ev.precision_at_k(ranked, cells, k))
    mean = float(np.mean(precisions))
    se = float(np.std(precisions)) / math.sqrt(len(precisions))
    assert abs(mean - fraction) <= 3 * se + 1e-9


# --- report artifacts ----------------------------------------------------------------


def test_sweep_report_row_counts(tmp_path):
    results = [
        ev.SweepResult("global_std", (0.0, 1.0, 2.0), (0.0, 0.5, 1.0), auc=0.5),
        ev.SweepResult("cl_std_3", (0.0, 1.0, 2.0), (0.5, 1.0, 1.0), auc=0.875),
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
        order = rank_entries(global_scores(values, "std"), values)
        t = int(rng.integers(1, 6))
        truth = rng.choice(len(order), size=t, replace=False)
        got = (np.flatnonzero(np.isin(order, order[truth])) + 1).mean()
        assert (t + 1) / 2 <= got <= total - (t - 1) / 2
