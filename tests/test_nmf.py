import datetime as dt

import numpy as np
import pytest

from vrf_sentinel.detectors import rank_entries
from vrf_sentinel.detectors.nmf import nmf_factorize, nmf_residual_scores
from vrf_sentinel.errors import VrfError
from vrf_sentinel.modmatrix import MatrixEntryRef, ModificationMatrix, build_intervals
from vrf_sentinel.records import ChangeType

# objective is mathematically non-increasing; allow only float rounding
FP_SLACK = 1e-9


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


def test_objective_non_increasing_random_matrices():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m = rng.uniform(0.0, 1.0, size=(30, 40))
        result = nmf_factorize(m, k=4, seed=seed, tol=1e-12, max_iter=60)
        obj = result.objective
        for prev, curr in zip(obj, obj[1:]):
            assert curr <= prev + FP_SLACK * (1.0 + obj[0])


def test_rank_one_exact_factorization():
    rng = np.random.default_rng(7)
    m = np.outer(rng.uniform(0.5, 2.0, 30), rng.uniform(0.5, 2.0, 40))
    result = nmf_factorize(m, k=1, seed=0)
    assert np.abs(m - result.reconstruction()).max() <= 1e-6
    assert result.converged


def test_rank_one_with_zero_entries():
    u = np.array([1.0, 2.0, 0.0, 1.5])
    v = np.array([3.0, 0.0, 4.0])
    result = nmf_factorize(np.outer(u, v), k=1, seed=0)
    assert np.abs(np.outer(u, v) - result.reconstruction()).max() <= 1e-6


def test_spike_on_rank_two_background_is_top_residual():
    # both components carry real mass, so a k=2 fit cannot afford to spend
    # one of them absorbing a single 5-unit spike
    u1, v1 = np.linspace(1.0, 2.0, 20), np.linspace(2.0, 1.0, 24)
    u2 = 2.0 + 1.5 * np.sin(np.arange(20))
    v2 = 2.0 + 1.5 * np.cos(np.arange(24))
    values = np.outer(u1, v1) + np.outer(u2, v2)
    values[3, 7] += 5.0
    scored = nmf_residual_scores(as_matrix(values), k=2, seed=0)
    ranked = rank_entries(scored)
    assert ranked.top(1)[0] == MatrixEntryRef(3, 7)
    assert scored.scores[3, 7] > 2.0


def test_factors_stay_non_negative():
    rng = np.random.default_rng(3)
    result = nmf_factorize(rng.uniform(0, 2, size=(15, 20)), k=3, seed=1)
    assert (result.row_factors >= 0).all()
    assert (result.col_factors >= 0).all()


def test_seed_reproducibility_bit_identical():
    rng = np.random.default_rng(5)
    m = rng.uniform(0, 1, size=(20, 25))
    a = nmf_residual_scores(as_matrix(m), k=5, seed=42)
    b = nmf_residual_scores(as_matrix(m), k=5, seed=42)
    assert np.array_equal(a.scores, b.scores)


def test_negative_input_rejected():
    with pytest.raises(VrfError, match="non-negative"):
        nmf_factorize(np.array([[1.0, -0.1], [0.0, 2.0]]), k=1)


def test_k_out_of_range_rejected():
    with pytest.raises(VrfError, match="k must be"):
        nmf_factorize(np.ones((3, 3)), k=4)


def test_nonconvergence_returns_best_iterate():
    rng = np.random.default_rng(9)
    m = rng.uniform(0, 1, size=(25, 30))
    result = nmf_factorize(m, k=3, seed=0, tol=0.0, max_iter=3)
    assert not result.converged
    assert len(result.objective) == 4  # init + 3 iterations
    scored = nmf_residual_scores(as_matrix(m), k=3, seed=0, tol=0.0, max_iter=3)
    assert scored.params["converged"] is False


def test_default_k_recorded_in_params():
    rng = np.random.default_rng(13)
    scored = nmf_residual_scores(as_matrix(rng.uniform(0, 1, size=(10, 12))), seed=0)
    assert scored.params["k"] == 5
