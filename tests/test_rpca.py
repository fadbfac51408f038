import datetime as dt

import numpy as np
import pytest

from vrf_sentinel.detectors import rank_entries
from vrf_sentinel.detectors.rpca import default_lambda, rpca_decompose, rpca_scores
from vrf_sentinel.errors import VrfError
from vrf_sentinel.modmatrix import MatrixEntryRef, ModificationMatrix, build_intervals
from vrf_sentinel.records import ChangeType


def as_matrix(values):
    values = np.asarray(values, dtype=float)
    values = np.maximum(values, 0.0)
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


def spike_instance(seed, shape=(60, 80), rank=2, spike_scale=10.0, fraction=0.01):
    rng = np.random.default_rng(seed)
    m, n = shape
    low = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))
    magnitude = np.abs(low).mean()
    spikes = np.zeros((m, n))
    count = int(round(fraction * m * n))
    idx = rng.choice(m * n, size=count, replace=False)
    spikes.flat[idx] = spike_scale * magnitude * rng.choice([-1.0, 1.0], size=count)
    return low, spikes, idx


def test_spike_support_recovery_twenty_instances():
    for seed in range(20):
        low, spikes, idx = spike_instance(seed)
        observed = low + spikes
        result = rpca_decompose(observed, lam=default_lambda(observed.shape))
        assert result.converged
        assert result.residual <= 1e-7
        top = np.argsort(np.abs(result.sparse).ravel())[::-1][: len(idx)]
        hit = len(set(int(t) for t in top) & set(int(i) for i in idx)) / len(idx)
        assert hit >= 0.95


def test_zero_matrix():
    result = rpca_decompose(np.zeros((8, 9)))
    assert result.converged
    assert not result.low_rank.any()
    assert not result.sparse.any()


def test_pure_low_rank_sparse_part_small():
    rng = np.random.default_rng(31)
    low = np.abs(rng.normal(size=(40, 2)) @ rng.normal(size=(2, 50)))
    result = rpca_decompose(low, lam=default_lambda(low.shape))
    assert result.converged
    assert np.abs(result.sparse).sum() <= 0.05 * np.abs(low).sum()


def test_single_spike_instance_scores_rank_first():
    rng = np.random.default_rng(17)
    low = np.abs(np.outer(rng.uniform(0.5, 1.5, 12), rng.uniform(0.5, 1.5, 15)))
    values = low.copy()
    values[0, 0] += 10.0
    matrix = as_matrix(values)
    scored = rpca_scores(matrix, lam=default_lambda(matrix.shape))
    ranked = rank_entries(scored)
    assert ranked.top(1)[0] == MatrixEntryRef(0, 0)
    assert scored.params["converged"] is True


def test_zero_matrix_scores_tie_by_index():
    ranked = rank_entries(rpca_scores(as_matrix(np.zeros((2, 3)))))
    assert [r.as_tuple() for r in ranked.top(3)] == [(0, 0), (0, 1), (0, 2)]


def test_pure_low_rank_scores_small():
    rng = np.random.default_rng(23)
    low = np.abs(np.outer(rng.uniform(1, 2, 20), rng.uniform(1, 2, 25)))
    low += np.abs(np.outer(rng.uniform(0, 1, 20), rng.uniform(0, 1, 25)))
    scored = rpca_scores(as_matrix(low))
    assert np.abs(scored.scores).max() <= 0.05 * low.max()


def test_feasibility_reported_in_params():
    low, spikes, _ = spike_instance(3, shape=(30, 35))
    matrix = as_matrix(np.abs(low + spikes))
    scored = rpca_scores(matrix)
    assert scored.params["residual"] <= 1e-7


def test_max_iter_exhaustion_flags_nonconvergence():
    low, spikes, _ = spike_instance(5, shape=(30, 35))
    result = rpca_decompose(low + spikes, max_iter=2)
    assert not result.converged
    assert result.iterations == 2


def test_lambda_must_be_positive():
    with pytest.raises(VrfError, match="lambda"):
        rpca_decompose(np.ones((3, 3)), lam=0.0)


def test_decomposition_deterministic():
    low, spikes, _ = spike_instance(9)
    a = rpca_decompose(low + spikes)
    b = rpca_decompose(low + spikes)
    assert np.array_equal(a.sparse, b.sparse)
    assert np.array_equal(a.low_rank, b.low_rank)
