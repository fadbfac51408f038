import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from vrf_sentinel.detectors import rank_entries
from vrf_sentinel.detectors.rpca import _svd_threshold, default_lambda, rpca_decompose, rpca_scores
from vrf_sentinel.errors import VrfError


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
    for shape in ((60, 80), (80, 60)):  # wide and tall thresholding branches
        for seed in range(20):
            low, spikes, idx = spike_instance(seed, shape=shape)
            observed = low + spikes
            result = rpca_decompose(observed, lam=default_lambda(observed.shape))
            assert result.converged
            assert result.residual <= 1e-7
            top = np.argsort(np.abs(result.sparse).ravel())[::-1][: len(idx)]
            hit = len(set(int(t) for t in top) & set(int(i) for i in idx)) / len(idx)
            assert hit >= 0.95


def test_gram_threshold_matches_svd_threshold():
    # criterion 6's instances draw from default_rng(seed + 100) in this order
    cases = [low + spikes for low, spikes, _ in (spike_instance(s + 100) for s in range(20))]
    rng = np.random.default_rng(41)
    cases += [
        rng.normal(size=(80, 60)),  # tall: thresholds through x.T @ x
        rng.normal(size=(30, 3)) @ rng.normal(size=(3, 40)),  # rank 3
        np.vstack([rng.normal(size=(20, 25)), np.zeros((5, 25))]),  # zero rows
    ]
    eps = np.finfo(float).eps
    for x in cases:
        s_max = float(np.linalg.norm(x, 2))
        for tau in (0.5 * s_max, 0.1 * s_max, 1e-4 * s_max):
            # the Gram matrix's backward error, ~eps * s_max**2, reaches the
            # result through the shrink (s - tau) / s at slope <= 1 / (2 tau)
            tolerance = 16 * eps * s_max**2 / tau
            got = _svd_threshold(x, tau)
            assert got.shape == x.shape
            np.testing.assert_allclose(got, oracles.svd_threshold(x, tau), rtol=0, atol=tolerance)
        assert not _svd_threshold(x, 1.01 * s_max).any()


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
    scored = rpca_scores(values, lam=default_lambda(values.shape))
    order = rank_entries(scored.scores, values)
    assert divmod(int(order[0]), 15) == (0, 0)
    assert scored.params["converged"] is True


def test_zero_matrix_scores_tie_by_index():
    values = np.zeros((2, 3))
    order = rank_entries(rpca_scores(values).scores, values)
    assert [divmod(ix, 3) for ix in order[:3].tolist()] == [(0, 0), (0, 1), (0, 2)]


def test_pure_low_rank_scores_small():
    rng = np.random.default_rng(23)
    low = np.abs(np.outer(rng.uniform(1, 2, 20), rng.uniform(1, 2, 25)))
    low += np.abs(np.outer(rng.uniform(0, 1, 20), rng.uniform(0, 1, 25)))
    scored = rpca_scores(low)
    assert np.abs(scored.scores).max() <= 0.05 * low.max()


def test_feasibility_reported_in_params():
    low, spikes, _ = spike_instance(3, shape=(30, 35))
    scored = rpca_scores(np.abs(low + spikes))
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


def assert_matches_expression_loop(values, **options):
    """rpca_decompose gives the bits, iterations, residual and convergence
    of the loop written one expression a step (`oracles`)."""
    got = rpca_decompose(values, **options)
    low, sparse, converged, iterations, residual = oracles.loop_rpca_decompose(values, **options)
    assert got.low_rank.view(np.int64).tolist() == low.view(np.int64).tolist()
    assert got.sparse.view(np.int64).tolist() == sparse.view(np.int64).tolist()
    assert (got.iterations, got.residual, got.converged) == (iterations, residual, converged)


@st.composite
def rpca_grids(draw):
    """Wide and tall grids, some with zero rows, some constant."""
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["cells", "zero_rows", "constant"]))
    if kind == "constant":
        return np.full((rows, cols), draw(st.floats(0, 1e3)))
    cells = st.floats(0, 1e3) | st.integers(0, 40).map(float)
    grid = np.array(draw(st.lists(cells, min_size=rows * cols, max_size=rows * cols)))
    grid = grid.reshape(rows, cols)
    if kind == "zero_rows":
        grid[draw(st.lists(st.integers(0, rows - 1), max_size=rows))] = 0.0
    return grid


@settings(max_examples=60)
@given(rpca_grids(), st.sampled_from([{}, {"max_iter": 3}, {"tol": 1e-3}]))
def test_decomposition_matches_the_expression_loop(values, options):
    assert_matches_expression_loop(values, **options)


def test_decomposition_matches_the_expression_loop_on_spike_instances():
    for shape in ((60, 80), (80, 60)):  # wide and tall thresholding branches
        low, spikes, _ = spike_instance(2, shape=shape)
        assert_matches_expression_loop(np.abs(low + spikes))


def test_decompose_peak_memory_per_cell():
    """Each step writes into a grid that is dead by then, so above its input
    the loop holds the dual and at most three more grids, and through the
    SVT only the dual, the SVT's input and the SVT's own arrays: 34 bytes a
    cell over 20 iterations at 500 x 520, where a new array for each step
    held 64."""
    values = np.random.default_rng(3).random((500, 520))
    tracemalloc.start()
    try:
        result = rpca_decompose(values, max_iter=20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.iterations == 20
    assert peak <= 48 * values.size
