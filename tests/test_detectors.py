import datetime as dt
import math
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
import vrf_sentinel.detectors as det
from vrf_sentinel.detectors import scoring
from vrf_sentinel.detectors.scoring import ScoreMatrix
from vrf_sentinel.errors import VrfError
from vrf_sentinel.modmatrix import ModificationMatrix, build_intervals
from vrf_sentinel.records import ChangeType

D0 = dt.date(2019, 1, 3)


def as_matrix(values):
    values = np.asarray(values, dtype=float)
    n_rows, n_cols = values.shape
    return ModificationMatrix(
        change_type=ChangeType.DEACTIVATION,
        locales=tuple(f"L{i:03d}" for i in range(n_rows)),
        intervals=build_intervals(D0, D0 + dt.timedelta(days=7 * (n_cols - 1)), 7),
        values=values,
        raw_counts=np.zeros_like(values, dtype=np.int64),
        populations=np.ones_like(values, dtype=np.int64),
    )


# --- scalar scores ---------------------------------------------------------------


def test_zscore_hand_value():
    sample = [1.0, 2.0, 3.0]
    mu = np.mean(sample)
    sigma = np.std(sample)
    assert scoring.zscore(3.0, mu, sigma) == pytest.approx(1.224745, abs=1e-6)


def test_zscore_at_mean_is_zero():
    assert scoring.zscore(2.0, 2.0, 0.5) == 0.0


def test_zscore_zero_variance_sentinels():
    assert scoring.zscore(2.0, 2.0, 0.0) == 0.0
    assert scoring.zscore(7.0, 2.0, 0.0) == math.inf
    assert scoring.zscore(1.0, 2.0, 0.0) == 0.0


def test_iqr_score_hand_value():
    # sample [1..5]: Q1=2, Q3=4 under linear interpolation
    assert scoring.iqr_score(5.0, 2.0, 4.0) == pytest.approx(0.5, abs=1e-12)


def test_iqr_score_at_q3_is_zero():
    assert scoring.iqr_score(4.0, 2.0, 4.0) == 0.0


def test_iqr_score_zero_spread_sentinel():
    assert scoring.iqr_score(7.0, 2.0, 2.0) == math.inf
    assert scoring.iqr_score(2.0, 2.0, 2.0) == 0.0


def test_zscore_location_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pool = rng.normal(size=12)
        x = float(rng.normal())
        base = scoring.zscore(x, float(pool.mean()), float(pool.std()))
        for c in (2.5, -1.0, 100.0):
            shifted = pool + c
            assert scoring.zscore(
                x + c, float(shifted.mean()), float(shifted.std())
            ) == pytest.approx(base, abs=1e-9)
        for c in (2.0, 7.5):
            scaled = pool * c
            assert scoring.zscore(
                x * c, float(scaled.mean()), float(scaled.std())
            ) == pytest.approx(base, abs=1e-9)


# --- grid scorers vs brute force ---------------------------------------------------


def test_statistic_scores_match_brute_force():
    rng = np.random.default_rng(42)
    for trial in range(100):
        n_rows = int(rng.integers(2, 9))
        n_cols = int(rng.integers(2, 9))
        values = rng.uniform(0, 3, size=(n_rows, n_cols))
        if trial % 5 == 0:
            values[rng.integers(n_rows)] = 1.0  # constant rows hit sentinels
        if trial % 7 == 0:
            values = np.round(values, 1)  # ties for the iqr path
        listed = values.tolist()
        w = int(rng.integers(0, 4))
        for stat in ("std", "iqr"):
            got = det.temporal_scores(values, stat)
            want = np.array(oracles.bf_temporal(listed, stat))
            np.testing.assert_allclose(got, want, atol=1e-12)

            got = det.cross_locale_scores(values, stat, w=w)
            want = np.array(oracles.bf_cross_locale(listed, stat, w))
            np.testing.assert_allclose(got, want, atol=1e-12)

            got = det.global_scores(values, stat)
            want = np.array(oracles.bf_global(listed, stat))
            np.testing.assert_allclose(got, want, atol=1e-12)


# signed zeros, ties and large magnitudes beside arbitrary values
_POOL_VALUES = st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e150]) | st.floats(0.0, 1e6)


@st.composite
def pool_grids(draw):
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(2, 10))
    cells = draw(st.lists(_POOL_VALUES, min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    values = np.array(cells).reshape(n_rows, n_cols)
    lo = draw(st.integers(0, n_cols))
    values[:, lo:draw(st.integers(lo, n_cols))] = draw(_POOL_VALUES)  # constant pools
    return values


@given(pool_grids(), st.integers(0, 4), st.sampled_from(["std", "iqr"]))
def test_batched_scores_match_per_pool_loop(values, w, stat):
    pairs = (
        (det.temporal_scores(values, stat), oracles.loop_temporal(values, stat)),
        (det.cross_locale_scores(values, stat, w=w), oracles.loop_cross_locale(values, stat, w)),
        (det.global_scores(values, stat), oracles.loop_global(values, stat)),
    )
    for got, want in pairs:
        assert got.tobytes() == want.tobytes()


@given(pool_grids(), st.integers(0, 4), st.sampled_from(["std", "iqr"]), st.integers(1, 40))
def test_cross_locale_chunks_match_per_pool_loop(values, w, stat, budget):
    """With a pooled-value budget of a few values, the interior columns are
    scored over many chunks, one column each at the smallest; the scores
    stay bit-identical to one pool at a time."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scoring, "POOL_CHUNK_VALUES", budget)
        got = det.cross_locale_scores(values, stat, w=w)
    assert got.tobytes() == oracles.loop_cross_locale(values, stat, w).tobytes()


@pytest.mark.parametrize("stat", ["std", "iqr"])
def test_cross_locale_peak_memory_per_cell(stat):
    """The pools are copied a chunk of columns at a time, so above its input
    the scorer holds the score grid and a fixed few MiB, not pools that
    grow with the window and the grid."""
    values = np.random.default_rng(3).random((500, 520))
    tracemalloc.start()
    try:
        scores = det.cross_locale_scores(values, stat, w=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scores.shape == (500, 520)
    assert peak <= 40 * values.size


def test_ranked_to_csv_peak_memory_per_cell(tmp_path):
    """The ranking is written a grid row's worth of ranks at a time, so above
    its inputs the writer holds one block's cells and lines, not arrays the
    size of the grid (24.6 bytes a cell when it split and gathered them all
    at once)."""
    matrix = as_matrix(np.random.default_rng(3).random((500, 520)))
    scored = ScoreMatrix("cl_iqr_5", matrix.values, matrix.locales, matrix.intervals, {})
    order = det.rank_entries(matrix.values, matrix.values)
    tracemalloc.start()
    try:
        det.ranked_to_csv(scored, order, str(tmp_path / "ranked.csv"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * order.size


def test_temporal_row_spike():
    scores = det.temporal_scores(np.array([[0.0, 0.0, 0.0, 10.0, 0.0]]), "std")
    assert scores[0].argmax() == 3
    assert (scores[0, 3] > np.delete(scores[0], 3)).all()


def test_temporal_constant_matrix_zero():
    scores = det.temporal_scores(np.full((3, 4), 2.0), "std")
    assert not scores.any()


def test_temporal_row_independence():
    rng = np.random.default_rng(1)
    values = rng.uniform(0, 1, size=(4, 6))
    scores = det.temporal_scores(values, "std")
    perm = [2, 0, 3, 1]
    permuted = det.temporal_scores(values[perm], "std")
    np.testing.assert_array_equal(permuted, scores[perm])


def test_cross_locale_w0_single_column():
    scores = det.cross_locale_scores(np.array([[1.0], [1.0], [10.0]]), "std", w=0)
    assert scores.argmax() == 2


def test_cross_locale_window_locality():
    rng = np.random.default_rng(2)
    values = rng.uniform(0, 1, size=(5, 9))
    w = 2
    base = det.cross_locale_scores(values, "std", w=w)
    tweaked = values.copy()
    tweaked[0, 8] += 50.0  # outside the window of column 4
    after = det.cross_locale_scores(tweaked, "std", w=w)
    np.testing.assert_array_equal(after[:, 4], base[:, 4])
    assert not np.array_equal(after[:, 8], base[:, 8])


def test_cross_locale_planted_spike_rank_one():
    rng = np.random.default_rng(3)
    values = rng.uniform(0.0, 0.3, size=(5, 9))
    values[2, 4] = 10.0 * 0.3
    order = det.rank_entries(det.cross_locale_scores(values, "std", w=2), values)
    assert divmod(int(order[0]), 9) == (2, 4)


def test_global_ranking_matches_raw_values():
    rng = np.random.default_rng(4)
    values = rng.uniform(0, 5, size=(6, 7))
    order = det.rank_entries(det.global_scores(values, "std"), values)
    got = [divmod(ix, 7) for ix in order.tolist()]
    raw = sorted(
        ((i, j) for i in range(6) for j in range(7)),
        key=lambda c: (-values[c], c[0], c[1]),
    )
    assert got == raw


def test_global_argmax_example():
    values = np.array([[1.0, 2.0], [3.0, 4.0]])
    order = det.rank_entries(det.global_scores(values, "std"), values)
    assert divmod(int(order[0]), 2) == (1, 1)


# --- ranking ---------------------------------------------------------------------


def test_rank_entries_with_tie_rule():
    order = det.rank_entries(np.array([[1.0, 3.0], [2.0, 2.0]]))
    assert [divmod(ix, 2) for ix in order.tolist()] == [(0, 1), (1, 0), (1, 1), (0, 0)]


def test_rank_entries_all_equal_index_order():
    order = det.rank_entries(np.zeros((2, 2)))
    assert [divmod(ix, 2) for ix in order.tolist()] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_rank_entries_sentinel_first():
    order = det.rank_entries(np.array([[1.0, math.inf], [5.0, 2.0]]))
    assert divmod(int(order[0]), 2) == (0, 1)


def test_rank_entries_sentinel_ties_by_raw_value():
    grid = np.array([[math.inf, math.inf], [0.0, 0.0]])
    source = np.array([[1.0, 9.0], [0.0, 0.0]])
    order = det.rank_entries(grid, source)
    assert [divmod(ix, 2) for ix in order[:2].tolist()] == [(0, 1), (0, 0)]


# few distinct values, so ties, signed zeros and both infinities are common
_RANK_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf])


@st.composite
def rank_grids(draw):
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    grid = st.lists(
        st.lists(_RANK_VALUES, min_size=n_cols, max_size=n_cols), min_size=n_rows, max_size=n_rows
    )
    return draw(grid), draw(st.none() | grid)


@given(rank_grids())
def test_rank_entries_matches_brute_force(grids):
    scores, source = grids
    order = det.rank_entries(
        np.array(scores, dtype=float), None if source is None else np.array(source, dtype=float)
    )
    assert order.tolist() == oracles.bf_rank(scores, source)
    ranks = [(np.flatnonzero(order == cell) + 1).mean() for cell in order]
    assert ranks == list(range(1, len(order) + 1))


@given(rank_grids())
def test_rank_entries_top_k_matches_brute_force(grids):
    """With `k`, from 1 to past the cell count, only the first k cells come
    back, in the full ranking's order."""
    scores, source = grids
    full = oracles.bf_rank(scores, source)
    grid = np.array(scores, dtype=float)
    source = None if source is None else np.array(source, dtype=float)
    for k in range(1, len(full) + 2):
        assert det.rank_entries(grid, source, k=k).tolist() == full[:k]


@pytest.mark.parametrize("k", [0, -3])
def test_rank_entries_k_below_one_raises(k):
    with pytest.raises(VrfError, match="at least 1"):
        det.rank_entries(np.zeros((1, 2)), k=k)


def test_rank_length_covers_matrix():
    order = det.rank_entries(np.zeros((3, 5)))
    assert len(order) == 15


# --- registry ---------------------------------------------------------------------


def test_method_registry_ids():
    values = np.random.default_rng(5).uniform(0, 1, size=(6, 8))
    for method in det.METHOD_IDS:
        scores, params = det.score_with_method(values, method)
        assert scores.shape == values.shape
        if method.startswith("cl_"):
            width = int(method.rsplit("_", 1)[1])
            assert params == {"stat": method[3:6], "w": width // 2, "width": width}
        elif method not in ("nmf", "rpca"):
            assert params == {"stat": method[-3:]}


def test_method_registry_unknown():
    with pytest.raises(VrfError, match="unknown detector"):
        det.score_with_method(np.zeros((2, 2)), "psychic")


def test_score_shape_preserved():
    values = np.random.default_rng(6).uniform(0, 1, size=(4, 9))
    for method in ("temporal_iqr", "cl_std_5", "global_iqr", "nmf", "rpca"):
        scores, _ = det.score_with_method(values, method)
        assert scores.shape == (4, 9)


def test_scores_csv_round_trip(tmp_path):
    matrix = as_matrix(np.random.default_rng(7).uniform(0, 1, size=(3, 4)))
    scores, params = det.score_with_method(matrix.values, "cl_std_3")
    scored = ScoreMatrix("cl_std_3", scores, matrix.locales, matrix.intervals, params)
    path = tmp_path / "scores.csv"
    det.scores_to_csv(scored, str(path))
    back = det.scores_from_csv(str(path))
    assert (back.method, back.params) == (scored.method, scored.params)
    assert back.locales == scored.locales
    assert back.intervals == scored.intervals
    np.testing.assert_array_equal(back.scores, scored.scores)


# Cell text with the characters CSV must quote or escape, and unicode.
CSV_TEXT = st.text(st.sampled_from(list('ab ,;|"\'\n\r\tÄé漢')), max_size=6)


@given(st.lists(CSV_TEXT, min_size=1, max_size=3), st.integers(1, 3), st.data())
def test_scores_csv_round_trip_any_locale_text(locales, n_intervals, data):
    cells = st.floats(allow_nan=True, allow_infinity=True)
    grid = [[data.draw(cells) for _ in range(n_intervals)] for _ in locales]
    scored = ScoreMatrix(
        method="cl_std_5",
        scores=np.array(grid, dtype=float),
        locales=tuple(locales),
        intervals=build_intervals(D0, D0 + dt.timedelta(days=7 * (n_intervals - 1)), 7),
        params={"w": 2},
    )
    with tempfile.TemporaryDirectory() as tmp:
        det.scores_to_csv(scored, f"{tmp}/scores.csv")
        back = det.scores_from_csv(f"{tmp}/scores.csv")
    assert (back.method, back.locales, back.intervals, back.params) == (
        scored.method, scored.locales, scored.intervals, scored.params
    )
    np.testing.assert_array_equal(back.scores, scored.scores)
