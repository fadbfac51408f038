import datetime as dt
import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
import vrf_sentinel.detectors as det
from vrf_sentinel.detectors.scoring import ScoreMatrix
from vrf_sentinel.errors import VrfError
from vrf_sentinel.modmatrix import (
    MatrixEntryRef,
    ModificationMatrix,
    build_intervals,
)
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
    assert det.zscore(3.0, mu, sigma) == pytest.approx(1.224745, abs=1e-6)


def test_zscore_at_mean_is_zero():
    assert det.zscore(2.0, 2.0, 0.5) == 0.0


def test_zscore_zero_variance_sentinels():
    assert det.zscore(2.0, 2.0, 0.0) == 0.0
    assert det.zscore(7.0, 2.0, 0.0) == math.inf
    assert det.zscore(1.0, 2.0, 0.0) == 0.0


def test_iqr_score_hand_value():
    # sample [1..5]: Q1=2, Q3=4 under linear interpolation
    assert det.iqr_score(5.0, 2.0, 4.0) == pytest.approx(0.5, abs=1e-12)


def test_iqr_score_at_q3_is_zero():
    assert det.iqr_score(4.0, 2.0, 4.0) == 0.0


def test_iqr_score_zero_spread_sentinel():
    assert det.iqr_score(7.0, 2.0, 2.0) == math.inf
    assert det.iqr_score(2.0, 2.0, 2.0) == 0.0


def test_zscore_location_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pool = rng.normal(size=12)
        x = float(rng.normal())
        base = det.zscore(x, float(pool.mean()), float(pool.std()))
        for c in (2.5, -1.0, 100.0):
            shifted = pool + c
            assert det.zscore(
                x + c, float(shifted.mean()), float(shifted.std())
            ) == pytest.approx(base, abs=1e-9)
        for c in (2.0, 7.5):
            scaled = pool * c
            assert det.zscore(
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
        matrix = as_matrix(values)
        listed = values.tolist()
        w = int(rng.integers(0, 4))
        for stat in ("std", "iqr"):
            got = det.temporal_scores(matrix, stat).scores
            want = np.array(oracles.bf_temporal(listed, stat))
            np.testing.assert_allclose(got, want, atol=1e-12)

            got = det.cross_locale_scores(matrix, stat, w=w).scores
            want = np.array(oracles.bf_cross_locale(listed, stat, w))
            np.testing.assert_allclose(got, want, atol=1e-12)

            got = det.global_scores(matrix, stat).scores
            want = np.array(oracles.bf_global(listed, stat))
            np.testing.assert_allclose(got, want, atol=1e-12)


def test_temporal_row_spike():
    matrix = as_matrix([[0.0, 0.0, 0.0, 10.0, 0.0]])
    scores = det.temporal_scores(matrix, "std").scores
    assert scores[0].argmax() == 3
    assert (scores[0, 3] > np.delete(scores[0], 3)).all()


def test_temporal_constant_matrix_zero():
    scores = det.temporal_scores(as_matrix(np.full((3, 4), 2.0)), "std").scores
    assert not scores.any()


def test_temporal_row_independence():
    rng = np.random.default_rng(1)
    values = rng.uniform(0, 1, size=(4, 6))
    matrix = det.temporal_scores(as_matrix(values), "std").scores
    perm = [2, 0, 3, 1]
    permuted = det.temporal_scores(as_matrix(values[perm]), "std").scores
    np.testing.assert_array_equal(permuted, matrix[perm])


def test_cross_locale_w0_single_column():
    matrix = as_matrix(np.array([[1.0], [1.0], [10.0]]))
    scores = det.cross_locale_scores(matrix, "std", w=0).scores
    assert scores.argmax() == 2


def test_cross_locale_window_locality():
    rng = np.random.default_rng(2)
    values = rng.uniform(0, 1, size=(5, 9))
    w = 2
    base = det.cross_locale_scores(as_matrix(values), "std", w=w).scores
    tweaked = values.copy()
    tweaked[0, 8] += 50.0  # outside the window of column 4
    after = det.cross_locale_scores(as_matrix(tweaked), "std", w=w).scores
    np.testing.assert_array_equal(after[:, 4], base[:, 4])
    assert not np.array_equal(after[:, 8], base[:, 8])


def test_cross_locale_planted_spike_rank_one():
    rng = np.random.default_rng(3)
    values = rng.uniform(0.0, 0.3, size=(5, 9))
    values[2, 4] = 10.0 * 0.3
    ranked = det.rank_entries(det.cross_locale_scores(as_matrix(values), "std", w=2))
    assert ranked.top(1)[0] == MatrixEntryRef(2, 4)


def test_global_ranking_matches_raw_values():
    rng = np.random.default_rng(4)
    values = rng.uniform(0, 5, size=(6, 7))
    matrix = as_matrix(values)
    ranked = det.rank_entries(det.global_scores(matrix, "std"))
    got = [r.as_tuple() for r in ranked.top(len(ranked))]
    raw = sorted(
        ((i, j) for i in range(6) for j in range(7)),
        key=lambda c: (-values[c], c[0], c[1]),
    )
    assert got == raw


def test_global_argmax_example():
    ranked = det.rank_entries(det.global_scores(as_matrix([[1.0, 2.0], [3.0, 4.0]]), "std"))
    assert ranked.top(1)[0] == MatrixEntryRef(1, 1)


# --- ranking ---------------------------------------------------------------------


def scores_only(grid, source=None):
    grid = np.asarray(grid, dtype=float)
    return ScoreMatrix(
        method="test",
        scores=grid,
        locales=tuple(f"L{i}" for i in range(grid.shape[0])),
        intervals=build_intervals(D0, D0 + dt.timedelta(days=7 * (grid.shape[1] - 1)), 7),
        source_values=None if source is None else np.asarray(source, dtype=float),
    )


def test_rank_entries_with_tie_rule():
    ranked = det.rank_entries(scores_only([[1.0, 3.0], [2.0, 2.0]]))
    assert [r.as_tuple() for r in ranked.top(len(ranked))] == [(0, 1), (1, 0), (1, 1), (0, 0)]


def test_rank_entries_all_equal_index_order():
    ranked = det.rank_entries(scores_only(np.zeros((2, 2))))
    assert [r.as_tuple() for r in ranked.top(len(ranked))] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_rank_entries_sentinel_first():
    grid = [[1.0, math.inf], [5.0, 2.0]]
    ranked = det.rank_entries(scores_only(grid))
    assert ranked.top(1)[0] == MatrixEntryRef(0, 1)


def test_rank_entries_sentinel_ties_by_raw_value():
    grid = [[math.inf, math.inf], [0.0, 0.0]]
    source = [[1.0, 9.0], [0.0, 0.0]]
    ranked = det.rank_entries(scores_only(grid, source))
    assert [r.as_tuple() for r in ranked.top(2)] == [(0, 1), (0, 0)]


# few distinct values, so ties, signed zeros and both infinities are common
_RANK_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf])


@st.composite
def rank_grids(draw):
    n_rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    grid = st.lists(
        st.lists(_RANK_VALUES, min_size=n_cols, max_size=n_cols), min_size=n_rows, max_size=n_rows
    )
    return draw(grid), draw(st.none() | grid)


@given(rank_grids())
def test_rank_entries_matches_brute_force(grids):
    scores, source = grids
    ranked = det.rank_entries(scores_only(scores, source))
    assert ranked.order.tolist() == oracles.bf_rank(scores, source)
    ranks = [ranked.rank_of(ref) for ref in ranked.top(len(ranked))]
    assert ranks == list(range(1, len(ranked) + 1))


def test_rank_length_covers_matrix():
    ranked = det.rank_entries(scores_only(np.zeros((3, 5))))
    assert len(ranked) == 15


# --- registry ---------------------------------------------------------------------


def test_method_registry_ids():
    rng = np.random.default_rng(5)
    matrix = as_matrix(rng.uniform(0, 1, size=(6, 8)))
    for method in det.METHOD_IDS:
        scored = det.score_with_method(matrix, method, seed=0)
        assert scored.shape == matrix.shape
        assert scored.locales == matrix.locales


def test_method_registry_unknown():
    matrix = as_matrix(np.zeros((2, 2)))
    with pytest.raises(VrfError, match="unknown detector"):
        det.score_with_method(matrix, "psychic")


def test_score_shape_preserved():
    rng = np.random.default_rng(6)
    matrix = as_matrix(rng.uniform(0, 1, size=(4, 9)))
    for method in ("temporal_iqr", "cl_std_5", "global_iqr", "nmf", "rpca"):
        scored = det.score_with_method(matrix, method, seed=1)
        assert scored.scores.shape == (4, 9)
        assert scored.intervals == matrix.intervals


def test_scores_csv_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    matrix = as_matrix(rng.uniform(0, 1, size=(3, 4)))
    scored = det.cross_locale_scores(matrix, "std", w=1)
    path = tmp_path / "scores.csv"
    det.scores_to_csv(scored, str(path))
    back = det.scores_from_csv(str(path))
    assert back.method == scored.method
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
