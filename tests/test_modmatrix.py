import datetime as dt
import tempfile

import numpy as np
import pytest
from hypothesis import given, strategies as st

import vrf_sentinel.modmatrix as mm
from vrf_sentinel.errors import DataError, FileParseError, VrfError
from vrf_sentinel.records import ChangeRecord, ChangeType

D0 = dt.date(2019, 1, 3)


def change(voter_id, locale, change_type=ChangeType.ADDRESS, day_offset=0):
    posterior = D0 + dt.timedelta(days=day_offset)
    return ChangeRecord(
        voter_id=voter_id,
        locale=locale,
        change_type=change_type,
        anterior_date=posterior - dt.timedelta(days=7),
        posterior_date=posterior,
    )


def test_normalization_hand_value():
    # 10 address changes, one locale of 5000 voters, one 7-day interval
    changes = [change(f"V{i}", "polk") for i in range(10)]
    matrix = mm.build_matrix(
        changes, ChangeType.ADDRESS, 7, {D0: {"polk": 5000}}
    )
    assert matrix.shape == (1, 1)
    assert matrix.raw_counts[0, 0] == 10
    assert matrix.values[0, 0] == pytest.approx(10 / 7 / 5.0, abs=1e-12)


def test_zero_changes_full_label_sets():
    pops = {D0: {"polk": 1000, "story": 2000}}
    matrix = mm.build_matrix(
        [], ChangeType.NAME, 7, pops, start=D0, end=D0 + dt.timedelta(days=20)
    )
    assert matrix.locales == ("polk", "story")
    assert len(matrix.intervals) == 3
    assert not matrix.values.any()


def test_equal_populations_symmetry():
    pops = {D0: {"a": 4000, "b": 4000}}
    changes = [change("V1", "a"), change("V2", "b")]
    matrix = mm.build_matrix(changes, ChangeType.ADDRESS, 7, pops)
    assert matrix.values[0, 0] == matrix.values[1, 0] > 0


def test_each_change_lands_in_one_cell():
    pops = {D0: {"a": 1000}}
    changes = [change(f"V{i}", "a", day_offset=off) for i, off in enumerate((0, 3, 6, 7, 13, 14))]
    matrix = mm.build_matrix(changes, ChangeType.ADDRESS, 7, pops)
    assert matrix.raw_counts.sum() == len(changes)
    assert list(matrix.raw_counts[0]) == [3, 2, 1]  # half-open weekly buckets


def test_counts_conserved_and_filtered_by_type():
    pops = {D0: {"a": 1000, "b": 1000}}
    changes = [
        change("V1", "a", ChangeType.ADDRESS),
        change("V2", "a", ChangeType.NAME),
        change("V3", "b", ChangeType.ADDRESS, day_offset=2),
    ]
    matrix = mm.build_matrix(changes, ChangeType.ADDRESS, 7, pops)
    assert matrix.raw_counts.sum() == 2


def test_population_scaling_property():
    rng = np.random.default_rng(0)
    changes = [
        change(f"V{i}", rng.choice(["a", "b", "c"]), day_offset=int(rng.integers(0, 21)))
        for i in range(60)
    ]
    base = {"a": 1000, "b": 2000, "c": 3000}
    m1 = mm.build_matrix(changes, ChangeType.ADDRESS, 7, {D0: base})
    m2 = mm.build_matrix(
        changes, ChangeType.ADDRESS, 7,
        {D0: {k: 3 * v for k, v in base.items()}},
    )
    assert np.array_equal(m1.raw_counts, m2.raw_counts)
    assert np.allclose(m2.values, m1.values / 3, atol=1e-15)


def test_permutation_invariance():
    rng = np.random.default_rng(1)
    changes = [
        change(f"V{i}", rng.choice(["a", "b"]), day_offset=int(rng.integers(0, 14)))
        for i in range(40)
    ]
    pops = {D0: {"a": 500, "b": 700}}
    m1 = mm.build_matrix(changes, ChangeType.ADDRESS, 7, pops)
    m2 = mm.build_matrix(list(reversed(changes)), ChangeType.ADDRESS, 7, pops)
    assert np.array_equal(m1.values, m2.values)


def test_missing_population_is_data_error():
    changes = [change("V1", "nowhere")]
    with pytest.raises(DataError, match="nowhere"):
        mm.build_matrix(changes, ChangeType.ADDRESS, 7, {D0: {"a": 100}})


def test_values_invariant_recomputable():
    rng = np.random.default_rng(2)
    changes = [
        change(f"V{i}", rng.choice(["a", "b"]), day_offset=int(rng.integers(0, 28)))
        for i in range(80)
    ]
    matrix = mm.build_matrix(
        changes, ChangeType.ADDRESS, 7, {D0: {"a": 1200, "b": 800}}
    )
    days = np.array([iv.days for iv in matrix.intervals], dtype=float)
    recomputed = mm.normalized_values(matrix.raw_counts, matrix.populations, days)
    assert np.array_equal(matrix.values, recomputed)


def test_snapshot_populations_use_anterior_count():
    import vrf_sentinel.synthgen as sg

    config = sg.snapshot_pair_config(seed=3, n_voters=300)
    (s0, s1), _ = sg.generate_scenario(config)
    populations = {s.snapshot_date: s.locale_counts for s in (s0, s1)}
    locale = s0.records[next(iter(s0.records))].locale
    # interval starting at the posterior date should use the anterior tally
    matrix = mm.build_matrix(
        [], ChangeType.ADDRESS, 7, populations, start=s1.snapshot_date, end=s1.snapshot_date
    )
    assert matrix.populations[matrix.locale_index(locale), 0] == s0.locale_counts[locale]


def test_interval_before_first_census_uses_earliest():
    populations = {
        D0 + dt.timedelta(days=10): {"a": 2000},
        D0 + dt.timedelta(days=17): {"a": 3000},
    }
    changes = [change("V1", "a", day_offset=0), change("V2", "a", day_offset=27)]
    matrix = mm.build_matrix(changes, ChangeType.ADDRESS, 7, populations)
    # interval starts D0, +7, +14, +21; latest census strictly before: none, none, +10, +17
    assert list(matrix.populations[0]) == [2000, 2000, 2000, 3000]


def test_uncounted_locale_without_changes_is_zeroed_silently(caplog):
    matrix = mm.build_matrix(
        [change("V1", "a")], ChangeType.ADDRESS, 7, {D0: {"a": 1000}}, locales=["a", "b"]
    )
    assert matrix.populations[1, 0] == 1
    assert matrix.values[1, 0] == 0.0
    assert not caplog.records


def test_zero_count_warns_once_and_zeroes_cell(caplog):
    matrix = mm.build_matrix(
        [change("V1", "a")], ChangeType.ADDRESS, 7, {D0: {"a": 1000, "b": 0}}
    )
    assert matrix.locales == ("a", "b")
    assert matrix.populations[1, 0] == 1
    assert matrix.values[1, 0] == 0.0
    assert [r.levelname for r in caplog.records] == ["WARNING"]
    assert "population 0" in caplog.records[0].getMessage()


# --- CSV round trip -------------------------------------------------------------


def build_example_matrix():
    rng = np.random.default_rng(5)
    changes = [
        change(f"V{i}", rng.choice(["a", "b"]), day_offset=int(rng.integers(0, 21)))
        for i in range(50)
    ]
    return mm.build_matrix(
        changes, ChangeType.ADDRESS, 7, {D0: {"a": 1234, "b": 987}}
    )


def test_matrix_csv_round_trip_exact(tmp_path):
    matrix = build_example_matrix()
    path = tmp_path / "matrix.csv"
    mm.matrix_to_csv(matrix, str(path))
    back = mm.csv_to_matrix(str(path))
    assert back.change_type == matrix.change_type
    assert back.locales == matrix.locales
    assert back.intervals == matrix.intervals
    assert np.array_equal(back.values, matrix.values)
    assert np.array_equal(back.raw_counts, matrix.raw_counts)
    assert np.array_equal(back.populations, matrix.populations)


# Cell text with the characters CSV must quote or escape, and unicode.
CSV_TEXT = st.text(st.sampled_from(list('ab ,;|"\'\n\r\tÄé漢')), max_size=6)


@given(st.lists(CSV_TEXT, min_size=1, max_size=3), st.integers(1, 3))
def test_matrix_csv_round_trip_any_locale_text(locales, n_intervals):
    raw = np.arange(len(locales) * n_intervals).reshape(len(locales), n_intervals)
    matrix = mm.ModificationMatrix(
        change_type=ChangeType.ADDRESS,
        locales=tuple(locales),
        intervals=mm.build_intervals(D0, D0 + dt.timedelta(days=7 * (n_intervals - 1)), 7),
        values=raw / 7 / ((raw + 1) / 1000),
        raw_counts=raw,
        populations=raw + 1,
    )
    with tempfile.TemporaryDirectory() as tmp:
        first, second = f"{tmp}/m1.csv", f"{tmp}/m2.csv"
        mm.matrix_to_csv(matrix, first)
        back = mm.csv_to_matrix(first)
        mm.matrix_to_csv(back, second)
        assert open(first, "rb").read() == open(second, "rb").read()
    assert back.locales == matrix.locales
    assert np.array_equal(back.raw_counts, matrix.raw_counts)
    assert np.array_equal(back.populations, matrix.populations)


def test_matrix_csv_byte_identical(tmp_path):
    matrix = build_example_matrix()
    p1, p2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    mm.matrix_to_csv(matrix, str(p1))
    mm.matrix_to_csv(matrix, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_nan_values_rejected():
    import math

    with pytest.raises(VrfError, match="finite"):
        as_matrix([[1.0, math.nan], [0.0, 2.0]])


def test_empty_matrix_rejected():
    with pytest.raises(VrfError, match="locale"):
        mm.ModificationMatrix(
            change_type=ChangeType.ADDRESS,
            locales=(),
            intervals=(mm.DateInterval(D0, D0 + dt.timedelta(days=7)),),
            values=np.zeros((0, 1)),
            raw_counts=np.zeros((0, 1), dtype=np.int64),
            populations=np.ones((0, 1), dtype=np.int64),
        )


def test_csv_negative_value_rejected(tmp_path):
    matrix = build_example_matrix()
    path = tmp_path / "matrix.csv"
    mm.matrix_to_csv(matrix, str(path))
    text = path.read_text().split("\n")
    cells = text[1].split(",")
    cells[1] = "-0.5"
    text[1] = ",".join(cells)
    path.write_text("\n".join(text))
    with pytest.raises(FileParseError, match="negative"):
        mm.csv_to_matrix(str(path))


def test_csv_dimension_mismatch(tmp_path):
    matrix = build_example_matrix()
    path = tmp_path / "matrix.csv"
    mm.matrix_to_csv(matrix, str(path))
    lines = path.read_text().split("\n")
    lines[1] = lines[1] + ",0.1"  # extra cell in first body row
    path.write_text("\n".join(lines))
    with pytest.raises(FileParseError):
        mm.csv_to_matrix(str(path))


# --- singular values -------------------------------------------------------------


def as_matrix(values):
    values = np.asarray(values, dtype=float)
    n_rows, n_cols = values.shape
    intervals = mm.build_intervals(D0, D0 + dt.timedelta(days=7 * (n_cols - 1)), 7)
    return mm.ModificationMatrix(
        change_type=ChangeType.ADDRESS,
        locales=tuple(f"L{i}" for i in range(n_rows)),
        intervals=intervals,
        values=values,
        raw_counts=np.zeros_like(values, dtype=np.int64),
        populations=np.ones_like(values, dtype=np.int64),
    )


def test_top_singular_values_rank_one():
    u = np.array([1.0, 2.0, 3.0])
    v = np.array([4.0, 5.0, 6.0, 7.0])
    s = mm.top_singular_values(as_matrix(np.outer(u, v)), 2)
    assert s[1] <= 1e-10 * s[0]


def test_top_singular_values_identity():
    assert mm.top_singular_values(as_matrix(np.eye(3)), 3) == pytest.approx([1, 1, 1])


def test_top_singular_values_diagonal():
    s = mm.top_singular_values(as_matrix([[3.0, 0.0], [0.0, 4.0]]), 2)
    assert s == pytest.approx([4.0, 3.0], abs=1e-12)


def test_top_singular_values_count_precondition():
    with pytest.raises(VrfError):
        mm.top_singular_values(as_matrix(np.eye(3)), 4)
