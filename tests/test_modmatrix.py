import csv
import datetime as dt
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import vrf_sentinel.detectors as det
import vrf_sentinel.modmatrix as mm
from vrf_sentinel.detectors.scoring import ScoreMatrix
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
    changes = [
        change("V1", "polk", ChangeType.NAME),
        change("V2", "polk", ChangeType.NAME, day_offset=20),
        change("V3", "story", ChangeType.ADDRESS, day_offset=9),
    ]
    matrix = mm.build_matrix(changes, ChangeType.NAME, 7, pops)
    assert matrix.locales == ("polk", "story")
    assert len(matrix.intervals) == 3
    assert list(matrix.raw_counts[0]) == [1, 0, 1]
    assert not matrix.values[1].any()  # story has no name change


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
    recomputed = mm.normalized_values(matrix.raw_counts, matrix.populations, 7)
    assert np.array_equal(matrix.values, recomputed)


def test_snapshot_populations_use_anterior_count():
    import vrf_sentinel.synthgen as sg

    config = sg.snapshot_pair_config(seed=3, n_voters=300)
    (s0, s1), _ = oracles.scenario(config)
    populations = {s.snapshot_date: s.locale_counts for s in (s0, s1)}
    locale = s0.records[next(iter(s0.records))].locale
    # interval starting at the posterior date should use the anterior tally
    moved = ChangeRecord("V1", locale, ChangeType.ADDRESS, s0.snapshot_date, s1.snapshot_date)
    matrix = mm.build_matrix([moved], ChangeType.ADDRESS, 7, populations)
    assert matrix.intervals[0].start == s1.snapshot_date
    assert matrix.populations[matrix.locales.index(locale), 0] == s0.locale_counts[locale]


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
    # "b" is counted only in the later census, which no interval reads
    populations = {D0: {"a": 1000}, D0 + dt.timedelta(days=7): {"a": 1000, "b": 500}}
    matrix = mm.build_matrix([change("V1", "a")], ChangeType.ADDRESS, 7, populations)
    assert matrix.locales == ("a", "b")
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


def test_zero_population_cells_warn_once_per_matrix(caplog):
    changes = [change("V1", "a", day_offset=0), change("V2", "a", day_offset=20)]
    matrix = mm.build_matrix(changes, ChangeType.ADDRESS, 7, {D0: {"a": 1000, "b": 0, "c": 0}})
    assert matrix.shape == (3, 3)
    assert (matrix.values[1:] == 0.0).all()
    assert [r.levelname for r in caplog.records] == ["WARNING"]
    message = caplog.records[0].getMessage()
    assert message.startswith("6 cells zeroed") and "population 0" in message
    assert message.endswith(f"first b at {D0}")


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
        assert Path(first).read_bytes() == Path(second).read_bytes()
    assert back.locales == matrix.locales
    assert np.array_equal(back.raw_counts, matrix.raw_counts)
    assert np.array_equal(back.populations, matrix.populations)


# Score cells, and cell text that parses as a float: +-inf and NaN included.
CELLS = st.floats(allow_nan=True, allow_infinity=True)
CELL_TEXT = st.text() | CELLS.map(repr) | st.integers().map(str)


def _corrupt(rows, data):
    """Apply one corruption to the CSV rows of a grid file (header first)."""
    kind = data.draw(st.sampled_from(["cell", "drop_cell", "drop_row", "drop_blank", "header"]))
    full = [i for i, row in enumerate(rows) if row]
    if kind == "cell":
        row = rows[data.draw(st.sampled_from(full))]
        row[data.draw(st.integers(0, len(row) - 1))] = data.draw(CELL_TEXT)
    elif kind == "drop_cell":
        row = rows[data.draw(st.sampled_from(full))]
        del row[data.draw(st.integers(0, len(row) - 1))]
    elif kind == "drop_row":
        del rows[data.draw(st.integers(0, len(rows) - 1))]
    elif kind == "drop_blank":
        blanks = [i for i, row in enumerate(rows) if not row]
        if blanks:
            del rows[data.draw(st.sampled_from(blanks))]
    else:
        header = rows[0]
        c = data.draw(st.integers(0, len(header)))
        if c == 0:
            name = data.draw(st.sampled_from(["address", "cl_std_5"]) | CSV_TEXT)
            header[0] = f"{name}:{data.draw(st.integers())}"
        else:
            header[c:c + 1] = [data.draw(st.dates()).isoformat()]


@given(
    st.sampled_from(["matrix", "scores"]),
    st.lists(CSV_TEXT, min_size=1, max_size=3),
    st.integers(1, 3),
    st.data(),
)
def test_grid_reader_returns_grid_or_raises_vrf_error(kind, locales, n_intervals, data):
    intervals = mm.build_intervals(D0, D0 + dt.timedelta(days=7 * (n_intervals - 1)), 7)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/grid.csv"
        if kind == "matrix":
            raw = np.array([[data.draw(st.integers(0, 1000)) for _ in intervals] for _ in locales])
            pops = raw + data.draw(st.integers(1, 10**6))
            values = mm.normalized_values(raw, pops, 7)
            matrix = mm.ModificationMatrix(
                ChangeType.ADDRESS, tuple(locales), intervals, values, raw, pops
            )
            mm.matrix_to_csv(matrix, path)
            read = mm.csv_to_matrix
        else:
            grid = np.array([[data.draw(CELLS) for _ in intervals] for _ in locales])
            scored = ScoreMatrix("cl_std_5", grid, tuple(locales), intervals, {"w": 2})
            det.scores_to_csv(scored, path)
            read = det.scores_from_csv
        with open(path, newline="", encoding="utf-8") as fh:
            params = fh.readline() if kind == "scores" else ""
            rows = list(csv.reader(fh))
        if kind == "scores" and data.draw(st.booleans()):
            params = data.draw(st.text() | st.sampled_from(["{}", "[]", '{"method": "x"}'])) + "\n"
        else:
            _corrupt(rows, data)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(params)
            csv.writer(fh, lineterminator="\n").writerows(rows)
        try:
            read(path)
        except VrfError:
            pass


def _read_or_fault(reader, path, n_blocks):
    """What a grid reader makes of a file: its parse, grids as bytes, or the
    FileParseError message."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            name, intervals, locales, grids = reader(fh, path, n_blocks)
    except FileParseError as exc:
        return str(exc)
    grids = np.asarray(grids)
    return name, intervals, locales, grids.shape, grids.tobytes()


# Faults whose order a reader that raises as it goes would get wrong: a bad
# row in any block, a bad corner cell, a cell past the csv field limit (a
# csv.Error mid-file) and a locale label of the last block that differs.
ORDER_FAULTS = st.sets(st.sampled_from(["bad_row", "corner", "csv_error", "last_label"]))


@settings(max_examples=300)
@given(
    st.sampled_from([1, 3]),
    st.lists(CSV_TEXT, min_size=1, max_size=3),
    st.integers(1, 3),
    ORDER_FAULTS,
    st.data(),
)
def test_streaming_grid_reader_matches_whole_file_reader(
    n_blocks, locales, n_intervals, faults, data
):
    """The row-at-a-time reader returns the whole-file reader's grids, or
    raises its message: for a file with one fault, and for one with several,
    where the fault raised is the first in the whole-file reader's order."""
    intervals = mm.build_intervals(D0, D0 + dt.timedelta(days=7 * (n_intervals - 1)), 7)
    blocks = [
        [[repr(data.draw(CELLS)) for _ in intervals] for _ in locales] for _ in range(n_blocks)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/grid.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            mm.write_grid(fh, "address", intervals, tuple(locales), blocks)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        body = st.sampled_from([i for i, row in enumerate(rows) if row][1:])
        cell = st.integers(1, n_intervals)
        if "bad_row" in faults:
            rows[data.draw(body)][data.draw(cell)] = "not a number"
        if "corner" in faults:
            rows[0][0] = "address"
        if "last_label" in faults:
            rows[-1][0] += "!"
        if "csv_error" in faults:
            rows[data.draw(body)][data.draw(cell)] = "x" * (csv.field_size_limit() + 1)
        _corrupt(rows, data)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        got = _read_or_fault(mm.read_grid, path, n_blocks)
        assert got == _read_or_fault(oracles.whole_read_grid, path, n_blocks)


def test_csv_to_matrix_peak_memory_per_cell(tmp_path):
    """Reading a matrix holds one row of text at a time, and its float
    blocks are freed as they are cast: the traced peak stays near the 24
    bytes per cell of the three grids it returns."""
    rng = np.random.default_rng(7)
    raw = rng.integers(0, 40, size=(400, 150))
    pops = rng.integers(1000, 90_000, size=raw.shape)
    intervals = mm.build_intervals(D0, D0 + dt.timedelta(days=7 * 149), 7)
    matrix = mm.ModificationMatrix(
        ChangeType.ADDRESS, tuple(f"L{i:03d}" for i in range(400)), intervals,
        mm.normalized_values(raw, pops, 7), raw, pops,
    )
    path = str(tmp_path / "matrix.csv")
    mm.matrix_to_csv(matrix, path)
    tracemalloc.start()
    try:
        back = mm.csv_to_matrix(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.values, matrix.values)
    assert peak <= 48 * raw.size


@st.composite
def written_matrices(draw):
    """A matrix CSV's three blocks as text: small counts and one population
    per locale (so a row repeats few values), values written at
    FLOAT_FORMAT, and some value cells edited by hand: a signed zero, the
    formula value of another cell, a float off the formula, or the formula
    value at full precision."""
    rows, cols, days = draw(st.integers(1, 4)), draw(st.integers(1, 8)), draw(st.integers(1, 14))
    raw = np.array(draw(st.lists(
        st.lists(st.integers(0, 3) | st.integers(0, 2**62), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    )))
    pops = np.repeat([[draw(st.integers(1, 10**6))] for _ in range(rows)], cols, axis=1)
    exact = mm.normalized_values(raw, pops, days)
    texts = [[mm.FLOAT_FORMAT % v for v in row] for row in exact.tolist()]
    formula = exact.ravel().tolist()
    edit = st.one_of(
        st.sampled_from(["-0", "0", "0.0", "-0.0"]),
        st.floats(0, 1e12).map(repr),
        st.sampled_from([mm.FLOAT_FORMAT % v for v in formula] + [repr(v) for v in formula]),
    )
    for _ in range(draw(st.integers(0, rows * cols))):
        texts[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = draw(edit)
    intervals = mm.build_intervals(D0, D0 + dt.timedelta(days=days * (cols - 1)), days)
    return intervals, [texts, raw.astype(str).tolist(), pops.astype(str).tolist()]


@settings(max_examples=150)
@given(written_matrices())
def test_restore_and_write_match_the_per_cell_oracles(written):
    """Formatting each distinct value of a row once restores and writes the
    bits that formatting each cell did: on repeated values, on 0.0 beside
    -0.0, and on cells edited off the formula. A raw count of 2^53 or more,
    which the float it is read as may round, is refused."""
    intervals, blocks = written
    locales = tuple(f"L{i}" for i in range(len(blocks[0])))
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/matrix.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            mm.write_grid(fh, "address", intervals, locales, blocks)
        if max(int(count) for row in blocks[1] for count in row) >= 2**53:
            with pytest.raises(FileParseError, match=r"integers below 2\^53"):
                mm.csv_to_matrix(path)
            return
        matrix = mm.csv_to_matrix(path)
        with open(path, newline="", encoding="utf-8") as fh:
            _, _, _, (values, raw, pops) = mm.read_grid(fh, path, 3)
        want = oracles.cell_restore(values, raw.astype(np.int64), pops.astype(np.int64),
                                    intervals[0].days)
        assert matrix.values.view(np.int64).tolist() == want.view(np.int64).tolist()

        mm.matrix_to_csv(matrix, f"{tmp}/new.csv")
        with open(f"{tmp}/old.csv", "w", newline="", encoding="utf-8") as fh:
            oracles.row_write_grid(fh, "address", intervals, locales, [
                [[mm.FLOAT_FORMAT % v for v in row] for row in matrix.values.tolist()],
                matrix.raw_counts.astype(str).tolist(), blocks[2],
            ])
        with open(f"{tmp}/new.csv", "rb") as new, open(f"{tmp}/old.csv", "rb") as old:
            assert new.read() == old.read()


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


@pytest.mark.parametrize("start, end, fault", [(8, 15, "contiguous"), (7, 21, "one width")])
def test_intervals_must_be_contiguous_and_of_one_width(start, end, fault):
    """A second interval after [D0, D0 + 7 days) must start at its end and be 7 days wide."""
    second = mm.DateInterval(*(D0 + dt.timedelta(days=d) for d in (start, end)))
    intervals = (mm.DateInterval(D0, D0 + dt.timedelta(days=7)), second)
    with pytest.raises(VrfError, match=fault):
        mm.ModificationMatrix(
            ChangeType.ADDRESS, ("a",), intervals, np.zeros((1, 2)),
            np.zeros((1, 2), dtype=np.int64), np.ones((1, 2), dtype=np.int64),
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


@pytest.mark.parametrize("cell", ["inf", "nan", "1e19", "2.5"])
def test_csv_counts_must_be_int64_whole_numbers(tmp_path, cell):
    """A population that is not a whole number below 2^53 is a parse error,
    raised before the int64 cast could warn."""
    matrix = build_example_matrix()
    path = tmp_path / "matrix.csv"
    mm.matrix_to_csv(matrix, str(path))
    lines = path.read_text().split("\n")
    cells = lines[-2].split(",")  # the last populations row
    cells[1] = cell
    lines[-2] = ",".join(cells)
    path.write_text("\n".join(lines))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(FileParseError, match="integers"):
            mm.csv_to_matrix(str(path))


@pytest.mark.parametrize("cell", ["0", "-1"])
def test_csv_populations_must_be_positive(tmp_path, cell):
    """A population below 1 is a parse error, raised before the
    normalization could divide by it."""
    matrix = build_example_matrix()
    path = tmp_path / "matrix.csv"
    mm.matrix_to_csv(matrix, str(path))
    lines = path.read_text().split("\n")
    cells = lines[-2].split(",")  # the last populations row
    cells[1] = cell
    lines[-2] = ",".join(cells)
    path.write_text("\n".join(lines))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(FileParseError, match="populations must be >= 1"):
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
