import csv
import dataclasses
import datetime as dt
import functools
import io as stdio
import logging
import pathlib
import tempfile

import pytest
from hypothesis import example, given, strategies as st

import oracles
import vrf_sentinel.synthgen as sg
import vrf_sentinel.vrf_io as io
from vrf_sentinel.errors import FileParseError, IntegrityError, SchemaError, VrfError
from vrf_sentinel.records import (
    ChangeRecord,
    ChangeType,
    FieldDelta,
    Snapshot,
    VoterRecord,
    VoterStatus,
)

D1 = dt.date(2019, 1, 3)
D2 = dt.date(2019, 1, 10)


def make_voter(voter_id, locale="polk", **kwargs):
    defaults = dict(
        first_name="ada",
        last_name="barnes",
        address=("12", "oak st", "", "polk city", "50001"),
        status=VoterStatus.ACTIVE,
        party="democrat",
    )
    defaults.update(kwargs)
    return VoterRecord(voter_id=voter_id, locale=locale, **defaults)


def snap(date, *voters):
    return Snapshot(snapshot_date=date, records={v.voter_id: v for v in voters}, locale_counts={})


# --- parsing -----------------------------------------------------------------


def write_snapshot_file(tmp_path, rows, name="snapshot_2019-01-03.csv"):
    header = "voter_id,locale,status,first_name,last_name,party\n"
    path = tmp_path / name
    path.write_text(header + "".join(rows))
    return str(path)


def simple_schema():
    return io.SnapshotSchema(
        columns={
            "voter_id": "voter_id",
            "locale": "locale",
            "status": "status",
            "first_name": "first_name",
            "last_name": "last_name",
            "party": "party",
        }
    )


def test_parse_well_formed(tmp_path):
    path = write_snapshot_file(
        tmp_path,
        ["A1,polk,active,ada,barnes,democrat\n",
         "A2,polk,inactive,bea,calder,republican\n",
         "A3,story,pending,carl,dietz,no_party\n"],
    )
    snapshot = io.parse_snapshot(path, simple_schema())
    assert len(snapshot) == 3
    assert snapshot.snapshot_date == D1  # from filename
    assert snapshot.locale_counts == {"polk": 2, "story": 1}
    assert snapshot.records["A2"].status == VoterStatus.INACTIVE


def test_parse_duplicate_voter_id(tmp_path):
    path = write_snapshot_file(
        tmp_path,
        ["A1,polk,active,ada,barnes,democrat\n",
         "A1,polk,active,ada,barnes,democrat\n"],
    )
    with pytest.raises(IntegrityError, match="A1"):
        io.parse_snapshot(path, simple_schema())


def test_parse_missing_status_column(tmp_path):
    path = tmp_path / "snapshot_2019-01-03.csv"
    path.write_text("voter_id,locale\nA1,polk\n")
    with pytest.raises(SchemaError, match="status"):
        io.parse_snapshot(str(path), simple_schema())


def test_schema_requires_required_fields():
    with pytest.raises(SchemaError, match="locale"):
        io.SnapshotSchema(columns={"voter_id": "id", "status": "st"})


def test_bad_rows_reported_not_dropped_silently(tmp_path):
    path = write_snapshot_file(
        tmp_path,
        ["A1,polk,active,ada,barnes,democrat\n",
         ",polk,active,bea,calder,republican\n",
         "A3,polk,nonsense,carl,dietz,no_party\n"],
    )
    issues = []
    snapshot = io.parse_snapshot(path, simple_schema(), issues=issues)
    assert len(snapshot) == 1
    assert {(i.line, i.field) for i in issues} == {(3, "voter_id"), (4, "status")}


# Every logical field but gender (absent, so unmapped) and middle_name
# (present, but the schema leaves it unmapped), plus an extra column.
MALFORMED_HEADER = (
    "voter_id,locale,status,first_name,middle_name,last_name,house_num,street_name,unit,"
    "city,zip,party,birth_date,registration_date,last_update_date,vote_history,notes\n"
)
HISTORY = "e1|2018-11-06|regular|;e2|2018-06-05|absentee|democrat"


def full_row(voter_id="V1", locale="polk", status="active", birth="1970-01-02",
             registered="2000-01-01", updated="2001-01-01", history=HISTORY):
    return (
        f"{voter_id},{locale},{status},ada,x,barnes,12,oak st,,polk city,50001,democrat,"
        f"{birth},{registered},{updated},{history},note\n"
    )


MALFORMED_ROWS = [
    full_row("V1"),                                   # line 2: valid
    full_row(""),                                     # 3: empty voter_id
    full_row("V3", locale=""),                        # 4: empty locale
    full_row("V4", status="retired"),                 # 5: unknown status
    full_row("V5", birth="1970-13-01"),               # 6: bad birth date
    full_row("V6", registered="2000-02-30"),          # 7: bad registration date
    full_row("V7", updated="yesterday"),              # 8: bad last-update date
    full_row("V8", history="e1|2018-11-06|regular"),  # 9: bad vote-history token
    full_row("V9", history="e1|2018-11-06|mail|"),    # 10: unknown ballot kind
    "V10,story,inactive\n",                          # 11: short row, valid
    full_row("V1", birth="1970-01-32"),               # 12: malformed, not a duplicate
    full_row(" V11 ", locale=" story ", status=" Active "),  # 13: valid, padded
    full_row("V12", history="e1|2018-02-30|regular|"),  # 14: bad election date
    "V13,polk\n",                                    # 15: short row, no status
    full_row("V14"),                                  # 16: valid, same history as V1
]


def write_full_file(tmp_path, rows):
    path = tmp_path / "snapshot_2019-01-03.csv"
    path.write_text(MALFORMED_HEADER + "".join(rows))
    return str(path)


def malformed_schema():
    return io.SnapshotSchema(columns={f: f for f in io.LOGICAL_FIELDS if f != "middle_name"})


def expected_issues(path):
    where = f"{path}:"
    return [
        io.RowIssue(3, "voter_id", "empty voter_id"),
        io.RowIssue(4, "locale", "empty locale"),
        io.RowIssue(5, "status", "unknown status 'retired'"),
        io.RowIssue(6, "-", f"{where}6: bad date '1970-13-01'"),
        io.RowIssue(7, "-", f"{where}7: bad date '2000-02-30'"),
        io.RowIssue(8, "-", f"{where}8: bad date 'yesterday'"),
        io.RowIssue(9, "-", f"{where}9: bad vote-history token 'e1|2018-11-06|regular'"),
        io.RowIssue(10, "-", f"{where}10: unknown ballot kind 'mail'"),
        io.RowIssue(12, "-", f"{where}12: bad date '1970-01-32'"),
        io.RowIssue(14, "-", f"{where}14: bad date '2018-02-30'"),
        io.RowIssue(15, "status", "unknown status ''"),
    ]


def write_references(tmp_path, snapshot, voter_ids):
    """The reference file `diff` writes for the changed voters `voter_ids`
    (None: every voter) of a parsed snapshot, as its path."""
    wanted = snapshot.records.keys() if voter_ids is None else set(voter_ids)
    kept = {k: v for k, v in snapshot.records.items() if k in wanted}
    path = tmp_path / "voters" / f"snapshot_{snapshot.snapshot_date}.csv"
    path.parent.mkdir(exist_ok=True)
    io.write_snapshot(Snapshot(snapshot.snapshot_date, kept, {}), str(path))
    return path, kept


@pytest.mark.parametrize("voter_ids", [None, (), {"V1", "V11", "V4", "nobody"}])
def test_malformed_rows_same_issues_and_counts_for_any_voter_ids(tmp_path, voter_ids):
    """Every row of an input snapshot is parsed in full; whichever voters'
    records `diff` then keeps as references read back unchanged."""
    path = write_full_file(tmp_path, MALFORMED_ROWS)
    issues = []
    full = io.parse_snapshot(path, malformed_schema(), issues=issues)

    assert issues == expected_issues(path)
    assert full.locale_counts == {"polk": 2, "story": 2}
    assert set(full.records) == {"V1", "V10", "V11", "V14"}
    references, kept = write_references(tmp_path, full, voter_ids)
    part = io.parse_snapshot(str(references), io.identity_schema())
    assert part.snapshot_date == full.snapshot_date
    assert part.records == kept

    v1, v10, v11 = full.records["V1"], full.records["V10"], full.records["V11"]
    assert (v1.middle_name, v1.gender) == ("", "")  # unmapped fields read empty
    assert v1.birth_date == dt.date(1970, 1, 2)
    assert [ev.election_id for ev in v1.vote_history] == ["e1", "e2"]
    assert full.records["V14"].vote_history == v1.vote_history
    assert v10.status == VoterStatus.INACTIVE and v10.vote_history == ()
    assert v10.address == ("", "", "", "", "") and v10.birth_date is None
    assert (v11.locale, v11.status) == ("story", VoterStatus.ACTIVE)


@pytest.mark.parametrize("voter_ids", [None, (), {"V2"}, {"V1"}])
def test_duplicate_raises_for_any_voter_ids(tmp_path, voter_ids):
    """A repeated voter id aborts the input parse, and a reference file
    holding any set of voters plus a repeated V1 aborts its read too."""
    path = write_full_file(tmp_path, [full_row("V1"), full_row("V2"), full_row("V1")])
    with pytest.raises(IntegrityError, match="V1"):
        io.parse_snapshot(path, malformed_schema())

    clean = io.parse_snapshot(write_full_file(tmp_path, [full_row("V1"), full_row("V2")]),
                              malformed_schema())
    (tmp_path / "v1").mkdir()
    only_v1, _ = write_references(tmp_path / "v1", clean, {"V1"})
    v1_line = only_v1.read_text().splitlines(keepends=True)[-1]
    references, kept = write_references(tmp_path, clean, voter_ids)
    with open(references, "a") as fh:
        fh.write(v1_line * (1 if "V1" in kept else 2))
    with pytest.raises(IntegrityError, match="V1"):
        io.parse_snapshot(str(references), io.identity_schema())


def test_bad_rows_logged_as_one_warning(tmp_path, caplog):
    path = write_snapshot_file(
        tmp_path,
        ["A1,polk,active,ada,barnes,democrat\n",
         ",polk,active,bea,calder,republican\n",
         "A3,polk,nonsense,carl,dietz,no_party\n",
         "A4,,active,dee,eames,no_party\n"],
    )
    issues = []
    with caplog.at_level(logging.WARNING, logger="vrf_sentinel.vrf_io"):
        io.parse_snapshot(path, simple_schema(), issues=issues)
    assert len(issues) == 3
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    message = warnings[0].getMessage()
    assert "3 malformed rows" in message
    assert "voter_id 1, status 1, locale 1" in message
    assert "lines 3, 4, 5" in message


def test_load_schema_file(tmp_path):
    cfg = tmp_path / "schema.cfg"
    cfg.write_text("# comment\nvoter_id = id\nlocale = county\nstatus = st\ndelimiter = ;\n")
    schema = io.load_schema(str(cfg))
    assert schema == io.SnapshotSchema({"voter_id": "id", "locale": "county", "status": "st"}, ";")
    # a snapshot's date comes from its file name alone
    cfg.write_text("voter_id = id\nlocale = county\nstatus = st\nsnapshot_date = 2020-05-01\n")
    with pytest.raises(SchemaError, match="unknown logical fields: snapshot_date"):
        io.load_schema(str(cfg))


def test_snapshot_write_parse_round_trip(tmp_path):
    config = sg.snapshot_pair_config(seed=5, n_voters=400)
    snapshots, _ = oracles.scenario(config)
    path = tmp_path / f"snapshot_{snapshots[0].snapshot_date}.csv"
    io.write_snapshot(snapshots[0], str(path))
    parsed = io.parse_snapshot(str(path), io.identity_schema())
    assert parsed.snapshot_date == snapshots[0].snapshot_date
    assert parsed.records == snapshots[0].records


def write_alone(snapshot, path):
    """`snapshot` written after an unrelated file, so that none of its lines
    comes from the write before."""
    io.write_snapshot(snap(D1, make_voter("Z1")), f"{path}.unrelated")
    io.write_snapshot(snapshot, path)
    return pathlib.Path(path).read_bytes()


def test_stream_writes_match_each_snapshot_written_alone(tmp_path, monkeypatch):
    snapshots, _ = oracles.scenario(sg.snapshot_pair_config(seed=5, n_voters=400))
    last = snapshots[-1]
    # a record replaced by an equal but distinct object, and one changed in place of it
    same, changed = sorted(last.records)[:2]
    records = dict(last.records)
    records[same] = dataclasses.replace(records[same])
    records[changed] = dataclasses.replace(records[changed], first_name="ed, \"jr\"")
    snapshots.append(Snapshot(snapshot_date=last.snapshot_date, records=records, locale_counts={}))

    formatted = []
    row = io._snapshot_row
    monkeypatch.setattr(io, "_snapshot_row", lambda rec: formatted.append(rec) or row(rec))
    streamed = []
    for k, snapshot in enumerate(snapshots):
        formatted.clear()
        io.write_snapshot(snapshot, str(tmp_path / f"stream_{k}_{D1}.csv"))
        streamed.append((tmp_path / f"stream_{k}_{D1}.csv").read_bytes())
        # only the records the write before did not hold are formatted
        before = snapshots[k - 1].records.values() if k else ()
        held = {id(rec) for rec in before}
        assert formatted == [r for _, r in sorted(snapshot.records.items()) if id(r) not in held]
    assert {id(r) for r in formatted} == {id(records[same]), id(records[changed])}
    for k, snapshot in enumerate(snapshots):
        assert streamed[k] == write_alone(snapshot, str(tmp_path / f"alone_{k}.csv"))
    parsed = io.parse_snapshot(str(tmp_path / f"stream_{len(snapshots) - 1}_{D1}.csv"),
                               io.identity_schema())
    assert parsed.records == records


# Cell text with what csv must quote or double, and what a reader splits at.
ANY_CELL = st.text() | st.text(st.sampled_from(list(' ,"\r\n\t\x00é')), max_size=6)


@st.composite
def free_text_records(draw):
    """Records whose name, address and locale cells hold any text; a locale
    that strips to nothing would drop the row, so it holds one letter."""
    return [
        make_voter(
            f"V{k}",
            locale=draw(ANY_CELL) + "p" + draw(ANY_CELL),
            first_name=draw(ANY_CELL),
            middle_name=draw(ANY_CELL),
            last_name=draw(ANY_CELL),
            address=tuple(draw(ANY_CELL) for _ in range(5)),
        )
        for k in range(draw(st.integers(1, 3)))
    ]


def stripped(rec):
    """`rec` as the parser gives it back: every cell stripped."""
    return dataclasses.replace(
        rec,
        locale=rec.locale.strip(),
        first_name=rec.first_name.strip(),
        middle_name=rec.middle_name.strip(),
        last_name=rec.last_name.strip(),
        address=tuple(part.strip() for part in rec.address),
    )


@given(free_text_records())
def test_snapshot_round_trip_any_text(voters):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/snapshot_2019-01-03.csv"
        io.write_snapshot(snap(D1, *voters), path)
        issues = []
        parsed = io.parse_snapshot(path, io.identity_schema(), issues=issues)
        raw = pathlib.Path(path).read_bytes()
    assert issues == []
    assert parsed.records == {v.voter_id: stripped(v) for v in voters}
    # csv's minimal quoting, and a cell holding a carriage return quoted too
    rows = [io.LOGICAL_FIELDS, *(io._snapshot_row(v) for v in voters)]
    assert raw == "".join(map(oracles.csv_row, rows)).encode("utf-8")


@functools.cache
def written_snapshot():
    """The bytes of a small synthetic snapshot file: every column, dates and
    vote histories filled."""
    snapshots, _ = oracles.scenario(sg.snapshot_pair_config(seed=5, n_voters=30))
    with tempfile.TemporaryDirectory() as tmp:
        io.write_snapshot(snapshots[0], f"{tmp}/s.csv")
        return pathlib.Path(f"{tmp}/s.csv").read_bytes()


@given(st.sampled_from(["truncate", "insert", "cell"]), st.data())
def test_snapshot_reader_returns_or_raises_vrf_error(kind, data):
    """A written snapshot, then truncated, with bytes inserted, or with one
    cell replaced by any text, parses or raises VrfError."""
    raw = written_snapshot()
    at = data.draw(st.integers(0, len(raw)))
    if kind == "truncate":
        raw = raw[:at]
    elif kind == "insert":
        raw = raw[:at] + data.draw(st.binary(min_size=1, max_size=8)) + raw[at:]
    else:
        rows = list(csv.reader(raw.decode("utf-8").splitlines()))
        row = rows[data.draw(st.integers(0, len(rows) - 1))]
        row[data.draw(st.integers(0, len(row) - 1))] = data.draw(st.text())
        buffer = stdio.StringIO(newline="")
        csv.writer(buffer, lineterminator="\n").writerows(rows)
        raw = buffer.getvalue().encode("utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "snapshot_2019-01-03.csv"
        path.write_bytes(raw)
        try:
            assert isinstance(io.parse_snapshot(str(path), io.identity_schema()), Snapshot)
        except VrfError:
            pass


# --- diffing ------------------------------------------------------------------


def test_removal_and_registration():
    anterior = snap(D1, make_voter("A1"), make_voter("A2"))
    posterior = snap(D2, make_voter("A2"), make_voter("A9", locale="story"))
    changes = io.diff_snapshots(anterior, posterior)
    by_type = {c.change_type: c for c in changes}
    assert set(by_type) == {ChangeType.REMOVAL, ChangeType.REGISTRATION}
    assert by_type[ChangeType.REMOVAL].voter_id == "A1"
    assert by_type[ChangeType.REMOVAL].locale == "polk"  # anterior locale
    assert by_type[ChangeType.REGISTRATION].locale == "story"


def test_identical_snapshots_empty_diff():
    voters = [make_voter("A1"), make_voter("A2")]
    assert io.diff_snapshots(snap(D1, *voters), snap(D2, *voters)) == []


def test_multiple_types_for_one_voter():
    before = make_voter("A1")
    after = make_voter(
        "A1",
        address=("12", "maple st", "", "polk city", "50001"),
        status=VoterStatus.INACTIVE,
    )
    changes = io.diff_snapshots(snap(D1, before), snap(D2, after))
    assert [c.change_type for c in changes] == [ChangeType.ADDRESS, ChangeType.DEACTIVATION]
    deltas = changes[0].field_deltas
    assert [(d.field, d.old, d.new) for d in deltas] == [("street_name", "oak st", "maple st")]


def test_whitespace_and_case_not_a_change():
    before = make_voter("A1", first_name="Ada ")
    after = make_voter("A1", first_name="ada")
    assert io.diff_snapshots(snap(D1, before), snap(D2, after)) == []


def test_party_and_name_changes():
    before = make_voter("A1")
    after = make_voter("A1", last_name="Calder", party="no_party")
    changes = io.diff_snapshots(snap(D1, before), snap(D2, after))
    assert [c.change_type for c in changes] == [ChangeType.NAME, ChangeType.PARTY]


def test_pending_transitions_extended_vs_strict():
    """Pending is classified like its destination; no strict mode leaves it out."""
    before = make_voter("A1", status=VoterStatus.PENDING)
    for status, change_type in ((VoterStatus.ACTIVE, ChangeType.ACTIVATION),
                                (VoterStatus.INACTIVE, ChangeType.DEACTIVATION)):
        after = make_voter("A1", status=status)
        changes = io.diff_snapshots(snap(D1, before), snap(D2, after))
        assert [c.change_type for c in changes] == [change_type]


def test_date_order_precondition():
    a = snap(D2, make_voter("A1"))
    b = snap(D1, make_voter("A1"))
    with pytest.raises(Exception, match="precede"):
        io.diff_snapshots(a, b)


def test_locale_move_is_address_change_at_posterior_locale():
    before = make_voter("A1", locale="polk")
    after = make_voter(
        "A1", locale="story", address=("40", "elm st", "", "story city", "50248")
    )
    changes = io.diff_snapshots(snap(D1, before), snap(D2, after))
    assert [c.change_type for c in changes] == [ChangeType.ADDRESS]
    assert changes[0].locale == "story"


def test_locale_only_move_records_no_change(tmp_path):
    """A voter whose locale changes while every diffed field stays the same
    gets no change record: only the census of the parsed files moves them
    between rows. The patch oracle agrees, as its projection holds no locale."""
    anterior = snap(D1, make_voter("A1", locale="polk"), make_voter("A2"))
    posterior = snap(D2, make_voter("A1", locale="story"), make_voter("A2"))
    assert io.diff_snapshots(anterior, posterior) == []
    censuses = []
    for snapshot in (anterior, posterior):
        path = str(tmp_path / f"snapshot_{snapshot.snapshot_date}.csv")
        io.write_snapshot(snapshot, path)
        censuses.append(io.parse_snapshot(path, io.identity_schema()).locale_counts)
    assert censuses == [{"polk": 2}, {"story": 1, "polk": 1}]
    patched = oracles.apply_changes(anterior, [], D2)
    assert oracles.diff_projection(patched) == oracles.diff_projection(posterior)


def test_diff_deterministic_order():
    anterior = snap(D1, make_voter("A1"), make_voter("A2"), make_voter("A3"))
    posterior = snap(
        D2,
        make_voter("A1", party="no_party", last_name="tate"),
        make_voter("A3", status=VoterStatus.INACTIVE),
        make_voter("A4"),
    )
    changes = io.diff_snapshots(anterior, posterior)
    keys = [(c.voter_id, c.change_type.value) for c in changes]
    assert keys == [
        ("A1", "name"),
        ("A1", "party"),
        ("A2", "removal"),
        ("A3", "deactivation"),
        ("A4", "registration"),
    ]


def test_mirror_symmetry_of_counts():
    config = sg.snapshot_pair_config(seed=11, n_voters=600)
    (s0, s1), _ = oracles.scenario(config)
    forward = io.diff_snapshots(s0, s1)
    backward = io.diff_snapshots(
        oracles.with_date(s1, s0.snapshot_date), oracles.with_date(s0, s1.snapshot_date)
    )

    def counts(changes):
        out = {}
        for c in changes:
            out[c.change_type] = out.get(c.change_type, 0) + 1
        return out

    f, b = counts(forward), counts(backward)
    assert f.get(ChangeType.REMOVAL, 0) == b.get(ChangeType.REGISTRATION, 0)
    assert f.get(ChangeType.REGISTRATION, 0) == b.get(ChangeType.REMOVAL, 0)
    assert f.get(ChangeType.DEACTIVATION, 0) == b.get(ChangeType.ACTIVATION, 0)
    assert f.get(ChangeType.ACTIVATION, 0) == b.get(ChangeType.DEACTIVATION, 0)


def test_diff_patch_consistency():
    config = sg.snapshot_pair_config(seed=23, n_voters=800)
    (s0, s1), _ = oracles.scenario(config)
    changes = io.diff_snapshots(s0, s1)
    patched = oracles.apply_changes(s0, changes, s1.snapshot_date)
    assert oracles.diff_projection(patched) == oracles.diff_projection(s1)


# --- CSV cell rule --------------------------------------------------------------


@given(st.lists(ANY_CELL, min_size=2, max_size=5))
def test_csv_line_quotes_only_special_cells_and_reads_back(cells):
    """A cell is quoted exactly when it holds a comma, a quote, LF or CR;
    without a CR the line is csv's own, and any line reads back whole."""
    line = io.csv_line(cells)
    assert [io.csv_cell(cell).startswith('"') for cell in cells] == [
        any(c in cell for c in ',"\n\r') for cell in cells
    ]
    if not any("\r" in cell for cell in cells):
        buffer = stdio.StringIO(newline="")
        csv.writer(buffer, lineterminator="\n").writerow(cells)
        assert line == buffer.getvalue()
    assert list(csv.reader(stdio.StringIO(line, newline=""))) == [cells]
    assert io.csv_line([]) == "\n"


# --- change CSV round trip -----------------------------------------------------


def test_changes_csv_round_trip(tmp_path):
    anterior = snap(D1, make_voter("A1"), make_voter("A2"), make_voter("A3"))
    posterior = snap(
        D2,
        make_voter("A1", party="other", address=("9", "fir st", "2b", "polk city", "50001")),
        make_voter("A3", status=VoterStatus.INACTIVE, last_name="sloan"),
        make_voter("B7"),
    )
    changes = io.diff_snapshots(anterior, posterior)
    assert len(changes) == 6
    path = tmp_path / "changes.csv"
    io.changes_to_csv(changes, str(path))
    assert list(io.csv_to_changes(str(path))) == changes


def test_changes_csv_read_on_each_pass(tmp_path):
    """`csv_to_changes` reads nothing when called: each pass over its
    result reads the file as it then stands, one record at a time."""
    path = tmp_path / "changes.csv"
    changes = io.csv_to_changes(str(path))
    first = [ChangeRecord("A1", "polk", ChangeType.NAME, D1, D2, (FieldDelta("last_name", "a", "b"),))]
    io.changes_to_csv(first, str(path))
    assert list(changes) == list(changes) == first
    io.changes_to_csv(first * 2, str(path))
    assert list(changes) == first * 2


def test_changes_csv_empty_round_trip(tmp_path):
    path = tmp_path / "changes.csv"
    io.changes_to_csv([], str(path))
    assert path.read_text().strip() == ",".join(io.CHANGE_CSV_COLUMNS)
    assert list(io.csv_to_changes(str(path))) == []


def test_changes_csv_unknown_type(tmp_path):
    path = tmp_path / "changes.csv"
    path.write_text(
        ",".join(io.CHANGE_CSV_COLUMNS)
        + "\nA1,polk,upgrade,2019-01-03,2019-01-10,[]\n"
    )
    with pytest.raises(FileParseError, match="upgrade"):
        list(io.csv_to_changes(str(path)))


def test_changes_csv_deeply_nested_deltas(tmp_path):
    path = tmp_path / "changes.csv"
    nested = "[" * 10_000 + "]" * 10_000
    path.write_text(
        ",".join(io.CHANGE_CSV_COLUMNS) + f"\nA1,polk,address,2019-01-03,2019-01-10,{nested}\n"
    )
    with pytest.raises(FileParseError, match="field_deltas"):
        list(io.csv_to_changes(str(path)))


def test_changes_csv_byte_identical(tmp_path):
    config = sg.snapshot_pair_config(seed=2, n_voters=500)
    (s0, s1), _ = oracles.scenario(config)
    changes = io.diff_snapshots(s0, s1)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    io.changes_to_csv(changes, str(p1))
    io.changes_to_csv(changes, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


# Cell text with the characters CSV must quote or escape, and unicode.
CSV_TEXT = st.text(st.sampled_from(list('ab ,;|"\'\n\r\tÄé漢')), max_size=6)


@given(st.lists(st.tuples(CSV_TEXT, CSV_TEXT, st.sampled_from(list(ChangeType)),
                          st.lists(st.tuples(CSV_TEXT, CSV_TEXT, CSV_TEXT), max_size=2)),
                max_size=4))
def test_changes_csv_round_trip_any_text(rows):
    changes = [
        ChangeRecord(voter_id, locale, change_type, D1, D2,
                     tuple(FieldDelta(*delta) for delta in deltas))
        for voter_id, locale, change_type, deltas in rows
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/changes.csv"
        io.changes_to_csv(changes, path)
        assert list(io.csv_to_changes(path)) == changes


# --- diff properties -----------------------------------------------------------

_IDS = ("A1", "A2", "A3", "A4", "A5")


@st.composite
def voter_sets(draw):
    """Small snapshots: a few voters over few field values, so repeats and
    equal records are common."""
    voters = []
    for voter_id in sorted(draw(st.sets(st.sampled_from(_IDS)))):
        voters.append(
            make_voter(
                voter_id,
                locale=draw(st.sampled_from(["polk", "story"])),
                first_name=draw(st.sampled_from(["ada", "bea"])),
                last_name=draw(st.sampled_from(["barnes", "calder"])),
                address=(draw(st.sampled_from(["12", "40"])), "oak st", "", "polk city", "50001"),
                status=draw(st.sampled_from(list(VoterStatus))),
                party=draw(st.sampled_from(["democrat", "", "other"])),
            )
        )
    return voters


def ids_of(changes, change_type):
    return {c.voter_id for c in changes if c.change_type == change_type}


@given(voter_sets(), voter_sets())
def test_removals_mirror_registrations(a, b):
    forward = io.diff_snapshots(snap(D1, *a), snap(D2, *b))
    backward = io.diff_snapshots(snap(D1, *b), snap(D2, *a))
    assert ids_of(forward, ChangeType.REMOVAL) == ids_of(backward, ChangeType.REGISTRATION)
    assert ids_of(forward, ChangeType.REGISTRATION) == ids_of(backward, ChangeType.REMOVAL)


@given(voter_sets())
def test_redated_copy_has_no_changes(voters):
    snapshot = snap(D1, *voters)
    assert io.diff_snapshots(snapshot, oracles.with_date(snapshot, D2)) == []


_CASE_OR_SPACE = st.sampled_from([str.upper, str.title, lambda v: f"  {v} ", lambda v: v])


@given(voter_sets(), st.data())
def test_case_and_whitespace_edits_have_no_changes(voters, data):
    edited = []
    for voter in voters:
        edit = {
            f: data.draw(_CASE_OR_SPACE)(getattr(voter, f))
            for f in ("first_name", "middle_name", "last_name", "party")
        }
        edit["first_name"] += " "  # always unequal, so the equal-record shortcut is skipped
        address = tuple(data.draw(_CASE_OR_SPACE)(part) for part in voter.address)
        edited.append(make_voter(voter.voter_id, locale=voter.locale, status=voter.status,
                                 address=address, **edit))
    assert all(old != new for old, new in zip(voters, edited))
    assert io.diff_snapshots(snap(D1, *voters), snap(D2, *edited)) == []


# --- diffing a stream of files ------------------------------------------------


def write_named(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8", newline="")
    return str(path)


def read_stream(paths, schema):
    """The files read through one SnapshotStream, as `diff` reads them,
    each checked against the file parsed alone and diffed against the one
    before: census, row issues (line, field, message), IntegrityError text
    and changes, and the stream's records are the whole files' records.
    Returns the stream and what each read returned, up to the first error."""
    stream, reads, last = io.SnapshotStream(schema), [], None
    for path in paths:
        issues, streamed_issues = [], []
        try:
            whole = io.parse_snapshot(path, schema, issues=issues)
        except IntegrityError as exc:
            whole = str(exc)
        try:
            anterior, posterior = stream.read(path, streamed_issues)
        except IntegrityError as exc:
            assert (str(exc), streamed_issues) == (whole, issues)
            break
        changes = io.diff_snapshots(anterior, posterior) if anterior is not None else []
        assert streamed_issues == issues
        assert posterior.locale_counts == whole.locale_counts
        assert changes == (io.diff_snapshots(last, whole) if last is not None else [])
        assert all(whole.records[v] == record for v, record in posterior.records.items())
        if last is not None:
            assert all(last.records[v] == record for v, record in anterior.records.items())
        reads.append((anterior, posterior, changes))
        last = whole
    return stream, reads


def test_reordered_header_counts_every_line_removed(tmp_path):
    line = "A1,polk,active,ada,barnes,democrat\n"
    first = write_named(tmp_path, "snapshot_2019-01-03.csv",
                        "voter_id,locale,status,first_name,last_name,party\n" + line)
    # the same line under swapped voter_id and locale columns
    second = write_named(tmp_path, "snapshot_2019-01-10.csv",
                         "locale,voter_id,status,first_name,last_name,party\n" + line)
    stream, reads = read_stream([first, second], simple_schema())
    anterior, posterior, changes = reads[1]
    assert set(anterior.records) == {"A1"} and set(posterior.records) == {"polk"}
    assert posterior.locale_counts == {"A1": 1}
    assert [c.change_type for c in changes] == [ChangeType.REMOVAL, ChangeType.REGISTRATION]
    assert stream.rows_reused == 0


def test_identical_lines_are_reused(tmp_path):
    """A line the previous file held is not parsed again: it counts in
    `rows_reused` and builds no record; only a changed line is parsed."""
    rows = ["A1,polk,active,ada,barnes,democrat\n", "A2,story,inactive,bea,calder,\n"]
    edited = [rows[0], "A2,story,active,bea,calder,\n"]
    paths = [write_snapshot_file(tmp_path, r, name=f"snapshot_2019-01-0{d}.csv")
             for d, r in ((3, rows), (4, rows), (5, edited))]
    stream, reads = read_stream(paths, simple_schema())
    (_, first, _), (_, second, same), (_, third, changes) = reads
    assert first.records == {} and second.records == {} and same == []
    assert set(third.records) == {"A2"} and second.locale_counts == {"polk": 1, "story": 1}
    assert [c.change_type for c in changes] == [ChangeType.ACTIVATION]
    assert stream.rows_reused == 3


def test_a_line_parsed_after_the_first_file_is_not_parsed_again(tmp_path, monkeypatch):
    """When every line changes (here the columns are reordered in every
    other file), a line parsed as added is not parsed again as removed;
    only the first file's lines, whose records are dropped, are."""
    calls = []
    record = io._Rows.record
    monkeypatch.setattr(io._Rows, "record", lambda *a: calls.append(a[2]) or record(*a))
    header = "voter_id,locale,status,first_name,last_name,party\n"
    rows = ["A1,polk,active,ada,barnes,democrat\n", "A2,story,inactive,bea,calder,\n"]
    swapped = ["polk,A1,active,ada,barnes,democrat\n", "story,A2,inactive,bea,calder,\n"]
    texts = [header + "".join(rows), "locale,voter_id" + header[15:] + "".join(swapped)] * 2
    paths = [write_named(tmp_path, f"snapshot_2019-01-0{d}.csv", t) for d, t in enumerate(texts, 3)]
    stream = io.SnapshotStream(simple_schema())
    for path in paths:
        anterior, posterior = stream.read(path, [])
        assert anterior is None or io.diff_snapshots(anterior, posterior) == []
    # each file's 2 lines as added, and the first file's again as removed
    assert len(calls) == 2 * 4 + 2 and stream.rows_reused == 0


STREAM_COLUMNS = ("voter_id", "locale", "status", "birth_date", "vote_history")
STREAM_SCHEMA = io.SnapshotSchema(columns={c: c for c in STREAM_COLUMNS})
# Raw lines in STREAM_COLUMNS order; a header permutation gives them other
# meanings. Some span two lines, some open a quote that runs on, one ends
# in a bare carriage return.
STREAM_LINES = (
    "A1,polk,active,1970-01-02,e1|2018-11-06|regular|\n",
    "A1,story,inactive,,\n",
    "A2,polk,active,1970-01-02,\r\n",
    'A3,"polk, ia",active,,\n',
    'A4,"po""lk",pending,,\n',
    'A5,"po\nlk",active,,\n',
    '"A6\r\n",polk,active,,e1|2018-11-06|absentee|democrat\n',
    'A7,"open\n',
    'A14,polk,active,,"e1|2018-11-06|regular|\n',
    "\n",
    "A8,polk\n",
    "A9,polk,retired,,\n",
    "A10,polk,active,1970-13-01,\n",
    "A11,polk,active,,e1|2018-11-06\n",
    ",polk,active,,\n",
    "Ä12,pölk,Active,,\n",
    "A13,story,active,1980-05-06,e2|2018-06-05|mail|\n",
    "A15,story,active,,\r",
)


def test_record_the_file_ends_inside_is_not_reused(tmp_path):
    header = ",".join(STREAM_COLUMNS) + "\n"
    # the quote opened here closes only at the end of the first file ...
    line = 'A14,polk,active,,"e1|2018-11-06|regular|\n'
    first = write_named(tmp_path, "snapshot_2019-01-03.csv", header + line)
    # ... but runs on into the next line of the second
    second = write_named(tmp_path, "snapshot_2019-01-10.csv", header + line + 'A15",story,active,,\n')
    stream, reads = read_stream([first, second], STREAM_SCHEMA)
    _, posterior, _ = reads[1]
    assert set(posterior.records) == {"A14"}
    assert posterior.records["A14"].vote_history[0].party_ballot == "A15"
    assert stream.rows_reused == 0


@st.composite
def stream_files(draw):
    """2-4 files, each the previous one with a few lines inserted or
    deleted (as adjacent weekly snapshots are), under a header in some
    order of STREAM_COLUMNS, the last line sometimes without its line end."""
    files = []
    header = list(STREAM_COLUMNS)
    lines = draw(st.lists(st.sampled_from(STREAM_LINES), max_size=8))
    for _ in range(draw(st.integers(2, 4))):
        if draw(st.booleans()):
            header = draw(st.permutations(STREAM_COLUMNS))
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(STREAM_LINES)))
        if lines and draw(st.booleans()):
            del lines[draw(st.integers(0, len(lines) - 1))]
        text = ",".join(header) + "\n" + "".join(lines)
        if lines and draw(st.booleans()):
            text = text.rstrip("\r\n")
        files.append(text)
    return files


@given(stream_files())
# a voter removed, then registered again: no duplicate of its old id
@example(["voter_id,locale,status\nA1,polk,active\n", "voter_id,locale,status\n",
          "voter_id,locale,status\nA1,story,active\n"])
def test_stream_parse_matches_parsing_each_file_alone(files):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [write_named(pathlib.Path(tmp), f"snapshot_2019-01-0{k + 1}.csv", text)
                 for k, text in enumerate(files)]
        read_stream(paths, STREAM_SCHEMA)
