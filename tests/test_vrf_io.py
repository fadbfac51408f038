import datetime as dt
import logging
import pathlib
import tempfile

import pytest
from hypothesis import given, strategies as st

import vrf_sentinel.synthgen as sg
import vrf_sentinel.vrf_io as io
from vrf_sentinel.errors import FileParseError, IntegrityError, SchemaError
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
    return Snapshot(snapshot_date=date, records={v.voter_id: v for v in voters})


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


@pytest.mark.parametrize("voter_ids", [None, (), {"V1", "V11", "V4", "nobody"}])
def test_malformed_rows_same_issues_and_counts_for_any_voter_ids(tmp_path, voter_ids):
    path = write_full_file(tmp_path, MALFORMED_ROWS)
    full_issues, issues = [], []
    full = io.parse_snapshot(path, malformed_schema(), issues=full_issues)
    part = io.parse_snapshot(path, malformed_schema(), issues=issues, voter_ids=voter_ids)

    assert full_issues == issues == expected_issues(path)
    assert full.locale_counts == part.locale_counts == {"polk": 2, "story": 2}
    assert set(full.records) == {"V1", "V10", "V11", "V14"}
    wanted = full.records.keys() if voter_ids is None else set(voter_ids)
    assert part.records == {k: v for k, v in full.records.items() if k in wanted}

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
    path = write_full_file(tmp_path, [full_row("V1"), full_row("V2"), full_row("V1")])
    with pytest.raises(IntegrityError, match="V1"):
        io.parse_snapshot(path, malformed_schema(), voter_ids=voter_ids)


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
    cfg.write_text(
        "# comment\nvoter_id = id\nlocale = county\nstatus = st\nsnapshot_date = 2020-05-01\n"
    )
    schema = io.load_schema(str(cfg))
    assert schema.columns["locale"] == "county"
    assert schema.snapshot_date == dt.date(2020, 5, 1)


def test_snapshot_write_parse_round_trip(tmp_path):
    config = sg.snapshot_pair_config(seed=5, n_voters=400)
    snapshots, _ = sg.generate_scenario(config)
    path = tmp_path / f"snapshot_{snapshots[0].snapshot_date}.csv"
    io.write_snapshot(snapshots[0], str(path))
    parsed = io.parse_snapshot(str(path), io.identity_schema())
    assert parsed.snapshot_date == snapshots[0].snapshot_date
    assert parsed.records == snapshots[0].records


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
    before = make_voter("A1", status=VoterStatus.PENDING)
    after = make_voter("A1", status=VoterStatus.ACTIVE)
    extended = io.diff_snapshots(snap(D1, before), snap(D2, after))
    assert [c.change_type for c in extended] == [ChangeType.ACTIVATION]
    strict = io.diff_snapshots(snap(D1, before), snap(D2, after), strict_status=True)
    assert strict == []


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
    (s0, s1), _ = sg.generate_scenario(config)
    forward = io.diff_snapshots(s0, s1)
    backward = io.diff_snapshots(
        io.with_date(s1, s0.snapshot_date), io.with_date(s0, s1.snapshot_date)
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
    (s0, s1), _ = sg.generate_scenario(config)
    changes = io.diff_snapshots(s0, s1)
    patched = sg.apply_changes(s0, changes, s1.snapshot_date)
    assert sg.diff_projection(patched) == sg.diff_projection(s1)


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
    assert io.csv_to_changes(str(path)) == changes


def test_changes_csv_empty_round_trip(tmp_path):
    path = tmp_path / "changes.csv"
    io.changes_to_csv([], str(path))
    assert path.read_text().strip() == ",".join(io.CHANGE_CSV_COLUMNS)
    assert io.csv_to_changes(str(path)) == []


def test_changes_csv_unknown_type(tmp_path):
    path = tmp_path / "changes.csv"
    path.write_text(
        ",".join(io.CHANGE_CSV_COLUMNS)
        + "\nA1,polk,upgrade,2019-01-03,2019-01-10,[]\n"
    )
    with pytest.raises(FileParseError, match="upgrade"):
        io.csv_to_changes(str(path))


def test_changes_csv_byte_identical(tmp_path):
    config = sg.snapshot_pair_config(seed=2, n_voters=500)
    (s0, s1), _ = sg.generate_scenario(config)
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
        assert io.csv_to_changes(path) == changes


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
    assert io.diff_snapshots(snapshot, io.with_date(snapshot, D2)) == []


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


# --- line reuse along a stream -------------------------------------------------


def write_named(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8", newline="")
    return str(path)


def parse_stream(paths, schema, voter_ids):
    """Each file parsed through one shared memo, as the CLI streams do, and
    each parsed alone; both as (records, locale_counts, issues) or the
    IntegrityError text."""
    memo = io.LineMemo()

    def outcome(path, wanted, memo):
        issues = []
        try:
            snapshot = io.parse_snapshot(path, schema, issues=issues, voter_ids=wanted, memo=memo)
        except IntegrityError as exc:
            return str(exc)
        return snapshot.records, snapshot.locale_counts, issues

    streamed = [outcome(p, w, memo) for p, w in zip(paths, voter_ids)]
    alone = [outcome(p, w, None) for p, w in zip(paths, voter_ids)]
    return streamed, alone, memo


def test_reordered_header_drops_the_memo(tmp_path):
    line = "A1,polk,active,ada,barnes,democrat\n"
    first = write_named(tmp_path, "snapshot_2019-01-03.csv",
                        "voter_id,locale,status,first_name,last_name,party\n" + line)
    # the same line under swapped voter_id and locale columns
    second = write_named(tmp_path, "snapshot_2019-01-10.csv",
                         "locale,voter_id,status,first_name,last_name,party\n" + line)
    streamed, alone, memo = parse_stream([first, second], simple_schema(), [None, None])
    assert streamed == alone
    records, counts, _ = streamed[1]
    assert set(records) == {"polk"} and counts == {"A1": 1}
    assert memo.reused == 0


def test_identical_lines_are_reused(tmp_path):
    rows = ["A1,polk,active,ada,barnes,democrat\n", "A2,story,inactive,bea,calder,\n"]
    paths = [write_snapshot_file(tmp_path, rows, name=f"snapshot_2019-01-0{d}.csv")
             for d in (3, 4)]
    streamed, alone, memo = parse_stream(paths, simple_schema(), [None, None])
    assert streamed == alone
    assert memo.reused == 2
    # the second file's records are the first file's objects
    assert all(streamed[1][0][k] is streamed[0][0][k] for k in ("A1", "A2"))


STREAM_COLUMNS = ("voter_id", "locale", "status", "birth_date", "vote_history")
STREAM_SCHEMA = io.SnapshotSchema(columns={c: c for c in STREAM_COLUMNS})
# Raw lines in STREAM_COLUMNS order; a header permutation gives them other
# meanings. Some span two lines, some open a quote that runs on.
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
)
STREAM_WANTED = st.sampled_from([None, (), ("A1", "A3", "A5", "polk", "Ä12")])


def test_record_the_file_ends_inside_is_not_reused(tmp_path):
    header = ",".join(STREAM_COLUMNS) + "\n"
    # the quote opened here closes only at the end of the first file ...
    line = 'A14,polk,active,,"e1|2018-11-06|regular|\n'
    first = write_named(tmp_path, "snapshot_2019-01-03.csv", header + line)
    # ... but runs on into the next line of the second
    second = write_named(tmp_path, "snapshot_2019-01-10.csv", header + line + 'A15",story,active,,\n')
    streamed, alone, memo = parse_stream([first, second], STREAM_SCHEMA, [None, None])
    assert streamed == alone
    records, _, _ = streamed[1]
    assert set(records) == {"A14"} and records["A14"].vote_history[0].party_ballot == "A15"
    assert memo.reused == 0


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
        files.append((text, draw(STREAM_WANTED)))
    return files


@given(stream_files())
def test_stream_parse_matches_parsing_each_file_alone(files):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [write_named(pathlib.Path(tmp), f"snapshot_2019-01-0{k + 1}.csv", text)
                 for k, (text, _) in enumerate(files)]
        streamed, alone, _ = parse_stream(paths, STREAM_SCHEMA, [w for _, w in files])
    assert streamed == alone
