import argparse
import collections
import contextlib
import csv
import dataclasses
import datetime as dt
import gc
import hashlib
import io as stdio
import json
import logging
import math
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import warnings
import weakref

import numpy as np
import oracles
import pytest
from hypothesis import given, settings, strategies as st

import vrf_sentinel
from vrf_sentinel import cli, detectors, gbt, groupfeatures, modmatrix, vrf_io
from vrf_sentinel.errors import FileParseError, VrfError
from vrf_sentinel.groupfeatures import EventLabel
from vrf_sentinel.records import ChangeRecord, ChangeType, FieldDelta, election_tally


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth (small preset) -> diff -> matrix, shared by the tests below."""
    root = tmp_path_factory.mktemp("pipeline")
    synth = root / "synth"
    assert run("synth", "--preset", "small", "--seed", "3", "--out", str(synth)) == 0
    diff = root / "diff"
    assert run(
        "diff", "--snapshots", str(synth / "snapshots"),
        "--schema", str(synth / "schema.cfg"), "--out", str(diff),
    ) == 0
    matrix = root / "matrix"
    assert run(
        "matrix", "--changes", str(diff / "changes.csv"),
        "--snapshots", str(synth / "snapshots"), "--schema", str(synth / "schema.cfg"),
        "--change-type", "deactivation", "--out", str(matrix),
    ) == 0
    return root


def test_synth_writes_expected_artifacts(pipeline):
    synth = pipeline / "synth"
    assert (synth / "groundtruth.json").exists()
    assert (synth / "schema.cfg").exists()
    assert (synth / "manifest.json").exists()
    snapshots = list((synth / "snapshots").glob("snapshot_*.csv"))
    assert len(snapshots) == 21  # 20 intervals -> 21 snapshots


@pytest.mark.parametrize("step", ["diff", "matrix", "features"])
def test_steps_hold_at_most_two_snapshots(pipeline, tmp_path, monkeypatch, step):
    """features parses the 21 reference files diff wrote, one at a time;
    diff (which holds lines, not records) and matrix parse no whole file."""
    parse = vrf_io.parse_snapshot
    parsed, alive = [], []
    most_alive = 0

    def tracked(path, *args, **kwargs):
        nonlocal most_alive
        gc.collect()
        most_alive = max(most_alive, sum(ref() is not None for ref in alive))
        snapshot = parse(path, *args, **kwargs)
        parsed.append(os.path.dirname(os.path.abspath(path)))
        alive.append(weakref.ref(snapshot))
        return snapshot

    monkeypatch.setattr(vrf_io, "parse_snapshot", tracked)
    synth = pipeline / "synth"
    changes = ["--changes", str(pipeline / "diff" / "changes.csv")]
    extra = {
        "diff": [],
        "matrix": [*changes, "--change-type", "deactivation"],
        "features": [*changes, "--change-type", "deactivation"],
    }[step]
    assert run(
        step, "--snapshots", str(synth / "snapshots"), "--schema", str(synth / "schema.cfg"),
        *extra, "--out", str(tmp_path),
    ) == 0
    read = {"features": pipeline / "diff" / "voters"}.get(step)
    assert parsed == ([str(read)] * 21 if read else [])
    assert most_alive <= 2


def test_diff_pair_matches_sequence_rows(pipeline, tmp_path):
    synth = pipeline / "synth"
    pair = tmp_path / "snapshots"
    pair.mkdir()
    anterior, posterior = sorted((synth / "snapshots").glob("snapshot_*.csv"))[:2]
    for path in (anterior, posterior):
        shutil.copy(path, pair / path.name)
    assert run(
        "diff", "--snapshots", str(pair),
        "--schema", str(synth / "schema.cfg"), "--out", str(tmp_path / "diff"),
    ) == 0
    with open(pipeline / "diff" / "changes.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    date = anterior.stem.removeprefix("snapshot_")
    want = [header] + [r for r in rows if r[header.index("anterior_date")] == date]
    with open(tmp_path / "diff" / "changes.csv", newline="") as fh:
        assert list(csv.reader(fh)) == want
    assert len(want) > 1


def test_matrix_builds_no_records(pipeline, tmp_path, monkeypatch):
    def parse(*args, **kwargs):
        raise AssertionError("matrix parsed a snapshot file")

    monkeypatch.setattr(vrf_io, "parse_snapshot", parse)  # diff's census suffices
    synth = pipeline / "synth"
    assert run(
        "matrix", "--changes", str(pipeline / "diff" / "changes.csv"),
        "--snapshots", str(synth / "snapshots"), "--schema", str(synth / "schema.cfg"),
        "--change-type", "deactivation", "--out", str(tmp_path),
    ) == 0
    for name in ("matrix_deactivation.csv", "singular_values_deactivation.csv"):
        assert (tmp_path / name).read_bytes() == (pipeline / "matrix" / name).read_bytes()


def fully_parsed_features(pipeline, changes, **options):
    """The library path over every snapshot parsed in full, with the
    election calendar tallied from the earliest: what `features` must
    reproduce from diff's output."""
    synth = pipeline / "synth"
    schema = vrf_io.load_schema(str(synth / "schema.cfg"))
    paths = sorted((synth / "snapshots").glob("snapshot_*.csv"))
    snapshots = [vrf_io.parse_snapshot(str(p), schema) for p in paths]
    calendar = groupfeatures.ElectionCalendar(election_tally(snapshots[0].records.values()))
    return groupfeatures.compute_group_features(changes, snapshots, calendar, **options)


@pytest.mark.parametrize("change_type", [None, "deactivation"])
def test_features_match_fully_parsed_snapshots(pipeline, tmp_path, change_type):
    synth = pipeline / "synth"
    changes = vrf_io.csv_to_changes(str(pipeline / "diff" / "changes.csv"))
    change_types = (ChangeType(change_type),) if change_type else None
    want = fully_parsed_features(pipeline, changes, interval_days=7, change_types=change_types)
    groupfeatures.features_to_csv(want, str(tmp_path / "want.csv"))

    extra = ["--change-type", change_type] if change_type else []
    assert run(
        "features", "--changes", str(pipeline / "diff" / "changes.csv"),
        "--snapshots", str(synth / "snapshots"), "--schema", str(synth / "schema.cfg"),
        *extra, "--out", str(tmp_path / "cli"),
    ) == 0
    assert (tmp_path / "cli" / "group_features.csv").read_bytes() == (
        tmp_path / "want.csv"
    ).read_bytes()


def test_features_at_twice_the_snapshot_spacing_match_fully_parsed_snapshots(pipeline, tmp_path):
    """At --interval-days 14 over weekly snapshots a group spans two diffs,
    and each voter is resolved in the reference snapshot of their latest
    change in it, which diff's reference files hold."""
    synth = pipeline / "synth"
    changes = vrf_io.csv_to_changes(str(pipeline / "diff" / "changes.csv"))
    first = min(c.posterior_date for c in changes)
    references = collections.defaultdict(set)  # (locale, 14-day interval, type) -> dates
    for c in changes:
        key = (c.locale, (c.posterior_date - first).days // 14, c.change_type)
        references[key].add(c.reference_date)
    assert 2 in map(len, references.values())
    want = fully_parsed_features(pipeline, changes, interval_days=14)
    groupfeatures.features_to_csv(want, str(tmp_path / "want.csv"))
    assert run(
        "features", "--changes", str(pipeline / "diff" / "changes.csv"),
        "--snapshots", str(synth / "snapshots"), "--schema", str(synth / "schema.cfg"),
        "--interval-days", "14", "--out", str(tmp_path / "cli"),
    ) == 0
    assert (tmp_path / "cli" / "group_features.csv").read_bytes() == (
        tmp_path / "want.csv"
    ).read_bytes()


@pytest.mark.parametrize("edited", ["snapshot", "changes"])
@pytest.mark.parametrize("step", ["matrix", "features"])
def test_file_edited_after_diff_exits_3(pipeline, tmp_path, capsys, step, edited):
    """One byte of a snapshot or of changes.csv edited after `diff` no
    longer matches the digests in its manifest."""
    synth = pipeline / "synth"
    snapshots = tmp_path / "snapshots"
    snapshots.mkdir()
    for path in (synth / "snapshots").glob("snapshot_*.csv"):
        (snapshots / path.name).write_bytes(path.read_bytes())
    diff = tmp_path / "diff"
    schema = str(synth / "schema.cfg")
    assert run("diff", "--snapshots", str(snapshots), "--schema", schema, "--out", str(diff)) == 0
    argv = [
        step, "--changes", str(diff / "changes.csv"), "--snapshots", str(snapshots),
        "--schema", schema, "--change-type", "deactivation", "--out", str(tmp_path / step),
    ]
    assert run(*argv) == 0
    path = diff / "changes.csv" if edited == "changes" else sorted(snapshots.glob("*.csv"))[5]
    data = bytearray(path.read_bytes())
    data[-2] = ord("x") if data[-2] != ord("x") else ord("y")  # one byte of the last row
    path.write_bytes(bytes(data))
    capsys.readouterr()
    assert run(*argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "rerun diff over these snapshots" in err


@pytest.mark.parametrize("step", ["matrix", "features"])
def test_changes_without_diff_output_beside_exit_3(pipeline, tmp_path, capsys, step):
    changes = tmp_path / "changes.csv"
    changes.write_bytes((pipeline / "diff" / "changes.csv").read_bytes())
    synth = pipeline / "synth"
    assert run(
        step, "--changes", str(changes), "--snapshots", str(synth / "snapshots"),
        "--schema", str(synth / "schema.cfg"), "--change-type", "deactivation",
        "--out", str(tmp_path / step),
    ) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "no diff manifest beside --changes" in err


def step_argv(pipeline, step, diff, out):
    """`matrix` or `features` over the pipeline's snapshots and the changes in `diff`."""
    synth = pipeline / "synth"
    return [
        step, "--changes", str(diff / "changes.csv"), "--snapshots", str(synth / "snapshots"),
        "--schema", str(synth / "schema.cfg"), "--change-type", "deactivation", "--out", str(out),
    ]


@pytest.mark.parametrize("count", ["x", [1], 1e30, 10**29, 2.5, -1, True, 2**63, 2**53])
@pytest.mark.parametrize("cell", ["census", "turnout"])
@pytest.mark.parametrize("step", ["matrix", "features"])
def test_bad_count_in_diff_manifest_exits_3(pipeline, tmp_path, capsys, step, cell, count):
    """Each census count and election turnout must be an integer below
    2^53; that is checked before the census digest."""
    diff = tmp_path / "diff"
    shutil.copytree(pipeline / "diff", diff)
    manifest = json.loads((diff / "manifest.json").read_text())
    if cell == "census":
        census = next(iter(manifest["census"].values()))
        census[next(iter(census))] = count
    else:
        manifest["calendar"][0][3] = count
    (diff / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run(*step_argv(pipeline, step, diff, tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "counts must be integers from" in err


@pytest.mark.parametrize("edit", ["census", "turnout", "order"])
def test_census_or_calendar_edited_after_diff_exits_3(pipeline, tmp_path, capsys, edit):
    """A census count, a turnout or the election order edited to another
    valid value no longer matches the census digest diff recorded."""
    diff = tmp_path / "diff"
    shutil.copytree(pipeline / "diff", diff)
    manifest = json.loads((diff / "manifest.json").read_text())
    if edit == "census":
        census = next(iter(manifest["census"].values()))
        census[next(iter(census))] += 1
    elif edit == "turnout":
        manifest["calendar"][0][3] += 1
    else:
        manifest["calendar"].reverse()
    (diff / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run(*step_argv(pipeline, "matrix", diff, tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "census or calendar differs" in err


# JSON values to put in place of a census count or a calendar cell
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(), st.text(max_size=12),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)


def key_paths(value, path=()):
    """The path of every key in a JSON object, nested ones included."""
    if isinstance(value, dict):
        for key, inner in value.items():
            yield (*path, key)
            yield from key_paths(inner, (*path, key))


@given(data=st.data())
def test_edited_diff_manifest_exits_0_or_3(pipeline, data):
    """One census count or calendar cell replaced, or one key dropped, in
    the manifest `matrix` and `features` read: either step exits 0, or 3
    with one line, and 3 whenever the census or calendar changed."""
    original = json.loads((pipeline / "diff" / "manifest.json").read_text())
    manifest = json.loads(json.dumps(original))
    edit = data.draw(st.sampled_from(["census", "calendar", "drop"]))
    if edit == "census":
        census = manifest["census"][data.draw(st.sampled_from(sorted(manifest["census"])))]
        census[data.draw(st.sampled_from(sorted(census)))] = data.draw(JSON_VALUES)
    elif edit == "calendar":
        election = data.draw(st.sampled_from(manifest["calendar"]))
        election[data.draw(st.integers(0, 3))] = data.draw(JSON_VALUES)
    else:
        *parents, key = data.draw(st.sampled_from(list(key_paths(original))))
        holder = manifest
        for parent in parents:
            holder = holder[parent]
        del holder[key]
    step = data.draw(st.sampled_from(["matrix", "features"]))
    with tempfile.TemporaryDirectory() as tmp:
        diff = os.path.join(tmp, "diff")
        shutil.copytree(pipeline / "diff", diff)
        with open(os.path.join(diff, "manifest.json"), "w") as fh:
            json.dump(manifest, fh)
        err = stdio.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(*step_argv(pipeline, step, pathlib.Path(diff), os.path.join(tmp, "out")))
    assert code in (0, 3)
    if code == 3:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    covered = ("census", "calendar", "census_sha256")
    if any(json.dumps(manifest.get(key)) != json.dumps(original[key]) for key in covered):
        assert code == 3


def test_features_reads_only_the_reference_files_of_this_diff(pipeline, tmp_path):
    """A voters/ file left by an earlier diff into the same --out is not
    read: features reads one reference file per date of diff's census."""
    synth = pipeline / "synth"
    diff = tmp_path / "diff"
    (diff / "voters").mkdir(parents=True)
    (diff / "voters" / "snapshot_2000-01-01.csv").write_text("not a snapshot\n")
    snapshots = ["--snapshots", str(synth / "snapshots"), "--schema", str(synth / "schema.cfg")]
    assert run("diff", *snapshots, "--out", str(diff)) == 0
    assert run(
        "features", "--changes", str(diff / "changes.csv"), *snapshots,
        "--out", str(tmp_path / "features"),
    ) == 0


def test_diff_manifest_digests_every_file_diff_wrote(pipeline):
    """diff's `outputs` maps the path of changes.csv and of each voters/
    file, one per census date, to its sha256."""
    diff = pipeline / "diff"
    manifest = json.loads((diff / "manifest.json").read_text())
    files = [diff / "changes.csv", *sorted((diff / "voters").glob("*.csv"))]
    assert len(files) == len(manifest["census"]) + 1
    assert manifest["outputs"] == {
        path.relative_to(diff).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in files
    }


@settings(max_examples=30)  # each example hashes the 21 snapshots twice
@given(data=st.data())
def test_edited_voters_file_exits_3(pipeline, data):
    """One voters/ file truncated, with bytes inserted, with one cell
    replaced, or deleted after `diff`: `matrix` and `features` each exit 3
    with one line."""
    names = sorted(path.name for path in (pipeline / "diff" / "voters").glob("*.csv"))
    name = data.draw(st.sampled_from(names))
    text = (pipeline / "diff" / "voters" / name).read_bytes()
    edit = data.draw(st.sampled_from(["truncate", "insert", "cell", "delete"]))
    if edit == "truncate":
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    elif edit == "insert":
        at = data.draw(st.integers(0, len(text)))
        text = text[:at] + data.draw(st.binary(min_size=1, max_size=8)) + text[at:]
    elif edit == "cell":
        lines = text.decode().split("\n")
        number = data.draw(st.integers(0, len(lines) - 2))  # the last line is empty
        cells = lines[number].split(",")
        column = data.draw(st.integers(0, len(cells) - 1))
        cells[column] = data.draw(st.text(max_size=6).filter(lambda cell: cell != cells[column]))
        lines[number] = ",".join(cells)
        text = "\n".join(lines).encode()
    with tempfile.TemporaryDirectory() as tmp:
        diff = pathlib.Path(tmp) / "diff"
        shutil.copytree(pipeline / "diff", diff)
        if edit == "delete":
            (diff / "voters" / name).unlink()
        else:
            (diff / "voters" / name).write_bytes(text)
        for step in ("matrix", "features"):
            err = stdio.StringIO()
            with contextlib.redirect_stderr(err):
                code = run(*step_argv(pipeline, step, diff, pathlib.Path(tmp) / step))
            assert code == 3
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert "voters/ file is missing or differs" in err.getvalue()


def read_counts(outdir):
    with open(outdir / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)["counts"]


def test_stream_manifests_record_counts_that_rerun_repeats(pipeline, tmp_path):
    synth = pipeline / "synth"
    assert run(
        "features", "--changes", str(pipeline / "diff" / "changes.csv"),
        "--snapshots", str(synth / "snapshots"), "--schema", str(synth / "schema.cfg"),
        "--change-type", "deactivation", "--out", str(tmp_path / "features"),
    ) == 0
    schema = vrf_io.load_schema(str(synth / "schema.cfg"))
    rows = sum(
        sum(vrf_io.parse_snapshot(str(p), schema).locale_counts.values())
        for p in (synth / "snapshots").glob("snapshot_*.csv")
    )
    changes = vrf_io.csv_to_changes(str(pipeline / "diff" / "changes.csv"))
    diff_counts = read_counts(pipeline / "diff")
    assert 0 < diff_counts["rows_reused"] < rows
    assert diff_counts["changes"] == {
        ct.value: sum(c.change_type == ct for c in changes) for ct in ChangeType
    }
    assert read_counts(pipeline / "matrix")["cells"] == 12 * 20
    for out in (pipeline / "diff", pipeline / "matrix", tmp_path / "features"):
        counts = read_counts(out)
        assert (counts["snapshots"], counts["rows"], counts["row_issues"]) == (21, rows, {})
        replay = tmp_path / f"replay_{out.name}"
        assert run("rerun", "--manifest", str(out / "manifest.json"), "--out", str(replay)) == 0
        assert read_counts(replay) == counts


def test_diff_manifest_counts_row_issues_by_field(tmp_path):
    snapshots = tmp_path / "snapshots"
    snapshots.mkdir()
    header = "voter_id,locale,status\n"
    (snapshots / "snapshot_2019-01-03.csv").write_text(header + "A1,polk,active\nA2,,active\n")
    (snapshots / "snapshot_2019-01-10.csv").write_text(
        header + "A1,polk,active\nA3,polk,retired\n\nA2,,active\n"
    )
    assert run("diff", "--snapshots", str(snapshots), "--out", str(tmp_path / "diff")) == 0
    assert read_counts(tmp_path / "diff") == {
        "snapshots": 2, "rows": 2, "rows_reused": 1,
        "row_issues": {"locale": 2, "status": 1, "voter_id": 1},
        "changes": {ct.value: 0 for ct in ChangeType},
    }


def test_diff_reports_an_unchanged_malformed_row_in_each_file_at_its_line(tmp_path, caplog):
    snapshots = tmp_path / "snapshots"
    snapshots.mkdir()
    header, bad = "voter_id,locale,status\n", "A9,polk,retired\n"
    (snapshots / "snapshot_2019-01-03.csv").write_text(header + "A1,polk,active\n" + bad)
    # two lines inserted above the unchanged bad row
    (snapshots / "snapshot_2019-01-10.csv").write_text(
        header + "A2,story,active\nA3,story,active\nA1,polk,active\n" + bad
    )
    with caplog.at_level(logging.WARNING, logger="vrf_sentinel.vrf_io"):
        assert run("diff", "--snapshots", str(snapshots), "--out", str(tmp_path / "diff")) == 0
    first, second = (record.getMessage() for record in caplog.records)
    assert first.endswith("snapshot_2019-01-03.csv: dropped 1 malformed rows (status 1); "
                          "first at lines 3")
    assert second.endswith("snapshot_2019-01-10.csv: dropped 1 malformed rows (status 1); "
                           "first at lines 5")
    assert read_counts(tmp_path / "diff")["row_issues"] == {"status": 2}


def test_diff_memory_stays_flat_in_the_number_of_snapshots(pipeline, tmp_path):
    """diff's tracemalloc peak over 12 snapshots stays within 10% of its
    peak over 6. The files alternate between the first and the last
    snapshot of the walk, so each pair holds every change of the walk:
    a diff that kept each pair's changes to the end would grow with them."""
    import tracemalloc

    synth = pipeline / "synth"
    first, *_, last = sorted((synth / "snapshots").glob("snapshot_*.csv"))
    start = dt.date.fromisoformat(first.stem.removeprefix("snapshot_"))

    def peak(count):
        snapshots = tmp_path / f"snapshots_{count}"
        snapshots.mkdir()
        for k in range(count):
            name = f"snapshot_{start + dt.timedelta(weeks=k)}.csv"
            shutil.copy((first, last)[k % 2], snapshots / name)
        tracemalloc.start()
        try:
            assert run("diff", "--snapshots", str(snapshots), "--schema",
                       str(synth / "schema.cfg"), "--out", str(tmp_path / f"diff_{count}")) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    single, twice = peak(6), peak(12)
    assert twice <= 1.1 * single, (single, twice)


@pytest.fixture(scope="module")
def alternating_diffs(pipeline, tmp_path_factory):
    """count -> (snapshots, diff) for 6 and 12 weekly snapshot files that
    alternate between the walk's first and last snapshot, dated from the
    last one's date on, so that no voter registers after a file's date.
    Each pair holds every change of the walk: the 12 files' diff holds
    about twice the changes of the 6 files' diff."""
    root, synth = tmp_path_factory.mktemp("alternating"), pipeline / "synth"
    first, *_, last = sorted((synth / "snapshots").glob("snapshot_*.csv"))
    start = dt.date.fromisoformat(last.stem.removeprefix("snapshot_"))
    diffs = {}
    for count in (6, 12):
        snapshots = root / f"snapshots_{count}"
        snapshots.mkdir()
        for k in range(count):
            shutil.copy((first, last)[k % 2], snapshots / f"snapshot_{start + dt.timedelta(weeks=k)}.csv")
        diff = root / f"diff_{count}"
        assert run("diff", "--snapshots", str(snapshots), "--schema", str(synth / "schema.cfg"),
                   "--out", str(diff)) == 0
        diffs[count] = snapshots, diff
    return diffs


def traced_peak(*argv):
    """The tracemalloc peak, in bytes, of one CLI run that must exit 0."""
    import tracemalloc

    gc.collect()  # garbage of earlier runs is not this run's
    tracemalloc.start()
    try:
        assert run(*argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def alternating_step_peak(pipeline, alternating_diffs, tmp_path, step, count, *extra):
    snapshots, diff = alternating_diffs[count]
    return traced_peak(
        step, "--changes", str(diff / "changes.csv"), "--snapshots", str(snapshots),
        "--schema", str(pipeline / "synth" / "schema.cfg"), *extra,
        "--out", str(tmp_path / f"{step}_{count}"),
    )


def test_matrix_memory_stays_flat_in_the_number_of_snapshots(pipeline, alternating_diffs, tmp_path):
    """matrix's tracemalloc peak over the 12-file diff stays within 10% of
    its peak over the 6-file one: it keeps a count per cell and the dates
    it has seen, not the change list."""
    single, twice = (
        alternating_step_peak(pipeline, alternating_diffs, tmp_path, "matrix", count,
                              "--change-type", "deactivation")
        for count in (6, 12)
    )
    assert twice <= 1.1 * single, (single, twice)


# what features may hold per change read: its voter's (type, date) history
# entry, about 50 bytes, and for a change of the type asked for its (group,
# voter) dates and feature row of 36 floats (holding the change records, with
# their field deltas, and every reference file at once cost about 1,570)
FEATURES_BYTES_PER_CHANGE = 250


def test_features_memory_grows_at_most_250_bytes_per_change(
    pipeline, alternating_diffs, tmp_path,
):
    """features' tracemalloc peak over the 12-file diff exceeds its peak over
    the 6-file one by at most FEATURES_BYTES_PER_CHANGE for each change the
    12 files add."""
    changes = {
        count: len(list(vrf_io.csv_to_changes(str(diff / "changes.csv"))))
        for count, (_, diff) in alternating_diffs.items()
    }
    single, twice = (
        alternating_step_peak(pipeline, alternating_diffs, tmp_path, "features", count,
                              "--change-type", "deactivation")
        for count in (6, 12)
    )
    assert changes[12] > 1.9 * changes[6]
    assert twice - single <= FEATURES_BYTES_PER_CHANGE * (changes[12] - changes[6]), (
        single, twice, changes,
    )


def test_features_holds_one_reference_file_at_a_time(pipeline, tmp_path, monkeypatch):
    """Each time features reads one of diff's 21 reference files, no record
    map of an earlier one is alive: it computes the rows of the voters a
    file resolves, then drops the file."""
    parse = vrf_io.parse_snapshot
    alive, alive_at_read = [], []

    class Records(dict):
        """A record map a weak reference can follow."""

    def tracked(path, *args, **kwargs):
        gc.collect()
        alive_at_read.append(sum(ref() is not None for ref in alive))
        snapshot = parse(path, *args, **kwargs)
        records = Records(snapshot.records)
        alive.append(weakref.ref(records))
        return dataclasses.replace(snapshot, records=records)

    monkeypatch.setattr(vrf_io, "parse_snapshot", tracked)
    synth = pipeline / "synth"
    assert run(
        "features", "--changes", str(pipeline / "diff" / "changes.csv"),
        "--snapshots", str(synth / "snapshots"), "--schema", str(synth / "schema.cfg"),
        "--out", str(tmp_path),
    ) == 0
    assert alive_at_read == [0] * 21


def test_predictions_csv_quotes_locale_text(tmp_path):
    locales, start = ['Polk, "IA"', "Story\nCounty", "Ames"], dt.date(2019, 1, 3)
    vectors = [
        groupfeatures.GroupFeatureVector(
            key=groupfeatures.GroupKey(locales[i % 3], start, ChangeType.DEACTIVATION),
            n_voters=3,
            features=np.full(len(groupfeatures.FEATURE_NAMES), float(i % 2)),
            label=(EventLabel.OTHER, EventLabel.NCOA_MAILINGS)[i % 2],
        )
        for i in range(8)
    ]
    features = tmp_path / "group_features.csv"
    groupfeatures.features_to_csv(vectors, str(features))
    train, predict = tmp_path / "train", tmp_path / "predict"
    assert run("train", "--features", str(features), "--holdout", "0.25", "--out", str(train)) == 0
    assert run(
        "predict", "--model", str(train / "model.json"), "--scaler", str(train / "scaler.json"),
        "--features", str(features), "--out", str(predict),
    ) == 0
    with open(predict / "predictions.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert len(header) == 3 + 2 + 2
    assert [row[0] for row in rows] == [v.key.locale for v in vectors]
    assert all(len(row) == len(header) for row in rows)


def test_diff_and_matrix_artifacts(pipeline):
    assert (pipeline / "diff" / "changes.csv").exists()
    matrix_csv = pipeline / "matrix" / "matrix_deactivation.csv"
    assert matrix_csv.exists()
    import vrf_sentinel.modmatrix as mm

    matrix = mm.csv_to_matrix(str(matrix_csv))
    assert matrix.shape == (12, 20)
    spectrum = (pipeline / "matrix" / "singular_values_deactivation.csv").read_text()
    values = [float(line.split(",")[1]) for line in spectrum.splitlines()[1:]]
    assert values == sorted(values, reverse=True)
    assert len(values) == 12


def test_detect_records_params(pipeline):
    out = pipeline / "detect_nmf"
    assert run(
        "detect", "--matrix", str(pipeline / "matrix" / "matrix_deactivation.csv"),
        "--method", "nmf", "--k", "5", "--out", str(out),
    ) == 0
    header = json.loads((out / "scores_nmf.csv").read_text().splitlines()[0])
    assert header["params"]["k"] == 5
    assert (out / "ranked_nmf.csv").exists()
    assert (out / "scores_nmf.svg").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["converged"] is True
    assert manifest["iterations"] == header["params"]["iterations"] > 0
    assert "residual" not in manifest

    out = pipeline / "detect_rpca"
    assert run(
        "detect", "--matrix", str(pipeline / "matrix" / "matrix_deactivation.csv"),
        "--method", "rpca", "--out", str(out),
    ) == 0
    params = json.loads((out / "scores_rpca.csv").read_text().splitlines()[0])["params"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["converged"] is True
    assert manifest["iterations"] == params["iterations"] > 0
    assert manifest["residual"] == params["residual"] <= params["tol"]


@pytest.mark.parametrize("lam", ["nan", "inf", "-1"])
def test_detect_rejects_a_lambda_not_positive_and_finite(pipeline, tmp_path, capsys, lam):
    assert run(
        "detect", "--matrix", str(pipeline / "matrix" / "matrix_deactivation.csv"),
        "--method", "rpca", "--lambda", lam, "--out", str(tmp_path),
    ) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: lambda must be positive and finite")
    assert err.count("\n") == 1
    assert not (tmp_path / "scores_rpca.csv").exists()


@pytest.mark.parametrize("argv", [
    ["synth", "--preset", "pair"],
    ["evaluate", "--matrix", "{matrix}", "--methods", "global_std"],
    ["train", "--features", "{features}"],
], ids=["synth", "evaluate", "train"])
def test_negative_seed_exits_3(pipeline, tmp_path, capsys, argv):
    paths = {
        "matrix": str(pipeline / "matrix" / "matrix_deactivation.csv"),
        "features": str(tmp_path / "missing.csv"),
    }
    out = tmp_path / "out"
    assert run(*(token.format(**paths) for token in argv), "--seed", "-1", "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err == "error: --seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("threshold", ["nan", "inf", "5", "-0.1"])
def test_predict_rejects_a_threshold_outside_0_1(tmp_path, capsys, threshold):
    missing = str(tmp_path / "missing.json")
    assert run(
        "predict", "--model", missing, "--scaler", missing, "--features", missing,
        "--threshold", threshold, "--out", str(tmp_path),
    ) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: --threshold must lie in [0, 1]")
    assert err.count("\n") == 1
    assert not (tmp_path / "predictions.csv").exists()


def test_detect_and_heatmap_manifests_record_output_sizes(pipeline, tmp_path):
    det = tmp_path / "det"
    assert run(
        "detect", "--matrix", str(pipeline / "matrix" / "matrix_deactivation.csv"),
        "--method", "global_std", "--out", str(det),
    ) == 0
    written = {p.name: p.stat().st_size for p in det.iterdir() if p.name != "manifest.json"}
    assert len(written) == 3
    assert json.loads((det / "manifest.json").read_text())["output_bytes"] == written

    svg = tmp_path / "heat.svg"
    assert run("heatmap", "--scores", str(det / "scores_global_std.csv"), "--out", str(svg)) == 0
    manifest = json.loads((tmp_path / "heat.svg.manifest.json").read_text())
    assert manifest["output_bytes"] == {"heat.svg": svg.stat().st_size}


def test_detect_manifest_records_wall_time_and_peak_rss(pipeline, tmp_path):
    """Timings go into the manifests of the run and of its rerun, and the
    data files of both stay byte-identical."""
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert run(
        "detect", "--matrix", str(pipeline / "matrix" / "matrix_deactivation.csv"),
        "--method", "cl_iqr", "--out", str(first),
    ) == 0
    assert run("rerun", "--manifest", str(first / "manifest.json"), "--out", str(replay)) == 0
    for out in (first, replay):
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["wall_s"] > 0 and manifest["peak_rss_mib"] > 0
        stages = manifest["stages"]
        assert [s["stage"] for s in stages] == [
            "read", "score", "rank", "write_scores", "write_ranked", "heatmap",
        ]
        assert all(set(s) == {"stage", "wall_s", "peak_rss_mib"} and s["wall_s"] >= 0
                   for s in stages)
        peaks = [s["peak_rss_mib"] for s in stages]
        assert 0 < peaks[0] and peaks == sorted(peaks) and peaks[-1] <= manifest["peak_rss_mib"]
    names = sorted(p.name for p in first.iterdir() if p.name != "manifest.json")
    assert len(names) == 3
    for name in names:
        assert (replay / name).read_bytes() == (first / name).read_bytes()


def test_rpca_matches_the_expression_loop_on_the_small_preset(pipeline):
    values = modmatrix.csv_to_matrix(str(pipeline / "matrix" / "matrix_deactivation.csv")).values
    got = detectors.rpca.rpca_decompose(values)
    low, sparse, converged, iterations, residual = oracles.loop_rpca_decompose(values)
    assert got.low_rank.view(np.int64).tolist() == low.view(np.int64).tolist()
    assert got.sparse.view(np.int64).tolist() == sparse.view(np.int64).tolist()
    assert (got.iterations, got.residual, got.converged) == (iterations, residual, converged)


def test_detect_window_method_naming(pipeline):
    out = pipeline / "detect_cl"
    assert run(
        "detect", "--matrix", str(pipeline / "matrix" / "matrix_deactivation.csv"),
        "--method", "cl_std", "--window", "2", "--out", str(out),
    ) == 0
    assert (out / "scores_cl_std_5.csv").exists()


def test_detect_finds_planted_anomaly(pipeline):
    out = pipeline / "detect_rank"
    assert run(
        "detect", "--matrix", str(pipeline / "matrix" / "matrix_deactivation.csv"),
        "--method", "cl_std", "--window", "1", "--out", str(out),
    ) == 0
    top = (out / "ranked_cl_std_3.csv").read_text().splitlines()[1].split(",")
    truth = json.loads((pipeline / "synth" / "groundtruth.json").read_text())
    planted = [c for c in truth["cell_causes"] if c[3] == "anomaly"]
    assert [top[1], top[2]] in [[loc, _interval_start(truth, idx)] for loc, idx, _, _ in planted]


@pytest.mark.parametrize("method", [
    "cl_std_x", "cl_a_b_c", "cl_std_05", "cl_std_4", "temporal_foo", "nmf_3",
])
@pytest.mark.parametrize("option", ["detect --method", "evaluate --methods"])
def test_malformed_method_id_exits_3(pipeline, tmp_path, capsys, option, method):
    out = tmp_path / "out"
    assert run(
        *option.split(), method,
        "--matrix", str(pipeline / "matrix" / "matrix_deactivation.csv"), "--out", str(out),
    ) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not any(out.iterdir())


def test_evaluate_checks_every_method_id_before_the_first_sweep(pipeline, tmp_path, monkeypatch):
    def detector(*args, **kwargs):
        raise AssertionError("a detector ran before every id was checked")

    monkeypatch.setattr(detectors, "rpca_scores", detector)
    monkeypatch.setattr(detectors, "nmf_residual_scores", detector)
    out = tmp_path / "out"
    assert run(
        "evaluate", "--methods", "rpca,nmf,cl_std_x",
        "--matrix", str(pipeline / "matrix" / "matrix_deactivation.csv"), "--out", str(out),
    ) == 3
    assert not any(out.iterdir())


def _interval_start(truth, index):
    import datetime as dt

    start = dt.date.fromisoformat(truth["start_date"])
    return (start + dt.timedelta(days=(index + 1) * truth["interval_days"])).isoformat()


def test_evaluate_with_subset_of_methods(pipeline):
    out = pipeline / "evaluate"
    assert run(
        "evaluate", "--matrix", str(pipeline / "matrix" / "matrix_deactivation.csv"),
        "--methods", "global_std,cl_std_3", "--grid-points", "4", "--top-k", "5",
        "--seed", "1", "--out", str(out),
    ) == 0
    assert (out / "sweep_deactivation.csv").exists()
    assert (out / "auc_summary.csv").exists()
    assert (out / "sweep_deactivation.svg").exists()


def test_evaluate_reports_unconverged_sweep_points_once(pipeline, tmp_path, monkeypatch, caplog):
    import vrf_sentinel.detectors.nmf as nmf

    factorizations, real = [], nmf.nmf_factorize

    def counted(*args, **kwargs):
        factorizations.append(real(*args, **kwargs))
        return factorizations[-1]

    monkeypatch.setattr(nmf, "nmf_factorize", counted)
    assert run(
        "evaluate", "--matrix", str(pipeline / "matrix" / "matrix_deactivation.csv"),
        "--methods", "nmf,global_std", "--out", str(tmp_path),
    ) == 0
    unconverged = sum(not result.converged for result in factorizations)
    assert len(factorizations) == 21 and unconverged > 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["unconverged"] == {"nmf": unconverged, "global_std": 0}
    iterations = sum(len(result.objective) - 1 for result in factorizations)
    assert manifest["iterations"] == {"nmf": iterations, "global_std": 0}
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert warnings == [f"detector nmf did not converge at {unconverged} of 21 sweep points"]


def _cli_env():
    """The environment for a CLI subprocess that imports this checkout."""
    src = os.path.dirname(os.path.dirname(vrf_sentinel.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_evaluate_on_a_worker_per_core_matches_one_process(pipeline, tmp_path):
    """Run as a command, evaluate pins one BLAS thread and runs a worker
    per core; in a process that already loaded numpy it runs the same
    points itself. Both write the same bytes."""
    argv = [
        "evaluate", "--matrix", str(pipeline / "matrix" / "matrix_deactivation.csv"),
        "--grid-points", "6", "--top-k", "5", "--seed", "2",
    ]
    pooled, serial = tmp_path / "pooled", tmp_path / "serial"
    done = subprocess.run(
        [sys.executable, "-m", "vrf_sentinel.cli", *argv, "--out", str(pooled)],
        capture_output=True, text=True, env=_cli_env(), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert run(*argv, "--out", str(serial)) == 0
    manifests = [json.loads((out / "manifest.json").read_text()) for out in (pooled, serial)]
    assert [m["workers"] for m in manifests] == [len(os.sched_getaffinity(0)), 1]
    assert [m["blas_pin"] for m in manifests] == [cli.BLAS_PIN, None]
    names = sorted(p.name for p in serial.iterdir() if p.name != "manifest.json")
    assert names == sorted(p.name for p in pooled.iterdir() if p.name != "manifest.json")
    assert len(names) == 3
    for name in names:
        assert (pooled / name).read_bytes() == (serial / name).read_bytes(), name


def test_detector_error_in_a_sweep_worker_exits_3(pipeline, tmp_path, monkeypatch, capfd):
    import multiprocessing

    def failing(*args, **kwargs):
        raise VrfError("rpca failed in a worker")

    monkeypatch.setattr(detectors, "rpca_scores", failing)
    monkeypatch.setattr(cli, "_sweep_workers", lambda: (2, None))
    capfd.readouterr()
    assert run(
        "evaluate", "--matrix", str(pipeline / "matrix" / "matrix_deactivation.csv"),
        "--methods", "global_std,rpca", "--grid-points", "3", "--out", str(tmp_path),
    ) == 3
    err = capfd.readouterr().err
    assert err == "error: rpca failed in a worker\n"
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "sweep_deactivation.csv").exists()


def test_heatmap_highlight(pipeline, tmp_path):
    svg = tmp_path / "heat.svg"
    assert run(
        "heatmap", "--matrix", str(pipeline / "matrix" / "matrix_deactivation.csv"),
        "--highlight", "0,0;2,3", "--out", str(svg),
    ) == 0
    text = svg.read_text()
    assert text.count('class="highlight"') == 2
    assert "min=" in text


def test_heatmap_manifest_leaves_the_directory_manifest_alone(pipeline, tmp_path):
    det = tmp_path / "det"
    assert run(
        "detect", "--matrix", str(pipeline / "matrix" / "matrix_deactivation.csv"),
        "--method", "global_std", "--out", str(det),
    ) == 0
    svg = det / "again.svg"
    assert run("heatmap", "--scores", str(det / "scores_global_std.csv"), "--out", str(svg)) == 0
    assert json.loads((det / "manifest.json").read_text())["command"] == "detect"

    replay = tmp_path / "replay"
    assert run("rerun", "--manifest", str(det / "manifest.json"), "--out", str(replay)) == 0
    for name in ("scores_global_std.csv", "ranked_global_std.csv", "scores_global_std.svg"):
        assert (replay / name).read_bytes() == (det / name).read_bytes()
    assert not (replay / "again.svg").exists()
    assert run(
        "rerun", "--manifest", str(det / "again.svg.manifest.json"),
        "--out", str(replay / "again.svg"),
    ) == 0
    assert (replay / "again.svg").read_bytes() == svg.read_bytes()
    assert json.loads((replay / "again.svg.manifest.json").read_text())["command"] == "heatmap"


# runs the CLI as `python -m vrf_sentinel.cli` does, then reports its exit
# code and whether numpy was imported along the way
_RUN_AS_MAIN = """
import runpy, sys
sys.argv = ["vrf-sentinel", *sys.argv[1:]]
try:
    runpy.run_module("vrf_sentinel.cli", run_name="__main__")
except SystemExit as exc:
    print(exc.code, "numpy" in sys.modules)
"""


def test_diff_ingest_and_help_load_no_numpy(tmp_path):
    header = "voter_id,locale,status\n"
    snapshots = tmp_path / "snapshots"
    snapshots.mkdir()
    anterior = snapshots / "snapshot_2019-01-03.csv"
    posterior = snapshots / "snapshot_2019-01-10.csv"
    anterior.write_text(header + "A1,polk,active\nA2,polk,active\n")
    posterior.write_text(header + "A1,polk,inactive\nA3,story,active\n")
    env = _cli_env()
    for argv in (
        ["--help"],
        ["diff", "--snapshots", str(snapshots), "--out", str(tmp_path / "diff")],
        ["ingest", "--snapshot", str(anterior), "--out", str(tmp_path / "ingest")],
    ):
        done = subprocess.run(
            [sys.executable, "-c", _RUN_AS_MAIN, *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.stdout.splitlines()[-1] == "0 False", (argv, done.stdout, done.stderr)
    assert (tmp_path / "diff" / "changes.csv").read_text().count("\n") == 4
    assert json.loads((tmp_path / "ingest" / "ingest_summary.json").read_text())["records"] == 2


def test_heatmap_needs_exactly_one_source(pipeline, tmp_path):
    matrix_csv = str(pipeline / "matrix" / "matrix_deactivation.csv")
    for sources in ([], ["--matrix", matrix_csv, "--scores", matrix_csv]):
        with pytest.raises(SystemExit) as exc:
            run("heatmap", *sources, "--out", str(tmp_path / "heat.svg"))
        assert exc.value.code == 2


def test_heatmap_malformed_highlight_exits_2(pipeline, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(
            "heatmap", "--matrix", str(pipeline / "matrix" / "matrix_deactivation.csv"),
            "--highlight", "1;2", "--out", str(tmp_path / "heat.svg"),
        )
    assert exc.value.code == 2
    assert "argument --highlight" in capsys.readouterr().err


def test_heatmap_highlight_outside_grid_exits_3(pipeline, tmp_path, capsys):
    svg = tmp_path / "heat.svg"
    assert run(
        "heatmap", "--matrix", str(pipeline / "matrix" / "matrix_deactivation.csv"),
        "--highlight", "500,2", "--out", str(svg),
    ) == 3
    assert "outside the 12x20 grid" in capsys.readouterr().err
    assert not svg.exists()


def test_heatmap_cell_count(tmp_path):
    import datetime as dt

    import numpy as np

    import vrf_sentinel.modmatrix as mm
    from vrf_sentinel.records import ChangeType

    matrix = mm.ModificationMatrix(
        change_type=ChangeType.ADDRESS,
        locales=("a", "b"),
        intervals=mm.build_intervals(dt.date(2019, 1, 3), dt.date(2019, 1, 10), 7),
        values=np.array([[1.0, 2.0], [3.0, 4.0]]),
        raw_counts=np.zeros((2, 2), dtype=np.int64),
        populations=np.ones((2, 2), dtype=np.int64),
    )
    path = tmp_path / "m.csv"
    mm.matrix_to_csv(matrix, str(path))
    svg = tmp_path / "m.svg"
    assert run("heatmap", "--matrix", str(path), "--out", str(svg)) == 0
    body = svg.read_text()
    # 4 data cells + legend swatches; data cells are CELL x CELL
    assert body.count('width="6" height="6"') == 4


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli._build_parser().parse_args(["synth", "--bogus"])
    assert exc.value.code == 2


def test_missing_file_exits_3(tmp_path):
    assert run("detect", "--matrix", str(tmp_path / "nope.csv"), "--out", str(tmp_path)) == 3


def test_unknown_change_type_exits_3(pipeline, tmp_path):
    code = run(
        "matrix", "--changes", str(pipeline / "diff" / "changes.csv"),
        "--snapshots", str(pipeline / "synth" / "snapshots"),
        "--change-type", "upgrade", "--out", str(tmp_path),
    )
    assert code == 3


LABEL_HEADER = "locale,interval_start,change_type,label\n"


def test_labels_skip_blank_lines(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(LABEL_HEADER + "L1,2019-01-03,deactivation,other\n\n")
    assert cli._read_labels(str(path)) == {
        ("L1", dt.date(2019, 1, 3), ChangeType.DEACTIVATION): EventLabel.OTHER
    }


@pytest.mark.parametrize("row", [
    "L1,2019-01-03,deactivation\n",
    "L1,2019-01-03,deactivation,psychic\n",
    "L1,2019-01-03,deactivation,other\nL1,2019-01-03,deactivation,ncoa_mailings\n",
])
def test_bad_label_rows_exit_3(pipeline, tmp_path, monkeypatch, row):
    path = tmp_path / "labels.csv"
    path.write_text(LABEL_HEADER + row)
    with pytest.raises(FileParseError):
        cli._read_labels(str(path))

    def parsed_before_labels(*args, **kwargs):
        raise AssertionError("features parsed its inputs before checking the labels")

    monkeypatch.setattr(cli.vrf_io, "csv_to_changes", parsed_before_labels)
    monkeypatch.setattr(cli.vrf_io, "parse_snapshot", parsed_before_labels)
    assert run(
        "features", "--changes", str(pipeline / "diff" / "changes.csv"),
        "--snapshots", str(pipeline / "synth" / "snapshots"),
        "--schema", str(pipeline / "synth" / "schema.cfg"),
        "--labels", str(path), "--out", str(tmp_path / "features"),
    ) == 3


def test_rerun_reproduces_byte_identical(pipeline, tmp_path):
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert run(
        "detect", "--matrix", str(pipeline / "matrix" / "matrix_deactivation.csv"),
        "--method", "nmf", "--k", "5", "--out", str(first),
    ) == 0
    assert run("rerun", "--manifest", str(first / "manifest.json"), "--out", str(replay)) == 0
    for name in ("scores_nmf.csv", "ranked_nmf.csv", "scores_nmf.svg"):
        assert (replay / name).read_bytes() == (first / name).read_bytes()


@pytest.mark.parametrize("top_k", ["0", "-3"])
def test_evaluate_top_k_below_one_exits_3(pipeline, tmp_path, capsys, top_k):
    assert run(
        "evaluate", "--matrix", str(pipeline / "matrix" / "matrix_deactivation.csv"),
        "--methods", "global_std", "--grid-points", "2", "--top-k", top_k,
        "--out", str(tmp_path),
    ) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "at least 1" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "sweep_deactivation.csv").exists()


# JSON nested past the interpreter's recursion limit
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000 + b"\n"


@pytest.mark.parametrize(
    "content",
    [
        "not json",
        json.dumps({"command": "detect"}),
        json.dumps({"argv": 5}),
        json.dumps({"argv": ["rerun", "--manifest", "SELF"]}),
        DEEP_JSON.decode(),
        # an option the CLI has since dropped
        json.dumps({"argv": ["detect", "--matrix", "m.csv", "--seed", "0", "--out", "o"]}),
        json.dumps({"argv": ["heatmap", "--help"]}),
        # a token no command line can hold
        json.dumps({"argv": ["heatmap", "--matrix", "m\0.csv", "--out", "o.svg"]}),
    ],
    ids=["not-json", "no-argv", "argv-not-strings", "stored-rerun", "deep", "dropped-option",
         "help", "nul"],
)
def test_rerun_bad_manifest_exits_3(tmp_path, capsys, content):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(content.replace("SELF", str(manifest)))
    assert run("rerun", "--manifest", str(manifest)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("spelling", ["--out x", "--out=x"])
def test_rerun_redirects_either_out_spelling(pipeline, tmp_path, spelling):
    first, replay = tmp_path / "eqout", tmp_path / "eqout2"
    out = ["--out", str(first)] if spelling == "--out x" else [f"--out={first}"]
    assert run(
        "detect", "--matrix", str(pipeline / "matrix" / "matrix_deactivation.csv"),
        "--method", "global_std", *out,
    ) == 0
    original = json.loads((first / "manifest.json").read_text())
    assert run("rerun", "--manifest", str(first / "manifest.json"), "--out", str(replay)) == 0
    assert json.loads((first / "manifest.json").read_text()) == original
    names = sorted(p.name for p in first.iterdir() if p.name != "manifest.json")
    assert names == sorted(p.name for p in replay.iterdir() if p.name != "manifest.json")
    for name in names:
        assert (replay / name).read_bytes() == (first / name).read_bytes()


@pytest.fixture(scope="module")
def heatmap_argv(pipeline, tmp_path_factory):
    """The argv of a real heatmap manifest, over the small preset's matrix."""
    svg = tmp_path_factory.mktemp("heatmap") / "first.svg"
    assert run("heatmap", "--matrix", str(pipeline / "matrix" / "matrix_deactivation.csv"),
               "--out", str(svg)) == 0
    return json.loads(pathlib.Path(f"{svg}.manifest.json").read_text())["argv"]


@settings(max_examples=800)  # about 9 s on a 2-core machine
@given(data=st.data())
def test_rerun_of_an_edited_argv_exits_0_or_3(heatmap_argv, data):
    """A heatmap manifest whose argv lost, repeated or swapped a token, or
    gained an option: `rerun` exits 0, or 3 with one `error:` line, and
    never prints argparse's usage or help."""
    argv = list(heatmap_argv)
    i = data.draw(st.integers(0, len(argv) - 1))
    edit = data.draw(st.sampled_from(["drop", "duplicate", "replace", "append"]))
    if edit == "drop":
        del argv[i]
    elif edit == "duplicate":
        argv.insert(i, argv[i])
    elif edit == "replace":
        argv[i] = data.draw(st.one_of(
            st.sampled_from([*heatmap_argv, "--scores", "--highlight", "0,0", "-h", "--version"]),
            st.text(st.characters(exclude_categories=()), max_size=8),  # NUL and surrogates too
        ))
    else:  # an option no subcommand has, or a prefix of one that does
        argv.append(data.draw(st.from_regex(r"--[a-z][a-z-]{0,11}", fullmatch=True)))
    with tempfile.TemporaryDirectory() as tmp:
        manifest = os.path.join(tmp, "manifest.json")
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump({"argv": argv}, fh)
        out, err = stdio.StringIO(), stdio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run("rerun", "--manifest", manifest, "--out", os.path.join(tmp, "replay.svg"))
    assert code in (0, 3)
    assert out.getvalue() == ""
    if code == 3:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def other_scaler(**changes):
    """A scaler file fitted on another feature set: `changes` replace JSON fields."""
    width = len(groupfeatures.FEATURE_NAMES)
    ones, zeros = np.ones(width), np.zeros(width)
    fitted = json.loads(groupfeatures.FeatureScaler(zeros, ones, zeros).to_json())
    return json.dumps({**fitted, **changes}).encode()


# case -> (command, file it reads, corruption): a JSON key to drop, bytes
# that replace the file, or (line, comma-separated cell, replacement text)
MALFORMED = {
    "scores-corner": ("heatmap", "scores.csv", (1, 0, "bad")),
    "scores-params": ("heatmap", "scores.csv", (0, 0, "not json")),
    "scores-date": ("heatmap", "scores.csv", (1, 1, "notadate")),
    "matrix-date": ("detect", "matrix.csv", (0, 1, "notadate")),
    "features-cell": ("train", "features.csv", (1, 4, "abc")),
    "features-not-utf8": ("train", "features.csv", b"\xff\xfe not utf-8\n"),
    "features-header-only": (
        "predict", "features.csv", (",".join(groupfeatures.FEATURE_CSV_COLUMNS) + "\n").encode()
    ),
    "matrix-population-inf": ("detect", "matrix.csv", (-2, 1, "inf")),
    "model-config": ("predict", "model.json", "config"),
    "scaler-means": ("predict", "scaler.json", "means"),
    "scores-params-deep": ("heatmap", "scores.csv", DEEP_JSON),
    "model-deep": ("predict", "model.json", DEEP_JSON),
    "scaler-deep": ("predict", "scaler.json", DEEP_JSON),
    "scaler-reordered": (
        "predict", "scaler.json", other_scaler(feature_names=groupfeatures.FEATURE_NAMES[::-1])
    ),
    "scaler-version": ("predict", "scaler.json", other_scaler(version="gfv0")),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_artifact_exits_3(pipeline, tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    matrix = (pipeline / "matrix" / "matrix_deactivation.csv").read_bytes()
    (tmp_path / "matrix.csv").write_bytes(matrix)
    assert run("detect", "--matrix", "matrix.csv", "--method", "global_std", "--out", ".") == 0
    os.rename("scores_global_std.csv", "scores.csv")
    width = len(groupfeatures.FEATURE_NAMES)
    key = groupfeatures.GroupKey("L1", dt.date(2019, 1, 3), ChangeType.DEACTIVATION)
    groupfeatures.features_to_csv(
        [groupfeatures.GroupFeatureVector(key, 3, np.zeros(width))], "features.csv"
    )
    gbt.save_model(gbt.GbtModel(gbt.GbtConfig(), ("a", "b"), width), "model.json")
    scaler = groupfeatures.FeatureScaler(np.zeros(width), np.ones(width), np.zeros(width))
    (tmp_path / "scaler.json").write_text(scaler.to_json(), encoding="utf-8")
    capsys.readouterr()

    command, name, corruption = MALFORMED[case]
    path = tmp_path / name
    if isinstance(corruption, bytes):
        path.write_bytes(corruption)
    elif isinstance(corruption, str):
        payload = json.loads(path.read_text(encoding="utf-8"))
        del payload[corruption]
        path.write_text(json.dumps(payload), encoding="utf-8")
    else:
        line, cell, replacement = corruption
        lines = path.read_text(encoding="utf-8").split("\n")
        cells = lines[line].split(",")
        cells[cell] = replacement
        lines[line] = ",".join(cells)
        path.write_text("\n".join(lines), encoding="utf-8")
    argv = {
        "heatmap": ["--scores", "scores.csv", "--out", "heat.svg"],
        "detect": ["--matrix", "matrix.csv", "--out", "out"],
        "train": ["--features", "features.csv", "--out", "out"],
        "predict": [
            "--model", "model.json", "--scaler", "scaler.json",
            "--features", "features.csv", "--out", "out",
        ],
    }[command]
    assert run(command, *argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A group_features.csv of 16 labeled groups and 2 unlabeled ones, some
    without a birth date, and the model.json and scaler.json `train` fits
    on it."""
    root = tmp_path_factory.mktemp("trained")
    rng = np.random.default_rng(0)
    names = groupfeatures.FEATURE_NAMES
    vectors = []
    for i in range(18):
        features = rng.normal(size=len(names)) + i % 2
        if i % 5 == 0:
            features[names.index("years_old")] = math.nan
        vectors.append(groupfeatures.GroupFeatureVector(
            groupfeatures.GroupKey(f"L{i:02d}", dt.date(2019, 1, 3), ChangeType.DEACTIVATION),
            3, features, (EventLabel.OTHER, EventLabel.NCOA_MAILINGS)[i % 2] if i < 16 else None,
        ))
    groupfeatures.features_to_csv(vectors, str(root / "group_features.csv"))
    assert run(
        "train", "--features", str(root / "group_features.csv"), "--n-estimators", "5",
        "--out", str(root),
    ) == 0
    return root


def predict_argv(model, scaler, features, out):
    return [
        "predict", "--model", str(model), "--scaler", str(scaler), "--features", str(features),
        "--out", str(out),
    ]


@pytest.mark.parametrize("edit, message", [
    ({"means": "nan"}, "scaler means, stds and medians must be finite"),
    ({"stds": "-1.0"}, "scaler stds must be >= 0"),
    ({"means": "1e308", "stds": "0.5"}, "feature years_old overflows when standardized"),
])
def test_scaler_predict_cannot_apply_exits_3(trained, tmp_path, capsys, edit, message):
    """A scaler with a NaN mean, a negative std, or a mean so far from the
    features that standardizing overflows: `predict` exits 3 with one
    line, where it once exited 0 with a constant class, a silently zeroed
    feature or a numpy warning."""
    scaler = json.loads((trained / "scaler.json").read_text())
    column = groupfeatures.FEATURE_NAMES.index("years_old")
    for key, value in edit.items():
        scaler[key][column] = value
    path = tmp_path / "scaler.json"
    path.write_text(json.dumps(scaler))
    capsys.readouterr()
    argv = predict_argv(trained / "model.json", path, trained / "group_features.csv", tmp_path)
    assert run(*argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"{message}\n") and err.count("\n") == 1


def json_paths(value, path=()):
    """The path of every value inside a JSON document, in dicts and lists."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(
        value, list) else ()
    for key, inner in items:
        yield (*path, key)
        yield from json_paths(inner, (*path, key))


# numbers a hand edit or another program may leave in a model or scaler
EDGE_NUMBERS = st.one_of(
    st.floats(),
    st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, -0.0, 2**63, 2**1100]),
    st.integers(-(2**70), 2**70),
)


@settings(max_examples=300)  # about 4 s on a 2-core machine
@given(data=st.data())
def test_train_and_predict_of_edited_inputs_exit_0_or_3(trained, data):
    """One edit to group_features.csv (a cell set to a number or text, or a
    row dropped or repeated), to model.json or to scaler.json (a value
    anywhere replaced or dropped): `train` on such features and `predict`
    each exit 0 with nothing on stderr, or 3 with one `error:` line, and
    never raise."""
    target = data.draw(st.sampled_from(["features", "model", "scaler"]))
    files = {name: trained / name for name in ("group_features.csv", "model.json", "scaler.json")}
    with tempfile.TemporaryDirectory() as tmp:
        if target == "features":
            with open(files["group_features.csv"], newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            at = data.draw(st.integers(1, len(rows) - 1))
            edit = data.draw(st.sampled_from(["cell", "drop", "repeat"]))
            if edit == "cell":
                rows[at][data.draw(st.integers(0, len(rows[at]) - 1))] = data.draw(st.one_of(
                    EDGE_NUMBERS.map(repr), CELL_TEXT,
                    st.sampled_from([label.value for label in EventLabel]),
                ))
            else:
                rows[at:at + 1] = [] if edit == "drop" else [rows[at]] * 2
            files["group_features.csv"] = pathlib.Path(tmp, "group_features.csv")
            with open(files["group_features.csv"], "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh, lineterminator="\n").writerows(rows)
        else:
            name = f"{target}.json"
            document = json.loads(files[name].read_text())
            *parents, key = data.draw(st.sampled_from(list(json_paths(document))))
            holder = document
            for parent in parents:
                holder = holder[parent]
            if data.draw(st.booleans()):
                del holder[key]
            else:  # mostly a value of the same kind: a scaler writes its numbers as text
                alike = {int: EDGE_NUMBERS, float: EDGE_NUMBERS, str: EDGE_NUMBERS.map(repr)}
                holder[key] = data.draw(st.one_of(
                    alike.get(type(holder[key]), JSON_VALUES), JSON_VALUES, st.just(holder[key])
                ))
            files[name] = pathlib.Path(tmp, name)
            files[name].write_text(json.dumps(document))
        steps = [predict_argv(
            files["model.json"], files["scaler.json"], files["group_features.csv"], f"{tmp}/p"
        )]
        if target == "features":
            steps.append(["train", "--features", str(files["group_features.csv"]),
                          "--n-estimators", "5", "--out", f"{tmp}/t"])
        for argv in steps:
            err = stdio.StringIO()
            with contextlib.redirect_stderr(err):
                code = run(*argv)
            assert code in (0, 3)
            if code == 0:
                assert err.getvalue() == ""
            else:
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@pytest.fixture(scope="module")
def other_run(pipeline, tmp_path_factory):
    """The files of another run, by name: the pipeline's changes, snapshots
    and schema, a detect run's score and ranked CSVs, a features run's group
    features, and a model and scaler as `train` writes them."""
    root, synth = tmp_path_factory.mktemp("other"), pipeline / "synth"
    files = {
        "changes": pipeline / "diff" / "changes.csv",
        "snapshots": synth / "snapshots",
        "schema": synth / "schema.cfg",
        "scores": root / "scores_global_std.csv",
        "ranked": root / "ranked_global_std.csv",
        "features": root / "group_features.csv",
        "model": root / "model.json",
        "scaler": root / "scaler.json",
    }
    assert run(
        "detect", "--matrix", str(pipeline / "matrix" / "matrix_deactivation.csv"),
        "--method", "global_std", "--out", str(root),
    ) == 0
    assert run(
        "features", "--changes", str(files["changes"]), "--snapshots", str(files["snapshots"]),
        "--schema", str(files["schema"]), "--out", str(root),
    ) == 0
    width = len(groupfeatures.FEATURE_NAMES)
    gbt.save_model(gbt.GbtModel(gbt.GbtConfig(), ("a", "b"), width), str(files["model"]))
    scaler = groupfeatures.FeatureScaler(np.zeros(width), np.ones(width), np.zeros(width))
    files["scaler"].write_text(scaler.to_json(), encoding="utf-8")
    return {name: str(path) for name, path in files.items()}


# case -> argv with another run's file (in braces) where the subcommand wants its own;
# the case is named "<file swapped in>-as-<slot>"
SWAPPED = {
    "scores-as-matrix": ["detect", "--matrix", "{scores}"],
    "ranked-as-matrix": ["detect", "--matrix", "{ranked}"],
    "features-as-matrix": ["evaluate", "--matrix", "{features}"],
    "scaler-as-model": ["predict", "--model", "{scaler}", "--scaler", "{scaler}", "--features", "{features}"],
    "model-as-scaler": ["predict", "--model", "{model}", "--scaler", "{model}", "--features", "{features}"],
    "changes-as-features": ["train", "--features", "{changes}"],
    "changes-as-labels": [
        "features", "--changes", "{changes}", "--snapshots", "{snapshots}", "--schema", "{schema}",
        "--labels", "{changes}",
    ],
    "features-as-changes": [
        "matrix", "--changes", "{features}", "--snapshots", "{snapshots}", "--schema", "{schema}",
        "--change-type", "deactivation",
    ],
    "scaler-as-manifest": ["rerun", "--manifest", "{scaler}"],
}


@pytest.mark.parametrize("case", list(SWAPPED))
def test_another_runs_file_swapped_in_exits_3(other_run, tmp_path, capsys, case):
    capsys.readouterr()
    argv = [arg.format(**other_run) for arg in SWAPPED[case]]
    assert run(*argv, "--out", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert other_run[case.split("-as-")[0]] in err


def test_snapshot_stray_quote_exits_3(tmp_path, capsys):
    """An unmatched quote makes csv read on past its field limit; the parse
    names the record it starts in."""
    path = tmp_path / "snapshot_2019-01-03.csv"
    rows = "".join(f"V{i:05d},polk,active\n" for i in range(10_000))  # 170,000 characters
    path.write_text('voter_id,locale,status\nV,"polk,active\n' + rows)
    assert run("ingest", "--snapshot", str(path), "--out", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: ") and err.count("\n") == 1


@pytest.mark.parametrize("delimiter", ["", ";;"])
@pytest.mark.parametrize("command", ["ingest", "diff"])
def test_schema_delimiter_not_one_character_exits_3(tmp_path, capsys, command, delimiter):
    snapshot = tmp_path / "snapshot_2019-01-03.csv"
    snapshot.write_text("voter_id,locale,status\nV1,polk,active\n")
    schema = tmp_path / "schema.cfg"
    schema.write_text(
        f"voter_id = voter_id\nlocale = locale\nstatus = status\ndelimiter = {delimiter}\n"
    )
    inputs = {
        "ingest": ["--snapshot", str(snapshot)], "diff": ["--snapshots", str(tmp_path)],
    }[command]
    assert run(command, *inputs, "--schema", str(schema), "--out", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: schema delimiter must be one character") and err.count("\n") == 1


def _write_changes(path):
    day, next_day = dt.date(2019, 1, 3), dt.date(2019, 1, 10)
    vrf_io.changes_to_csv(
        [
            ChangeRecord("A1", "Polk é", ChangeType.ADDRESS, day, next_day,
                         (FieldDelta("unit", "", "2b"),)),
            ChangeRecord("A2", "Story", ChangeType.REMOVAL, day, next_day),
        ],
        path,
    )


def _write_features(path):
    width = len(groupfeatures.FEATURE_NAMES)
    start = dt.date(2019, 1, 3)
    groupfeatures.features_to_csv(
        [
            groupfeatures.GroupFeatureVector(
                groupfeatures.GroupKey("Polk é", start, ChangeType.DEACTIVATION),
                3, np.linspace(0.0, 1.0, width), EventLabel.OTHER,
            ),
            groupfeatures.GroupFeatureVector(
                groupfeatures.GroupKey("Story", start, ChangeType.DEACTIVATION),
                1, np.zeros(width),
            ),
        ],
        path,
    )


def _write_labels(path):
    rows = [["Polk é", "2019-01-03", "deactivation", "other"],
            ["Story", "2019-01-10", "deactivation", EventLabel.NCOA_MAILINGS.value]]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(map(vrf_io.csv_line, [cli.LABEL_COLUMNS, *rows]))


# table name -> (its writer, its reader)
TABLES = {
    "changes": (_write_changes, lambda path: list(vrf_io.csv_to_changes(path))),
    "features": (_write_features, groupfeatures.features_from_csv),
    "labels": (_write_labels, cli._read_labels),
}


@given(st.sampled_from(sorted(TABLES)), st.data())
def test_table_reader_returns_or_raises_vrf_error(table, data):
    """A written table, then truncated, with bytes inserted, or with one
    cell replaced by any text, reads back or raises VrfError."""
    write, read = TABLES[table]
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/table.csv"
        write(path)
        with open(path, "rb") as fh:
            raw = fh.read()
        at = data.draw(st.integers(0, len(raw)))
        kind = data.draw(st.sampled_from(["truncate", "insert", "cell"]))
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
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            read(path)
        except VrfError:
            pass


# sha256 of every data artifact of `synth --preset small --seed 5` -> diff ->
# matrix --change-type deactivation -> features. Singular values and the
# detect, evaluate and train outputs are left out: their floats come from
# LAPACK/BLAS and may differ in the last bits between builds.
PINNED_DIGESTS = {
    "diff/changes.csv": "26de0240783fafb6e35aa21b6ea99fb4fb0c4fd7264efea3ed996e28611cbb35",
    "diff/voters/snapshot_2018-06-04.csv": "b77d667e47269dcc98449b0a801f75bf9b4260d9dec481fe5e3fba62ca1c1e85",
    "diff/voters/snapshot_2018-06-11.csv": "354fb170cc5195c8342b983184c6f48ca65a6c700275cd192dafb05b360e9e77",
    "diff/voters/snapshot_2018-06-18.csv": "c24a3864f781efe123f31c812a51e3fbbe0059cc5e76fd9e66db39f51b04bf51",
    "diff/voters/snapshot_2018-06-25.csv": "43816e2dab5b430e9e7eb3b0717c508a476e126dd67dd3c4998549f89738247a",
    "diff/voters/snapshot_2018-07-02.csv": "0bafdfd5db9f0f0faf4c5d5ec7e0b477c558fa0a1fa4d848b93332383d0e5b49",
    "diff/voters/snapshot_2018-07-09.csv": "d7d663746b4d9548edd0e3c999a1205ec0d894067c68d657738e36f69f076608",
    "diff/voters/snapshot_2018-07-16.csv": "3d4e76352e9d63edffb012abf6be75aa67ac02855ef1df10e757eeca8896e836",
    "diff/voters/snapshot_2018-07-23.csv": "d7a86015b0747af40f7c26b0b4d65c5877870ca20e06b8020fdc1cf81965b4f1",
    "diff/voters/snapshot_2018-07-30.csv": "e25aea868d88f2b2f0ba017044eaeb686618ebfa5875a405a40096e6ffaaa749",
    "diff/voters/snapshot_2018-08-06.csv": "5298967bad67dcccf7dd296d50c14fadebeb096bcb0108f261bd21557241acb7",
    "diff/voters/snapshot_2018-08-13.csv": "3e3e4bff57a70dbf9f63a971d6e677c77f10dbf57e158db57b594ee752f676cb",
    "diff/voters/snapshot_2018-08-20.csv": "6597e2acb47d82ccb585f7f57ffaf7d208e9fe3bd2ad78d45b14b237487b10c1",
    "diff/voters/snapshot_2018-08-27.csv": "4ffe29d96fa2976a2ac25ca3c74b4e37d4659eac3fc1ba29cf6608116cf81f73",
    "diff/voters/snapshot_2018-09-03.csv": "21db1d59aa6f3b26a33206a0f063a844273a4cac3c16b160bd5ef7a8b494e35d",
    "diff/voters/snapshot_2018-09-10.csv": "b51d5ec76f064b34803ae339890605cff8b8bc9a548b7b1de0318471887013e5",
    "diff/voters/snapshot_2018-09-17.csv": "3c38bbbdfb0f5579b8763dcaae26ca220c9e35f60afb55b4c4ad568ed30167a0",
    "diff/voters/snapshot_2018-09-24.csv": "80305053654b17cf5cb38257189d561e445ff967dcb2764e473fc203a49f9ae4",
    "diff/voters/snapshot_2018-10-01.csv": "e62da2e36a00d3f4c489bd73f1e6fde3aa677678f90d23d7cce634b504e02717",
    "diff/voters/snapshot_2018-10-08.csv": "10d9e1ff9ccbab21c24a2aef4cff3362233c30ee750cdbd32cf1728c4c3ce068",
    "diff/voters/snapshot_2018-10-15.csv": "98150b8b05738a6a2307af7b1438c9026f4c8cbe6aac5dd29ea74d038d004d06",
    "diff/voters/snapshot_2018-10-22.csv": "47ee223f221be0d487b55f5c2fdee75edd3b4f6b776f7d668dfde31fbe3e5131",
    "features/group_features.csv": "b09771ed7d13ea8610c8f87692da2a02ab2a84c8c1c0a5e6798d969a85569a15",
    "matrix/matrix_deactivation.csv": "70bac59350131c9120c86b0606f5430846a8f0ede920dc40ac8a8e7f3c97057e",
    "synth/groundtruth.json": "48552aa90e576e7add1dbd37516c6fc491b00ed790fb7becdf458eabdcb079d1",
    "synth/snapshots/snapshot_2018-06-04.csv": "f0bb515e46a14461e5c88b08c63b88da90b79f8e0dd89639653c026da4d1bc77",
    "synth/snapshots/snapshot_2018-06-11.csv": "c529b6e333596e3b9f3f1ee515c535532133422f227518adedb6e5a207833e67",
    "synth/snapshots/snapshot_2018-06-18.csv": "1fa045c860df4a55cddccdf538fb203adcda527973566c5ee324dbf911e64dcc",
    "synth/snapshots/snapshot_2018-06-25.csv": "6de8b7be930caee177daf34d2a6043252e77363e91220a5a331a00d12c473ae9",
    "synth/snapshots/snapshot_2018-07-02.csv": "b97197487e50f045508a99a1ce660ca2e2aa9ad82aed3b52c31180b1ccbd7a85",
    "synth/snapshots/snapshot_2018-07-09.csv": "d9a2730e1704c0965bc1f115a0552ff92920109a62d0a45fbb1633a012510a03",
    "synth/snapshots/snapshot_2018-07-16.csv": "8d2286303ea56f34a4b0ff649b061182467fbf4eaa978539096ef2219c853969",
    "synth/snapshots/snapshot_2018-07-23.csv": "6f98cedefb7340be2687103d58407d2924cfdad3b783ba4d2d267be913ff08cf",
    "synth/snapshots/snapshot_2018-07-30.csv": "8f55555d0064a78b9476d472f9e593d46f92da776374a3892958f7fc0ed9595e",
    "synth/snapshots/snapshot_2018-08-06.csv": "11943718583238006151859f8068bcbc96266ac6cb476012256006d5df1ba1f2",
    "synth/snapshots/snapshot_2018-08-13.csv": "7b6ae7cf2b9bd99c923840e5a0622721bf1e233e8302b07d83b15e77f471a68d",
    "synth/snapshots/snapshot_2018-08-20.csv": "3629eaa46b18afc2121293fbe7201ad8a9fd08ac0ec20e5023a60cfbf87073a4",
    "synth/snapshots/snapshot_2018-08-27.csv": "91c63be1eecaa9b824aae61e07d0cef13291e93a44689209f90c88b6469ee089",
    "synth/snapshots/snapshot_2018-09-03.csv": "0c26aede5565e5bf52ef067a4086b8a793b421f678790ba445252cae0095bcc8",
    "synth/snapshots/snapshot_2018-09-10.csv": "7a09ff346a02d1ce2d7b4c476c799a4f452c7dfc3c9ffc0c061aff608c9efd0a",
    "synth/snapshots/snapshot_2018-09-17.csv": "e9f2599784d6848c5fee9e427267938a97f99ca8cd0b1e71536b41aa00d84879",
    "synth/snapshots/snapshot_2018-09-24.csv": "461ce966561996ac0b1a942a67e857aa7faad3d9ee32d4e9405751cd691ab456",
    "synth/snapshots/snapshot_2018-10-01.csv": "1996b794d0cad8a4bdefd912c8f9e1cd7b9a002bad9333b8bb6aa7789dbc0794",
    "synth/snapshots/snapshot_2018-10-08.csv": "f70d0bfcd815b15bb77c7a8731feac102eccc79628fa067a15f54ea174401148",
    "synth/snapshots/snapshot_2018-10-15.csv": "a700ec0a2d532f7d8078242f472b4a65b74c1b9020cdc5ecb0f39f1a0223268a",
    "synth/snapshots/snapshot_2018-10-22.csv": "d3493b9056a8473c26564e1bc6cb7d79dbcd05ebec5428e17888d57b16955c27",
}


# sha256 of the data artifacts of `synth --preset matrix --seed 0` and of the
# pooled detectors' `detect` outputs on its matrix; they call no LAPACK, so
# their bytes hold across builds.
PINNED_DETECT_DIGESTS = {
    "synth/matrix_deactivation.csv": "61ab7f14ae08d1effb037f0b55cb9a475fc272c6aeda501c4c4a321d8cefc3b2",
    "cl_iqr/ranked_cl_iqr_5.csv": "f56982eed578d7e00f124c89c214caceaafa3223029bb13ac779023cd1043621",
    "cl_iqr/scores_cl_iqr_5.csv": "8229b158d5faaf3ae336656d76628afc0cfa18cd71013f3b3d58ede36d0891a6",
    "cl_iqr/scores_cl_iqr_5.svg": "916e2c4fc65624f616df2aec71fcdf9487bf9e2c1a7cd773f3c503a96b509d09",
    "global_std/ranked_global_std.csv": "d6f447314900a1e8e11e63618a0d726aa0f2f348d73ab3a0976b7e6b8be97215",
    "global_std/scores_global_std.csv": "84008d3c61c52831d8299cd44725cfc184930308aa87b4b0fb21ea6b9ba9f378",
    "global_std/scores_global_std.svg": "f865b3795c5954523dac64efdc60553aea3ebf62d0c8cca722d59dcdb22b9e5a",
}


def test_pooled_detect_outputs_keep_their_pinned_digests(tmp_path):
    matrix = str(tmp_path / "synth" / "matrix_deactivation.csv")
    assert run("synth", "--preset", "matrix", "--seed", "0", "--out", str(tmp_path / "synth")) == 0
    assert run("detect", "--matrix", matrix, "--method", "cl_iqr", "--window", "2",
               "--out", str(tmp_path / "cl_iqr")) == 0
    assert run("detect", "--matrix", matrix, "--method", "global_std",
               "--out", str(tmp_path / "global_std")) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in PINNED_DETECT_DIGESTS
    }
    assert digests == PINNED_DETECT_DIGESTS
    for folder in ("cl_iqr", "global_std"):  # and no data file beyond the pinned ones
        written = {f"{folder}/{p.name}" for p in (tmp_path / folder).iterdir()}
        assert written - {f"{folder}/manifest.json"} == {
            name for name in PINNED_DETECT_DIGESTS if name.startswith(folder)
        }


# cell magnitudes from subnormal to the float maximum, most of them far
# outside any rate of changes per day per 1000 voters
EXTREME_VALUES = st.one_of(
    st.floats(0.0, 1e-300), st.floats(0.0, 1e160), st.floats(1e100, 1.7976931348623157e308)
)
POOLED_ORACLES = {
    "temporal_std": lambda v: oracles.bf_temporal(v, "std"),
    "temporal_iqr": lambda v: oracles.bf_temporal(v, "iqr"),
    "cl_std": lambda v: oracles.bf_cross_locale(v, "std", 2),
    "cl_iqr": lambda v: oracles.bf_cross_locale(v, "iqr", 2),
    "global_std": lambda v: oracles.bf_global(v, "std"),
    "global_iqr": lambda v: oracles.bf_global(v, "iqr"),
}


@settings(max_examples=40)
@given(
    method=st.sampled_from(["nmf", "rpca", *POOLED_ORACLES]),
    cells=st.dictionaries(st.tuples(st.integers(0, 11), st.integers(0, 19)), EXTREME_VALUES,
                          min_size=1, max_size=3),
)
def test_extreme_matrix_values_rank_as_the_oracle_or_exit_3(pipeline, method, cells):
    """A few value cells of the matrix set to extreme magnitudes: detect
    exits 0 with a top cell the brute-force oracle scores highest (for nmf
    and rpca, which have none, the highest of its own NaN-free scores), or
    3 with one line; so does evaluate, with precisions in [0, 1]."""
    from vrf_sentinel import modmatrix

    lines = (pipeline / "matrix" / "matrix_deactivation.csv").read_text().splitlines(True)
    for (i, j), value in cells.items():  # the values block is lines 1-12
        row = lines[1 + i].rstrip("\n").split(",")
        row[1 + j] = repr(value)
        lines[1 + i] = ",".join(row) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        matrix = os.path.join(tmp, "matrix_deactivation.csv")
        pathlib.Path(matrix).write_text("".join(lines))
        for step in ("detect", "evaluate"):
            option = ["--method", method] if step == "detect" else ["--methods", method]
            if step == "evaluate" and method in ("cl_std", "cl_iqr"):
                option = ["--methods", f"{method}_5", "--grid-points", "3"]
            elif step == "evaluate":
                option += ["--grid-points", "3"]
            out, err = os.path.join(tmp, step), stdio.StringIO()
            with contextlib.redirect_stderr(err):
                code = run(step, "--matrix", matrix, *option, "--out", out)
            assert code in (0, 3)
            if code == 3:
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
                assert max(cells.values()) >= 1e150 or "NaN" in err.getvalue()
                continue
            if step == "evaluate":
                with open(os.path.join(out, "sweep_deactivation.csv"), newline="") as fh:
                    assert all(0 <= float(p) <= 1 for _, _, p in list(csv.reader(fh))[1:])
                continue
            grid = modmatrix.csv_to_matrix(matrix)
            name = f"{method}_5" if method in ("cl_std", "cl_iqr") else method
            with open(os.path.join(out, f"ranked_{name}.csv"), newline="") as fh:
                _, (_, locale, start, _), *_ = csv.reader(fh)
            top = (grid.locales.index(locale),
                   [iv.start.isoformat() for iv in grid.intervals].index(start))
            values = grid.values.tolist()
            if method in POOLED_ORACLES:
                scores = POOLED_ORACLES[method](values)
            else:
                scores = detectors.scores_from_csv(os.path.join(out, f"scores_{name}.csv"))
                scores = scores.scores.tolist()
                assert not np.isnan(scores).any()
            best = divmod(oracles.bf_rank(scores, values)[0], len(values[0]))
            assert top == best or math.isclose(scores[top[0]][top[1]], scores[best[0]][best[1]],
                                               rel_tol=1e-9)


@pytest.mark.parametrize("step", ["detect", "evaluate"])
def test_nan_score_grid_exits_3_naming_the_method(pipeline, tmp_path, monkeypatch, capsys, step):
    monkeypatch.setattr(detectors, "global_scores", lambda values, stat: np.full(values.shape, np.nan))
    option = ["--method"] if step == "detect" else ["--grid-points", "3", "--methods"]
    assert run(step, "--matrix", str(pipeline / "matrix" / "matrix_deactivation.csv"),
               *option, "global_std", "--out", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: detector global_std scored NaN") and err.count("\n") == 1
    assert os.listdir(tmp_path / "out") == []


def test_chain_artifacts_keep_their_pinned_digests(tmp_path):
    synth, diff = tmp_path / "synth", tmp_path / "diff"
    snapshots = ["--snapshots", str(synth / "snapshots"), "--schema", str(synth / "schema.cfg")]
    changes = ["--changes", str(diff / "changes.csv"), *snapshots, "--change-type", "deactivation"]
    assert run("synth", "--preset", "small", "--seed", "5", "--out", str(synth)) == 0
    assert run("diff", *snapshots, "--out", str(diff)) == 0
    assert run("matrix", *changes, "--out", str(tmp_path / "matrix")) == 0
    assert run("features", *changes, "--out", str(tmp_path / "features")) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in PINNED_DIGESTS
    }
    assert digests == PINNED_DIGESTS
    for folder in ("synth/snapshots", "diff/voters"):  # and no file beyond the pinned ones
        written = {f"{folder}/{path.name}" for path in (tmp_path / folder).iterdir()}
        assert written == {name for name in PINNED_DIGESTS if name.startswith(folder)}


def test_labeled_pipeline_train_predict(tmp_path):
    synth = tmp_path / "synth"
    assert run("synth", "--preset", "labeled", "--seed", "0", "--out", str(synth)) == 0
    assert (synth / "labels.csv").exists()
    diff = tmp_path / "diff"
    assert run(
        "diff", "--snapshots", str(synth / "snapshots"),
        "--schema", str(synth / "schema.cfg"), "--out", str(diff),
    ) == 0
    feats = tmp_path / "features"
    assert run(
        "features", "--changes", str(diff / "changes.csv"),
        "--snapshots", str(synth / "snapshots"), "--schema", str(synth / "schema.cfg"),
        "--labels", str(synth / "labels.csv"), "--change-type", "deactivation",
        "--out", str(feats),
    ) == 0
    train = tmp_path / "train"
    assert run(
        "train", "--features", str(feats / "group_features.csv"),
        "--holdout", "0.2", "--seed", "0", "--out", str(train),
    ) == 0
    assert (train / "model.json").exists()
    metrics = dict(
        line.split(",") for line in (train / "eval_metrics.csv").read_text().splitlines()[1:]
    )
    assert float(metrics["accuracy"]) >= 0.8
    predict = tmp_path / "predict"
    assert run(
        "predict", "--model", str(train / "model.json"),
        "--scaler", str(train / "scaler.json"),
        "--features", str(feats / "group_features.csv"),
        "--threshold", "0.95", "--out", str(predict),
    ) == 0
    lines = (predict / "predictions.csv").read_text().splitlines()
    assert lines[0].startswith("locale,interval_start,change_type,p_")
    n_groups = len((feats / "group_features.csv").read_text().splitlines()) - 1
    assert len(lines) == 1 + n_groups  # every group scored, labeled or not
    assert n_groups >= 184


def test_snapshot_dates_come_from_file_names_not_directories(tmp_path):
    snapshots = tmp_path / "run-2021-01-01" / "snapshots"
    snapshots.mkdir(parents=True)
    header = "voter_id,locale,status\n"
    (snapshots / "snapshot_2019-01-03.csv").write_text(header + "A1,polk,active\n")
    (snapshots / "snapshot_2019-01-10.csv").write_text(header + "A1,polk,inactive\n")
    assert run("diff", "--snapshots", str(snapshots), "--out", str(tmp_path / "diff")) == 0
    rows = list(csv.DictReader((tmp_path / "diff" / "changes.csv").read_text().splitlines()))
    assert [(r["anterior_date"], r["posterior_date"]) for r in rows] == [
        ("2019-01-03", "2019-01-10")
    ]
    assert run(
        "ingest", "--snapshot", str(snapshots / "snapshot_2019-01-10.csv"),
        "--out", str(tmp_path / "ingest"),
    ) == 0
    summary = json.loads((tmp_path / "ingest" / "ingest_summary.json").read_text())
    assert summary["snapshot_date"] == "2019-01-10"


@pytest.mark.parametrize("command", ["ingest", "diff"])
def test_bad_date_in_snapshot_file_name_exits_3(tmp_path, capsys, command):
    snapshots = tmp_path / "snapshots"
    snapshots.mkdir()
    header = "voter_id,locale,status\n"
    (snapshots / "snapshot_2018-12-11.csv").write_text(header + "A1,polk,active\n")
    bad = snapshots / "snapshot_2018-13-11.csv"
    bad.write_text(header + "A1,polk,inactive\n")
    argv = ["--snapshot", str(bad)] if command == "ingest" else ["--snapshots", str(snapshots)]
    assert run(command, *argv, "--out", str(tmp_path / "out")) == 3
    assert capsys.readouterr().err == f"error: {bad}: bad date '2018-13-11'\n"


# case -> (argv before --out, exit code, the end of its one error line). A
# snapshot's date is the first ISO date in its file name, diff reads one
# directory, and every pending transition is classified: no option or
# schema key states any of these a second way.
REMOVED_INPUTS = {
    "diff-anterior-posterior": (
        ["diff", "--anterior", "{first}", "--posterior", "{second}"], 2,
        "the following arguments are required: --snapshots",
    ),
    "diff-strict-status": (
        ["diff", "--snapshots", "{snapshots}", "--strict-status"], 2,
        "unrecognized arguments: --strict-status",
    ),
    "ingest-date": (
        ["ingest", "--snapshot", "{first}", "--date", "2019-01-03"], 2,
        "unrecognized arguments: --date 2019-01-03",
    ),
    "ingest-schema-snapshot-date": (
        ["ingest", "--snapshot", "{first}", "--schema", "{dated_schema}"], 3,
        "schema maps unknown logical fields: snapshot_date",
    ),
    "diff-schema-snapshot-date": (
        ["diff", "--snapshots", "{snapshots}", "--schema", "{dated_schema}"], 3,
        "schema maps unknown logical fields: snapshot_date",
    ),
    "matrix-schema-snapshot-date": (
        ["matrix", "--changes", "{changes}", "--snapshots", "{snapshots}",
         "--schema", "{dated_schema}", "--change-type", "deactivation"], 3,
        "schema maps unknown logical fields: snapshot_date",
    ),
    "ingest-undated-name": (
        ["ingest", "--snapshot", "{undated}"], 3, "{undated}: no ISO date found in the file name",
    ),
}


@pytest.mark.parametrize("case", list(REMOVED_INPUTS))
def test_removed_inputs_exit_cleanly(pipeline, tmp_path, capsys, case):
    synth = pipeline / "synth"
    first, second = sorted((synth / "snapshots").glob("snapshot_*.csv"))[:2]
    dated_schema = tmp_path / "schema.cfg"
    dated_schema.write_text((synth / "schema.cfg").read_text() + "snapshot_date = 2018-06-04\n")
    undated = tmp_path / "snapshot_latest.csv"
    shutil.copy(first, undated)
    paths = {
        "first": first, "second": second, "snapshots": synth / "snapshots",
        "changes": pipeline / "diff" / "changes.csv", "dated_schema": dated_schema,
        "undated": undated,
    }
    argv, code, message = REMOVED_INPUTS[case]
    argv = [arg.format(**paths) for arg in [*argv, "--out", str(tmp_path / "out")]]
    capsys.readouterr()
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
    else:
        assert run(*argv) == 3
    err = capsys.readouterr().err
    assert err.count("error: ") == 1 and "Traceback" not in err
    assert err.splitlines()[-1].endswith(message.format(**paths))
    assert err.startswith("usage: " if code == 2 else "error: ")


# subcommand -> its option strings beside -h/--help: a new option edits this table
CLI_OPTIONS = {
    "synth": {"--preset", "--seed", "--out"},
    "ingest": {"--snapshot", "--schema", "--out"},
    "diff": {"--snapshots", "--schema", "--out"},
    "matrix": {"--changes", "--snapshots", "--schema", "--change-type", "--interval-days", "--out"},
    "detect": {"--matrix", "--method", "--k", "--window", "--lambda", "--out"},
    "evaluate": {
        "--matrix", "--methods", "--fraction", "--top-k", "--grid-points", "--seed", "--out",
    },
    "features": {
        "--changes", "--snapshots", "--schema", "--labels", "--change-type", "--interval-days",
        "--out",
    },
    "train": {
        "--features", "--holdout", "--n-estimators", "--max-depth", "--learning-rate", "--seed",
        "--out",
    },
    "predict": {"--model", "--scaler", "--features", "--threshold", "--out"},
    "heatmap": {"--matrix", "--scores", "--highlight", "--out"},
    "rerun": {"--manifest", "--out"},
}


def test_cli_options_are_the_documented_set():
    parser = cli._build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {s for action in sub._actions for s in action.option_strings} - {"-h", "--help"}
        for name, sub in subcommands.choices.items()
    }
    assert options == CLI_OPTIONS


def test_evaluate_fixed_mask_is_not_an_option(pipeline, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(
            "evaluate", "--matrix", str(pipeline / "matrix" / "matrix_deactivation.csv"),
            "--fixed-mask", "--out", str(tmp_path / "out"),
        )
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith("unrecognized arguments: --fixed-mask")


def test_ingest_summary(pipeline, tmp_path):
    synth = pipeline / "synth"
    snapshot = sorted((synth / "snapshots").glob("snapshot_*.csv"))[0]
    out = tmp_path / "ingest"
    assert run(
        "ingest", "--snapshot", str(snapshot),
        "--schema", str(synth / "schema.cfg"), "--out", str(out),
    ) == 0
    summary = json.loads((out / "ingest_summary.json").read_text())
    assert summary["records"] > 0
    assert summary["row_issues"] == []


def test_matrix_and_features_share_one_grid_when_a_type_starts_later(tmp_path):
    """Four weekly snapshots: an address change in the first diff, then a
    deactivation in each of the next two. At 14-day intervals both steps
    start the grid at the earliest change of any type, 2019-01-10, so the
    matrix columns are the feature groups' interval starts."""
    snapshots = tmp_path / "snapshots"
    snapshots.mkdir()
    header = "voter_id,locale,status,street_name,vote_history\n"
    streets = {"A1": "main", "A2": "oak", "A3": "elm"}
    inactive = {"2019-01-03": (), "2019-01-10": (), "2019-01-17": ("A2",), "2019-01-24": ("A2", "A3")}
    for date, gone in inactive.items():
        rows = [
            f"{voter},polk,{'inactive' if voter in gone else 'active'},"
            f"{'high' if voter == 'A1' and date > '2019-01-03' else street},"
            "G18|2018-11-06|regular|\n"
            for voter, street in streets.items()
        ]
        (snapshots / f"snapshot_{date}.csv").write_text(header + "".join(rows))
    diff = tmp_path / "diff"
    assert run("diff", "--snapshots", str(snapshots), "--out", str(diff)) == 0
    inputs = ["--changes", str(diff / "changes.csv"), "--snapshots", str(snapshots),
              "--change-type", "deactivation", "--interval-days", "14"]
    assert run("matrix", *inputs, "--out", str(tmp_path / "matrix")) == 0
    assert run("features", *inputs, "--out", str(tmp_path / "features")) == 0
    matrix = modmatrix.csv_to_matrix(str(tmp_path / "matrix" / "matrix_deactivation.csv"))
    starts = [dt.date(2019, 1, 10), dt.date(2019, 1, 24)]
    assert [iv.start for iv in matrix.intervals] == starts
    assert matrix.raw_counts.tolist() == [[1, 1]]
    groups = groupfeatures.features_from_csv(str(tmp_path / "features" / "group_features.csv"))
    assert [(v.key.interval_start, v.n_voters) for v in groups] == [(starts[0], 1), (starts[1], 1)]


def test_features_without_birth_dates_warn_nothing(pipeline, tmp_path, capsys):
    """A schema that maps no birth_date leaves every group's years_old NaN
    (flagged missing) and prints nothing."""
    synth = pipeline / "synth"
    schema = tmp_path / "schema.cfg"
    lines = (synth / "schema.cfg").read_text().splitlines(keepends=True)
    schema.write_text("".join(line for line in lines if not line.startswith("birth_date")))
    inputs = ["--snapshots", str(synth / "snapshots"), "--schema", str(schema)]
    assert run("diff", *inputs, "--out", str(tmp_path / "diff")) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(
            "features", "--changes", str(tmp_path / "diff" / "changes.csv"), *inputs,
            "--out", str(tmp_path / "features"),
        ) == 0
    assert capsys.readouterr().err == ""
    groups = groupfeatures.features_from_csv(str(tmp_path / "features" / "group_features.csv"))
    years_old, missing = (groupfeatures.FEATURE_NAMES.index(n) for n in ("years_old", "years_old_missing"))
    assert groups and all(math.isnan(v.features[years_old]) for v in groups)
    assert all(v.features[missing] == 1.0 for v in groups)


@pytest.fixture(scope="module")
def pipeline_groups(pipeline, tmp_path_factory):
    """The (locale, interval start, change type) keys of the pipeline's groups."""
    out = tmp_path_factory.mktemp("groups")
    synth = pipeline / "synth"
    assert run(
        "features", "--changes", str(pipeline / "diff" / "changes.csv"),
        "--snapshots", str(synth / "snapshots"), "--schema", str(synth / "schema.cfg"),
        "--out", str(out),
    ) == 0
    return [
        (v.key.locale, v.key.interval_start.isoformat(), v.key.change_type.value)
        for v in groupfeatures.features_from_csv(str(out / "group_features.csv"))
    ]


def test_features_manifest_counts_labels_matched_and_not(pipeline, pipeline_groups, tmp_path):
    """A label whose group exists is matched; one whose locale, interval
    start or change type names no group is counted, not silently dropped."""
    locale, start, change_type = pipeline_groups[0]
    absent = next(ct.value for ct in ChangeType if (locale, start, ct.value) not in pipeline_groups)
    rows = [
        [locale, start, change_type, "other"],
        ["nowhere", start, change_type, "other"],
        [locale, "1999-01-01", change_type, "other"],
        [locale, start, absent, "ncoa_mailings"],
    ]
    labels = tmp_path / "labels.csv"
    labels.write_text("".join(map(vrf_io.csv_line, [cli.LABEL_COLUMNS, *rows])))
    synth = pipeline / "synth"
    assert run(
        "features", "--changes", str(pipeline / "diff" / "changes.csv"),
        "--snapshots", str(synth / "snapshots"), "--schema", str(synth / "schema.cfg"),
        "--labels", str(labels), "--out", str(tmp_path / "features"),
    ) == 0
    assert read_counts(tmp_path / "features")["labels"] == {"read": 4, "matched": 1, "unmatched": 3}


@pytest.fixture(scope="module")
def other_diff(pipeline, tmp_path_factory):
    """Another diff: of the pipeline's first six snapshots only."""
    root = tmp_path_factory.mktemp("other_diff")
    (root / "snapshots").mkdir()
    synth = pipeline / "synth"
    for path in sorted((synth / "snapshots").glob("snapshot_*.csv"))[:6]:
        shutil.copy(path, root / "snapshots")
    assert run(
        "diff", "--snapshots", str(root / "snapshots"), "--schema", str(synth / "schema.cfg"),
        "--out", str(root / "diff"),
    ) == 0
    return root / "diff"


LABEL_TEXT = st.one_of(st.text(max_size=8), st.sampled_from(["L01", "L02", "2019-01-03", ""]))


@given(data=st.data())
def test_features_with_foreign_labels_or_diff_files_exits_0_or_3(
    pipeline, pipeline_groups, other_diff, data,
):
    """`features` given label rows of groups that may not exist, or a
    voters/ file or manifest.json of another diff in place of its own,
    exits 0 (with the label counts in its manifest) or 3, with at most
    one line on stderr and no traceback."""
    case = data.draw(st.sampled_from(["labels", "voters", "manifest"]))
    with tempfile.TemporaryDirectory() as tmp:
        diff = pathlib.Path(tmp) / "diff"
        shutil.copytree(pipeline / "diff", diff)
        extra, rows = [], []
        if case == "labels":
            key = st.one_of(
                st.sampled_from(pipeline_groups),
                st.tuples(
                    LABEL_TEXT, st.one_of(st.dates().map(dt.date.isoformat), LABEL_TEXT),
                    st.one_of(st.sampled_from([ct.value for ct in ChangeType]), LABEL_TEXT),
                ),
            )
            label = st.sampled_from([label.value for label in EventLabel])
            rows = data.draw(st.lists(st.tuples(key, label).map(lambda r: [*r[0], r[1]]), max_size=6))
            (diff / "labels.csv").write_text(
                "".join(map(vrf_io.csv_line, [cli.LABEL_COLUMNS, *rows])), encoding="utf-8"
            )
            extra = ["--labels", str(diff / "labels.csv")]
        elif case == "voters":
            name = data.draw(st.sampled_from(sorted(p.name for p in (diff / "voters").iterdir())))
            other = data.draw(st.sampled_from(sorted((other_diff / "voters").iterdir())))
            shutil.copy(other, diff / "voters" / name)
        else:
            shutil.copy(other_diff / "manifest.json", diff / "manifest.json")
        argv = [*step_argv(pipeline, "features", diff, pathlib.Path(tmp) / "out"), *extra]
        err = stdio.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(*argv)
        assert code in (0, 3)
        assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()
        if code == 3:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            return
        assert case != "manifest"
        matched = sum(tuple(row[:3]) in pipeline_groups and row[2] == "deactivation" for row in rows)
        assert read_counts(pathlib.Path(tmp) / "out")["labels"] == {
            "read": len(rows), "matched": matched, "unmatched": len(rows) - matched,
        }


@pytest.mark.parametrize("block", [1, 2])  # raw_counts, populations
@pytest.mark.parametrize("step", ["detect", "heatmap"])
def test_matrix_count_a_float_cannot_hold_exits_3(pipeline, tmp_path, capsys, step, block):
    """A raw count or population of 2^53 + 1, which reads as the float 2^53,
    exits 3 with one line, where it was once rounded and written back."""
    with open(pipeline / "matrix" / "matrix_deactivation.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    n_locales = rows.index([]) - 1
    rows[1 + block * (n_locales + 1)][1] = str(2**53 + 1)
    matrix = tmp_path / "matrix_deactivation.csv"
    with open(matrix, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    out = tmp_path / ("h.svg" if step == "heatmap" else "detect")
    capsys.readouterr()
    assert run(step, "--matrix", str(matrix), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err == f"error: {matrix}: raw_counts/populations must be integers below 2^53\n"


# text a hand edit may leave in a cell: anything UTF-8 holds, but NUL
CELL_TEXT = st.text(st.characters(codec="utf-8", exclude_characters="\0"), max_size=6)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_detect_and_heatmap_of_an_edited_matrix_exit_0_or_3(pipeline, data):
    """One edit to the matrix CSV: a values cell set to a float, to text or
    to its formula value at another precision; a count or population set to
    a negative, zero, fractional or 2^63 value; or a row dropped or
    repeated. `detect` and `heatmap --matrix` exit 0, with one ranked row
    per cell, or 3 with one `error:` line and no traceback."""
    with open(pipeline / "matrix" / "matrix_deactivation.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    n_locales, n_cols = rows.index([]) - 1, len(rows[0]) - 1
    days = int(rows[0][0].rsplit(":", 1)[1])
    case = data.draw(st.sampled_from(["value", "count", "row"]))
    if case == "row":
        at = data.draw(st.integers(0, len(rows) - 1))
        rows[at:at + 1] = [] if data.draw(st.booleans()) else [rows[at]] * 2
    else:
        i, j = data.draw(st.integers(0, n_locales - 1)), data.draw(st.integers(1, n_cols))
        if case == "value":
            count, voters = int(rows[2 + n_locales][j]), int(rows[3 + 2 * n_locales][j])
            formula = count / days / (voters / 1000.0)
            rows[1 + i][j] = data.draw(st.one_of(
                st.floats().map(repr), CELL_TEXT,
                st.integers(1, 17).map(lambda digits: f"%.{digits}g" % formula),
            ))
        else:
            block = data.draw(st.sampled_from([1, 2]))  # raw_counts, populations
            edit = data.draw(st.sampled_from(["-3", "0", "2.5", "0.5", str(2**63)]))
            rows[1 + i + block * (n_locales + 1)][j] = edit
    with tempfile.TemporaryDirectory() as tmp:
        matrix = os.path.join(tmp, "matrix_deactivation.csv")
        with open(matrix, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        for step in ("detect", "heatmap"):
            out = os.path.join(tmp, step) if step == "detect" else os.path.join(tmp, "h.svg")
            option = ["--method", "global_iqr"] if step == "detect" else []
            err = stdio.StringIO()
            with contextlib.redirect_stderr(err):
                code = run(step, "--matrix", matrix, *option, "--out", out)
            assert code in (0, 3)
            if code == 3:
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
                assert "Traceback" not in err.getvalue()
                continue
            assert case != "count" or (block, edit) == (1, "0")  # the one valid count edit
            if step == "detect":
                with open(os.path.join(out, "ranked_global_iqr.csv"), newline="") as fh:
                    ranked = list(csv.reader(fh))[1:]
                assert len(ranked) == len({tuple(r[1:3]) for r in ranked}) == n_locales * n_cols
