import csv
import datetime as dt
import gc
import json
import weakref

import numpy as np
import pytest

from vrf_sentinel import cli, groupfeatures, vrf_io
from vrf_sentinel.errors import FileParseError
from vrf_sentinel.groupfeatures import EventLabel
from vrf_sentinel.modmatrix import DateInterval
from vrf_sentinel.records import ChangeType


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
    parse = cli.vrf_io.parse_snapshot
    parsed = []
    most_alive = 0

    def tracked(*args, **kwargs):
        nonlocal most_alive
        gc.collect()
        most_alive = max(most_alive, sum(ref() is not None for ref in parsed))
        snapshot = parse(*args, **kwargs)
        parsed.append(weakref.ref(snapshot))
        return snapshot

    monkeypatch.setattr(cli.vrf_io, "parse_snapshot", tracked)
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
    assert len(parsed) == 21
    assert most_alive <= 2


def test_diff_pair_matches_sequence_rows(pipeline, tmp_path):
    synth = pipeline / "synth"
    anterior, posterior = sorted((synth / "snapshots").glob("snapshot_*.csv"))[:2]
    assert run(
        "diff", "--anterior", str(anterior), "--posterior", str(posterior),
        "--schema", str(synth / "schema.cfg"), "--out", str(tmp_path),
    ) == 0
    with open(pipeline / "diff" / "changes.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    date = anterior.stem.removeprefix("snapshot_")
    want = [header] + [r for r in rows if r[header.index("anterior_date")] == date]
    with open(tmp_path / "changes.csv", newline="") as fh:
        assert list(csv.reader(fh)) == want
    assert len(want) > 1


def record_counts(monkeypatch):
    """Wrap parse_snapshot to note how many records each call built."""
    parse = cli.vrf_io.parse_snapshot
    built = []

    def counted(*args, **kwargs):
        snapshot = parse(*args, **kwargs)
        built.append(len(snapshot.records))
        return snapshot

    monkeypatch.setattr(cli.vrf_io, "parse_snapshot", counted)
    return built


def test_matrix_builds_no_records(pipeline, tmp_path, monkeypatch):
    built = record_counts(monkeypatch)
    synth = pipeline / "synth"
    assert run(
        "matrix", "--changes", str(pipeline / "diff" / "changes.csv"),
        "--snapshots", str(synth / "snapshots"), "--schema", str(synth / "schema.cfg"),
        "--change-type", "deactivation", "--out", str(tmp_path),
    ) == 0
    assert built == [0] * 21
    for name in ("matrix_deactivation.csv", "singular_values_deactivation.csv"):
        assert (tmp_path / name).read_bytes() == (pipeline / "matrix" / name).read_bytes()


@pytest.mark.parametrize("change_type", [None, "deactivation"])
def test_features_match_fully_parsed_snapshots(pipeline, tmp_path, monkeypatch, change_type):
    synth = pipeline / "synth"
    changes = vrf_io.csv_to_changes(str(pipeline / "diff" / "changes.csv"))
    schema = vrf_io.load_schema(str(synth / "schema.cfg"))
    paths = sorted((synth / "snapshots").glob("snapshot_*.csv"))
    change_types = (ChangeType(change_type),) if change_type else None
    want = groupfeatures.compute_group_features(
        changes, (vrf_io.parse_snapshot(str(p), schema) for p in paths),
        interval_days=7, change_types=change_types,
    )
    groupfeatures.features_to_csv(want, str(tmp_path / "want.csv"))
    earliest = len(vrf_io.parse_snapshot(str(paths[0]), schema))

    built = record_counts(monkeypatch)
    extra = ["--change-type", change_type] if change_type else []
    assert run(
        "features", "--changes", str(pipeline / "diff" / "changes.csv"),
        "--snapshots", str(synth / "snapshots"), "--schema", str(synth / "schema.cfg"),
        *extra, "--out", str(tmp_path / "cli"),
    ) == 0
    assert (tmp_path / "cli" / "group_features.csv").read_bytes() == (
        tmp_path / "want.csv"
    ).read_bytes()
    # the earliest snapshot in full (for the calendar), later ones only grouped voters
    grouped = {c.voter_id for c in changes if change_types is None or c.change_type in change_types}
    assert built[0] == earliest
    assert all(n <= len(grouped) for n in built[1:])


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
        sum(vrf_io.parse_snapshot(str(p), schema, voter_ids=()).locale_counts.values())
        for p in (synth / "snapshots").glob("snapshot_*.csv")
    )
    for out in (pipeline / "diff", pipeline / "matrix", tmp_path / "features"):
        counts = read_counts(out)
        assert (counts["snapshots"], counts["rows"], counts["row_issues"]) == (21, rows, {})
        assert 0 < counts["rows_reused"] < rows
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
    }


def test_predictions_csv_quotes_locale_text(tmp_path):
    locales = ['Polk, "IA"', "Story\nCounty", "Ames"]
    interval = DateInterval(dt.date(2019, 1, 3), dt.date(2019, 1, 10))
    vectors = [
        groupfeatures.GroupFeatureVector(
            key=groupfeatures.GroupKey(locales[i % 3], interval, ChangeType.DEACTIVATION),
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
    header = json.loads(open(out / "scores_nmf.csv").readline())
    assert header["params"]["k"] == 5
    assert (out / "ranked_nmf.csv").exists()
    assert (out / "scores_nmf.svg").exists()
    manifest = json.loads(open(out / "manifest.json").read())
    assert manifest["converged"] is True


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
    top = open(out / "ranked_cl_std_3.csv").readlines()[1].strip().split(",")
    truth = json.load(open(pipeline / "synth" / "groundtruth.json"))
    planted = [c for c in truth["cell_causes"] if c[3] == "anomaly"]
    assert [top[1], top[2]] in [[loc, _interval_start(truth, idx)] for loc, idx, _, _ in planted]


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


def test_heatmap_highlight(pipeline, tmp_path):
    svg = tmp_path / "heat.svg"
    assert run(
        "heatmap", "--matrix", str(pipeline / "matrix" / "matrix_deactivation.csv"),
        "--highlight", "0,0;2,3", "--out", str(svg),
    ) == 0
    text = svg.read_text()
    assert text.count('class="highlight"') == 2
    assert "min=" in text


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


def test_matrix_rejects_repeated_snapshot_date(pipeline, tmp_path, capsys):
    synth = pipeline / "synth"
    schema = tmp_path / "schema.cfg"
    schema.write_text((synth / "schema.cfg").read_text() + "snapshot_date = 2018-06-04\n")
    assert run(
        "matrix", "--changes", str(pipeline / "diff" / "changes.csv"),
        "--snapshots", str(synth / "snapshots"), "--schema", str(schema),
        "--change-type", "deactivation", "--out", str(tmp_path / "matrix"),
    ) == 3
    assert "two snapshots dated 2018-06-04" in capsys.readouterr().err


LABEL_HEADER = "locale,interval_start,change_type,label\n"


def test_labels_skip_blank_lines(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(LABEL_HEADER + "L1,2019-01-03,deactivation,other\n\n")
    assert cli._read_labels(str(path)) == {
        ("L1", dt.date(2019, 1, 3), ChangeType.DEACTIVATION): EventLabel.OTHER
    }


@pytest.mark.parametrize(
    "row", ["L1,2019-01-03,deactivation\n", "L1,2019-01-03,deactivation,psychic\n"]
)
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
    first = pipeline / "detect_nmf"
    replay = tmp_path / "replay"
    assert run("rerun", "--manifest", str(first / "manifest.json"), "--out", str(replay)) == 0
    for name in ("scores_nmf.csv", "ranked_nmf.csv", "scores_nmf.svg"):
        assert (replay / name).read_bytes() == (first / name).read_bytes()


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
        line.strip().split(",") for line in open(train / "eval_metrics.csv").readlines()[1:]
    )
    assert float(metrics["accuracy"]) >= 0.8
    predict = tmp_path / "predict"
    assert run(
        "predict", "--model", str(train / "model.json"),
        "--scaler", str(train / "scaler.json"),
        "--features", str(feats / "group_features.csv"),
        "--threshold", "0.95", "--out", str(predict),
    ) == 0
    lines = open(predict / "predictions.csv").readlines()
    assert lines[0].startswith("locale,interval_start,change_type,p_")
    n_groups = len(open(feats / "group_features.csv").readlines()) - 1
    assert len(lines) == 1 + n_groups  # every group scored, labeled or not
    assert n_groups >= 184


def test_ingest_summary(pipeline, tmp_path):
    synth = pipeline / "synth"
    snapshot = sorted((synth / "snapshots").glob("snapshot_*.csv"))[0]
    out = tmp_path / "ingest"
    assert run(
        "ingest", "--snapshot", str(snapshot),
        "--schema", str(synth / "schema.cfg"), "--out", str(out),
    ) == 0
    summary = json.load(open(out / "ingest_summary.json"))
    assert summary["records"] > 0
    assert summary["row_issues"] == []
