"""Command-line pipelines over the library modules.

Every subcommand is file-in/file-out. `main` creates the output location,
runs one `cmd_*` and, when it succeeds, writes the run's one manifest
(argv, package version, `wall_s`, `peak_rss_mib` and the extras it returns): a
`manifest.json` in the `--out` directory, or `<svg>.manifest.json` beside
the SVG that `heatmap` writes. `rerun` replays a manifest, which must
reproduce byte-identical data outputs. Each `cmd_*` imports the library
modules it runs, so `diff`, `ingest` and `--help` load no numpy, and
`evaluate` can pin one BLAS thread before numpy loads and run its sweep on
a worker process per core. Only `diff` parses snapshots: `matrix` and
`features` read the census and election calendar of its manifest and the
reference records it writes beside `changes.csv`, once that manifest
matches their `--changes`, `--snapshots` files and `--schema` and the
`voters/` files it wrote. Exit codes: 0 success, 2 usage error, 3
data/config error.

The VRF_SENTINEL_LOG environment variable sets the log level.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime as dt
import glob
import io
import json
import logging
import os
import resource
import sys
import time
from collections import Counter
from collections.abc import Iterable, Iterator

from . import __version__, vrf_io
from .errors import DataError, FileParseError, VrfError
from .records import ChangeRecord, ChangeType, Snapshot

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_DATA = 3

LABEL_COLUMNS = ("locale", "interval_start", "change_type", "label")


def _write_json(path: str, payload: dict) -> None:
    """The JSON files of the CLI: sorted keys, one-space indent, a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _schema(path: str | None) -> vrf_io.SnapshotSchema:
    return vrf_io.load_schema(path) if path else vrf_io.identity_schema()


def _snapshot_paths(snapshot_dir: str) -> list[str]:
    """The directory's snapshot files, in date order (ISO dates sort by name)."""
    paths = sorted(glob.glob(os.path.join(snapshot_dir, "snapshot_*.csv")))
    if not paths:
        raise VrfError(f"no snapshot_*.csv files under {snapshot_dir}")
    return paths


def _sha256(path: str) -> str:
    import hashlib  # loads OpenSSL, ~3.6 MiB of RSS that only the diff steps need

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 18), b""):
            digest.update(block)
    return digest.hexdigest()


def _read_record(paths: list[str], schema: vrf_io.SnapshotSchema) -> dict:
    """What `diff` records of what it read, for `matrix` and `features` to
    check: each snapshot file's name and sha256, and the parsed schema."""
    return {
        "inputs": [[os.path.basename(path), _sha256(path)] for path in paths],
        "schema": json.loads(json.dumps(vars(schema), default=str)),
    }


def _output_digests(changes: str, dates: list[str]) -> dict[str, str]:
    """Relative path -> sha256 of each file `diff` wrote beside `changes`:
    `changes.csv` and the reference records of each census date, the only
    files of its `voters/` that `features` reads."""
    where = os.path.dirname(changes) or "."
    names = [f"voters/snapshot_{date}.csv" for date in dates]
    return {"changes.csv": _sha256(changes), **{n: _sha256(os.path.join(where, n)) for n in names}}


def _census_sha256(census: dict, calendar: list) -> str:
    """sha256 of the census and calendar as canonical JSON, which `diff`
    records so that `matrix` and `features` notice an edited value."""
    import hashlib

    text = json.dumps([census, calendar], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _count(value, least: int = 0) -> int:
    """A count in diff's manifest: a JSON integer below 2^53, the bound
    `csv_to_matrix` puts on the counts of a matrix file, which reads them
    as floats."""
    if type(value) is not int or not least <= value < 2**53:
        raise ValueError(f"counts must be integers from {least} to 2^53 - 1")
    return value


def _diff_output(args: argparse.Namespace) -> tuple[str, dict, dict, dict]:
    """The directory of the `diff` run that wrote `--changes`, and the
    snapshot counts, census and election tally of its manifest, once that
    manifest shows the run read the `--snapshots` files under the
    `--schema` and wrote `--changes` and its `voters/` files as they now
    stand. Each error names `--changes`."""
    where = os.path.dirname(args.changes) or "."
    path = os.path.join(where, "manifest.json")

    def stale(reason: str) -> DataError:
        return DataError(f"{args.changes}: {reason}; rerun diff over these snapshots")

    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError, RecursionError):
        raise stale("no diff manifest beside --changes") from None
    try:
        counts = {key: manifest["counts"][key] for key in ("snapshots", "rows", "row_issues")}
        census = {
            dt.date.fromisoformat(date): {locale: _count(n) for locale, n in voters.items()}
            for date, voters in manifest["census"].items()
        }
        elections = {}
        for election_id, date, primary, turnout in manifest["calendar"]:
            if type(primary) is not bool:
                raise ValueError("primary flags must be true or false")
            elections[election_id] = (dt.date.fromisoformat(date), primary, _count(turnout, 1))
    except (ValueError, RecursionError, KeyError, TypeError, AttributeError) as exc:
        raise stale(f"{path} is not a manifest diff wrote ({exc})") from None
    if manifest.get("census_sha256") != _census_sha256(manifest["census"], manifest["calendar"]):
        raise stale(f"census or calendar differs from what diff recorded in {path}")
    read = _read_record(_snapshot_paths(args.snapshots), _schema(args.schema))
    if {key: manifest.get(key) for key in read} != read:
        raise stale("diff read other snapshot files or another schema")
    try:
        outputs = _output_digests(args.changes, [date.isoformat() for date in sorted(census)])
    except FileNotFoundError:
        outputs = None
    if manifest.get("outputs") != outputs:
        raise stale("changes.csv or a voters/ file is missing or differs from what diff wrote")
    return where, counts, census, elections


def _peak_rss_mib() -> float:
    """The peak RSS so far of this process or of its largest child (evaluate's workers)."""
    selves = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    return max(resource.getrusage(who).ru_maxrss for who in selves) / 1024


class _Stages(list):
    """A manifest's `stages`: each stage's wall time and the peak RSS after
    it, in run order. `end(name)` closes the stage begun when the last one
    ended, or when this list was made."""

    def __init__(self) -> None:
        super().__init__()
        self._clock = time.perf_counter()

    def end(self, name: str) -> None:
        now = time.perf_counter()
        self.append({"stage": name, "wall_s": now - self._clock, "peak_rss_mib": _peak_rss_mib()})
        self._clock = now

    def after(self, items: Iterable, name: str) -> Iterator:
        """`items`, ending stage `name` once the last is taken."""
        yield from items
        self.end(name)


def _change_type(token: str) -> ChangeType:
    try:
        return ChangeType(token)
    except ValueError:
        raise VrfError(
            f"unknown change type {token!r} "
            f"(expected one of {', '.join(ct.value for ct in ChangeType)})"
        ) from None


# --- subcommands ---------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> dict:
    from . import modmatrix, synthgen

    outdir = args.out
    if args.preset == "matrix":
        config = synthgen.planted_anomaly_matrix_config(seed=args.seed)
        matrix, truth = synthgen.generate_matrix_scenario(config)
        modmatrix.matrix_to_csv(matrix, os.path.join(outdir, f"matrix_{matrix.change_type.value}.csv"))
        _write_json(os.path.join(outdir, "matrix_truth.json"), {
            "anomaly_cells": [[r.locale_index, r.interval_index] for r in truth.anomaly_refs],
            "event_intervals": list(truth.event_intervals),
            "background_mean": truth.background_mean,
        })
        return {}

    config = {
        "pair": synthgen.snapshot_pair_config,
        "small": synthgen.small_scenario_config,
        "labeled": synthgen.labeled_scenario_config,
    }[args.preset](seed=args.seed)
    snap_dir = os.path.join(outdir, "snapshots")
    os.makedirs(snap_dir, exist_ok=True)
    truth = None
    for snapshot, truth in synthgen.iter_scenario_snapshots(config):
        vrf_io.write_snapshot(
            snapshot,
            os.path.join(snap_dir, f"snapshot_{snapshot.snapshot_date.isoformat()}.csv"),
        )
    with open(os.path.join(outdir, "groundtruth.json"), "w", encoding="utf-8") as fh:
        fh.write(truth.to_json())
        fh.write("\n")
    with open(os.path.join(outdir, "schema.cfg"), "w", encoding="utf-8") as fh:
        for field in vrf_io.LOGICAL_FIELDS:
            fh.write(f"{field} = {field}\n")
    if args.preset == "labeled":
        labeled = sorted(synthgen.scenario_labels(truth, ChangeType.DEACTIVATION))
        with open(os.path.join(outdir, "labels.csv"), "w", newline="", encoding="utf-8") as fh:
            fh.write(vrf_io.csv_line(LABEL_COLUMNS))
            fh.writelines(
                vrf_io.csv_line((
                    locale, truth.interval(interval_index).start.isoformat(),
                    ChangeType.DEACTIVATION.value, label,
                ))
                for locale, interval_index, label in labeled
            )
    return {}


def cmd_ingest(args: argparse.Namespace) -> dict:
    issues: list[vrf_io.RowIssue] = []
    snapshot = vrf_io.parse_snapshot(args.snapshot, _schema(args.schema), issues)
    _write_json(os.path.join(args.out, "ingest_summary.json"), {
        "snapshot_date": snapshot.snapshot_date.isoformat(),
        "records": len(snapshot),
        "locale_counts": dict(sorted(snapshot.locale_counts.items())),
        "row_issues": [[i.line, i.field, i.message] for i in issues],
    })
    return {}


def cmd_diff(args: argparse.Namespace) -> dict:
    paths = _snapshot_paths(args.snapshots)
    schema = _schema(args.schema)
    stream = vrf_io.SnapshotStream(schema)
    voters = os.path.join(args.out, "voters")
    os.makedirs(voters, exist_ok=True)
    census, by_type, row_issues = {}, Counter(), Counter()

    def write_references(date: dt.date, references: dict) -> None:
        name = f"snapshot_{date.isoformat()}.csv"
        vrf_io.write_snapshot(Snapshot(date, references, {}), os.path.join(voters, name))

    def pairs() -> Iterator[ChangeRecord]:
        """Each pair's changes in file order. A snapshot's reference records
        (`ChangeRecord.reference_date`) are written once the pair after it is diffed."""
        references = {}
        for path in paths:
            issues: list[vrf_io.RowIssue] = []
            anterior, posterior = stream.read(path, issues)
            row_issues.update(issue.field for issue in issues)
            census[posterior.snapshot_date.isoformat()] = posterior.locale_counts
            if anterior is not None:
                changes = vrf_io.diff_snapshots(anterior, posterior)
                later = {}
                for change in changes:
                    if change.reference_date == anterior.snapshot_date:
                        references[change.voter_id] = anterior.records[change.voter_id]
                    else:
                        later[change.voter_id] = posterior.records[change.voter_id]
                write_references(anterior.snapshot_date, references)
                references = later
                by_type.update(change.change_type for change in changes)
                yield from changes
            del anterior, posterior  # the next read must not hold this pair's records too
        write_references(stream.date, references)

    changes_path = os.path.join(args.out, "changes.csv")
    vrf_io.changes_to_csv(pairs(), changes_path)
    counts = {
        "snapshots": len(paths),
        "rows": sum(sum(voters.values()) for voters in census.values()),
        "row_issues": dict(sorted(row_issues.items())),
        "rows_reused": stream.rows_reused,
        "changes": {change_type.value: by_type[change_type] for change_type in ChangeType},
    }
    # a list keeps the elections in the order first seen, which `eligible()` follows
    calendar = [[e, d.isoformat(), primary, n] for e, (d, primary, n) in stream.elections.items()]
    return {
        "counts": counts, "census": census, "calendar": calendar,
        "census_sha256": _census_sha256(census, calendar),
        **_read_record(paths, schema),
        "outputs": _output_digests(changes_path, list(census)),
    }


def cmd_matrix(args: argparse.Namespace) -> dict:
    from . import modmatrix

    stages = _Stages()
    change_type = _change_type(args.change_type)
    _, counts, census, _ = _diff_output(args)
    stages.end("check")
    matrix = modmatrix.build_matrix(
        stages.after(vrf_io.csv_to_changes(args.changes), "read_changes"),
        change_type,
        interval_days=args.interval_days,
        populations=census,
    )
    spectrum = modmatrix.top_singular_values(matrix, min(20, min(matrix.shape)))
    stages.end("compute")
    modmatrix.matrix_to_csv(matrix, os.path.join(args.out, f"matrix_{change_type.value}.csv"))
    with open(
        os.path.join(args.out, f"singular_values_{change_type.value}.csv"),
        "w", encoding="utf-8",
    ) as fh:
        fh.write("rank,singular_value\n")
        for rank, value in enumerate(spectrum, start=1):
            fh.write(f"{rank},{value!r}\n")
    stages.end("write")
    return {"counts": {**counts, "cells": matrix.values.size}, "stages": stages}


def cmd_detect(args: argparse.Namespace) -> dict:
    from . import detectors, modmatrix, plots

    stages = _Stages()
    matrix = modmatrix.csv_to_matrix(args.matrix)
    # scoring reads the values grid alone: the count grids go before it
    values, locales, intervals = matrix.values, matrix.locales, matrix.intervals
    change_type = matrix.change_type.value
    del matrix
    stages.end("read")
    overrides = {}
    if args.method == "nmf" and args.k is not None:
        overrides["k"] = args.k
    if args.method == "rpca" and args.lambda_ is not None:
        overrides["lam"] = args.lambda_
    method = args.method
    if method in ("cl_std", "cl_iqr"):
        if args.window < 0:
            raise VrfError(f"--window must be >= 0, got {args.window}")
        method = f"{method}_{2 * args.window + 1}"
    scores, params = detectors.score_with_method(values, method, **overrides)
    stages.end("score")
    order = detectors.rank_entries(scores, values)
    del values
    stages.end("rank")
    scored = detectors.ScoreMatrix(method, scores, locales, intervals, params)
    names = (f"scores_{method}.csv", f"ranked_{method}.csv", f"scores_{method}.svg")
    scores_path, ranked_path, svg_path = (os.path.join(args.out, name) for name in names)
    detectors.scores_to_csv(scored, scores_path)
    stages.end("write_scores")
    detectors.ranked_to_csv(scored, order, ranked_path)
    del order
    stages.end("write_ranked")
    plots.render_heatmap(
        scores,
        locales,
        [iv.start.isoformat() for iv in intervals],
        svg_path,
        title=f"{method} scores ({change_type})",
    )
    stages.end("heatmap")
    converged = bool(params.get("converged", True))
    if not converged:
        logger.warning("detector %s did not converge; see params in scores CSV", method)
    traces = {k: v for k, v in params.items() if k in ("iterations", "residual")}
    sizes = {name: os.path.getsize(os.path.join(args.out, name)) for name in names}
    return {"converged": converged, **traces, "output_bytes": sizes, "stages": stages}


# the BLAS thread pin of evaluate's sweep processes (numpy's wheels link OpenBLAS)
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1"}


def _sweep_workers() -> tuple[int, dict | None]:
    """The processes for evaluate's sweep and the BLAS pin they run under:
    one per usable core, each on one BLAS thread, when numpy is not loaded
    yet, so that the pin takes effect; otherwise (the CLI called in a
    process that already loaded numpy) one, this process, at its own
    threading. Sweep outputs are the same either way."""
    if "numpy" in sys.modules:
        return 1, None
    os.environ.update(BLAS_PIN)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)), BLAS_PIN
    return os.cpu_count() or 1, BLAS_PIN


def cmd_evaluate(args: argparse.Namespace) -> dict:
    workers, blas_pin = _sweep_workers()  # before numpy loads
    from . import detectors, evalharness, modmatrix

    methods = [m.strip() for m in args.methods.split(",")] if args.methods else detectors.METHOD_IDS
    for method in methods:  # every id, before the first sweep
        detectors.check_method(method)
    matrix = modmatrix.csv_to_matrix(args.matrix)
    # options left unset take the library defaults
    options = {"fraction": args.fraction, "k": args.top_k, "grid_points": args.grid_points}
    options = {name: value for name, value in options.items() if value is not None}
    results = evalharness.gamma_sweeps(
        matrix.values, methods, seed=args.seed, workers=workers, **options
    )
    evalharness.sweep_report(results, args.out, change_type=matrix.change_type.value)
    for result in results:
        if result.unconverged:
            logger.warning(
                "detector %s did not converge at %d of %d sweep points",
                result.method, result.unconverged, len(result.gamma_grid),
            )
    return {
        "unconverged": {result.method: result.unconverged for result in results},
        "iterations": {result.method: result.iterations for result in results},
        "workers": workers,
        "blas_pin": blas_pin,
    }


def _read_labels(path: str) -> dict:
    """(locale, interval start, change type) -> `groupfeatures.EventLabel`,
    one row per key."""
    from .groupfeatures import EventLabel

    labels = {}
    for number, (locale, start, change_type, label) in vrf_io.read_table(path, LABEL_COLUMNS):
        try:
            key = (locale, dt.date.fromisoformat(start), _change_type(change_type))
            if key in labels:
                raise ValueError(f"a second label for {locale}, {start}, {change_type}")
            labels[key] = EventLabel(label)
        except ValueError as exc:
            raise FileParseError(f"{path}:{number}: {exc}") from None
    return labels


def cmd_features(args: argparse.Namespace) -> dict:
    from . import groupfeatures

    stages = _Stages()
    labels = _read_labels(args.labels) if args.labels else {}
    change_types = (_change_type(args.change_type),) if args.change_type else None
    where, counts, census, elections = _diff_output(args)
    stages.end("check")
    references = (  # diff's reference-record files, one per census date
        vrf_io.parse_snapshot(
            os.path.join(where, "voters", f"snapshot_{date.isoformat()}.csv"),
            vrf_io.identity_schema(),
        )
        for date in sorted(census)
    )
    # the references are read one at a time, each with its voters' rows computed
    vectors = groupfeatures.compute_group_features(
        stages.after(vrf_io.csv_to_changes(args.changes), "read_changes"),
        stages.after(references, "read_references"),
        groupfeatures.ElectionCalendar(elections),
        interval_days=args.interval_days,
        labels=labels,
        change_types=change_types,
    )
    stages.end("compute")
    groupfeatures.features_to_csv(vectors, os.path.join(args.out, "group_features.csv"))
    stages.end("write")
    matched = sum(v.label is not None for v in vectors)
    label_counts = {"read": len(labels), "matched": matched, "unmatched": len(labels) - matched}
    return {"counts": {**counts, "labels": label_counts}, "stages": stages}


def cmd_train(args: argparse.Namespace) -> dict:
    from . import gbt, groupfeatures

    vectors = groupfeatures.features_from_csv(args.features)
    labeled = [v for v in vectors if v.label is not None]
    if len(labeled) < 4:
        raise VrfError(f"training needs labeled groups; found {len(labeled)}")
    matrix, scaler = groupfeatures.standardize(labeled)
    labels = [v.label.value for v in labeled]
    config = gbt.GbtConfig(
        n_estimators=args.n_estimators,
        max_depth=args.max_depth,
        learning_rate=args.learning_rate,
    )
    train_idx, holdout_idx = gbt.split_holdout(labels, fraction=args.holdout, seed=args.seed)
    model = gbt.train(matrix[train_idx], [labels[i] for i in train_idx], config)
    report = gbt.evaluate(model, matrix[holdout_idx], [labels[i] for i in holdout_idx])

    gbt.save_model(model, os.path.join(args.out, "model.json"))
    with open(os.path.join(args.out, "scaler.json"), "w", encoding="utf-8") as fh:
        fh.write(scaler.to_json())
        fh.write("\n")
    with open(os.path.join(args.out, "eval_metrics.csv"), "w", encoding="utf-8") as fh:
        fh.write("metric,value\n")
        fh.write(f"accuracy,{report.accuracy:.6f}\n")
        fh.write(f"f1_weighted,{report.f1_weighted:.6f}\n")
        fh.write(f"f1_macro,{report.f1_macro:.6f}\n")
        fh.write(f"holdout_size,{report.holdout_size}\n")
    with open(os.path.join(args.out, "confusion.csv"), "w", encoding="utf-8") as fh:
        fh.write("truth\\predicted," + ",".join(report.classes) + "\n")
        for k, name in enumerate(report.classes):
            fh.write(name + "," + ",".join(str(int(v)) for v in report.confusion[k]) + "\n")
    logger.info(
        "holdout accuracy %.3f, weighted F1 %.3f (n=%d)",
        report.accuracy, report.f1_weighted, report.holdout_size,
    )
    return {}


def cmd_predict(args: argparse.Namespace) -> dict:
    import numpy as np

    from . import gbt, groupfeatures

    if not 0 <= args.threshold <= 1:  # also false for nan
        raise VrfError(f"--threshold must lie in [0, 1], got {args.threshold!r}")
    model = gbt.load_model(args.model)
    with open(args.scaler, encoding="utf-8") as fh:
        scaler = groupfeatures.FeatureScaler.from_json(fh.read(), args.scaler)
    vectors = groupfeatures.features_from_csv(args.features)
    if not vectors:
        raise DataError(f"{args.features}: no feature rows to predict")
    matrix = scaler.apply(np.vstack([v.features for v in vectors]))
    probs = np.atleast_2d(gbt.predict_proba(model, matrix))
    with open(os.path.join(args.out, "predictions.csv"), "w", newline="", encoding="utf-8") as fh:
        fh.write(vrf_io.csv_line((
            "locale", "interval_start", "change_type",
            *[f"p_{c}" for c in model.classes], "predicted", "explained",
        )))
        for v, row in zip(vectors, probs):
            top = int(row.argmax())
            explained = "yes" if row[top] >= args.threshold else "no"
            fh.write(vrf_io.csv_line((
                v.key.locale, v.key.interval_start.isoformat(), v.key.change_type.value,
                *[repr(float(p)) for p in row], model.classes[top], explained,
            )))
    return {}


def _highlight_cells(spec: str) -> set[tuple[int, int]]:
    """Parse "i,j;i,j" into (row, column) cells."""
    try:
        return {(int(i), int(j)) for i, j in (token.split(",") for token in spec.split(";"))}
    except ValueError:
        raise argparse.ArgumentTypeError(f'expected cells as "i,j;i,j", got {spec!r}') from None


def cmd_heatmap(args: argparse.Namespace) -> dict:
    from . import detectors, modmatrix, plots

    if args.scores:
        scored = detectors.scores_from_csv(args.scores)
        grid = scored.scores
        rows = scored.locales
        cols = [iv.start.isoformat() for iv in scored.intervals]
        title = f"{scored.method} scores"
    else:
        matrix = modmatrix.csv_to_matrix(args.matrix)
        grid = matrix.values
        rows = matrix.locales
        cols = [iv.start.isoformat() for iv in matrix.intervals]
        title = f"{matrix.change_type.value} changes/day/1000"
    plots.render_heatmap(grid, rows, cols, args.out, title=title, highlight=args.highlight)
    return {"output_bytes": {os.path.basename(args.out): os.path.getsize(args.out)}}


def _replayed(manifest_path: str, out: str | None) -> tuple[list[str], argparse.Namespace]:
    """A manifest's argv, its `--out` value replaced by `out` if given, and its parse."""
    with open(manifest_path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise DataError(f"{manifest_path}: not a JSON manifest ({exc})") from None
    argv = manifest.get("argv") if isinstance(manifest, dict) else None
    if not isinstance(argv, list) or not all(isinstance(t, str) and "\0" not in t for t in argv):
        raise DataError(f"{manifest_path}: manifest needs an argv list of strings without NUL")
    if argv[:1] == ["rerun"]:
        raise DataError(f"{manifest_path}: a manifest cannot replay another rerun")
    if out:
        kept, tokens = [], iter(argv)
        for token in tokens:  # drop the stored --out, spelled "--out x" or "--out=x"
            if token == "--out":
                next(tokens, None)
            elif not token.startswith("--out="):
                kept.append(token)
        argv = kept + ["--out", out]
    printed = io.StringIO()
    try:  # argparse prints its usage, help or version, then exits; a replay prints none
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
            return argv, _build_parser().parse_args(argv)
    except SystemExit:
        reason = " ".join(printed.getvalue().partition("error: ")[2].split())  # on one line
        raise DataError(
            f"{manifest_path}: the CLI cannot run its argv: {reason or 'it runs no subcommand'}"
        ) from None


# --- argument parsing ------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrf-sentinel",
        description="voter-file change monitoring pipelines",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scenario")
    p.add_argument(
        "--preset", choices=("pair", "small", "labeled", "matrix"), default="small"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="parse and validate one snapshot file")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--schema")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("diff", help="diff snapshots into change records")
    p.add_argument("--snapshots", required=True, help="directory of snapshot_*.csv to diff")
    p.add_argument("--schema")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("matrix", help="aggregate changes into a modification matrix")
    p.add_argument("--changes", required=True)
    p.add_argument("--snapshots", required=True)
    p.add_argument("--schema")
    p.add_argument("--change-type", required=True)
    p.add_argument("--interval-days", type=int, default=7)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("detect", help="score and rank matrix entries")
    p.add_argument("--matrix", required=True)
    p.add_argument(
        "--method",
        default="cl_std",
        help="nmf, rpca, cl_std, cl_iqr (with --window), or any registry id",
    )
    p.add_argument("--k", type=int)
    p.add_argument("--window", type=int, default=2, help="cross-locale half-width w")
    p.add_argument("--lambda", dest="lambda_", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", help="gamma sweep over detectors")
    p.add_argument("--matrix", required=True)
    p.add_argument("--methods", help="comma-separated method ids (default: all ten)")
    p.add_argument("--fraction", type=float)
    p.add_argument("--top-k", type=int)
    p.add_argument("--grid-points", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("features", help="compute group feature vectors")
    p.add_argument("--changes", required=True)
    p.add_argument("--snapshots", required=True)
    p.add_argument("--schema")
    p.add_argument("--labels")
    p.add_argument("--change-type")
    p.add_argument("--interval-days", type=int, default=7)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train the event-label classifier")
    p.add_argument("--features", required=True)
    p.add_argument("--holdout", type=float, default=0.2)
    p.add_argument("--n-estimators", type=int, default=50)
    p.add_argument("--max-depth", type=int, default=3)
    p.add_argument("--learning-rate", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="label groups with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--scaler", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--threshold", type=float, default=0.95)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("heatmap", help="render a matrix or score CSV as SVG")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--matrix")
    source.add_argument("--scores")
    p.add_argument("--highlight", type=_highlight_cells, help='cells to outline, e.g. "0,0;3,14"')
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("rerun", help="replay a run manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", help="another output directory, or for a heatmap another SVG")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    logging.basicConfig(
        level=os.environ.get("VRF_SENTINEL_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "rerun":
            argv, args = _replayed(args.manifest, args.out)
        if getattr(args, "seed", 0) < 0:
            raise VrfError(f"--seed must be >= 0, got {args.seed!r}")
        if args.command == "heatmap":  # --out names the SVG; its manifest sits beside it
            outdir, manifest = os.path.dirname(args.out) or ".", f"{args.out}.manifest.json"
        else:
            outdir, manifest = args.out, os.path.join(args.out, "manifest.json")
        os.makedirs(outdir, exist_ok=True)
        start = time.perf_counter()
        extras = args.func(args)
        extras["wall_s"] = time.perf_counter() - start
        extras["peak_rss_mib"] = _peak_rss_mib()
        _write_json(
            manifest, {"command": args.command, "argv": argv, "package_version": __version__, **extras}
        )
    except (VrfError, OSError, UnicodeError) as exc:  # a file not UTF-8, or a path no name holds
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
