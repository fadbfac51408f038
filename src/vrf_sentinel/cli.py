"""Command-line pipelines over the library modules.

Every subcommand is file-in/file-out and writes a `manifest.json` echoing
its resolved arguments and seed into the output directory; `rerun` replays
a manifest, which must reproduce byte-identical data outputs. Exit codes:
0 success, 2 usage error, 3 data/config error.

The VRF_SENTINEL_LOG environment variable sets the log level.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import glob
import itertools
import json
import logging
import os
import sys
from collections import Counter
from collections.abc import Collection, Iterator

import numpy as np

from . import __version__, detectors, evalharness, gbt, groupfeatures, modmatrix, plots, synthgen, vrf_io
from .errors import DataError, FileParseError, VrfError
from .records import ChangeType, Snapshot

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3


def _write_manifest(outdir: str, command: str, argv: list[str], **extras) -> None:
    os.makedirs(outdir, exist_ok=True)
    payload = {
        "command": command,
        "argv": argv,
        "package_version": __version__,
    }
    payload.update(extras)
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
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


def _load_snapshots(
    paths: list[str],
    schema_path: str | None,
    counts: dict,
    voter_ids: Collection[str] | None = None,
    earliest_in_full: bool = False,
) -> Iterator[Snapshot]:
    """Parse each file when the consumer asks for it, so a consumer that
    keeps only what it needs never holds every snapshot at once. Records
    are built only for `voter_ids` (every voter when None), but for every
    voter of the earliest file when `earliest_in_full`. One line memo spans
    the stream, so a line byte-identical to a row of the previous file is
    not parsed again. Once the stream is read to its end, `counts` holds
    its snapshots, valid rows, row issues by field and reused rows."""
    schema = _schema(schema_path)
    memo = vrf_io.LineMemo()
    rows = 0
    row_issues: Counter[str] = Counter()
    for i, path in enumerate(paths):
        issues: list[vrf_io.RowIssue] = []
        snapshot = vrf_io.parse_snapshot(
            path, schema, issues=issues, memo=memo,
            voter_ids=None if i == 0 and earliest_in_full else voter_ids,
        )
        rows += sum(snapshot.locale_counts.values())
        row_issues.update(issue.field for issue in issues)
        yield snapshot
    counts.update(
        snapshots=len(paths), rows=rows, row_issues=dict(sorted(row_issues.items())),
        rows_reused=memo.reused,
    )


def _change_type(token: str) -> ChangeType:
    try:
        return ChangeType(token)
    except ValueError:
        raise VrfError(
            f"unknown change type {token!r} "
            f"(expected one of {', '.join(ct.value for ct in ChangeType)})"
        ) from None


# --- subcommands ---------------------------------------------------------------


def cmd_synth(args: argparse.Namespace, argv: list[str]) -> int:
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    if args.preset == "matrix":
        config = synthgen.planted_anomaly_matrix_config(seed=args.seed)
        matrix, truth = synthgen.generate_matrix_scenario(config)
        modmatrix.matrix_to_csv(matrix, os.path.join(outdir, f"matrix_{matrix.change_type.value}.csv"))
        with open(os.path.join(outdir, "matrix_truth.json"), "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "anomaly_cells": [[r.locale_index, r.interval_index] for r in truth.anomaly_refs],
                    "event_intervals": list(truth.event_intervals),
                    "background_mean": truth.background_mean,
                },
                fh,
                sort_keys=True,
                indent=1,
            )
            fh.write("\n")
        _write_manifest(outdir, "synth", argv)
        return EXIT_OK

    if args.preset == "pair":
        config = synthgen.snapshot_pair_config(seed=args.seed)
    elif args.preset == "labeled":
        config = synthgen.labeled_scenario_config(seed=args.seed)
    elif args.preset == "full":
        config = synthgen.full_scenario_config(seed=args.seed)
    else:
        config = synthgen.small_scenario_config(seed=args.seed)

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
        labeled = synthgen.scenario_labels(truth, ChangeType.DEACTIVATION)
        with open(os.path.join(outdir, "labels.csv"), "w", encoding="utf-8") as fh:
            fh.write("locale,interval_start,change_type,label\n")
            for locale, interval_index, label in sorted(labeled):
                start = truth.interval(interval_index).start.isoformat()
                fh.write(f"{locale},{start},deactivation,{label}\n")
    _write_manifest(outdir, "synth", argv)
    return EXIT_OK


def cmd_ingest(args: argparse.Namespace, argv: list[str]) -> int:
    issues: list[vrf_io.RowIssue] = []
    snapshot = vrf_io.parse_snapshot(
        args.snapshot,
        _schema(args.schema),
        snapshot_date=dt.date.fromisoformat(args.date) if args.date else None,
        issues=issues,
    )
    os.makedirs(args.out, exist_ok=True)
    summary = {
        "snapshot_date": snapshot.snapshot_date.isoformat(),
        "records": len(snapshot),
        "locale_counts": dict(sorted(snapshot.locale_counts.items())),
        "row_issues": [[i.line, i.field, i.message] for i in issues],
    }
    with open(os.path.join(args.out, "ingest_summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)
        fh.write("\n")
    _write_manifest(args.out, "ingest", argv)
    return EXIT_OK


def cmd_diff(args: argparse.Namespace, argv: list[str]) -> int:
    os.makedirs(args.out, exist_ok=True)
    if args.snapshots:
        paths = _snapshot_paths(args.snapshots)
    elif args.anterior and args.posterior:
        paths = [args.anterior, args.posterior]
    else:
        raise VrfError("diff needs either --snapshots or both --anterior and --posterior")
    changes = []
    counts: dict = {}
    for anterior, posterior in itertools.pairwise(_load_snapshots(paths, args.schema, counts)):
        changes.extend(vrf_io.diff_snapshots(anterior, posterior, strict_status=args.strict_status))
    vrf_io.changes_to_csv(changes, os.path.join(args.out, "changes.csv"))
    _write_manifest(args.out, "diff", argv, counts=counts)
    return EXIT_OK


def cmd_matrix(args: argparse.Namespace, argv: list[str]) -> int:
    change_type = _change_type(args.change_type)
    changes = vrf_io.csv_to_changes(args.changes)
    populations = {}
    counts: dict = {}
    paths = _snapshot_paths(args.snapshots)
    for snapshot in _load_snapshots(paths, args.schema, counts, voter_ids=()):
        if snapshot.snapshot_date in populations:
            raise DataError(f"two snapshots dated {snapshot.snapshot_date}")
        populations[snapshot.snapshot_date] = snapshot.locale_counts
    matrix = modmatrix.build_matrix(
        changes,
        change_type,
        interval_days=args.interval_days,
        populations=populations,
    )
    os.makedirs(args.out, exist_ok=True)
    modmatrix.matrix_to_csv(matrix, os.path.join(args.out, f"matrix_{change_type.value}.csv"))
    spectrum = modmatrix.top_singular_values(matrix, min(20, min(matrix.shape)))
    with open(
        os.path.join(args.out, f"singular_values_{change_type.value}.csv"),
        "w", encoding="utf-8",
    ) as fh:
        fh.write("rank,singular_value\n")
        for rank, value in enumerate(spectrum, start=1):
            fh.write(f"{rank},{value!r}\n")
    _write_manifest(args.out, "matrix", argv, counts=counts)
    return EXIT_OK


def cmd_detect(args: argparse.Namespace, argv: list[str]) -> int:
    matrix = modmatrix.csv_to_matrix(args.matrix)
    overrides = {}
    if args.method == "nmf":
        overrides["k"] = args.k
    if args.method == "rpca" and args.lambda_ is not None:
        overrides["lam"] = args.lambda_
    method = args.method
    if method in ("cl_std", "cl_iqr"):
        method = f"{method}_{2 * args.window + 1}"
    scored = detectors.score_with_method(matrix, method, seed=args.seed, **overrides)
    ranked = detectors.rank_entries(scored)
    os.makedirs(args.out, exist_ok=True)
    detectors.scores_to_csv(scored, os.path.join(args.out, f"scores_{method}.csv"))
    detectors.ranked_to_csv(ranked, os.path.join(args.out, f"ranked_{method}.csv"))
    plots.render_heatmap(
        scored.scores,
        scored.locales,
        [iv.start.isoformat() for iv in scored.intervals],
        os.path.join(args.out, f"scores_{method}.svg"),
        title=f"{method} scores ({matrix.change_type.value})",
    )
    converged = bool(scored.params.get("converged", True))
    if not converged:
        logger.warning("detector %s did not converge; see params in scores CSV", method)
    _write_manifest(args.out, "detect", argv, converged=converged)
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace, argv: list[str]) -> int:
    matrix = modmatrix.csv_to_matrix(args.matrix)
    methods = args.methods.split(",") if args.methods else list(detectors.METHOD_IDS)
    results = []
    for method in methods:
        results.append(
            evalharness.gamma_sweep(
                matrix,
                method.strip(),
                fraction=args.fraction,
                k=args.top_k,
                grid_points=args.grid_points,
                seed=args.seed,
                fixed_mask=args.fixed_mask,
            )
        )
    evalharness.sweep_report(results, args.out, change_type=matrix.change_type.value)
    _write_manifest(args.out, "evaluate", argv)
    return EXIT_OK


def _read_labels(path: str) -> dict[tuple[str, dt.date, ChangeType], groupfeatures.EventLabel]:
    labels = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["locale", "interval_start", "change_type", "label"]:
            raise VrfError(f"{path}: expected label header locale,interval_start,change_type,label")
        for row in reader:
            if not row:
                continue
            if len(row) != 4:
                raise FileParseError(
                    f"{path}: line {reader.line_num}: expected 4 cells, got {len(row)}"
                )
            locale, start, change_type, label = row
            try:
                key = (locale, dt.date.fromisoformat(start), _change_type(change_type))
                labels[key] = groupfeatures.EventLabel(label)
            except ValueError as exc:
                raise FileParseError(f"{path}: line {reader.line_num}: {exc}") from None
    return labels


def cmd_features(args: argparse.Namespace, argv: list[str]) -> int:
    labels = _read_labels(args.labels) if args.labels else None
    change_types = (_change_type(args.change_type),) if args.change_type else None
    changes = vrf_io.csv_to_changes(args.changes)
    paths = _snapshot_paths(args.snapshots)
    grouped = {c.voter_id for c in changes if change_types is None or c.change_type in change_types}
    counts: dict = {}
    # the earliest snapshot is read in full: the election calendar counts every voter in it
    snapshots = _load_snapshots(paths, args.schema, counts, voter_ids=grouped, earliest_in_full=True)
    vectors = groupfeatures.compute_group_features(
        changes,
        snapshots,
        interval_days=args.interval_days,
        labels=labels,
        change_types=change_types,
    )
    os.makedirs(args.out, exist_ok=True)
    groupfeatures.features_to_csv(vectors, os.path.join(args.out, "group_features.csv"))
    _write_manifest(args.out, "features", argv, counts=counts)
    return EXIT_OK


def cmd_train(args: argparse.Namespace, argv: list[str]) -> int:
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
        holdout_fraction=args.holdout,
        seed=args.seed,
    )
    train_idx, holdout_idx = gbt.split_holdout(labels, fraction=args.holdout, seed=args.seed)
    model = gbt.train(matrix[train_idx], [labels[i] for i in train_idx], config)
    report = gbt.evaluate(model, matrix[holdout_idx], [labels[i] for i in holdout_idx])

    os.makedirs(args.out, exist_ok=True)
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
    _write_manifest(args.out, "train", argv)
    logger.info(
        "holdout accuracy %.3f, weighted F1 %.3f (n=%d)",
        report.accuracy, report.f1_weighted, report.holdout_size,
    )
    return EXIT_OK


def cmd_predict(args: argparse.Namespace, argv: list[str]) -> int:
    model = gbt.load_model(args.model)
    with open(args.scaler, encoding="utf-8") as fh:
        scaler = groupfeatures.FeatureScaler.from_json(fh.read())
    vectors = groupfeatures.features_from_csv(args.features)
    matrix = scaler.apply(np.vstack([v.features for v in vectors]))
    probs = np.atleast_2d(gbt.predict_proba(model, matrix))
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "predictions.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = vrf_io.csv_writer(fh, (v.key.locale for v in vectors))
        writer.writerow(
            ["locale", "interval_start", "change_type"]
            + [f"p_{c}" for c in model.classes]
            + ["predicted", "explained"]
        )
        for v, row in zip(vectors, probs):
            top = int(row.argmax())
            explained = "yes" if row[top] >= args.threshold else "no"
            writer.writerow(
                [v.key.locale, v.key.interval.start.isoformat(), v.key.change_type.value]
                + [repr(float(p)) for p in row]
                + [model.classes[top], explained]
            )
    _write_manifest(args.out, "predict", argv)
    return EXIT_OK


def _highlight_cells(spec: str) -> set[tuple[int, int]]:
    """Parse "i,j;i,j" into (row, column) cells."""
    try:
        return {(int(i), int(j)) for i, j in (token.split(",") for token in spec.split(";"))}
    except ValueError:
        raise argparse.ArgumentTypeError(f'expected cells as "i,j;i,j", got {spec!r}') from None


def cmd_heatmap(args: argparse.Namespace, argv: list[str]) -> int:
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
    outdir = os.path.dirname(args.out) or "."
    os.makedirs(outdir, exist_ok=True)
    plots.render_heatmap(grid, rows, cols, args.out, title=title, highlight=args.highlight)
    _write_manifest(outdir, "heatmap", argv)
    return EXIT_OK


def cmd_rerun(args: argparse.Namespace, argv: list[str]) -> int:
    del argv
    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    stored = list(manifest["argv"])
    if args.out:
        for i, token in enumerate(stored):
            if token == "--out" and i + 1 < len(stored):
                stored[i + 1] = args.out
    return main(stored)


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
        "--preset", choices=("pair", "small", "labeled", "full", "matrix"), default="small"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="parse and validate one snapshot file")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--schema")
    p.add_argument("--date")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("diff", help="diff snapshots into change records")
    p.add_argument("--anterior")
    p.add_argument("--posterior")
    p.add_argument("--snapshots", help="directory of snapshot_*.csv to diff in sequence")
    p.add_argument("--schema")
    p.add_argument("--strict-status", action="store_true")
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
    p.add_argument("--k", type=int, default=detectors.DEFAULT_K)
    p.add_argument("--window", type=int, default=2, help="cross-locale half-width w")
    p.add_argument("--lambda", dest="lambda_", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", help="gamma sweep over detectors")
    p.add_argument("--matrix", required=True)
    p.add_argument("--methods", help="comma-separated method ids (default: all ten)")
    p.add_argument("--fraction", type=float, default=evalharness.DEFAULT_FRACTION)
    p.add_argument("--top-k", type=int, default=evalharness.DEFAULT_TOP_K)
    p.add_argument("--grid-points", type=int, default=evalharness.DEFAULT_GRID_POINTS)
    p.add_argument("--fixed-mask", action="store_true")
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
    p.add_argument("--out", help="redirect outputs to a different directory")
    p.set_defaults(func=cmd_rerun)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    logging.basicConfig(
        level=os.environ.get("VRF_SENTINEL_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except (VrfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
