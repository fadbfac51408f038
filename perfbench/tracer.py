"""Spans around the public functions of each vrf_sentinel layer.

The child side (`Tracer`) wraps the listed functions from outside the
program: every module of the package that binds one of them by name gets
the wrapper, so `evalharness`'s own `rank_entries` and `score_with_method`
bindings are timed too. Spans stay in memory and are written out once, when
the child ends. A function that no longer exists is skipped, so a later
change that removes one only drops its metrics.

The parent side (`layer_metrics`) turns span files into the per-layer
metrics named in BENCHMARK.json. It imports nothing from the program.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

PACKAGE = "vrf_sentinel"

# layer module -> public functions whose calls become spans
TARGETS = {
    "cli": (
        "cmd_synth", "cmd_diff", "cmd_matrix", "cmd_features", "cmd_train",
        "cmd_predict", "cmd_evaluate", "cmd_detect",
    ),
    "vrf_io": (
        "parse_snapshot", "diff_snapshots", "changes_to_csv", "csv_to_changes",
        "write_snapshot",
    ),
    "modmatrix": ("build_matrix", "csv_to_matrix", "matrix_to_csv", "top_singular_values"),
    "detectors": (
        "score_with_method", "nmf_residual_scores", "rpca_scores",
        "cross_locale_scores", "temporal_scores", "global_scores",
        "rank_entries", "scores_to_csv", "ranked_to_csv",
    ),
    "evalharness": ("gamma_sweep", "perturb", "precision_at_k", "sweep_report"),
    "groupfeatures": (
        "compute_group_features", "features_from_csv", "features_to_csv", "standardize",
    ),
    "gbt": ("train", "best_split", "evaluate", "predict_proba", "save_model", "load_model"),
    "plots": ("render_heatmap", "render_sweep_svg"),
}


def _heatmap_bytes(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[3]
    return {"bytes": os.path.getsize(path)}


def _detector_params(args, kwargs, result):
    params = result.params
    return {"iterations": int(params["iterations"]), "converged": int(bool(params["converged"]))}


# span name -> work counted from the call's arguments and result
COUNTERS = {
    "vrf_io.parse_snapshot": lambda a, k, r: {"rows": len(r), "file": os.path.abspath(a[0])},
    "vrf_io.diff_snapshots": lambda a, k, r: {"voters": len(a[1])},
    "detectors.rank_entries": lambda a, k, r: {"cells": len(r)},
    "detectors.nmf_residual_scores": _detector_params,
    "detectors.rpca_scores": _detector_params,
    "groupfeatures.compute_group_features": lambda a, k, r: {"groups": len(r)},
    "plots.render_heatmap": _heatmap_bytes,
}


class Tracer:
    """Records one span per wrapped call: [id, parent id, name, start ns,
    end ns, counts]. `tag` names the workload, pass and step."""

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.spans: list[list | None] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def install(self) -> None:
        """Replace every binding of each target inside the package."""
        for layer, names in TARGETS.items():
            try:
                home = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.missing.extend(f"{layer}.{name}" for name in names)
                continue
            modules = [
                m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
            ]
            for name in names:
                original = getattr(home, name, None)
                if not callable(original):
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapper = self.wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = [sid, parent, name, start, end, None]
            if counter is not None:
                try:
                    spans[sid][5] = counter(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError):
                    pass  # the function's signature changed; keep the span, drop the count
            return result

        return wrapper

    def call(self, name: str, fn, *args):
        return self.wrap(name, fn)(*args)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"tag": self.tag, "missing": self.missing,
                 "spans": [s for s in self.spans if s is not None]},
                fh,
            )


# --- parent side -----------------------------------------------------------------

# Every per-layer metric the traced run reports, with its unit. Kept in step
# with the "per_layer" list of BENCHMARK.json.
CLI_STEPS = ("diff", "matrix", "features", "train", "predict", "evaluate", "detect")
CLI_RSS_STEPS = ("diff", "matrix", "features", "detect")


def _self_times(spans: list[list]) -> dict[int, float]:
    covered: dict[int, int] = {}
    for sid, parent, _name, start, end, _counts in spans:
        if parent >= 0:
            covered[parent] = covered.get(parent, 0) + (end - start)
    return {s[0]: (s[4] - s[3] - covered.get(s[0], 0)) / 1e9 for s in spans}


def layer_metrics(span_files: list[dict], step_walls: dict[str, float],
                  untraced: dict[str, dict[str, float]], overhead_ratio: float) -> dict:
    """Per-layer metrics from span files.

    span_files: the loaded dumps of every traced child (set-up and pass).
    step_walls: tag -> parent-measured wall seconds of that traced child.
    untraced: CLI step -> {"wall_s", "peak_rss_mib"} from the untraced pass.
    """
    total_self: dict[str, float] = {}
    total_dur: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, dict[str, float]] = {}
    files: dict[str, set] = {}
    cli_self = cli_startup = 0.0
    for dump in span_files:
        spans = dump["spans"]
        self_s = _self_times(spans)
        timed_step = dump["tag"].split("/")[1] == "pass"
        for sid, parent, name, start, end, span_counts in spans:
            total_self[name] = total_self.get(name, 0.0) + self_s[sid]
            total_dur[name] = total_dur.get(name, 0.0) + (end - start) / 1e9
            calls[name] = calls.get(name, 0) + 1
            for key, value in (span_counts or {}).items():
                if key == "file":
                    files.setdefault(name, set()).add(value)
                else:
                    bucket = counts.setdefault(name, {})
                    bucket[key] = bucket.get(key, 0) + value
            if timed_step and name.startswith("cli.cmd_") and parent < 0:
                cli_self += self_s[sid]
                cli_startup += step_walls[dump["tag"]] - (end - start) / 1e9

    def rate(name: str, key: str) -> float:
        dur = total_dur.get(name, 0.0)
        return counts.get(name, {}).get(key, 0) / dur if dur > 0 else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    for step in CLI_STEPS:
        m[f"cli.{step}.wall_s"] = (untraced.get(step, {}).get("wall_s", 0.0), "s")
    for step in CLI_RSS_STEPS:
        m[f"cli.{step}.peak_rss_mib"] = (untraced.get(step, {}).get("peak_rss_mib", 0.0), "MiB")
    m["cli.self_s"] = (cli_self, "s")
    m["cli.startup_s"] = (cli_startup, "s")

    def self_s(name: str) -> None:
        m[f"{name}.self_s"] = (total_self.get(name, 0.0), "s")

    def n_calls(name: str) -> None:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")

    parse = "vrf_io.parse_snapshot"
    n_calls(parse)
    self_s(parse)
    m[f"{parse}.rows_per_s"] = (rate(parse, "rows"), "1/s")
    m[f"{parse}.useful_ratio"] = (ratio(len(files.get(parse, ())), calls.get(parse, 0)), "ratio")
    self_s("vrf_io.diff_snapshots")
    m["vrf_io.diff_snapshots.voters_per_s"] = (rate("vrf_io.diff_snapshots", "voters"), "1/s")
    self_s("vrf_io.changes_to_csv")
    n_calls("vrf_io.csv_to_changes")
    self_s("vrf_io.csv_to_changes")
    self_s("vrf_io.write_snapshot")

    for name in TARGETS["modmatrix"]:
        self_s(f"modmatrix.{name}")

    n_calls("detectors.score_with_method")
    for name in ("nmf_residual_scores", "rpca_scores", "cross_locale_scores",
                 "temporal_scores", "global_scores"):
        self_s(f"detectors.{name}")
    for short, name in (("nmf", "detectors.nmf_residual_scores"), ("rpca", "detectors.rpca_scores")):
        bucket = counts.get(name, {})
        m[f"detectors.{short}.iterations"] = (bucket.get("iterations", 0), "count")
        m[f"detectors.{short}.converged_ratio"] = (
            ratio(bucket.get("converged", 0), calls.get(name, 0)), "ratio")
    self_s("detectors.rank_entries")
    m["detectors.rank_entries.cells_per_s"] = (rate("detectors.rank_entries", "cells"), "1/s")
    self_s("detectors.scores_to_csv")
    self_s("detectors.ranked_to_csv")

    for name in TARGETS["evalharness"]:
        self_s(f"evalharness.{name}")

    for name in TARGETS["groupfeatures"]:
        self_s(f"groupfeatures.{name}")
    m["groupfeatures.compute_group_features.groups_per_s"] = (
        rate("groupfeatures.compute_group_features", "groups"), "1/s")

    for name in ("train", "evaluate", "predict_proba", "save_model", "load_model"):
        self_s(f"gbt.{name}")
    n_calls("gbt.best_split")

    self_s("plots.render_heatmap")
    m["plots.render_heatmap.bytes"] = (counts.get("plots.render_heatmap", {}).get("bytes", 0), "bytes")
    self_s("plots.render_sweep_svg")

    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m
