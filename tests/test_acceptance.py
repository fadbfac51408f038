"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here, not configurable.
"""

import collections
import math
import time

import numpy as np

import oracles
import vrf_sentinel.evalharness as ev
import vrf_sentinel.gbt as gbt
import vrf_sentinel.groupfeatures as gf
import vrf_sentinel.synthgen as sg
import vrf_sentinel.vrf_io as io
from vrf_sentinel import cli, detectors as det
from vrf_sentinel.detectors.nmf import nmf_factorize
from vrf_sentinel.detectors.rpca import default_lambda, rpca_decompose
from vrf_sentinel.modmatrix import ModificationMatrix, build_intervals
from vrf_sentinel.records import ChangeType


def _report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:2d} {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description} {suffix}"


def _as_matrix(values):
    import datetime as dt

    values = np.asarray(values, dtype=float)
    start = dt.date(2019, 1, 3)
    return ModificationMatrix(
        change_type=ChangeType.DEACTIVATION,
        locales=tuple(f"L{i:03d}" for i in range(values.shape[0])),
        intervals=build_intervals(
            start, start + dt.timedelta(days=7 * (values.shape[1] - 1)), 7
        ),
        values=values,
        raw_counts=np.zeros_like(values, dtype=np.int64),
        populations=np.ones_like(values, dtype=np.int64),
    )


def test_criterion_1_diff_patch_oracle():
    start = time.monotonic()
    for seed in range(50):
        snapshots, truth = sg.generate_scenario(sg.snapshot_pair_config(seed=seed))
        anterior, posterior = snapshots
        assert len(anterior) >= 10_000, f"seed {seed}: only {len(anterior)} voters"
        changes = io.diff_snapshots(anterior, posterior)
        got = {(c.voter_id, c.change_type.value) for c in changes}
        want = truth.changes_for_interval(0)
        assert got == want, (
            f"seed {seed}: {len(want - got)} missed, {len(got - want)} spurious"
        )
        patched = sg.apply_changes(anterior, changes, posterior.snapshot_date)
        assert sg.diff_projection(patched) == sg.diff_projection(posterior)
    elapsed = time.monotonic() - start
    _report(
        1,
        "diff/patch oracle exact on 50 seeded pairs",
        elapsed < 60.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_2_ranking_arithmetic():
    total = 99 * 149
    values = np.arange(total, dtype=float).reshape(99, 149)[::-1]
    ranked = det.rank_entries(det.global_scores(_as_matrix(values), "std"))
    top4 = set(ranked.top(4))
    bottom4 = set(ranked.top(len(ranked))[-4:])
    best = ev.average_rank(ranked, top4)
    worst = ev.average_rank(ranked, bottom4)
    _report(
        2,
        "average rank exactly 2.5 (best) and 14749.5 (worst) of 14751",
        best == 2.5 and worst == 14749.5 and len(ranked) == total,
        f"best={best} worst={worst}",
    )


def test_criterion_3_planted_anomaly_study():
    start = time.monotonic()
    matrix, truth = sg.generate_matrix_scenario(sg.planted_anomaly_matrix_config(seed=0))
    truth_set = set(truth.anomaly_refs)
    ranks = {}
    for method in ("nmf", "cl_std_3", "rpca", "global_std"):
        scored = det.score_with_method(matrix, method, seed=0)
        ranks[method] = ev.average_rank(det.rank_entries(scored), truth_set)
    elapsed = time.monotonic() - start
    ok = (
        all(ranks[m] <= 50.0 for m in ("nmf", "cl_std_3", "rpca"))
        and all(ranks[m] < ranks["global_std"] for m in ("nmf", "cl_std_3", "rpca"))
        and elapsed < 120.0
    )
    detail = ", ".join(f"{m}={r:.1f}" for m, r in ranks.items()) + f", {elapsed:.1f}s"
    _report(3, "planted deactivations ranked high by nmf/cl_std_3/rpca", ok, detail)


def test_criterion_4_gamma_sweep_protocol():
    start = time.monotonic()
    matrix, _ = sg.generate_matrix_scenario(sg.MatrixScenarioConfig(seed=11))
    results = {}
    for method in det.METHOD_IDS:
        results[method] = ev.gamma_sweep(
            matrix, method, fraction=0.01, k=20, grid_points=21, seed=5
        )
    elapsed = time.monotonic() - start

    aucs_in_bounds = all(0.0 <= r.auc <= 1.0 for r in results.values())
    margin_cl = results["cl_std_5"].auc - results["global_std"].auc
    margin_nmf = results["nmf"].auc - results["global_std"].auc

    # gamma = 0 null calibration: fixed ranking, 100 fresh masks
    ranked = det.rank_entries(det.global_scores(matrix, "std"))
    precisions = []
    for seed in range(100):
        spec = ev.PerturbationSpec(shape=matrix.shape, gamma=0.0, fraction=0.01, seed=seed)
        precisions.append(ev.precision_at_k(ranked, spec.truth(), 20))
    mean = float(np.mean(precisions))
    se = float(np.std(precisions)) / math.sqrt(len(precisions))
    null_ok = abs(mean - 0.01) <= 3.0 * se + 1e-9

    ok = (
        aucs_in_bounds
        and margin_cl >= 0.1
        and margin_nmf >= 0.1
        and null_ok
        and elapsed < 600.0
    )
    _report(
        4,
        "full 10-method gamma sweep: bounds, margins, null calibration",
        ok,
        f"cl-global={margin_cl:.2f}, nmf-global={margin_nmf:.2f}, "
        f"null={mean:.4f}+-{se:.4f}, {elapsed:.1f}s",
    )


def test_criterion_5_nmf_properties():
    fp_slack = 1e-9
    monotone = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m = rng.uniform(0.0, 1.0, size=(30, 40))
        obj = nmf_factorize(m, k=4, seed=seed, tol=1e-12, max_iter=60).objective
        for prev, curr in zip(obj, obj[1:]):
            if curr > prev + fp_slack * (1.0 + obj[0]):
                monotone = False

    rng = np.random.default_rng(7)
    rank1 = np.outer(rng.uniform(0.5, 2.0, 30), rng.uniform(0.5, 2.0, 40))
    res = nmf_factorize(rank1, k=1, seed=0)
    exact = float(np.abs(rank1 - res.reconstruction()).max())

    m = np.abs(np.random.default_rng(3).normal(size=(30, 40)))
    a = nmf_factorize(m, k=5, seed=9)
    b = nmf_factorize(m, k=5, seed=9)
    deterministic = np.array_equal(a.reconstruction(), b.reconstruction())

    ok = monotone and exact <= 1e-6 and deterministic
    _report(
        5,
        "factorization: monotone objective, rank-1 exact, seed-reproducible",
        ok,
        f"rank1 resid={exact:.2e}",
    )


def test_criterion_6_rpca_recovery():
    worst_recovery = 1.0
    worst_residual = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed + 100)
        m, n = 60, 80
        low = rng.normal(size=(m, 2)) @ rng.normal(size=(2, n))
        magnitude = np.abs(low).mean()
        count = int(round(0.01 * m * n))
        idx = rng.choice(m * n, size=count, replace=False)
        spikes = np.zeros((m, n))
        spikes.flat[idx] = 10.0 * magnitude * rng.choice([-1.0, 1.0], size=count)
        result = rpca_decompose(low + spikes, lam=default_lambda((m, n)))
        assert result.converged
        top = np.argsort(np.abs(result.sparse).ravel())[::-1][:count]
        recovery = len(set(map(int, top)) & set(map(int, idx))) / count
        worst_recovery = min(worst_recovery, recovery)
        worst_residual = max(worst_residual, result.residual)
    ok = worst_recovery >= 0.95 and worst_residual <= 1e-7
    _report(
        6,
        "sparse+low-rank recovery on 20 seeded instances",
        ok,
        f"min recovery={worst_recovery:.3f}, max residual={worst_residual:.2e}",
    )


def test_criterion_7_statistic_oracles():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for trial in range(100):
        n_rows = int(rng.integers(2, 9))
        n_cols = int(rng.integers(2, 9))
        values = rng.uniform(0, 3, size=(n_rows, n_cols))
        if trial % 6 == 0:
            values[int(rng.integers(n_rows))] = 0.7  # zero-spread rows
        matrix = _as_matrix(values)
        listed = values.tolist()
        w = int(rng.integers(0, 4))
        for stat in ("std", "iqr"):
            pairs = (
                (det.temporal_scores(matrix, stat).scores, oracles.bf_temporal(listed, stat)),
                (
                    det.cross_locale_scores(matrix, stat, w=w).scores,
                    oracles.bf_cross_locale(listed, stat, w),
                ),
                (det.global_scores(matrix, stat).scores, oracles.bf_global(listed, stat)),
            )
            for got, want in pairs:
                want = np.asarray(want)
                finite = np.isfinite(want)
                assert np.array_equal(np.isfinite(got), finite)
                if finite.any():
                    worst = max(worst, float(np.abs(got[finite] - want[finite]).max()))
                assert (got[~finite] == want[~finite]).all()
    _report(
        7,
        "temporal/cross-locale/global scores match brute force on 100 matrices",
        worst <= 1e-12,
        f"max abs diff={worst:.2e}",
    )


def test_criterion_8_classifier_task():
    start = time.monotonic()
    config = sg.labeled_scenario_config(seed=0)
    snapshots, truth = sg.generate_scenario(config)
    changes = []
    for anterior, posterior in zip(snapshots, snapshots[1:]):
        changes.extend(io.diff_snapshots(anterior, posterior))

    labeled_cells = sg.scenario_labels(truth, ChangeType.DEACTIVATION)
    counts = collections.Counter(label for _, _, label in labeled_cells)
    assert counts == {
        "inactivity_mailing_response_processing": 99,
        "systematic_september_maintenance": 37,
        "ncoa_mailings": 27,
        "other": 21,
    }
    labels_map = {
        (locale, truth.interval(idx).start, ChangeType.DEACTIVATION): gf.EventLabel(label)
        for locale, idx, label in labeled_cells
    }
    vectors = gf.compute_group_features(
        changes,
        snapshots,
        interval_days=config.interval_days,
        labels=labels_map,
        change_types=(ChangeType.DEACTIVATION,),
    )
    labeled = [v for v in vectors if v.label is not None]
    assert len(labeled) == 184

    matrix, _ = gf.standardize(labeled)
    labels = [v.label.value for v in labeled]
    train_idx, hold_idx = gbt.split_holdout(labels, fraction=0.2, seed=0)
    assert len(hold_idx) == 37
    model = gbt.train(
        matrix[train_idx],
        [labels[i] for i in train_idx],
        gbt.GbtConfig(n_estimators=50, max_depth=3, learning_rate=0.3, seed=0),
    )
    report = gbt.evaluate(model, matrix[hold_idx], [labels[i] for i in hold_idx])

    hold_counts = collections.Counter(labels[i] for i in hold_idx)
    rows_match = all(
        report.confusion[k, :].sum() == hold_counts[name]
        for k, name in enumerate(report.classes)
    )
    elapsed = time.monotonic() - start
    ok = (
        report.accuracy >= 0.85
        and report.f1_weighted >= 0.85
        and rows_match
        and elapsed < 60.0
    )
    _report(
        8,
        "event-label classifier on 184 synthetic groups",
        ok,
        f"accuracy={report.accuracy:.3f}, f1={report.f1_weighted:.3f}, {elapsed:.1f}s",
    )


def test_criterion_9_gbt_unit_oracles():
    rng = np.random.default_rng(9)
    stump_ok = True
    for _ in range(20):
        n = int(rng.integers(6, 24))
        x = np.round(rng.normal(size=(n, 2)), 2)
        y = rng.choice(["a", "b"], size=n).tolist()
        if len(set(y)) < 2:
            y[0] = "a" if y[1] == "b" else "b"
        model = gbt.train(x, y, gbt.GbtConfig(n_estimators=1, max_depth=1, learning_rate=1.0))
        stump = model.trees[0][0]
        g = [0.5 - (1.0 if label == model.classes[0] else 0.0) for label in y]
        h = [0.25] * n
        want = oracles.bf_best_stump(x.tolist(), g, h)
        if want is None:
            stump_ok = stump_ok and stump.is_leaf
        else:
            stump_ok = stump_ok and not stump.is_leaf and stump.feature == want[1] and (
                abs(stump.threshold - want[2]) <= 1e-12
            )

    x_neg = np.column_stack([rng.uniform(-2, -0.5, 30), rng.normal(size=30)])
    x_pos = np.column_stack([rng.uniform(0.5, 2, 30), rng.normal(size=30)])
    x = np.vstack([x_neg, x_pos])
    y = ["a"] * 30 + ["b"] * 30
    model = gbt.train(x, y, gbt.GbtConfig(n_estimators=30))
    loss_ok = all(
        curr <= prev + 1e-12 for prev, curr in zip(model.train_loss, model.train_loss[1:])
    )
    probs = gbt.predict_proba(model, rng.normal(size=(200, 2)))
    sums_ok = bool(np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9)

    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        gbt.save_model(model, path)
        loaded = gbt.load_model(path)
        probe = rng.normal(size=(100, 2))
        roundtrip_ok = np.array_equal(
            gbt.predict_proba(loaded, probe), gbt.predict_proba(model, probe)
        )

    ok = stump_ok and loss_ok and sums_ok and roundtrip_ok
    _report(
        9,
        "boosting oracles: stump search, monotone loss, proba sums, round trip",
        ok,
        f"stump={stump_ok} loss={loss_ok} sums={sums_ok} io={roundtrip_ok}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    base = tmp_path / "run"
    synth = base / "synth"
    assert cli.main(["synth", "--preset", "small", "--seed", "5", "--out", str(synth)]) == 0
    diff = base / "diff"
    assert cli.main([
        "diff", "--snapshots", str(synth / "snapshots"),
        "--schema", str(synth / "schema.cfg"), "--out", str(diff),
    ]) == 0
    matrix = base / "matrix"
    assert cli.main([
        "matrix", "--changes", str(diff / "changes.csv"),
        "--snapshots", str(synth / "snapshots"), "--schema", str(synth / "schema.cfg"),
        "--change-type", "deactivation", "--out", str(matrix),
    ]) == 0
    detect = base / "detect"
    assert cli.main([
        "detect", "--matrix", str(matrix / "matrix_deactivation.csv"),
        "--method", "nmf", "--k", "5", "--seed", "2", "--out", str(detect),
    ]) == 0
    evaluate = base / "evaluate"
    assert cli.main([
        "evaluate", "--matrix", str(matrix / "matrix_deactivation.csv"),
        "--methods", "global_std,cl_std_3,nmf", "--grid-points", "5",
        "--top-k", "10", "--seed", "2", "--out", str(evaluate),
    ]) == 0

    identical = True
    compared = 0
    for stage in (synth, diff, matrix, detect, evaluate):
        replay = tmp_path / "replay" / stage.name
        assert cli.main([
            "rerun", "--manifest", str(stage / "manifest.json"), "--out", str(replay)
        ]) == 0
        for original in sorted(stage.rglob("*")):
            # manifests echo the --out path and so differ by construction;
            # every data artifact must match byte for byte
            if original.is_dir() or original.name == "manifest.json":
                continue
            twin = replay / original.relative_to(stage)
            compared += 1
            if not twin.exists() or twin.read_bytes() != original.read_bytes():
                identical = False
    _report(
        10,
        "manifest reruns reproduce byte-identical outputs",
        identical and compared > 10,
        f"{compared} files compared",
    )
