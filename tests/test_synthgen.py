import collections

import numpy as np
import pytest
import scipy.stats

import vrf_sentinel.synthgen as sg
import vrf_sentinel.vrf_io as io
from vrf_sentinel.errors import ConfigError
from vrf_sentinel.modmatrix import build_matrix
from vrf_sentinel.records import ChangeType


def tiny_config(**kwargs):
    defaults = dict(
        n_locales=4,
        population_median=300.0,
        population_sigma=0.2,
        n_intervals=4,
        seed=0,
    )
    defaults.update(kwargs)
    return sg.ScenarioConfig(**defaults)


def test_determinism_byte_identical(tmp_path):
    for run in ("a", "b"):
        snapshots, truth = sg.generate_scenario(tiny_config(seed=9))
        outdir = tmp_path / run
        outdir.mkdir()
        for snap in snapshots:
            io.write_snapshot(snap, str(outdir / f"snapshot_{snap.snapshot_date}.csv"))
        (outdir / "truth.json").write_text(truth.to_json())
    for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_zero_rates_identical_snapshots():
    config = tiny_config(base_rates={ct: 0.0 for ct in ChangeType})
    snapshots, truth = sg.generate_scenario(config)
    assert not truth.changes
    for a, b in zip(snapshots, snapshots[1:]):
        assert a.records == b.records


def test_diffs_match_truth_every_interval():
    config = tiny_config(seed=4, n_intervals=6)
    snapshots, truth = sg.generate_scenario(config)
    for t, (a, b) in enumerate(zip(snapshots, snapshots[1:])):
        got = {(c.voter_id, c.change_type.value) for c in io.diff_snapshots(a, b)}
        assert got == truth.changes_for_interval(t)


def test_planted_anomaly_count_oracle():
    config = tiny_config(
        seed=7,
        n_locales=6,
        n_intervals=4,
        anomalies=(
            sg.PlantedAnomaly(locale="L005", interval_index=2,
                              change_type=ChangeType.DEACTIVATION, count=50),
        ),
    )
    snapshots, truth = sg.generate_scenario(config)
    changes = io.diff_snapshots(snapshots[2], snapshots[3])
    planted = [
        c for c in changes
        if c.change_type == ChangeType.DEACTIVATION and c.locale == "L005"
    ]
    anomaly_ids = {
        c.voter_id for c in truth.changes
        if c.cause == sg.ANOMALY_CAUSE and c.interval_index == 2
    }
    assert len(anomaly_ids) == 50
    assert anomaly_ids <= {c.voter_id for c in planted}
    assert ("L005", 2, "deactivation") in truth.anomaly_cells()


def test_conservation_of_insertions_and_removals():
    config = tiny_config(seed=12, n_intervals=5)
    snapshots, truth = sg.generate_scenario(config)
    changes = []
    for a, b in zip(snapshots, snapshots[1:]):
        changes.extend(io.diff_snapshots(a, b))
    counts = collections.Counter(c.change_type for c in changes)
    assert counts[ChangeType.REGISTRATION] == truth.inserted_voters
    assert counts[ChangeType.REMOVAL] == truth.removed_voters


def test_statewide_event_dominates_top_singular_direction():
    config = tiny_config(
        seed=5,
        n_locales=8,
        population_median=500.0,
        n_intervals=8,
        events=(
            sg.EventSpec(
                kind="inactivity_mailing_response_processing",
                change_type=ChangeType.DEACTIVATION,
                locales=(),
                interval_index=4,
                per_1000=80.0,
            ),
        ),
    )
    snapshots, _ = sg.generate_scenario(config)
    changes = []
    for a, b in zip(snapshots, snapshots[1:]):
        changes.extend(io.diff_snapshots(a, b))
    populations = {s.snapshot_date: s.locale_counts for s in snapshots}
    matrix = build_matrix(changes, ChangeType.DEACTIVATION, 7, populations)
    _, _, vt = np.linalg.svd(matrix.values)
    # top right-singular vector concentrates on the event column
    assert int(np.abs(vt[0]).argmax()) == matrix.interval_index(
        snapshots[5].snapshot_date
    )


def test_infeasible_event_locale_rejected():
    config = tiny_config(
        events=(
            sg.EventSpec(
                kind="other",
                change_type=ChangeType.DEACTIVATION,
                locales=("L999",),
                interval_index=0,
                per_1000=5.0,
            ),
        )
    )
    with pytest.raises(ConfigError, match="L999"):
        sg.generate_scenario(config)


def test_poisson_calibration_chi_square():
    """With constant population and no events, per-cell counts are Poisson;
    a goodness-of-fit test over all cells passes at significance 0.001."""
    config = sg.MatrixScenarioConfig(
        n_locales=99,
        n_intervals=149,
        population_sigma=0.0,
        locale_sigma=0.0,
        seasonal_amplitude=0.0,
        base_rate=0.3,
        event_intervals=(),
        event_intensities=(),
        seed=21,
    )
    matrix, _ = sg.generate_matrix_scenario(config)
    mu = 0.3 * 7 * matrix.populations[0, 0] / 1000.0
    counts = matrix.raw_counts.ravel()
    hi = int(scipy.stats.poisson.ppf(0.999, mu)) + 1
    observed = np.bincount(np.minimum(counts, hi), minlength=hi + 1)
    expected_p = np.append(scipy.stats.poisson.pmf(np.arange(hi), mu),
                           scipy.stats.poisson.sf(hi - 1, mu))
    expected = expected_p * counts.size
    keep = expected >= 5
    stat = float(((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum())
    dof = int(keep.sum()) - 1
    p_value = float(scipy.stats.chi2.sf(stat, dof))
    assert p_value > 0.001


# --- labels ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def labeled_truth():
    _, truth = sg.generate_scenario(sg.labeled_scenario_config(seed=0))
    return truth


def test_scenario_labels_default_proportions(labeled_truth):
    labeled = sg.scenario_labels(labeled_truth, ChangeType.DEACTIVATION)
    counts = collections.Counter(label for _, _, label in labeled)
    assert counts == {
        "inactivity_mailing_response_processing": 99,
        "systematic_september_maintenance": 37,
        "ncoa_mailings": 27,
        "other": 21,
    }


def test_scenario_labels_equal_proportions_small(labeled_truth):
    labeled = sg.scenario_labels(
        labeled_truth, ChangeType.DEACTIVATION, total=4, proportions=(1, 1, 1, 1)
    )
    counts = collections.Counter(label for _, _, label in labeled)
    assert all(v == 1 for v in counts.values())


def test_labels_cover_only_systematic_cells(labeled_truth):
    labeled = sg.scenario_labels(labeled_truth, ChangeType.DEACTIVATION)
    for locale, interval, label in labeled:
        assert labeled_truth.cell_causes[(locale, interval, "deactivation")] == label


def test_ground_truth_json_round_trip():
    _, truth = sg.generate_scenario(tiny_config(seed=2))
    back = sg.GroundTruth.from_json(truth.to_json())
    assert back.changes == truth.changes
    assert back.cell_causes == truth.cell_causes
    assert back.locales == truth.locales


# --- matrix scenarios ----------------------------------------------------------------


def test_matrix_scenario_deterministic():
    config = sg.planted_anomaly_matrix_config(seed=3)
    m1, t1 = sg.generate_matrix_scenario(config)
    m2, t2 = sg.generate_matrix_scenario(config)
    assert np.array_equal(m1.values, m2.values)
    assert t1 == t2


def test_matrix_scenario_default_shape_is_paper_grid():
    matrix, _ = sg.generate_matrix_scenario(sg.MatrixScenarioConfig(seed=1))
    assert matrix.shape == (99, 149)
    assert matrix.shape[0] * matrix.shape[1] == 14751


def test_matrix_scenario_values_recomputable():
    matrix, _ = sg.generate_matrix_scenario(sg.planted_anomaly_matrix_config(seed=5))
    days = np.array([iv.days for iv in matrix.intervals], dtype=float)
    from vrf_sentinel.modmatrix import normalized_values

    np.testing.assert_array_equal(
        matrix.values, normalized_values(matrix.raw_counts, matrix.populations, days)
    )


def test_matrix_anomalies_land_where_configured():
    config = sg.planted_anomaly_matrix_config(seed=8)
    matrix, truth = sg.generate_matrix_scenario(config)
    for ref in truth.anomaly_refs:
        i, j = ref.locale_index, ref.interval_index
        assert matrix.values[i, j] >= 5.0 * truth.background_mean


def test_vote_history_dates_precede_snapshots():
    snapshots, _ = sg.generate_scenario(tiny_config(seed=17))
    first = snapshots[0]
    for rec in first.records.values():
        for ev in rec.vote_history:
            assert ev.election_date <= first.snapshot_date


def test_generated_ages_in_bounds():
    import datetime as dt

    snapshots, _ = sg.generate_scenario(tiny_config(seed=18))
    first = snapshots[0]
    for rec in first.records.values():
        age = (first.snapshot_date - rec.birth_date).days / 365.25
        assert 16.0 <= age <= 130.0


def test_event_label_strings_match_classifier_enum():
    import vrf_sentinel.groupfeatures as gf

    assert set(sg.EVENT_LABELS) == {label.value for label in gf.EventLabel}
