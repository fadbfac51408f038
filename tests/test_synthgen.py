import collections
import hashlib

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

import oracles
import vrf_sentinel.synthgen as sg
from vrf_sentinel import cli
import vrf_sentinel.vrf_io as io
from vrf_sentinel.errors import ConfigError
from vrf_sentinel.modmatrix import build_matrix
from vrf_sentinel.records import ChangeType, VoterStatus


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
        snapshots, truth = oracles.scenario(tiny_config(seed=9))
        outdir = tmp_path / run
        outdir.mkdir()
        for snap in snapshots:
            io.write_snapshot(snap, str(outdir / f"snapshot_{snap.snapshot_date}.csv"))
        (outdir / "truth.json").write_text(truth.to_json())
    for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def tree_digest(root):
    """sha256 over each file's path under `root` and its sha256, in path
    order; `manifest.json` is left out, as it names the output directory."""
    files = sorted(p for p in root.rglob("*") if p.is_file() and p.name != "manifest.json")
    listing = "".join(
        f"{p.relative_to(root).as_posix()} {hashlib.sha256(p.read_bytes()).hexdigest()}\n"
        for p in files
    )
    return hashlib.sha256(listing.encode()).hexdigest()


# What `synth` wrote for these presets when they were pinned: a change to
# the bytes of the generator or of the snapshot writer shows here.
SYNTH_DIGESTS = {
    ("small", 3): "f78d1e024b21007bb730251e78d7464d75c0fb4f84d5e635f05759fa7f13a2c5",
    ("pair", 0): "650c6a3d17d954a60a26f11b81269694989451193d8164e6ef60394b2e26acbe",
    ("matrix", 0): "6f0e7088f1d022ec9f3864762e6aa8669fc2a7ee734fa86b62cd97a9c0029c58",
}


@pytest.mark.parametrize(("preset", "seed"), sorted(SYNTH_DIGESTS))
def test_synth_files_keep_their_pinned_digests(tmp_path, preset, seed):
    assert cli.main(["synth", "--preset", preset, "--seed", str(seed), "--out", str(tmp_path)]) == 0
    assert tree_digest(tmp_path) == SYNTH_DIGESTS[preset, seed]


def test_zero_rates_identical_snapshots():
    config = tiny_config(base_rates={ct: 0.0 for ct in ChangeType})
    snapshots, truth = oracles.scenario(config)
    assert not truth.changes
    for a, b in zip(snapshots, snapshots[1:]):
        assert a.records == b.records


def test_diffs_match_truth_every_interval():
    config = tiny_config(seed=4, n_intervals=6)
    snapshots, truth = oracles.scenario(config)
    for t, (a, b) in enumerate(zip(snapshots, snapshots[1:])):
        got = {(c.voter_id, c.change_type.value) for c in io.diff_snapshots(a, b)}
        assert got == oracles.changes_for_interval(truth, t)


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
    snapshots, truth = oracles.scenario(config)
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
    assert truth.cell_causes.get(("L005", 2, "deactivation")) == sg.ANOMALY_CAUSE


def test_conservation_of_insertions_and_removals():
    config = tiny_config(seed=12, n_intervals=5)
    snapshots, truth = oracles.scenario(config)
    changes = []
    for a, b in zip(snapshots, snapshots[1:]):
        changes.extend(io.diff_snapshots(a, b))
    counts = collections.Counter(c.change_type for c in changes)
    assert counts[ChangeType.REGISTRATION] == truth.inserted_voters
    assert counts[ChangeType.REMOVAL] == truth.removed_voters


def test_snapshot_locale_counts_equal_a_recount_of_records():
    snapshots, truth = oracles.scenario(tiny_config(seed=12, n_intervals=5))
    assert truth.inserted_voters and truth.removed_voters
    for snapshot in snapshots:
        recount = collections.Counter(rec.locale for rec in snapshot.records.values())
        assert snapshot.locale_counts == recount


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
    snapshots, _ = oracles.scenario(config)
    changes = []
    for a, b in zip(snapshots, snapshots[1:]):
        changes.extend(io.diff_snapshots(a, b))
    populations = {s.snapshot_date: s.locale_counts for s in snapshots}
    matrix = build_matrix(changes, ChangeType.DEACTIVATION, 7, populations)
    _, _, vt = np.linalg.svd(matrix.values)
    # top right-singular vector concentrates on the event column
    starts = [interval.start for interval in matrix.intervals]
    assert int(np.abs(vt[0]).argmax()) == starts.index(snapshots[5].snapshot_date)


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
        oracles.scenario(config)


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


PICK_VOTER = st.builds(
    oracles.PickVoter,
    status=st.sampled_from(sg._STATUSES),
    touched=st.frozensets(st.sampled_from(list(ChangeType))),
    lapsed=st.booleans(), stale=st.booleans(), mover=st.booleans(), changed=st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pick_returns_the_per_voter_oracles_voter(data):
    """On a tiny walk's locale with random statuses, touched types and flags,
    `_pick` returns the voter the per-voter rule picks from an identically
    seeded rng, and leaves that rng in the same state."""
    walk = sg._Walk(tiny_config(n_locales=1, population_median=50.0, population_sigma=0.0))
    nums = walk.by_locale["L001"]
    voters = data.draw(st.lists(PICK_VOTER, max_size=len(nums)))
    nums = walk.by_locale["L001"] = nums[:len(voters)]
    for num, voter in zip(nums.tolist(), voters):
        walk.status[num] = sg._STATUSES.index(voter.status)
        walk.touched[num] = sum(sg._BIT[ct] for ct in voter.touched)
        walk.flags[num] = (
            voter.lapsed * sg._LAPSED | voter.stale * sg._STALE
            | voter.mover * sg._MOVER | voter.changed * sg._CHANGED
        )
    ids = [sg._voter_id(num) for num in nums.tolist()]
    by_id = dict(zip(ids, voters))
    seed = data.draw(st.integers(0, 2**32 - 1))
    for change_type in ChangeType:
        for status in (None, *VoterStatus):
            for bias in (None, *sg.EVENT_LABELS):
                walk.rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
                num = walk._pick("L001", change_type, status, bias)
                expected = oracles.pick_voter(rng, ids, by_id, change_type, status, bias)
                assert (None if num is None else sg._voter_id(num)) == expected
                assert walk.rng.bit_generator.state == rng.bit_generator.state


# --- labels ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def labeled_run(tmp_path_factory):
    """The labeled preset's walk at seed 0: its ground truth, and the voter
    count and sha256 of its first and last snapshot as `write_snapshot`
    writes them, by date."""
    path = str(tmp_path_factory.mktemp("labeled") / "snapshot.csv")
    digests = {}

    def pin(snapshot):
        io.write_snapshot(snapshot, path)
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        digests[snapshot.snapshot_date.isoformat()] = (len(snapshot), digest)

    for snapshot, truth in sg.iter_scenario_snapshots(sg.labeled_scenario_config(seed=0)):
        if not digests:
            pin(snapshot)
    pin(snapshot)
    return truth, digests


@pytest.fixture(scope="module")
def labeled_truth(labeled_run):
    return labeled_run[0]


def test_scenario_labels_default_proportions(labeled_truth):
    labeled = sg.scenario_labels(labeled_truth, ChangeType.DEACTIVATION)
    counts = collections.Counter(label for _, _, label in labeled)
    assert counts == {
        "inactivity_mailing_response_processing": 99,
        "systematic_september_maintenance": 37,
        "ncoa_mailings": 27,
        "other": 21,
    }


def test_labeled_truth_keeps_its_pinned_digest(labeled_truth):
    # the `groundtruth.json` of `synth --preset labeled --seed 0`: every biased
    # event kind picks its voters here
    text = labeled_truth.to_json() + "\n"
    digest = "cbb94ab8dda477f302282f8a351614aeba220bbb6f95fe0da263f721fdb81d0c"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_labeled_snapshots_keep_their_pinned_digests(labeled_run):
    # the first and last snapshot files of `synth --preset labeled --seed 0`:
    # every voter of the preset is built, and every change applied, here
    assert labeled_run[1] == {
        "2018-06-04": (55_456, "8d95064ed9cdda79ce9460b8af6abd3ef2486f5478eecd101116f6d2c99b9958"),
        "2018-09-24": (56_420, "5dbc424721582c942815ce92f496e5510dd3ac9f84abaa73a7ff3b3802c74660"),
    }


def test_scenario_labels_take_the_first_cells_of_each_cause(labeled_truth):
    cells = sorted(
        (cause, locale, interval)
        for (locale, interval, ct), cause in labeled_truth.cell_causes.items()
        if ct == "deactivation"
    )
    want = []
    for label, count in zip(sg.EVENT_LABELS, (99, 37, 27, 21)):
        want += [(locale, i, label) for cause, locale, i in cells if cause == label][:count]
    assert sg.scenario_labels(labeled_truth, ChangeType.DEACTIVATION) == want


def test_labels_cover_only_systematic_cells(labeled_truth):
    labeled = sg.scenario_labels(labeled_truth, ChangeType.DEACTIVATION)
    for locale, interval, label in labeled:
        assert labeled_truth.cell_causes[(locale, interval, "deactivation")] == label


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
    from vrf_sentinel.modmatrix import normalized_values

    days = matrix.intervals[0].days
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
    snapshots, _ = oracles.scenario(tiny_config(seed=17))
    first = snapshots[0]
    for rec in first.records.values():
        for ev in rec.vote_history:
            assert ev.election_date <= first.snapshot_date


def test_generated_ages_in_bounds():
    import datetime as dt

    snapshots, _ = oracles.scenario(tiny_config(seed=18))
    first = snapshots[0]
    for rec in first.records.values():
        age = (first.snapshot_date - rec.birth_date).days / 365.25
        assert 16.0 <= age <= 130.0
