import datetime as dt
import json
import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, strategies as st

import vrf_sentinel.groupfeatures as gf
import vrf_sentinel.modmatrix as mm
from vrf_sentinel.errors import DataError
from vrf_sentinel.records import (
    BallotKind,
    ChangeRecord,
    ChangeType,
    Snapshot,
    VoteEvent,
    VoterRecord,
    VoterStatus,
    election_tally,
)

AS_OF = dt.date(2019, 6, 10)
NAMES = gf.FEATURE_NAMES
IDX = {name: i for i, name in enumerate(NAMES)}


def calendar():
    return gf.ElectionCalendar(
        {
            "2016-primary": (dt.date(2016, 6, 7), True, 300),
            "2016-general": (dt.date(2016, 11, 8), False, 1000),
            "2018-primary": (dt.date(2018, 6, 5), True, 250),
            "2018-general": (dt.date(2018, 11, 6), False, 800),
        }
    )


def voter(voter_id="V1", **kwargs):
    defaults = dict(
        locale="polk",
        first_name="ada",
        last_name="barnes",
        status=VoterStatus.ACTIVE,
        party="democrat",
        gender="female",
        birth_date=dt.date(1980, 6, 10),
        registration_date=dt.date(2015, 6, 10),
    )
    defaults.update(kwargs)
    return VoterRecord(voter_id=voter_id, **defaults)


def vote(eid, date, kind=BallotKind.REGULAR, party=None):
    return VoteEvent(election_id=eid, election_date=date, kind=kind, party_ballot=party)


def calendar_of(snapshot):
    return gf.ElectionCalendar(election_tally(snapshot.records.values()))


def features_of(v, as_of=AS_OF, counts=None):
    return gf.voter_features(v, as_of, counts or {}, calendar())


def test_months_since_registration_exact_months():
    v = voter(registration_date=dt.date(2017, 6, 10))  # exactly 24 months
    assert features_of(v)[IDX["months_since_registration"]] == 24.0


def test_empty_history_sentinels():
    v = voter(vote_history=())
    vec = features_of(v)
    assert vec[IDX["participation"]] == 0.0
    assert vec[IDX["days_since_last_voted"]] == calendar().never_voted_sentinel()
    assert vec[IDX["engagement"]] == 0.0


def test_provisional_and_absentee_counts():
    v = voter(
        vote_history=(
            vote("2016-general", dt.date(2016, 11, 8), BallotKind.PROVISIONAL),
            vote("2018-primary", dt.date(2018, 6, 5), BallotKind.PROVISIONAL, party="democrat"),
            vote("2018-general", dt.date(2018, 11, 6), BallotKind.ABSENTEE),
        )
    )
    vec = features_of(v)
    assert vec[IDX["provisional_votes"]] == 2.0
    assert vec[IDX["absentee_votes"]] == 1.0


def test_participation_and_partisanship():
    v = voter(
        registration_date=dt.date(2016, 1, 1),
        vote_history=(
            vote("2016-general", dt.date(2016, 11, 8)),
            vote("2018-primary", dt.date(2018, 6, 5), party="democrat"),
        ),
    )
    vec = features_of(v)
    # eligible: 2016 primary+general, 2018 primary+general; voted in 2
    assert vec[IDX["participation"]] == pytest.approx(0.5)
    # 2 primaries eligible, 1 own-party primary ballot
    assert vec[IDX["partisanship"]] == pytest.approx(0.5)


def test_engagement_normalized_turnout():
    v = voter(
        registration_date=dt.date(2016, 1, 1),
        vote_history=(
            vote("2016-general", dt.date(2016, 11, 8)),
            vote("2018-general", dt.date(2018, 11, 6)),
        ),
    )
    assert features_of(v)[IDX["engagement"]] == pytest.approx((1000 + 800) / 2 / 1000)


def test_one_hot_groups_sum_to_one():
    for g, p in (("female", "democrat"), ("", "independent alliance"), ("mx", "")):
        vec = features_of(voter(gender=g, party=p))
        for prefix, cats in (
            ("gender", gf.GENDER_CATEGORIES),
            ("status", gf.STATUS_CATEGORIES),
            ("party", gf.PARTY_CATEGORIES),
        ):
            total = sum(vec[IDX[f"{prefix}_{c}"]] for c in cats)
            assert abs(total - 1.0) <= 1e-9


def test_missing_birth_date_flagged_nan():
    vec = features_of(voter(birth_date=None))
    assert math.isnan(vec[IDX["years_old"]])
    assert vec[IDX["years_old_missing"]] == 1.0


def test_change_history_slots():
    counts = {ChangeType.ADDRESS: (1, 3), ChangeType.DEACTIVATION: (0, 1)}
    vec = features_of(voter(), counts=counts)
    assert vec[IDX["address_changes_6mo"]] == 1.0
    assert vec[IDX["address_changes_all_time"]] == 3.0
    assert vec[IDX["deactivation_changes_all_time"]] == 1.0
    assert vec[IDX["name_changes_all_time"]] == 0.0


# --- change index ------------------------------------------------------------------


def change(voter_id, change_type, posterior, locale="polk"):
    return ChangeRecord(
        voter_id=voter_id,
        locale=locale,
        change_type=change_type,
        anterior_date=posterior - dt.timedelta(days=7),
        posterior_date=posterior,
    )


def test_change_index_six_month_window_and_exclusion():
    index = gf.ChangeIndex(
        [
            change("V1", ChangeType.ADDRESS, AS_OF - dt.timedelta(days=400)),
            change("V1", ChangeType.ADDRESS, AS_OF - dt.timedelta(days=100)),
            change("V1", ChangeType.DEACTIVATION, AS_OF),
        ]
    )
    counts = index.counts("V1", AS_OF, exclude=(ChangeType.DEACTIVATION, AS_OF))
    assert counts[ChangeType.ADDRESS] == (1, 2)
    assert counts[ChangeType.DEACTIVATION] == (0, 0)  # current change excluded
    # same-day change of another type still counts
    counts = index.counts("V1", AS_OF, exclude=(ChangeType.ADDRESS, AS_OF))
    assert counts[ChangeType.DEACTIVATION] == (1, 1)


def test_change_index_future_changes_ignored():
    index = gf.ChangeIndex([change("V1", ChangeType.NAME, AS_OF + dt.timedelta(days=30))])
    assert index.counts("V1", AS_OF)[ChangeType.NAME] == (0, 0)


# --- group features -----------------------------------------------------------------


def group_key(change_type=ChangeType.DEACTIVATION):
    return gf.GroupKey(locale="polk", interval_start=AS_OF, change_type=change_type)


def snapshot_of(*voters, date=AS_OF):
    return Snapshot(snapshot_date=date, records={v.voter_id: v for v in voters}, locale_counts={})


def one_group(changes, *voters):
    """The weekly group of `changes` that starts at AS_OF, over one
    snapshot of `voters` per reference date."""
    snapshots = [snapshot_of(*voters, date=d) for d in {c.reference_date for c in changes}]
    groups = gf.compute_group_features(changes, snapshots, calendar(), interval_days=7)
    (got,) = [g for g in groups if g.key == group_key()]
    return got


def test_group_of_one_equals_voter_vector():
    v = voter(status=VoterStatus.INACTIVE)
    got = one_group([change("V1", ChangeType.DEACTIVATION, AS_OF)], v)
    want = gf.voter_features(v, AS_OF, gf.ChangeIndex().counts("V1", AS_OF), calendar())
    np.testing.assert_array_equal(got.features, want)
    assert got.n_voters == 1


def test_group_mean_of_ages():
    v1 = voter("V1", birth_date=AS_OF - dt.timedelta(days=round(30 * 365.25)))
    v2 = voter("V2", birth_date=AS_OF - dt.timedelta(days=round(50 * 365.25)))
    changes = [change("V1", ChangeType.DEACTIVATION, AS_OF), change("V2", ChangeType.DEACTIVATION, AS_OF)]
    got = one_group(changes, v1, v2)
    assert got.features[IDX["years_old"]] == pytest.approx(40.0, abs=0.01)


def test_current_change_always_excluded():
    """The group's own change is not counted; an older one, in an earlier
    group, is."""
    v = voter()
    ch = change("V1", ChangeType.DEACTIVATION, AS_OF)
    older = change("V1", ChangeType.DEACTIVATION, AS_OF - dt.timedelta(days=28))
    got = one_group([older, ch], v)
    without_current = gf.voter_features(
        v, AS_OF, gf.ChangeIndex([older]).counts("V1", AS_OF), calendar()
    )
    np.testing.assert_array_equal(got.features, without_current)
    assert got.features[IDX["deactivation_changes_all_time"]] == 1.0


def test_group_permutation_invariance():
    voters = [voter(f"V{i}", birth_date=dt.date(1950 + 2 * i, 1, 1)) for i in range(6)]
    changes = [change(v.voter_id, ChangeType.DEACTIVATION, AS_OF) for v in voters]
    a = one_group(changes, *voters)
    b = one_group(list(reversed(changes)), *voters)
    np.testing.assert_array_equal(a.features, b.features)


def test_unresolvable_voters_warned_and_excluded(caplog):
    changes = [
        change("V1", ChangeType.DEACTIVATION, AS_OF),
        change("GHOST", ChangeType.DEACTIVATION, AS_OF),
    ]
    got = one_group(changes, voter("V1"))
    assert got.n_voters == 1
    assert any("GHOST" in r.message for r in caplog.records)


def test_compute_group_features_takes_snapshots_in_any_order():
    v = voter(vote_history=(vote("2018-general", dt.date(2018, 11, 6)),))
    ch = change("V1", ChangeType.DEACTIVATION, AS_OF)
    other = voter(birth_date=dt.date(1990, 1, 1), vote_history=v.vote_history)
    before = snapshot_of(other, date=AS_OF - dt.timedelta(days=7))  # not the reference
    after = snapshot_of(v)
    calendar = calendar_of(before)
    (got,) = gf.compute_group_features([ch], iter([before, after]), calendar, interval_days=7)
    want = gf.voter_features(v, AS_OF, gf.ChangeIndex().counts("V1", AS_OF), calendar)
    np.testing.assert_array_equal(got.features, want)
    (back,) = gf.compute_group_features([ch], iter([after, before]), calendar, interval_days=7)
    np.testing.assert_array_equal(back.features, got.features)
    with pytest.raises(DataError, match=f"two snapshots dated {AS_OF}"):
        gf.compute_group_features([ch], iter([after, before, after]), calendar, interval_days=7)


def test_compute_group_features_missing_reference_snapshot():
    v = voter(vote_history=(vote("2018-general", dt.date(2018, 11, 6)),))
    ch = change("V1", ChangeType.DEACTIVATION, AS_OF)
    earlier = snapshot_of(v, date=AS_OF - dt.timedelta(days=7))
    with pytest.raises(DataError, match=f"no snapshot dated {AS_OF}"):
        gf.compute_group_features([ch], iter([earlier]), calendar_of(earlier), interval_days=7)


def test_each_voter_resolved_in_the_reference_snapshot_of_their_latest_change():
    """One 14-day group over weekly snapshots: V1 changes in its first week,
    V2 in both. V2 is resolved in the second week's snapshot, the reference
    snapshot of their latest change, not in the first week's, which holds
    another record for them."""
    week = dt.timedelta(days=7)
    history = (vote("2018-general", dt.date(2018, 11, 6)),)
    v1 = voter("V1", vote_history=history)
    v2_later = voter("V2", registration_date=AS_OF + dt.timedelta(days=3), vote_history=history)
    changes = [
        change("V1", ChangeType.DEACTIVATION, AS_OF),
        change("V2", ChangeType.DEACTIVATION, AS_OF + week),
        change("V2", ChangeType.DEACTIVATION, AS_OF),  # an earlier change is not the reference
    ]
    snapshots = [
        snapshot_of(v1, voter("V2", birth_date=dt.date(1990, 1, 1), vote_history=history)),
        snapshot_of(v1, v2_later, date=AS_OF + week),
    ]
    # the precondition: one 14-day interval holds both weeks' changes
    assert {c.reference_date for c in changes} == {AS_OF, AS_OF + week}
    (got,) = gf.compute_group_features(
        changes, iter(snapshots), calendar_of(snapshots[0]), interval_days=14
    )
    index = gf.ChangeIndex(changes)
    want = np.mean([
        gf.voter_features(v1, AS_OF, index.counts("V1", AS_OF, (ChangeType.DEACTIVATION, AS_OF)),
                          calendar_of(snapshots[0])),
        gf.voter_features(
            v2_later, AS_OF + week,
            index.counts("V2", AS_OF + week, (ChangeType.DEACTIVATION, AS_OF + week)),
            calendar_of(snapshots[0]),
        ),
    ], axis=0)
    np.testing.assert_array_equal(got.features, want)
    assert got.n_voters == 2


# --- standardization ----------------------------------------------------------------


def gfv(values, n=0):
    return gf.GroupFeatureVector(key=group_key(), n_voters=10 + n, features=np.asarray(values, float))


def test_standardize_two_points():
    width = len(NAMES)
    a = np.zeros(width)
    b = np.full(width, 2.0)
    matrix, scaler = gf.standardize([gfv(a), gfv(b)])
    np.testing.assert_allclose(matrix[0], -1.0)
    np.testing.assert_allclose(matrix[1], 1.0)
    raw = json.loads(scaler.to_json())
    assert (raw["version"], tuple(raw["feature_names"])) == (gf.FEATURE_MANIFEST_VERSION, NAMES)


def test_standardize_constant_feature_zero():
    width = len(NAMES)
    rows = [np.full(width, 3.0), np.full(width, 3.0), np.full(width, 3.0)]
    matrix, _ = gf.standardize([gfv(r, n=i) for i, r in enumerate(rows)])
    assert not matrix.any()


def test_scaler_reapplication_reproduces():
    rng = np.random.default_rng(0)
    rows = [rng.normal(size=len(NAMES)) for _ in range(6)]
    vectors = [gfv(r, n=i) for i, r in enumerate(rows)]
    matrix, scaler = gf.standardize(vectors)
    np.testing.assert_array_equal(scaler.apply(np.vstack(rows)), matrix)


def test_scaler_imputes_nan_with_median():
    width = len(NAMES)
    rows = [np.full(width, 1.0), np.full(width, 2.0), np.full(width, 6.0)]
    rows[0][IDX["years_old"]] = math.nan
    matrix, scaler = gf.standardize([gfv(r, n=i) for i, r in enumerate(rows)])
    assert np.isfinite(matrix).all()
    # median of the known {2, 6} is 4
    assert scaler.medians[IDX["years_old"]] == 4.0


def test_scaler_json_round_trip():
    rng = np.random.default_rng(1)
    rows = [rng.normal(size=len(NAMES)) for _ in range(4)]
    _, scaler = gf.standardize([gfv(r, n=i) for i, r in enumerate(rows)])
    back = gf.FeatureScaler.from_json(scaler.to_json(), "scaler.json")
    x = rng.normal(size=(3, len(NAMES)))
    np.testing.assert_array_equal(back.apply(x), scaler.apply(x))


# --- CSV round trip --------------------------------------------------------------------


def test_features_csv_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    vectors = []
    for i in range(5):
        vectors.append(
            gf.GroupFeatureVector(
                key=gf.GroupKey(f"L{i:03d}", AS_OF, ChangeType.DEACTIVATION),
                n_voters=5 + i,
                features=rng.normal(size=len(NAMES)),
                label=gf.EventLabel.NCOA_MAILINGS if i % 2 else None,
            )
        )
    path = tmp_path / "features.csv"
    gf.features_to_csv(vectors, str(path))
    back = gf.features_from_csv(str(path))
    assert len(back) == 5
    for a, b in zip(vectors, back):
        assert a.key == b.key
        assert a.n_voters == b.n_voters
        assert a.label == b.label
        np.testing.assert_array_equal(a.features, b.features)


# Cell text with the characters CSV must quote or escape, and unicode.
CSV_TEXT = st.text(st.sampled_from(list('ab ,;|"\'\n\r\tÄé漢')), max_size=6)


@given(st.lists(st.tuples(CSV_TEXT, st.sampled_from([None, *gf.EventLabel])), max_size=4))
def test_features_csv_round_trip_any_locale_text(groups):
    vectors = [
        gf.GroupFeatureVector(
            key=gf.GroupKey(locale, AS_OF, ChangeType.DEACTIVATION),
            n_voters=i + 1,
            features=np.full(len(NAMES), i / 3),
            label=label,
        )
        for i, (locale, label) in enumerate(groups)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        gf.features_to_csv(vectors, f"{tmp}/features.csv")
        back = gf.features_from_csv(f"{tmp}/features.csv")
    assert [(v.key, v.n_voters, v.label) for v in back] == [
        (v.key, v.n_voters, v.label) for v in vectors
    ]
    for a, b in zip(vectors, back):
        np.testing.assert_array_equal(a.features, b.features)


# (locale, change type, posterior day offset, voter number) of one change
CHANGE_ROWS = st.lists(
    st.tuples(
        st.sampled_from(["linn", "polk", "story"]), st.sampled_from(list(ChangeType)),
        st.integers(1, 60), st.integers(0, 5),
    ),
    min_size=1, max_size=25,
)


@given(rows=CHANGE_ROWS, interval_days=st.integers(1, 21))
def test_matrix_cells_and_change_groups_share_one_grid(rows, interval_days):
    """For every change type, the nonzero cells of `build_matrix`, as
    (locale, interval start), are the keys of the groups
    `compute_group_features` forms for that type alone, whichever types
    hold the earliest and the latest change."""
    changes = [
        ChangeRecord(
            f"V{n}", locale, change_type,
            AS_OF + dt.timedelta(days=day - 1), AS_OF + dt.timedelta(days=day),
        )
        for locale, change_type, day, n in rows
    ]
    snapshots = [
        Snapshot(date, {f"V{n}": voter(f"V{n}") for n in range(6)}, {})
        for date in {c.reference_date for c in changes}
    ]
    populations = {AS_OF: {"linn": 900, "polk": 1000, "story": 1100}}
    for change_type in ChangeType:
        groups = gf.compute_group_features(
            changes, snapshots, calendar(), interval_days, change_types=(change_type,)
        )
        keys = {(v.key.locale, v.key.interval_start) for v in groups}
        if not any(c.change_type == change_type for c in changes):
            assert keys == set()
            continue
        matrix = mm.build_matrix(changes, change_type, interval_days, populations)
        cells = {
            (matrix.locales[i], matrix.intervals[j].start)
            for i, j in np.argwhere(matrix.raw_counts > 0)
        }
        assert cells == keys
