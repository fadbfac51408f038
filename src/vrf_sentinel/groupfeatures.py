"""Mean demographic / history feature vectors for change groups.

A change group is the set of voters sharing one (locale, date interval,
change type) cell. Each voter contributes demographics (age, gender,
status, party, registration age), voting-history measures (participation,
partisanship, engagement, ballot-kind counts, recency), and change-history
counts per change type over the prior six months and all time, always
excluding the change that put the voter in the group. The group's feature
vector is the column-wise mean, and a fixed, versioned feature order makes
the vectors model-ready.
"""

from __future__ import annotations

import csv
import datetime as dt
import enum
import json
import logging
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FileParseError, VrfError
from .modmatrix import DateInterval, _interval_of, build_intervals
from .records import BallotKind, ChangeRecord, ChangeType, Snapshot, VoterRecord, normalize_text
from .vrf_io import csv_writer

logger = logging.getLogger(__name__)

SIX_MONTHS_DAYS = 183


class EventLabel(str, enum.Enum):
    INACTIVITY_MAILING = "inactivity_mailing_response_processing"
    SEPTEMBER_MAINTENANCE = "systematic_september_maintenance"
    NCOA_MAILINGS = "ncoa_mailings"
    OTHER = "other"


GENDER_CATEGORIES = ("female", "male", "other", "unknown")
PARTY_CATEGORIES = ("democrat", "republican", "libertarian", "no_party", "other", "unknown")
STATUS_CATEGORIES = ("active", "inactive", "pending")

# Fixed feature order; bump the version when the order changes.
FEATURE_MANIFEST_VERSION = "gfv1"
FEATURE_NAMES: tuple[str, ...] = (
    "months_since_registration",
    "years_old",
    "years_old_missing",
    *(f"gender_{g}" for g in GENDER_CATEGORIES),
    *(f"status_{s}" for s in STATUS_CATEGORIES),
    *(f"party_{p}" for p in PARTY_CATEGORIES),
    "days_since_last_voted",
    "partisanship",
    "participation",
    "engagement",
    "provisional_votes",
    "absentee_votes",
    *(f"{ct.value}_changes_{span}" for ct in ChangeType for span in ("6mo", "all_time")),
)


@dataclass(frozen=True)
class GroupKey:
    locale: str
    interval: DateInterval
    change_type: ChangeType


@dataclass(frozen=True)
class GroupFeatureVector:
    key: GroupKey
    n_voters: int
    features: np.ndarray
    label: EventLabel | None = None


class ElectionCalendar:
    """Election dates, kinds, and turnout proxies derived from the vote
    histories present in a snapshot collection."""

    def __init__(self, elections: dict[str, tuple[dt.date, bool, int]]):
        if not elections:
            raise DataError("election calendar is empty")
        self._elections = dict(elections)
        dates = [d for d, _, _ in elections.values()]
        self.first_date = min(dates)
        self.last_date = max(dates)
        self.span_days = (self.last_date - self.first_date).days
        self.max_turnout = max(t for _, _, t in elections.values())

    @classmethod
    def from_records(cls, records) -> "ElectionCalendar":
        elections: dict[str, list] = {}
        for rec in records:
            for ev in rec.vote_history:
                entry = elections.setdefault(ev.election_id, [ev.election_date, False, 0])
                entry[1] = entry[1] or ev.party_ballot is not None
                entry[2] += 1
        return cls({eid: tuple(v) for eid, v in elections.items()})

    def eligible(self, registration: dt.date | None, as_of: dt.date) -> list[tuple[dt.date, bool, int]]:
        """Elections the voter could have participated in: dated after
        registration and on or before as_of."""
        out = []
        for date, is_primary, turnout in self._elections.values():
            if (registration is None or date > registration) and date <= as_of:
                out.append((date, is_primary, turnout))
        return out

    def turnout_of(self, election_id: str) -> int | None:
        entry = self._elections.get(election_id)
        return entry[2] if entry else None

    def never_voted_sentinel(self) -> float:
        """Finite 'longer ago than anyone' recency value for non-voters."""
        return float(self.span_days + 1)


class ChangeIndex:
    """Historical change store: per-voter (change_type, posterior_date) log."""

    def __init__(self, changes: list[ChangeRecord] = ()):  # type: ignore[assignment]
        self._by_voter: dict[str, list[tuple[ChangeType, dt.date]]] = {}
        for change in changes:
            self.add(change)

    def add(self, change: ChangeRecord) -> None:
        self._by_voter.setdefault(change.voter_id, []).append(
            (change.change_type, change.posterior_date)
        )

    def counts(
        self,
        voter_id: str,
        as_of: dt.date,
        exclude: tuple[ChangeType, dt.date] | None = None,
    ) -> dict[ChangeType, tuple[int, int]]:
        """(last-6-months, all-time) counts per change type at `as_of`,
        with one instance matching `exclude` (the current change) removed."""
        six_months_ago = as_of - dt.timedelta(days=SIX_MONTHS_DAYS)
        counts = {ct: [0, 0] for ct in ChangeType}
        skipped = False
        for change_type, date in self._by_voter.get(voter_id, ()):
            if date > as_of:
                continue
            if not skipped and exclude is not None and (change_type, date) == exclude:
                skipped = True
                continue
            counts[change_type][1] += 1
            if date >= six_months_ago:
                counts[change_type][0] += 1
        return {ct: (c[0], c[1]) for ct, c in counts.items()}


def _add_months(date: dt.date, months: int) -> dt.date:
    month_index = date.year * 12 + (date.month - 1) + months
    year, month = divmod(month_index, 12)
    month += 1
    # clamp to the target month's last day
    for day in (date.day, 30, 29, 28):
        try:
            return dt.date(year, month, day)
        except ValueError:
            continue
    raise ValueError(f"cannot place day for {date} + {months} months")


def months_between(earlier: dt.date, later: dt.date) -> float:
    """Whole calendar months plus a /30 fractional remainder."""
    if later < earlier:
        raise VrfError("months_between expects earlier <= later")
    months = (later.year - earlier.year) * 12 + (later.month - earlier.month)
    if _add_months(earlier, months) > later:
        months -= 1
    remainder = (later - _add_months(earlier, months)).days
    return months + remainder / 30.0


def _one_hot(value: str, categories: tuple[str, ...]) -> list[float]:
    norm = normalize_text(value)
    if not norm:
        norm = "unknown"
    elif norm not in categories:
        norm = "other" if "other" in categories else "unknown"
    return [1.0 if norm == cat else 0.0 for cat in categories]


def voter_features(
    voter: VoterRecord,
    as_of: dt.date,
    history_counts: dict[ChangeType, tuple[int, int]],
    calendar: ElectionCalendar,
) -> np.ndarray:
    """One voter's raw feature vector at `as_of`.

    years_old is NaN (with the missing flag set) when the birth date is
    absent; imputation happens at standardization time.
    """
    if voter.registration_date is not None and as_of < voter.registration_date:
        raise DataError(
            f"as_of {as_of} precedes registration {voter.registration_date} "
            f"for {voter.voter_id}"
        )
    values: list[float] = []
    if voter.registration_date is not None:
        values.append(months_between(voter.registration_date, as_of))
    else:
        values.append(0.0)
    if voter.birth_date is not None:
        values.append((as_of - voter.birth_date).days / 365.25)
        values.append(0.0)
    else:
        values.append(math.nan)
        values.append(1.0)
    values += _one_hot(voter.gender, GENDER_CATEGORIES)
    values += _one_hot(voter.status.value, STATUS_CATEGORIES)
    values += _one_hot(voter.party, PARTY_CATEGORIES)

    votes = [ev for ev in voter.vote_history if ev.election_date <= as_of]
    if votes:
        last_voted = max(ev.election_date for ev in votes)
        values.append(float((as_of - last_voted).days))
    else:
        values.append(calendar.never_voted_sentinel())

    eligible = calendar.eligible(voter.registration_date, as_of)
    primaries = [e for e in eligible if e[1]]
    party_norm = normalize_text(voter.party)
    primary_votes = sum(
        1
        for ev in votes
        if ev.party_ballot is not None and normalize_text(ev.party_ballot) == party_norm
    )
    values.append(primary_votes / len(primaries) if primaries else 0.0)
    values.append(min(1.0, len(votes) / len(eligible)) if eligible else 0.0)

    if votes:
        sizes = [calendar.turnout_of(ev.election_id) or 0 for ev in votes]
        values.append(float(np.mean(sizes)) / calendar.max_turnout)
    else:
        values.append(0.0)
    values.append(float(sum(1 for ev in votes if ev.kind == BallotKind.PROVISIONAL)))
    values.append(float(sum(1 for ev in votes if ev.kind == BallotKind.ABSENTEE)))

    for ct in ChangeType:
        six_mo, all_time = history_counts.get(ct, (0, 0))
        values.append(float(six_mo))
        values.append(float(all_time))
    return np.array(values, dtype=float)


def group_features(
    key: GroupKey,
    changes: list[ChangeRecord],
    snapshot: Snapshot,
    change_index: ChangeIndex,
    calendar: ElectionCalendar,
    label: EventLabel | None = None,
) -> GroupFeatureVector:
    """Column-wise mean feature vector over a group's distinct voters.

    Voters are resolved in the given snapshot (anterior for removals,
    posterior otherwise); unresolvable ids are warned about and excluded.
    Change-history counts never include the change being summarized.
    """
    for change in changes:
        if change.change_type != key.change_type or change.locale != key.locale:
            raise DataError(f"change {change.voter_id} does not belong to group {key}")
        if not key.interval.contains(change.posterior_date):
            raise DataError(
                f"change {change.voter_id} posterior {change.posterior_date} outside "
                f"group interval [{key.interval.start}, {key.interval.end})"
            )
    latest: dict[str, ChangeRecord] = {}
    for change in changes:
        cur = latest.get(change.voter_id)
        if cur is None or change.posterior_date > cur.posterior_date:
            latest[change.voter_id] = change

    rows = []
    missing = []
    for voter_id in sorted(latest):
        change = latest[voter_id]
        rec = snapshot.records.get(voter_id)
        if rec is None:
            missing.append(voter_id)
            continue
        as_of = change.posterior_date
        counts = change_index.counts(
            voter_id, as_of, exclude=(change.change_type, change.posterior_date)
        )
        rows.append(voter_features(rec, as_of, counts, calendar))
    if missing:
        logger.warning(
            "group %s/%s/%s: %d voters unresolvable in snapshot %s: %s",
            key.locale, key.interval.start, key.change_type.value,
            len(missing), snapshot.snapshot_date, ", ".join(missing[:10]),
        )
    if not rows:
        raise DataError(f"group {key} has no resolvable voters")
    stacked = np.vstack(rows)
    with np.errstate(invalid="ignore"):
        means = np.nanmean(stacked, axis=0)
    # all-NaN column (no known birth dates): leave NaN for the scaler
    return GroupFeatureVector(key=key, n_voters=len(rows), features=means, label=label)


# --- standardization ---------------------------------------------------------


@dataclass(frozen=True)
class FeatureScaler:
    """Per-feature zero-mean unit-variance transform fitted on training
    groups; NaNs are imputed with the fitted per-feature median first."""

    feature_names: tuple[str, ...]
    means: np.ndarray
    stds: np.ndarray
    medians: np.ndarray
    version: str = FEATURE_MANIFEST_VERSION

    def apply(self, matrix: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(matrix, dtype=float)).copy()
        if x.shape[1] != len(self.feature_names):
            raise DataError(
                f"feature count {x.shape[1]} != scaler width {len(self.feature_names)}"
            )
        for j in range(x.shape[1]):
            col = x[:, j]
            col[np.isnan(col)] = self.medians[j]
        out = np.zeros_like(x)
        nonzero = self.stds > 0
        out[:, nonzero] = (x[:, nonzero] - self.means[nonzero]) / self.stds[nonzero]
        return out

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": self.version,
                "feature_names": list(self.feature_names),
                "means": [repr(float(v)) for v in self.means],
                "stds": [repr(float(v)) for v in self.stds],
                "medians": [repr(float(v)) for v in self.medians],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FeatureScaler":
        raw = json.loads(text)
        return cls(
            feature_names=tuple(raw["feature_names"]),
            means=np.array([float(v) for v in raw["means"]]),
            stds=np.array([float(v) for v in raw["stds"]]),
            medians=np.array([float(v) for v in raw["medians"]]),
            version=raw["version"],
        )


def standardize(vectors: list[GroupFeatureVector]) -> tuple[np.ndarray, FeatureScaler]:
    """Stack group vectors and fit the zero-mean unit-variance transform.

    Uses the population standard deviation; zero-variance features map
    to 0. Returns (standardized matrix, fitted scaler).
    """
    if len(vectors) < 2:
        raise DataError("standardization needs at least 2 group vectors")
    x = np.vstack([v.features for v in vectors])
    if x.shape[1] != len(FEATURE_NAMES):
        raise DataError(f"feature width {x.shape[1]} != schema width {len(FEATURE_NAMES)}")
    medians = np.zeros(x.shape[1])
    for j in range(x.shape[1]):
        col = x[:, j]
        known = col[~np.isnan(col)]
        medians[j] = float(np.median(known)) if known.size else 0.0
        col[np.isnan(col)] = medians[j]
    means = x.mean(axis=0)
    stds = x.std(axis=0)
    scaler = FeatureScaler(feature_names=FEATURE_NAMES, means=means, stds=stds, medians=medians)
    return scaler.apply(x), scaler


# --- grouping drivers --------------------------------------------------------


def group_changes(
    changes: list[ChangeRecord],
    interval_days: int,
    start: dt.date | None = None,
    end: dt.date | None = None,
) -> dict[GroupKey, list[ChangeRecord]]:
    """Partition changes into (locale, interval, change type) groups over a
    contiguous interval grid keyed by posterior date."""
    if not changes:
        return {}
    dates = [c.posterior_date for c in changes]
    intervals = build_intervals(start or min(dates), end or max(dates), interval_days)
    groups: dict[GroupKey, list[ChangeRecord]] = {}
    for change in changes:
        interval = intervals[_interval_of(intervals, change.posterior_date)]
        key = GroupKey(locale=change.locale, interval=interval, change_type=change.change_type)
        groups.setdefault(key, []).append(change)
    return groups


def compute_group_features(
    changes: list[ChangeRecord],
    snapshots: Iterable[Snapshot],
    interval_days: int,
    labels: dict[tuple[str, dt.date, ChangeType], EventLabel] | None = None,
    change_types: tuple[ChangeType, ...] | None = None,
) -> list[GroupFeatureVector]:
    """End-to-end driver: group the change stream and compute every group's
    mean vector, sorted by (locale, interval start, change type).

    `snapshots` must ascend by date and is read once. Each group resolves
    its voters when its reference snapshot (anterior for removals,
    posterior otherwise) arrives, so only that snapshot need be held. The
    election calendar is built from every voter of the earliest snapshot,
    which must therefore hold all its records; later snapshots need hold
    only the voters of the selected change types.
    """
    index = ChangeIndex(changes)
    labels = labels or {}
    groups = group_changes(changes, interval_days)
    pending: dict[dt.date, list[GroupKey]] = {}
    for key, group in groups.items():
        if change_types is None or key.change_type in change_types:
            removal = key.change_type == ChangeType.REMOVAL
            ref = group[0].anterior_date if removal else group[0].posterior_date
            pending.setdefault(ref, []).append(key)

    out = []
    previous = None
    for snapshot in snapshots:
        if previous is None:
            # the earliest snapshot already carries every voter's full history
            calendar = ElectionCalendar.from_records(snapshot.records.values())
        elif snapshot.snapshot_date <= previous:
            raise DataError(
                f"snapshot dated {snapshot.snapshot_date} follows {previous}; "
                "snapshots must ascend by date"
            )
        previous = snapshot.snapshot_date
        for key in pending.pop(snapshot.snapshot_date, ()):
            label = labels.get((key.locale, key.interval.start, key.change_type))
            out.append(group_features(key, groups[key], snapshot, index, calendar, label=label))
    if pending:
        ref = min(pending)
        raise DataError(f"no snapshot dated {ref} to resolve group {pending[ref][0]}")
    out.sort(key=lambda v: (v.key.locale, v.key.interval.start, v.key.change_type.value))
    return out


# --- CSV + manifest ----------------------------------------------------------


def features_to_csv(vectors: list[GroupFeatureVector], path: str) -> None:
    interval_days = {v.key.interval.days for v in vectors}
    if len(interval_days) > 1:
        raise DataError("mixed interval widths in one feature file")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv_writer(fh, (v.key.locale for v in vectors))
        writer.writerow(
            ["locale", "interval_start", "change_type", "n_voters", *FEATURE_NAMES, "label"]
        )
        for v in vectors:
            writer.writerow(
                [
                    v.key.locale,
                    v.key.interval.start.isoformat(),
                    v.key.change_type.value,
                    v.n_voters,
                    *[repr(float(x)) for x in v.features],
                    v.label.value if v.label else "",
                ]
            )
    manifest = {
        "version": FEATURE_MANIFEST_VERSION,
        "features": list(FEATURE_NAMES),
        "interval_days": (interval_days.pop() if interval_days else 7),
    }
    with open(_manifest_path(path), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _manifest_path(csv_path: str) -> str:
    return csv_path + ".manifest.json"


def features_from_csv(path: str) -> list[GroupFeatureVector]:
    with open(_manifest_path(path), encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest["version"] != FEATURE_MANIFEST_VERSION:
        raise FileParseError(
            f"{path}: feature manifest version {manifest['version']!r} != "
            f"expected {FEATURE_MANIFEST_VERSION!r}"
        )
    if tuple(manifest["features"]) != FEATURE_NAMES:
        raise FileParseError(f"{path}: manifest feature order differs from schema")
    interval_days = int(manifest["interval_days"])

    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        expected = ["locale", "interval_start", "change_type", "n_voters", *FEATURE_NAMES, "label"]
        if header != expected:
            raise FileParseError(f"{path}: unexpected feature CSV header")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(expected):
                raise FileParseError(f"{path}:{lineno}: wrong column count")
            start = dt.date.fromisoformat(row[1])
            key = GroupKey(
                locale=row[0],
                interval=DateInterval(start, start + dt.timedelta(days=interval_days)),
                change_type=ChangeType(row[2]),
            )
            out.append(
                GroupFeatureVector(
                    key=key,
                    n_voters=int(row[3]),
                    features=np.array([float(x) for x in row[4 : 4 + len(FEATURE_NAMES)]]),
                    label=EventLabel(row[-1]) if row[-1] else None,
                )
            )
    return out
