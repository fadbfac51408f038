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

import datetime as dt
import json
import logging
import math
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

import numpy as np

from .errors import DataError, FileParseError, VrfError
from .modmatrix import change_grid
from .records import (
    BallotKind, ChangeRecord, ChangeType, EventLabel, Snapshot, VoterRecord, normalize_text,
)
from .vrf_io import csv_line, read_table

logger = logging.getLogger(__name__)

SIX_MONTHS_DAYS = 183


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
FEATURE_CSV_COLUMNS = (
    "locale", "interval_start", "change_type", "n_voters", *FEATURE_NAMES, "label",
)


@dataclass(frozen=True)
class GroupKey:
    locale: str
    interval_start: dt.date
    change_type: ChangeType


@dataclass(frozen=True)
class GroupFeatureVector:
    key: GroupKey
    n_voters: int
    features: np.ndarray
    label: EventLabel | None = None


class ElectionCalendar:
    """Election dates, kinds, and turnout proxies: `records.election_tally`
    of the vote histories in a snapshot."""

    def __init__(self, elections: dict[str, tuple[dt.date, bool, int]]):
        if not elections:
            raise DataError("election calendar is empty")
        self._elections = dict(elections)
        dates = [d for d, _, _ in elections.values()]
        self.first_date = min(dates)
        self.last_date = max(dates)
        self.span_days = (self.last_date - self.first_date).days
        self.max_turnout = max(t for _, _, t in elections.values())

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
    """Historical change store: per-voter (change_type, posterior_date) log.
    Each distinct pair is stored once and shared by every voter's log."""

    def __init__(self, changes: Iterable[ChangeRecord] = ()):
        self._by_voter: dict[str, list[tuple[ChangeType, dt.date]]] = {}
        self._events: dict[tuple[ChangeType, dt.date], tuple[ChangeType, dt.date]] = {}
        for change in changes:
            self.add(change)

    def add(self, change: ChangeRecord) -> None:
        event = (change.change_type, change.posterior_date)
        event = self._events.setdefault(event, event)
        self._by_voter.setdefault(change.voter_id, []).append(event)

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


# --- standardization ---------------------------------------------------------


@dataclass(frozen=True)
class FeatureScaler:
    """Per-feature zero-mean unit-variance transform fitted on training
    groups over `FEATURE_NAMES`; NaNs are imputed with the fitted
    per-feature median first."""

    means: np.ndarray
    stds: np.ndarray
    medians: np.ndarray

    def apply(self, matrix: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(matrix, dtype=float))
        if x.shape[1] != len(FEATURE_NAMES):
            raise DataError(f"feature count {x.shape[1]} != scaler width {len(FEATURE_NAMES)}")
        x = np.where(np.isnan(x), self.medians, x)
        out = np.zeros_like(x)
        nonzero = self.stds > 0
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            out[:, nonzero] = (x[:, nonzero] - self.means[nonzero]) / self.stds[nonzero]
        overflowed = np.flatnonzero(~np.isfinite(out).all(axis=0))
        if overflowed.size:
            raise DataError(f"feature {FEATURE_NAMES[overflowed[0]]} overflows when standardized")
        return out

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": FEATURE_MANIFEST_VERSION,
                "feature_names": list(FEATURE_NAMES),
                "means": [repr(float(v)) for v in self.means],
                "stds": [repr(float(v)) for v in self.stds],
                "medians": [repr(float(v)) for v in self.medians],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str, path: str) -> "FeatureScaler":
        """The scaler `to_json` wrote as `text`, read from `path`."""
        try:
            raw = json.loads(text)
            version = raw["version"]
            if tuple(raw["feature_names"]) != FEATURE_NAMES or version != FEATURE_MANIFEST_VERSION:
                raise FileParseError(
                    f"{path}: scaler fitted on another feature set (version {version!r}); "
                    f"predict needs version {FEATURE_MANIFEST_VERSION!r} and its feature names "
                    "in order"
                )
            columns = [np.array([float(v) for v in raw[k]]) for k in ("means", "stds", "medians")]
            if any(len(column) != len(FEATURE_NAMES) for column in columns):
                raise ValueError("means, stds and medians must match feature_names in length")
            if not all(np.isfinite(column).all() for column in columns):
                raise FileParseError(f"{path}: scaler means, stds and medians must be finite")
            if np.any(columns[1] < 0):
                raise FileParseError(f"{path}: scaler stds must be >= 0")
            return cls(*columns)
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise FileParseError(f"{path}: malformed scaler JSON ({exc!r})") from None


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
    known = [col[~np.isnan(col)] for col in x.T]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        medians = np.array([float(np.median(col)) if col.size else 0.0 for col in known])
        x = np.where(np.isnan(x), medians, x)
        scaler = FeatureScaler(means=x.mean(axis=0), stds=x.std(axis=0), medians=medians)
    unfit = np.flatnonzero(~np.isfinite([scaler.means, scaler.stds, medians]).all(axis=0))
    if unfit.size:
        raise DataError(f"feature {FEATURE_NAMES[unfit[0]]} overflows when standardized")
    return scaler.apply(x), scaler


# --- grouping driver ---------------------------------------------------------


def compute_group_features(
    changes: Iterable[ChangeRecord],
    snapshots: Iterable[Snapshot],
    calendar: ElectionCalendar,
    interval_days: int,
    labels: dict[tuple[str, dt.date, ChangeType], EventLabel] | None = None,
    change_types: tuple[ChangeType, ...] | None = None,
) -> list[GroupFeatureVector]:
    """Group the changes and compute every group's column-wise mean vector
    over its distinct voters, sorted by (locale, interval start, change type).

    Groups lie on `modmatrix.change_grid` of all `changes`, as matrix
    cells do. Each voter is resolved in the snapshot dated the reference
    date of their latest change in the group
    (`ChangeRecord.reference_date`). Unresolvable voters are warned about
    and excluded. Change-history counts never include the change being
    summarized.

    `changes` is read once, keeping each voter's change history and, per
    group and voter, the posterior and reference dates of the latest
    change. `snapshots` may then come in any order and need hold only the
    reference records; each is dropped once its voters' rows are computed,
    so one snapshot's records are held at a time.
    """
    index, posterior = ChangeIndex(), set()
    # (locale, type, posterior date) -> voter -> reference date of the first
    # such change; a group's latest change has the latest of these dates
    latest: dict[tuple[str, ChangeType, dt.date], dict[str, dt.date]] = {}
    for change in changes:
        index.add(change)
        posterior.add(change.posterior_date)
        if change_types is None or change.change_type in change_types:
            key = (change.locale, change.change_type, change.posterior_date)
            latest.setdefault(key, {}).setdefault(change.voter_id, change.reference_date)
    intervals, column_of = change_grid(posterior, interval_days) if posterior else ((), {})
    groups: dict[tuple[str, int, ChangeType], dict[str, tuple[dt.date, dt.date]]] = {}
    for (locale, change_type, date), voters in sorted(latest.items(), key=lambda kv: kv[0][2]):
        group = groups.setdefault((locale, column_of[date], change_type), {})
        group.update((voter_id, (date, reference)) for voter_id, reference in voters.items())
    del latest
    # (group, voter, as-of date, reference date) in output order, and the
    # members each reference date resolves
    members, by_reference = [], {}
    for key in sorted(groups, key=lambda k: (k[0], k[1], k[2].value)):
        for voter_id, (as_of, reference) in sorted(groups.pop(key).items()):
            by_reference.setdefault(reference, []).append(len(members))
            members.append((key, voter_id, as_of, reference))

    rows = np.empty((len(members), len(FEATURE_NAMES)))
    resolved = np.zeros(len(members), dtype=bool)
    seen = set()
    for snapshot in snapshots:
        if snapshot.snapshot_date in seen:
            raise DataError(f"two snapshots dated {snapshot.snapshot_date}")
        seen.add(snapshot.snapshot_date)
        for n in by_reference.get(snapshot.snapshot_date, ()):
            (_, _, change_type), voter_id, as_of, _ = members[n]
            record = snapshot.records.get(voter_id)
            if record is not None:
                counts = index.counts(voter_id, as_of, exclude=(change_type, as_of))
                rows[n] = voter_features(record, as_of, counts, calendar)
                resolved[n] = True
        del snapshot  # the next snapshot is read without this one's records

    labels = labels or {}
    out, stop = [], 0
    for (locale, i, change_type), group in groupby(members, key=itemgetter(0)):
        key = GroupKey(locale, intervals[i].start, change_type)
        voters = [(voter_id, reference) for _, voter_id, _, reference in group]
        start, stop = stop, stop + len(voters)
        missing = []
        for (voter_id, reference), found in zip(voters, resolved[start:stop]):
            if reference not in seen:
                raise DataError(f"no snapshot dated {reference} to resolve voter {voter_id}")
            if not found:
                missing.append(voter_id)
        if missing:
            logger.warning(
                "group %s/%s/%s: %d voters unresolvable in their reference snapshots: %s",
                locale, key.interval_start, change_type.value,
                len(missing), ", ".join(missing[:10]),
            )
        x = rows[start:stop][resolved[start:stop]]
        if not len(x):
            raise DataError(f"group {key} has no resolvable voters")
        # np.nanmean's sum / count, without its all-NaN warning
        with np.errstate(invalid="ignore"):  # such a column (no birth date) stays NaN
            means = np.nansum(x, axis=0) / (~np.isnan(x)).sum(axis=0)
        label = labels.get((locale, key.interval_start, change_type))
        out.append(GroupFeatureVector(key, len(x), means, label))
    return out


# --- CSV ---------------------------------------------------------------------


def features_to_csv(vectors: list[GroupFeatureVector], path: str) -> None:
    """The vectors as a CSV whose header, `FEATURE_CSV_COLUMNS`, states the
    feature order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(csv_line(FEATURE_CSV_COLUMNS))
        fh.writelines(
            csv_line((
                v.key.locale,
                v.key.interval_start.isoformat(),
                v.key.change_type.value,
                str(v.n_voters),
                *[repr(float(x)) for x in v.features],
                v.label.value if v.label else "",
            ))
            for v in vectors
        )


def features_from_csv(path: str) -> list[GroupFeatureVector]:
    """The vectors `features_to_csv` wrote; `read_table` rejects any other
    header, and so any other feature order."""
    out = []
    for number, row in read_table(path, FEATURE_CSV_COLUMNS):
        try:
            key = GroupKey(row[0], dt.date.fromisoformat(row[1]), ChangeType(row[2]))
            features = np.array([float(x) for x in row[4 : 4 + len(FEATURE_NAMES)]])
            if np.isinf(features).any():  # a group mean, or NaN where it has no value
                raise ValueError("features must be finite or nan")
            out.append(
                GroupFeatureVector(
                    key=key,
                    n_voters=int(row[3]),
                    features=features,
                    label=EventLabel(row[-1]) if row[-1] else None,
                )
            )
        except (ValueError, OverflowError) as exc:
            raise FileParseError(f"{path}:{number}: {exc}") from None
    return out
