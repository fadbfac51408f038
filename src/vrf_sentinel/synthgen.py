"""Seeded synthetic voter-file scenarios and ground truth.

Everything the pipeline consumes can be generated here without real data:
snapshot sequences whose pairwise diffs realize a configured organic
Poisson background plus systematic maintenance events and planted per-cell
anomalies, with a ground-truth record of every caused change; and, for
detector studies, modification matrices sampled directly at the cell level
over a low-rank background.

All randomness flows from the config seed through named sub-streams, so a
given config is byte-reproducible.
"""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .modmatrix import (
    DateInterval,
    MatrixEntryRef,
    ModificationMatrix,
    build_intervals,
    normalized_values,
)
from .records import (
    ADDRESS_FIELDS,
    BallotKind,
    ChangeType,
    EventLabel,
    Snapshot,
    VoteEvent,
    VoterRecord,
    VoterStatus,
)

EVENT_LABELS = tuple(label.value for label in EventLabel)
ANOMALY_CAUSE = "anomaly"
ORGANIC_CAUSE = "organic"

_FIRST_NAMES = (
    "ada amos bea carl dora earl faye gus hana ivan june kofi lena miguel nia "
    "omar pia quinn rosa sam tess umar vera walt xena yuri zoe arlo bree cole "
    "dean elsa finn gwen hugo iris jack kira liam maya noel opal pete ruth"
).split()
_LAST_NAMES = (
    "acker barnes calder dietz ellison fry gable hobbs ibarra jessup kling "
    "lowell mercer nolan obrien paulsen quimby ritter sloan tate urbina vance "
    "whitman yates zeller ash boyd crane dunn estes ford gray hale irwin jove "
    "keen lund moss ness otis park reyes shaw toups velez wolfe young"
).split()
_STREETS = (
    "oak maple cedar elm walnut birch spruce willow aspen chestnut sycamore "
    "poplar hickory locust magnolia dogwood juniper hawthorn alder laurel"
).split()
_GENDERS = ("female", "male", "other", "unknown")
_GENDER_P = (0.48, 0.48, 0.02, 0.02)
_PARTIES = ("democrat", "republican", "no_party", "libertarian", "other")
_PARTY_P = (0.32, 0.32, 0.30, 0.04, 0.02)
_STATUSES = (VoterStatus.ACTIVE, VoterStatus.INACTIVE, VoterStatus.PENDING)
_STATUS_P = (0.88, 0.10, 0.02)
_NEVER_VOTED_FRACTION = 0.22
_OLD_REGISTRATION_FRACTION = 0.35
# a ballot's kind by its draw: provisional below 0.08, absentee below 0.30
_BALLOT_KINDS = (BallotKind.PROVISIONAL, BallotKind.ABSENTEE, BallotKind.REGULAR)


# --- election calendar -------------------------------------------------------


def _election_calendar(last_year: int) -> list[tuple[str, dt.date, bool, float]]:
    """(election id, date, primary, relative statewide turnout in (0, 1]) of
    the seven years to `last_year`: generals and primaries in even years,
    small city races in odd years."""
    elections = []
    for year in range(last_year - 6, last_year + 1):
        if year % 2 == 0:
            elections.append((f"{year}-primary", dt.date(year, 6, 5), True, 0.35))
            elections.append((f"{year}-general", dt.date(year, 11, 3), False, 1.0))
        else:
            elections.append((f"{year}-city", dt.date(year, 9, 10), False, 0.12))
    return elections


# --- configs -----------------------------------------------------------------

# every scenario, snapshot-level or matrix-level, is weekly from one Monday
INTERVAL_DAYS = 7
START_DATE = dt.date(2018, 6, 4)


@dataclass(frozen=True)
class EventSpec:
    """One systematic maintenance event: a set of cells plus how voters are
    drawn for it."""

    kind: str                      # one of EVENT_LABELS
    change_type: ChangeType
    locales: tuple[str, ...]       # locale codes, or () for statewide
    interval_index: int
    per_1000: float                # target changes per 1000 registered voters
    companion_address_fraction: float = 0.0  # share also getting an address change

    def __post_init__(self) -> None:
        if self.kind not in EVENT_LABELS:
            raise ConfigError(f"unknown event kind {self.kind!r}")


@dataclass(frozen=True)
class PlantedAnomaly:
    locale: str
    interval_index: int
    change_type: ChangeType
    count: int


@dataclass(frozen=True)
class ScenarioConfig:
    n_locales: int = 99
    population_median: float = 10_000.0
    population_sigma: float = 0.5
    n_intervals: int = 149
    # organic background, changes per-day per-1000 voters by type
    base_rates: dict[ChangeType, float] = field(
        default_factory=lambda: {
            ChangeType.ADDRESS: 0.30,
            ChangeType.NAME: 0.06,
            ChangeType.REMOVAL: 0.10,
            ChangeType.REGISTRATION: 0.25,
            ChangeType.DEACTIVATION: 0.12,
            ChangeType.ACTIVATION: 0.08,
            ChangeType.PARTY: 0.05,
        }
    )
    events: tuple[EventSpec, ...] = ()
    anomalies: tuple[PlantedAnomaly, ...] = ()
    seed: int = 0

    def locale_codes(self) -> tuple[str, ...]:
        return tuple(f"L{i:03d}" for i in range(1, self.n_locales + 1))

    def snapshot_dates(self) -> tuple[dt.date, ...]:
        return tuple(
            START_DATE + dt.timedelta(days=i * INTERVAL_DAYS) for i in range(self.n_intervals + 1)
        )


@dataclass(frozen=True)
class TruthChange:
    interval_index: int
    voter_id: str
    locale: str
    change_type: ChangeType
    cause: str


@dataclass
class GroundTruth:
    """Everything the generator did, for oracle-style verification."""

    config_seed: int
    start_date: dt.date
    interval_days: int
    n_intervals: int
    locales: tuple[str, ...]
    changes: list[TruthChange] = field(default_factory=list)
    cell_causes: dict[tuple[str, int, str], str] = field(default_factory=dict)
    inserted_voters: int = 0
    removed_voters: int = 0

    def interval(self, index: int) -> DateInterval:
        start = self.start_date + dt.timedelta(days=(index + 1) * self.interval_days)
        return DateInterval(start, start + dt.timedelta(days=self.interval_days))

    def to_json(self) -> str:
        payload = {
            "config_seed": self.config_seed,
            "start_date": self.start_date.isoformat(),
            "interval_days": self.interval_days,
            "n_intervals": self.n_intervals,
            "locales": list(self.locales),
            "inserted_voters": self.inserted_voters,
            "removed_voters": self.removed_voters,
            "changes": [
                [c.interval_index, c.voter_id, c.locale, c.change_type.value, c.cause]
                for c in self.changes
            ],
            "cell_causes": [
                [locale, interval, change_type, cause]
                for (locale, interval, change_type), cause in sorted(self.cell_causes.items())
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=1)


# --- scenario walk -----------------------------------------------------------

_STATUS_TYPES = (ChangeType.DEACTIVATION, ChangeType.ACTIVATION)
_BIT = {ct: 1 << i for i, ct in enumerate(ChangeType)}  # a type's bit in a voter's `touched` byte
_ENDS = _BIT[ChangeType.REGISTRATION] | _BIT[ChangeType.REMOVAL]  # a voter's first and last change
# The types a voter already got this interval that rule out one more change of
# each type, as bits, so the stream matches the diff semantics: one record per
# (voter, type), one status change per voter, and a registration or removal
# combines with nothing else.
_BLOCKED_BY = {
    **{ct: _ENDS | _BIT[ct] for ct in ChangeType},
    **dict.fromkeys(_STATUS_TYPES, _ENDS | sum(_BIT[ct] for ct in _STATUS_TYPES)),
    ChangeType.REMOVAL: sum(_BIT.values()),
}
# a voter's flag bits: three bias flags fixed at creation, and whether the voter
# ever got a field or status change
_LAPSED, _STALE, _MOVER, _CHANGED = 1, 2, 4, 8
# Bias profiles making event cohorts separable by kind: a biased kind's (flag
# bits, wanted value). Its favoured voters weigh 1.0 in a pick, the rest 0.02.
_FAVOURED = {
    "inactivity_mailing_response_processing": (_LAPSED, _LAPSED),  # voted, but not in 2 years
    "systematic_september_maintenance": (_STALE | _CHANGED, _STALE),  # no ballot or change ever
    "ncoa_mailings": (_MOVER, _MOVER),  # older movers with a live voting habit
}


def _voter_id(num: int) -> str:
    """Voter number `num`'s id: ids are zero-padded and issued in order from V0000001."""
    return f"V{num + 1:07d}"


def iter_scenario_snapshots(config: ScenarioConfig):
    """Yield (snapshot, truth) pairs one interval at a time.

    The truth object is shared and grows as intervals are generated; it is
    complete once the final snapshot has been yielded. Streaming keeps big
    scenarios out of memory.
    """
    _validate_config(config)
    yield from _Walk(config)


def _validate_config(config: ScenarioConfig) -> None:
    codes = set(config.locale_codes())
    for event in config.events:
        if not 0 <= event.interval_index < config.n_intervals:
            raise ConfigError(f"event interval {event.interval_index} out of range")
        unknown = set(event.locales) - codes
        if unknown:
            raise ConfigError(f"event references unknown locales: {sorted(unknown)}")
    for anomaly in config.anomalies:
        if anomaly.locale not in codes:
            raise ConfigError(f"anomaly references unknown locale {anomaly.locale!r}")
        if not 0 <= anomaly.interval_index < config.n_intervals:
            raise ConfigError(f"anomaly interval {anomaly.interval_index} out of range")
    for change_type, rate in config.base_rates.items():
        if rate < 0:
            raise ConfigError(f"negative base rate for {change_type.value}")


class _Walk:
    """One scenario walk: the voters, the ground truth and the current
    interval `t`. Voter attributes draw from the seed's first stream and
    change draws from its second, each in a fixed order."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        voter_seq, change_seq = np.random.SeedSequence(config.seed).spawn(2)
        self.voter_rng = np.random.default_rng(voter_seq)
        self.rng = np.random.default_rng(change_seq)
        self.truth = GroundTruth(
            config_seed=config.seed,
            start_date=START_DATE,
            interval_days=INTERVAL_DAYS,
            n_intervals=config.n_intervals,
            locales=config.locale_codes(),
        )
        calendar = _election_calendar(START_DATE.year)
        # the calendar as arrays: each election's day relative to the start, and its scale
        self.election_days = np.array([(day - START_DATE).days for _, day, _, _ in calendar])
        self.turnout_scales = np.array([scale for *_, scale in calendar])
        # every ballot a voter can cast, by (election, ballot kind, party): the
        # kinds in `_BALLOT_KINDS` order, and a party ballot only in primaries
        self.ballots = np.array([
            [[VoteEvent(election_id, day, kind, party if primary else None) for party in _PARTIES]
             for kind in _BALLOT_KINDS]
            for election_id, day, primary, _ in calendar
        ], dtype=object)
        self.dates = config.snapshot_dates()
        self.records: dict[str, VoterRecord] = {}
        # each locale's voter numbers; numbers are issued in order, so they stay sorted
        self.by_locale = {code: np.empty(0, dtype=np.int64) for code in config.locale_codes()}
        self.t = -1  # the interval being walked; -1 before the first
        # one byte per voter number: its `_STATUSES` index, this interval's
        # change type bits, and its flag bits
        self.status, self.touched, self.flags = bytearray(), bytearray(), bytearray()

        draws = self.voter_rng.normal(0.0, 1.0, size=config.n_locales)
        pops = np.round(config.population_median * np.exp(config.population_sigma * draws))
        for code, pop in zip(config.locale_codes(), pops):
            self._new_voters(code, int(max(50, pop)), START_DATE, established=True)

    def __iter__(self):
        events: dict[int, list[EventSpec]] = {}
        for event in self.config.events:
            events.setdefault(event.interval_index, []).append(event)
        anomalies: dict[int, list[PlantedAnomaly]] = {}
        for anomaly in self.config.anomalies:
            anomalies.setdefault(anomaly.interval_index, []).append(anomaly)

        yield self._snapshot(), self.truth
        for self.t in range(self.config.n_intervals):
            self.touched = bytearray(len(self.touched))
            self._organic()
            for event in events.get(self.t, ()):
                self._event(event)
            for anomaly in anomalies.get(self.t, ()):
                self._anomaly(anomaly)
            yield self._snapshot(), self.truth

    def _snapshot(self) -> Snapshot:
        counts = {locale: len(nums) for locale, nums in self.by_locale.items() if len(nums)}
        return Snapshot(
            snapshot_date=self.dates[self.t + 1], records=dict(self.records), locale_counts=counts
        )

    def _new_voters(self, locale: str, n: int, as_of: dt.date, established: bool) -> None:
        """Sample all attribute columns at once, derive dates, ballots and bias
        flags as arrays over (voters x elections), then add the records."""
        rng = self.voter_rng
        age_years = rng.uniform(18.5, 94.0, size=n)
        adult_days = np.maximum(60, ((age_years - 18.0) * 365).astype(int))
        if established:
            old = rng.random(n) < _OLD_REGISTRATION_FRACTION
            recent_days = rng.uniform(90, 3650, size=n).astype(int)
            old_days = rng.uniform(3650, 10950, size=n).astype(int)
            reg_days = np.where(old & (adult_days > 3650), old_days, recent_days)
            reg_days = np.minimum(np.maximum(reg_days, 30), adult_days)
            statuses = rng.choice(len(_STATUSES), size=n, p=_STATUS_P)
        else:
            reg_days = np.zeros(n, dtype=int)
            statuses = np.where(rng.random(n) < 0.9, 0, 2)  # active or pending
        parties = rng.choice(len(_PARTIES), size=n, p=_PARTY_P)
        genders = rng.choice(len(_GENDERS), size=n, p=_GENDER_P)
        firsts = rng.integers(len(_FIRST_NAMES), size=n)
        lasts = rng.integers(len(_LAST_NAMES), size=n)
        houses = rng.integers(1, 9900, size=n)
        streets = rng.integers(len(_STREETS), size=n)
        zips = rng.integers(0, 9999, size=n)
        never = rng.random(n) < _NEVER_VOTED_FRACTION
        propensity = rng.uniform(0.25, 0.95, size=n)
        # per-election participation draws, columns aligned with the calendar
        turnout = rng.random((n, len(self.election_days)))
        kind_draw = rng.random((n, len(self.election_days)))

        # days relative to the scenario start, like `election_days`
        as_of_day = (as_of - START_DATE).days
        born = as_of_day - (age_years * 365.25).astype(int)
        registered = as_of_day - reg_days
        voted = (
            ~never[:, np.newaxis]
            & (self.election_days > registered[:, np.newaxis])
            & (self.election_days < 0)
            & (turnout < propensity[:, np.newaxis] * self.turnout_scales)
        )
        rows, cols = np.nonzero(voted)  # row-major: each voter's ballots in calendar order
        kinds = np.digitize(kind_draw[rows, cols], (0.08, 0.30))
        ballots = self.ballots[cols, kinds, parties[rows]].tolist()
        ends = np.cumsum(voted.sum(axis=1)).tolist()
        histories = [tuple(ballots[a:b]) for a, b in zip([0, *ends], ends)]

        # bias flags at the scenario start, fixed for good: no change type edits
        # the vote history, registration or birth date they come from
        since_vote = np.where(voted, -self.election_days, np.inf).min(axis=1)  # inf: no ballot
        lapsed = np.isfinite(since_vote) & (since_vote >= 700)  # voted, but not lately
        stale = np.isinf(since_vote) & (-registered >= 3000)  # never voted, long registered
        mover = (since_vote < 800) & (-born / 365.25 >= 64)  # aged 64+, voted lately

        start = np.datetime64(START_DATE, "D")
        nums = np.arange(len(self.status), len(self.status) + n)
        ids = [_voter_id(num) for num in nums.tolist()]
        city = f"{locale} city"
        for vid, first, last, house, street, zip_code, status, party, gender, birth, reg, history in zip(
            ids, firsts.tolist(), lasts.tolist(), houses.tolist(), streets.tolist(), zips.tolist(),
            statuses.tolist(), parties.tolist(), genders.tolist(),
            (start + born).tolist(), (start + registered).tolist(), histories,
        ):
            self.records[vid] = VoterRecord(
                vid, locale, _FIRST_NAMES[first], "", _LAST_NAMES[last],
                (str(house), f"{_STREETS[street]} st", "", city, f"5{zip_code:04d}"),
                _STATUSES[status], _PARTIES[party], _GENDERS[gender], birth, reg, reg, history,
            )
        self.by_locale[locale] = np.append(self.by_locale[locale], nums)
        self.status += bytes(statuses.astype(np.uint8))
        self.touched += bytes(n)
        self.flags += bytes((lapsed * _LAPSED | stale * _STALE | mover * _MOVER).astype(np.uint8))

    def _organic(self) -> None:
        cfg = self.config
        for locale in cfg.locale_codes():
            pop = len(self.by_locale[locale])
            for change_type in ChangeType:
                rate = cfg.base_rates.get(change_type, 0.0)
                if rate <= 0.0 or pop == 0:
                    continue
                count = int(self.rng.poisson(rate * INTERVAL_DAYS * pop / 1000.0))
                for _ in range(count):
                    self._change(locale, change_type, ORGANIC_CAUSE)

    def _event(self, event: EventSpec) -> None:
        for locale in event.locales or self.config.locale_codes():
            pop = len(self.by_locale[locale])
            count = max(1, int(round(event.per_1000 * pop / 1000.0)))
            if event.kind == "other":
                count = int(self.rng.integers(3, 16))  # small clusters by definition
            applied = 0
            for _ in range(count):
                num = self._change(locale, event.change_type, event.kind, bias=event.kind)
                if num is None:
                    continue
                applied += 1
                if (
                    event.companion_address_fraction > 0
                    and self.rng.random() < event.companion_address_fraction
                    and not self.touched[num] & _BLOCKED_BY[ChangeType.ADDRESS]
                ):
                    self._mutate(num, ChangeType.ADDRESS)
                    self._record(num, locale, ChangeType.ADDRESS, event.kind)
            if applied == 0:
                raise ConfigError(
                    f"event {event.kind} at interval {self.t} found no eligible voters in {locale}"
                )

    def _anomaly(self, anomaly: PlantedAnomaly) -> None:
        applied = sum(
            self._change(anomaly.locale, anomaly.change_type, ANOMALY_CAUSE) is not None
            for _ in range(anomaly.count)
        )
        if applied < anomaly.count:
            raise ConfigError(
                f"anomaly at ({anomaly.locale}, {self.t}) wanted {anomaly.count} "
                f"{anomaly.change_type.value} changes, applied {applied}"
            )

    def _change(
        self, locale: str, change_type: ChangeType, cause: str, bias: str | None = None
    ) -> int | None:
        """Apply one change of the given type; returns the voter number or None
        if no eligible voter exists."""
        if change_type == ChangeType.REGISTRATION:
            self._new_voters(locale, 1, self.dates[self.t + 1], established=False)
            num = len(self.status) - 1
            self.truth.inserted_voters += 1
        elif change_type == ChangeType.REMOVAL:
            num = self._pick(locale, change_type)
            if num is None:
                return None
            del self.records[_voter_id(num)]
            nums = self.by_locale[locale]
            self.by_locale[locale] = nums[nums != num]
            self.truth.removed_voters += 1
        elif change_type in _STATUS_TYPES:
            old, new = VoterStatus.ACTIVE, VoterStatus.INACTIVE
            if change_type == ChangeType.ACTIVATION:
                old, new = new, old
            num = self._pick(locale, change_type, old, bias)
            if num is None:
                return None
            voter_id = _voter_id(num)
            self.records[voter_id] = replace(self.records[voter_id], status=new)
            self.status[num] = _STATUSES.index(new)
        else:
            num = self._pick(locale, change_type, bias=bias)
            if num is None:
                return None
            self._mutate(num, change_type)
        self._record(num, locale, change_type, cause)
        return num

    def _mutate(self, num: int, change_type: ChangeType) -> None:
        """Give a voter a new address, last name or party."""
        voter_id = _voter_id(num)
        rng, rec = self.rng, self.records[voter_id]
        if change_type == ChangeType.ADDRESS:
            addr = list(rec.address)
            house_idx = ADDRESS_FIELDS.index("house_num")
            street_idx = ADDRESS_FIELDS.index("street_name")
            addr[house_idx] = str(int(rng.integers(1, 9900)))
            new_street = f"{_STREETS[rng.integers(len(_STREETS))]} ave"
            if new_street == addr[street_idx]:
                new_street = f"{_STREETS[rng.integers(len(_STREETS))]} rd"
            addr[street_idx] = new_street
            rec = replace(rec, address=tuple(addr))
        elif change_type == ChangeType.NAME:
            new_last = _LAST_NAMES[rng.integers(len(_LAST_NAMES))]
            if new_last == rec.last_name:
                new_last = rec.last_name + "son"
            rec = replace(rec, last_name=new_last)
        else:
            choices = [p for p in _PARTIES if p != rec.party]
            rec = replace(rec, party=choices[rng.integers(len(choices))])
        self.records[voter_id] = rec

    def _record(self, num: int, locale: str, change_type: ChangeType, cause: str) -> None:
        self.touched[num] |= _BIT[change_type]
        if not _BIT[change_type] & _ENDS:
            self.flags[num] |= _CHANGED
        truth = self.truth
        truth.changes.append(TruthChange(self.t, _voter_id(num), locale, change_type, cause))
        if cause != ORGANIC_CAUSE:
            cell = (locale, self.t, change_type.value)
            # anomaly marks win over event marks when both touch a cell
            if truth.cell_causes.get(cell) != ANOMALY_CAUSE:
                truth.cell_causes[cell] = cause

    def _pick(
        self,
        locale: str,
        change_type: ChangeType,
        status: VoterStatus | None = None,
        bias: str | None = None,
    ) -> int | None:
        """The number of a voter of the locale, with `status` if given, who may
        still get this change type, weighted by `bias`; None if there is none."""
        nums, rng = self.by_locale[locale], self.rng
        if not len(nums):
            return None
        eligible = np.frombuffer(self.touched, np.uint8)[nums] & _BLOCKED_BY[change_type] == 0
        if status is not None:
            eligible &= np.frombuffer(self.status, np.uint8)[nums] == _STATUSES.index(status)
        favoured = _FAVOURED.get(bias)
        if favoured is None:
            # unbiased picks dominate; try rejection sampling before taking the pool
            for _ in range(40):
                i = int(rng.integers(len(nums)))
                if eligible[i]:
                    return int(nums[i])
        pool = nums[eligible]
        if not len(pool):
            return None
        if favoured is None:
            return int(pool[rng.integers(len(pool))])
        bits, want = favoured
        weights = np.where(np.frombuffer(self.flags, np.uint8)[pool] & bits == want, 1.0, 0.02)
        return int(pool[rng.choice(len(pool), p=weights / weights.sum())])


# --- labels ------------------------------------------------------------------

LABEL_COUNTS = (99, 37, 27, 21)  # labeled groups per label, in EVENT_LABELS order


def scenario_labels(truth: GroundTruth, change_type: ChangeType) -> list[tuple[str, int, str]]:
    """(locale, interval_index, label) triples for systematic change groups.

    Each label takes the first LABEL_COUNTS cells, in sorted order, of the
    ground truth's cells of that cause for the change type.
    """
    by_label: dict[str, list[tuple[str, int]]] = {label: [] for label in EVENT_LABELS}
    for (locale, interval, ct), cause in sorted(truth.cell_causes.items()):
        if ct == change_type.value and cause in by_label:
            by_label[cause].append((locale, interval))

    labeled = []
    for label, count in zip(EVENT_LABELS, LABEL_COUNTS):
        cells = by_label[label]
        if len(cells) < count:
            raise ConfigError(
                f"ground truth has {len(cells)} {label} cells, need {count}"
            )
        labeled.extend((locale, interval, label) for locale, interval in cells[:count])
    return labeled


# --- matrix-level scenarios ----------------------------------------------------

_SEASONAL_PERIOD = 52.0  # intervals
_EVENT_PROFILE_SIGMA = 0.30
_ANOMALY_MULTIPLIER = 10.0  # times the organic background mean value


@dataclass(frozen=True)
class MatrixScenarioConfig:
    """Direct cell-level sampling of a deactivation modification matrix
    over a low-rank background: smooth locale levels and seasonality plus a
    handful of statewide event columns, Poisson-sampled counts, and planted
    anomaly cells."""

    n_locales: int = 99
    n_intervals: int = 149
    population_median: float = 10_000.0
    population_sigma: float = 0.5
    base_rate: float = 0.18
    locale_sigma: float = 0.12
    seasonal_amplitude: float = 0.25
    # each event column carries its own locale profile, so the systematic
    # structure spans more independent components than a k=5 factorization
    # can spend on single-cell spikes
    event_intervals: tuple[int, ...] = (12, 18, 34, 44, 70, 96, 122, 140)
    event_intensities: tuple[float, ...] = (9.0, 8.0, 12.0, 13.0, 7.0, 11.0, 16.0, 8.0)
    anomaly_cells: tuple[tuple[int, int], ...] = ()
    seed: int = 0


@dataclass(frozen=True)
class MatrixGroundTruth:
    anomaly_refs: tuple[MatrixEntryRef, ...]
    event_intervals: tuple[int, ...]
    background_mean: float


def generate_matrix_scenario(
    config: MatrixScenarioConfig,
) -> tuple[ModificationMatrix, MatrixGroundTruth]:
    if len(config.event_intervals) != len(config.event_intensities):
        raise ConfigError("event intervals and intensities must align")
    for j in config.event_intervals:
        if not 0 <= j < config.n_intervals:
            raise ConfigError(f"event interval {j} out of range")
    for i, j in config.anomaly_cells:
        if not (0 <= i < config.n_locales and 0 <= j < config.n_intervals):
            raise ConfigError(f"anomaly cell ({i}, {j}) out of range")

    root = np.random.SeedSequence(config.seed)
    pop_rng, level_rng, profile_rng, count_rng = (
        np.random.default_rng(s) for s in root.spawn(4)
    )

    pops = np.round(
        config.population_median
        * np.exp(config.population_sigma * pop_rng.normal(size=config.n_locales))
    ).astype(np.int64)
    pops = np.maximum(pops, 500)

    level = np.exp(config.locale_sigma * level_rng.normal(size=config.n_locales))
    phase = np.arange(config.n_intervals) * 2.0 * np.pi / _SEASONAL_PERIOD
    season = 1.0 + config.seasonal_amplitude * np.sin(phase)
    rates = config.base_rate * np.outer(level, season)

    profiles = np.exp(
        _EVENT_PROFILE_SIGMA
        * profile_rng.normal(size=(len(config.event_intervals), config.n_locales))
    )
    for e, (j, intensity) in enumerate(zip(config.event_intervals, config.event_intensities)):
        rates[:, j] += config.base_rate * intensity * profiles[e]

    lam = rates * INTERVAL_DAYS * pops[:, np.newaxis] / 1000.0
    raw = count_rng.poisson(lam).astype(np.int64)

    pop_grid = np.repeat(pops[:, np.newaxis], config.n_intervals, axis=1)
    background_mean = float(np.mean(normalized_values(raw, pop_grid, INTERVAL_DAYS)))

    anomaly_refs = []
    for i, j in config.anomaly_cells:
        extra_value = _ANOMALY_MULTIPLIER * background_mean
        extra = max(1, int(round(extra_value * INTERVAL_DAYS * pops[i] / 1000.0)))
        raw[i, j] += extra
        anomaly_refs.append(MatrixEntryRef(i, j))

    values = normalized_values(raw, pop_grid, INTERVAL_DAYS)
    intervals = build_intervals(
        START_DATE,
        START_DATE + dt.timedelta(days=(config.n_intervals - 1) * INTERVAL_DAYS),
        INTERVAL_DAYS,
    )
    matrix = ModificationMatrix(
        change_type=ChangeType.DEACTIVATION,
        locales=tuple(f"L{i:03d}" for i in range(1, config.n_locales + 1)),
        intervals=intervals,
        values=values,
        raw_counts=raw,
        populations=pop_grid,
    )
    return matrix, MatrixGroundTruth(
        anomaly_refs=tuple(anomaly_refs),
        event_intervals=config.event_intervals,
        background_mean=background_mean,
    )


def planted_anomaly_matrix_config(seed: int = 0) -> MatrixScenarioConfig:
    """Default 99x149 study: four planted cells in quiet regions."""
    return MatrixScenarioConfig(
        anomaly_cells=((7, 23), (31, 58), (54, 87), (80, 112)),
        seed=seed,
    )


# --- scenario presets ----------------------------------------------------------


def snapshot_pair_config(seed: int, n_voters: int = 12_000) -> ScenarioConfig:
    """Two-snapshot scenario with at least ~n_voters across a few locales."""
    n_locales = 6
    return ScenarioConfig(
        n_locales=n_locales,
        population_median=n_voters / n_locales,
        population_sigma=0.2,
        n_intervals=1,
        base_rates={
            ChangeType.ADDRESS: 2.0,
            ChangeType.NAME: 0.8,
            ChangeType.REMOVAL: 1.0,
            ChangeType.REGISTRATION: 1.5,
            ChangeType.DEACTIVATION: 1.2,
            ChangeType.ACTIVATION: 0.8,
            ChangeType.PARTY: 0.6,
        },
        seed=seed,
    )


def small_scenario_config(seed: int = 0) -> ScenarioConfig:
    """Compact end-to-end scenario: 12 locales x 20 intervals with one
    statewide event and one planted anomaly."""
    locales = tuple(f"L{i:03d}" for i in range(1, 13))
    return ScenarioConfig(
        n_locales=12,
        population_median=900.0,
        population_sigma=0.3,
        n_intervals=20,
        events=(
            EventSpec(
                kind="inactivity_mailing_response_processing",
                change_type=ChangeType.DEACTIVATION,
                locales=(),
                interval_index=8,
                per_1000=25.0,
                companion_address_fraction=0.3,
            ),
        ),
        anomalies=(
            PlantedAnomaly(locale=locales[4], interval_index=14,
                           change_type=ChangeType.DEACTIVATION, count=40),
        ),
        seed=seed,
    )


def labeled_scenario_config(seed: int = 0) -> ScenarioConfig:
    """Scenario whose deactivation cells support the default 99:37:27:21
    label proportions: one statewide mailing event, a 37-locale September
    maintenance, a 27-locale address-list event, and 21 small clusters."""
    n_locales = 99
    codes = tuple(f"L{i:03d}" for i in range(1, n_locales + 1))
    events = [
        EventSpec(
            kind="inactivity_mailing_response_processing",
            change_type=ChangeType.DEACTIVATION,
            locales=(),
            interval_index=6,
            per_1000=55.0,
            companion_address_fraction=0.35,
        ),
        EventSpec(
            kind="systematic_september_maintenance",
            change_type=ChangeType.DEACTIVATION,
            locales=codes[5:42],
            interval_index=9,
            per_1000=40.0,
        ),
        EventSpec(
            kind="ncoa_mailings",
            change_type=ChangeType.DEACTIVATION,
            locales=codes[50:77],
            interval_index=12,
            per_1000=40.0,
        ),
    ]
    cluster_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(97,)))
    cluster_intervals = [t for t in range(2, 15) if t not in (6, 9, 12)]
    used: set[tuple[int, int]] = set()
    for _ in range(21):
        while True:
            loc = int(cluster_rng.integers(0, n_locales))
            interval = cluster_intervals[int(cluster_rng.integers(len(cluster_intervals)))]
            if (loc, interval) not in used:
                used.add((loc, interval))
                break
        events.append(
            EventSpec(
                kind="other",
                change_type=ChangeType.DEACTIVATION,
                locales=(codes[loc],),
                interval_index=interval,
                per_1000=10.0,
            )
        )
    return ScenarioConfig(
        n_locales=n_locales,
        population_median=520.0,
        population_sigma=0.3,
        n_intervals=16,
        base_rates={
            ChangeType.ADDRESS: 0.5,
            ChangeType.NAME: 0.08,
            ChangeType.REMOVAL: 0.10,
            ChangeType.REGISTRATION: 0.25,
            ChangeType.DEACTIVATION: 0.10,
            ChangeType.ACTIVATION: 0.08,
            ChangeType.PARTY: 0.06,
        },
        events=tuple(events),
        seed=seed,
    )
