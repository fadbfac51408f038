"""Core domain records: voters, snapshots, and typed change events.

All values here are immutable after construction and safe to share
between threads; the diff and aggregation code never mutates them.
"""

from __future__ import annotations

import datetime as dt
import enum
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import IntegrityError

# Address components, in canonical order. A record's address is an ordered
# mapping over exactly these keys.
ADDRESS_FIELDS = ("house_num", "street_name", "unit", "city", "zip")
NAME_FIELDS = ("first_name", "middle_name", "last_name")


class VoterStatus(str, enum.Enum):
    ACTIVE = "active"
    INACTIVE = "inactive"
    PENDING = "pending"


class BallotKind(str, enum.Enum):
    REGULAR = "regular"
    ABSENTEE = "absentee"
    PROVISIONAL = "provisional"


class ChangeType(str, enum.Enum):
    ADDRESS = "address"
    NAME = "name"
    REMOVAL = "removal"
    REGISTRATION = "registration"
    DEACTIVATION = "deactivation"
    ACTIVATION = "activation"
    PARTY = "party"


class EventLabel(str, enum.Enum):
    """Root cause of a systematic change group: the classifier's classes."""

    INACTIVITY_MAILING = "inactivity_mailing_response_processing"
    SEPTEMBER_MAINTENANCE = "systematic_september_maintenance"
    NCOA_MAILINGS = "ncoa_mailings"
    OTHER = "other"


# Deterministic sort rank for change types (declaration order).
CHANGE_TYPE_ORDER = {ct: i for i, ct in enumerate(ChangeType)}


def normalize_text(value: str) -> str:
    """Canonical form used for field comparisons: trimmed and case-folded."""
    return value.strip().casefold()


@dataclass(frozen=True, slots=True)
class VoteEvent:
    """One ballot cast by one voter."""

    election_id: str
    election_date: dt.date
    kind: BallotKind
    party_ballot: str | None = None  # set only for party-primary ballots


@dataclass(frozen=True, slots=True)
class VoterRecord:
    """One registered voter's fields at a snapshot instant."""

    voter_id: str
    locale: str
    first_name: str = ""
    middle_name: str = ""
    last_name: str = ""
    address: tuple[str, ...] = ("", "", "", "", "")  # aligned with ADDRESS_FIELDS
    status: VoterStatus = VoterStatus.ACTIVE
    party: str = ""
    gender: str = ""
    birth_date: dt.date | None = None
    registration_date: dt.date | None = None
    last_update_date: dt.date | None = None
    vote_history: tuple[VoteEvent, ...] = ()

    def __post_init__(self) -> None:
        if not self.voter_id:
            raise IntegrityError("voter_id must be nonempty")
        if len(self.address) != len(ADDRESS_FIELDS):
            raise IntegrityError(
                f"address must have {len(ADDRESS_FIELDS)} components, got {len(self.address)}"
            )


@dataclass(frozen=True)
class Snapshot:
    """A voter-file copy captured at one instant.

    `records` holds its voters, each keyed by its own `voter_id` (the
    parser and the generator both key them so; it is not checked again
    here). `locale_counts` counts every valid row of the file, or is empty
    where no census is read from the snapshot.
    """

    snapshot_date: dt.date
    records: dict[str, VoterRecord]
    locale_counts: dict[str, int]

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True, slots=True)
class FieldDelta:
    """One field-level difference between two compared records."""

    field: str
    old: str
    new: str

    def as_list(self) -> list[str]:
        return [self.field, self.old, self.new]


@dataclass(frozen=True, slots=True)
class ChangeRecord:
    """One typed modification of one voter between two adjacent snapshots."""

    voter_id: str
    locale: str
    change_type: ChangeType
    anterior_date: dt.date
    posterior_date: dt.date
    field_deltas: tuple[FieldDelta, ...] = ()

    def __post_init__(self) -> None:
        if self.anterior_date >= self.posterior_date:
            raise IntegrityError(
                f"anterior_date {self.anterior_date} must precede posterior_date "
                f"{self.posterior_date}"
            )

    def sort_key(self) -> tuple[str, int]:
        return (self.voter_id, CHANGE_TYPE_ORDER[self.change_type])

    @property
    def reference_date(self) -> dt.date:
        """Date of the snapshot holding the voter's record for this change:
        the anterior one for a removal, the posterior one otherwise."""
        return self.anterior_date if self.change_type == ChangeType.REMOVAL else self.posterior_date


def election_tally(records: Iterable[VoterRecord]) -> dict[str, tuple[dt.date, bool, int]]:
    """Election id -> (date, primary flag, turnout) over the vote histories
    of `records`, in the order the elections are first seen. An election is
    a primary when any ballot in it was a party ballot; its turnout is its
    number of ballots."""
    elections: dict[str, list] = {}
    for rec in records:
        for ev in rec.vote_history:
            entry = elections.setdefault(ev.election_id, [ev.election_date, False, 0])
            entry[1] = entry[1] or ev.party_ballot is not None
            entry[2] += 1
    return {election_id: tuple(entry) for election_id, entry in elections.items()}
