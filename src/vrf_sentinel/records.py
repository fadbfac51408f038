"""Core domain records: voters, snapshots, and typed change events.

All values here are immutable after construction and safe to share
between threads; the diff and aggregation code never mutates them.
"""

from __future__ import annotations

import datetime as dt
import enum
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

    def address_map(self) -> dict[str, str]:
        return dict(zip(ADDRESS_FIELDS, self.address))

    def name_key(self) -> tuple[str, str, str]:
        return (
            normalize_text(self.first_name),
            normalize_text(self.middle_name),
            normalize_text(self.last_name),
        )

    def address_key(self) -> tuple[str, ...]:
        return tuple(normalize_text(part) for part in self.address)

    def party_key(self) -> str:
        return normalize_text(self.party)


@dataclass(frozen=True)
class Snapshot:
    """A voter-file copy captured at one instant.

    `records` holds every voter, or only the voters a caller asked the
    parser for. `locale_counts` covers every valid row of the file either
    way; when not supplied (a snapshot built in memory) it is derived from
    `records`.
    """

    snapshot_date: dt.date
    records: dict[str, VoterRecord]
    locale_counts: dict[str, int] | None = None

    def __post_init__(self) -> None:
        for voter_id, rec in self.records.items():
            if voter_id != rec.voter_id:
                raise IntegrityError(
                    f"record keyed {voter_id!r} carries voter_id {rec.voter_id!r}"
                )
        if self.locale_counts is None:
            counts: dict[str, int] = {}
            for rec in self.records.values():
                counts[rec.locale] = counts.get(rec.locale, 0) + 1
            object.__setattr__(self, "locale_counts", counts)

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
