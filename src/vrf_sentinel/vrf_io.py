"""Snapshot parsing, temporal diffing, and change-record CSV round trips."""

from __future__ import annotations

import csv
import datetime as dt
import io
import itertools
import json
import logging
import re
from collections import Counter
from collections.abc import Collection, Iterable, Iterator
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Any, TextIO

from .errors import FileParseError, IntegrityError, SchemaError, VrfError
from .records import (
    ADDRESS_FIELDS,
    NAME_FIELDS,
    BallotKind,
    ChangeRecord,
    ChangeType,
    FieldDelta,
    Snapshot,
    VoteEvent,
    VoterRecord,
    VoterStatus,
    normalize_text,
)

logger = logging.getLogger(__name__)

# Logical fields a schema config may map. voter_id / locale / status must be
# present; the rest default to empty when unmapped.
REQUIRED_FIELDS = ("voter_id", "locale", "status")
OPTIONAL_FIELDS = (
    "first_name",
    "middle_name",
    "last_name",
    "house_num",
    "street_name",
    "unit",
    "city",
    "zip",
    "party",
    "gender",
    "birth_date",
    "registration_date",
    "last_update_date",
    "vote_history",
)
LOGICAL_FIELDS = REQUIRED_FIELDS + OPTIONAL_FIELDS

_DATE_IN_NAME = re.compile(r"(\d{4}-\d{2}-\d{2})")


@dataclass(frozen=True)
class SnapshotSchema:
    """Maps logical voter fields to the columns of one snapshot file."""

    columns: dict[str, str]
    delimiter: str = ","
    snapshot_date: dt.date | None = None

    def __post_init__(self) -> None:
        missing = [f for f in REQUIRED_FIELDS if f not in self.columns]
        if missing:
            raise SchemaError(f"schema does not map required fields: {', '.join(missing)}")
        unknown = [f for f in self.columns if f not in LOGICAL_FIELDS]
        if unknown:
            raise SchemaError(f"schema maps unknown logical fields: {', '.join(unknown)}")


def identity_schema(snapshot_date: dt.date | None = None) -> SnapshotSchema:
    """Schema where every column is named after its logical field."""
    return SnapshotSchema(
        columns={f: f for f in LOGICAL_FIELDS}, snapshot_date=snapshot_date
    )


def load_schema(path: str) -> SnapshotSchema:
    """Read a key-value schema config (one `logical = column` pair per line).

    Lines starting with '#' are comments. Special keys: `delimiter` and
    `snapshot_date` (ISO-8601).
    """
    columns: dict[str, str] = {}
    delimiter = ","
    snapshot_date = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SchemaError(f"{path}:{lineno}: expected 'logical = column', got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key == "delimiter":
                delimiter = value
            elif key == "snapshot_date":
                snapshot_date = _parse_date(value, f"{path}:{lineno}")
            else:
                columns[key] = value
    return SnapshotSchema(columns=columns, delimiter=delimiter, snapshot_date=snapshot_date)


def _parse_date(text: str, where: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError as exc:
        raise FileParseError(f"{where}: bad date {text!r}") from exc


@dataclass(frozen=True)
class RowIssue:
    line: int
    field: str
    message: str


def _memo_date(text: str, memo: dict[str, dt.date]) -> dt.date:
    """ISO date of a stripped cell; parsed dates are remembered in `memo`."""
    try:
        return memo[text]
    except KeyError:
        pass
    try:
        date = dt.date.fromisoformat(text)
    except ValueError:
        raise ValueError(f"bad date {text!r}") from None
    memo[text] = date
    return date


def _vote_event(token: str, dates: dict[str, dt.date]) -> VoteEvent:
    parts = token.split("|")
    if len(parts) != 4:
        raise ValueError(f"bad vote-history token {token!r}")
    election_id, date_text, kind_text, party = (p.strip() for p in parts)
    try:
        kind = BallotKind(kind_text)
    except ValueError:
        raise ValueError(f"unknown ballot kind {kind_text!r}") from None
    return VoteEvent(
        election_id=election_id,
        election_date=_memo_date(date_text, dates),
        kind=kind,
        party_ballot=party or None,
    )


def _memo_history(
    cell: str,
    memo: dict[str, tuple[VoteEvent, ...]],
    events: dict[str, VoteEvent],
    dates: dict[str, dt.date],
) -> tuple[VoteEvent, ...]:
    """Decode a stripped `election_id|date|kind|party;...` cell.

    Whole cells, and more so their tokens, repeat heavily across voters
    (same elections), so decoded histories and events are remembered in
    `memo` and `events`; VoteEvent is immutable and safe to share.
    """
    try:
        return memo[cell]
    except KeyError:
        pass
    history = []
    for token in cell.split(";") if cell else ():
        event = events.get(token)
        if event is None:
            event = events[token] = _vote_event(token, dates)
        history.append(event)
    memo[cell] = decoded = tuple(history)
    return decoded


def csv_writer(fh: TextIO, texts: Iterable[str]) -> Any:
    """The csv writer of the artifacts that hold voter ids or locales, with
    "\n" line ends.

    Under that terminator csv leaves a carriage return inside a cell
    unquoted (Python 3.11 does), and a reader then splits the row there.
    So when any of `texts`, the free-text cells to be written (voter ids,
    locales), holds one, every cell of the file is quoted.
    """
    quoting = csv.QUOTE_ALL if any("\r" in text for text in texts) else csv.QUOTE_MINIMAL
    return csv.writer(fh, lineterminator="\n", quoting=quoting)


def format_vote_history(history: tuple[VoteEvent, ...]) -> str:
    return ";".join(
        f"{ev.election_id}|{ev.election_date.isoformat()}|{ev.kind.value}|{ev.party_ballot or ''}"
        for ev in history
    )


@dataclass
class LineMemo:
    """The valid one-line rows of the last file a snapshot stream parsed.

    `rows` maps a raw line to `(voter_id, locale, VoterRecord or None,
    line)`: its parse under `scope`, that file's header and schema, and the
    line itself, so that a line two files share is held once.
    `parse_snapshot` reuses an entry for a byte-identical line of the next
    file, then replaces `rows` with that file's own, so the memo never
    outgrows one file. `reused` counts the lines served from it so far.
    """

    scope: tuple | None = None
    rows: dict[str, tuple[str, str, VoterRecord | None, str]] = field(default_factory=dict)
    reused: int = 0


class _LineFeed:
    """Source of csv.reader: the line the parse loop hands it, then, for a
    record that goes on past it (a quoted field spanning lines, or one the
    file ends inside), further lines of the file, noting that in `pulled`."""

    def __init__(self, lines: Iterator[str]) -> None:
        self.lines = lines
        self.line: str | None = None
        self.pulled = False

    def __iter__(self) -> _LineFeed:
        return self

    def __next__(self) -> str:
        line = self.line
        if line is None:
            self.pulled = True
            return next(self.lines)
        self.line = None
        return line


def parse_snapshot(
    path: str,
    schema: SnapshotSchema,
    snapshot_date: dt.date | None = None,
    issues: list[RowIssue] | None = None,
    voter_ids: Collection[str] | None = None,
    memo: LineMemo | None = None,
) -> Snapshot:
    """Parse a delimited snapshot file into a Snapshot.

    Every row is validated. Rows whose fields cannot be parsed are appended
    to `issues` (and summarized in one warning) rather than silently
    dropped; their line numbers count records, the header being 1.
    Duplicate voter ids among the valid rows abort with an IntegrityError
    naming the offenders. `locale_counts` counts every valid row; `records`
    holds the voters in `voter_ids`, or every voter when it is None.

    A `memo` shared along a stream of files lets a line byte-identical to a
    valid one-line row of the previous file take that row's parse instead
    of being split and validated again, when both files have the same
    header and schema (otherwise the memo starts empty). A reused row still
    counts in `locale_counts` and in duplicate detection, and one whose
    record is wanted but was not built is parsed afresh. Malformed rows and
    rows spanning lines are never reused.
    """
    date = snapshot_date or schema.snapshot_date or _date_from_filename(path)
    if issues is None:
        issues = []
    if memo is None:
        memo = LineMemo()
    first_issue = len(issues)
    wanted = None if voter_ids is None else frozenset(voter_ids)
    records: dict[str, VoterRecord] = {}
    counts: dict[str, int] = {}
    seen: set[str] = set()
    duplicates: list[str] = []
    status_map = {s.value: s for s in VoterStatus}
    dates: dict[str, dt.date] = {}
    histories: dict[str, tuple[VoteEvent, ...]] = {}
    events: dict[str, VoteEvent] = {}
    parsed: dict[str, tuple[str, str, VoterRecord | None, str]] = {}
    reused = 0
    with open(path, newline="", encoding="utf-8") as fh:
        feed = _LineFeed(fh)
        reader = csv.reader(feed, delimiter=schema.delimiter)
        header = next(reader, None) or []
        for logical in REQUIRED_FIELDS:
            if schema.columns[logical] not in header:
                raise SchemaError(
                    f"{path}: missing required column {schema.columns[logical]!r} "
                    f"(logical field {logical!r})"
                )
        # under another header or schema an identical line holds other fields
        scope = (tuple(header), schema)
        previous = memo.rows if memo.scope == scope else {}
        position = {name: i for i, name in enumerate(header)}
        # every logical field in one getter; unmapped fields read index -1,
        # the "" appended to each row
        fields = itemgetter(*(position.get(schema.columns.get(f), -1) for f in LOGICAL_FIELDS))
        width = len(header)
        pad = [""] * width

        # one iteration per record: the feed pulls the further lines of a
        # record that spans several
        for lineno, line in enumerate(fh, start=2):
            entry = previous.get(line)
            if entry is not None and (
                entry[2] is not None or wanted is not None and entry[0] not in wanted
            ):
                # `line` becomes the previous file's copy: one copy stays alive
                voter_id, locale, record, line = entry
                parsed[line] = entry
                reused += 1
            else:
                feed.line, feed.pulled = line, False
                row = next(reader)  # csv yields a record for any line it is handed
                if len(row) < width:
                    row += pad[len(row):]
                row.append("")
                (voter_id, locale, status_text, first, middle, last, house, street, unit,
                 city, zip_code, party, gender, birth, registered, updated,
                 history) = map(str.strip, fields(row))
                if not voter_id:
                    issues.append(RowIssue(lineno, "voter_id", "empty voter_id"))
                    continue
                if not locale:
                    issues.append(RowIssue(lineno, "locale", "empty locale"))
                    continue
                status = status_map.get(status_text.casefold())
                if status is None:
                    issues.append(RowIssue(lineno, "status", f"unknown status {status_text!r}"))
                    continue
                try:
                    birth_date = _memo_date(birth, dates) if birth else None
                    registration_date = _memo_date(registered, dates) if registered else None
                    last_update_date = _memo_date(updated, dates) if updated else None
                    vote_history = _memo_history(history, histories, events, dates)
                except ValueError as exc:
                    issues.append(RowIssue(lineno, "-", f"{path}:{lineno}: {exc}"))
                    continue
                record = None
                if wanted is None or voter_id in wanted:
                    # positional, in field order: keywords cost a third more here
                    record = VoterRecord(
                        voter_id, locale, first, middle, last,
                        (house, street, unit, city, zip_code), status, party, gender,
                        birth_date, registration_date, last_update_date, vote_history,
                    )
                if not feed.pulled:  # the record ended with its own line
                    parsed[line] = (voter_id, locale, record, line)
            if voter_id in seen:
                duplicates.append(voter_id)
                continue
            seen.add(voter_id)
            counts[locale] = counts.get(locale, 0) + 1
            if record is not None and (wanted is None or voter_id in wanted):
                records[voter_id] = record

    memo.scope, memo.rows = scope, parsed
    memo.reused += reused
    if duplicates:
        raise IntegrityError(
            f"{path}: duplicate voter_id values: {', '.join(sorted(set(duplicates)))}"
        )
    _log_issues(path, issues[first_issue:])
    return Snapshot(snapshot_date=date, records=records, locale_counts=counts)


def _log_issues(path: str, issues: list[RowIssue]) -> None:
    """One warning for a file's dropped rows: counts by field and the first
    few line numbers; the `issues` list keeps every row."""
    if not issues:
        return
    by_field = Counter(issue.field for issue in issues)
    logger.warning(
        "%s: dropped %d malformed rows (%s); first at lines %s",
        path,
        len(issues),
        ", ".join(f"{field} {n}" for field, n in by_field.items()),
        ", ".join(str(issue.line) for issue in issues[:5]),
    )


def _date_from_filename(path: str) -> dt.date:
    match = _DATE_IN_NAME.search(path)
    if not match:
        raise SchemaError(
            f"{path}: snapshot date not given and no ISO date found in filename"
        )
    return dt.date.fromisoformat(match.group(1))


def write_snapshot(snapshot: Snapshot, path: str) -> None:
    """Write a snapshot in the identity-schema column layout."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LOGICAL_FIELDS)
        for voter_id in sorted(snapshot.records):
            rec = snapshot.records[voter_id]
            addr = rec.address_map()
            writer.writerow(
                [
                    rec.voter_id,
                    rec.locale,
                    rec.status.value,
                    rec.first_name,
                    rec.middle_name,
                    rec.last_name,
                    addr["house_num"],
                    addr["street_name"],
                    addr["unit"],
                    addr["city"],
                    addr["zip"],
                    rec.party,
                    rec.gender,
                    rec.birth_date.isoformat() if rec.birth_date else "",
                    rec.registration_date.isoformat() if rec.registration_date else "",
                    rec.last_update_date.isoformat() if rec.last_update_date else "",
                    format_vote_history(rec.vote_history),
                ]
            )


# --- diffing ---------------------------------------------------------------

_STATUS_TRANSITIONS = {
    (VoterStatus.ACTIVE, VoterStatus.INACTIVE): ChangeType.DEACTIVATION,
    (VoterStatus.INACTIVE, VoterStatus.ACTIVE): ChangeType.ACTIVATION,
}
# pending is operationally "not yet active"; transitions out of it are
# classified like their destination unless strict mode is on.
_EXTENDED_TRANSITIONS = {
    (VoterStatus.PENDING, VoterStatus.ACTIVE): ChangeType.ACTIVATION,
    (VoterStatus.PENDING, VoterStatus.INACTIVE): ChangeType.DEACTIVATION,
}


def _registration_deltas(rec: VoterRecord) -> tuple[FieldDelta, ...]:
    deltas = [FieldDelta(f, "", getattr(rec, f)) for f in NAME_FIELDS]
    deltas += [FieldDelta(f, "", v) for f, v in rec.address_map().items()]
    deltas.append(FieldDelta("status", "", rec.status.value))
    deltas.append(FieldDelta("party", "", rec.party))
    return tuple(deltas)


def diff_snapshots(
    anterior: Snapshot,
    posterior: Snapshot,
    strict_status: bool = False,
) -> list[ChangeRecord]:
    """Compute typed change records between two temporally adjacent snapshots.

    A voter may emit several records of different types in one diff. Output
    is sorted by (voter_id, change_type) and is a pure function of the
    inputs. Field comparisons ignore surrounding whitespace and case.
    """
    if anterior.snapshot_date >= posterior.snapshot_date:
        raise VrfError(
            f"anterior snapshot date {anterior.snapshot_date} must precede "
            f"posterior {posterior.snapshot_date}"
        )
    transitions = dict(_STATUS_TRANSITIONS)
    if not strict_status:
        transitions.update(_EXTENDED_TRANSITIONS)

    dates = {"anterior_date": anterior.snapshot_date, "posterior_date": posterior.snapshot_date}
    changes: list[ChangeRecord] = []
    ante, post = anterior.records, posterior.records

    for voter_id, old in ante.items():
        if voter_id not in post:
            changes.append(
                ChangeRecord(
                    voter_id=voter_id,
                    locale=old.locale,
                    change_type=ChangeType.REMOVAL,
                    **dates,
                )
            )

    for voter_id, new in post.items():
        old = ante.get(voter_id)
        if old is None:
            changes.append(
                ChangeRecord(
                    voter_id=voter_id,
                    locale=new.locale,
                    change_type=ChangeType.REGISTRATION,
                    field_deltas=_registration_deltas(new),
                    **dates,
                )
            )
            continue
        if old is new or old == new:  # equal records have equal keys and status: no change
            continue

        if old.name_key() != new.name_key():
            deltas = tuple(
                FieldDelta(f, getattr(old, f), getattr(new, f))
                for f in NAME_FIELDS
                if normalize_text(getattr(old, f)) != normalize_text(getattr(new, f))
            )
            changes.append(
                ChangeRecord(
                    voter_id=voter_id,
                    locale=new.locale,
                    change_type=ChangeType.NAME,
                    field_deltas=deltas,
                    **dates,
                )
            )
        if old.address_key() != new.address_key():
            old_addr, new_addr = old.address_map(), new.address_map()
            deltas = tuple(
                FieldDelta(f, old_addr[f], new_addr[f])
                for f in ADDRESS_FIELDS
                if normalize_text(old_addr[f]) != normalize_text(new_addr[f])
            )
            changes.append(
                ChangeRecord(
                    voter_id=voter_id,
                    locale=new.locale,
                    change_type=ChangeType.ADDRESS,
                    field_deltas=deltas,
                    **dates,
                )
            )
        if old.party_key() != new.party_key():
            changes.append(
                ChangeRecord(
                    voter_id=voter_id,
                    locale=new.locale,
                    change_type=ChangeType.PARTY,
                    field_deltas=(FieldDelta("party", old.party, new.party),),
                    **dates,
                )
            )
        status_change = transitions.get((old.status, new.status))
        if status_change is not None:
            changes.append(
                ChangeRecord(
                    voter_id=voter_id,
                    locale=new.locale,
                    change_type=status_change,
                    field_deltas=(FieldDelta("status", old.status.value, new.status.value),),
                    **dates,
                )
            )

    changes.sort(key=ChangeRecord.sort_key)
    return changes


# --- change-record CSV -----------------------------------------------------

CHANGE_CSV_COLUMNS = (
    "voter_id",
    "locale",
    "change_type",
    "anterior_date",
    "posterior_date",
    "field_deltas",
)


def changes_to_csv(changes: list[ChangeRecord], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_changes(changes, fh)


def write_changes(changes: list[ChangeRecord], fh: io.TextIOBase) -> None:
    writer = csv_writer(fh, itertools.chain.from_iterable((c.voter_id, c.locale) for c in changes))
    writer.writerow(CHANGE_CSV_COLUMNS)
    for ch in changes:
        writer.writerow(
            [
                ch.voter_id,
                ch.locale,
                ch.change_type.value,
                ch.anterior_date.isoformat(),
                ch.posterior_date.isoformat(),
                json.dumps([d.as_list() for d in ch.field_deltas]),
            ]
        )


def csv_to_changes(path: str) -> list[ChangeRecord]:
    with open(path, newline="", encoding="utf-8") as fh:
        return read_changes(fh, path)


def read_changes(fh, where: str = "<stream>") -> list[ChangeRecord]:
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None or tuple(header) != CHANGE_CSV_COLUMNS:
        raise FileParseError(f"{where}: bad change-record header: {header}")
    changes = []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(CHANGE_CSV_COLUMNS):
            raise FileParseError(f"{where}:{lineno}: expected {len(CHANGE_CSV_COLUMNS)} columns")
        voter_id, locale, type_token, ante, post, deltas_json = row
        try:
            change_type = ChangeType(type_token)
        except ValueError as exc:
            raise FileParseError(
                f"{where}:{lineno}: unknown change_type token {type_token!r}"
            ) from exc
        try:
            raw_deltas = json.loads(deltas_json)
            deltas = tuple(FieldDelta(*d) for d in raw_deltas)
        except (ValueError, TypeError) as exc:
            raise FileParseError(f"{where}:{lineno}: bad field_deltas: {exc}") from exc
        changes.append(
            ChangeRecord(
                voter_id=voter_id,
                locale=locale,
                change_type=change_type,
                anterior_date=_parse_date(ante, f"{where}:{lineno}"),
                posterior_date=_parse_date(post, f"{where}:{lineno}"),
                field_deltas=deltas,
            )
        )
    return changes


def with_date(snapshot: Snapshot, date: dt.date) -> Snapshot:
    """Copy of a snapshot carrying a different capture date."""
    return replace(snapshot, snapshot_date=date)
