"""Snapshot parsing, temporal diffing, and change-record CSV round trips."""

from __future__ import annotations

import csv
import datetime as dt
import json
import logging
import os
import re
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from operator import attrgetter, itemgetter

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
    election_tally,
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

    def __post_init__(self) -> None:
        missing = [f for f in REQUIRED_FIELDS if f not in self.columns]
        if missing:
            raise SchemaError(f"schema does not map required fields: {', '.join(missing)}")
        unknown = [f for f in self.columns if f not in LOGICAL_FIELDS]
        if unknown:
            raise SchemaError(f"schema maps unknown logical fields: {', '.join(unknown)}")
        if len(self.delimiter) != 1:
            raise SchemaError(f"schema delimiter must be one character, got {self.delimiter!r}")


def identity_schema() -> SnapshotSchema:
    """Schema where every column is named after its logical field."""
    return SnapshotSchema(columns={f: f for f in LOGICAL_FIELDS})


def load_schema(path: str) -> SnapshotSchema:
    """Read a key-value schema config (one `logical = column` pair per line).

    Lines starting with '#' are comments. The one special key is
    `delimiter`; a snapshot's date comes from its file name.
    """
    columns: dict[str, str] = {}
    delimiter = ","
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
            else:
                columns[key] = value
    return SnapshotSchema(columns=columns, delimiter=delimiter)


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


def csv_cell(text: str) -> str:
    """`text` as one CSV cell: quoted, with its `"` doubled, exactly when it
    holds a comma, a quote, a line feed or a carriage return. This is csv's
    minimal quoting, except that a carriage return is quoted too, which
    csv under a "\n" line end leaves bare and a reader then splits at."""
    if '"' in text or "," in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_line(cells: Iterable[str]) -> str:
    """One CSV line of text cells, each written by `csv_cell`, with a "\n" end."""
    return ",".join(map(csv_cell, cells)) + "\n"


def read_table(path: str, columns: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """The rows of a CSV artifact whose header is `columns`, each with its
    record number (the header's is 1). Blank rows are skipped. A wrong
    header, a row of another width, or text that csv or utf-8 cannot read
    raises FileParseError naming `path`."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != list(columns):
                raise FileParseError(f"{path}: expected header {','.join(columns)}, got {header}")
            for number, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(columns):
                    raise FileParseError(
                        f"{path}:{number}: expected {len(columns)} cells, got {len(row)}"
                    )
                yield number, row
        except (csv.Error, UnicodeDecodeError) as exc:
            raise FileParseError(f"{path}: unreadable CSV ({exc})") from None


def format_vote_history(history: tuple[VoteEvent, ...]) -> str:
    return ";".join(
        f"{ev.election_id}|{ev.election_date.isoformat()}|{ev.kind.value}|{ev.party_ballot or ''}"
        for ev in history
    )


_STATUSES = {s.value: s for s in VoterStatus}


class _Rows:
    """The records of an open snapshot file, whose header it reads and checks.
    `record(line, lineno, issues)` parses the record that starts at `line`,
    or appends its row's issue to `issues` and returns None. csv reads it
    through this object: `line`, then, for a record that goes on past it (a
    quoted field spanning lines, or one the file ends inside), further lines
    of the file, noting that in `pulled`."""

    def __init__(self, path: str, schema: SnapshotSchema, fh: Iterator[str]) -> None:
        self.path, self.lines = path, fh
        self.line: str | None = None
        self.pulled = False
        reader = csv.reader(self, delimiter=schema.delimiter)
        self.dialect = reader.dialect
        try:
            header = next(reader, None) or []
        except csv.Error as exc:
            raise FileParseError(f"{path}:1: {exc}") from None
        for logical in REQUIRED_FIELDS:
            if schema.columns[logical] not in header:
                raise SchemaError(
                    f"{path}: missing required column {schema.columns[logical]!r} "
                    f"(logical field {logical!r})"
                )
        # under another header or schema an identical line holds other fields
        self.scope = (tuple(header), schema)
        position = {name: i for i, name in enumerate(header)}
        # every logical field in one getter; unmapped fields read index -1,
        # the "" appended to each row
        self.fields = itemgetter(*(position.get(schema.columns.get(f), -1) for f in LOGICAL_FIELDS))
        self.pad = [""] * len(header)
        self.dates: dict[str, dt.date] = {}
        self.histories: dict[str, tuple[VoteEvent, ...]] = {}
        self.events: dict[str, VoteEvent] = {}

    def __iter__(self) -> _Rows:
        return self

    def __next__(self) -> str:
        line = self.line
        if line is None:
            self.pulled = True
            return next(self.lines)
        self.line = None
        return line

    def record(self, line: str, lineno: int, issues: list[RowIssue]) -> VoterRecord | None:
        self.line, self.pulled = line, False
        try:  # csv yields a record for any line; a reader per record keeps `self` out of a cycle
            row = next(csv.reader(self, self.dialect))
        except csv.Error as exc:  # e.g. a stray quote running past the field limit
            raise FileParseError(f"{self.path}:{lineno}: {exc}") from None
        if len(row) < len(self.pad):
            row += self.pad[len(row):]
        row.append("")
        (voter_id, locale, status_text, first, middle, last, house, street, unit,
         city, zip_code, party, gender, birth, registered, updated,
         history) = map(str.strip, self.fields(row))
        if not voter_id:
            issues.append(RowIssue(lineno, "voter_id", "empty voter_id"))
            return None
        if not locale:
            issues.append(RowIssue(lineno, "locale", "empty locale"))
            return None
        status = _STATUSES.get(status_text.casefold())
        if status is None:
            issues.append(RowIssue(lineno, "status", f"unknown status {status_text!r}"))
            return None
        dates = self.dates
        try:
            birth_date = _memo_date(birth, dates) if birth else None
            registration_date = _memo_date(registered, dates) if registered else None
            last_update_date = _memo_date(updated, dates) if updated else None
            vote_history = _memo_history(history, self.histories, self.events, dates)
        except ValueError as exc:
            issues.append(RowIssue(lineno, "-", f"{self.path}:{lineno}: {exc}"))
            return None
        # positional, in field order: keywords cost a third more here
        return VoterRecord(
            voter_id, locale, first, middle, last,
            (house, street, unit, city, zip_code), status, party, gender,
            birth_date, registration_date, last_update_date, vote_history,
        )


def parse_snapshot(
    path: str, schema: SnapshotSchema, issues: list[RowIssue] | None = None
) -> Snapshot:
    """Parse a delimited snapshot file into a Snapshot: the first read of a
    `SnapshotStream`, keeping its records. Its date is the first ISO date in
    the file's name.

    Every row is validated. Rows whose fields cannot be parsed are appended
    to `issues` (and summarized in one warning) rather than silently
    dropped; their line numbers count records, the header being 1.
    Duplicate voter ids among the valid rows abort with an IntegrityError
    naming the offenders.
    """
    return SnapshotStream(schema).read(path, [] if issues is None else issues, keep=True)[1]


class SnapshotStream:
    """Snapshot files read in turn, each against the one before, holding
    lines, not records. A byte-identical line of the next file under the
    same header and schema is found in a map of the last file's valid
    one-line rows and builds no record (`rows_reused` counts them); every
    other line is parsed at its own record number. The lines left over
    were removed. Only the voters on removed and added lines can differ,
    so the census and voter ids are updated from them alone. After an
    error the stream is spent.
    """

    def __init__(self, schema: SnapshotSchema) -> None:
        self.schema = schema
        # of the last file: rows, date, census, line map, records spanning lines, records parsed
        self.rows: _Rows | None = None
        self.date: dt.date | None = None
        self.census: dict[str, int] = {}
        self.lines: dict[str, str] = {}
        self.spanning: dict[str, VoterRecord] = {}
        self.added: dict[str, VoterRecord] = {}
        self.ids: set[str] = set()
        self.elections: dict[str, tuple[dt.date, bool, int]] = {}
        self.rows_reused = 0

    def read(
        self, path: str, issues: list[RowIssue], keep: bool = False
    ) -> tuple[Snapshot | None, Snapshot]:
        """Read the next file, appending its row issues to `issues`. Returns
        the records on the lines it removed (None for the first file) and
        on those it added, with its census: `diff_snapshots` of the two is
        that of the whole files. Unless `keep` is set, the first file's
        records are tallied into `elections` and dropped."""
        date = _date_from_filename(path)
        first_issue = len(issues)
        # this file's census, line map and rows spanning lines; the ids its parsed rows add
        census, lines, spanning, seen, duplicates = dict(self.census), {}, {}, set(), []
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                rows = _Rows(path, self.schema, fh)
                held = self.lines if self.rows and self.rows.scope == rows.scope else {}
                before = len(held)

                def records() -> Iterator[VoterRecord]:
                    """The valid rows not held from the last file, each voter id's first."""
                    for lineno, line in enumerate(fh, start=2):
                        voter_id = held.pop(line, None)
                        if voter_id is not None:
                            lines[line] = voter_id
                            continue
                        record = rows.record(line, lineno, issues)
                        if record is None:
                            continue
                        if record.voter_id in seen:
                            duplicates.append(record.voter_id)
                            continue
                        seen.add(record.voter_id)
                        census[record.locale] = census.get(record.locale, 0) + 1
                        if rows.pulled:
                            spanning[record.voter_id] = record
                        elif not keep:
                            lines[line] = record.voter_id
                        yield record

                if self.rows is None and not keep:
                    self.elections, added = election_tally(records()), {}
                else:
                    added = {record.voter_id: record for record in records()}
        except UnicodeDecodeError as exc:
            raise FileParseError(f"{path}: not utf-8 text ({exc})") from None
        self.rows_reused += before - len(held)
        # the last file's rows spanning lines, and its lines left over, were removed
        removed = self.spanning
        for line, voter_id in self.lines.items():  # valid one-line rows: no issue, no pull
            removed[voter_id] = self.added.get(voter_id) or self.rows.record(line, 0, issues)
        duplicates += [v for v in seen if v in self.ids and v not in removed]
        if duplicates:
            offenders = ", ".join(sorted(set(duplicates)))
            raise IntegrityError(f"{path}: duplicate voter_id values: {offenders}")
        mine = issues[first_issue:]
        if mine:  # one warning for the file's dropped rows; `issues` keeps each
            fields = ", ".join(f"{f} {n}" for f, n in Counter(i.field for i in mine).items())
            logger.warning("%s: dropped %d malformed rows (%s); first at lines %s", path, len(mine),
                           fields, ", ".join(str(issue.line) for issue in mine[:5]))
        for record in removed.values():
            census[record.locale] -= 1
        census = {locale: n for locale, n in census.items() if n}
        self.ids.difference_update(removed)
        self.ids.update(seen)
        anterior = Snapshot(self.date, removed, {}) if self.rows else None
        self.rows, self.lines, self.spanning, self.added, self.census, self.date = (
            rows, lines, spanning, added, census, date)
        return anterior, Snapshot(date, added, census)


def _date_from_filename(path: str) -> dt.date:
    """The first ISO date in the file's name; its directories' names do not count."""
    match = _DATE_IN_NAME.search(os.path.basename(path))
    if not match:
        raise SchemaError(f"{path}: no ISO date found in the file name")
    return _parse_date(match.group(1), path)


def _snapshot_row(rec: VoterRecord) -> tuple[str, ...]:
    """A record's cells in LOGICAL_FIELDS order."""
    return (
        rec.voter_id,
        rec.locale,
        rec.status.value,
        rec.first_name,
        rec.middle_name,
        rec.last_name,
        *rec.address,
        rec.party,
        rec.gender,
        rec.birth_date.isoformat() if rec.birth_date else "",
        rec.registration_date.isoformat() if rec.registration_date else "",
        rec.last_update_date.isoformat() if rec.last_update_date else "",
        format_vote_history(rec.vote_history),
    )


# The last file write_snapshot wrote: its records, held so that no other
# object can take one of their ids, and each one's line by id(record).
_written: tuple[list[VoterRecord], dict[int, str]] = ([], {})


def write_snapshot(snapshot: Snapshot, path: str) -> None:
    """Write a snapshot in the identity-schema column layout.

    A generated series hands the next snapshot the same record object for
    every voter that did not change, so the line of a record the previous
    call wrote is taken from it, not formatted again. The lines of this
    file then replace those, so at most one file's lines are held.
    """
    global _written
    held = _written[1]
    records = [snapshot.records[voter_id] for voter_id in sorted(snapshot.records)]
    keys = list(map(id, records))
    lines = [held.get(key) or csv_line(_snapshot_row(rec)) for key, rec in zip(keys, records)]
    _written = (records, dict(zip(keys, lines)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(csv_line(LOGICAL_FIELDS))
        fh.write("".join(lines))


# --- diffing ---------------------------------------------------------------

# pending is operationally "not yet active"; transitions out of it are
# classified like their destination.
_STATUS_TRANSITIONS = {
    (VoterStatus.ACTIVE, VoterStatus.INACTIVE): ChangeType.DEACTIVATION,
    (VoterStatus.INACTIVE, VoterStatus.ACTIVE): ChangeType.ACTIVATION,
    (VoterStatus.PENDING, VoterStatus.ACTIVE): ChangeType.ACTIVATION,
    (VoterStatus.PENDING, VoterStatus.INACTIVE): ChangeType.DEACTIVATION,
}


# Every diffed field group, in the order a registration lists its deltas:
# (change type, field names, getter of a record's values for them). Status
# has no fixed type: its transition types it.
_REGISTRATION_GROUPS = (
    (ChangeType.NAME, NAME_FIELDS, attrgetter(*NAME_FIELDS)),
    (ChangeType.ADDRESS, ADDRESS_FIELDS, attrgetter("address")),
    (None, ("status",), lambda rec: (rec.status.value,)),
    (ChangeType.PARTY, ("party",), lambda rec: (rec.party,)),
)
# The groups of a fixed type; one changes when a field differs after trim
# and casefold.
_FIELD_GROUPS = tuple(group for group in _REGISTRATION_GROUPS if group[0] is not None)


def diff_snapshots(anterior: Snapshot, posterior: Snapshot) -> list[ChangeRecord]:
    """Compute typed change records between two temporally adjacent snapshots.

    A voter may emit several records of different types in one diff. Output
    is sorted by (voter_id, change_type) and is a pure function of the
    inputs. Field comparisons ignore surrounding whitespace and case.
    Locale is not a diffed field: a voter whose locale changes while every
    diffed field stays the same gets no record, and only the snapshots'
    `locale_counts` (the census) move them to the other row.
    """
    if anterior.snapshot_date >= posterior.snapshot_date:
        raise VrfError(
            f"anterior snapshot date {anterior.snapshot_date} must precede "
            f"posterior {posterior.snapshot_date}"
        )
    changes: list[ChangeRecord] = []

    def record(voter_id: str, locale: str, change_type: ChangeType,
               deltas: tuple[FieldDelta, ...] = ()) -> None:
        changes.append(ChangeRecord(voter_id, locale, change_type, anterior.snapshot_date,
                                    posterior.snapshot_date, deltas))

    ante, post = anterior.records, posterior.records
    for voter_id, old in ante.items():
        if voter_id not in post:
            record(voter_id, old.locale, ChangeType.REMOVAL)
    for voter_id, new in post.items():
        old = ante.get(voter_id)
        if old is None:
            record(voter_id, new.locale, ChangeType.REGISTRATION, tuple(
                FieldDelta(f, "", value)
                for _, fields, values in _REGISTRATION_GROUPS
                for f, value in zip(fields, values(new))
            ))
            continue
        if old is new or old == new:  # equal records differ in no field
            continue
        for change_type, fields, values in _FIELD_GROUPS:
            deltas = tuple(
                FieldDelta(f, a, b)
                for f, a, b in zip(fields, values(old), values(new))
                if normalize_text(a) != normalize_text(b)
            )
            if deltas:
                record(voter_id, new.locale, change_type, deltas)
        status_change = _STATUS_TRANSITIONS.get((old.status, new.status))
        if status_change is not None:
            record(voter_id, new.locale, status_change,
                   (FieldDelta("status", old.status.value, new.status.value),))

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


def changes_to_csv(changes: Iterable[ChangeRecord], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(csv_line(CHANGE_CSV_COLUMNS))
        fh.writelines(
            csv_line((
                ch.voter_id,
                ch.locale,
                ch.change_type.value,
                ch.anterior_date.isoformat(),
                ch.posterior_date.isoformat(),
                json.dumps([d.as_list() for d in ch.field_deltas]),
            ))
            for ch in changes
        )


class _ChangeFile:
    """The records of a `changes.csv`, read afresh on each pass over them."""

    def __init__(self, path: str) -> None:
        self.path = path

    def __iter__(self) -> Iterator[ChangeRecord]:
        path, dates = self.path, {}  # each distinct date cell is parsed once
        for number, row in read_table(path, CHANGE_CSV_COLUMNS):
            voter_id, locale, type_token, ante, post, deltas_json = row
            where = f"{path}:{number}"
            try:
                change_type = ChangeType(type_token)
            except ValueError:
                raise FileParseError(f"{where}: unknown change_type token {type_token!r}") from None
            try:
                deltas = tuple(FieldDelta(*d) for d in json.loads(deltas_json))
            except (ValueError, TypeError, RecursionError) as exc:
                raise FileParseError(f"{where}: bad field_deltas: {exc}") from None
            yield ChangeRecord(
                voter_id, locale, change_type,
                dates.get(ante) or dates.setdefault(ante, _parse_date(ante, where)),
                dates.get(post) or dates.setdefault(post, _parse_date(post, where)),
                deltas,
            )


def csv_to_changes(path: str) -> Iterable[ChangeRecord]:
    """The change records of a `changes.csv`, read as they are iterated:
    each pass reads and checks the file again and yields one `ChangeRecord`
    per row, so a reader keeps only the fields it takes of each. A row's
    cells, dates and `field_deltas` JSON are checked as it is read."""
    return _ChangeFile(path)
