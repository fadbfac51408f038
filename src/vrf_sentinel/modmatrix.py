"""Aggregation of change records into normalized modification matrices.

A modification matrix is a locales x date-intervals grid of change counts
normalized to changes per-day per-1000-voters, for one change type. All
detectors operate on this grid.

Matrix and score files share one grid CSV layout, written by `write_grid`
and parsed by `read_grid`: a header row whose corner cell is
`<name>:<interval days>` followed by the interval start dates, then one or
more blocks separated by one empty row, each holding one row per locale
that starts with the locale. A matrix file has three blocks (values,
raw_counts, populations) under the change type; a score file has one
block under the method id, after a JSON params line. `read_grid` holds one
row of text at a time, so a read costs memory in proportion to its grids.
"""

from __future__ import annotations

import csv
import datetime as dt
import logging
from array import array
from collections import Counter
from collections.abc import Collection, Iterable, Mapping
from dataclasses import dataclass
from itertools import groupby
from typing import TextIO

import numpy as np

from .errors import DataError, FileParseError, VrfError
from .records import ChangeRecord, ChangeType
from .vrf_io import csv_cell, csv_line

logger = logging.getLogger(__name__)

# Matrix CSV cells carry floats at 9 significant digits; values are
# recomputed exactly from the integer blocks on read when they agree.
FLOAT_FORMAT = "%.9g"


@dataclass(frozen=True, slots=True)
class MatrixEntryRef:
    """Row/column address of one matrix cell."""

    locale_index: int
    interval_index: int


@dataclass(frozen=True)
class DateInterval:
    """Half-open date interval [start, end)."""

    start: dt.date
    end: dt.date

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise VrfError(f"empty interval [{self.start}, {self.end})")

    @property
    def days(self) -> int:
        return (self.end - self.start).days


@dataclass(frozen=True)
class ModificationMatrix:
    change_type: ChangeType
    locales: tuple[str, ...]
    intervals: tuple[DateInterval, ...]
    values: np.ndarray      # float, changes/day/1000 voters
    raw_counts: np.ndarray  # int
    populations: np.ndarray  # int, registered voters at interval start

    def __post_init__(self) -> None:
        shape = (len(self.locales), len(self.intervals))
        if not self.locales:
            raise VrfError("matrices must have at least one locale row")
        if not self.intervals:
            raise VrfError("matrices must have at least one interval column")
        for name in ("values", "raw_counts", "populations"):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise VrfError(f"{name} grid has shape {arr.shape}, expected {shape}")
        if not np.isfinite(self.values).all():
            raise VrfError("matrix values must be finite")
        if np.any(self.values < 0):
            raise VrfError("matrix values must be non-negative")
        if np.any(self.populations < 1):
            raise VrfError("populations must be >= 1")
        for a, b in zip(self.intervals, self.intervals[1:]):
            if a.end != b.start:
                raise VrfError("intervals must be contiguous and ascending")
            if b.days != a.days:
                raise VrfError("intervals must share one width")
        self.values.setflags(write=False)
        self.raw_counts.setflags(write=False)
        self.populations.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def build_intervals(start: dt.date, end: dt.date, interval_days: int) -> tuple[DateInterval, ...]:
    """Contiguous half-open intervals of fixed width covering [start, end]."""
    if interval_days < 1:
        raise VrfError("interval_days must be >= 1")
    intervals = []
    cursor = start
    while cursor <= end:
        nxt = cursor + dt.timedelta(days=interval_days)
        intervals.append(DateInterval(cursor, nxt))
        cursor = nxt
    return tuple(intervals)


def change_grid(
    dates: Collection[dt.date], interval_days: int
) -> tuple[tuple[DateInterval, ...], dict[dt.date, int]]:
    """The interval grid of matrix cells and change groups, and the column
    of each of `dates`, the posterior dates of a change set over every
    change type: `interval_days`-wide intervals from the earliest date to
    the latest; a date's column is `(date - start).days // interval_days`."""
    start = min(dates)
    columns = {d: (d - start).days // interval_days for d in dates}
    return build_intervals(start, max(dates), interval_days), columns


def build_matrix(
    changes: Iterable[ChangeRecord],
    change_type: ChangeType,
    interval_days: int,
    populations: Mapping[dt.date, Mapping[str, int]],
) -> ModificationMatrix:
    """Aggregate matching change records into a normalized matrix.

    Each matching record increments exactly one cell: its locale's row and
    its posterior date's column on `change_grid` of all `changes`. The
    locales are every locale counted in any census or changed (so
    zero-change locales still get rows). `changes` is read once, into a
    count per (locale, posterior date) of the matching records and the
    posterior dates of all, so memory grows with the cells, not the changes.

    `populations` maps each census (snapshot) date to its registered-voter
    count per locale. An interval takes its counts from the latest census
    strictly before its start (the count before the interval's changes
    occurred), or from the earliest census when none precedes it.
    """
    counts: Counter[tuple[str, dt.date]] = Counter()
    posterior = set()
    for change in changes:
        posterior.add(change.posterior_date)
        if change.change_type == change_type:
            counts[change.locale, change.posterior_date] += 1
    if not populations:
        raise DataError("need at least one census for populations")
    if not counts:
        raise DataError(f"no {change_type.value} changes")
    intervals, column_of = change_grid(posterior, interval_days)
    locales = sorted(set().union(*populations.values()) | {locale for locale, _ in counts})
    row = {loc: i for i, loc in enumerate(locales)}
    raw = np.zeros((len(locales), len(intervals)), dtype=np.int64)
    for (locale, date), n in counts.items():
        raw[row[locale], column_of[date]] += n

    census = sorted(populations)
    # per interval, the latest census strictly before its start, else the earliest
    column = np.maximum(
        np.searchsorted(
            [d.toordinal() for d in census], [iv.start.toordinal() for iv in intervals]
        ) - 1,
        0,
    )
    table = [populations[d] for d in census]
    pops = np.array([[c.get(loc, 0) for loc in locales] for c in table], dtype=np.int64)[column].T
    known = np.array([[loc in c for loc in locales] for c in table], dtype=bool)[column].T

    empty = pops < 1
    occupied = np.argwhere(empty & (raw > 0))
    if occupied.size:
        i, j = occupied[0]
        raise DataError(
            f"no population for occupied cell (locale {locales[i]!r}, "
            f"interval {intervals[j].start.isoformat()})"
        )
    zeroed = np.argwhere(empty & known)
    if zeroed.size:  # one warning per matrix, naming the first cell
        i, j = zeroed[0]
        logger.warning(
            "%d cells zeroed where a counted locale has population 0 or less; first %s at %s",
            len(zeroed), locales[i], intervals[j].start,
        )
    pops[empty] = 1  # raw is 0 there, so the value is 0

    return ModificationMatrix(
        change_type=change_type,
        locales=tuple(locales),
        intervals=intervals,
        values=normalized_values(raw, pops, interval_days),
        raw_counts=raw,
        populations=pops,
    )


def normalized_values(raw: np.ndarray, populations: np.ndarray, interval_days: int) -> np.ndarray:
    """Apply the per-day per-1000-voter normalization to a count grid whose
    intervals are all `interval_days` wide."""
    return raw / interval_days / (populations / 1000.0)


# --- grid CSV codec -------------------------------------------------------------


def write_grid(
    fh: TextIO, corner: str, intervals: tuple[DateInterval, ...], locales: tuple[str, ...],
    blocks: Iterable[Iterable[Iterable[str]]],
) -> None:
    """Write the grid layout (see the module docstring). Each block yields
    one row of plain cell text (numbers) per locale; `corner` is the name
    before `:<days>`. Each row is joined as one line beside the locale's
    cell, computed once by `csv_cell`."""
    header = [f"{corner}:{intervals[0].days}", *(iv.start.isoformat() for iv in intervals)]
    fh.write(csv_line(header))
    cells = list(map(csv_cell, locales))
    for b, block in enumerate(blocks):
        if b:
            fh.write("\n")
        for cell, row in zip(cells, block):
            fh.write(f"{cell},{','.join(row)}\n")


def read_grid(
    fh: TextIO, path: str, n_blocks: int
) -> tuple[str, tuple[DateInterval, ...], tuple[str, ...], list[np.ndarray]]:
    """Parse the grid layout into (corner name, intervals, locales, grids),
    with one (locales, intervals) float grid per block, holding one row of
    text at a time. Any malformed header, block, row or cell raises
    FileParseError naming `path`: of several, the first in the order of a
    whole-file check (unreadable text, header, block count, then block by
    block its locale labels and first bad row)."""
    blocks: list[tuple[list[str], array]] = []  # each block's locale labels and cells
    fault = None  # (block, message) of the first bad row
    try:
        reader = csv.reader(fh)
        header = next(reader, None) or [""]
        for b, rows in enumerate(group for full, group in groupby(reader, key=any) if full):
            blocks.append(([], array("d")))
            labels, cells = blocks[-1]
            for i, row in enumerate(rows):
                labels.append(row[0])
                if fault:
                    continue
                if len(row) != len(header):
                    fault = b, f"block {b} row {i} has {len(row) - 1} cells, expected {len(header) - 1}"
                    continue
                try:
                    cells.fromlist(list(map(float, row[1:])))
                except ValueError as exc:
                    fault = b, f"block {b} row {i}: {exc}"
    except (csv.Error, UnicodeDecodeError) as exc:
        raise FileParseError(f"{path}: unreadable grid ({exc})") from None
    corner, *date_cells = header
    try:
        name, days_token = corner.rsplit(":", 1)
        days = int(days_token)
        if days < 1:
            raise ValueError("interval days must be >= 1")
    except ValueError:
        raise FileParseError(f"{path}: bad corner cell {corner!r} (expected name:days)") from None
    try:
        starts = [dt.date.fromisoformat(c) for c in date_cells]
        intervals = tuple(DateInterval(s, s + dt.timedelta(days=days)) for s in starts)
    except (ValueError, OverflowError) as exc:
        raise FileParseError(f"{path}: bad interval start date ({exc})") from None
    if not intervals:
        raise FileParseError(f"{path}: grid has no interval columns")
    if len(blocks) != n_blocks:
        raise FileParseError(f"{path}: expected {n_blocks} blocks, found {len(blocks)}")
    locales = blocks[0][0]
    if any(labels != locales for labels, _ in blocks[: fault[0] + 1 if fault else None]):
        raise FileParseError(f"{path}: locale labels disagree between blocks")
    if fault:
        raise FileParseError(f"{path}: {fault[1]}")
    shape = len(locales), len(intervals)
    return name, intervals, tuple(locales), [np.frombuffer(c).reshape(shape) for _, c in blocks]


def _formatted(row: np.ndarray) -> tuple[list[str], list[int]]:
    """A float row at FLOAT_FORMAT as (texts, index): each distinct value,
    by its bits (so 0.0 and -0.0 stay apart), is formatted once, and cell j
    reads texts[index[j]]. A matrix row holds few distinct values, since a
    census fixes the population and counts are small integers."""
    distinct, index = np.unique(row.view(np.int64), return_inverse=True)
    return list(map(FLOAT_FORMAT.__mod__, distinct.view(float).tolist())), index.tolist()


def matrix_to_csv(matrix: ModificationMatrix, path: str) -> None:
    """Write the values, raw_counts and populations blocks, corner
    `<change_type>:<interval_days>`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_grid(
            fh, matrix.change_type.value, matrix.intervals, matrix.locales,
            [
                (map(texts.__getitem__, index) for texts, index in map(_formatted, matrix.values)),
                (map(str, row.tolist()) for row in matrix.raw_counts),
                (map(str, row.tolist()) for row in matrix.populations),
            ],
        )


def csv_to_matrix(path: str) -> ModificationMatrix:
    with open(path, newline="", encoding="utf-8") as fh:
        type_token, intervals, locales, (values, raw, pops) = read_grid(fh, path, 3)
    try:
        change_type = ChangeType(type_token)
    except ValueError:
        raise FileParseError(f"{path}: unknown change type {type_token!r} in the corner") from None
    # below 1e150 the squares a pooled detector sums stay finite
    if not np.all((values >= 0) & (values < 1e150)):
        raise FileParseError(f"{path}: matrix values must lie in [0, 1e150)")
    # whole numbers below 2^53 only: the float the cell was read as holds
    # them exactly (a larger count, such as 2^53 + 1, was rounded), and the
    # int64 cast is exact and silent
    for counts in (raw, pops):
        if not np.all((np.abs(counts) < 2.0**53) & (np.floor(counts) == counts)):
            raise FileParseError(f"{path}: raw_counts/populations must be integers below 2^53")
    raw = raw.astype(np.int64)  # one block at a time: each float block is freed
    pops = pops.astype(np.int64)
    if np.any(raw < 0):
        raise FileParseError(f"{path}: raw_counts must be >= 0")
    # the rule ModificationMatrix applies, checked before the division below
    if np.any(pops < 1):
        raise FileParseError(f"{path}: populations must be >= 1")

    # Where the serialized value matches the normalization formula at the
    # written precision, restore the exact recomputed value, a row at a time.
    for row, counts, voters in zip(values, raw, pops):
        exact = normalized_values(counts, voters, intervals[0].days)
        texts, index = _formatted(exact)
        rounded = np.array(list(map(float, texts)))[index]
        np.copyto(row, exact, where=row == rounded)

    return ModificationMatrix(
        change_type=change_type,
        locales=locales,
        intervals=intervals,
        values=values,
        raw_counts=raw,
        populations=pops,
    )


def top_singular_values(matrix: ModificationMatrix, count: int) -> list[float]:
    """Largest `count` singular values of the values grid (diagnostic export)."""
    if count > min(matrix.shape):
        raise VrfError(f"count {count} exceeds min(matrix shape) {min(matrix.shape)}")
    s = np.linalg.svd(matrix.values, compute_uv=False)
    return [float(v) for v in s[:count]]
