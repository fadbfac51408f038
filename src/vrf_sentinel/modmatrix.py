"""Aggregation of change records into normalized modification matrices.

A modification matrix is a locales x date-intervals grid of change counts
normalized to changes per-day per-1000-voters, for one change type. All
detectors operate on this grid.
"""

from __future__ import annotations

import bisect
import csv
import datetime as dt
import logging
from collections.abc import Mapping
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .errors import DataError, FileParseError, VrfError
from .records import ChangeRecord, ChangeType
from .vrf_io import csv_writer

logger = logging.getLogger(__name__)

# Matrix CSV cells carry floats at 9 significant digits; values are
# recomputed exactly from the integer blocks on read when they agree.
FLOAT_FORMAT = "%.9g"


@dataclass(frozen=True, slots=True)
class MatrixEntryRef:
    """Row/column address of one matrix cell."""

    locale_index: int
    interval_index: int

    def as_tuple(self) -> tuple[int, int]:
        return (self.locale_index, self.interval_index)


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

    def contains(self, date: dt.date) -> bool:
        return self.start <= date < self.end


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
        self.values.setflags(write=False)
        self.raw_counts.setflags(write=False)
        self.populations.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def locale_index(self, locale: str) -> int:
        return self.locales.index(locale)

    def interval_index(self, date: dt.date) -> int:
        """Column whose half-open interval contains `date`."""
        return _interval_of(self.intervals, date)

    def with_values(self, values: np.ndarray) -> "ModificationMatrix":
        """Copy carrying a replaced values grid (raw counts untouched)."""
        return ModificationMatrix(
            change_type=self.change_type,
            locales=self.locales,
            intervals=self.intervals,
            values=np.asarray(values, dtype=float).copy(),
            raw_counts=self.raw_counts.copy(),
            populations=self.populations.copy(),
        )


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


def build_matrix(
    changes: list[ChangeRecord],
    change_type: ChangeType,
    interval_days: int,
    populations: Mapping[dt.date, Mapping[str, int]],
    start: dt.date | None = None,
    end: dt.date | None = None,
    locales: list[str] | None = None,
) -> ModificationMatrix:
    """Aggregate matching change records into a normalized matrix.

    Each matching record increments exactly one cell, keyed by its
    posterior_date and locale. The interval grid defaults to covering the
    posterior dates seen; locales default to every locale counted in any
    census (so zero-change locales still get rows).

    `populations` maps each census (snapshot) date to its registered-voter
    count per locale. An interval takes its counts from the latest census
    strictly before its start (the count before the interval's changes
    occurred), or from the earliest census when none precedes it.
    """
    if not populations:
        raise DataError("need at least one census for populations")
    matching = [c for c in changes if c.change_type == change_type]
    if start is None or end is None:
        if not matching:
            raise DataError(
                f"no {change_type.value} changes and no explicit date span given"
            )
        dates = [c.posterior_date for c in matching]
        start = start or min(dates)
        end = end or max(dates)
    intervals = build_intervals(start, end, interval_days)

    if locales is None:
        counted = set().union(*populations.values())
        locales = sorted(counted | {c.locale for c in matching})
    else:
        locales = sorted(locales)
    row = {loc: i for i, loc in enumerate(locales)}
    n_rows, n_cols = len(locales), len(intervals)

    raw = np.zeros((n_rows, n_cols), dtype=np.int64)
    for change in matching:
        if change.locale not in row:
            raise DataError(f"change locale {change.locale!r} missing from locale list")
        raw[row[change.locale], _interval_of(intervals, change.posterior_date)] += 1

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
    for i, j in np.argwhere(empty & known):
        logger.warning(
            "locale %s has population %d at %s; cell zeroed",
            locales[i], pops[i, j], intervals[j].start,
        )
    pops[empty] = 1  # raw is 0 there, so the value is 0
    days = np.array([iv.days for iv in intervals], dtype=float)

    return ModificationMatrix(
        change_type=change_type,
        locales=tuple(locales),
        intervals=intervals,
        values=normalized_values(raw, pops, days),
        raw_counts=raw,
        populations=pops,
    )


def _interval_of(intervals: tuple[DateInterval, ...], date: dt.date) -> int:
    """Index of the interval containing `date` in a contiguous ascending grid."""
    j = bisect.bisect_right(intervals, date, key=attrgetter("start")) - 1
    if j < 0 or not intervals[j].contains(date):
        raise DataError(f"date {date} outside matrix span")
    return j


def normalized_values(raw: np.ndarray, populations: np.ndarray, interval_days: np.ndarray) -> np.ndarray:
    """Apply the per-day per-1000-voter normalization to a count grid."""
    return raw / interval_days[np.newaxis, :] / (populations / 1000.0)


# --- CSV round trip ----------------------------------------------------------


def matrix_to_csv(matrix: ModificationMatrix, path: str) -> None:
    """Write the three stacked blocks (values, raw_counts, populations).

    Header row: corner cell `<change_type>:<interval_days>`, then interval
    start dates. First column of each row is the locale code.
    """
    days = matrix.intervals[0].days
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv_writer(fh, matrix.locales)
        header = [f"{matrix.change_type.value}:{days}"] + [
            iv.start.isoformat() for iv in matrix.intervals
        ]
        writer.writerow(header)
        for i, locale in enumerate(matrix.locales):
            writer.writerow([locale] + [FLOAT_FORMAT % v for v in matrix.values[i]])
        writer.writerow([])
        for i, locale in enumerate(matrix.locales):
            writer.writerow([locale] + [str(int(v)) for v in matrix.raw_counts[i]])
        writer.writerow([])
        for i, locale in enumerate(matrix.locales):
            writer.writerow([locale] + [str(int(v)) for v in matrix.populations[i]])


def csv_to_matrix(path: str) -> ModificationMatrix:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise FileParseError(f"{path}: empty matrix file")
    corner, *date_cells = rows[0]
    try:
        type_token, days_token = corner.split(":")
        change_type = ChangeType(type_token)
        interval_days = int(days_token)
    except ValueError as exc:
        raise FileParseError(f"{path}: bad corner cell {corner!r}") from exc
    starts = [dt.date.fromisoformat(c) for c in date_cells]
    if not starts:
        raise FileParseError(f"{path}: matrix has no interval columns")
    intervals = tuple(
        DateInterval(s, s + dt.timedelta(days=interval_days)) for s in starts
    )

    blocks: list[list[list[str]]] = [[]]
    for row in rows[1:]:
        if not row or all(not c for c in row):
            blocks.append([])
        else:
            blocks[-1].append(row)
    blocks = [b for b in blocks if b]
    if len(blocks) != 3:
        raise FileParseError(f"{path}: expected 3 blocks, found {len(blocks)}")
    n_rows = len(blocks[0])
    if n_rows == 0:
        raise FileParseError(f"{path}: matrices must have at least one locale row")
    if any(len(b) != n_rows for b in blocks):
        raise FileParseError(f"{path}: blocks disagree on locale count")

    locales: list[str] = []
    grids = []
    for b, block in enumerate(blocks):
        grid = np.zeros((n_rows, len(starts)), dtype=float)
        for i, row in enumerate(block):
            if len(row) != len(starts) + 1:
                raise FileParseError(
                    f"{path}: block {b} row {i} has {len(row) - 1} cells, "
                    f"expected {len(starts)}"
                )
            if b == 0:
                locales.append(row[0])
            elif row[0] != locales[i]:
                raise FileParseError(f"{path}: locale labels disagree between blocks")
            try:
                grid[i] = [float(c) for c in row[1:]]
            except ValueError as exc:
                raise FileParseError(f"{path}: block {b} row {i}: {exc}") from exc
        grids.append(grid)

    values, raw, pops = grids
    if np.any(values < 0):
        raise FileParseError(f"{path}: negative values in matrix body")
    raw_int = raw.astype(np.int64)
    pops_int = pops.astype(np.int64)
    if np.any(raw_int != raw) or np.any(pops_int != pops):
        raise FileParseError(f"{path}: raw_counts/populations must be integers")

    # Where the serialized value matches the normalization formula at the
    # written precision, restore the exact recomputed value.
    days_arr = np.array([iv.days for iv in intervals], dtype=float)
    exact = normalized_values(raw_int, pops_int, days_arr)
    rounded_exact = np.array(
        [[float(FLOAT_FORMAT % v) for v in row] for row in exact]
    )
    values = np.where(values == rounded_exact, exact, values)

    return ModificationMatrix(
        change_type=change_type,
        locales=tuple(locales),
        intervals=intervals,
        values=values,
        raw_counts=raw_int,
        populations=pops_int,
    )


def top_singular_values(matrix: ModificationMatrix, count: int) -> list[float]:
    """Largest `count` singular values of the values grid (diagnostic export)."""
    if count > min(matrix.shape):
        raise VrfError(f"count {count} exceeds min(matrix shape) {min(matrix.shape)}")
    s = np.linalg.svd(matrix.values, compute_uv=False)
    return [float(v) for v in s[:count]]
