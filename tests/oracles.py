"""Independent brute-force reference implementations for the tests.

Pure-python, loop-based, no shared code with the library's vectorized
paths. Deliberately slow and obvious. The `loop_*` functions are the
exception: the library's former numpy loops (per feature in
`loop_best_split`, per pool in the statistic scorers), kept as the exact
references for their batched replacements, and the `row_*` writers, the
library's former row-by-row detect-output writers, and `whole_read_grid`,
the grid reader that held the whole file as text, `cell_restore`, the
matrix reader's former per-cell restore of formula values,
`loop_rpca_decompose`, the RPCA loop as it was written one expression a
step, and `pick_voter`, the scenario walk's former per-voter pick. The patch oracle
(`apply_changes`, `diff_projection`) and the ground-truth and snapshot
helpers below serve only the tests, so they live here and not in the
package.
"""

import csv
import datetime as dt
import io
import math
import re
from dataclasses import dataclass, replace
from xml.sax.saxutils import escape as xml_escape

import numpy as np

from vrf_sentinel.errors import DataError, FileParseError
from vrf_sentinel.detectors.rpca import default_lambda
from vrf_sentinel.modmatrix import FLOAT_FORMAT, DateInterval, MatrixEntryRef, normalized_values
from vrf_sentinel.records import ADDRESS_FIELDS, ChangeType, Snapshot, VoterRecord, VoterStatus
from vrf_sentinel.synthgen import iter_scenario_snapshots


def bf_mean(pool):
    # fsum: an exactly-constant pool must yield its own value back, so the
    # zero-variance sentinel path is hit exactly
    return math.fsum(pool) / len(pool)


def bf_pop_std(pool):
    mu = bf_mean(pool)
    return math.sqrt(math.fsum((v - mu) ** 2 for v in pool) / len(pool))


def bf_quartile(pool, q):
    """Linear interpolation on the sorted sample."""
    xs = sorted(pool)
    if len(xs) == 1:
        return xs[0]
    pos = q * (len(xs) - 1)
    lo = int(math.floor(pos))
    frac = pos - lo
    if lo + 1 >= len(xs):
        return xs[-1]
    return xs[lo] + frac * (xs[lo + 1] - xs[lo])


def bf_zscore(x, pool):
    if min(pool) == max(pool):  # constant pool is zero-variance exactly
        mu, sigma = pool[0], 0.0
    else:
        mu = bf_mean(pool)
        sigma = bf_pop_std(pool)
    if sigma == 0:
        return 0.0 if x - mu <= 0 else math.inf
    return (x - mu) / sigma


def bf_iqr_score(x, pool):
    q1 = bf_quartile(pool, 0.25)
    q3 = bf_quartile(pool, 0.75)
    if q3 == q1:
        return 0.0 if x - q3 <= 0 else math.inf
    return (x - q3) / (q3 - q1)


def _score(x, pool, stat):
    return bf_zscore(x, pool) if stat == "std" else bf_iqr_score(x, pool)


def bf_temporal(values, stat):
    """values: list of rows; per-row pools."""
    out = []
    for row in values:
        out.append([_score(x, row, stat) for x in row])
    return out


def bf_cross_locale(values, stat, w):
    n_rows = len(values)
    n_cols = len(values[0])
    out = [[0.0] * n_cols for _ in range(n_rows)]
    for j in range(n_cols):
        lo = max(0, j - w)
        hi = min(n_cols, j + w + 1)
        pool = [values[i][c] for i in range(n_rows) for c in range(lo, hi)]
        for i in range(n_rows):
            out[i][j] = _score(values[i][j], pool, stat)
    return out


def bf_global(values, stat):
    pool = [x for row in values for x in row]
    return [[_score(x, pool, stat) for x in row] for row in values]


def loop_pool_scores(values, pool, stat):
    """Score every entry of `values` against the flat `pool` with scalar
    statistics: the library's former per-pool scorer."""
    if stat == "std":
        if pool.min() == pool.max():
            center, spread = float(pool[0]), 0.0
        else:
            center, spread = float(np.mean(pool)), float(np.std(pool))
    else:
        q1 = float(np.quantile(pool, 0.25))
        center = float(np.quantile(pool, 0.75))
        spread = center - q1
    diff = np.asarray(values, dtype=float) - center
    if spread == 0:
        return np.where(diff <= 0, 0.0, math.inf)
    with np.errstate(over="ignore"):  # a quotient past the float range is ±inf
        return diff / spread


def loop_temporal(values, stat):
    """One `loop_pool_scores` call per row."""
    scores = np.zeros(values.shape)
    for i in range(values.shape[0]):
        scores[i] = loop_pool_scores(values[i], values[i], stat)
    return scores


def loop_cross_locale(values, stat, w):
    """One `loop_pool_scores` call per column, against its clipped window."""
    n_cols = values.shape[1]
    scores = np.zeros(values.shape)
    for j in range(n_cols):
        lo, hi = max(0, j - w), min(n_cols, j + w + 1)
        scores[:, j] = loop_pool_scores(values[:, j], values[:, lo:hi].ravel(), stat)
    return scores


def loop_global(values, stat):
    return loop_pool_scores(values, values.ravel(), stat)


def svd_threshold(x, tau):
    """Singular-value soft-thresholding from a full SVD: the library's former
    `rpca._svd_threshold`."""
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    s = np.maximum(s - tau, 0.0)
    keep = s > 0
    return (u[:, keep] * s[keep]) @ vt[keep, :]


def _expression_svd_threshold(x, tau):
    if x.shape[0] > x.shape[1]:
        return _expression_svd_threshold(x.T, tau).T
    eigvals, u = np.linalg.eigh(x @ x.T)
    s = np.sqrt(np.maximum(eigvals, 0.0))
    keep = s > tau
    u, s = u[:, keep], s[keep]
    return (u * ((s - tau) / s)) @ (u.T @ x)


def loop_rpca_decompose(values, lam=None, tol=1e-7, max_iter=1000):
    """`rpca.rpca_decompose` as it was written, each step one expression
    that allocates its result: the bit-for-bit reference of the loop that
    writes into dead grids. Returns (low, sparse, converged, iterations,
    residual)."""
    m = np.asarray(values, dtype=float)
    lam = default_lambda(m.shape) if lam is None else lam
    m_fro = float(np.linalg.norm(m, "fro"))
    if m_fro == 0.0:
        return np.zeros_like(m), np.zeros_like(m), True, 0, 0.0
    spectral = float(np.linalg.svd(m, compute_uv=False)[0])
    step = 0.8 * spectral
    mu = 1.0 / step
    dual = m / max(spectral, float(np.max(np.abs(m))) / lam)
    low, sparse = np.zeros_like(m), np.zeros_like(m)
    converged, iterations, residual = False, 0, 1.0
    for iterations in range(1, max_iter + 1):
        low = _expression_svd_threshold(m - sparse + dual / mu, step)
        x = m - low + dual / mu
        sparse = np.sign(x) * np.maximum(np.abs(x) - lam * step, 0.0)
        gap = m - low - sparse
        dual = dual + mu * gap
        residual = float(np.linalg.norm(gap, "fro")) / m_fro
        if residual <= tol:
            converged = True
            break
        step /= 1.6
        mu *= 1.6
    return low, sparse, converged, iterations, residual


def bf_rank(scores, source=None):
    """Flat row-major cell indices, best first: descending score, +inf
    sentinels among themselves by descending source value, then (row, col)."""
    n_cols = len(scores[0])

    def sort_key(cell):
        i, j = cell
        score = float(scores[i][j])
        sentinel_tiebreak = 0.0
        if math.isinf(score) and score > 0 and source is not None:
            sentinel_tiebreak = -float(source[i][j])
        return (-score, sentinel_tiebreak, i, j)

    cells = sorted(((i, j) for i in range(len(scores)) for j in range(n_cols)), key=sort_key)
    return [i * n_cols + j for i, j in cells]


def bf_best_stump(x_rows, g, h):
    """Exhaustive (feature, midpoint) split minimizing the second-order loss
    approximation; mirrors the tie rules: lower feature, lower threshold."""
    n = len(x_rows)
    p = len(x_rows[0])

    def leaf_loss(idx):
        gs = sum(g[i] for i in idx)
        hs = sum(h[i] for i in idx)
        if hs <= 1e-12:
            return 0.0
        return -0.5 * gs * gs / hs

    best = None  # (loss, feature, threshold)
    base = leaf_loss(range(n))
    for j in range(p):
        vals = sorted(set(x_rows[i][j] for i in range(n)))
        for a, b in zip(vals, vals[1:]):
            thr = (a + b) / 2.0
            left = [i for i in range(n) if x_rows[i][j] < thr]
            right = [i for i in range(n) if x_rows[i][j] >= thr]
            loss = leaf_loss(left) + leaf_loss(right)
            if loss >= base:  # no improvement over not splitting
                continue
            if best is None or loss < best[0] - 1e-15:
                best = (loss, j, thr)
    return best


def loop_best_split(x, g, h):
    """gbt.best_split one feature at a time: (feature, threshold, gain) of
    the highest positive gain, ties to the lower feature, then the lower
    threshold; None when no split gains."""
    h_eps = 1e-12  # gbt._H_EPS
    n, p = x.shape
    g_total, h_total = float(g.sum()), float(h.sum())
    parent = g_total * g_total / h_total if h_total > h_eps else 0.0
    best = None
    for j in range(p):
        order = np.argsort(x[:, j], kind="stable")
        xs = x[order, j]
        gl = np.cumsum(g[order])[:-1]
        hl = np.cumsum(h[order])[:-1]
        valid = xs[1:] != xs[:-1]
        if not valid.any():
            continue
        gr = g_total - gl
        hr = h_total - hl
        left_term = np.where(hl > h_eps, gl * gl / np.maximum(hl, h_eps), 0.0)
        right_term = np.where(hr > h_eps, gr * gr / np.maximum(hr, h_eps), 0.0)
        gains = 0.5 * (left_term + right_term - parent)
        gains[~valid] = -math.inf
        top = float(gains.max())
        if top <= 0.0:
            continue
        pos = int(np.flatnonzero(gains == top)[0])
        threshold = float((xs[pos] + xs[pos + 1]) / 2.0)
        if best is None or top > best[2]:
            best = (j, threshold, top)
    return best


def _refs(order, n_cols):
    """The flat cells of a ranking as MatrixEntryRef, best first."""
    return [MatrixEntryRef(*divmod(ix, n_cols)) for ix in order.tolist()]


def bf_precision_at_k(order, n_cols, truth, k):
    """Share of the top k entries in `truth`, a set of MatrixEntryRef."""
    return sum(1 for ref in _refs(order[:k], n_cols) if ref in truth) / k


def bf_average_rank(order, n_cols, truth):
    """Mean 1-based rank of the MatrixEntryRef entries in `truth`."""
    rank_of = {ref: rank for rank, ref in enumerate(_refs(order, n_cols), start=1)}
    return sum(rank_of[ref] for ref in truth) / len(truth)


# --- snapshots and ground truth ----------------------------------------------------


def scenario(config):
    """A scenario's snapshots, in date order, and its complete ground truth."""
    pairs = list(iter_scenario_snapshots(config))
    return [snapshot for snapshot, _ in pairs], pairs[-1][1]


def with_date(snapshot, date):
    """Copy of a snapshot carrying a different capture date."""
    return replace(snapshot, snapshot_date=date)


def changes_for_interval(truth, interval_index):
    """(voter_id, change type token) of every change the generator made in
    one interval."""
    return {
        (c.voter_id, c.change_type.value)
        for c in truth.changes
        if c.interval_index == interval_index
    }


def apply_changes(anterior, changes, posterior_date):
    """Replay change records on top of a snapshot.

    Covers exactly the diff-visible fields: presence, names, address
    components, party, and status. The independent patch oracle against
    diff output.
    """
    records = dict(anterior.records)
    for change in changes:
        if change.change_type == ChangeType.REMOVAL:
            records.pop(change.voter_id, None)
            continue
        if change.change_type == ChangeType.REGISTRATION:
            fields = {d.field: d.new for d in change.field_deltas}
            address = tuple(fields.get(f, "") for f in ADDRESS_FIELDS)
            records[change.voter_id] = VoterRecord(
                voter_id=change.voter_id,
                locale=change.locale,
                first_name=fields.get("first_name", ""),
                middle_name=fields.get("middle_name", ""),
                last_name=fields.get("last_name", ""),
                address=address,
                status=VoterStatus(fields.get("status", "active")),
                party=fields.get("party", ""),
            )
            continue
        rec = records.get(change.voter_id)
        if rec is None:
            raise DataError(f"change for unknown voter {change.voter_id}")
        updates = {}
        address = list(rec.address)
        for delta in change.field_deltas:
            if delta.field in ADDRESS_FIELDS:
                address[ADDRESS_FIELDS.index(delta.field)] = delta.new
            elif delta.field == "status":
                updates["status"] = VoterStatus(delta.new)
            elif delta.field in ("first_name", "middle_name", "last_name", "party"):
                updates[delta.field] = delta.new
            else:
                raise DataError(f"unexpected delta field {delta.field!r}")
        updates["address"] = tuple(address)
        records[change.voter_id] = replace(rec, **updates)
    return Snapshot(snapshot_date=posterior_date, records=records, locale_counts={})


def diff_projection(snapshot):
    """Diff-visible view of a snapshot, for patch-oracle comparisons: names,
    address and party trimmed and case-folded, and the status."""
    def fold(*texts):
        return tuple(text.strip().casefold() for text in texts)

    return {
        vid: (
            fold(rec.first_name, rec.middle_name, rec.last_name),
            fold(*rec.address),
            fold(rec.party),
            rec.status,
        )
        for vid, rec in snapshot.records.items()
    }


# --- former per-voter scenario pick -------------------------------------------------
# The scenario walk's voter pick before it read per-voter arrays: eligibility
# and bias weight decided one voter at a time. Kept as the exact reference for
# `synthgen._Walk._pick`, which must return the same voter from the same draws.

_ENDS = {ChangeType.REGISTRATION, ChangeType.REMOVAL}
_STATUS_TYPES = {ChangeType.DEACTIVATION, ChangeType.ACTIVATION}
# the types a voter already got this interval that rule out one more of each type
PICK_BLOCKED_BY = {
    **{ct: _ENDS | {ct} for ct in ChangeType},
    **dict.fromkeys(_STATUS_TYPES, _ENDS | _STATUS_TYPES),
    ChangeType.REMOVAL: set(ChangeType),
}


@dataclass(frozen=True)
class PickVoter:
    status: VoterStatus
    touched: frozenset  # the change types the voter got this interval
    lapsed: bool
    stale: bool
    mover: bool
    changed: bool  # ever got a field or status change


def bias_weight(voter, bias):
    """A voter's weight in a pick biased toward an event kind's profile."""
    if bias == "inactivity_mailing_response_processing":
        favoured = voter.lapsed
    elif bias == "systematic_september_maintenance":
        favoured = voter.stale and not voter.changed
    elif bias == "ncoa_mailings":
        favoured = voter.mover
    else:
        return 1.0
    return 1.0 if favoured else 0.02


def pick_voter(rng, ids, voters, change_type, status=None, bias=None):
    """The id of a voter among `ids` (`voters` maps each to its PickVoter)
    with `status` if given, who may still get this change type, weighted by
    `bias`; None if there is none."""
    if not ids:
        return None

    def eligible(vid):
        voter = voters[vid]
        if status is not None and voter.status != status:
            return False
        return not voter.touched & PICK_BLOCKED_BY[change_type]

    unbiased = bias is None or bias == "other"
    if unbiased:
        for _ in range(40):
            vid = ids[int(rng.integers(len(ids)))]
            if eligible(vid):
                return vid
    pool = [vid for vid in ids if eligible(vid)]
    if not pool:
        return None
    if not unbiased:
        weights = np.array([bias_weight(voters[vid], bias) for vid in pool])
        total = float(weights.sum())
        if total > 0:
            return pool[int(rng.choice(len(pool), p=weights / total))]
    return pool[int(rng.integers(len(pool)))]


# --- former row-by-row writers --------------------------------------------------------
# The library's detect-output writers before they were built from whole
# arrays: one csv.writer call per row, one formatted <rect> per cell. They are
# the byte-for-byte references of `write_grid`, `ranked_to_csv` and
# `render_heatmap`; the heatmap text is escaped as the library escapes it.


def csv_row(cells):
    """One row as csv writes it under a "\r\n" line end, which quotes every
    cell holding a carriage return or a line feed, with that end made "\n"."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow(cells)
    return buffer.getvalue()[:-2] + "\n"


def row_write_grid(fh, corner, intervals, locales, blocks):
    fh.write(csv_row([f"{corner}:{intervals[0].days}"] + [iv.start.isoformat() for iv in intervals]))
    for b, block in enumerate(blocks):
        if b:
            fh.write(csv_row([]))
        for locale, cells in zip(locales, block):
            fh.write(csv_row([locale, *cells]))


def row_ranked_to_csv(score_matrix, order, path):
    locales = score_matrix.locales
    starts = [iv.start.isoformat() for iv in score_matrix.intervals]
    rows, cols = np.divmod(order, len(starts))
    cells = zip(rows.tolist(), cols.tolist(), score_matrix.scores.ravel()[order].tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(csv_row(["rank", "locale", "interval_start", "score"]))
        for rank, (i, j, score) in enumerate(cells, start=1):
            fh.write(csv_row([rank, locales[i], starts[j], repr(score)]))


def _color(t):
    t = min(1.0, max(0.0, t))
    r = int(20 + 235 * t)
    g = int(24 + 210 * t)
    b = int(96 + (40 - 96) * t)
    return f"#{r:02x}{g:02x}{b:02x}"


def _svg_text(text):
    text = re.sub("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]", "\ufffd", text)
    return xml_escape(text, {"\r": "&#13;"})


def row_render_heatmap(grid, row_labels, col_labels, path, title="", highlight=None):
    grid = np.asarray(grid, dtype=float)
    rows = list(row_labels)
    n_rows, n_cols = grid.shape
    cell, left, top, legend_h = 6, 60, 24, 34
    finite = grid[np.isfinite(grid)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 0.0
    span = hi - lo

    width = left + n_cols * cell + 10
    height = top + n_rows * cell + legend_h
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="14" font-size="11" font-family="monospace">{_svg_text(title)}</text>',
    ]
    for i in range(n_rows):
        y = top + i * cell
        if n_rows <= 40 or i % max(1, n_rows // 20) == 0:
            parts.append(
                f'<text x="2" y="{y + cell - 1}" font-size="5" '
                f'font-family="monospace">{_svg_text(rows[i])}</text>'
            )
        for j in range(n_cols):
            v = grid[i, j]
            if math.isinf(v):
                fill = "#ff00ff"
            else:
                # a cell far from lo can overflow to inf, and inf / inf is nan
                with np.errstate(over="ignore", invalid="ignore"):
                    fill = _color((v - lo) / span) if span > 0 else _color(0.5)
            x = left + j * cell
            parts.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="{fill}"/>')
    for i, j in sorted(highlight or ()):
        x = left + j * cell
        y = top + i * cell
        parts.append(
            f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="none" '
            f'stroke="white" stroke-width="1.5" class="highlight"/>'
        )
    legend_y = top + n_rows * cell + 12
    for step in range(21):
        parts.append(
            f'<rect x="{left + step * 8}" y="{legend_y}" width="8" height="8" '
            f'fill="{_color(step / 20)}"/>'
        )
    if span > 0:
        scale_note = f"min={lo:.6g} max={hi:.6g}"
    else:
        scale_note = f"min=max={lo:.6g} (constant)"
    parts.append(
        f'<text x="{left + 176}" y="{legend_y + 8}" font-size="9" '
        f'font-family="monospace">{scale_note}</text>'
    )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


# --- former whole-file grid reader ------------------------------------------------------


def whole_read_grid(fh, path, n_blocks):
    """`modmatrix.read_grid` as it was when it held every cell of the file as
    text: the reference for the faults, and the order of them, that the
    streaming reader reports. Returns grids as one (n_blocks, locales,
    intervals) array."""
    try:
        rows = list(csv.reader(fh))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise FileParseError(f"{path}: unreadable grid ({exc})") from None
    corner, *date_cells = rows[0] if rows and rows[0] else [""]
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

    blocks = [[]]
    for row in rows[1:]:
        if any(row):
            blocks[-1].append(row)
        else:
            blocks.append([])
    blocks = [b for b in blocks if b]
    if len(blocks) != n_blocks:
        raise FileParseError(f"{path}: expected {n_blocks} blocks, found {len(blocks)}")
    locales = [row[0] for row in blocks[0]]
    grids = np.empty((n_blocks, len(locales), len(intervals)))
    for b, block in enumerate(blocks):
        if [row[0] for row in block] != locales:
            raise FileParseError(f"{path}: locale labels disagree between blocks")
        for i, row in enumerate(block):
            if len(row) != len(intervals) + 1:
                raise FileParseError(
                    f"{path}: block {b} row {i} has {len(row) - 1} cells, "
                    f"expected {len(intervals)}"
                )
            try:
                grids[b, i] = list(map(float, row[1:]))
            except ValueError as exc:
                raise FileParseError(f"{path}: block {b} row {i}: {exc}") from None
    return name, intervals, tuple(locales), grids


# --- former per-cell matrix restore ----------------------------------------------------


def cell_restore(values, raw, pops, days):
    """The values grid `modmatrix.csv_to_matrix` returns for these read
    blocks, as it restored them a cell at a time: where a cell equals the
    normalization formula's value written at FLOAT_FORMAT, that exact value."""
    exact = normalized_values(raw, pops, days)
    restored = values.copy()
    for cell in np.ndindex(values.shape):
        if values[cell] == float(FLOAT_FORMAT % exact[cell]):
            restored[cell] = exact[cell]
    return restored
