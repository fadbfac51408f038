"""Independent brute-force reference implementations for the tests.

Pure-python, loop-based, no shared code with the library's vectorized
paths. Deliberately slow and obvious. `loop_best_split` is the one
exception: the library's former per-feature numpy loop, kept as the exact
reference for its all-features-at-once replacement.
"""

import math

import numpy as np


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
