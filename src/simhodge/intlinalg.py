"""Exact rank of integer matrices by sparse fraction-free elimination.

Each non-zero row is a ``{column: int}`` dict of Python integers.  Pivots
are chosen Markowitz-style: a row with the fewest entries, and in it a +-1
entry if there is one, in the column held by the fewest other rows.  Every
other row with an entry f in the pivot column becomes
``(p/g) * row - (f/g) * pivot_row`` (p the pivot, g = gcd(p, f)), divided by
the gcd of its entries.

Scaling a row by a non-zero integer and subtracting a multiple of another
row keep the rational row space, and afterwards the pivot column is empty
outside the pivot row; so the pivot rows are in echelon form and their count
is the rank over the rationals.  Python integers cannot overflow, so the
result is exact for any entry size.  Boundary-type blocks (a few +-1 entries
per row) stay sparse under this pivot order.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
from scipy import sparse


def exact_rank(matrix) -> int:
    """Rank over the rationals of an integer matrix (scipy sparse or array-like)."""
    return _pivot_count(_row_dicts(matrix))


def exact_nullity(matrix) -> int:
    """Dimension of the rational kernel (columns minus rank)."""
    shape = matrix.shape if sparse.issparse(matrix) else np.shape(matrix)
    cols = shape[1] if len(shape) == 2 else 0
    return cols - exact_rank(matrix)


def _row_dicts(matrix) -> list[dict[int, int]]:
    """The non-zero rows of a 2-d integer matrix as {column: int} dicts."""
    if sparse.issparse(matrix):
        if matrix.ndim != 2:
            raise ValueError("exact_rank expects a 2-d array")
        coo = sparse.coo_array(matrix)
        rows, cols, values = coo.row, coo.col, coo.data
    else:
        m = np.asarray(matrix)
        if m.size == 0:
            return []
        if m.ndim != 2:
            raise ValueError("exact_rank expects a 2-d array")
        rows, cols = np.nonzero(m)
        values = m[rows, cols]
    out: dict[int, dict[int, int]] = {}
    for i, j, v in zip(rows.tolist(), cols.tolist(), _integers(values)):
        row = out.setdefault(i, {})
        row[j] = row.get(j, 0) + v  # coordinate input may repeat a cell
    return [r for r in ({j: v for j, v in row.items() if v}
                        for row in out.values()) if r]


def _integers(values: np.ndarray) -> list[int]:
    """The entries as Python integers; ValueError if any is not an integer."""
    if values.dtype.kind in "iu":
        return values.tolist()
    out = []
    for v in values.tolist():
        try:
            n = int(v)
        except (TypeError, ValueError, OverflowError):
            n = None
        if n is None or n != v:
            raise ValueError("exact_rank expects integer entries")
        out.append(n)
    return out


def _pivot_count(rows: list[dict[int, int]]) -> int:
    """Eliminate the rows in place; return the number of pivots."""
    holders: dict[int, set[int]] = {}  # column -> rows with an entry there
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, set()).add(i)
    queue = [(len(row), i) for i, row in enumerate(rows)]
    heapq.heapify(queue)
    rank = 0
    while queue:
        size, i = heapq.heappop(queue)
        pivot_row = rows[i]
        if pivot_row is None or len(pivot_row) != size:
            continue  # eliminated, or a stale queue entry
        rows[i] = None
        rank += 1
        for j in pivot_row:
            holders[j].discard(i)
        col = min(pivot_row,
                  key=lambda j: (abs(pivot_row[j]) != 1, len(holders[j])))
        p = pivot_row[col]
        for t in holders.pop(col):
            row = rows[t]
            f = row.pop(col)
            g = math.gcd(p, f)
            scale, factor = p // g, f // g
            if scale != 1:
                for j in row:
                    row[j] *= scale
            for j, v in pivot_row.items():
                if j == col:
                    continue
                w = row.get(j, 0) - factor * v
                if w:
                    if j not in row:
                        holders[j].add(t)
                    row[j] = w
                else:
                    del row[j]
                    holders[j].discard(t)
            if not row:
                rows[t] = None
                continue
            content = math.gcd(*row.values())
            if content != 1:
                for j in row:
                    row[j] //= content
            heapq.heappush(queue, (len(row), t))
    return rank
