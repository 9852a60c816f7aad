"""Integer triplet matrices, and exact rank by sparse fraction-free elimination.

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

from .errors import InvalidInputError


class IntMatrix:
    """The one sparse form of every operator: int64 ``row``, ``col`` and
    ``data`` arrays sorted row-major, with repeated cells summed and zeros
    dropped, so equal matrices have equal triplets."""

    def __init__(self, row, col, data, shape):
        self.shape = rows, cols = (int(shape[0]), int(shape[1]))
        row, col, data = (np.asarray(x, dtype=np.int64) for x in (row, col, data))
        keys, inverse = np.unique(row * cols + col, return_inverse=True)
        sums = np.zeros(len(keys), dtype=np.int64)
        np.add.at(sums, inverse, data)
        keep = sums != 0
        self.row, self.col = np.divmod(keys[keep], max(cols, 1))
        self.data = sums[keep]
        self.nnz = len(self.data)

    @property
    def T(self) -> IntMatrix:
        return IntMatrix(self.col, self.row, self.data, self.shape[::-1])

    def tocoo(self) -> IntMatrix:
        return self

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.int64)
        out[self.row, self.col] = self.data
        return out

    def block(self, rows: slice, cols: slice) -> IntMatrix:
        """The submatrix on the in-range index slices ``rows`` and ``cols``."""
        keep = ((self.row >= rows.start) & (self.row < rows.stop)
                & (self.col >= cols.start) & (self.col < cols.stop))
        shape = (rows.stop - rows.start, cols.stop - cols.start)
        return IntMatrix(self.row[keep] - rows.start, self.col[keep] - cols.start,
                         self.data[keep], shape)

    def __add__(self, other: IntMatrix) -> IntMatrix:
        return IntMatrix(np.concatenate([self.row, other.row]),
                         np.concatenate([self.col, other.col]),
                         np.concatenate([self.data, other.data]), self.shape)

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        """Every stored (i, k, a) meets every stored (k, j, b) of ``other``."""
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"shapes {self.shape} and {other.shape} do not chain")
        starts = np.searchsorted(other.row, np.arange(other.shape[0] + 1))
        counts = starts[self.col + 1] - starts[self.col]
        left = np.repeat(np.arange(self.nnz), counts)
        # position of each pair inside its run, plus where that row of other starts
        right = (np.arange(len(left)) - np.repeat(np.cumsum(counts) - counts, counts)
                 + starts[self.col][left])
        return IntMatrix(self.row[left], other.col[right],
                         self.data[left] * other.data[right],
                         (self.shape[0], other.shape[1]))


def int_matrix(matrix) -> IntMatrix:
    """An IntMatrix of ``matrix`` (see ``exact_rank``); entries must be integers."""
    if isinstance(matrix, IntMatrix):
        return matrix
    rows, cols, values, shape = _triplets(matrix)
    return IntMatrix(rows, cols, _integers(values), shape)


def as_integer(value) -> int:
    """``value`` as a Python integer; InvalidInputError if it is not one."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidInputError(f"{value!r} is not an integer")


def exact_rank(matrix) -> int:
    """Rank over the rationals of a 2-d integer matrix: an IntMatrix, any
    sparse array whose ``tocoo()`` has ``row``, ``col`` and ``data``, or an
    array-like with entries of any size.  ValueError for non-integer entries."""
    return _pivot_count(_row_dicts(matrix))


def exact_nullity(matrix) -> int:
    """Dimension of the rational kernel (columns minus rank)."""
    return _triplets(matrix)[3][1] - exact_rank(matrix)


def _triplets(matrix):
    """(rows, cols, values, shape) of a 2-d matrix; empty arrays count as 0 x 0."""
    if hasattr(matrix, "tocoo") and len(matrix.shape) == 2:
        coo = matrix.tocoo()
        return coo.row, coo.col, coo.data, coo.shape
    m = np.asarray(matrix)
    if m.ndim != 2 and m.size == 0:
        m = m.reshape(0, 0)
    if m.ndim != 2:
        raise InvalidInputError("expected a 2-d matrix")
    rows, cols = np.nonzero(m)
    return rows, cols, m[rows, cols], m.shape


def _row_dicts(matrix) -> list[dict[int, int]]:
    """The non-zero rows of a 2-d integer matrix as {column: int} dicts."""
    rows, cols, values, _ = _triplets(matrix)
    out: dict[int, dict[int, int]] = {}
    for i, j, v in zip(rows.tolist(), cols.tolist(), _integers(values)):
        row = out.setdefault(i, {})
        row[j] = row.get(j, 0) + v  # coordinate input may repeat a cell
    return [r for r in ({j: v for j, v in row.items() if v}
                        for row in out.values()) if r]


def _integers(values: np.ndarray) -> list[int]:
    """The entries as Python integers; InvalidInputError if any is not an integer."""
    ints = values.dtype.kind in "iu"
    return values.tolist() if ints else [as_integer(v) for v in values.tolist()]


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
