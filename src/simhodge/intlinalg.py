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

``exact_rank`` can leave rows out and report its pivot columns, which is
all that clearing needs (Chen & Kerber, "Persistent homology computation
with a twist", 2011; Bauer, Kerber & Reininghaus, "Clear and compress",
2014).  The pivot rows of a block d_k lie in its row space and are
triangular on its pivot columns J.  When d_k d_(k-1) = 0 they are
orthogonal to every column of d_(k-1), so no non-zero combination of those
columns lives on the rows J alone, and leaving the rows J of d_(k-1) out
keeps its rank.  ``spectral.betti`` clears from the top degree down.
"""

from __future__ import annotations

import heapq
import math

from . import budget
from . import _np as np
from .errors import InvalidInputError


def _largest(data: np.ndarray) -> int:
    """max |entry| as a Python integer, which |-2**63| also is."""
    return max(int(data.max()), -int(data.min())) if data.size else 0


def _require_int64(bound: int, what: str):
    """InvalidInputError when ``bound``, a Python integer bounding every
    entry of a result, reaches 2**63, where int64 arithmetic would wrap."""
    if bound >= 2 ** 63:
        raise InvalidInputError(f"an integer matrix {what} could pass the "
                                f"int64 range (bound {bound})")


class IntMatrix:
    """The one sparse form of every operator: int64 ``row``, ``col`` and
    ``data`` arrays sorted row-major, with repeated cells summed and zeros
    dropped, so equal matrices have equal triplets.  Construction, ``@`` and
    ``+`` refuse a result whose entries could pass the int64 range, never
    wrapping: repeated cells are checked in Python integers, when the
    largest entry times the number of entries reaches 2**63."""

    def __init__(self, row, col, data, shape):
        self.shape = rows, cols = (int(shape[0]), int(shape[1]))
        try:
            row, col, data = (np.asarray(x, dtype=np.int64)
                              for x in (row, col, data))
        except OverflowError:
            raise InvalidInputError("an integer matrix entry is past the "
                                    "int64 range") from None
        keys, inverse = np.unique(row * cols + col, return_inverse=True)
        if _largest(data) * len(data) >= 2 ** 63:  # a cell's sum could wrap
            shared = np.bincount(inverse)[inverse] > 1
            totals = np.zeros(len(keys), dtype=object)
            np.add.at(totals, inverse[shared], np.abs(data[shared].astype(object)))
            _require_int64(int(totals.max()), "cell sum")
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
        _require_int64(_largest(self.data) + _largest(other.data), "sum")
        return IntMatrix(np.concatenate([self.row, other.row]),
                         np.concatenate([self.col, other.col]),
                         np.concatenate([self.data, other.data]), self.shape)

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        """Every stored (i, k, a) meets every stored (k, j, b) of ``other``, a
        run of whole rows of ``self`` at a time; the runs' sums join in order.
        A run holds about a 64th of PRODUCT_PAIR_LIMIT, or one longer row."""
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"shapes {self.shape} and {other.shape} do not chain")
        _require_int64(_largest(self.data) * _largest(other.data)
                       * self.shape[1], "product")
        shape = (self.shape[0], other.shape[1])
        starts = np.searchsorted(other.row, np.arange(other.shape[0] + 1))
        counts = starts[self.col + 1] - starts[self.col]
        bounds = np.concatenate([[0], np.cumsum(counts)])  # each entry's first pair
        budget.require_pairs(int(bounds[-1]))
        firsts = np.flatnonzero(np.diff(self.row, prepend=-1))  # entries starting a row
        run = bounds[firsts] // max(budget.PRODUCT_PAIR_LIMIT // 64, 1)
        edges = [0, *firsts[1:][np.diff(run) > 0].tolist(), self.nnz]
        # a pair's place in its entry's run, plus where that row of other starts
        shift = starts[self.col] - bounds[:-1]
        parts = []
        for lo, hi in zip(edges, edges[1:]):
            left = np.repeat(np.arange(lo, hi), counts[lo:hi])
            right = np.arange(bounds[lo], bounds[hi]) + shift[left]
            parts.append(IntMatrix(self.row[left], other.col[right],
                                   self.data[left] * other.data[right], shape))
        return parts[0] if len(parts) == 1 else IntMatrix(
            *map(np.concatenate, zip(*((p.row, p.col, p.data) for p in parts))), shape)


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


def exact_rank(matrix, skip=(), pivots=None) -> int:
    """Rank over the rationals of a 2-d integer matrix: an IntMatrix, any
    sparse array whose ``tocoo()`` has ``row``, ``col`` and ``data``, or an
    array-like with entries of any size.  ValueError for non-integer entries.

    The rows listed in ``skip`` are left out.  When ``pivots`` is a list,
    the column of each pivot is appended to it, in elimination order."""
    columns = _pivot_columns(_row_dicts(matrix, skip))
    if pivots is not None:
        pivots.extend(columns)
    return len(columns)


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


def _row_dicts(matrix, skip=()) -> list[dict[int, int]]:
    """The non-zero rows of a 2-d integer matrix, but for the rows listed
    in ``skip``, as {column: int} dicts."""
    rows, cols, values, _ = _triplets(matrix)
    if len(skip):
        keep = ~np.isin(rows, np.asarray(skip, dtype=np.int64))
        rows, cols, values = rows[keep], cols[keep], values[keep]
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


def _pivot_columns(rows: list[dict[int, int]]) -> list[int]:
    """Eliminate the rows in place; return the pivot columns in order."""
    holders: dict[int, set[int]] = {}  # column -> rows with an entry there
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, set()).add(i)
    queue = [(len(row), i) for i, row in enumerate(rows)]
    heapq.heapify(queue)
    pivots = []
    while queue:
        size, i = heapq.heappop(queue)
        pivot_row = rows[i]
        if pivot_row is None or len(pivot_row) != size:
            continue  # eliminated, or a stale queue entry
        rows[i] = None
        for j in pivot_row:
            holders[j].discard(i)
        col = min(pivot_row,
                  key=lambda j: (abs(pivot_row[j]) != 1, len(holders[j])))
        pivots.append(col)
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
    return pivots
