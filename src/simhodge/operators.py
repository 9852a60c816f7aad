"""Oriented form bases and the operators living on them.

The de Rham basis of a complex is its simplex list; a connection basis of
order k consists of the ordered k-tuples of pairwise intersecting simplices,
graded by total dimension.  ``complexes.tuple_fold`` is the one walk over
those tuples: connection bases and their degree counts (so Wu
characteristics) fold them, and basis membership is the connection
derivative's intersection test.  Every simplex is oriented by its increasing
vertex order (a gauge choice), which fixes all incidence signs.  Operators
are square ``intlinalg.IntMatrix`` triplets over a single graded basis, so
exterior derivative, Dirac, Hodge and automorphism actions share one exact
integer representation; chain actions run on Python integers.
"""

from __future__ import annotations

import itertools
import numbers

from . import budget
from . import _np as np
# intersection_masks stays bound here: perfbench's tracer wraps it by this name
from .complexes import (Complex, intersection_masks,
                        iter_bits, layer_fold, tuple_fold)
from .errors import ContractViolationError, InvalidInputError
from .intlinalg import IntMatrix, as_integer, int_matrix


class GradedBasis:
    """Ordered basis elements with a degree for each.

    Elements are sorted degree-major then lexicographically, so each degree
    occupies one contiguous index range.  Degrees are non-negative integers.
    """

    __slots__ = ("elements", "degrees", "index", "dims", "offsets")

    def __init__(self, elements, degrees):
        elements, degrees = list(elements), list(degrees)
        integral = all(issubclass(t, numbers.Integral) for t in set(map(type, degrees)))
        if not integral or len(degrees) != len(elements) or min(degrees, default=0) < 0:
            raise InvalidInputError("a basis needs one non-negative integer "
                                    "degree per element")
        pairs = sorted(zip(degrees, elements))
        self.elements = tuple(e for _, e in pairs)
        self.degrees = tuple(d for d, _ in pairs)
        self.index = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise InvalidInputError("basis elements must be unique")
        top = max(self.degrees, default=-1)
        self.dims = tuple(self.degrees.count(d) for d in range(top + 1))
        self.offsets = tuple(itertools.accumulate(self.dims, initial=0))

    @property
    def max_degree(self) -> int:
        return len(self.dims) - 1

    def __len__(self):
        return len(self.elements)

    def degree_slice(self, k: int) -> slice:
        if 0 <= k <= self.max_degree:
            return slice(self.offsets[k], self.offsets[k + 1])
        return slice(0, 0)

    def dimension_of(self, k: int) -> int:
        return self.dims[k] if 0 <= k <= self.max_degree else 0

    def alternating_dimension_sum(self) -> int:
        return alternating_sum(self.dims)


def alternating_sum(values):
    """values[0] - values[1] + values[2] - ..."""
    return sum(-v if k % 2 else v for k, v in enumerate(values))


class GradedOperator:
    """An IntMatrix, from any form ``int_matrix`` takes, over one graded basis.

    The exterior derivative has shift +1 (degree p maps into degree p+1);
    Dirac, Hodge and induced automorphism actions have shift 0 in the sense
    of being degree-symmetric or degree-preserving.
    """

    def __init__(self, matrix, basis: GradedBasis, shift: int = 0):
        m = int_matrix(matrix)
        if m.shape != (len(basis), len(basis)):
            raise InvalidInputError("operator shape does not match basis size")
        self.matrix = m
        self.basis = basis
        self.shift = shift
        # (partner, sign) int arrays of a degree-preserving signed involution
        # tau e_i = sign[i] e_partner[i] that commutes with the matrix, or None
        self.swap = None
        self._eigs = {}
        self._nilpotent = False
        self._swap_commutes = False

    def block(self, row_degree: int, col_degree: int) -> np.ndarray:
        """Dense integer block mapping col_degree forms to row_degree forms."""
        return self.matrix.block(self.basis.degree_slice(row_degree),
                                 self.basis.degree_slice(col_degree)).toarray()

    def diag_block(self, k: int) -> np.ndarray:
        return self.block(k, k)

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray().astype(float)

    def eigensystem(self, k: int, vectors: bool = True):
        """Ascending eigenvalues of the symmetric degree-k block, with its
        eigenvectors, or None in their place when ``vectors`` is false.

        One cached solve per degree: values alone come from ``eigvalsh`` and
        answer later value requests; a later request for vectors solves
        again with ``eigh``, whose result then answers both.
        """
        cached = self._eigs.get(k)
        if cached is None or (vectors and cached[1] is None):
            budget.require_dense(k, self.basis.dimension_of(k))
            block = self.diag_block(k)
            if not np.array_equal(block, block.T):
                raise ContractViolationError(f"degree-{k} block is not symmetric")
            block = block.astype(float)
            cached = self._eigs[k] = (np.linalg.eigh(block) if vectors else
                                      (np.linalg.eigvalsh(block), None))
        return cached if vectors else (cached[0], None)

    def eigenvalues(self, k: int) -> np.ndarray:
        return self.eigensystem(k, vectors=False)[0]


def graded_basis(c: Complex) -> GradedBasis:
    """De Rham basis: one element per simplex, graded by dimension."""
    elements = list(c)
    return GradedBasis(elements, [len(s) - 1 for s in elements])


def face_table(c: Complex) -> np.ndarray:
    """The codimension-one faces of c as a 3 x f int64 array of columns
    (simplex, face, j), positions in c's order, sorted by simplex: the face
    drops the j-th vertex of the simplex and enters its boundary with sign
    (-1)^j.  A vertex has none (its empty face is no simplex)."""
    index = {s: i for i, s in enumerate(c)}
    table = [(i, index[s[:j] + s[j + 1:]], j)
             for i, s in enumerate(c) if len(s) > 1 for j in range(len(s))]
    return np.array(table, dtype=np.int64).reshape(-1, 3).T


def exterior_derivative(c: Complex) -> GradedOperator:
    """Signed incidence operator d with d(d(f)) = 0.

    (df)(x) sums (-1)^j f(x with its j-th vertex removed) over the vertices
    of x in increasing order: the ``face_table`` of c, whose positions are
    the de Rham basis indices.
    """
    basis = graded_basis(c)
    simplex, face, j = face_table(c)
    n = len(basis)
    return GradedOperator(IntMatrix(simplex, face, 1 - 2 * (j & 1), (n, n)),
                          basis, shift=1)


def require_nilpotent(d: GradedOperator):
    """Raise ContractViolationError unless every entry of d raises the degree
    by exactly one and d @ d vanishes exactly; once per d."""
    if d._nilpotent:
        return
    rows, cols = (np.array(d.basis.degrees, dtype=np.int64)[x]
                  for x in (d.matrix.row, d.matrix.col))
    off = np.flatnonzero(rows != cols + 1)
    if off.size:
        raise ContractViolationError(
            f"d has an entry from degree {cols[off[0]]} to degree "
            f"{rows[off[0]]}; it must raise the degree by exactly one")
    if (d.matrix @ d.matrix).nnz:
        raise ContractViolationError("d is not nilpotent: d @ d has non-zero entries")
    d._nilpotent = True


def commutes(u: IntMatrix, d: IntMatrix) -> bool:
    """Whether u d = d u exactly: both products have equal canonical
    triplets."""
    a, b = u @ d, d @ u
    return all(np.array_equal(x, y) for x, y in
               zip((a.row, a.col, a.data), (b.row, b.col, b.data)))


def require_swap_commutes(d: GradedOperator):
    """Raise ContractViolationError unless d's recorded swap tau is a
    degree-preserving involution with tau d = d tau exactly; once per d."""
    if d.swap is None or d._swap_commutes:
        return
    partner, sign = d.swap
    index, degrees = np.arange(len(partner)), np.array(d.basis.degrees)
    tau = IntMatrix(partner, index, sign, d.matrix.shape)
    if not (np.array_equal(partner[partner], index)
            and np.array_equal(sign * sign[partner], np.ones_like(sign))
            and np.array_equal(degrees[partner], degrees)
            and commutes(tau, d.matrix)):
        raise ContractViolationError("d's swap is not a commuting involution")
    d._swap_commutes = True


def dirac(d: GradedOperator) -> GradedOperator:
    """Symmetric operator d + d*, after verifying nilpotency of d exactly."""
    require_nilpotent(d)
    return GradedOperator(d.matrix + d.matrix.T, d.basis, shift=0)


def hodge(dirac_op: GradedOperator) -> GradedOperator:
    """Hodge operator: the square of the Dirac operator, block-diagonal by degree."""
    return GradedOperator(dirac_op.matrix @ dirac_op.matrix, dirac_op.basis, shift=0)


def _chain_vector(basis: GradedBasis, chain: dict) -> dict[int, int]:
    """{basis index: coefficient}; InvalidInputError for a non-integer one."""
    v = {}
    for element, coefficient in chain.items():
        key = element
        if key not in basis.index and all(isinstance(x, int) for x in element):
            key = tuple(sorted(element))
        if key not in basis.index:
            raise InvalidInputError(f"chain element {element!r} is not in the basis")
        v[basis.index[key]] = v.get(basis.index[key], 0) + as_integer(coefficient)
    return v


def _act(m: IntMatrix, vector: dict) -> dict:
    """m applied to a {basis index: int} vector, exactly."""
    out = {}
    for i, j, v in zip(m.row.tolist(), m.col.tolist(), m.data.tolist()):
        if j in vector:
            out[i] = out.get(i, 0) + v * vector[j]
    return out


def boundary_chain(d: GradedOperator, chain: dict) -> dict:
    """Boundary of an integer chain, the transpose action of d.

    Defined so that pairing a form against the boundary equals pairing its
    derivative against the chain.  Exact for coefficients of any size.
    """
    w = _act(d.matrix.T, _chain_vector(d.basis, chain))
    return {d.basis.elements[i]: w[i] for i in sorted(w) if w[i]}


def stokes_check(d: GradedOperator, form: dict, chain: dict):
    """Evaluate form(boundary chain) and (d form)(chain) independently.

    Returns (lhs, rhs, equal); equality is exact in integer arithmetic.
    """
    f = _chain_vector(d.basis, form)
    a = _chain_vector(d.basis, chain)
    lhs = sum(v * f.get(i, 0) for i, v in _act(d.matrix.T, a).items())
    rhs = sum(v * a.get(i, 0) for i, v in _act(d.matrix, f).items())
    return lhs, rhs, lhs == rhs


def connection_basis(c: Complex, k: int) -> GradedBasis:
    """Ordered k-tuples of pairwise intersecting simplices, graded by total
    dimension; more than SIMPLEX_LIMIT of them are refused before any is built."""
    order = list(c)
    prefixes = tuple_fold(c, k, [1] * len(order), (), lambda acc, i: acc + (i,))
    count = sum(allowed.bit_count() for allowed, _ in prefixes)  # keys are distinct
    budget.require(count, budget.SIMPLEX_LIMIT, f"order {k} needs {count} tuples")
    elements, degrees = [], []
    for allowed, chosen in prefixes:
        for i in iter_bits(allowed):
            element = tuple(order[j] for j in chosen + (i,))
            elements.append(element)
            degrees.append(sum(len(s) for s in element) - k)
    return GradedBasis(elements, degrees)


def connection_degree_counts(c: Complex, k: int) -> tuple[int, ...]:
    """Per total degree, the number of ordered pairwise-intersecting k-tuples:
    one fold with a degree accumulator, without materializing the tuples."""
    dims = [len(s) - 1 for s in c]
    layers = list(layer_fold(c, k, 0, lambda acc, i: acc + dims[i]))
    counts = [0] * (k * c.dimension + 1)  # a top simplex k times has the top degree
    for degree, dim, count in layers:
        counts[degree + dim] += count
    return tuple(counts)


def connection_tuple_count(c: Complex, k: int) -> int:
    """Number of ordered pairwise-intersecting k-tuples, without materializing them."""
    return sum(connection_degree_counts(c, k))


def require_connection_budget(c: Complex, k: int):
    """ResourceLimitError before the order-k basis is built when order three
    or more has over CONNECTION_TUPLE_LIMIT tuples.  Returns the per-degree
    counts it folded, else None; a solve charges ``spectral.require_frame``."""
    if k < 3:
        return None
    counts = connection_degree_counts(c, k)
    budget.require(sum(counts), budget.CONNECTION_TUPLE_LIMIT,
                   f"order {k} needs {sum(counts)} tuples")
    return counts


class _TupleIndex:
    """Row lookup in an m x k int array of distinct rows, entries below n.

    Ranked prefix by prefix, so every key is exact at every k: level t
    holds the sorted distinct keys (rank of the t-prefix) * n + entry t of
    the (t+1)-prefixes, all below m n, where a mixed-radix key of the whole
    row would pass int64 once n^k does."""

    def __init__(self, tuples: np.ndarray, n: int):
        self.n = n
        self.levels, self.ranks = [], [np.zeros(len(tuples), dtype=np.int64)]
        for column in tuples.T:
            keys, rank = np.unique(self.ranks[-1] * n + column, return_inverse=True)
            self.levels.append(keys)
            self.ranks.append(rank)
        self.rows = np.empty(len(tuples), dtype=np.int64)
        self.rows[self.ranks[-1]] = np.arange(len(tuples))

    def find(self, rank: np.ndarray, columns: np.ndarray, start: int = 0):
        """The row of each tuple whose ``start``-prefix has level rank
        ``rank`` and whose later entries are the row of ``columns``, or -1
        where there is no such row."""
        found = np.ones(len(rank), dtype=bool)
        for keys, column in zip(self.levels[start:], columns.T):
            key = rank * self.n + column
            rank = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
            found &= keys[rank] == key
        return np.where(found, self.rows[rank], -1)


def connection_derivative(c: Complex, k: int) -> GradedOperator:
    """Derivative on the order-k connection basis.

    Each slot contributes its simplicial boundary with the graded sign
    (-1)^(sum of the dimensions before the slot); terms whose tuple stops
    being pairwise intersecting, that is stops being a basis element, are
    dropped.  Tuples containing a disjoint pair can never regain
    intersection under further boundaries, so this is the differential of a
    quotient complex and squares to zero for every order.  Order 1
    reproduces the exterior derivative.  Order 2 records its swap
    tau(x, y) = (-1)^(dim x dim y) (y, x), which commutes with d.

    The basis is an m x k array of simplex positions in c; per slot, each
    element meets the ``face_table`` rows of its simplex there, and one
    ``_TupleIndex`` search finds the face tuples (and the swap partners).
    """
    basis = connection_basis(c, k)
    position = {s: i for i, s in enumerate(c)}
    tuples = np.fromiter((position[s] for element in basis.elements for s in element),
                         dtype=np.int64, count=len(basis) * k).reshape(len(basis), k)
    dims = np.array([len(s) - 1 for s in c], dtype=np.int64)[tuples]
    before = np.cumsum(dims, axis=1) - dims  # dimensions before each slot
    simplex, face, j = face_table(c)
    first = np.searchsorted(simplex, np.arange(len(c) + 1))  # each simplex's faces
    index = _TupleIndex(tuples, len(c))
    rows, cols, vals = [], [], []
    for slot in range(k):
        counts = np.diff(first)[tuples[:, slot]]
        source = np.repeat(np.arange(len(basis)), counts)
        # a term's face table row: its simplex's first, plus its place among them
        entry = (first[tuples[source, slot]] + np.arange(len(source))
                 - np.repeat(np.cumsum(counts) - counts, counts))
        target = index.find(index.ranks[slot][source],
                            np.column_stack([face[entry], tuples[source, slot + 1:]]),
                            slot)
        keep = target >= 0
        rows.append(source[keep])
        cols.append(target[keep])
        vals.append(1 - 2 * ((before[source, slot] + j[entry]) & 1)[keep])
    n = len(basis)
    d = GradedOperator(IntMatrix(*map(np.concatenate, (rows, cols, vals)), (n, n)),
                       basis, shift=1)
    if k == 2:
        d.swap = (index.find(index.ranks[0], tuples[:, ::-1]),
                  1 - 2 * ((dims[:, 0] * dims[:, 1]) & 1))
    return d
