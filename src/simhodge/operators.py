"""Oriented form bases and the operators living on them.

The de Rham basis of a complex is its simplex list; a connection basis of
order k consists of the ordered k-tuples of pairwise intersecting simplices,
graded by total dimension.  ``tuple_fold`` is the one walk over those
tuples: connection bases, tuple counts, Wu characteristics and tuple
curvatures all fold their prefixes with it and finish the last slot
themselves (tuple counts and Wu characteristics through one signed sum,
``tuple_weight_sum``).  Every simplex is oriented by its increasing
vertex order (a gauge choice), which fixes all incidence signs.  Operators
are square ``intlinalg.IntMatrix`` triplets over a single graded basis, so
exterior derivative, Dirac, Hodge and automorphism actions share one exact
integer representation; chain actions run on Python integers.
"""

from __future__ import annotations

import numpy as np

from .complexes import Complex, intersection_masks
from .errors import ContractViolationError, InvalidInputError
from .intlinalg import IntMatrix, as_integer, int_matrix


class GradedBasis:
    """Ordered basis elements with a degree for each.

    Elements are sorted degree-major then lexicographically, so each degree
    occupies one contiguous index range.
    """

    __slots__ = ("elements", "degrees", "index", "dims", "offsets")

    def __init__(self, elements, degrees):
        pairs = sorted(zip(degrees, elements))
        self.elements = tuple(e for _, e in pairs)
        self.degrees = tuple(d for d, _ in pairs)
        self.index = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise InvalidInputError("basis elements must be unique")
        top = max(self.degrees, default=-1)
        dims = [0] * (top + 1)
        for d in self.degrees:
            dims[d] += 1
        self.dims = tuple(dims)
        offsets = [0]
        for d in dims:
            offsets.append(offsets[-1] + d)
        self.offsets = tuple(offsets)

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
        self._eigs = {}
        self._nilpotent = False

    def block(self, row_degree: int, col_degree: int) -> np.ndarray:
        """Dense integer block mapping col_degree forms to row_degree forms."""
        return self.matrix.block(self.basis.degree_slice(row_degree),
                                 self.basis.degree_slice(col_degree)).toarray()

    def diag_block(self, k: int) -> np.ndarray:
        return self.block(k, k)

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray().astype(float)

    def eigensystem(self, k: int):
        """Eigenvalues and eigenvectors of the symmetric degree-k block (cached)."""
        if k not in self._eigs:
            block = self.diag_block(k)
            if block.size and not np.array_equal(block, block.T):
                raise ContractViolationError(f"degree-{k} block is not symmetric")
            if block.size:
                self._eigs[k] = np.linalg.eigh(block.astype(float))
            else:
                self._eigs[k] = (np.zeros(0), np.zeros(block.shape))
        return self._eigs[k]

    def eigenvalues(self, k: int) -> np.ndarray:
        return self.eigensystem(k)[0]


def graded_basis(c: Complex) -> GradedBasis:
    """De Rham basis: one element per simplex, graded by dimension."""
    elements = list(c)
    return GradedBasis(elements, [len(s) - 1 for s in elements])


def exterior_derivative(c: Complex) -> GradedOperator:
    """Signed incidence operator d with d(d(f)) = 0.

    (df)(x) sums (-1)^i f(x with its i-th vertex removed) over the vertices
    of x in increasing order.
    """
    basis = graded_basis(c)
    rows, cols, vals = [], [], []
    for i, s in enumerate(basis.elements):
        if len(s) == 1:
            continue
        for j in range(len(s)):
            face = s[:j] + s[j + 1:]
            rows.append(i)
            cols.append(basis.index[face])
            vals.append(1 if j % 2 == 0 else -1)
    n = len(basis)
    return GradedOperator(IntMatrix(rows, cols, vals, (n, n)), basis, shift=1)


def require_nilpotent(d: GradedOperator):
    """Raise ContractViolationError unless d @ d vanishes exactly; once per d."""
    if not d._nilpotent and (d.matrix @ d.matrix).nnz:
        raise ContractViolationError("d is not nilpotent: d @ d has non-zero entries")
    d._nilpotent = True


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


def iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def tuple_fold(meet, k: int, weights, acc0=None, step=None) -> dict:
    """Fold the first k-1 slots of the pairwise intersecting k-tuples.

    ``meet[i]`` is the bitmask of simplices meeting simplex i.  Starting from
    the empty prefix, each step appends every simplex allowed by the prefix,
    narrows the allowed mask by its meet mask, multiplies in its weight and
    updates the accumulator with ``step(acc, i)`` (kept when step is None).
    Returns {(allowed, acc): summed weight product} over the (k-1)-prefixes;
    the k-th slot ranges over the bits of ``allowed``, which callers finish
    themselves.
    """
    if k < 1:
        raise InvalidInputError("order must be at least 1")
    prefixes = {((1 << len(meet)) - 1, acc0): 1}
    for _ in range(k - 1):
        grown = {}
        for (allowed, acc), w in prefixes.items():
            for i in iter_bits(allowed):
                key = (allowed & meet[i], acc if step is None else step(acc, i))
                grown[key] = grown.get(key, 0) + w * weights[i]
        prefixes = grown
    return prefixes


def connection_basis(c: Complex, k: int) -> GradedBasis:
    """Ordered k-tuples of pairwise intersecting simplices, graded by total dimension."""
    order = list(c)
    _, meet = intersection_masks(c)
    prefixes = tuple_fold(meet, k, [1] * len(order), (), lambda acc, i: acc + (i,))
    elements, degrees = [], []
    for allowed, chosen in prefixes:
        for i in iter_bits(allowed):
            element = tuple(order[j] for j in chosen + (i,))
            elements.append(element)
            degrees.append(sum(len(s) for s in element) - k)
    return GradedBasis(elements, degrees)


def tuple_weight_sum(meet, k: int, weights) -> int:
    """Sum over the pairwise intersecting k-tuples of their weight products,
    for weights of +1 or -1; the last slot is two popcounts per prefix."""
    plus = sum(1 << i for i, w in enumerate(weights) if w > 0)
    minus = sum(1 << i for i, w in enumerate(weights) if w < 0)
    return sum(w * ((allowed & plus).bit_count() - (allowed & minus).bit_count())
               for (allowed, _), w in tuple_fold(meet, k, weights).items())


def connection_tuple_count(c: Complex, k: int) -> int:
    """Number of ordered pairwise-intersecting k-tuples, without materializing them."""
    _, meet = intersection_masks(c)
    return tuple_weight_sum(meet, k, [1] * len(meet))


def connection_derivative(c: Complex, k: int) -> GradedOperator:
    """Derivative on the order-k connection basis.

    Each slot contributes its simplicial boundary with the graded sign
    (-1)^(sum of the dimensions before the slot); terms whose tuple stops
    being pairwise intersecting are dropped.  Tuples containing a disjoint
    pair can never regain intersection under further boundaries, so this is
    the differential of a quotient complex and squares to zero for every
    order.  Order 1 reproduces the exterior derivative.
    """
    basis = connection_basis(c, k)
    vmask = dict(zip(c, intersection_masks(c)[0]))
    rows, cols, vals = [], [], []
    for i, element in enumerate(basis.elements):
        prefix = 0
        for slot, simplex in enumerate(element):
            if len(simplex) > 1:
                others = [vmask[t] for t_i, t in enumerate(element) if t_i != slot]
                for j in range(len(simplex)):
                    face = simplex[:j] + simplex[j + 1:]
                    fm = vmask[face]
                    if all(fm & om for om in others):
                        target = element[:slot] + (face,) + element[slot + 1:]
                        rows.append(i)
                        cols.append(basis.index[target])
                        vals.append((-1) ** (prefix + j))
            prefix += len(simplex) - 1
    n = len(basis)
    return GradedOperator(IntMatrix(rows, cols, vals, (n, n)), basis, shift=1)
