"""Automorphisms, induced actions on forms, and fixed-point index data.

An automorphism is a vertex permutation that maps simplices to simplices.
It acts on the form basis as a signed permutation (the sign is the parity of
the reordering it induces on each simplex), commuting with the exterior
derivative.  The super trace of that action on cohomology equals the sum of
fixed-simplex indices; heat deformation interpolates between the two sides.
"""

from __future__ import annotations

import itertools

from . import _np as np
from .complexes import Complex, simplex_weight
from .errors import ContractViolationError, InvalidInputError
from .indices import vertex_spread
from .intlinalg import IntMatrix, as_integer
from .io import field_payload
from .operators import (GradedBasis, GradedOperator, alternating_sum, commutes,
                        graded_basis)
from .spectral import _heat_trace, _super_trace, hodge_eigenvectors

SNAP_TOL = 1e-7


class Automorphism:
    """A verified simplex-preserving vertex bijection."""

    def __init__(self, mapping: tuple):
        self.mapping = mapping  # pairs (v, image), sorted by v

    def as_dict(self) -> dict:
        return dict(self.mapping)


def check_automorphism(c: Complex, permutation: dict) -> Automorphism:
    """Validate a vertex permutation against a complex.

    The permutation must be an integer bijection of the base whose image of
    every simplex is again a simplex; the error message names the first violation.
    """
    base = c.base
    try:
        mapping = {v: as_integer(permutation[v]) for v in base}
    except KeyError as missing:
        raise InvalidInputError(f"permutation misses vertex {missing}") from None
    if set(mapping.values()) != base:
        raise InvalidInputError("permutation is not a bijection of the base")
    for s in c:
        image = tuple(sorted(mapping[v] for v in s))
        if image not in c.simplices:
            raise InvalidInputError(
                f"permutation maps simplex {s} to {image}, which is not in the complex")
    return Automorphism(tuple(sorted(mapping.items())))


def induced_map(t: Automorphism, basis: GradedBasis) -> GradedOperator:
    """Signed permutation action of an automorphism on a simplex basis."""
    mapping = t.as_dict()
    n = len(basis)
    rows, vals = [], []  # column i holds the image of basis element i
    for s in basis.elements:
        image = [mapping[v] for v in s]
        target = tuple(sorted(image))
        if target not in basis.index:
            raise InvalidInputError(
                f"automorphism does not preserve the basis element {s}")
        rows.append(basis.index[target])
        # the sign is the parity of the permutation sorting the image
        vals.append((-1) ** sum(a > b for a, b in itertools.combinations(image, 2)))
    return GradedOperator(IntMatrix(rows, range(n), vals, (n, n)), basis, shift=0)


def _require_commuting(u: GradedOperator, d: GradedOperator):
    if not commutes(u.matrix, d.matrix):
        raise ContractViolationError("induced map does not commute with the derivative")


def snap_integer(x: float) -> int:
    nearest = round(x)
    if abs(x - nearest) >= SNAP_TOL:
        raise ContractViolationError(f"{x} is not within {SNAP_TOL} of an integer")
    return int(nearest)


class LefschetzReport:
    """Cohomological trace data next to the fixed-simplex index data."""

    def __init__(self, number: int, degree_traces: dict, fixed: list,
                 vertex_indices: dict, complex: Complex, pairs: list):
        self.number, self.degree_traces = number, degree_traces
        self.fixed = fixed  # (simplex, integer index) pairs
        self.vertex_indices = vertex_indices  # vertex -> Fraction
        self.complex = complex
        self.pairs = pairs  # per degree: λ, diag(W^T U W)

    @property
    def fixed_index_sum(self) -> int:
        return sum(i for _, i in self.fixed)

    @property
    def consistent(self) -> bool:
        return self.number == self.fixed_index_sum

    def heat_trace(self, time: float) -> float:
        """``heat_lefschetz`` at ``time``, evaluated from the kept pairs."""
        return _heat_trace(self.pairs, time)

    def to_payload(self) -> dict:
        return {
            "lefschetz_number": int(self.number),
            "degree_traces": {str(k): int(v)
                              for k, v in sorted(self.degree_traces.items())},
            "fixed_simplices": [{"simplex": [self.complex.label_of(v) for v in s],
                                 "index": int(i)} for s, i in self.fixed],
            "fixed_index_sum": int(self.fixed_index_sum),
            "vertex_indices": field_payload(self.complex, self.vertex_indices),
            "matches_fixed_points": bool(self.consistent),
        }


def _action_pairs(u: GradedOperator, d: GradedOperator) -> list:
    """Per degree k, the eigenvalues λ of L_k and the weights diag(W^T U_k W)
    of the action u over the eigenvectors W = [V_k | U_(k-1)] of
    ``hodge_eigenvectors``, led by the kernel as one λ = 0 of weight tr(U_k) less
    the others.  u is orthogonal, so u d = d u makes it commute with d*, L."""
    _require_commuting(u, d)
    pairs = []
    for k, (w, vectors) in enumerate(hodge_eigenvectors(d)):
        block = u.diag_block(k)
        h = np.einsum("ij,ij->j", vectors, block @ vectors)
        pairs.append((np.concatenate([[0.0], w]),
                      np.concatenate([[np.trace(block) - np.sum(h)], h])))
    return pairs


def _harmonic_side(u: GradedOperator, d: GradedOperator):
    """Lefschetz number, per-degree harmonic traces and the pairs behind
    them, for the action u; each trace tr(U | H^k) is an integer and is
    snapped as one."""
    pairs = _action_pairs(u, d)
    traces = [snap_integer(x) for x in _super_trace(pairs, lambda w: w == 0)[1]]
    return alternating_sum(traces), dict(enumerate(traces)), pairs


def lefschetz_number(t: Automorphism, d: GradedOperator) -> tuple[int, dict]:
    """Super trace of the induced map on cohomology, an integer.

    Returns the number together with the per-degree harmonic traces.
    """
    return _harmonic_side(induced_map(t, d.basis), d)[:2]


def _fixed_side(u: GradedOperator, c: Complex):
    """Fixed simplices with their indices, and the vertex spread of those
    indices, from the diagonal of the action u on the simplices of c: x is
    fixed when U_xx is not zero, and its index is (-1)^dim x * U_xx."""
    m, elements = u.matrix, u.basis.elements
    indices = [0] * len(elements)  # 0 on a simplex that is not fixed
    on = m.row == m.col
    for i, value in zip(m.row[on].tolist(), m.data[on].tolist()):
        indices[i] = simplex_weight(elements[i]) * value
    fixed = [(s, index) for s, index in zip(elements, indices) if index]
    return fixed, vertex_spread(c, 1, indices)


def fixed_point_indices(t: Automorphism, c: Complex):
    """Fixed simplices with their indices, and the vertex-localized field:
    the signed diagonal of the induced map on the simplices of c, the
    fixed-point side of the super trace at heat time 0."""
    return _fixed_side(induced_map(t, graded_basis(c)), c)


def heat_lefschetz(t: Automorphism, d: GradedOperator, time: float) -> float:
    """Alternating sum of traces of exp(-time L_k) composed with the action.

    Constant in time: at 0 it counts signed fixed basis elements, in the
    large-time limit it becomes the Lefschetz number.
    """
    return _heat_trace(_action_pairs(induced_map(t, d.basis), d), time)


def lefschetz_report(c: Complex, t: Automorphism,
                     d: GradedOperator) -> LefschetzReport:
    """Bundle the cohomological and fixed-point sides for one automorphism,
    both read from one induced map; InvalidInputError for a d whose basis
    is not the simplices of c."""
    if d.basis.elements != tuple(c):
        raise InvalidInputError("the derivative's basis is not the simplices "
                                "of the complex")
    u = induced_map(t, d.basis)
    number, traces, pairs = _harmonic_side(u, d)
    fixed, vertex_indices = _fixed_side(u, c)
    return LefschetzReport(number, traces, fixed, vertex_indices, c, pairs)
