"""Automorphisms, induced actions on forms, and fixed-point index data.

An automorphism is a vertex permutation that maps simplices to simplices.
It acts on the form basis as a signed permutation (the sign is the parity of
the reordering it induces on each simplex), commuting with the exterior
derivative.  The super trace of that action on cohomology equals the sum of
fixed-simplex indices; heat deformation interpolates between the two sides.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import _np as np
from .complexes import Complex, simplex_weight
from .errors import ContractViolationError, InvalidInputError
from .indices import vertex_spread
from .intlinalg import IntMatrix, as_integer
from .io import field_payload
from .operators import GradedBasis, GradedOperator, alternating_sum, commutes
from .spectral import _heat_trace, _super_trace, hodge_eigenvectors

SNAP_TOL = 1e-7


@dataclass(frozen=True)
class Automorphism:
    """A verified simplex-preserving vertex bijection."""

    mapping: tuple  # pairs (v, image), sorted by v

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


def _signed_image(mapping: dict, s) -> tuple[tuple, int]:
    """Sorted image of a simplex and the parity of the permutation sorting it."""
    image = [mapping[v] for v in s]
    inversions = sum(a > b for a, b in itertools.combinations(image, 2))
    return tuple(sorted(image)), (-1) ** inversions


def induced_map(t: Automorphism, basis: GradedBasis) -> GradedOperator:
    """Signed permutation action of an automorphism on a simplex basis."""
    mapping = t.as_dict()
    n = len(basis)
    rows, vals = [], []  # column i holds the image of basis element i
    for s in basis.elements:
        target, sign = _signed_image(mapping, s)
        if target not in basis.index:
            raise InvalidInputError(
                f"automorphism does not preserve the basis element {s}")
        rows.append(basis.index[target])
        vals.append(sign)
    return GradedOperator(IntMatrix(rows, range(n), vals, (n, n)), basis, shift=0)


def _require_commuting(u: GradedOperator, d: GradedOperator):
    if not commutes(u.matrix, d.matrix):
        raise ContractViolationError("induced map does not commute with the derivative")


def snap_integer(x: float, tol: float = SNAP_TOL) -> int:
    nearest = round(x)
    if abs(x - nearest) >= tol:
        raise ContractViolationError(f"{x} is not within {tol} of an integer")
    return int(nearest)


@dataclass
class LefschetzReport:
    """Cohomological trace data next to the fixed-simplex index data."""

    number: int
    degree_traces: dict
    fixed: list          # (simplex, integer index) pairs
    vertex_indices: dict  # vertex -> Fraction
    complex: Complex = field(repr=False)
    pairs: list = field(repr=False, compare=False)  # per degree: λ, diag(W^T U W)

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


def _harmonic_side(t: Automorphism, d: GradedOperator):
    """Lefschetz number, per-degree harmonic traces and the pairs behind
    them; each trace tr(U | H^k) is an integer and is snapped as one."""
    pairs = _action_pairs(induced_map(t, d.basis), d)
    traces = [snap_integer(x) for x in _super_trace(pairs, lambda w: w == 0)[1]]
    return alternating_sum(traces), dict(enumerate(traces)), pairs


def lefschetz_number(t: Automorphism, d: GradedOperator) -> tuple[int, dict]:
    """Super trace of the induced map on cohomology, an integer.

    Returns the number together with the per-degree harmonic traces.
    """
    return _harmonic_side(t, d)[:2]


def fixed_point_indices(t: Automorphism, c: Complex):
    """Fixed simplices with their indices, and the vertex-localized field.

    A simplex is fixed when its image equals it as a set; its index is
    (-1)^dim times the sign of the permutation induced on its vertices,
    exactly the diagonal entry of the induced map in the super trace.  The
    vertex field is the vertex spread of those indices.
    """
    mapping = t.as_dict()
    indices = []  # 0 on a simplex that is not fixed
    for s in c:
        image, sign = _signed_image(mapping, s)
        indices.append(simplex_weight(s) * sign if image == s else 0)
    fixed = [(s, index) for s, index in zip(c, indices) if index]
    return fixed, vertex_spread(c, 1, indices)


def heat_lefschetz(t: Automorphism, d: GradedOperator, time: float) -> float:
    """Alternating sum of traces of exp(-time L_k) composed with the action.

    Constant in time: at 0 it counts signed fixed basis elements, in the
    large-time limit it becomes the Lefschetz number.
    """
    return _heat_trace(_action_pairs(induced_map(t, d.basis), d), time)


def lefschetz_report(c: Complex, t: Automorphism,
                     d: GradedOperator) -> LefschetzReport:
    """Bundle the cohomological and fixed-point sides for one automorphism."""
    number, traces, pairs = _harmonic_side(t, d)
    fixed, vertex_indices = fixed_point_indices(t, c)
    return LefschetzReport(number, traces, fixed, vertex_indices, c, pairs)
