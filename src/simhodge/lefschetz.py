"""Automorphisms, induced actions on forms, and fixed-point index data.

An automorphism is a vertex permutation that maps simplices to simplices.
It acts on the form basis as a signed permutation (the sign is the parity of
the reordering it induces on each simplex), commuting with the exterior
derivative.  The super trace of that action on cohomology equals the sum of
fixed-simplex indices; heat deformation interpolates between the two sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .complexes import Complex
from .errors import ContractViolationError, InvalidInputError
from .intlinalg import IntMatrix, as_integer
from .io import field_payload
from .operators import GradedBasis, GradedOperator
from .spectral import _heat_trace, _super_trace, kernel_threshold

SNAP_TOL = 1e-7


@dataclass(frozen=True)
class Automorphism:
    """A verified simplex-preserving vertex bijection."""

    mapping: tuple  # pairs (v, image), sorted by v

    def __getitem__(self, v: int) -> int:
        return dict(self.mapping)[v]

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
    for s in sorted(c.simplices, key=lambda s: (len(s), s)):
        image = tuple(sorted(mapping[v] for v in s))
        if image not in c.simplices:
            raise InvalidInputError(
                f"permutation maps simplex {s} to {image}, which is not in the complex")
    return Automorphism(tuple(sorted(mapping.items())))


def _signed_image(mapping: dict, s) -> tuple[tuple, int]:
    """Sorted image of a simplex and the parity of the permutation sorting it."""
    image = [mapping[v] for v in s]
    sign = 1
    for i in range(len(image)):
        for j in range(i + 1, len(image)):
            if image[i] > image[j]:
                sign = -sign
    return tuple(sorted(image)), sign


def induced_map(t: Automorphism, basis: GradedBasis) -> GradedOperator:
    """Signed permutation action of an automorphism on a simplex basis."""
    mapping = t.as_dict()
    n = len(basis)
    rows, cols, vals = [], [], []
    for i, s in enumerate(basis.elements):
        target, sign = _signed_image(mapping, s)
        if target not in basis.index:
            raise InvalidInputError(
                f"automorphism does not preserve the basis element {s}")
        rows.append(basis.index[target])
        cols.append(i)
        vals.append(sign)
    return GradedOperator(IntMatrix(rows, cols, vals, (n, n)), basis, shift=0)


def _require_commuting(u: GradedOperator, other: GradedOperator, name: str):
    a, b = (np.stack([m.row, m.col, m.data]) for m in
            (u.matrix @ other.matrix, other.matrix @ u.matrix))
    if not np.array_equal(a, b):
        raise ContractViolationError(f"induced map does not commute with {name}")


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
    pairs: list = field(repr=False, compare=False)  # per degree: λ, diag(V^T U V)

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
            "degree_traces": {str(k): float(v)
                              for k, v in sorted(self.degree_traces.items())},
            "fixed_simplices": [{"simplex": [self.complex.label_of(v) for v in s],
                                 "index": int(i)} for s, i in self.fixed],
            "fixed_index_sum": int(self.fixed_index_sum),
            "vertex_indices": field_payload(self.complex, self.vertex_indices),
            "matches_fixed_points": bool(self.consistent),
        }


def _action_pairs(u: GradedOperator, L: GradedOperator) -> list:
    """Per degree: the eigenvalues of L_k and diag(V_k^T U_k V_k) for the action u."""
    _require_commuting(u, L, "the Hodge operator")
    eig = [L.eigensystem(k) for k in range(L.basis.max_degree + 1)]
    return [(w, np.diag(v.T @ u.diag_block(k) @ v)) for k, (w, v) in enumerate(eig)]


def _harmonic_side(t: Automorphism, d: GradedOperator, L: GradedOperator):
    """Lefschetz number, per-degree harmonic traces and the pairs behind them."""
    u = induced_map(t, L.basis)
    _require_commuting(u, d, "the derivative")
    pairs = _action_pairs(u, L)
    total, traces = _super_trace(pairs, lambda w: w < kernel_threshold(w))
    return snap_integer(total), dict(enumerate(traces)), pairs


def lefschetz_number(t: Automorphism, d: GradedOperator,
                     L: GradedOperator) -> tuple[int, dict]:
    """Super trace of the induced map on cohomology, snapped to an integer.

    Returns the number together with the per-degree harmonic traces.
    """
    return _harmonic_side(t, d, L)[:2]


def fixed_point_indices(t: Automorphism, c: Complex):
    """Fixed simplices with their indices, and the vertex-localized field.

    A simplex is fixed when its image equals it as a set; its index is
    (-1)^dim times the sign of the permutation induced on its vertices,
    exactly the diagonal entry of the induced map in the super trace.
    """
    mapping = t.as_dict()
    fixed = []
    vertex_indices = {v: Fraction(0) for v in c.base}
    for s in c:
        image, sign = _signed_image(mapping, s)
        if image == s:
            weight = -1 if len(s) % 2 == 0 else 1
            index = weight * sign
            fixed.append((s, index))
            for v in s:
                vertex_indices[v] += Fraction(index, len(s))
    return fixed, vertex_indices


def heat_lefschetz(t: Automorphism, L: GradedOperator, time: float) -> float:
    """Alternating sum of traces of exp(-time L_k) composed with the action.

    Constant in time: at 0 it counts signed fixed basis elements, in the
    large-time limit it becomes the Lefschetz number.
    """
    return _heat_trace(_action_pairs(induced_map(t, L.basis), L), time)


def lefschetz_report(c: Complex, t: Automorphism, d: GradedOperator,
                     L: GradedOperator) -> LefschetzReport:
    """Bundle the cohomological and fixed-point sides for one automorphism."""
    number, traces, pairs = _harmonic_side(t, d, L)
    fixed, vertex_indices = fixed_point_indices(t, c)
    return LefschetzReport(number, traces, fixed, vertex_indices, c, pairs)
