"""Automorphisms, induced actions on forms, and fixed-point index data.

An automorphism is a vertex permutation that maps simplices to simplices.
It acts on the form basis as a signed permutation (the sign is the parity of
the reordering it induces on each simplex), commuting with the exterior
derivative.  The super trace of that action on cohomology equals the sum of
fixed-simplex indices; heat deformation interpolates between the two sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import sparse

from .complexes import Complex
from .errors import ContractViolationError, InvalidInputError
from .operators import GradedBasis, GradedOperator
from .spectral import harmonic_projector

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

    The permutation must be a bijection of the base whose image of every
    simplex is again a simplex; the error message names the first violation.
    """
    base = c.base
    try:
        mapping = {v: int(permutation[v]) for v in base}
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
    m = sparse.coo_array((vals, (rows, cols)), shape=(n, n), dtype=np.int64)
    return GradedOperator(m.tocsr(), basis, shift=0)


def _require_commuting(u: GradedOperator, other: GradedOperator, name: str):
    gap = u.matrix @ other.matrix - other.matrix @ u.matrix
    gap.eliminate_zeros()
    if gap.count_nonzero():
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

    @property
    def fixed_index_sum(self) -> int:
        return sum(i for _, i in self.fixed)

    @property
    def consistent(self) -> bool:
        return self.number == self.fixed_index_sum

    def to_payload(self) -> dict:
        return {
            "lefschetz_number": int(self.number),
            "degree_traces": {str(k): float(v)
                              for k, v in sorted(self.degree_traces.items())},
            "fixed_simplices": [{"simplex": list(s), "index": int(i)}
                                for s, i in self.fixed],
            "fixed_index_sum": int(self.fixed_index_sum),
            "vertex_indices": {str(v): {"num": f.numerator, "den": f.denominator}
                               for v, f in sorted(self.vertex_indices.items())},
            "matches_fixed_points": bool(self.consistent),
        }


def lefschetz_number(t: Automorphism, d: GradedOperator,
                     L: GradedOperator) -> tuple[int, dict]:
    """Super trace of the induced map on cohomology, snapped to an integer.

    Returns the number together with the per-degree harmonic traces.
    """
    u = induced_map(t, L.basis)
    _require_commuting(u, d, "the derivative")
    _require_commuting(u, L, "the Hodge operator")
    traces = {}
    total = 0.0
    for k in range(L.basis.max_degree + 1):
        tr = float(np.trace(harmonic_projector(L, k) @ u.diag_block(k)))
        traces[k] = tr
        total += tr if k % 2 == 0 else -tr
    return snap_integer(total), traces


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
    if not 0 <= time < math.inf:
        raise InvalidInputError("heat time must be non-negative and finite")
    u = induced_map(t, L.basis)
    _require_commuting(u, L, "the Hodge operator")
    total = 0.0
    for k in range(L.basis.max_degree + 1):
        w, vecs = L.eigensystem(k)
        if len(w) == 0:
            continue
        ub = u.diag_block(k)
        rotated = vecs.T @ ub @ vecs
        tr = float(np.sum(np.exp(-time * np.clip(w, 0.0, None)) * np.diag(rotated)))
        total += tr if k % 2 == 0 else -tr
    return total


def lefschetz_report(c: Complex, t: Automorphism, d: GradedOperator,
                     L: GradedOperator) -> LefschetzReport:
    """Bundle the cohomological and fixed-point sides for one automorphism."""
    number, traces = lefschetz_number(t, d, L)
    fixed, vertex_indices = fixed_point_indices(t, c)
    return LefschetzReport(number, traces, fixed, vertex_indices)
