"""Betti numbers, spectra, harmonic projectors, and heat super-traces.

Betti numbers come from exact integer rank computations and act as ground
truth; eigenvalue pipelines are cross-validated against them.  The kernel
detection threshold is 1e-7 relative to the largest eigenvalue of a block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, InvalidInputError
from .intlinalg import exact_rank
from .operators import (GradedOperator, alternating_sum, dirac, hodge,
                        require_nilpotent)

KERNEL_TOL = 1e-7
SUSY_TOL = 1e-9


def betti(d: GradedOperator) -> tuple[int, ...]:
    """Exact Betti numbers of a nilpotent derivative.

    b_k = dim_k - rank(d_k) - rank(d_{k-1}), each rank over the rationals by
    sparse fraction-free integer elimination.
    """
    require_nilpotent(d)
    top = d.basis.max_degree
    ranks = [exact_rank(d.matrix.block(d.basis.degree_slice(k + 1),
                                       d.basis.degree_slice(k)))
             for k in range(top + 1)]
    return tuple(d.basis.dimension_of(k) - ranks[k] - (ranks[k - 1] if k else 0)
                 for k in range(top + 1))


def kernel_threshold(eigenvalues: np.ndarray) -> float:
    top = float(eigenvalues[-1]) if len(eigenvalues) else 0.0
    return KERNEL_TOL * max(top, 1.0)


def kernel_mask(eigenvalues: np.ndarray) -> np.ndarray:
    """True for the ascending eigenvalues that count as zero."""
    return eigenvalues < kernel_threshold(eigenvalues)


def spectrum(L: GradedOperator, k: int) -> np.ndarray:
    """Ascending eigenvalues of the degree-k Hodge block."""
    eigs = L.eigenvalues(k)
    if len(eigs) and eigs[0] < -SUSY_TOL:
        raise ContractViolationError(
            f"degree-{k} block has negative eigenvalue {eigs[0]}")
    return eigs


def numeric_kernel_count(L: GradedOperator, k: int) -> int:
    return int(np.count_nonzero(kernel_mask(L.eigenvalues(k))))


def _super_trace(pairs, f) -> tuple[float, list[float]]:
    """Sum_k (-1)^k sum_i f(λ_i) h_i over per-degree pairs (eigenvalues λ of
    L_k, weights h), with the per-degree inner sums."""
    terms = [float(np.sum(f(w) * h)) for w, h in pairs]
    return float(alternating_sum(terms)), terms


def _heat_trace(pairs, t: float) -> float:
    """Sum_k (-1)^k sum_i exp(-t λ_i) h_i; t must be non-negative and finite."""
    if not 0 <= t < math.inf:
        raise InvalidInputError("heat time must be non-negative and finite")
    return _super_trace(pairs, lambda w: np.exp(-t * np.clip(w, 0.0, None)))[0]


def heat_supertrace(L: GradedOperator, t: float) -> float:
    """Alternating sum over degrees of the traces of exp(-t L_k).

    Constant in t for elliptic complexes; at t = 0 it is the alternating
    dimension sum (the analytic index).
    """
    return _heat_trace(((L.eigenvalues(k), 1.0)
                        for k in range(L.basis.max_degree + 1)), t)


@dataclass
class SupersymmetryReport:
    """Comparison of the non-zero spectra on two declared halves of a basis."""

    even_nonzero: np.ndarray
    odd_nonzero: np.ndarray
    max_mismatch: float
    multiplicity_mismatch: int

    @property
    def symmetric(self) -> bool:
        return self.multiplicity_mismatch == 0 and self.max_mismatch < SUSY_TOL

    def to_payload(self) -> dict:
        return {
            "even_nonzero_count": int(len(self.even_nonzero)),
            "odd_nonzero_count": int(len(self.odd_nonzero)),
            "max_mismatch": float(self.max_mismatch),
            "multiplicity_mismatch": int(self.multiplicity_mismatch),
            "symmetric": bool(self.symmetric),
        }


def supersymmetry_check(L: GradedOperator, even_degrees=None,
                        odd_degrees=None) -> SupersymmetryReport:
    """Pair the sorted non-zero spectra of L on the even and odd halves.

    By default the halves are the even- and odd-degree parts of the basis.
    Passing explicit degree sets probes other splits, e.g. a complex whose
    declared odd half is empty.
    """
    top = L.basis.max_degree

    def nonzero(degrees):
        parts = [w[~kernel_mask(w)] for w in map(L.eigenvalues, degrees)]
        return np.sort(np.concatenate(parts)) if parts else np.zeros(0)

    even = nonzero(range(0, top + 1, 2) if even_degrees is None else even_degrees)
    odd = nonzero(range(1, top + 1, 2) if odd_degrees is None else odd_degrees)
    shared = min(len(even), len(odd))
    max_mismatch = float(np.max(np.abs(even[:shared] - odd[:shared]), initial=0.0))
    return SupersymmetryReport(even, odd, max_mismatch, abs(len(even) - len(odd)))


def harmonic_projector(L: GradedOperator, k: int) -> np.ndarray:
    """Orthogonal projector onto the kernel of the degree-k Hodge block."""
    eigenvalues, vectors = L.eigensystem(k)
    kernel = vectors[:, kernel_mask(eigenvalues)]
    return kernel @ kernel.T


@dataclass
class SpectrumReport:
    """Per-degree spectra with the exact/numeric kernel cross-check."""

    betti_numbers: tuple
    kernel_counts: tuple
    eigenvalues: dict = field(repr=False)
    supersymmetry: SupersymmetryReport = None

    @property
    def agreement(self) -> bool:
        return tuple(self.betti_numbers) == tuple(self.kernel_counts)

    def to_payload(self) -> dict:
        return {
            "betti": [int(b) for b in self.betti_numbers],
            "kernel_counts": [int(n) for n in self.kernel_counts],
            "eigenvalues": {str(k): v.tolist()
                            for k, v in sorted(self.eigenvalues.items())},
            "exact_numeric_agreement": bool(self.agreement),
            "supersymmetry": self.supersymmetry.to_payload()
            if self.supersymmetry else None,
        }


def spectrum_report(d: GradedOperator) -> SpectrumReport:
    """Assemble Betti numbers, spectra and their consistency booleans."""
    L = hodge(dirac(d))
    b = betti(d)
    top = d.basis.max_degree
    eigs = {k: spectrum(L, k) for k in range(top + 1)}
    kernels = tuple(numeric_kernel_count(L, k) for k in range(top + 1))
    return SpectrumReport(b, kernels, eigs, supersymmetry_check(L))
