"""Betti numbers, spectra, harmonic projectors, and heat super-traces.

Exact integer ranks give the Betti numbers that eigenvalue pipelines are
checked against.  Spectra, singular vectors and Lefschetz weights come from
one solve per block d_k of d, on its Gram matrix of the narrower side,
min(dim_k, dim_{k+1}) wide.  An eigenvalue counts as zero under 1e-7 times
the top eigenvalue of its solved block.

A derivative that records a swap tau (a signed involution of its basis that
commutes with d: the order-2 connection derivative) has its values solved
one tau-sector at a time.  Each degree splits into the tau = +1 and
tau = -1 eigenspaces, spanned by e_i + tau e_i for each pair {i, tau i} and
by e_i for each fixed i; d maps each sector into the same sector, so each
Gram matrix splits into two blocks, each built as an exact integer product
and scaled by the basis norms (sqrt 2 for a pair) only as it becomes float.
The sector eigenvalues of a block are joined before its kernel threshold is
taken.  Vectors come from the whole Gram matrix and a QR (``gram_pairs``).

``spectrum_report`` checks the non-zero spectrum against an exact number:
tr(L_k), the sum of the eigenvalues of degree k, equals the sum of v^2 over
the entries v of d whose row or column lies in degree k, to a relative
1e-9; a split that loses mass between sectors fails it.
"""

from __future__ import annotations

import math

from . import budget
from . import _np as np
from .errors import InvalidInputError
from .intlinalg import IntMatrix, exact_rank
from .operators import (GradedOperator, alternating_sum, require_nilpotent,
                        require_swap_commutes)

KERNEL_TOL = 1e-7
SUSY_TOL = 1e-9
TRACE_TOL = 1e-9


def betti(d: GradedOperator) -> tuple[int, ...]:
    """Exact Betti numbers of a nilpotent derivative.

    b_k = dim_k - rank(d_k) - rank(d_{k-1}), each rank over the rationals by
    sparse fraction-free integer elimination, from the top degree down with
    clearing: the pivot columns of d_k are degree-k indices, and the rows of
    d_(k-1) at them are left out, which keeps its rank (see ``intlinalg``).
    """
    require_nilpotent(d)
    basis = d.basis
    ranks, cleared = [0] * (basis.max_degree + 2), []  # ranks[-1]: below degree 0
    for k in range(basis.max_degree, -1, -1):
        pivots = []
        ranks[k] = exact_rank(d.matrix.block(basis.degree_slice(k + 1),
                                             basis.degree_slice(k)),
                              skip=cleared, pivots=pivots)
        cleared = pivots
    return tuple(basis.dims[k] - ranks[k] - ranks[k - 1]
                 for k in range(basis.max_degree + 1))


def kernel_threshold(eigenvalues: np.ndarray) -> float:
    top = float(eigenvalues[-1]) if len(eigenvalues) else 0.0
    return KERNEL_TOL * max(top, 1.0)


def kernel_mask(eigenvalues: np.ndarray) -> np.ndarray:
    """True for the ascending eigenvalues that count as zero."""
    return eigenvalues < kernel_threshold(eigenvalues)


def require_frame(dims, vectors: bool = False) -> list:
    """The narrower side of each d_k, the degree k or k + 1 (k when both are
    equally wide), once the dense blocks a ``singular_frame`` on degrees
    ``dims`` wide builds are charged: those sides for values alone, and
    with ``vectors`` every degree, as W_k = [V_k | U_(k-1)] is degree-wide."""
    sides = [k if dims[k] <= dims[k + 1] else k + 1 for k in range(len(dims) - 1)]
    for k in range(len(dims)) if vectors else sides:
        budget.require_dense(k, dims[k])
    return sides


def gram_values(grams) -> np.ndarray:
    """The σ² of one block b of d from the float Gram matrices of its
    sectors on the narrower side: one ``eigvalsh`` per sector, joined
    ascending, above their ``kernel_mask``."""
    w = np.sort(np.concatenate([np.linalg.eigvalsh(gram) for gram in grams]))
    return w[~kernel_mask(w)]


def gram_pairs(gram: np.ndarray, block: np.ndarray, on_source: bool):
    """(σ², U, V) with the dense block b = U diag(σ) V^T: one ``eigh`` of
    its Gram matrix on the narrower side (b^T b when ``on_source``, else
    b b^T) gives one side above its ``kernel_mask``, and the other is the
    orthonormal factor of a QR of b V (or b^T U), signed as b V / σ, so it
    is orthonormal to rounding however widely σ spreads."""
    w, vectors = np.linalg.eigh(gram)
    keep = ~kernel_mask(w)
    w, vectors = w[keep], vectors[:, keep]
    q, r = np.linalg.qr((block if on_source else block.T) @ vectors)
    other = q * np.copysign(1.0, np.diagonal(r))
    return (w, other, vectors) if on_source else (w, vectors, other)


def swap_sectors(d: GradedOperator) -> list:
    """Per degree, the sectors its Gram blocks are solved on: [None], the
    whole degree, when d records no swap; else the tau = +1 and tau = -1
    sectors as (U, norms) in the degree's own indices.  For the sector of
    eigenvalue e, U's integer columns are e_i + e tau(e_i) for each pair
    i < tau(i) and e_i for each fixed i with tau(e_i) = e e_i, and norms are
    the columns' squared lengths, 2 or 1.  Checks the swap exactly, once
    per d."""
    if d.swap is None:
        return [[None]] * len(d.basis.dims)
    require_swap_commutes(d)
    partner, sign = d.swap
    sectors = []
    for k in range(len(d.basis.dims)):
        part = d.basis.degree_slice(k)
        mate, signs = partner[part] - part.start, sign[part]
        index = np.arange(len(mate))
        degree = []
        for value in (1, -1):
            reps = np.flatnonzero((index < mate) | ((index == mate) & (signs == value)))
            cols, paired = np.arange(len(reps)), mate[reps] != reps
            ones = np.ones(len(reps), dtype=np.int64)
            u = IntMatrix(np.concatenate([reps, mate[reps][paired]]),
                          np.concatenate([cols, cols[paired]]),
                          np.concatenate([ones, value * signs[reps][paired]]),
                          (len(mate), len(reps)))
            degree.append((u, np.where(paired, 2, 1)))
        sectors.append(degree)
    return sectors


def _sector_gram(b, sector) -> np.ndarray:
    """The float Gram matrix b^T b of block b on one source sector; for the
    whole degree (None), b^T b itself.

    The orthonormal sector basis is U N^-1, with N the square roots of the
    norms, so the Gram matrix is N^-1 (bU)^T (bU) N^-1, exact integers until
    the last scaling."""
    if sector is None:
        return _dense(b.T @ b, 1.0)
    u, norms = sector
    part = b @ u
    gram = part.T @ part
    return _dense(gram, np.sqrt(norms[gram.row] * norms[gram.col]))


def _dense(m: IntMatrix, scale) -> np.ndarray:
    """The float array of m with each stored entry divided by ``scale``."""
    out = np.zeros(m.shape)
    out[m.row, m.col] = m.data / scale
    return out


def singular_frame(d: GradedOperator, vectors: bool = False) -> list:
    """(σ², U, V) of each block d_k from its exact Gram matrix on the
    narrower side, once ``require_frame`` charged it: ``gram_values`` one
    ``swap_sectors`` sector at a time (U, V None), or with ``vectors`` the
    ``gram_pairs`` of the whole matrix.  L_k has the σ² of d_(k-1) and d_k,
    with the columns of U_(k-1) and V_k, and zero on what is orthogonal to
    both (McKean-Singer)."""
    require_nilpotent(d)
    basis, dims = d.basis, d.basis.dims
    sides = require_frame(dims, vectors)
    # vectors solve one sector, the whole degree (None), so ``*grams`` is one
    sectors = [[None]] * len(dims) if vectors else swap_sectors(d)
    frame = []
    for k, side in enumerate(sides):
        block = d.matrix.block(basis.degree_slice(k + 1), basis.degree_slice(k))
        b = block if side == k else block.T
        # a generator: one sector's dense Gram matrix is alive at a time
        grams = (_sector_gram(b, sector) for sector in sectors[side])
        frame.append(gram_pairs(*grams, block.toarray(), side == k) if vectors
                     else (gram_values(grams), None, None))
    return frame


def degree_frames(frame: list, dims) -> list:
    """Per degree k of a ``singular_frame``, (λ, W): the non-zero
    eigenvalues of L_k, the σ² of d_k and then of d_(k-1), and the columns
    of their eigenvectors W = [V_k | U_(k-1)], orthonormal, with the kernel
    of L_k orthogonal to them; W is None for a frame of values alone."""
    out = []
    for k, n in enumerate(dims):
        right, left = frame[k:k + 1], frame[max(k - 1, 0):k]  # d_k, d_(k-1)
        columns = [f[2] for f in right] + [f[1] for f in left]
        out.append((np.concatenate([np.zeros(0)] + [f[0] for f in right + left]),
                    None if any(c is None for c in columns)
                    else np.hstack([np.zeros((n, 0))] + columns)))
    return out


def hodge_eigenvectors(d: GradedOperator) -> list:
    """``degree_frames`` of ``singular_frame(d, vectors=True)``."""
    return degree_frames(singular_frame(d, vectors=True), d.basis.dims)


def hodge_spectra(d: GradedOperator) -> list[np.ndarray]:
    """Ascending eigenvalues of each block L_k of L = (d + d*)^2, without L:
    the σ² of ``degree_frames`` and zeros up to each degree's dimension."""
    dims = d.basis.dims
    return [np.sort(np.concatenate([np.zeros(n - len(w)), w]))
            for (w, _), n in zip(degree_frames(singular_frame(d), dims), dims)]


def _super_trace(pairs, f) -> tuple[float, list[float]]:
    """Sum_k (-1)^k sum_i f(λ_i) h_i over per-degree pairs (eigenvalues λ of
    L_k, weights h), with the per-degree inner sums."""
    terms = [float(np.sum(f(w) * h)) for w, h in pairs]
    return float(alternating_sum(terms)), terms


def _heat_trace(pairs, t: float) -> float:
    """Sum_k (-1)^k sum_i exp(-t λ_i) h_i; t must be non-negative and finite.
    A t λ past the float range gives exp(-inf) = 0, its exact limit."""
    if not 0 <= t < math.inf:
        raise InvalidInputError("heat time must be non-negative and finite")
    with np.errstate(over="ignore"):
        return _super_trace(pairs, lambda w: np.exp(-t * np.clip(w, 0.0, None)))[0]


def heat_supertrace(spectra, t: float) -> float:
    """Alternating sum over degrees of the traces of exp(-t L_k), given the
    eigenvalues of each L_k (``hodge_spectra``).

    Constant in t for elliptic complexes; at t = 0 it is the alternating
    dimension sum (the analytic index).
    """
    return _heat_trace(((w, 1.0) for w in spectra), t)


class SupersymmetryReport:
    """Comparison of the non-zero spectra on two declared halves of a basis."""

    def __init__(self, even_nonzero: np.ndarray, odd_nonzero: np.ndarray,
                 max_mismatch: float, multiplicity_mismatch: int):
        self.even_nonzero, self.odd_nonzero = even_nonzero, odd_nonzero
        self.max_mismatch = max_mismatch
        self.multiplicity_mismatch = multiplicity_mismatch

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


def supersymmetry_check(spectra, even_degrees=None,
                        odd_degrees=None) -> SupersymmetryReport:
    """Pair the sorted non-zero spectra of L on the even and odd halves.

    By default the halves are the even- and odd-degree parts of the basis.
    Passing explicit degree sets probes other splits, e.g. a complex whose
    declared odd half is empty.
    """
    def nonzero(degrees):
        parts = [spectra[k][~kernel_mask(spectra[k])] for k in degrees]
        return np.sort(np.concatenate(parts)) if parts else np.zeros(0)

    even = nonzero(range(0, len(spectra), 2) if even_degrees is None else even_degrees)
    odd = nonzero(range(1, len(spectra), 2) if odd_degrees is None else odd_degrees)
    shared = min(len(even), len(odd))
    max_mismatch = float(np.max(np.abs(even[:shared] - odd[:shared]), initial=0.0))
    return SupersymmetryReport(even, odd, max_mismatch, abs(len(even) - len(odd)))


def harmonic_projector(d: GradedOperator, k: int) -> np.ndarray:
    """Orthogonal projector onto the harmonic k-forms of d, the kernel of
    L_k: I - W W^T over the eigenvectors W of ``hodge_eigenvectors``.  Its
    trace is the Betti number b_k."""
    if not 0 <= k < len(d.basis.dims):
        raise InvalidInputError(f"degree {k} is not a degree of the basis")
    _, vectors = hodge_eigenvectors(d)[k]
    return np.eye(len(vectors)) - vectors @ vectors.T


def hodge_traces(d: GradedOperator) -> list[int]:
    """Exact tr(L_k) per degree k: the sum of v^2 over the entries v of d
    whose row or column lies in degree k, in Python integers."""
    degrees = np.array(d.basis.degrees, dtype=np.int64)
    traces = [0] * len(d.basis.dims)
    m = d.matrix
    for row, col, v in zip(degrees[m.row].tolist(), degrees[m.col].tolist(),
                           m.data.tolist()):
        traces[row] += v * v
        traces[col] += v * v
    return traces


class SpectrumReport:
    """Per-degree spectra with the exact/numeric cross-checks: kernel counts
    against the Betti numbers, spectral sums against the exact traces."""

    def __init__(self, betti_numbers: tuple, kernel_counts: tuple,
                 eigenvalues: list, supersymmetry: SupersymmetryReport,
                 trace_residual: float):
        self.betti_numbers, self.kernel_counts = betti_numbers, kernel_counts
        self.eigenvalues = eigenvalues  # per degree, ascending
        self.supersymmetry = supersymmetry
        # the largest relative |sum of eigenvalues - tr L_k|
        self.trace_residual = trace_residual

    @property
    def agreement(self) -> bool:
        return (tuple(self.betti_numbers) == tuple(self.kernel_counts)
                and self.trace_residual <= TRACE_TOL)

    def to_payload(self) -> dict:
        return {
            "betti": [int(b) for b in self.betti_numbers],
            "kernel_counts": [int(n) for n in self.kernel_counts],
            "eigenvalues": {str(k): v.tolist() for k, v in enumerate(self.eigenvalues)},
            "exact_numeric_agreement": bool(self.agreement),
            "supersymmetry": self.supersymmetry.to_payload(),
        }


def spectrum_report(d: GradedOperator) -> SpectrumReport:
    """Assemble Betti numbers, spectra and their consistency checks."""
    spectra = hodge_spectra(d)
    kernels = tuple(int(np.count_nonzero(kernel_mask(w))) for w in spectra)
    residual = max((abs(float(np.sum(w)) - t) / max(t, 1)
                    for w, t in zip(spectra, hodge_traces(d))), default=0.0)
    return SpectrumReport(betti(d), kernels, spectra, supersymmetry_check(spectra),
                          residual)
