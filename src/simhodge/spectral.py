"""Betti numbers, spectra, harmonic projectors, and heat super-traces.

Exact integer ranks give the Betti numbers that eigenvalue pipelines are
checked against.  Spectra, singular vectors and Lefschetz weights come from
one route per block d_k of d (``gram_pairs``): its Gram matrix on the
narrower side, min(dim_k, dim_{k+1}) wide, solved one sector at a time.  An
eigenvalue counts as zero under 1e-7 times the top eigenvalue of its block.

With no swap, the one sector is the whole degree.  A derivative that
records a swap tau (a signed involution of its basis that commutes with d:
the order-2 connection derivative) splits each degree into the tau = +1 and
tau = -1 eigenspaces, spanned by e_i + tau e_i for each pair {i, tau i} and
by e_i for each fixed i; d maps each sector into the same sector, so each
Gram matrix splits into two blocks, each built as an exact integer product
and scaled by the basis norms (sqrt 2 for a pair) only as it becomes float.
The sector eigenvalues of a block are joined before its kernel threshold is
taken; its sector eigenvectors, lifted, are tau-adapted (tau x = +-x).

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


def gram_pairs(b: IntMatrix, sectors: list, block: np.ndarray | None,
               on_source: bool):
    """(σ², U, V) of a block d_k = U diag(σ) V^T from b, d_k or d_k^T with
    the narrower side as source: a ``_sector_solve`` per sector, the σ²
    joined by a stable ascending sort above one ``kernel_mask``; U, V None
    unless ``block``, the dense d_k, is given.  The other side is the
    orthonormal factor of a QR of d_k V (or d_k^T U), signed as d_k V / σ,
    so it is orthonormal to rounding however widely σ spreads."""
    solved = [_sector_solve(b, sector, block is not None) for sector in sectors]
    w = np.concatenate([w for w, _ in solved])
    order = np.argsort(w, kind="stable")
    keep = order[~kernel_mask(w[order])]
    w = w[keep]
    if block is None:
        return w, None, None
    vectors = np.hstack([x for _, x in solved])[:, keep]
    del solved  # frees the sector vectors before the QR allocates
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
    """The float Gram matrix of b on one source sector: N^-1 (bU)^T (bU)
    N^-1 over the orthonormal sector basis U N^-1, with N the square roots
    of the norms, exact integers until the last scaling; b^T b for the
    whole degree (None)."""
    if sector is None:
        return _dense(b.T @ b, 1.0)
    u, norms = sector
    part = b @ u
    gram = part.T @ part
    return _dense(gram, np.sqrt(norms[gram.row] * norms[gram.col]))


def _sector_solve(b, sector, vectors: bool):
    """The ascending eigenvalues of b's Gram matrix on one sector, freed on
    return, and with ``vectors`` its eigenvectors y in the degree basis (else
    None): U N^-1 y for a sector (U, norms), without U dense, as each column
    of U has a 1 and, for a pair, a second entry +-1; y itself for None."""
    if not vectors:
        return np.linalg.eigvalsh(_sector_gram(b, sector)), None
    w, y = np.linalg.eigh(_sector_gram(b, sector))
    if sector is None:
        return w, y
    u, norms = sector
    x = np.zeros((u.shape[0], y.shape[1]))
    x[u.row] = y[u.col] * (u.data / np.sqrt(norms[u.col]))[:, None]
    return w, x


def _dense(m: IntMatrix, scale) -> np.ndarray:
    """The float array of m with each stored entry divided by ``scale``."""
    out = np.zeros(m.shape)
    out[m.row, m.col] = m.data / scale
    return out


def singular_frame(d: GradedOperator, vectors: bool = False) -> list:
    """(σ², U, V) of each block d_k: the ``gram_pairs`` of its exact Gram
    matrix on the narrower side, by ``swap_sectors``, once ``require_frame``
    charged it; U, V None unless ``vectors``.  L_k has the σ² of d_(k-1)
    and d_k, with the columns of U_(k-1) and V_k, and zero on what is
    orthogonal to both (McKean-Singer)."""
    require_nilpotent(d)
    basis, dims = d.basis, d.basis.dims
    sides = require_frame(dims, vectors)
    sectors = swap_sectors(d)
    frame = []
    for k, side in enumerate(sides):
        block = d.matrix.block(basis.degree_slice(k + 1), basis.degree_slice(k))
        frame.append(gram_pairs(block if side == k else block.T, sectors[side],
                                block.toarray() if vectors else None, side == k))
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


def supersymmetry_check(spectra) -> SupersymmetryReport:
    """Pair the sorted non-zero spectra of L on the even- and odd-degree
    halves of the basis."""
    even, odd = (np.sort(np.concatenate([np.zeros(0)] + [
        w[~kernel_mask(w)] for w in spectra[start::2]])) for start in (0, 1))
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
