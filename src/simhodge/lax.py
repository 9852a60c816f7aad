"""Isospectral deformation of Dirac operators by the commutator flow.

The flow moves a symmetric graded matrix along its isospectral set: split
the matrix into a degree-raising part, a degree-preserving part and the
transpose of the first, steer with the antisymmetric difference of raising
and lowering parts, and follow the commutator field.  The
degree-preserving middle grows from zero while the spectrum and the
nilpotency of the raising part persist.

X is symmetric and B = S o X, with S the sign of the degree difference of
row and column, is antisymmetric, so the field is one product,

    [B, X] = BX - XB = BX + (BX)^T,

exactly symmetric as a sum.  With X = R + M + R^T (M_k within degree k, R_k
from degree k to k + 1) and Q = RM - MR it is Q + Q^T + 2 (R R^T - R^T R),
which has no entry between degrees more than one apart: there the product
leaves only rounding, and the field has exact zeros.

The flow starts at D = d + d* of an integer derivative d, so on the Dirac
set (every M_k zero and every R_(k+1) R_k zero) by construction, and stays
in the singular frame of d, in closed form.
With d_k = U_k diag(sigma) V_k^T, the columns [U_(k-1) | V_k] of each degree
are orthonormal, and the flow keeps the form
M_k = V_k diag(a) V_k^T + U_(k-1) diag(c) U_(k-1)^T, R_k = U_k diag(s) V_k^T:
every singular pair of d is one 2 x 2 flow

    a' = -2 s^2,  c' = 2 s^2,  s' = s (a - c)

from (0, 0, sigma).  Since a + c and a^2 + s^2 are conserved, it is

    a = -sigma tanh(2 sigma tau),  c = -a,  s = sigma sech(2 sigma tau)

at time tau in the frame (Knill, "Isospectral deformations of the Dirac
operator"), so a sampled state is these triples at its time and nothing is
computed between samples.  The start's time is 0, so a flowed state's time
is its time in the frame.  The field commutes with orthogonal changes of
basis within a degree, so the sampled states do not depend on how a
degree's basis is ordered or signed.  The frame is
``spectral.singular_frame(d, vectors=True)``, which first refuses a d that
is not graded and nilpotent (``operators.require_nilpotent``); a frame that
misses FRAME_TOL is refused as a broken contract.  It is orthonormal by
construction, so only singular values far apart in scale miss it
(d_0 = diag(10^4, 1) does).

A flowed state keeps its triples, and its matrix is written only when read.
Its diagnostics row comes from the triples: the spectrum is the sorted union
of the 2 x 2 spectra (a + c)/2 +- hypot((a - c)/2, s) and a zero for every
other basis element, the middle-part norm ||M||_F is
sqrt(sum a^2 + sum c^2), and the nilpotency defect ||R^2||_F has the blocks
diag(s) C_k diag(s) with C_k = V_(k+1)^T U_k, zero up to the frame's
rounding.  The first row (the input, and the reference of the drift) and
the last row (the check of the written matrix) come from the dense
matrices: eigvalsh, and the Frobenius norms of M and of the blocks
R_(k+1) R_k.
"""

from __future__ import annotations

import math
import numbers
import sys

from . import budget
from . import _np as np
from .errors import ContractViolationError, InvalidInputError
from .operators import GradedBasis, GradedOperator, dirac
from .spectral import degree_frames, singular_frame

SYMMETRY_TOL = 1e-10
# Largest entry error of a singular frame: of U_k diag(sigma) V_k^T against
# d_k, relative to the largest entry of d_k, and of the Gram matrix of each
# degree's columns [U_(k-1) | V_k] against the identity.
FRAME_TOL = 1e-12
# Peak bytes of a reported state: a row, and each value in it (RSS of lax,
# JSON report and CSV, at 7 to 21462 values a row, up to the budget's edge)
REPORT_ROW_BYTES, REPORT_VALUE_BYTES = 1536, 96
CSV_ROW_BYTES, CSV_VALUE_BYTES = 1024, 68


def _symmetric(matrix, basis: GradedBasis) -> np.ndarray:
    """The matrix as floats, once its shape, finiteness and symmetry are
    checked."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (len(basis), len(basis)):
        raise InvalidInputError("matrix shape does not match basis size")
    if not np.isfinite(m).all():
        raise InvalidInputError("matrix has a non-finite entry")
    if m.size and float(np.max(np.abs(m - m.T))) >= SYMMETRY_TOL:
        raise ContractViolationError("matrix is not symmetric")
    return m


def _block_slices(basis: GradedBasis) -> list:
    """(rows, columns) of the band blocks: every M_k, then every R_k (rows of
    degree k + 1, columns of degree k)."""
    s = [basis.degree_slice(k) for k in range(len(basis.dims))]
    return list(zip(s, s)) + list(zip(s[1:], s))


def _band(matrix, basis: GradedBasis) -> tuple:
    """(m, blocks): the matrix as floats once ``_symmetric`` passes, made
    exactly symmetric from its upper triangle, with the views of its band
    blocks; refuses an entry between degrees more than one apart, which the
    band field would drop."""
    m = _symmetric(matrix, basis)
    m = np.triu(m) + np.triu(m, 1).T
    cuts = basis.offsets
    for k in range(2, len(basis.dims)):
        rows, below = slice(cuts[k], cuts[k + 1]), slice(0, cuts[k - 1])
        if m[rows, below].any() or m[below, rows].any():
            raise InvalidInputError(
                f"matrix has entries between degree {k} and a degree below "
                f"{k - 1}; the flow is defined on adjacent degrees only")
    return m, [m[rows, cols] for rows, cols in _block_slices(basis)]


def _checked_frame(d: GradedOperator) -> list:
    """``spectral.singular_frame(d, vectors=True)``, the (sigma^2, U_k, V_k)
    with d_k = U_k diag(sigma) V_k^T of every block; ContractViolationError
    when, to FRAME_TOL, a d_k is not reproduced or a ``degree_frames`` is
    not orthonormal."""
    frame = singular_frame(d, vectors=True)
    blocks = [d.block(k + 1, k) for k in range(len(frame))]
    missed = [k for k, ((w, u, v), r) in enumerate(zip(frame, blocks))
              if _max_abs((u * np.sqrt(w)) @ v.T - r) > FRAME_TOL * _max_abs(r)]
    missed += [k for k, (_, w) in enumerate(degree_frames(frame, d.basis.dims))
               if _max_abs(w.T @ w - np.eye(w.shape[1])) > FRAME_TOL]
    if missed:
        raise ContractViolationError("the singular frame of the Dirac start "
                                     f"misses FRAME_TOL in degree {missed[0]}")
    return frame


class _Frame:
    """The singular frame of d, built once per run from the (sigma^2, U, V)
    of each block d_k: it gives the flat (a, c, s) triples at a time in the
    frame, writes them into a dense matrix and reads the spectrum and the
    norms of a state from the triples alone."""

    def __init__(self, blocks: list, basis: GradedBasis):
        self.blocks, self.basis = blocks, basis
        cuts = np.cumsum([0] + [len(w) for w, _, _ in blocks])
        self.pairs = [slice(i, j) for i, j in zip(cuts, cuts[1:])]
        self.sigma = np.sqrt(np.concatenate([np.zeros(0)] + [f[0] for f in blocks]))
        # C_k = V_(k+1)^T U_k, zero up to rounding since im d_k lies in
        # ker d_(k+1): R_(k+1) R_k = U_(k+1) diag(s) C_k diag(s) V_k^T
        self.overlaps = [v.T @ u for (_, u, _), (_, _, v) in zip(blocks, blocks[1:])]

    def triples(self, tau: float) -> np.ndarray:
        """The flat (a, c, s) triples at time tau >= 0 in the frame:
        a = -sigma tanh(2 sigma tau), c = -a, s = sigma sech(2 sigma tau);
        past the float range x reads inf, and the triples their limit
        (-sigma, sigma, 0)."""
        with np.errstate(over="ignore"):
            x = 2.0 * self.sigma * tau
        decay = np.exp(-x)  # sech x = 2 e^-x / (1 + e^-2x) cannot overflow
        a = -self.sigma * np.tanh(x)
        return np.concatenate([a, -a, self.sigma * 2.0 * decay
                               / (1.0 + decay * decay)])

    def to_dense(self, state: np.ndarray) -> np.ndarray:
        """A fresh dense matrix: M_k = V_k diag(a) V_k^T
        + U_(k-1) diag(c) U_(k-1)^T, exactly symmetric from its upper
        triangle, R_k = U_k diag(s) V_k^T and R_k^T."""
        basis = self.basis
        slices, levels = _block_slices(basis), len(basis.dims)
        a, c, s = state.reshape(3, -1)
        dense = np.zeros((len(basis), len(basis)))
        for k, ((_, u, v), p) in enumerate(zip(self.blocks, self.pairs)):
            dense[slices[k]] += (v * a[p]) @ v.T
            dense[slices[k + 1]] += (u * c[p]) @ u.T
            rows, cols = slices[levels + k]
            dense[rows, cols] = (u * s[p]) @ v.T
            dense[cols, rows] = dense[rows, cols].T
        for rows, cols in slices[:levels]:
            m = dense[rows, cols]
            m[...] = np.triu(m) + np.triu(m, 1).T
        return dense

    def spectrum(self, state: np.ndarray) -> np.ndarray:
        """The sorted union of the 2 x 2 spectra [[a, s], [s, c]] and a
        zero for every basis element outside the pairs."""
        a, c, s = state.reshape(3, -1)
        middle, radius = 0.5 * (a + c), np.hypot(0.5 * (a - c), s)
        zeros = np.zeros(len(self.basis) - 2 * a.size)
        return np.sort(np.concatenate([middle - radius, zeros, middle + radius]))

    def norms(self, state: np.ndarray) -> tuple[float, float]:
        """(||M||_F, ||R^2||_F): the columns of each degree are orthonormal,
        so ||M||_F^2 = sum a^2 + sum c^2 and ||R_(k+1) R_k||_F is that of
        diag(s_(k+1)) C_k diag(s_k)."""
        a, c, s = state.reshape(3, -1)
        squares = [s[q][:, None] * overlap * s[p] for overlap, p, q
                   in zip(self.overlaps, self.pairs, self.pairs[1:])]
        return _frobenius([a, c]), _frobenius(squares)


def _max_abs(x: np.ndarray) -> float:
    return float(np.max(np.abs(x))) if x.size else 0.0


def _frobenius(blocks) -> float:
    """The Frobenius norm of the matrix whose blocks (or parts) these are."""
    return math.hypot(*map(np.linalg.norm, blocks))


class FlowState:
    """A symmetric matrix over a graded basis at one flow time.

    A flowed state holds the frame of its run and the flat (a, c, s) triples
    at its time t there: its matrix is written from them on first read and
    then kept, and its spectrum and norms come from the triples alone."""

    def __init__(self, matrix: np.ndarray | None, t: float, basis: GradedBasis,
                 frame: _Frame | None = None):
        self._matrix, self.t, self.basis, self.frame = matrix, t, basis, frame
        self.triples = None if frame is None else frame.triples(t)

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = self.frame.to_dense(self.triples)
        return self._matrix

    def raising_norm_squared(self) -> float:
        """||R^2||_F, the Frobenius norm of the square of the raising part
        (not ||R||^2): the nilpotency defect, zero for a Dirac operator."""
        return _norms(self)[1]

    def preserving_norm(self) -> float:
        """||M||_F, the Frobenius norm of the degree-preserving part."""
        return _norms(self)[0]

    def eigenvalues(self) -> np.ndarray:
        if self.frame is not None:
            return self.frame.spectrum(self.triples)
        return np.linalg.eigvalsh(self.matrix) if self.matrix.size else np.zeros(0)


def _norms(state: FlowState) -> tuple[float, float]:
    """(Frobenius norm of the degree-preserving part, Frobenius norm of the
    square of the raising part), from the triples of a frame state, else
    from the band blocks of the matrix: the square of the raising part has
    the blocks R_(k+1) R_k and no others."""
    if state.frame is not None:
        return state.frame.norms(state.triples)
    blocks = _band(state.matrix, state.basis)[1]
    levels = len(state.basis.dims)
    middles, raisings = blocks[:levels], blocks[levels:]
    return (_frobenius(middles),
            _frobenius([b @ a for a, b in zip(raisings, raisings[1:])]))


def bracket_field(state: FlowState) -> np.ndarray:
    """Commutator field BX + (BX)^T steering the flow, B = S o X with S the
    sign of the degree difference; exactly symmetric, and with exact zeros
    outside the band.  Raises InvalidInputError for a matrix with an entry
    between degrees more than one apart."""
    x = _band(state.matrix, state.basis)[0]
    degrees = np.asarray(state.basis.degrees, dtype=float)
    gaps = degrees[:, None] - degrees[None, :]
    p = (np.sign(gaps) * x) @ x
    return np.where(np.abs(gaps) > 1, 0.0, p + p.T)


def report_row_bytes(n: int, csv: bool = False, matrices: bool = False) -> int:
    """Peak bytes of one reported state of size n: a CSV row, or a JSON
    report row of n eigenvalues and, with ``matrices``, n**2 entries."""
    if csv:
        return CSV_ROW_BYTES + CSV_VALUE_BYTES * n
    return REPORT_ROW_BYTES + REPORT_VALUE_BYTES * (n + matrices * n * n)


def flow_steps(dims, t_end: float, dt: float, sample_every: int,
               row_bytes: int | None = None) -> int:
    """Number of steps of a flow over degrees ``dims`` wide, once its
    arguments pass and the budgets hold: with n = sum(dims), 2 n**3
    operations and 16 n**2 bytes for the dense end states, and for each
    sampled state ``row_bytes`` (by default a JSON report row) and 24 bytes
    a singular pair, at most min(dims_k, dims_(k+1)) for each d_k.  (A
    state's 3 operations a pair are, while its bytes pass, below 1e-3 of
    MAX_FLOW_WORK.)"""
    if not 0 < dt < math.inf:
        raise InvalidInputError("dt must be positive and finite")
    if not 0 <= t_end < math.inf:
        raise InvalidInputError("t_end must be non-negative and finite")
    if not (isinstance(sample_every, numbers.Integral) and sample_every >= 1):
        raise InvalidInputError("sample_every must be a positive integer")
    ratio = t_end / dt
    # the step count is formed only once it is finite (a subnormal dt)
    budget.require(ratio, sys.float_info.max,
                   f"flow needs t_end/dt = {ratio:.3g} steps")
    steps = int(round(ratio))
    states = 1 - (-steps // sample_every)  # each reported as a row
    n, pairs = sum(dims), sum(map(min, dims, dims[1:]))
    work = 2 * n ** 3
    budget.require(work, budget.MAX_FLOW_WORK, f"flow needs about {work:.3g} "
                   f"operations (t_end/dt = {ratio:.3g} steps of size {n})")
    if row_bytes is None:
        row_bytes = report_row_bytes(n)
    size = 16 * n * n + states * (row_bytes + 24 * pairs)
    budget.require(size, budget.MAX_TRAJECTORY_BYTES, f"{states} sampled states "
                   f"of size {n} need {size} bytes")
    return steps


def integrate(d: GradedOperator, t_end: float, dt: float,
              sample_every: int = 1, row_bytes: int | None = None) -> list[FlowState]:
    """Trajectory of the commutator flow from D = d + d* of the integer
    derivative ``d``, sampled every ``sample_every`` steps of dt and at the
    last step.

    Returns sampled states including the initial and final ones: the first
    is D as floats, and the others are the closed form of the singular pairs
    of d at the sampled times i * dt, the last at t_end when the steps reach
    it to a few ulps.  Every state is exactly symmetric, with exact zeros
    between degrees more than one apart.  Raises InvalidInputError before
    any work for a ``d`` that is not a GradedOperator, and
    ResourceLimitError before the frame is solved when the flow is over
    budget: ``flow_steps`` on the basis's degree widths, each sampled state
    charged ``row_bytes`` (by default its JSON report row).  Then, before
    the first state, it raises ContractViolationError for a d that is not
    graded and nilpotent (``operators.require_nilpotent``), and for a frame
    that misses FRAME_TOL.
    """
    if not isinstance(d, GradedOperator):
        raise InvalidInputError("the flow starts from an integer derivative, "
                                f"not a {type(d).__name__}")
    basis = d.basis
    steps = flow_steps(basis.dims, t_end, dt, sample_every, row_bytes)
    frame = _Frame(_checked_frame(d), basis)
    samples = [*range(sample_every, steps + 1, sample_every)]
    if steps % sample_every:
        samples.append(steps)
    times = [i * dt for i in samples]
    if times and abs(times[-1] - t_end) <= 4 * math.ulp(t_end):
        times[-1] = t_end
    return [FlowState(dirac(d).to_dense(), 0.0, basis)] + [
        FlowState(None, t, basis, frame) for t in times]


def _diagnostics(states: list[FlowState]) -> list[dict]:
    """Per sampled state: time, sorted spectrum, middle-part norm, nilpotency
    defect and spectral drift from the first state; one spectrum each.  The
    first and last rows come from the dense matrices, the first as the drift
    reference and the last as the check of the written matrix; the rows
    between come from the triples of a frame state."""
    rows = []
    for i, s in enumerate(states):
        if i in (0, len(states) - 1):
            s = FlowState(s.matrix, s.t, s.basis)
        b_norm, d_squared_norm = _norms(s)
        eigs = s.eigenvalues()
        base = rows[0]["eigenvalues"] if rows else eigs
        rows.append({"t": float(s.t), "eigenvalues": eigs, "b_norm": b_norm,
                     "d_squared_norm": d_squared_norm,
                     "drift": _max_abs(eigs - base)})
    return rows


def trajectory_to_json(states: list[FlowState],
                       include_matrices: bool = False) -> dict:
    """Diagnostics per sampled state; full matrices only on request."""
    payload = []
    for s, row in zip(states, _diagnostics(states)):
        entry = dict(row, eigenvalues=row["eigenvalues"].tolist())
        if include_matrices:
            entry["matrix"] = np.asarray(s.matrix, dtype=float).tolist()
        payload.append(entry)
    return {"states": payload}


def trajectory_to_csv(states: list[FlowState]) -> str:
    """CSV diagnostics: time, sorted spectrum, middle-part and nilpotency norms, drift."""
    if not states:
        return ""
    n = len(states[0].basis)
    header = (["t"] + [f"eig_{i}" for i in range(n)]
              + ["b_norm", "d_squared_norm", "drift"])
    lines = [",".join(header)]
    for row in _diagnostics(states):
        lines.append(",".join(
            [f"{row['t']:.10g}"] + [f"{x:.12g}" for x in row["eigenvalues"]]
            + [f"{row[k]:.12g}" for k in ("b_norm", "d_squared_norm", "drift")]))
    return "\n".join(lines) + "\n"
