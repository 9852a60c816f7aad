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
operator"), so every sampled state, the start D at tau = 0 included, is
these triples at its time and nothing is computed between samples.  The
field commutes with orthogonal changes of basis within a degree, so the
sampled states do not depend on how a degree's basis is ordered or signed.
The frame is ``spectral.singular_frame(d, vectors=True)``, which first
refuses a d that is not graded and nilpotent
(``operators.require_nilpotent``); a frame that misses FRAME_TOL, block by
block, is refused as a broken contract.  It is orthonormal by construction,
so only singular values far apart in scale miss it (d_0 = diag(10^4, 1)
does).

A state keeps its triples, and its matrix is written only when read.  The
diagnostics of a run are one array pass over the stack of its triples, one
state a row: the spectrum is the sorted union of the 2 x 2 spectra
(a + c)/2 +- hypot((a - c)/2, s) and a zero for every other basis element,
the middle-part norm ||M||_F is sqrt(sum a^2 + sum c^2), and the nilpotency
defect ||R^2||_F has the blocks diag(s) C_k diag(s) with C_k = V_(k+1)^T U_k,
zero up to the frame's rounding.  Rows compared with one another cannot
catch a wrong frame, so each row's spectrum is also checked against two
exact integers of d: tr D^2 = 2 ||d||_F^2 and tr D^4 = 2 sum_k
||d_k^T d_k||_F^2, since D^2 = d d* + d* d and d d = 0.
"""

from __future__ import annotations

import math
import numbers
import sys

from . import budget
from . import _np as np
from .errors import ContractViolationError, InvalidInputError
from .operators import GradedBasis, GradedOperator
from .spectral import require_frame, singular_frame

SYMMETRY_TOL = 1e-10
# Largest entry error of a singular frame: of U_k diag(sigma) V_k^T against
# d_k, relative to the largest entry of d_k, and of the Gram matrix of each
# degree's columns [U_(k-1) | V_k] against the identity.
FRAME_TOL = 1e-12
# Peak bytes of a reported state: a row, and each value in it (RSS of lax,
# JSON report and CSV, at 7 to 21462 values a row, up to the budget's edge)
REPORT_ROW_BYTES, REPORT_VALUE_BYTES = 1536, 96
CSV_ROW_BYTES, CSV_VALUE_BYTES = 1024, 68
ROW_KEYS = ("t", "eigenvalues", "b_norm", "d_squared_norm", "drift")


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


def _band(matrix, basis: GradedBasis) -> np.ndarray:
    """The matrix as floats once ``_symmetric`` passes, made exactly
    symmetric from its upper triangle; refuses an entry between degrees more
    than one apart, which the band field would drop."""
    m = _symmetric(matrix, basis)
    m = np.triu(m) + np.triu(m, 1).T
    cuts = basis.offsets
    for k in range(2, len(basis.dims)):
        rows, below = slice(cuts[k], cuts[k + 1]), slice(0, cuts[k - 1])
        if m[rows, below].any() or m[below, rows].any():
            raise InvalidInputError(
                f"matrix has entries between degree {k} and a degree below "
                f"{k - 1}; the flow is defined on adjacent degrees only")
    return m


def _moments(d: GradedOperator) -> tuple[int, int]:
    """(tr D^2, tr D^4) of D = d + d* for a graded nilpotent d, exact: as
    d d = 0, D^2 = d d* + d* d and D^4 = (d d*)^2 + (d* d)^2, so tr D^2 =
    2 ||d||_F^2 and tr D^4 = 2 ||d* d||_F^2, the d_k^T d_k being the
    diagonal blocks of d* d."""
    gram = d.matrix.T @ d.matrix
    return tuple(2 * sum(v * v for v in m.data.tolist()) for m in (d.matrix, gram))


class _Frame:
    """The singular frame of d, built once per run from the (sigma^2, U, V)
    of each block d_k, with the exact (tr D^2, tr D^4) of its start: it
    gives the flat (a, c, s) triples at the sampled times, writes one state
    into a dense matrix, and reads the spectra and norms of a stack of
    states, one state a row, from the triples alone."""

    def __init__(self, blocks: list, basis: GradedBasis, moments: tuple):
        self.blocks, self.basis, self.moments = blocks, basis, moments
        cuts = np.cumsum([0] + [len(w) for w, _, _ in blocks])
        self.pairs = [slice(i, j) for i, j in zip(cuts, cuts[1:])]
        self.sigma = np.sqrt(np.concatenate([np.zeros(0)] + [f[0] for f in blocks]))
        # C_k o C_k with C_k = V_(k+1)^T U_k, zero up to rounding since im d_k
        # lies in ker d_(k+1): R_(k+1) R_k = U_(k+1) diag(s) C_k diag(s) V_k^T
        self.overlaps = [(v.T @ u) ** 2 for (_, u, _), (_, _, v)
                         in zip(blocks, blocks[1:])]

    def triples(self, times) -> np.ndarray:
        """The flat (a, c, s) triples at each time tau >= 0 in the frame, a
        row a time (one flat row for a single time):
        a = -sigma tanh(2 sigma tau), c = -a, s = sigma sech(2 sigma tau);
        past the float range x reads inf, and the triples their limit
        (-sigma, sigma, 0)."""
        with np.errstate(over="ignore"):
            x = 2.0 * self.sigma * np.asarray(times, dtype=float)[..., None]
        decay = np.exp(-x)  # sech x = 2 e^-x / (1 + e^-2x) cannot overflow
        a = -self.sigma * np.tanh(x)
        s = self.sigma * 2.0 * decay / (1.0 + decay * decay)
        return np.concatenate([a, -a, s], axis=-1)

    def to_dense(self, state: np.ndarray) -> np.ndarray:
        """A fresh dense matrix: M_k = V_k diag(a) V_k^T
        + U_(k-1) diag(c) U_(k-1)^T, exactly symmetric from its upper
        triangle, R_k = U_k diag(s) V_k^T and R_k^T."""
        degree = [self.basis.degree_slice(k) for k in range(len(self.basis.dims))]
        a, c, s = state.reshape(3, -1)
        dense = np.zeros((len(self.basis), len(self.basis)))
        for (_, u, v), p, low, high in zip(self.blocks, self.pairs, degree, degree[1:]):
            dense[low, low] += (v * a[p]) @ v.T
            dense[high, high] += (u * c[p]) @ u.T
            dense[high, low] = (u * s[p]) @ v.T
            dense[low, high] = dense[high, low].T
        for k in degree:
            dense[k, k] = np.triu(dense[k, k]) + np.triu(dense[k, k], 1).T
        return dense

    def require_fit(self, d: GradedOperator):
        """ContractViolationError, naming the lowest degree, when to
        FRAME_TOL a block's U_k diag(sigma) V_k^T does not reproduce d_k, its
        U_k^T U_k or V_k^T V_k is not the identity, or a cross term
        V_(k+1)^T U_k, whose squares are ``overlaps``, is not zero."""
        missed = [k + 1 for k, overlap in enumerate(self.overlaps)
                  if _max_abs(overlap) > FRAME_TOL ** 2]
        for k, (w, u, v) in enumerate(self.blocks):
            r = d.block(k + 1, k)
            if _max_abs((u * np.sqrt(w)) @ v.T - r) > FRAME_TOL * _max_abs(r):
                missed.append(k)
            missed += [j for j, x in ((k, v), (k + 1, u))
                       if _max_abs(x.T @ x - np.eye(x.shape[1])) > FRAME_TOL]
        if missed:
            raise ContractViolationError("the singular frame of the Dirac start "
                                         f"misses FRAME_TOL in degree {min(missed)}")

    def spectrum(self, states: np.ndarray) -> np.ndarray:
        """Along each row, the sorted union of the 2 x 2 spectra
        [[a, s], [s, c]] and a zero for every basis element outside the
        pairs."""
        a, c, s = np.split(states, 3, axis=-1)
        middle, radius = 0.5 * (a + c), np.hypot(0.5 * (a - c), s)
        zeros = np.zeros(a.shape[:-1] + (len(self.basis) - 2 * a.shape[-1],))
        return np.sort(np.concatenate([middle - radius, zeros, middle + radius],
                                      axis=-1), axis=-1)

    def norms(self, states: np.ndarray) -> tuple:
        """(||M||_F, ||R^2||_F) along each row: the columns of each degree
        are orthonormal, so ||M||_F^2 = sum a^2 + sum c^2, and
        ||R_(k+1) R_k||_F^2 = sum_ij s_(k+1),i^2 C_k,ij^2 s_k,j^2."""
        a, c, s = np.split(states, 3, axis=-1)
        s = s * s
        defect = sum((((s[..., q] @ overlap) * s[..., p]).sum(-1) for overlap, p, q
                      in zip(self.overlaps, self.pairs, self.pairs[1:])),
                     np.zeros(a.shape[:-1]))
        return np.sqrt((a * a).sum(-1) + (c * c).sum(-1)), np.sqrt(defect)

    def moment_residual(self, spectra: np.ndarray) -> float:
        """The largest relative residual, over the rows, of sum lambda^2
        against tr D^2 and of sum lambda^4 against tr D^4."""
        squares = spectra * spectra
        sums = (squares.sum(-1), (squares * squares).sum(-1))
        return max(_max_abs(m - float(t)) / max(t, 1)
                   for m, t in zip(sums, self.moments))


def _max_abs(x: np.ndarray) -> float:
    return float(np.max(np.abs(x))) if x.size else 0.0


class FlowState:
    """One sampled state of a flow: the frame of its run and the flat
    (a, c, s) triples at its time t there.  Its matrix is written from them
    on first read and then kept; its spectrum and norms are those of a
    one-row stack."""

    def __init__(self, t: float, frame: _Frame, triples: np.ndarray):
        self.t, self.frame, self.triples = t, frame, triples
        self.basis, self._matrix = frame.basis, None

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = self.frame.to_dense(self.triples)
        return self._matrix

    def raising_norm_squared(self) -> float:
        """||R^2||_F, the Frobenius norm of the square of the raising part
        (not ||R||^2): the nilpotency defect, zero for a Dirac operator."""
        return float(self.frame.norms(self.triples)[1])

    def preserving_norm(self) -> float:
        """||M||_F, the Frobenius norm of the degree-preserving part."""
        return float(self.frame.norms(self.triples)[0])

    def eigenvalues(self) -> np.ndarray:
        return self.frame.spectrum(self.triples)


def bracket_field(matrix, basis: GradedBasis) -> np.ndarray:
    """The Lax field of a dense symmetric matrix over ``basis``, the one the
    closed form solves and the tests' RK4 oracle follows: BX + (BX)^T with
    B = S o X, S the sign of the degree difference; exactly symmetric, and
    with exact zeros outside the band.  Raises InvalidInputError for a
    matrix with an entry between degrees more than one apart."""
    x = _band(matrix, basis)
    degrees = np.asarray(basis.degrees, dtype=float)
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
    arguments pass and the budgets hold: its singular frame with vectors
    passes ``spectral.require_frame`` (every degree at most 4096 wide),
    which bounds the flow's work, and each sampled state is charged
    ``row_bytes`` (by default a JSON report row) and 24 bytes a singular
    pair, at most min(dims_k, dims_(k+1)) for each d_k."""
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
    require_frame(dims, vectors=True)
    n, pairs = sum(dims), sum(map(min, dims, dims[1:]))
    if row_bytes is None:
        row_bytes = report_row_bytes(n)
    size = states * (row_bytes + 24 * pairs)
    budget.require(size, budget.MAX_TRAJECTORY_BYTES, f"{states} sampled states "
                   f"of size {n} need {size} bytes")
    return steps


def integrate(d: GradedOperator, t_end: float, dt: float,
              sample_every: int = 1, row_bytes: int | None = None) -> list[FlowState]:
    """Trajectory of the commutator flow from D = d + d* of the integer
    derivative ``d``, sampled every ``sample_every`` steps of dt and at the
    last step.

    Returns sampled states including the initial and final ones, each the
    closed form of the singular pairs of d at its time: the first is D at
    time 0, with triples (0, 0, sigma), and the others are at the sampled
    times i * dt, the last at t_end when the steps reach it to a few ulps;
    one ``_Frame.triples`` call evaluates them all.  Every state is exactly
    symmetric, with exact zeros between degrees more than one apart.
    Raises InvalidInputError before any work for a ``d`` that is not a
    GradedOperator, and ResourceLimitError before the frame is solved when
    the flow is over budget: ``flow_steps`` on the basis's degree widths,
    each sampled state charged ``row_bytes`` (by default its JSON report
    row).  Then, before the first state, it raises ContractViolationError
    for a d that is not graded and nilpotent
    (``operators.require_nilpotent``), and for a frame that misses
    FRAME_TOL.
    """
    if not isinstance(d, GradedOperator):
        raise InvalidInputError("the flow starts from an integer derivative, "
                                f"not a {type(d).__name__}")
    basis = d.basis
    steps = flow_steps(basis.dims, t_end, dt, sample_every, row_bytes)
    frame = _Frame(singular_frame(d, vectors=True), basis, _moments(d))
    frame.require_fit(d)
    samples = [*range(sample_every, steps + 1, sample_every)]
    if steps % sample_every:
        samples.append(steps)
    times = [0.0] + [i * dt for i in samples]
    if samples and abs(times[-1] - t_end) <= 4 * math.ulp(t_end):
        times[-1] = t_end
    return [FlowState(t, frame, row) for t, row in zip(times, frame.triples(times))]


def _diagnostics(states: list[FlowState]) -> tuple[dict, float]:
    """The rows of the states of one run, in one array pass over the stack
    of their triples: time, sorted spectrum, middle-part norm, nilpotency
    defect and spectral drift from the first state, each an array along the
    states; and the run's ``_Frame.moment_residual``."""
    frame = states[0].frame
    stack = np.array([s.triples for s in states])
    spectra = frame.spectrum(stack)
    b_norm, d_squared_norm = frame.norms(stack)
    drift = np.max(np.abs(spectra - spectra[0]), axis=-1, initial=0.0)
    times = np.array([s.t for s in states], dtype=float)
    return (dict(zip(ROW_KEYS, (times, spectra, b_norm, d_squared_norm, drift))),
            frame.moment_residual(spectra))


def trajectory_to_json(states: list[FlowState],
                       include_matrices: bool = False) -> dict:
    """Diagnostics per sampled state and the run's moment residual; full
    matrices only on request."""
    if not states:
        return {"states": [], "moment_residual": 0.0}
    rows, residual = _diagnostics(states)
    payload = [dict(zip(ROW_KEYS, values))
               for values in zip(*(rows[key].tolist() for key in ROW_KEYS))]
    if include_matrices:
        for entry, s in zip(payload, states):
            entry["matrix"] = s.matrix.tolist()
    return {"states": payload, "moment_residual": residual}


def trajectory_to_csv(states: list[FlowState]) -> str:
    """CSV diagnostics: time, sorted spectrum, middle-part and nilpotency norms, drift."""
    if not states:
        return ""
    n = len(states[0].basis)
    header = (["t"] + [f"eig_{i}" for i in range(n)]
              + ["b_norm", "d_squared_norm", "drift"])
    lines = [",".join(header)]
    rows = _diagnostics(states)[0]  # formatted a row at a time, as they are charged
    for t, eigs, *norms in zip(*(rows[key] for key in ROW_KEYS)):
        lines.append(",".join([f"{t:.10g}"] + [f"{x:.12g}" for x in eigs.tolist()]
                              + [f"{x:.12g}" for x in norms]))
    return "\n".join(lines) + "\n"
