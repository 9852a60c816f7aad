"""Isospectral deformation of Dirac operators by the commutator flow.

The flow moves a symmetric graded matrix along its isospectral set: split
the matrix into a degree-raising part, a degree-preserving part and the
transpose of the first, steer with the antisymmetric difference of raising
and lowering parts, and integrate the commutator field with fixed-step
classical Runge-Kutta.  The degree-preserving middle grows from zero while
the spectrum and the nilpotency of the raising part persist.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (ContractViolationError, DivergenceError, InvalidInputError,
                     ResourceLimitError)
from .operators import GradedBasis, GradedOperator

SYMMETRY_TOL = 1e-10
# Budgets checked before the first step: steps times n**3 bounds the work of
# the dense products, and the sampled states must fit in memory.
MAX_FLOW_WORK = 10 ** 11
MAX_TRAJECTORY_BYTES = 2 ** 28


def _degree_masks(basis: GradedBasis):
    degrees = np.asarray(basis.degrees)
    col = degrees[None, :]
    row = degrees[:, None]
    return row > col, row == col, row < col


def _sign_matrix(basis: GradedBasis) -> np.ndarray:
    """+1 on raising entries, -1 on lowering entries, 0 within a degree."""
    up, _, down = _degree_masks(basis)
    return up.astype(float) - down


def _field(sign: np.ndarray, x: np.ndarray, out, scratch) -> np.ndarray:
    """[B, X] for symmetric X and B = sign * X, in one product.

    B is antisymmetric, so XB = -(BX)^T and [B, X] = BX + (BX)^T; the sum of
    a matrix and its transpose is exactly symmetric in floating point.
    The n x n buffers ``out`` and ``scratch`` (not x) hold result and product.
    """
    b = np.multiply(sign, x, out=out)
    p = np.matmul(b, x, out=scratch)
    return np.add(p, p.T, out=b)


def _max_abs(x: np.ndarray) -> float:
    return float(np.max(np.abs(x))) if x.size else 0.0


@dataclass
class FlowState:
    """A symmetric matrix over a graded basis at one flow time."""

    matrix: np.ndarray
    t: float
    basis: GradedBasis

    def split(self):
        """(raising, preserving, lowering) parts; they add back to the matrix."""
        return split_by_degree(self.matrix, self.basis)

    def raising_norm_squared(self) -> float:
        r, _, _ = self.split()
        return _max_abs(r @ r)

    def preserving_norm(self) -> float:
        _, b, _ = self.split()
        return _max_abs(b)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix) if self.matrix.size else np.zeros(0)


def split_by_degree(matrix: np.ndarray, basis: GradedBasis):
    """Split a symmetric matrix into degree-raising, -preserving and -lowering parts.

    Raising collects every entry that maps a degree into any strictly higher
    degree; at time zero only adjacent degrees are populated and the flow is
    observed, not assumed, to keep it that way.
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape != (len(basis), len(basis)):
        raise InvalidInputError("matrix shape does not match basis size")
    if m.size and float(np.max(np.abs(m - m.T))) >= SYMMETRY_TOL:
        raise ContractViolationError("matrix is not symmetric")
    up, diag, down = _degree_masks(basis)
    return m * up, m * diag, m * down


def bracket_field(state: FlowState) -> np.ndarray:
    """Commutator field steering the flow; symmetric for symmetric input."""
    split_by_degree(state.matrix, state.basis)  # validates shape and symmetry
    x = np.asarray(state.matrix, dtype=float)
    return _field(_sign_matrix(state.basis), x, np.empty_like(x), np.empty_like(x))


def _rk4_step(m: np.ndarray, sign: np.ndarray, dt: float, work) -> np.ndarray:
    """m + dt/6 (k1 + 2 k2 + 2 k3 + k4), bit for bit in that order, with the
    stages in the four n x n arrays of ``work`` instead of fresh blocks."""
    x, k, total, scratch = work
    _field(sign, m, total, scratch)                          # total = k1
    np.add(m, np.multiply(0.5 * dt, total, out=x), out=x)
    for c in (0.5 * dt, dt):
        _field(sign, x, k, scratch)                          # k2, then k3
        np.add(m, np.multiply(c, k, out=x), out=x)
        np.add(total, np.multiply(2.0, k, out=scratch), out=total)
    _field(sign, x, k, scratch)                              # k4
    np.add(total, k, out=total)
    return np.add(m, np.multiply(dt / 6.0, total, out=total))


def _check_budget(n: int, t_end: float, dt: float, sample_every: int) -> int:
    """Number of steps, once the work and the sampled states fit the budgets."""
    ratio = t_end / dt
    work = ratio * max(n, 1) ** 3
    if not work <= MAX_FLOW_WORK:
        raise ResourceLimitError(
            f"flow needs about {work:.3g} operations (t_end/dt = {ratio:.3g} "
            f"steps of size {n}), limit is {MAX_FLOW_WORK:.3g}")
    steps = int(round(ratio))
    samples = 1 + steps // sample_every + (1 if steps % sample_every else 0)
    size = samples * n * n * 8
    if size > MAX_TRAJECTORY_BYTES:
        raise ResourceLimitError(
            f"{samples} sampled states of size {n} need {size} bytes, "
            f"limit is {MAX_TRAJECTORY_BYTES}")
    return steps


def integrate(initial: GradedOperator | FlowState, t_end: float, dt: float,
              sample_every: int = 1) -> list[FlowState]:
    """Fixed-step trajectory of the commutator flow.

    Returns sampled states including the initial and final ones; raises with
    the last good state attached if the integration leaves the finite range.
    Every state is exactly symmetric.  Raises ResourceLimitError before the
    first step when the run would exceed MAX_FLOW_WORK or its sampled states
    MAX_TRAJECTORY_BYTES.
    """
    if not 0 < dt < math.inf:
        raise InvalidInputError("dt must be positive and finite")
    if not 0 <= t_end < math.inf:
        raise InvalidInputError("t_end must be non-negative and finite")
    if not (isinstance(sample_every, numbers.Integral) and sample_every >= 1):
        raise InvalidInputError("sample_every must be a positive integer")
    basis = initial.basis
    if isinstance(initial, GradedOperator):
        m, t0 = initial.to_dense(), 0.0
    else:
        m, t0 = np.asarray(initial.matrix, dtype=float), initial.t
    split_by_degree(m, basis)  # validates shape and symmetry
    steps = _check_budget(len(basis), t_end, dt, sample_every)
    m = np.triu(m) + np.triu(m, 1).T  # exactly symmetric from here on
    sign = _sign_matrix(basis)
    work = np.empty((4,) + m.shape)
    states = [FlowState(m, t0, basis)]
    current = m
    for i in range(1, steps + 1):
        current = _rk4_step(current, sign, dt, work)
        if not np.all(np.isfinite(current)):
            raise DivergenceError(
                f"flow diverged at step {i} (t = {t0 + i * dt:.6g})",
                last_state=states[-1])
        if i % sample_every == 0 or i == steps:
            states.append(FlowState(current, t0 + i * dt, basis))
    return states


def spectral_drift(s0: FlowState, s1: FlowState) -> float:
    """Largest displacement between the sorted spectra of two states."""
    e0, e1 = s0.eigenvalues(), s1.eigenvalues()
    if e0.shape != e1.shape:
        raise InvalidInputError("states have different dimensions")
    return _max_abs(e1 - e0)


def deformed_stokes_probe(state: FlowState, form: dict, chain: dict,
                          reference: FlowState = None):
    """Pair the deformed derivative of a form against a chain.

    For a vertex function and a closed loop the undeformed value telescopes
    to zero; along the flow it generally does not.  Returns the value at the
    probed state and, when a reference state is given, the value there too.
    """
    def value(s: FlowState) -> float:
        f = np.zeros(len(s.basis))
        a = np.zeros(len(s.basis))
        for vector, coefficients in ((f, form), (a, chain)):
            for element, coefficient in coefficients.items():
                if element not in s.basis.index:
                    raise InvalidInputError(
                        f"element {element!r} is not in the basis")
                vector[s.basis.index[element]] = coefficient
        raising, _, _ = s.split()
        return float((raising @ f) @ a)

    probed = value(state)
    return probed, (value(reference) if reference is not None else None)


def _diagnostics(states: list[FlowState]) -> list[dict]:
    """Per sampled state: time, sorted spectrum, middle-part norm, nilpotency
    defect and spectral drift from the first state; one eigensolve each."""
    rows = []
    for s in states:
        raising, middle, _ = s.split()
        eigs = s.eigenvalues()
        base = rows[0]["eigenvalues"] if rows else eigs
        rows.append({"t": float(s.t), "eigenvalues": eigs,
                     "b_norm": _max_abs(middle),
                     "d_squared_norm": _max_abs(raising @ raising),
                     "drift": _max_abs(eigs - base)})
    return rows


def trajectory_to_json(states: list[FlowState],
                       include_matrices: bool = False) -> dict:
    """Diagnostics per sampled state; full matrices only on request."""
    payload = []
    for s, row in zip(states, _diagnostics(states)):
        entry = dict(row, eigenvalues=[float(x) for x in row["eigenvalues"]])
        if include_matrices:
            entry["matrix"] = [[float(x) for x in r] for r in s.matrix]
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
