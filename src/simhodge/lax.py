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
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DivergenceError, InvalidInputError
from .operators import GradedBasis, GradedOperator

SYMMETRY_TOL = 1e-10


def _degree_masks(basis: GradedBasis):
    degrees = np.asarray(basis.degrees)
    col = degrees[None, :]
    row = degrees[:, None]
    return row > col, row == col, row < col


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
        return float(np.max(np.abs(r @ r))) if r.size else 0.0

    def preserving_norm(self) -> float:
        _, b, _ = self.split()
        return float(np.max(np.abs(b))) if b.size else 0.0

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
    raising, _, lowering = state.split()
    b = raising - lowering
    return b @ state.matrix - state.matrix @ b


def _rk4_step(m: np.ndarray, basis: GradedBasis, dt: float) -> np.ndarray:
    def field(x):
        return bracket_field(FlowState(x, 0.0, basis))

    k1 = field(m)
    k2 = field(m + 0.5 * dt * k1)
    k3 = field(m + 0.5 * dt * k2)
    k4 = field(m + dt * k3)
    out = m + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return 0.5 * (out + out.T)  # suppress roundoff drift of the symmetry


def integrate(initial: GradedOperator | FlowState, t_end: float, dt: float,
              sample_every: int = 1) -> list[FlowState]:
    """Fixed-step trajectory of the commutator flow.

    Returns sampled states including the initial and final ones; raises with
    the last good state attached if the integration leaves the finite range.
    """
    if not 0 < dt < math.inf:
        raise InvalidInputError("dt must be positive and finite")
    if not 0 <= t_end < math.inf:
        raise InvalidInputError("t_end must be non-negative and finite")
    if isinstance(initial, GradedOperator):
        basis = initial.basis
        m = initial.to_dense()
        t0 = 0.0
    else:
        basis = initial.basis
        m = np.array(initial.matrix, dtype=float)
        t0 = initial.t
    split_by_degree(m, basis)  # validates shape and symmetry
    states = [FlowState(m.copy(), t0, basis)]
    steps = int(round(t_end / dt))
    current = m
    for i in range(1, steps + 1):
        current = _rk4_step(current, basis, dt)
        if not np.all(np.isfinite(current)):
            raise DivergenceError(
                f"flow diverged at step {i} (t = {t0 + i * dt:.6g})",
                last_state=states[-1])
        if i % sample_every == 0 or i == steps:
            states.append(FlowState(current.copy(), t0 + i * dt, basis))
    return states


def spectral_drift(s0: FlowState, s1: FlowState) -> float:
    """Largest displacement between the sorted spectra of two states."""
    e0, e1 = s0.eigenvalues(), s1.eigenvalues()
    if e0.shape != e1.shape:
        raise InvalidInputError("states have different dimensions")
    return float(np.max(np.abs(e1 - e0))) if e0.size else 0.0


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


def trajectory_to_json(states: list[FlowState],
                       include_matrices: bool = False) -> dict:
    """Diagnostics per sampled state; full matrices only on request."""
    if not states:
        return {"states": []}
    base = states[0].eigenvalues()
    payload = []
    for s in states:
        eigs = s.eigenvalues()
        entry = {
            "t": float(s.t),
            "eigenvalues": [float(x) for x in eigs],
            "b_norm": s.preserving_norm(),
            "d_squared_norm": s.raising_norm_squared(),
            "drift": float(np.max(np.abs(eigs - base))) if len(eigs) else 0.0,
        }
        if include_matrices:
            entry["matrix"] = [[float(x) for x in row] for row in s.matrix]
        payload.append(entry)
    return {"states": payload}


def trajectory_to_csv(states: list[FlowState]) -> str:
    """CSV diagnostics: time, sorted spectrum, middle-part and nilpotency norms, drift."""
    if not states:
        return ""
    n = len(states[0].basis)
    header = (["t"] + [f"eig_{i}" for i in range(n)]
              + ["b_norm", "d_squared_norm", "drift"])
    base = states[0].eigenvalues()
    lines = [",".join(header)]
    for s in states:
        eigs = s.eigenvalues()
        drift = float(np.max(np.abs(eigs - base))) if n else 0.0
        row = ([f"{s.t:.10g}"] + [f"{x:.12g}" for x in eigs]
               + [f"{s.preserving_norm():.12g}",
                  f"{s.raising_norm_squared():.12g}",
                  f"{drift:.12g}"])
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
