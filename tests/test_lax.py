"""Commutator-flow integration: splitting, isospectrality, convergence."""

import numpy as np
import pytest

from simhodge import (ContractViolationError, DivergenceError, FlowState,
                      InvalidInputError, bracket_field, deformed_stokes_probe,
                      dirac, downward_closure, exterior_derivative, generate,
                      graded_basis, integrate, spectral_drift,
                      split_by_degree, trajectory_to_csv, whitney_complex)


def initial_dirac(c):
    return dirac(exterior_derivative(c))


class TestSplit:
    def test_undeformed_dirac_has_no_middle(self, c4):
        big_d = initial_dirac(c4)
        raising, middle, lowering = split_by_degree(big_d.to_dense(), big_d.basis)
        assert not middle.any()
        d = exterior_derivative(c4).matrix.toarray()
        assert np.array_equal(raising, d)
        assert np.array_equal(lowering, d.T)

    def test_zero_matrix(self, k3):
        basis = graded_basis(k3)
        parts = split_by_degree(np.zeros((7, 7)), basis)
        assert all(not p.any() for p in parts)

    def test_reassembly_exact(self, suite):
        rng = np.random.default_rng(4)
        c = suite["wheel4"]
        basis = graded_basis(c)
        n = len(basis)
        m = rng.standard_normal((n, n))
        m = m + m.T
        raising, middle, lowering = split_by_degree(m, basis)
        assert np.array_equal(raising + middle + lowering, m)
        assert np.array_equal(lowering, raising.T)

    def test_asymmetric_rejected(self, c4):
        basis = graded_basis(c4)
        m = np.zeros((8, 8))
        m[0, 1] = 1.0
        with pytest.raises(ContractViolationError):
            split_by_degree(m, basis)


class TestBracketField:
    def test_zero_is_fixed_point(self, c4):
        basis = graded_basis(c4)
        state = FlowState(np.zeros((8, 8)), 0.0, basis)
        assert not bracket_field(state).any()

    def test_single_vertex(self):
        c = downward_closure([{0}])
        state = FlowState(np.zeros((1, 1)), 0.0, graded_basis(c))
        assert bracket_field(state).tolist() == [[0.0]]

    def test_initial_field_symmetric_nonzero(self, c4):
        big_d = initial_dirac(c4)
        state = FlowState(big_d.to_dense(), 0.0, big_d.basis)
        field = bracket_field(state)
        assert field.any()
        assert np.max(np.abs(field - field.T)) < 1e-12
        raising, _, lowering = state.split()
        b = raising - lowering
        assert np.max(np.abs(b + b.T)) < 1e-12


class TestIntegrate:
    def test_zero_horizon(self, c4):
        big_d = initial_dirac(c4)
        states = integrate(big_d, 0.0, 0.01)
        assert len(states) == 1
        assert np.array_equal(states[0].matrix, big_d.to_dense())

    def test_isospectral_drift_small(self, suite):
        for name in ("cycle4", "simplex3"):
            big_d = initial_dirac(suite[name])
            states = integrate(big_d, 10.0, 0.01, sample_every=200)
            assert spectral_drift(states[0], states[-1]) < 1e-6, name

    def test_nilpotency_persists(self, c4):
        states = integrate(initial_dirac(c4), 1.0, 0.01, sample_every=10)
        assert max(s.raising_norm_squared() for s in states) < 1e-8

    def test_middle_part_grows(self, c4):
        states = integrate(initial_dirac(c4), 1.0, 0.01, sample_every=100)
        assert states[0].preserving_norm() == 0.0
        assert states[-1].preserving_norm() > 1e-3

    def test_symmetry_maintained(self, k3):
        for s in integrate(initial_dirac(k3), 2.0, 0.01, sample_every=50):
            assert np.max(np.abs(s.matrix - s.matrix.T)) < 1e-10

    def test_pure_vertex_complex_is_stationary(self):
        c = downward_closure([(0,), (1,), (2,)])
        states = integrate(initial_dirac(c), 1.0, 0.1)
        assert all(not s.matrix.any() for s in states)

    def test_trace_powers_conserved(self, suite):
        for name in ("cycle4", "simplex3"):
            states = integrate(initial_dirac(suite[name]), 2.0, 0.005,
                               sample_every=100)
            for m in (2, 3, 4):
                base = np.trace(np.linalg.matrix_power(states[0].matrix, m))
                for s in states:
                    tr = np.trace(np.linalg.matrix_power(s.matrix, m))
                    assert abs(tr - base) < 1e-7, (name, m)

    def test_invalid_steps_rejected(self, c4):
        big_d = initial_dirac(c4)
        with pytest.raises(InvalidInputError):
            integrate(big_d, 1.0, 0.0)
        with pytest.raises(InvalidInputError):
            integrate(big_d, -1.0, 0.1)

    def test_non_finite_steps_rejected(self, c4):
        big_d = initial_dirac(c4)
        for t_end, dt in ((1.0, float("nan")), (1.0, float("inf")),
                          (float("inf"), 0.1), (float("nan"), 0.1)):
            with pytest.raises(InvalidInputError):
                integrate(big_d, t_end, dt)

    def test_divergence_reports_last_state(self, c4):
        big_d = initial_dirac(c4)
        huge = FlowState(big_d.to_dense() * 1e200, 0.0, big_d.basis)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as info:
                integrate(huge, 1.0, 0.5)
        assert info.value.last_state is not None
        assert np.all(np.isfinite(info.value.last_state.matrix))


class TestSpectralDrift:
    def test_same_state_zero(self, c4):
        big_d = initial_dirac(c4)
        s = FlowState(big_d.to_dense(), 0.0, big_d.basis)
        assert spectral_drift(s, s) == 0.0

    def test_dimension_mismatch(self, c4, k3):
        a = initial_dirac(c4)
        b = initial_dirac(k3)
        with pytest.raises(InvalidInputError):
            spectral_drift(FlowState(a.to_dense(), 0.0, a.basis),
                           FlowState(b.to_dense(), 0.0, b.basis))

    def test_fourth_order_convergence(self, k3):
        big_d = initial_dirac(k3)
        drifts = []
        for dt in (0.2, 0.1):
            states = integrate(big_d, 5.0, dt, sample_every=10 ** 9)
            drifts.append(spectral_drift(states[0], states[-1]))
        ratio = drifts[0] / drifts[1]
        assert 8.0 <= ratio <= 32.0


class TestStokesProbe:
    def loop_data(self, c4):
        form = {(0,): 1.0, (1,): 2.0, (2,): -1.0, (3,): 0.5}
        loop = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): -1}
        return form, loop

    def test_closed_loop_vanishes_undeformed(self, c4):
        big_d = initial_dirac(c4)
        state = FlowState(big_d.to_dense(), 0.0, big_d.basis)
        form, loop = self.loop_data(c4)
        value, _ = deformed_stokes_probe(state, form, loop)
        assert abs(value) < 1e-12

    def test_deformed_value_reported(self, c4):
        states = integrate(initial_dirac(c4), 1.0, 0.01, sample_every=100)
        form, loop = self.loop_data(c4)
        value, reference = deformed_stokes_probe(states[-1], form, loop,
                                                 reference=states[0])
        assert np.isfinite(value)
        assert abs(reference) < 1e-12

    def test_zero_form_always_zero(self, c4):
        states = integrate(initial_dirac(c4), 0.5, 0.01, sample_every=50)
        _, loop = self.loop_data(c4)
        for s in states:
            value, _ = deformed_stokes_probe(s, {}, loop)
            assert value == 0.0


class TestCsvExport:
    def test_header_and_rows(self, c4):
        states = integrate(initial_dirac(c4), 0.2, 0.1)
        text = trajectory_to_csv(states)
        lines = text.strip().splitlines()
        assert lines[0].startswith("t,eig_0")
        assert lines[0].endswith("b_norm,d_squared_norm,drift")
        assert len(lines) == 1 + len(states)
        assert text.endswith("\n")
