"""Commutator-flow integration: splitting, isospectrality, convergence."""

import numpy as np
import pytest

from simhodge import (ContractViolationError, DivergenceError, FlowState,
                      InvalidInputError, ResourceLimitError,
                      barycentric_refinement, bracket_field,
                      deformed_stokes_probe, dirac, downward_closure,
                      exterior_derivative, generate, graded_basis, integrate,
                      spectral_drift, split_by_degree, trajectory_to_csv,
                      trajectory_to_json, whitney_complex)
from simhodge import lax


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

    @pytest.mark.parametrize("sample_every", [0, -1, -10, 1.5])
    def test_sample_every_must_be_positive_integer(self, c4, sample_every):
        with pytest.raises(InvalidInputError):
            integrate(initial_dirac(c4), 1.0, 0.1, sample_every=sample_every)

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


def two_product_field(x, basis):
    """The commutator [B, X] as written: B = raising - lowering, BX - XB."""
    raising, _, lowering = split_by_degree(x, basis)
    b = raising - lowering
    return b @ x - x @ b


def reference_rk4(m, basis, t_end, dt, sample_every):
    """Classical RK4 on the two-product field, sampled like integrate."""
    steps = int(round(t_end / dt))
    samples = [m]
    for i in range(1, steps + 1):
        k1 = two_product_field(m, basis)
        k2 = two_product_field(m + 0.5 * dt * k1, basis)
        k3 = two_product_field(m + 0.5 * dt * k2, basis)
        k4 = two_product_field(m + dt * k3, basis)
        m = m + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        m = 0.5 * (m + m.T)
        if i % sample_every == 0 or i == steps:
            samples.append(m)
    return samples


class TestKernel:
    def check_against_reference(self, c, t_end, dt, sample_every):
        big_d = initial_dirac(c)
        states = integrate(big_d, t_end, dt, sample_every=sample_every)
        expected = reference_rk4(big_d.to_dense(), big_d.basis, t_end, dt,
                                 sample_every)
        assert len(states) == len(expected)
        for s, m in zip(states, expected):
            assert np.array_equal(s.matrix, s.matrix.T)
            if m.size:
                assert np.max(np.abs(s.matrix - m)) <= 1e-12

    def test_matches_two_product_rk4_on_suite(self, suite):
        for c in suite.values():
            self.check_against_reference(c, 1.0, 0.05, 5)

    def test_matches_two_product_rk4_on_refined_octahedron(self):
        refined = barycentric_refinement(generate("octahedron"))
        self.check_against_reference(refined, 0.3, 0.01, 10)

    def test_bracket_field_matches_two_products(self, suite):
        for name in ("wheel6", "octahedron", "refined_simplex2"):
            big_d = initial_dirac(suite[name])
            for s in integrate(big_d, 0.5, 0.05, sample_every=5):
                field = bracket_field(s)
                assert np.array_equal(field, field.T), name
                expected = two_product_field(s.matrix, s.basis)
                assert np.max(np.abs(field - expected)) <= 1e-12, name


class TestClosedForm:
    """Symes: the flow at time t is Q^T D Q where exp(-tD) = QR.

    The two agree up to an orthogonal change of basis within each degree, so
    compare what that leaves fixed: singular values of each block between
    adjacent degrees and eigenvalues of each block within a degree."""

    @staticmethod
    def block_invariants(m, degrees):
        out = []
        for p in sorted(set(degrees)):
            rows = degrees == p
            out.append(np.linalg.eigvalsh(m[np.ix_(rows, rows)]))
            cols = degrees == p + 1
            if cols.any():
                out.append(np.linalg.svd(m[np.ix_(rows, cols)],
                                         compute_uv=False))
        return out

    @pytest.mark.parametrize("name", ["wheel6", "octahedron"])
    @pytest.mark.parametrize("t", [1.0, 3.0])
    def test_rk4_matches_qr_closed_form(self, suite, name, t):
        from scipy.linalg import expm, qr

        big_d = initial_dirac(suite[name])
        d0 = big_d.to_dense()
        q, _ = qr(expm(-t * d0))
        closed = q.T @ d0 @ q
        flowed = integrate(big_d, t, 0.01, sample_every=10 ** 9)[-1].matrix
        degrees = np.asarray(big_d.basis.degrees)
        for a, b in zip(self.block_invariants(flowed, degrees),
                        self.block_invariants(closed, degrees)):
            assert np.max(np.abs(a - b), initial=0.0) <= 1e-7, (name, t)


class TestBudget:
    @pytest.fixture()
    def no_steps(self, monkeypatch):
        def step(*args):
            raise AssertionError("a step ran before the budget was checked")
        monkeypatch.setattr(lax, "_rk4_step", step)

    @pytest.mark.parametrize("t_end, dt", [(1e12, 1e-3), (1e300, 1e-300)])
    def test_too_many_steps_refused(self, c4, no_steps, t_end, dt):
        with pytest.raises(ResourceLimitError):
            integrate(initial_dirac(c4), t_end, dt)

    def test_too_many_sampled_bytes_refused(self, c4, no_steps):
        # 600,000 steps of an 8 x 8 flow are cheap, but keeping every state
        # would need about 307 MB
        with pytest.raises(ResourceLimitError):
            integrate(initial_dirac(c4), 6000.0, 0.01, sample_every=1)

    def test_refined_octahedron_long_horizon_refused(self, no_steps):
        refined = barycentric_refinement(generate("octahedron"))
        with pytest.raises(ResourceLimitError):
            integrate(initial_dirac(refined), 1000.0, 0.01, sample_every=10)

    def test_benchmark_sized_flow_is_far_inside(self):
        # lax --t-end 10 --dt 0.01 on the refined octahedron: 1000 steps of
        # a 146 x 146 flow, 101 sampled states
        assert 10 * 1000 * 146 ** 3 <= lax.MAX_FLOW_WORK
        assert 10 * 101 * 146 ** 2 * 8 <= lax.MAX_TRAJECTORY_BYTES


class TestDiagnostics:
    def test_json_and_csv_share_one_eigensolve_per_state(self, c4,
                                                        monkeypatch):
        states = integrate(initial_dirac(c4), 0.5, 0.1)
        calls = []
        original = FlowState.eigenvalues

        def counting(self):
            calls.append(self.t)
            return original(self)

        monkeypatch.setattr(FlowState, "eigenvalues", counting)
        rows = trajectory_to_json(states)["states"]
        assert len(calls) == len(states)
        assert rows[-1]["drift"] == spectral_drift(states[0], states[-1])
        assert [r["b_norm"] for r in rows] == [s.preserving_norm()
                                               for s in states]
        assert [r["d_squared_norm"] for r in rows] == [
            s.raising_norm_squared() for s in states]
        calls.clear()
        trajectory_to_csv(states)
        assert len(calls) == len(states)

    def test_empty_trajectory(self):
        assert trajectory_to_json([]) == {"states": []}
        assert trajectory_to_csv([]) == ""
