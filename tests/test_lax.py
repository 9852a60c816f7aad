"""Commutator-flow integration: splitting, isospectrality, convergence."""

import json
import warnings

import numpy as np
import pytest
from conftest import (reference_rk4, spectral_drift, split_by_degree,
                      two_product_field)
from hypothesis import given, settings
from hypothesis import strategies as st

from simhodge import (ContractViolationError, InvalidInputError,
                      ResourceLimitError, barycentric_refinement,
                      bracket_field, dirac, downward_closure,
                      exterior_derivative, generate, graded_basis, integrate,
                      trajectory_to_csv, trajectory_to_json)
from simhodge import budget, lax, spectral
from simhodge.cli import main
from simhodge.io import parse_facets, serialize_facets
from simhodge.operators import GradedBasis, GradedOperator


def initial_dirac(c):
    return dirac(exterior_derivative(c))


def with_entry(c, row, col):
    """d of c plus 1 at (row, col): an integer start whose grading the flow
    refuses unless basis element ``row`` is one degree above ``col``."""
    d = exterior_derivative(c)
    m = d.matrix.toarray()
    m[row, col] += 1
    return GradedOperator(m, d.basis)


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
        assert not bracket_field(np.zeros((8, 8)), graded_basis(c4)).any()

    def test_single_vertex(self):
        c = downward_closure([{0}])
        assert bracket_field(np.zeros((1, 1)), graded_basis(c)).tolist() == [[0.0]]

    def test_initial_field_symmetric_nonzero(self, c4):
        big_d = initial_dirac(c4)
        m = big_d.to_dense()
        field = bracket_field(m, big_d.basis)
        assert field.any()
        assert np.max(np.abs(field - field.T)) < 1e-12
        raising, _, lowering = split_by_degree(m, big_d.basis)
        b = raising - lowering
        assert np.max(np.abs(b + b.T)) < 1e-12

    def test_non_finite_entry_refused(self, c4):
        big_d = initial_dirac(c4)
        m = big_d.to_dense()
        m[0, 4] = m[4, 0] = np.nan
        with pytest.raises(InvalidInputError, match="non-finite entry"):
            bracket_field(m, big_d.basis)


def out_of_band(m, degrees):
    """The entries of m between degrees more than one apart."""
    return m[np.abs(degrees[:, None] - degrees[None, :]) > 1]


class TestBandContract:
    """The flow is defined on the band of adjacent degrees; an entry between
    degrees two or more apart is refused, never silently dropped: in a
    start d as a grading refusal, in a float matrix as invalid input."""

    def test_entry_between_degrees_zero_and_two_refused(self, k3):
        # a vertex and the triangle
        with pytest.raises(ContractViolationError,
                           match="from degree 0 to degree 2;"):
            integrate(with_entry(k3, 6, 0), 1.0, 0.1)
        big_d = initial_dirac(k3)
        m = big_d.matrix.toarray()
        m[0, 6] = m[6, 0] = 1
        with pytest.raises(InvalidInputError):
            bracket_field(m, big_d.basis)

    def test_empty_middle_degree(self):
        basis = GradedBasis(["a", "b", "x", "y", "z"], [0, 0, 2, 2, 2])
        assert basis.dims == (2, 0, 3)
        m = np.diag([1, 2, 3, 4, 5])
        m[0, 1] = m[1, 0] = 1
        m[3, 4] = m[4, 3] = -2
        # with no raising block the field is zero
        assert not bracket_field(m, basis).any()
        # with degree 1 empty, every entry of a start d is off its grade
        for (row, col), degrees in (((1, 0), "0 to degree 0"),
                                    ((2, 1), "0 to degree 2")):
            d = np.zeros((5, 5), dtype=int)
            d[row, col] = 1
            with pytest.raises(ContractViolationError,
                               match=f"from degree {degrees};"):
                integrate(GradedOperator(d, basis), 1.0, 0.1)
        m[1, 2] = m[2, 1] = 1  # degree 0 to degree 2
        with pytest.raises(InvalidInputError, match="between degree 2"):
            bracket_field(m, basis)

    def test_flowed_states_are_zero_outside_the_band(self, suite):
        d = exterior_derivative(suite["simplex5"])
        degrees = np.asarray(d.basis.degrees)
        for s in integrate(d, 1.0, 0.05, sample_every=5):
            assert np.array_equal(s.matrix, s.matrix.T)
            assert not out_of_band(s.matrix, degrees).any()
            field = bracket_field(s.matrix, s.basis)
            assert np.array_equal(field, field.T)
            assert not out_of_band(field, degrees).any()


class TestIntegrate:
    def test_zero_horizon(self, c4):
        d = exterior_derivative(c4)
        states = integrate(d, 0.0, 0.01)
        assert len(states) == 1 and states[0].t == 0.0
        assert np.max(np.abs(states[0].matrix - dirac(d).to_dense())) <= lax.FRAME_TOL

    def test_isospectral_drift_small(self, suite):
        for name in ("cycle4", "simplex3"):
            states = integrate(exterior_derivative(suite[name]), 10.0, 0.01,
                               sample_every=200)
            assert spectral_drift(states[0].eigenvalues(),
                                  states[-1].eigenvalues()) < 1e-6, name

    def test_nilpotency_persists(self, c4):
        states = integrate(exterior_derivative(c4), 1.0, 0.01, sample_every=10)
        assert max(s.raising_norm_squared() for s in states) < 1e-8

    def test_middle_part_grows(self, c4):
        states = integrate(exterior_derivative(c4), 1.0, 0.01, sample_every=100)
        assert states[0].preserving_norm() == 0.0
        assert states[-1].preserving_norm() > 1e-3

    def test_symmetry_maintained(self, k3):
        for s in integrate(exterior_derivative(k3), 2.0, 0.01, sample_every=50):
            assert np.max(np.abs(s.matrix - s.matrix.T)) < 1e-10

    def test_pure_vertex_complex_is_stationary(self):
        c = downward_closure([(0,), (1,), (2,)])
        states = integrate(exterior_derivative(c), 1.0, 0.1)
        assert all(not s.matrix.any() for s in states)

    def test_trace_powers_conserved(self, suite):
        for name in ("cycle4", "simplex3"):
            states = integrate(exterior_derivative(suite[name]), 2.0, 0.005,
                               sample_every=100)
            for m in (2, 3, 4):
                base = np.trace(np.linalg.matrix_power(states[0].matrix, m))
                for s in states:
                    tr = np.trace(np.linalg.matrix_power(s.matrix, m))
                    assert abs(tr - base) < 1e-7, (name, m)

    def test_invalid_steps_rejected(self, c4):
        d = exterior_derivative(c4)
        with pytest.raises(InvalidInputError):
            integrate(d, 1.0, 0.0)
        with pytest.raises(InvalidInputError):
            integrate(d, -1.0, 0.1)

    def test_non_finite_steps_rejected(self, c4):
        d = exterior_derivative(c4)
        for t_end, dt in ((1.0, float("nan")), (1.0, float("inf")),
                          (float("inf"), 0.1), (float("nan"), 0.1)):
            with pytest.raises(InvalidInputError):
                integrate(d, t_end, dt)

    def test_last_sample_is_t_end(self, c4):
        # 3 * 0.1 and 7 * 0.1 round one ulp past 0.3 and 0.7; 0.25 is not
        # reached by whole steps of 0.1, so its last sample stays at 0.2
        d = exterior_derivative(c4)
        for t_end, times in ((0.3, [0.0, 0.1, 0.2, 0.3]),
                             (0.7, [0.0, 0.5, 0.7]), (0.25, [0.0, 0.1, 0.2])):
            sample_every = 5 if t_end == 0.7 else 1
            states = integrate(d, t_end, 0.1, sample_every)
            assert [s.t for s in states] == times, t_end
        last = states[-1]
        assert np.array_equal(last.triples, last.frame.triples(last.t))

    @pytest.mark.parametrize("sample_every", [0, -1, -10, 1.5])
    def test_sample_every_must_be_positive_integer(self, c4, sample_every):
        with pytest.raises(InvalidInputError):
            integrate(exterior_derivative(c4), 1.0, 0.1, sample_every=sample_every)


class TestSpectralDrift:
    def test_same_state_zero(self, c4):
        s = integrate(exterior_derivative(c4), 1.0, 0.1)[-1]
        assert spectral_drift(s.eigenvalues(), s.eigenvalues()) == 0.0

    def test_dimension_mismatch(self, c4, k3):
        a, b = (integrate(exterior_derivative(c), 0.0, 0.1)[0] for c in (c4, k3))
        with pytest.raises(InvalidInputError):
            spectral_drift(a.eigenvalues(), b.eigenvalues())

    def test_fourth_order_convergence(self, k3):
        # the spectrum of the closed form's end state, from its triples,
        # against that of the oracle's RK4; measured: 1.5e-3 and 6.4e-5,
        # ratio 24.0
        d = exterior_derivative(k3)
        big_d = dirac(d)
        drifts = []
        for dt in (0.2, 0.1):
            exact = integrate(d, 5.0, dt, sample_every=10 ** 9)[-1]
            rk4 = reference_rk4(big_d.to_dense(), big_d.basis, 5.0, dt,
                                10 ** 9)[-1]
            drifts.append(spectral_drift(exact.eigenvalues(),
                                         np.linalg.eigvalsh(rk4)))
        ratio = drifts[0] / drifts[1]
        assert 8.0 <= ratio <= 32.0


class TestCsvExport:
    def test_header_and_rows(self, c4):
        states = integrate(exterior_derivative(c4), 0.2, 0.1)
        text = trajectory_to_csv(states)
        lines = text.strip().splitlines()
        assert lines[0].startswith("t,eig_0")
        assert lines[0].endswith("b_norm,d_squared_norm,drift")
        assert len(lines) == 1 + len(states)
        assert text.endswith("\n")


def block_field(x, basis):
    """The same commutator as Q + Q^T + 2 (R R^T - R^T R), Q = RM - MR, whose
    terms have no entry between degrees more than one apart."""
    r, m, _ = split_by_degree(x, basis)
    q = r @ m - m @ r
    return q + q.T + 2.0 * (r @ r.T - r.T @ r)


class TestKernel:
    """The flow against RK4 of the commutator as written: the closed form
    on every suite complex, and ``bracket_field``, the Lax field it solves,
    on the flowed states."""

    def test_matches_two_product_rk4_on_suite(self, suite):
        # measured: at most 8.1e-5 over the suite, on refined_simplex3
        for name, c in suite.items():
            d = exterior_derivative(c)
            big_d = dirac(d)
            states = integrate(d, 1.0, 0.05, sample_every=5)
            expected = reference_rk4(big_d.to_dense(), big_d.basis, 1.0, 0.05, 5)
            assert len(states) == len(expected), name
            for s, m in zip(states, expected):
                assert np.array_equal(s.matrix, s.matrix.T), name
                assert np.max(np.abs(s.matrix - m), initial=0.0) <= 2e-4, name

    def test_bracket_field_matches_two_products(self, suite):
        cases = dict(suite, empty=downward_closure([]))
        for name, c in cases.items():
            for s in integrate(exterior_derivative(c), 0.5, 0.05,
                               sample_every=5):
                field = bracket_field(s.matrix, s.basis)
                assert np.array_equal(field, field.T), name
                expected = two_product_field(s.matrix, s.basis)
                assert field.shape == expected.shape, name
                if field.size:
                    assert np.max(np.abs(field - expected)) <= 1e-12, name


@st.composite
def band_matrices(draw):
    """A random symmetric matrix with entries only within a degree and
    between adjacent degrees, over random degree widths (0 and 1 included)."""
    dims = draw(st.lists(st.integers(0, 4), min_size=1, max_size=5))
    degrees = [k for k, w in enumerate(dims) for _ in range(w)]
    basis = GradedBasis(list(range(len(degrees))), degrees)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = rng.standard_normal((len(degrees), len(degrees)))
    deg = np.asarray(degrees)
    m[np.abs(deg[:, None] - deg[None, :]) > 1] = 0.0
    return np.triu(m) + np.triu(m, 1).T, basis


@settings(max_examples=80)
@given(band_matrices())
def test_band_field_matches_dense_products(band):
    m, basis = band
    field = bracket_field(m, basis)
    assert np.array_equal(field, field.T)
    assert not out_of_band(field, np.asarray(basis.degrees)).any()
    for expected in (two_product_field(m, basis), block_field(m, basis)):
        assert np.max(np.abs(field - expected), initial=0.0) <= 1e-12


class FieldEvaluated(Exception):
    pass


@pytest.fixture()
def no_field(monkeypatch):
    def refuse(*args):
        raise FieldEvaluated
    monkeypatch.setattr(lax, "bracket_field", refuse)


def signed_relabeling(basis, seed):
    """A seeded signed permutation matrix that keeps every degree."""
    rng = np.random.default_rng(seed)
    n = len(basis)
    perm = np.arange(n)
    for k in range(len(basis.dims)):
        s = basis.degree_slice(k)
        perm[s] = s.start + rng.permutation(s.stop - s.start)
    p = np.zeros((n, n))
    p[perm, np.arange(n)] = rng.choice([-1.0, 1.0], n)
    return p


class TestSingularFrame:
    """D = d + d* flows as the closed form of one 2 x 2 flow per singular
    pair of d; a d that is not graded and nilpotent, or whose frame misses
    FRAME_TOL, is refused before its first state."""

    def test_dirac_starts_never_build_the_band_kernel(self, suite, no_field):
        cases = dict(suite, empty=downward_closure([]))
        for name, c in cases.items():
            states = integrate(exterior_derivative(c), 0.2, 0.05, sample_every=2)
            assert len(states) == 3, name

    def test_dirac_starts_never_step(self, suite):
        # long paths spread sigma widely; their frames still pass FRAME_TOL,
        # else the flow would raise ContractViolationError
        cases = dict(suite, empty=downward_closure([]),
                     path200=generate("path", 200), path300=generate("path", 300))
        for name, c in cases.items():
            states = integrate(exterior_derivative(c), 2.0, 0.01, sample_every=10)
            assert [s.t for s in states] == [0.0] + [
                i * 0.01 for i in range(10, 201, 10)], name

    def test_other_starts_are_refused_before_any_state(self, c4, k3,
                                                        monkeypatch):
        grading = ("^d has an entry from degree {}; it must raise the degree "
                   "by exactly one$")
        off = [(with_entry(c4, 1, 0), grading.format("0 to degree 0")),
               (with_entry(k3, 6, 0), grading.format("0 to degree 2")),
               (initial_dirac(c4), grading.format("1 to degree 0"))]
        # graded, but R_1 R_0 != 0
        basis = GradedBasis(list(range(6)), [0, 0, 1, 1, 2, 2])
        r = np.zeros((6, 6), dtype=int)
        r[2:4, 0:2] = [[1, 2], [1, -1]]
        r[4:6, 2:4] = [[1, 0], [3, 1]]
        off.append((GradedOperator(r, basis), "^d is not nilpotent"))
        # sigma^2 = 1e8 and 1: the Gram solve of R_0 = diag(10^4, 1) does
        # not reproduce it to FRAME_TOL
        pair = GradedBasis(list(range(4)), [0, 0, 1, 1])
        r = np.zeros((4, 4), dtype=int)
        r[2:4, 0:2] = np.diag([10 ** 4, 1])
        off.append((GradedOperator(r, pair), (
            "^the singular frame of the Dirac start misses FRAME_TOL in "
            "degree 0$")))

        def never(*args):
            raise AssertionError("a state was made before the start was checked")
        monkeypatch.setattr(lax, "FlowState", never)
        for start, message in off:
            for t_end in (0.1, 0.0):  # refused at any horizon
                with pytest.raises(ContractViolationError, match=message):
                    integrate(start, t_end, 0.05)

    @pytest.mark.parametrize("part, degree", [("u", 1), ("v", 0),
                                              ("overlap", 1)])
    def test_frame_is_checked_block_by_block(self, k3, monkeypatch, part,
                                             degree):
        """A frame that reproduces every d_k but whose U_0 or V_0 is not
        orthonormal, or whose cross term V_1^T U_0 is not zero, is refused
        in the degree those columns span."""
        solve, init = lax.singular_frame, lax._Frame.__init__

        def scaled(*args, **kwargs):
            (w, u, v), *rest = solve(*args, **kwargs)
            if part == "u":
                return [(w / 4, 2 * u, v), *rest]
            if part == "v":
                return [(w / 4, u, 2 * v), *rest]
            return [(w, u, v), *rest]

        def crossed(frame, *args):
            init(frame, *args)
            frame.overlaps[0] = frame.overlaps[0] + 1e-20  # a cross term of 1e-10

        monkeypatch.setattr(lax, "singular_frame", scaled)
        if part == "overlap":
            monkeypatch.setattr(lax._Frame, "__init__", crossed)
        with pytest.raises(ContractViolationError,
                           match=f"misses FRAME_TOL in degree {degree}$"):
            integrate(exterior_derivative(k3), 0.1, 0.05)

    def test_only_an_integer_operator_starts_a_flow(self, suite,
                                                    monkeypatch):
        # a flowed state, or a float state of the same matrix, is refused
        # before the flow is charged
        d = exterior_derivative(suite["octahedron"])
        run = integrate(d, 2.0, 0.05, sample_every=4)

        def never(*args):
            raise AssertionError("a float start was charged")
        monkeypatch.setattr(lax, "flow_steps", never)
        for start in (run[5], run[0]):
            with pytest.raises(InvalidInputError, match=(
                    "^the flow starts from an integer derivative, not a "
                    "FlowState$")):
                integrate(start, 1.0, 0.05)
        with pytest.raises(InvalidInputError, match="not a ndarray$"):
            integrate(d.to_dense(), 1.0, 0.05)

    def test_frame_is_the_spectral_singular_frame(self, monkeypatch):
        # one routine solves d's frame for the flow and for
        # hodge_eigenvectors, one call each, with equal arrays
        assert lax.singular_frame is spectral.singular_frame
        original, frames = spectral.singular_frame, []

        def recording(*args, **kwargs):
            frames.append(original(*args, **kwargs))
            return frames[-1]
        monkeypatch.setattr(lax, "singular_frame", recording)
        monkeypatch.setattr(spectral, "singular_frame", recording)
        d = exterior_derivative(barycentric_refinement(generate("octahedron")))
        frame = integrate(d, 1.0, 0.1)[-1].frame
        assert len(frames) == 1 and frame.blocks is frames[0]
        vectors = spectral.hodge_eigenvectors(d)
        assert len(frames) == 2
        for ours, theirs in zip(*frames):
            assert all(map(np.array_equal, ours, theirs))
        for (w, x), (v, y) in zip(spectral.degree_frames(frame.blocks,
                                                         d.basis.dims), vectors):
            assert np.array_equal(w, v) and np.array_equal(x, y)

    def test_zero_singular_pairs(self, no_field):
        starts = [exterior_derivative(downward_closure(f))
                  for f in ([], [{0}], [(0,), (1,), (2,)])]
        basis = GradedBasis(["a", "b", "x", "y", "z"], [0, 0, 2, 2, 2])
        starts.append(GradedOperator(np.zeros((5, 5), dtype=int), basis))
        for start in starts:
            n = len(start.basis)
            states = integrate(start, 1.0, 0.1, sample_every=5)
            assert [s.t for s in states] == [0.0, 0.5, 1.0]
            assert all(s.matrix.shape == (n, n) and not s.matrix.any()
                       for s in states)

    def test_signed_relabeling_within_degrees(self):
        # measured: at most 3.6e-15 at every sampled state up to t = 10
        refined = barycentric_refinement(generate("octahedron"))
        d = exterior_derivative(refined)
        basis = d.basis
        p = signed_relabeling(basis, 15)
        states = integrate(d, 10.0, 0.01, sample_every=100)
        relabeled = integrate(GradedOperator(p.T @ d.to_dense() @ p, basis),
                              10.0, 0.01, sample_every=100)
        assert len(states) == len(relabeled) == 11
        for s, r in zip(states, relabeled):
            assert np.max(np.abs(s.matrix - p @ r.matrix @ p.T)) <= 1e-12, s.t


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
        # measured, the frame's closed form: 1.8e-15 and 4.0e-14 on wheel6,
        # 6.7e-15 and 5.8e-11 on the octahedron at t = 1 and 3; the QR of
        # expm(-tD), whose entries span e^(+-t sigma_max), carries that
        # rounding.  The oracle's RK4 at dt = 0.01 is within 1e-7.
        from scipy.linalg import expm, qr

        d = exterior_derivative(suite[name])
        big_d = dirac(d)
        d0 = big_d.to_dense()
        q, _ = qr(expm(-t * d0))
        closed = q.T @ d0 @ q
        degrees = np.asarray(big_d.basis.degrees)
        frame = integrate(d, t, 0.01, sample_every=10 ** 9)[-1].matrix
        rk4 = reference_rk4(d0, big_d.basis, t, 0.01, 10 ** 9)[-1]
        for flowed, tol in ((frame, 1e-9), (rk4, 1e-7)):
            for a, b in zip(self.block_invariants(flowed, degrees),
                            self.block_invariants(closed, degrees)):
                assert np.max(np.abs(a - b), initial=0.0) <= tol, (name, t)


class TestBudget:
    @pytest.fixture()
    def no_dense_copy(self, monkeypatch):
        # the frame solve follows the charge, and no dense D is ever built
        def never(*args, **kwargs):
            raise AssertionError("flow work ran before the budget was checked")
        monkeypatch.setattr(lax, "singular_frame", never)
        monkeypatch.setattr(lax.GradedOperator, "to_dense", never)

    @pytest.mark.parametrize("t_end, dt", [(1e12, 1e-3), (1e300, 1e-300)])
    def test_too_many_steps_refused(self, c4, no_dense_copy, t_end, dt):
        with pytest.raises(ResourceLimitError):
            integrate(exterior_derivative(c4), t_end, dt)

    def test_too_many_sampled_bytes_refused(self, c4, no_dense_copy):
        # 600,000 steps of an 8 x 8 flow cost nothing in the closed form, but
        # keeping and reporting every state would need about 1.4 GB
        with pytest.raises(ResourceLimitError, match=" sampled states of size 8 "):
            integrate(exterior_derivative(c4), 6000.0, 0.01, sample_every=1)

    def test_refined_octahedron_long_horizon_refused(self, no_dense_copy):
        # 100,000 steps of a 146 x 146 flow; their 1001 reported states would
        # fit, but reporting every one would need about 1.7 GB
        d = exterior_derivative(barycentric_refinement(generate("octahedron")))
        assert d.basis.dims == self.refined
        assert lax.flow_steps(self.refined, 1000.0, 0.01, 100) == 100000
        with pytest.raises(ResourceLimitError, match=(
                "^100001 sampled states of size 146 need 1732817328 bytes, "
                "limit is 268435456$")):
            integrate(d, 1000.0, 0.01, sample_every=1)

    def test_a_start_wider_than_the_frame_limit_refused(self, no_dense_copy):
        # the frame's width limit bounds a flow's work: a 4096-vertex path
        # fits, and the 4100 vertices of a longer one are refused before its
        # frame is solved
        assert lax.flow_steps((4096, 4095), 1.0, 0.01, 1) == 100
        with pytest.raises(ResourceLimitError, match=(
                "^degree-0 block is 4100 wide for a dense eigensolve, "
                "limit is 4096$")):
            integrate(exterior_derivative(generate("path", 4100)), 1.0, 0.01)

    # degree widths of the refined octahedron: each sampled state is charged
    # min(26, 72) + min(72, 48) = 74 singular pairs, where its Dirac start
    # has 72
    refined = (26, 72, 48)

    def test_frame_flow_charged_by_its_pairs(self):
        # lax --t-end 500 --dt 0.01: 5001 reported states of 146 eigenvalues
        assert lax.flow_steps(self.refined, 500.0, 0.01, 10) == 50000
        # lax --t-end 15000 --dt 0.1 is cheap in the frame, but its 150001
        # report rows would need about 2.6 GB
        with pytest.raises(ResourceLimitError, match=(
                "^150001 sampled states of size 146 need 2599217328 bytes, "
                "limit is 268435456$")):
            lax.flow_steps(self.refined, 15000.0, 0.1, 1)

    def test_largest_admitted_run_on_the_refined_octahedron(self):
        # lax --t-end 1549 --dt 0.1 samples 15491 states and fits; 1550
        # samples 15501, and the 74 pairs charged a state push it over
        assert lax.flow_steps(self.refined, 1549.0, 0.1, 1) == 15490
        with pytest.raises(ResourceLimitError, match=(
                "^15501 sampled states of size 146 need 268601328 bytes, "
                "limit is 268435456$")):
            lax.flow_steps(self.refined, 1550.0, 0.1, 1)

    def test_benchmark_sized_flow_is_far_inside(self, monkeypatch):
        # lax --t-end 10 --dt 0.01 on the refined octahedron: 1000 steps of
        # a 146 x 146 flow, 101 sampled states; ten times as long fits
        assert lax.flow_steps(self.refined, 100.0, 0.01, 10) == 10000
        # the benchmark's lax ops, that run and lax on wheel6 (degree widths
        # 7, 12 and 6, the default --t-end 1 --dt 0.01), fit a tenth of the
        # trajectory budget
        monkeypatch.setattr(budget, "MAX_TRAJECTORY_BYTES",
                            budget.MAX_TRAJECTORY_BYTES // 10)
        assert lax.flow_steps(self.refined, 10.0, 0.01, 10) == 1000
        assert lax.flow_steps((7, 12, 6), 1.0, 0.01, 10) == 100

    def test_csv_rows_charged_what_csv_costs(self):
        # lax --t-end 2000 --dt 0.1 --out x.csv on the refined octahedron:
        # 20001 states peak at 205 MiB as a process; their JSON report rows
        # are charged 347 MB
        csv_row = lax.report_row_bytes(146, csv=True)
        assert csv_row == lax.CSV_ROW_BYTES + 146 * lax.CSV_VALUE_BYTES
        assert lax.flow_steps(self.refined, 2000.0, 0.1, 1,
                              row_bytes=csv_row) == 20000
        with pytest.raises(ResourceLimitError, match=(
                "^20001 sampled states of size 146 need 346577328 bytes, "
                "limit is 268435456$")):
            lax.flow_steps(self.refined, 2000.0, 0.1, 1)


class TestDiagnostics:
    def test_json_and_csv_share_one_eigensolve_per_state(self, c4,
                                                        monkeypatch):
        # each writer takes the spectra of all states in one call on the
        # stack of their triples (c4: 3 singular pairs), and its rows are
        # those of each state alone
        states = integrate(exterior_derivative(c4), 0.5, 0.1)
        calls = []
        spectrum = lax._Frame.spectrum

        def counting(frame, stack):
            calls.append(stack.shape)
            return spectrum(frame, stack)

        monkeypatch.setattr(lax._Frame, "spectrum", counting)
        trajectory = trajectory_to_json(states)
        assert calls == [(len(states), 9)]
        rows = trajectory["states"]
        assert [r["eigenvalues"] for r in rows] == [
            s.eigenvalues().tolist() for s in states]
        assert rows[-1]["drift"] == spectral_drift(states[0].eigenvalues(),
                                                   states[-1].eigenvalues())
        assert [r["b_norm"] for r in rows] == [s.preserving_norm()
                                               for s in states]
        assert [r["d_squared_norm"] for r in rows] == [
            s.raising_norm_squared() for s in states]
        assert 0.0 <= trajectory["moment_residual"] <= spectral.TRACE_TOL
        calls.clear()
        trajectory_to_csv(states)
        assert len(calls) == 1

    def test_empty_trajectory(self):
        assert trajectory_to_json([]) == {"states": [], "moment_residual": 0.0}
        assert trajectory_to_csv([]) == ""


def dense_row(m, basis):
    """(spectrum, ||M||_F, ||R^2||_F) of a dense state, the oracle of a
    diagnostics row."""
    raising, middle, _ = split_by_degree(m, basis)
    eigs = np.linalg.eigvalsh(m) if m.size else np.zeros(0)
    return eigs, np.linalg.norm(middle), np.linalg.norm(raising @ raising)


class TestFrameDiagnostics:
    """A state's spectrum and norms come from its (a, c, s) triples; they
    agree with the same row recomputed from its dense matrix."""

    @staticmethod
    def check_rows(c):
        states = integrate(exterior_derivative(c), 2.0, 0.05, sample_every=4)
        for s in states:
            assert s._matrix is None
            eigs, middle, square = dense_row(s.matrix, s.basis)
            scale = max(np.max(np.abs(eigs), initial=0.0), 1.0)
            assert np.max(np.abs(s.eigenvalues() - eigs),
                          initial=0.0) <= 1e-12 * scale, s.t
            assert abs(s.preserving_norm() - middle) <= 1e-12 * scale, s.t
            assert abs(s.raising_norm_squared() - square) <= 1e-12 * scale ** 2, s.t

    def test_frame_rows_match_dense_rows_on_suite(self, suite):
        cases = dict(suite, empty=downward_closure([]))
        for c in cases.values():
            self.check_rows(c)

    def test_frame_rows_match_dense_rows_on_refined_octahedron(self):
        self.check_rows(barycentric_refinement(generate("octahedron")))

    def test_matrix_written_once_on_first_read(self, c4):
        states = integrate(exterior_derivative(c4), 0.2, 0.1)
        last = states[-1]
        assert last._matrix is None
        assert last.matrix is last.matrix
        assert np.array_equal(last.matrix, last.frame.to_dense(last.triples))

    def test_frame_norms_are_not_structural(self):
        # R_(k+1) R_k is zero in exact arithmetic; the frame keeps the
        # rounding of C_k = V_(k+1)^T U_k instead of a structural 0
        refined = barycentric_refinement(generate("octahedron"))
        state = integrate(exterior_derivative(refined), 1.0, 0.1)[-1]
        assert 0.0 < state.raising_norm_squared() < 1e-12


MOMENT_CASES = {"triangle": "1 2 3\n",
                "octahedron": serialize_facets(generate("octahedron")),
                "refined": serialize_facets(
                    barycentric_refinement(generate("octahedron")))}


def lax_results(tmp_path, capsys, text, *flags):
    (tmp_path / "c.txt").write_text(text)
    assert main(["lax", "--input", str(tmp_path / "c.txt"), *flags]) == 0
    return json.loads(capsys.readouterr().out)["results"]


class TestMomentCheck:
    """``isospectral_within_tolerance`` compares each row's spectrum with
    the exact tr D^2 and tr D^4 of d, so a wrong frame fails it even though
    its rows agree with one another."""

    @pytest.mark.parametrize("name", MOMENT_CASES)
    def test_scaled_sigma_fails_the_isospectral_check(self, tmp_path, capsys,
                                                      monkeypatch, name):
        results = lax_results(tmp_path, capsys, MOMENT_CASES[name])
        assert results["isospectral_within_tolerance"] is True
        init = lax._Frame.__init__

        def scaled(frame, *args):
            init(frame, *args)
            frame.sigma[np.argmax(frame.sigma)] *= 1 + 1e-6

        monkeypatch.setattr(lax._Frame, "__init__", scaled)
        results = lax_results(tmp_path, capsys, MOMENT_CASES[name])
        assert results["isospectral_within_tolerance"] is False

    def test_first_state_is_d_at_time_zero(self, tmp_path, capsys):
        # the t = 0 row is the frame at tau = 0: its spectrum is that of the
        # dense D, and its written matrix is D to the frame's tolerance
        for name, text in MOMENT_CASES.items():
            d = exterior_derivative(parse_facets(text))
            dense = dirac(d).to_dense()
            first = integrate(d, 0.0, 0.1)[0]
            assert np.max(np.abs(first.eigenvalues()
                                 - np.linalg.eigvalsh(dense))) <= 1e-12, name
            results = lax_results(tmp_path, capsys, text, "--t-end", "0.1",
                                  "--dt", "0.1", "--matrices")
            matrix = np.array(results["trajectory"]["states"][0]["matrix"])
            assert np.max(np.abs(matrix - dense)) <= lax.FRAME_TOL * np.max(
                np.abs(d.to_dense())), name
            assert results["moment_residual"] <= spectral.TRACE_TOL, name


class TestClosedFormError:
    """a = -sigma tanh(2 sigma tau), c = -a, s = sigma sech(2 sigma tau)
    against its oracle, RK4 of the commutator as written (``reference_rk4``):
    within O(dt^4) of the closed-form states."""

    @staticmethod
    def rk4_error(c, t_end, dt, sample_every):
        """Largest entry of the oracle's RK4 - the closed form over the
        sampled states."""
        d = exterior_derivative(c)
        big_d = dirac(d)
        exact = integrate(d, t_end, dt, sample_every=sample_every)
        rk4 = reference_rk4(big_d.to_dense(), big_d.basis, t_end, dt,
                            sample_every)
        assert len(rk4) == len(exact) and exact[-1].frame is not None
        return max(lax._max_abs(r - e.matrix) for r, e in zip(rk4, exact))

    def test_refined_octahedron_at_the_benchmark_step(self):
        # measured: 3.6e-7 over t <= 1, early on the largest singular value
        # 3.28
        refined = barycentric_refinement(generate("octahedron"))
        error = self.rk4_error(refined, 1.0, 0.01, 10)
        assert 0.0 < error < 1e-6

    def test_fourth_order_in_dt(self, suite):
        # measured at t = 5: 1.5e-3 and 6.4e-5, ratio 24.0
        errors = [self.rk4_error(suite["simplex3"], 5.0, dt, 10 ** 9)
                  for dt in (0.2, 0.1)]
        assert 8.0 <= errors[0] / errors[1] <= 32.0

    def test_no_overflow_at_large_times(self, c4):
        state = integrate(exterior_derivative(c4), 0.2, 0.1)[-1]
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                triples = state.frame.triples(1e6)
        # the exact triples there are (-sigma, sigma, 0)
        sigma = state.frame.sigma
        assert np.array_equal(triples, np.concatenate(
            [-sigma, sigma, np.zeros(sigma.size)]))

    def test_none_without_a_frame_state(self, c4):
        # every state is a frame state, the first one too: at time 0 its
        # triples are (0, 0, sigma), at any horizon
        d = exterior_derivative(c4)
        for states in (integrate(d, 0.2, 0.1), integrate(d, 0.0, 0.1)):
            first, sigma = states[0], states[0].frame.sigma
            assert first.t == 0.0 and sigma.size == 3
            assert np.array_equal(first.triples, np.concatenate(
                [np.zeros(2 * sigma.size), sigma]))
            assert all(np.array_equal(s.triples, s.frame.triples(s.t))
                       for s in states)
