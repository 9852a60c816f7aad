"""Betti numbers, spectra, heat traces, supersymmetry, harmonic projectors."""

import numpy as np
import pytest
from scipy import sparse

from simhodge import (ContractViolationError, GradedBasis, GradedOperator,
                      InvalidInputError, ResourceLimitError,
                      barycentric_refinement, betti,
                      IntMatrix, cohomological_index, connection_derivative,
                      dirac, downward_closure, euler_characteristic,
                      exact_rank, exterior_derivative, generate, graded_basis,
                      harmonic_projector, heat_supertrace, hodge, hodge_spectra,
                      skeleton, spectrum_report, supersymmetry_check,
                      wu_characteristic)
from simhodge import spectral
from simhodge.operators import alternating_sum
from simhodge.spectral import (TRACE_TOL, hodge_traces, singular_frame,
                               swap_sectors)

from conftest import (as_scipy, check_clearing, check_tau_adapted,
                      dense_gram_values, full_hodge_spectra)


def de_rham_hodge(c):
    d = exterior_derivative(c)
    return d, hodge(dirac(d))


def de_rham_spectra(c):
    return hodge_spectra(exterior_derivative(c))


class TestBetti:
    def test_circle(self, c4):
        assert betti(exterior_derivative(c4)) == (1, 1)

    def test_disc(self, k3):
        assert betti(exterior_derivative(k3)) == (1, 0, 0)

    def test_skeleton_circle(self, k3):
        assert betti(exterior_derivative(skeleton(k3, 1))) == (1, 1)

    def test_octahedron_sphere(self):
        assert betti(exterior_derivative(generate("octahedron"))) == (1, 0, 1)

    def test_non_nilpotent_rejected(self):
        basis = GradedBasis([("a",), ("b",), ("c",)], [0, 1, 2])
        m = sparse.csr_array(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]]))
        with pytest.raises(ContractViolationError):
            betti(GradedOperator(m, basis, shift=1))

    @pytest.mark.parametrize("check", [betti, spectrum_report])
    def test_off_grade_entries_rejected(self, k3, check):
        # betti read only the blocks (k + 1, k): it gave (2,) to a nilpotent
        # d within degree 0, and (1, 0, 0) to a triangle's d plus an entry
        # from a vertex to the triangle
        within = GradedOperator(IntMatrix([1], [0], [1], (2, 2)),
                                GradedBasis(["a", "b"], [0, 0]), shift=1)
        d = exterior_derivative(k3).matrix
        skipping = GradedOperator(d + IntMatrix([6], [0], [1], d.shape),
                                  graded_basis(k3), shift=1)
        for broken, degrees in ((within, "0 to degree 0"),
                                (skipping, "0 to degree 2")):
            with pytest.raises(ContractViolationError,
                               match=f"^d has an entry from degree {degrees};"):
                check(broken)

    def test_invariant_under_refinement(self, suite):
        for name, c in suite.items():
            if len(c) <= 30:
                assert betti(exterior_derivative(barycentric_refinement(c))) == \
                    betti(exterior_derivative(c)), name

    def test_clearing_at_order_three(self, suite):
        for name, c in suite.items():
            check_clearing(connection_derivative(c, 3))

    def test_clearing_leaves_the_rows_at_pivot_columns_out(self):
        # d_1 of a triangle has its pivot in column 0, the edge (0, 1); d_0
        # without that edge's row keeps its rank 2
        d = exterior_derivative(downward_closure([(0, 1, 2)]))
        pivots = []
        assert exact_rank(d.block(2, 1), pivots=pivots) == 1 and pivots == [0]
        assert exact_rank(d.block(1, 0), skip=pivots) == 2
        assert exact_rank(np.eye(3, dtype=int), skip=[0, 2]) == 1

    def test_order_two_index_on_a_large_random_complex(self):
        # blocks up to 2194 wide: cheap only with sparse elimination
        c = generate("random", 16, seed=1, edge_prob=0.5)
        d = connection_derivative(c, 2)
        assert max(d.basis.dims) > 2000
        assert cohomological_index(betti(d)) == wu_characteristic(c, 2) \
            == d.basis.alternating_dimension_sum()


class TestSpectrum:
    def test_cycle_vertex_block(self, c4):
        assert np.allclose(de_rham_spectra(c4)[0], [0, 2, 2, 4], atol=1e-9)

    def test_single_vertex(self):
        assert de_rham_spectra(downward_closure([{0}]))[0].tolist() == [0.0]

    def test_counts_match_block_dimension(self, suite):
        d = exterior_derivative(suite["wheel4"])
        spectra = hodge_spectra(d)
        assert len(spectra) == d.basis.max_degree + 1
        for k, w in enumerate(spectra):
            assert len(w) == d.basis.dimension_of(k)

    def test_asymmetric_block_rejected(self):
        basis = GradedBasis([("a",), ("b",)], [0, 0])
        m = sparse.csr_array(np.array([[0, 1], [0, 0]]))
        with pytest.raises(ContractViolationError):
            GradedOperator(m, basis).eigenvalues(0)
        with pytest.raises(ContractViolationError):  # the path with vectors
            GradedOperator(m, basis).eigensystem(0)

    def test_nonzero_even_odd_spectra_match(self, k3):
        report = supersymmetry_check(de_rham_spectra(k3))
        assert report.symmetric
        assert len(report.even_nonzero) == len(report.odd_nonzero)


class TestHeatSupertrace:
    def test_disc_is_one(self, k3):
        assert abs(heat_supertrace(de_rham_spectra(k3), 1.0) - 1.0) < 1e-9

    def test_time_zero_counts_dimensions(self, suite):
        for name in ("wheel5", "random4"):
            d = exterior_derivative(suite[name])
            assert heat_supertrace(hodge_spectra(d), 0.0) \
                == d.basis.alternating_dimension_sum()

    def test_circle_vanishes(self, c4):
        spectra = de_rham_spectra(c4)
        for t in (0.1, 1.0, 10.0):
            assert abs(heat_supertrace(spectra, t)) < 1e-9

    def test_negative_time_rejected(self, k3):
        with pytest.raises(InvalidInputError):
            heat_supertrace(de_rham_spectra(k3), -0.5)

    def test_non_finite_time_rejected(self, k3):
        spectra = de_rham_spectra(k3)
        for t in (float("nan"), float("inf")):
            with pytest.raises(InvalidInputError):
                heat_supertrace(spectra, t)

    def test_time_past_the_float_range_is_chi(self, suite):
        # t * lambda overflows to inf, and exp(-inf) = 0 is the exact limit;
        # pytest turns any warning into an error here
        for name, c in suite.items():
            d = exterior_derivative(c)
            assert heat_supertrace(hodge_spectra(d), 1e308) \
                == euler_characteristic(c), name

    def test_equals_per_degree_loop_exactly(self, suite):
        def loop(spectra, t):
            total = 0.0
            for k, w in enumerate(spectra):
                term = float(np.sum(np.exp(-t * np.clip(w, 0.0, None))))
                total += term if k % 2 == 0 else -term
            return total

        for name, c in suite.items():
            d = exterior_derivative(c)
            for spectra in (hodge_spectra(d), full_hodge_spectra(d)):
                for t in (0.0, 0.1, 0.5, 1.0, 5.0, 10.0):
                    assert heat_supertrace(spectra, t) == loop(spectra, t), (name, t)


class TestSupersymmetry:
    def test_wheel_spectra_pair(self, suite):
        d = exterior_derivative(suite["wheel4"])
        for spectra in (hodge_spectra(d), full_hodge_spectra(d)):
            assert supersymmetry_check(spectra).max_mismatch < 1e-9

    def test_even_only_split_fails(self, k3):
        # degree 1 emptied: a split whose odd half is empty cannot pair its
        # non-zero spectrum
        d = exterior_derivative(k3)
        for spectra in (hodge_spectra(d), full_hodge_spectra(d)):
            report = supersymmetry_check([spectra[0], np.zeros(0), spectra[2]])
            assert not report.symmetric
            assert report.multiplicity_mismatch > 0

    def test_empty_complex_vacuous(self):
        empty = downward_closure([{0}]).intersection(downward_closure([{1}]))
        assert de_rham_spectra(empty) == []
        assert supersymmetry_check([]).symmetric


class TestHarmonicProjector:
    def test_matches_the_dense_kernel_projector(self, suite):
        """I - W W^T from the frame equals K K^T over the kernel K of the
        formed L_k (the dense oracle), and its trace is b_k; order 2 solves
        one swap sector at a time, order 1 the whole Gram matrix."""
        for name, c in suite.items():
            for d in (exterior_derivative(c), connection_derivative(c, 2)):
                L, b = hodge(dirac(d)), betti(d)
                for k in range(len(d.basis.dims)):
                    w, vectors = L.eigensystem(k)
                    kernel = vectors[:, spectral.kernel_mask(w)]
                    p = harmonic_projector(d, k)
                    assert np.max(np.abs(p - kernel @ kernel.T),
                                  initial=0.0) < 1e-9, (name, k)
                    assert round(np.trace(p)) == b[k], (name, k)

    def test_order_two_solves_each_sector_gram_once(self, suite, solver_widths):
        """One ``eigh`` per swap sector of each block of d on its narrower
        side: the octahedron's order-2 degrees are 6, 48, 132, 144 and 56
        wide, and its swap sectors 6/0, 24/24, 60/72, 72/72 and 32/24."""
        d = connection_derivative(suite["octahedron"], 2)
        for k in range(len(d.basis.dims)):
            harmonic_projector(d, k)
            assert solver_widths["eigh"] == [6, 0, 24, 24, 60, 72, 32, 24], k
            solver_widths["eigh"].clear()
        assert solver_widths["eigvalsh"] == []

    def test_connected_constants(self, c4):
        p = harmonic_projector(exterior_derivative(c4), 0)
        assert np.linalg.matrix_rank(p) == 1
        assert np.allclose(p @ np.ones(4), np.ones(4) * p[0].sum())

    def test_trivial_kernel_gives_zero(self, k3):
        assert np.max(np.abs(harmonic_projector(exterior_derivative(k3), 1))) < 1e-9

    def test_idempotent(self, suite):
        for name in ("wheel4", "octahedron"):
            d = exterior_derivative(suite[name])
            for k in range(len(d.basis.dims)):
                p = harmonic_projector(d, k)
                assert np.max(np.abs(p @ p - p)) < 1e-9

    def test_degree_outside_the_basis_rejected(self, k3):
        for k in (-1, 3):
            with pytest.raises(InvalidInputError, match=f"degree {k} "):
                harmonic_projector(exterior_derivative(k3), k)

    def test_every_degree_charged_before_any_solve(self, monkeypatch,
                                                    solver_calls):
        from simhodge import budget

        d = exterior_derivative(generate("octahedron"))  # widths 6, 12, 8
        monkeypatch.setattr(budget, "MEMORY_BYTES", 8 * 11 ** 2)  # 11 wide
        with pytest.raises(ResourceLimitError, match="degree-1 block is 12 wide"):
            harmonic_projector(d, 0)  # degree 0 alone would fit
        assert solver_calls == {"eigh": 0, "eigvalsh": 0}


class TestConnectionSupersymmetry:
    def test_nonzero_spectra_pair_by_parity(self, suite):
        for name in ("circle3", "star3", "wheel4", "random0"):
            # the full Hodge blocks: pairing is structural in hodge_spectra
            report = supersymmetry_check(
                full_hodge_spectra(connection_derivative(suite[name], 2)))
            assert report.symmetric, name
            assert report.max_mismatch < 1e-9, name

    def test_order_three_dimension_sum(self, suite):
        from simhodge import connection_basis

        for name in ("circle3", "star3", "cycle4", "simplex3"):
            c = suite[name]
            basis = connection_basis(c, 3)
            assert basis.alternating_dimension_sum() \
                == wu_characteristic(c, 3), name


class TestEulerPoincare:
    def test_de_rham_matches_chi(self, suite):
        for name in ("wheel6", "octahedron", "random5"):
            c = suite[name]
            b = betti(exterior_derivative(c))
            alternating = sum(x if k % 2 == 0 else -x for k, x in enumerate(b))
            assert alternating == euler_characteristic(c), name

    def test_connection_matches_pair_characteristic(self, suite):
        for name in ("circle3", "star3", "cycle4"):
            c = suite[name]
            d = connection_derivative(c, 2)
            b = betti(d)
            alternating = sum(x if k % 2 == 0 else -x for k, x in enumerate(b))
            assert alternating == wu_characteristic(c, 2), name


class TestRelabelingInvariance:
    def test_invariants_ignore_vertex_numbering(self, suite):
        # the increasing-order orientation is a gauge choice: renaming the
        # vertices must not move any invariant
        rng = np.random.default_rng(13)
        for name in ("wheel4", "random2", "octahedron"):
            c = suite[name]
            old = sorted(c.base)
            new = rng.permutation(len(old))
            relabel = {v: int(new[i]) for i, v in enumerate(old)}
            from simhodge import Complex, euler_characteristic, wu_characteristic
            shuffled = Complex([tuple(sorted(relabel[v] for v in s))
                                for s in c.simplices], validate=False)
            assert euler_characteristic(shuffled) == euler_characteristic(c)
            assert wu_characteristic(shuffled, 2) == wu_characteristic(c, 2)
            d0, L0 = de_rham_hodge(c)
            d1, L1 = de_rham_hodge(shuffled)
            assert betti(d0) == betti(d1), name
            for k in range(L0.basis.max_degree + 1):
                assert np.allclose(L0.eigenvalues(k), L1.eigenvalues(k),
                                   atol=1e-9), (name, k)


class TestSpectrumReport:
    def test_exact_numeric_agreement(self, suite):
        for name in ("wheel4", "random6", "refined_cycle4"):
            report = spectrum_report(exterior_derivative(suite[name]))
            assert report.agreement, name
            assert report.supersymmetry.symmetric, name

    def test_payload_shape(self, k3):
        payload = spectrum_report(exterior_derivative(k3)).to_payload()
        assert payload["betti"] == [1, 0, 0]
        assert payload["exact_numeric_agreement"] is True
        assert set(payload["eigenvalues"]) == {"0", "1", "2"}

    def test_nilpotency_checked_once_per_derivative(self, suite, monkeypatch):
        from simhodge.intlinalg import IntMatrix

        pairs = []
        matmul = IntMatrix.__matmul__

        def recording_matmul(self, other):
            pairs.append((self, other))
            return matmul(self, other)

        monkeypatch.setattr(IntMatrix, "__matmul__", recording_matmul)
        for d in (exterior_derivative(suite["wheel4"]),
                  connection_derivative(suite["wheel4"], 2)):
            pairs.clear()
            spectrum_report(d)
            # d @ d; the swap check's d @ tau also has d on the left
            assert sum(a is b is d.matrix for a, b in pairs) == 1


class TestEigenvalueOnlySolves:
    def test_values_match_eigh(self, suite):
        for name, c in suite.items():
            _, L = de_rham_hodge(c)
            for k in range(L.basis.max_degree + 1):
                expected = np.linalg.eigh(L.diag_block(k).astype(float))[0]
                assert np.max(np.abs(L.eigenvalues(k) - expected),
                              initial=0.0) < 1e-10, (name, k)

    def test_values_then_vectors_solves_once_more(self, solver_calls):
        _, L = de_rham_hodge(generate("octahedron"))
        values = L.eigenvalues(1)
        assert L.eigensystem(1, vectors=False)[1] is None
        assert solver_calls == {"eigh": 0, "eigvalsh": 1}
        w, v = L.eigensystem(1)
        assert solver_calls == {"eigh": 1, "eigvalsh": 1}
        assert np.max(np.abs(w - values)) < 1e-10
        assert L.eigenvalues(1) is w and L.eigensystem(1)[1] is v
        assert solver_calls == {"eigh": 1, "eigvalsh": 1}

    def test_vectors_then_values_solves_once(self, solver_calls):
        _, L = de_rham_hodge(generate("octahedron"))
        w, _ = L.eigensystem(1)
        assert L.eigenvalues(1) is w
        assert solver_calls == {"eigh": 1, "eigvalsh": 0}

    def test_block_width_checked_before_the_block_is_built(self, monkeypatch):
        from simhodge import budget

        _, L = de_rham_hodge(generate("octahedron"))  # widths 6, 12, 8

        def never(*args):
            raise AssertionError("a block was built before the budget was checked")

        monkeypatch.setattr(budget, "MEMORY_BYTES", 8 * 8 ** 2)  # 8 wide
        monkeypatch.setattr(GradedOperator, "diag_block", never)
        for vectors in (False, True):
            with pytest.raises(ResourceLimitError, match="degree-1 block is 12 wide"):
                L.eigensystem(1, vectors=vectors)
        assert L._eigs == {}

    def test_every_gram_width_checked_before_the_first_solve(self, monkeypatch,
                                                             solver_calls):
        from simhodge import budget

        # degrees 7, 21 and 35 wide: Gram blocks of d 7 and then 21 wide
        d = exterior_derivative(skeleton(downward_closure([range(7)]), 2))
        monkeypatch.setattr(budget, "MEMORY_BYTES", 8 * 20 ** 2)  # 20 wide
        for solve in (hodge_spectra, lambda d: singular_frame(d, vectors=True)):
            with pytest.raises(ResourceLimitError, match="degree-1 block is 21 wide"):
                solve(d)
        assert solver_calls == {"eigh": 0, "eigvalsh": 0}


@pytest.fixture(scope="module")
def derivatives(suite):
    """Orders 1 and 2 over the suite and the refined octahedron, whose
    order-2 blocks are 26, 288, 1080, 1440 and 624 wide."""
    complexes = dict(suite, refined_octahedron=barycentric_refinement(
        generate("octahedron")))
    return {(name, order): exterior_derivative(c) if order == 1
            else connection_derivative(c, 2)
            for name, c in complexes.items() for order in (1, 2)}


class TestHodgeSpectraOracle:
    """``hodge_spectra`` against ``eigvalsh`` of each full Hodge block."""

    def test_spectra_match_the_full_blocks(self, derivatives):
        for key, d in derivatives.items():
            spectra, full = hodge_spectra(d), full_hodge_spectra(d)
            assert len(spectra) == len(full), key
            for k, (w, expected) in enumerate(zip(spectra, full)):
                assert np.max(np.abs(w - expected), initial=0.0) <= 1e-12, (key, k)

    def test_kernel_counts_are_the_exact_betti_numbers(self, derivatives):
        for key, d in derivatives.items():
            b = betti(d)
            report = spectrum_report(d)
            assert report.kernel_counts == b, key
            assert tuple(int(np.count_nonzero(w == 0.0))
                         for w in hodge_spectra(d)) == b, key

    def test_pairing_agrees_with_the_full_pairing(self, derivatives):
        for key, d in derivatives.items():
            ours = supersymmetry_check(hodge_spectra(d))
            full = supersymmetry_check(full_hodge_spectra(d))
            assert ours.symmetric and full.symmetric, key
            assert (ours.max_mismatch, ours.multiplicity_mismatch) == (0.0, 0), key
            assert len(ours.even_nonzero) == len(full.even_nonzero), key
            assert np.max(np.abs(ours.even_nonzero - full.even_nonzero),
                          initial=0.0) <= 1e-12, key
            assert np.max(np.abs(ours.odd_nonzero - full.odd_nonzero),
                          initial=0.0) <= 1e-12, key

    def test_heat_supertrace_is_the_index(self, derivatives):
        for key, d in derivatives.items():
            index = d.basis.alternating_dimension_sum()
            spectra = hodge_spectra(d)
            for t in (0.0, 0.1, 1.0, 10.0):
                assert abs(heat_supertrace(spectra, t) - index) <= 1e-9, (key, t)


def _max_abs(x) -> float:
    return float(np.max(np.abs(x), initial=0.0))


class TestSingularFrameOracle:
    """The vectors of ``singular_frame`` against d, the exact Betti numbers
    and, on the suite, each dense Hodge block of L = (d + d*)^2."""

    def test_frame_against_d_and_the_dense_blocks(self, derivatives):
        empty = exterior_derivative(downward_closure([]))
        # long paths and cycles spread sigma widely; W stays orthonormal
        spread = {("path200", 1): exterior_derivative(generate("path", 200)),
                  ("cycle800", 1): exterior_derivative(generate("cycle", 800))}
        cases = {**derivatives, ("empty", 1): empty, **spread}
        assert ("simplex1", 1) in cases  # a single vertex: no block either
        for key, d in cases.items():
            assert (d.swap is not None) == (key[1] == 2), key  # sector solves
            frame, dims = singular_frame(d, vectors=True), d.basis.dims
            assert len(frame) == max(len(dims) - 1, 0), key
            for k, (w, u, v) in enumerate(frame):
                block = d.block(k + 1, k)
                assert _max_abs((u * np.sqrt(w)) @ v.T - block) \
                    <= 1e-12 * max(_max_abs(block), 1.0), (key, k)
            dense = key[0] != "refined_octahedron" and key not in spread
            L = hodge(dirac(d)) if dense else None
            for k, (n, b) in enumerate(zip(dims, betti(d))):
                parts = ([(w, v) for w, _, v in frame[k:k + 1]]
                         + [(w, u) for w, u, _ in frame[max(k - 1, 0):k]])
                w = np.concatenate([np.zeros(0)] + [p[0] for p in parts])
                columns = np.hstack([np.zeros((n, 0))] + [p[1] for p in parts])
                assert _max_abs(columns.T @ columns - np.eye(len(w))) <= 1e-12, \
                    (key, k)
                assert len(w) + b == n, (key, k)
                if L is not None:
                    dense = L.diag_block(k)
                    assert _max_abs((columns * w) @ columns.T - dense) \
                        <= 1e-10 * max(_max_abs(dense), 1.0), (key, k)


def _swap_matrix(d):
    """tau as a scipy integer matrix: tau e_i = sign_i e_partner_i."""
    partner, sign = d.swap
    n = len(partner)
    return sparse.csr_array((sign, (partner, np.arange(n))), shape=(n, n))


class TestSwapSectors:
    """Order-2 solves split by the swap tau(x, y) = (-1)^(dim x dim y) (y, x)."""

    def test_only_order_two_records_a_swap(self, suite):
        c = suite["wheel4"]
        assert exterior_derivative(c).swap is None
        assert connection_derivative(c, 1).swap is None
        assert connection_derivative(c, 3).swap is None
        assert connection_derivative(c, 2).swap is not None
        empty = downward_closure([{0}]).intersection(downward_closure([{1}]))
        report = spectrum_report(connection_derivative(empty, 2))
        assert report.betti_numbers == () and report.agreement

    def test_swap_is_a_degree_preserving_involution_commuting_with_d(
            self, derivatives):
        for (name, order), d in derivatives.items():
            if order != 2:
                continue
            tau, m = _swap_matrix(d), as_scipy(d.matrix)
            assert (tau @ tau != sparse.eye_array(tau.shape[0])).nnz == 0, name
            degrees = np.array(d.basis.degrees)
            assert np.array_equal(degrees[d.swap[0]], degrees), name
            assert (tau @ m != m @ tau).nnz == 0, name

    def test_sector_values_match_the_whole_gram_solves(self, derivatives):
        for key, d in derivatives.items():
            frame = singular_frame(d)
            for k, ((w, _, _), expected) in enumerate(
                    zip(frame, dense_gram_values(d))):
                assert len(w) == len(expected), (key, k)
                top = max(float(expected[-1]) if len(expected) else 0.0, 1.0)
                assert _max_abs(w - expected) <= 1e-12 * top, (key, k)

    def test_vectors_are_tau_adapted(self, derivatives):
        # the refined octahedron's order-2 vectors are 26 to 1440 rows tall
        for (name, order), d in derivatives.items():
            if order == 2:
                check_tau_adapted(d)

    def test_lefschetz_number_of_the_swap_is_chi(self, suite):
        # the fixed elements (x, x) have sign (-1)^dim x and even degree, so
        # sum_k (-1)^k tr(tau | degree k) = sum_x (-1)^dim x = chi
        for name, c in suite.items():
            sectors = swap_sectors(connection_derivative(c, 2))
            traces = [plus[0].shape[1] - minus[0].shape[1]
                      for plus, minus in sectors]
            assert alternating_sum(traces) == euler_characteristic(c), name

    def test_widths_on_the_refined_octahedron(self, derivatives):
        sectors = swap_sectors(derivatives["refined_octahedron", 2])
        assert [[u.shape[1] for u, _ in degree] for degree in sectors] \
            == [[26, 0], [144, 144], [504, 576], [720, 720], [336, 288]]

    def test_swap_that_does_not_commute_is_refused(self, suite):
        d = connection_derivative(suite["octahedron"], 2)
        partner, sign = d.swap
        i = int(np.flatnonzero(partner != np.arange(len(partner)))[0])
        sign = sign.copy()
        sign[[i, partner[i]]] *= -1  # still an involution, no longer tau
        d.swap = (partner, sign)
        for solve in (hodge_spectra, spectrum_report, singular_frame,
                      lambda d: singular_frame(d, vectors=True)):
            with pytest.raises(ContractViolationError, match=(
                    "^d's swap is not a commuting involution$")):
                solve(d)

    def test_swap_checked_once_per_derivative(self, suite, monkeypatch):
        from simhodge.intlinalg import IntMatrix

        pairs = []
        matmul = IntMatrix.__matmul__

        def recording_matmul(self, other):
            pairs.append((self, other))
            return matmul(self, other)

        monkeypatch.setattr(IntMatrix, "__matmul__", recording_matmul)
        d = connection_derivative(suite["wheel4"], 2)
        spectrum_report(d)
        singular_frame(d, vectors=True)
        hodge_spectra(d)
        # tau @ d; d @ d is the nilpotency check
        assert sum(b is d.matrix and a is not d.matrix for a, b in pairs) == 1


class TestTraceCheck:
    """tr(L_k), the sum of each degree's spectrum, against the exact sum of
    the squared entries of d in or out of degree k."""

    def test_exact_traces_are_the_dense_traces(self, derivatives):
        for key, d in derivatives.items():
            if key[0] == "refined_octahedron":
                continue  # no dense L of 3458 x 3458 here
            L = hodge(dirac(d))
            assert hodge_traces(d) == [int(np.trace(L.diag_block(k)))
                                       for k in range(len(d.basis.dims))], key

    def test_spectral_sums_are_the_traces(self, derivatives):
        for key, d in derivatives.items():
            report = spectrum_report(d)
            assert report.trace_residual <= 1e-12, key
            assert report.agreement, key

    def test_doctored_spectrum_flips_agreement(self, suite, monkeypatch):
        d = connection_derivative(suite["wheel4"], 2)
        honest = spectral.hodge_spectra

        def doctored(d):
            spectra = honest(d)
            spectra[1][-1] *= 1 + 1e-6  # the kernel counts stay right
            return spectra

        monkeypatch.setattr(spectral, "hodge_spectra", doctored)
        report = spectrum_report(d)
        assert report.kernel_counts == report.betti_numbers
        assert TRACE_TOL < report.trace_residual < 1e-5
        assert not report.agreement
        assert report.to_payload()["exact_numeric_agreement"] is False

    def test_a_split_that_drops_a_sector_fails(self, suite, monkeypatch):
        d = connection_derivative(suite["wheel4"], 2)
        whole = spectral.swap_sectors
        monkeypatch.setattr(spectral, "swap_sectors",
                            lambda d: [degree[:1] for degree in whole(d)])
        report = spectrum_report(d)
        assert report.trace_residual > TRACE_TOL
        assert not report.agreement
