"""Betti numbers, spectra, heat traces, supersymmetry, harmonic projectors."""

import numpy as np
import pytest
from scipy import sparse

from simhodge import (ContractViolationError, GradedBasis, GradedOperator,
                      InvalidInputError, ResourceLimitError,
                      barycentric_refinement, betti,
                      cohomological_index, connection_derivative, dirac, downward_closure,
                      euler_characteristic, exterior_derivative, generate,
                      harmonic_projector, heat_supertrace, hodge, skeleton,
                      spectrum, spectrum_report, supersymmetry_check,
                      wu_characteristic)


def de_rham_hodge(c):
    d = exterior_derivative(c)
    return d, hodge(dirac(d))


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

    def test_invariant_under_refinement(self, suite):
        for name, c in suite.items():
            if len(c) <= 30:
                assert betti(exterior_derivative(barycentric_refinement(c))) == \
                    betti(exterior_derivative(c)), name

    def test_order_two_index_on_a_large_random_complex(self):
        # blocks up to 2194 wide: cheap only with sparse elimination
        c = generate("random", 16, seed=1, edge_prob=0.5)
        d = connection_derivative(c, 2)
        assert max(d.basis.dims) > 2000
        assert cohomological_index(betti(d)) == wu_characteristic(c, 2) \
            == d.basis.alternating_dimension_sum()


class TestSpectrum:
    def test_cycle_vertex_block(self, c4):
        _, L = de_rham_hodge(c4)
        assert np.allclose(spectrum(L, 0), [0, 2, 2, 4], atol=1e-9)

    def test_single_vertex(self):
        _, L = de_rham_hodge(downward_closure([{0}]))
        assert spectrum(L, 0).tolist() == [0.0]

    def test_counts_match_block_dimension(self, suite):
        c = suite["wheel4"]
        _, L = de_rham_hodge(c)
        for k in range(L.basis.max_degree + 1):
            assert len(spectrum(L, k)) == L.basis.dimension_of(k)

    def test_asymmetric_block_rejected(self):
        basis = GradedBasis([("a",), ("b",)], [0, 0])
        m = sparse.csr_array(np.array([[0, 1], [0, 0]]))
        with pytest.raises(ContractViolationError):
            spectrum(GradedOperator(m, basis), 0)
        with pytest.raises(ContractViolationError):  # the path with vectors
            harmonic_projector(GradedOperator(m, basis), 0)

    def test_nonzero_even_odd_spectra_match(self, k3):
        _, L = de_rham_hodge(k3)
        report = supersymmetry_check(L)
        assert report.symmetric
        assert len(report.even_nonzero) == len(report.odd_nonzero)


class TestHeatSupertrace:
    def test_disc_is_one(self, k3):
        _, L = de_rham_hodge(k3)
        assert abs(heat_supertrace(L, 1.0) - 1.0) < 1e-9

    def test_time_zero_counts_dimensions(self, suite):
        for name in ("wheel5", "random4"):
            c = suite[name]
            d, L = de_rham_hodge(c)
            assert heat_supertrace(L, 0.0) == d.basis.alternating_dimension_sum()

    def test_circle_vanishes(self, c4):
        _, L = de_rham_hodge(c4)
        for t in (0.1, 1.0, 10.0):
            assert abs(heat_supertrace(L, t)) < 1e-9

    def test_negative_time_rejected(self, k3):
        _, L = de_rham_hodge(k3)
        with pytest.raises(InvalidInputError):
            heat_supertrace(L, -0.5)

    def test_non_finite_time_rejected(self, k3):
        _, L = de_rham_hodge(k3)
        for t in (float("nan"), float("inf")):
            with pytest.raises(InvalidInputError):
                heat_supertrace(L, t)

    def test_equals_per_degree_loop_exactly(self, suite):
        def loop(L, t):
            total = 0.0
            for k in range(L.basis.max_degree + 1):
                w = np.clip(L.eigenvalues(k), 0.0, None)
                term = float(np.sum(np.exp(-t * w)))
                total += term if k % 2 == 0 else -term
            return total

        for name, c in suite.items():
            _, L = de_rham_hodge(c)
            for t in (0.0, 0.1, 0.5, 1.0, 5.0, 10.0):
                assert heat_supertrace(L, t) == loop(L, t), (name, t)


class TestSupersymmetry:
    def test_wheel_spectra_pair(self, suite):
        _, L = de_rham_hodge(suite["wheel4"])
        assert supersymmetry_check(L).max_mismatch < 1e-9

    def test_even_only_split_fails(self, k3):
        # a split whose odd half is empty cannot pair its non-zero spectrum
        _, L = de_rham_hodge(k3)
        report = supersymmetry_check(L, even_degrees=[0, 2], odd_degrees=[])
        assert not report.symmetric
        assert report.multiplicity_mismatch > 0

    def test_empty_complex_vacuous(self):
        empty = downward_closure([{0}]).intersection(downward_closure([{1}]))
        _, L = de_rham_hodge(empty)
        assert supersymmetry_check(L).symmetric


class TestHarmonicProjector:
    def test_connected_constants(self, c4):
        _, L = de_rham_hodge(c4)
        p = harmonic_projector(L, 0)
        assert np.linalg.matrix_rank(p) == 1
        assert np.allclose(p @ np.ones(4), np.ones(4) * p[0].sum())

    def test_trivial_kernel_gives_zero(self, k3):
        _, L = de_rham_hodge(k3)
        assert np.max(np.abs(harmonic_projector(L, 1))) < 1e-9

    def test_idempotent(self, suite):
        for name in ("wheel4", "octahedron"):
            _, L = de_rham_hodge(suite[name])
            for k in range(L.basis.max_degree + 1):
                p = harmonic_projector(L, k)
                assert np.max(np.abs(p @ p - p)) < 1e-9


class TestConnectionSupersymmetry:
    def test_nonzero_spectra_pair_by_parity(self, suite):
        for name in ("circle3", "star3", "wheel4", "random0"):
            L = hodge(dirac(connection_derivative(suite[name], 2)))
            report = supersymmetry_check(L)
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

        left = []
        matmul = IntMatrix.__matmul__

        def recording_matmul(self, other):
            left.append(self)
            return matmul(self, other)

        monkeypatch.setattr(IntMatrix, "__matmul__", recording_matmul)
        for d in (exterior_derivative(suite["wheel4"]),
                  connection_derivative(suite["wheel4"], 2)):
            left.clear()
            spectrum_report(d)
            assert sum(m is d.matrix for m in left) == 1


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
        assert harmonic_projector(L, 1).shape == (12, 12)
        assert solver_calls == {"eigh": 1, "eigvalsh": 0}

    def test_block_width_checked_before_the_block_is_built(self, monkeypatch):
        from simhodge import operators

        _, L = de_rham_hodge(generate("octahedron"))  # widths 6, 12, 8

        def never(*args):
            raise AssertionError("a block was built before the budget was checked")

        monkeypatch.setattr(operators, "DENSE_BLOCK_LIMIT", 8)
        monkeypatch.setattr(GradedOperator, "diag_block", never)
        for vectors in (False, True):
            with pytest.raises(ResourceLimitError, match="degree-1 block is 12 wide"):
                L.eigensystem(1, vectors=vectors)
        assert L._eigs == {}
