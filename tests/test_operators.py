"""Form bases, derivatives, Dirac/Hodge assembly, chains, connection complexes."""

import itertools
import random

import numpy as np
import pytest
from conftest import as_scipy
from scipy import sparse

from simhodge import (ContractViolationError, GradedBasis, GradedOperator,
                      InvalidInputError, boundary_chain, connection_basis,
                      connection_degree_counts, connection_derivative,
                      connection_tuple_count, dirac, downward_closure,
                      exterior_derivative, f_matrix, generate, graded_basis,
                      hodge, stokes_check, whitney_complex)


class TestGradedBasis:
    def test_triangle_degrees(self, k3):
        basis = graded_basis(k3)
        assert basis.degrees == (0, 0, 0, 1, 1, 1, 2)
        assert len(basis) == 7

    def test_cycle_degrees(self, c4):
        basis = graded_basis(c4)
        assert basis.dims == (4, 4)

    def test_empty(self):
        basis = graded_basis(downward_closure([{0}]).intersection(
            downward_closure([{1}])))
        assert len(basis) == 0
        assert basis.max_degree == -1

    def test_degree_slices_are_contiguous(self, suite):
        basis = graded_basis(suite["octahedron"])
        for k in range(basis.max_degree + 1):
            s = basis.degree_slice(k)
            assert all(basis.degrees[i] == k for i in range(s.start, s.stop))


class TestExteriorDerivative:
    def test_single_edge_gradient(self):
        d = exterior_derivative(downward_closure([(1, 2)]))
        row = d.block(1, 0)
        assert row.tolist() == [[-1, 1]]

    def test_triangle_row_hand_derived(self, k3):
        # (df)(x) = f(x less vertex 0) - f(x less vertex 1) + f(x less vertex 2)
        d = exterior_derivative(k3)
        i = d.basis.index[(0, 1, 2)]
        entries = {d.basis.elements[j]: int(v)
                   for j, v in enumerate(as_scipy(d.matrix)[[i], :].toarray()[0]) if v}
        assert entries == {(1, 2): 1, (0, 2): -1, (0, 1): 1}

    def test_nilpotent_on_k4(self):
        d = exterior_derivative(generate("simplex", 4))
        square = as_scipy(d.matrix) @ as_scipy(d.matrix)
        square.eliminate_zeros()
        assert square.count_nonzero() == 0

    def test_block_shapes(self, k3):
        d = exterior_derivative(k3)
        assert d.block(1, 0).shape == (3, 3)
        assert d.block(2, 1).shape == (1, 3)
        assert d.shift == 1


class TestDiracHodge:
    def test_cycle_laplacian_spectrum(self, c4):
        L = hodge(dirac(exterior_derivative(c4)))
        assert np.allclose(L.eigenvalues(0), [0, 2, 2, 4], atol=1e-9)

    def test_single_vertex(self):
        d = exterior_derivative(downward_closure([{0}]))
        big_d = dirac(d)
        assert big_d.to_dense().tolist() == [[0.0]]
        assert hodge(big_d).to_dense().tolist() == [[0.0]]

    def test_vertex_block_trace_is_degree_sum(self, k3):
        L = hodge(dirac(exterior_derivative(k3)))
        assert np.trace(L.diag_block(0)) == 6

    def test_dirac_symmetric(self, suite):
        for name in ("wheel4", "random1"):
            m = as_scipy(dirac(exterior_derivative(suite[name])).matrix)
            gap = (m - m.T)
            gap.eliminate_zeros()
            assert gap.count_nonzero() == 0

    def test_non_nilpotent_rejected(self):
        basis = GradedBasis([("a",), ("b",), ("c",)], [0, 1, 2])
        m = sparse.csr_array(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]]))
        broken = GradedOperator(m, basis, shift=1)
        with pytest.raises(ContractViolationError):
            dirac(broken)

    def test_hodge_block_diagonal(self, suite):
        L = hodge(dirac(exterior_derivative(suite["wheel5"])))
        top = L.basis.max_degree
        for i in range(top + 1):
            for j in range(top + 1):
                if i != j:
                    assert not L.block(i, j).any()


class TestChains:
    def test_star_boundary_hand_example(self):
        # three edges meeting at the top vertex: boundary = 3*(center) - leaves
        star = downward_closure([(1, 4), (2, 4), (3, 4)])
        d = exterior_derivative(star)
        chain = {(1, 4): 1, (2, 4): 1, (3, 4): 1,
                 (1,): 1, (2,): 1, (3,): 1, (4,): 1}
        assert boundary_chain(d, chain) == {(1,): -1, (2,): -1, (3,): -1, (4,): 3}

    def test_boundary_squared_zero(self, suite):
        rng = random.Random(2)
        c = suite["wheel4"]
        d = exterior_derivative(c)
        for _ in range(20):
            chain = {e: rng.randint(-3, 3) for e in d.basis.elements
                     if rng.random() < 0.5}
            once = boundary_chain(d, chain)
            assert boundary_chain(d, once) == {}

    def test_vertex_chain_has_no_boundary(self, k3):
        d = exterior_derivative(k3)
        assert boundary_chain(d, {(0,): 5}) == {}

    def test_unknown_support_rejected(self, k3):
        d = exterior_derivative(k3)
        with pytest.raises(InvalidInputError):
            boundary_chain(d, {(7, 8): 1})

    def test_stokes_adjointness_random(self, suite):
        rng = random.Random(9)
        c = suite["wheel4"]
        d = exterior_derivative(c)
        for _ in range(100):
            form = {e: rng.randint(-5, 5) for e in d.basis.elements}
            chain = {e: rng.randint(-5, 5) for e in d.basis.elements}
            lhs, rhs, equal = stokes_check(d, form, chain)
            assert equal and lhs == rhs

    def test_stokes_indicator_edge(self, c4):
        d = exterior_derivative(c4)
        lhs, rhs, equal = stokes_check(d, {(0, 1): 1}, {(0, 1): 1})
        assert equal


class TestExactChainActions:
    """Chain coefficients are integers of any size, never truncated or wrapped."""

    @pytest.fixture
    def path_d(self):
        return exterior_derivative(generate("path", 3))

    def test_fractional_chain_coefficient_rejected(self, path_d):
        with pytest.raises(InvalidInputError):
            boundary_chain(path_d, {(0, 1): 1.5})

    def test_fractional_form_value_rejected(self, path_d):
        with pytest.raises(InvalidInputError):
            stokes_check(path_d, {(0,): 0.9}, {(0, 1): 1})

    def test_boundary_past_int64_is_exact(self, path_d):
        chain = {(0, 1): 2 ** 62, (1, 2): -2 ** 62}
        assert boundary_chain(path_d, chain) == {
            (0,): -2 ** 62, (1,): 2 ** 63, (2,): -2 ** 62}

    def test_coefficient_beyond_64_bits_is_exact(self, path_d):
        assert boundary_chain(path_d, {(0, 1): 2 ** 70}) == {
            (0,): -2 ** 70, (1,): 2 ** 70}
        assert stokes_check(path_d, {(1,): 2 ** 70}, {(0, 1): 3}) == (
            3 * 2 ** 70, 3 * 2 ** 70, True)

    def test_nan_coefficient_rejected(self, path_d):
        with pytest.raises(InvalidInputError):
            boundary_chain(path_d, {(0, 1): float("nan")})


class TestIntegerOperatorEntries:
    def test_fractional_entry_rejected(self):
        basis = GradedBasis([("a",), ("b",)], [0, 1])
        with pytest.raises(InvalidInputError):
            GradedOperator(np.array([[0.0, 0.0], [0.5, 0.0]]), basis, shift=1)

    def test_integral_floats_and_scipy_input_accepted(self):
        basis = GradedBasis([("a",), ("b",)], [0, 1])
        dense = GradedOperator(np.array([[0.0, 0.0], [-2.0, 0.0]]), basis)
        coo = GradedOperator(sparse.coo_array(([-3, 1], ([1, 1], [0, 0])),
                                              shape=(2, 2)), basis)
        assert dense.block(1, 0).tolist() == coo.block(1, 0).tolist() == [[-2]]


def brute_force_tuples(c, k):
    """Oracle: enumerate ordered k-tuples and keep the pairwise intersecting."""
    simplices = sorted(c.simplices, key=lambda s: (len(s), s))
    out = []
    for combo in itertools.product(simplices, repeat=k):
        if all(set(a) & set(b) for a, b in itertools.combinations(combo, 2)):
            out.append(combo)
    return out


class TestConnectionBasis:
    def test_single_edge_pairs(self):
        edge = downward_closure([(1, 2)])
        basis = connection_basis(edge, 2)
        assert len(basis) == 7
        assert set(basis.elements) == set(brute_force_tuples(edge, 2))

    def test_order_one_matches_form_basis(self, k3):
        assert len(connection_basis(k3, 1)) == len(graded_basis(k3))

    def test_cycle_pair_count_matches_f_matrix(self, c4):
        assert len(connection_basis(c4, 2)) == int(f_matrix(c4).sum())

    def test_order_below_one_rejected(self, k3):
        with pytest.raises(InvalidInputError):
            connection_basis(k3, 0)

    def test_tuple_count_matches_enumeration(self, suite):
        for name in ("circle3", "star3", "wheel4"):
            c = suite[name]
            for k in (1, 2, 3):
                assert connection_tuple_count(c, k) == len(brute_force_tuples(c, k)), \
                    (name, k)

    def test_order_three_elements_and_degrees(self):
        c = downward_closure([(0, 1, 2), (2, 3)])
        basis = connection_basis(c, 3)
        tuples = brute_force_tuples(c, 3)
        assert sorted(basis.elements) == sorted(tuples)
        for element, degree in zip(basis.elements, basis.degrees):
            assert degree == sum(len(s) - 1 for s in element), element

    def test_tuple_count_order_four(self, suite):
        c = suite["circle3"]
        assert connection_tuple_count(c, 4) == len(brute_force_tuples(c, 4))
        assert connection_tuple_count(c, 4) == len(connection_basis(c, 4))

    def test_degree_counts_match_basis_dims(self, suite):
        for name in ("circle3", "star3", "wheel4", "octahedron", "random3"):
            for k in (1, 2, 3):
                assert connection_degree_counts(suite[name], k) \
                    == connection_basis(suite[name], k).dims, (name, k)
        assert connection_degree_counts(downward_closure([]), 2) == ()


class TestConnectionDerivative:
    def test_order_one_is_exterior_derivative(self, suite):
        for name in ("wheel4", "circle3", "random2"):
            c = suite[name]
            gap = (as_scipy(connection_derivative(c, 1).matrix)
                   - as_scipy(exterior_derivative(c).matrix))
            gap.eliminate_zeros()
            assert gap.count_nonzero() == 0, name

    def test_nilpotent_order_two(self, k3):
        d = connection_derivative(k3, 2)
        square = as_scipy(d.matrix) @ as_scipy(d.matrix)
        square.eliminate_zeros()
        assert square.count_nonzero() == 0

    def test_nilpotent_order_three_small(self):
        edge = downward_closure([(0, 1), (1, 2)])
        d = connection_derivative(edge, 3)
        square = as_scipy(d.matrix) @ as_scipy(d.matrix)
        square.eliminate_zeros()
        assert square.count_nonzero() == 0

    def test_alternating_dimension_sum_is_pair_characteristic(self):
        edge = downward_closure([(1, 2)])
        basis = connection_basis(edge, 2)
        # oracle: sum the weight products over the 7 enumerated pairs
        expected = 0
        for pair in brute_force_tuples(edge, 2):
            w = 1
            for s in pair:
                w *= (-1) ** (len(s) - 1)
            expected += w
        assert basis.alternating_dimension_sum() == expected == -1
