"""Form bases, derivatives, Dirac/Hodge assembly, chains, connection complexes."""

import itertools
import random

import numpy as np
import pytest
from conftest import as_scipy, gauss_bonnet_curvature
from scipy import sparse

from simhodge import (ContractViolationError, GradedBasis, GradedOperator,
                      InvalidInputError, ResourceLimitError, betti,
                      boundary_chain, connection_basis, connection_degree_counts,
                      connection_derivative, connection_tuple_count, dirac,
                      downward_closure, euler_characteristic,
                      exterior_derivative, f_matrix, f_vector, generate,
                      graded_basis, hodge, multilinear_curvature,
                      stokes_check, whitney_complex, wu_characteristic)
from simhodge.intlinalg import IntMatrix


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

    @pytest.mark.parametrize("degrees", [[-1, 0], [0.5, 0], [0]])
    def test_degrees_are_non_negative_integers(self, degrees):
        # [-1, 0] gave dims (1,) over two elements, with the degree -1
        # element in degree_slice(0); 0.5 raised a bare TypeError; [0]
        # dropped "b"
        with pytest.raises(InvalidInputError, match=(
                "^a basis needs one non-negative integer degree per element$")):
            GradedBasis(["a", "b"], degrees)
        assert GradedBasis(["a", "b"], np.array([1, 0])).dims == (1, 1)

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
        # the empty complex's fold stops at its first empty slot
        assert connection_degree_counts(downward_closure([]), 10 ** 9) == ()


class TestMeetMasks:
    def test_order_one_builds_none(self, suite, tmp_path, capsys, monkeypatch):
        import sys

        from simhodge import complexes
        from simhodge.cli import main
        from simhodge.io import serialize_facets

        def never(c):
            raise AssertionError("order 1 built meet masks")

        builder = complexes.intersection_masks
        for name, module in list(sys.modules.items()):  # every binding of it
            if name.startswith("simhodge") and \
                    getattr(module, "intersection_masks", None) is builder:
                monkeypatch.setattr(module, "intersection_masks", never)
        c = suite["octahedron"]
        assert connection_degree_counts(c, 1) == f_vector(c)
        assert wu_characteristic(c, 1) == euler_characteristic(c)
        assert multilinear_curvature(c, 1) == gauss_bonnet_curvature(c)
        assert len(connection_basis(c, 1)) == len(c)
        path = tmp_path / "octahedron.txt"
        path.write_text(serialize_facets(c))
        assert main(["betti", "--input", str(path)]) == 0
        assert capsys.readouterr().err == ""

    def test_budget_refuses_before_building(self, monkeypatch):
        from simhodge import budget

        # masks over 10 simplices take 10**2 / 8 bytes, over 11 more than 13
        monkeypatch.setattr(budget, "MEMORY_BYTES", 13)
        c = downward_closure([(0, 1, 2, 3)])  # 15 simplices
        for count in (lambda: connection_degree_counts(c, 2), lambda: f_matrix(c),
                      lambda: multilinear_curvature(c, 2)):
            with pytest.raises(ResourceLimitError,
                               match="^meet masks over 15 simplices, limit is 10$"):
                count()
        assert c._meet is None
        assert connection_degree_counts(c, 1) == (4, 6, 4, 1)

    def test_huge_order_refused_before_the_counts(self):
        # each slot of the octahedron's fold passes the budget on its own;
        # the extensions summed over slots 1 to 29 do not
        with pytest.raises(ResourceLimitError, match=(
                "^order 1000000000 fold needs 271140 extensions at slot 29, "
                "limit is 262144$")):
            connection_degree_counts(generate("octahedron"), 10 ** 9)

    def test_budget_folds_once(self, suite, monkeypatch):
        from simhodge import operators

        calls = []

        def counted(c, k):
            calls.append(k)
            return connection_degree_counts(c, k)

        monkeypatch.setattr(operators, "connection_degree_counts", counted)
        operators.require_connection_budget(suite["circle3"], 3)
        operators.require_connection_budget(suite["circle3"], 2)
        assert calls == [3]


class TestMemoryBudget:
    """budget.MEMORY_BYTES charges 8 w^2 bytes for a dense block w wide,
    |c|^2 / 8 for the meet masks and |c| / 8 per fold extension: each rule
    admits a need at the bytes it takes, refuses it one byte less, and
    prints the count those bytes allow."""

    def test_default_bytes_give_the_count_limits(self):
        from simhodge import budget

        budget.require_dense(0, 4096)
        with pytest.raises(ResourceLimitError, match=", limit is 4096$"):
            budget.require_dense(0, 4097)
        assert budget.meet_mask_simplices() == 32768
        assert [budget.fold_extensions(n) for n in (0, 4096, 4097, 32767)] \
            == [2 ** 18, 2 ** 18, 2 ** 30 // 4097, 2 ** 30 // 32767]

    def test_dense_width(self, monkeypatch):
        """A values frame solves each block's narrower Gram side, 6 and 8
        wide; one with vectors every degree, the widest 12."""
        from simhodge import budget
        from simhodge.spectral import require_frame

        dims = (6, 12, 8)  # the octahedron's degrees
        for vectors, width, refused in ((False, 8, "degree-2 block is 8"),
                                        (True, 12, "degree-1 block is 12")):
            monkeypatch.setattr(budget, "MEMORY_BYTES", 8 * width ** 2)
            assert require_frame(dims, vectors) == [0, 2]  # the Gram sides
            monkeypatch.setattr(budget, "MEMORY_BYTES", 8 * width ** 2 - 1)
            with pytest.raises(ResourceLimitError, match=(
                    f"^{refused} wide for a dense eigensolve, "
                    f"limit is {width - 1}$")):
                require_frame(dims, vectors)

    def test_meet_mask_simplices(self, monkeypatch):
        from simhodge import budget, complexes

        def tetrahedron():  # 15 simplices, a new complex each time
            return downward_closure([(0, 1, 2, 3)])

        monkeypatch.setattr(budget, "MEMORY_BYTES", -(-15 ** 2 // 8))
        assert len(complexes.intersection_masks(tetrahedron())) == 15
        monkeypatch.setattr(budget, "MEMORY_BYTES", -(-15 ** 2 // 8) - 1)
        with pytest.raises(ResourceLimitError,
                           match="^meet masks over 15 simplices, limit is 14$"):
            complexes.intersection_masks(tetrahedron())

    def test_fold_extensions(self, monkeypatch):
        from simhodge import budget

        c = generate("octahedron")
        # order 3 extends 26 simplices, then every ordered intersecting pair
        needed = len(c) + int(f_matrix(c).sum())
        monkeypatch.setattr(budget, "MEMORY_BYTES", -(-len(c) * needed // 8))
        assert len(connection_basis(c, 3)) == 4442
        monkeypatch.setattr(budget, "MEMORY_BYTES", -(-len(c) * needed // 8) - 1)
        with pytest.raises(ResourceLimitError, match=(
                f"^order 3 fold needs {needed} extensions at slot 2, "
                f"limit is {needed - 1}$")):
            connection_basis(c, 3)


def vmask_derivative(c, k):
    """The connection derivative by the vertex-mask rule: a face term stays
    when the face's vertex mask meets the mask of every other slot."""
    basis = connection_basis(c, k)
    bit = {v: 1 << i for i, v in enumerate(sorted(c.base))}
    vmask = {s: sum(bit[v] for v in s) for s in c}
    rows, cols, vals = [], [], []
    for i, element in enumerate(basis.elements):
        prefix = 0
        for slot, simplex in enumerate(element):
            if len(simplex) > 1:
                others = [vmask[t] for t_i, t in enumerate(element) if t_i != slot]
                for j in range(len(simplex)):
                    face = simplex[:j] + simplex[j + 1:]
                    if all(vmask[face] & om for om in others):
                        target = element[:slot] + (face,) + element[slot + 1:]
                        rows.append(i)
                        cols.append(basis.index[target])
                        vals.append((-1) ** (prefix + j))
            prefix += len(simplex) - 1
    return IntMatrix(rows, cols, vals, (len(basis), len(basis)))


def assert_same_triplets(got, expected, *where):
    for field in ("row", "col", "data"):
        assert np.array_equal(getattr(got, field), getattr(expected, field)), \
            (*where, field)


class TestConnectionDerivative:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_basis_membership_is_the_vertex_mask_rule(self, suite, k):
        for name, c in {**suite, "empty": downward_closure([])}.items():
            assert_same_triplets(connection_derivative(c, k).matrix,
                                 vmask_derivative(c, k), name, k)

    @pytest.mark.parametrize("top, k", [(141, 9), (127, 11)])
    def test_keys_past_the_int64_range(self, top, k):
        # the edge (0, 1) and isolated vertices up to top - 1: a mixed-radix
        # key |c|^k passes 2^63, and at 128 = 2^7 simplices and order 11
        # int64 wrapping would drop the first slot (128^10 = 2^70)
        c = downward_closure([(0, 1)] + [(v,) for v in range(2, top)])
        assert len(c) ** k > 2 ** 63
        d = connection_derivative(c, k)
        assert_same_triplets(d.matrix, vmask_derivative(c, k), k)
        assert betti(d) == (top - 2,) + (0,) * (k - 2) + (1, 0)

    def test_swap_partners(self, suite):
        for name, c in suite.items():
            d = connection_derivative(c, 2)
            partner, sign = d.swap
            assert partner.tolist() == [d.basis.index[(y, x)]
                                        for x, y in d.basis.elements], name
            assert sign.tolist() == [(-1) ** ((len(x) - 1) * (len(y) - 1))
                                     for x, y in d.basis.elements], name

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
