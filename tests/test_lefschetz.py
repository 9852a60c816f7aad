"""Automorphism actions, Lefschetz numbers, fixed-point indices, heat traces."""

from fractions import Fraction

import numpy as np
import pytest
from conftest import as_scipy

from simhodge import (ContractViolationError, GradedOperator, IntMatrix,
                      InvalidInputError, ResourceLimitError,
                      check_automorphism, dirac,
                      downward_closure, euler_characteristic,
                      exterior_derivative, fixed_point_indices, generate,
                      graded_basis, heat_lefschetz, hodge, induced_map,
                      lefschetz_number, lefschetz_report, whitney_complex)
from simhodge.spectral import kernel_threshold


def de_rham(c):
    d = exterior_derivative(c)
    return d, hodge(dirac(d))


def rotation(n):
    return {i: (i + 1) % n for i in range(n)}


@pytest.fixture(scope="module")
def c4_ops(c4):
    return de_rham(c4)


class TestCheckAutomorphism:
    def test_cycle_rotation_valid(self, c4):
        check_automorphism(c4, rotation(4))

    def test_identity_valid(self, suite):
        for c in list(suite.values())[:5]:
            check_automorphism(c, {v: v for v in c.base})

    def test_asymmetric_swap_rejected(self):
        path = generate("path", 3)  # vertices 0-1-2 in a line
        with pytest.raises(InvalidInputError, match="maps simplex"):
            check_automorphism(path, {0: 1, 1: 0, 2: 2})

    def test_non_bijection_rejected(self, c4):
        with pytest.raises(InvalidInputError):
            check_automorphism(c4, {0: 0, 1: 0, 2: 2, 3: 3})

    def test_missing_vertex_rejected(self, c4):
        with pytest.raises(InvalidInputError):
            check_automorphism(c4, {0: 1, 1: 0})

    def test_non_integer_images_rejected(self):
        # int() would truncate these to the swap {0: 1, 1: 0}
        edge = downward_closure([(0, 1)])
        with pytest.raises(InvalidInputError, match="not an integer"):
            check_automorphism(edge, {0: 1.9, 1: 0.2})


class TestInducedMap:
    def test_identity_gives_identity(self, k3):
        t = check_automorphism(k3, {v: v for v in k3.base})
        u = induced_map(t, graded_basis(k3))
        assert np.array_equal(u.matrix.toarray(), np.eye(7, dtype=np.int64))

    def test_rotation_vertex_block_is_cyclic(self, c4):
        t = check_automorphism(c4, rotation(4))
        u = induced_map(t, graded_basis(c4))
        block = u.block(0, 0)
        assert sorted(block.flatten()) == [0] * 12 + [1] * 4
        assert np.array_equal(block @ block @ block @ block, np.eye(4))

    def test_edge_swap_has_sign(self):
        edge = downward_closure([(0, 1)])
        t = check_automorphism(edge, {0: 1, 1: 0})
        u = induced_map(t, graded_basis(edge))
        assert u.block(1, 1).tolist() == [[-1]]

    def test_commutes_with_derivative(self, suite):
        cases = [("cycle4", rotation(4)),
                 ("cycle4", {0: 0, 1: 3, 2: 2, 3: 1}),
                 ("octahedron", {0: 1, 1: 0, 2: 2, 3: 3, 4: 4, 5: 5})]
        for name, perm in cases:
            c = suite[name]
            d, L = de_rham(c)
            t = check_automorphism(c, perm)
            u = induced_map(t, d.basis)
            for op, label in ((d, "d"), (L, "L")):
                um, m = as_scipy(u.matrix), as_scipy(op.matrix)
                gap = um @ m - m @ um
                gap.eliminate_zeros()
                assert gap.count_nonzero() == 0, (name, label)

    def test_map_that_does_not_commute_is_refused(self, c4):
        # one sign of d flipped: the rotation's action no longer commutes
        d = exterior_derivative(c4).matrix
        data = d.data.copy()
        data[0] *= -1
        bent = GradedOperator(IntMatrix(d.row, d.col, data, d.shape),
                              graded_basis(c4), shift=1)
        t = check_automorphism(c4, rotation(4))
        with pytest.raises(ContractViolationError, match=(
                "^induced map does not commute with the derivative$")):
            lefschetz_number(t, bent)


class TestLefschetzNumber:
    def test_identity_is_chi(self, k3):
        d, L = de_rham(k3)
        t = check_automorphism(k3, {v: v for v in k3.base})
        number, traces = lefschetz_number(t, d)
        assert number == euler_characteristic(k3) == 1

    def test_cycle_rotation_zero(self, c4, c4_ops):
        d, L = c4_ops
        t = check_automorphism(c4, rotation(4))
        number, traces = lefschetz_number(t, d)
        assert number == 0
        assert abs(traces[0] - 1) < 1e-7 and abs(traces[1] - 1) < 1e-7

    def test_cycle_reflection_two(self, c4, c4_ops):
        d, L = c4_ops
        t = check_automorphism(c4, {0: 0, 1: 3, 2: 2, 3: 1})
        number, traces = lefschetz_number(t, d)
        assert number == 2
        assert abs(traces[1] + 1) < 1e-7  # orientation reversed on the circle

    def test_degree_wider_than_the_budget_refused_before_any_solve(
            self, monkeypatch, solver_calls):
        """The eigenbasis and the action are degree-wide, so a degree over
        the dense-block memory is refused though every Gram side fits."""
        from simhodge import budget

        c = downward_closure([(0, 1), (1, 2), (0, 2)]
                             + [(v,) for v in range(3, 20)])
        t = check_automorphism(c, {v: v for v in c.base})
        monkeypatch.setattr(budget, "MEMORY_BYTES", 8 * 12 ** 2)
        with pytest.raises(ResourceLimitError,
                           match="^degree-0 block is 20 wide"):
            lefschetz_number(t, exterior_derivative(c))
        assert solver_calls == {"eigh": 0, "eigvalsh": 0}


class TestFixedPointIndices:
    def test_identity_recovers_weights(self, k3):
        t = check_automorphism(k3, {v: v for v in k3.base})
        fixed, vertex = fixed_point_indices(t, k3)
        assert sum(i for _, i in fixed) == euler_characteristic(k3)
        for s, i in fixed:
            assert i == (-1) ** (len(s) - 1)

    def test_rotation_has_no_fixed_points(self, c4):
        t = check_automorphism(c4, rotation(4))
        fixed, vertex = fixed_point_indices(t, c4)
        assert fixed == []
        assert all(v == 0 for v in vertex.values())

    def test_reflection_fixes_two_vertices(self, c4):
        t = check_automorphism(c4, {0: 0, 1: 3, 2: 2, 3: 1})
        fixed, vertex = fixed_point_indices(t, c4)
        assert fixed == [((0,), 1), ((2,), 1)]
        assert vertex[(0)] == 1 and vertex[2] == 1

    def test_vertex_localization_preserves_total(self, suite):
        for name, perm in (("octahedron", {0: 1, 1: 0, 2: 3, 3: 2, 4: 4, 5: 5}),
                           ("wheel4", {0: 0, 1: 2, 2: 3, 3: 4, 4: 1})):
            c = suite[name]
            t = check_automorphism(c, perm)
            fixed, vertex = fixed_point_indices(t, c)
            assert sum(vertex.values(), Fraction(0)) == sum(i for _, i in fixed)


class TestHeatLefschetz:
    def test_time_zero_counts_signed_fixed_elements(self, c4, c4_ops):
        d, L = c4_ops
        for perm in (rotation(4), {0: 0, 1: 3, 2: 2, 3: 1},
                     {v: v for v in c4.base}):
            t = check_automorphism(c4, perm)
            fixed, _ = fixed_point_indices(t, c4)
            value = heat_lefschetz(t, d, 0.0)
            assert abs(value - sum(i for _, i in fixed)) < 1e-12

    def test_rotation_constant_zero(self, c4, c4_ops):
        d, L = c4_ops
        t = check_automorphism(c4, rotation(4))
        for x in (0.5, 2.0):
            assert abs(heat_lefschetz(t, d, x)) < 1e-9

    def test_identity_reduces_to_supertrace(self, k3):
        d, L = de_rham(k3)
        t = check_automorphism(k3, {v: v for v in k3.base})
        assert abs(heat_lefschetz(t, d, 1.0) - 1.0) < 1e-9

    def test_large_time_limit_is_cohomological(self, c4, c4_ops):
        d, L = c4_ops
        for perm in (rotation(4), {0: 0, 1: 3, 2: 2, 3: 1}):
            t = check_automorphism(c4, perm)
            number, _ = lefschetz_number(t, d)
            assert abs(heat_lefschetz(t, d, 50.0) - number) < 1e-9

    def test_negative_time_rejected(self, c4, c4_ops):
        d, L = c4_ops
        t = check_automorphism(c4, rotation(4))
        with pytest.raises(InvalidInputError):
            heat_lefschetz(t, d, -1.0)

    def test_non_finite_time_rejected(self, c4, c4_ops):
        d, L = c4_ops
        t = check_automorphism(c4, rotation(4))
        for time in (float("nan"), float("inf")):
            with pytest.raises(InvalidInputError):
                heat_lefschetz(t, d, time)


class TestLefschetzReport:
    def test_number_equals_fixed_index_sum(self, suite):
        wheel = suite["wheel5"]
        rotate_rim = {0: 0, 1: 2, 2: 3, 3: 4, 4: 5, 5: 1}
        t = check_automorphism(wheel, rotate_rim)
        d, L = de_rham(wheel)
        report = lefschetz_report(wheel, t, d)
        assert report.consistent
        assert report.number == 1  # only the hub stays put

    def test_derivative_of_another_complex_refused(self, c4, suite):
        """The fixed simplices are read off the diagonal of U over the basis
        of d, so that basis must be the simplices of c, in their order."""
        from simhodge import connection_derivative

        t = check_automorphism(c4, rotation(4))
        others = [exterior_derivative(generate("cycle", 5)),
                  exterior_derivative(suite["refined_cycle4"]),
                  connection_derivative(c4, 2)]
        for d in others:
            with pytest.raises(InvalidInputError, match=(
                    "^the derivative's basis is not the simplices of the "
                    "complex$")):
                lefschetz_report(c4, t, d)

    def test_payload_fields(self, c4, c4_ops):
        d, L = c4_ops
        t = check_automorphism(c4, {0: 0, 1: 3, 2: 2, 3: 1})
        payload = lefschetz_report(c4, t, d).to_payload()
        assert payload["lefschetz_number"] == 2
        assert payload["matches_fixed_points"] is True
        assert len(payload["fixed_simplices"]) == 2


def lift(c, perm):
    """The automorphism of the barycentric refinement induced by perm."""
    order = list(c)
    index = {s: i for i, s in enumerate(order)}
    return {i: index[tuple(sorted(perm[v] for v in s))]
            for i, s in enumerate(order)}


def automorphism_cases(suite):
    """(name, permutation) pairs: the identity on every complex, plus
    rotations, reflections and swaps, lifted to the refinements."""
    cases = [(name, {v: v for v in c.base}) for name, c in suite.items()]
    for n in range(4, 9):
        cases += [(f"cycle{n}", rotation(n)),
                  (f"cycle{n}", {i: (-i) % n for i in range(n)})]
    for n in (4, 5, 6):
        rim = {0: 0, **{i: i % n + 1 for i in range(1, n + 1)}}
        flip = {0: 0, **{i: n + 1 - i for i in range(1, n + 1)}}
        cases += [(f"wheel{n}", rim), (f"wheel{n}", flip)]
    for perm in ({0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4},
                 {0: 1, 1: 0, 2: 2, 3: 3, 4: 4, 5: 5},
                 {0: 2, 2: 4, 4: 0, 1: 3, 3: 5, 5: 1}):
        cases.append(("octahedron", perm))
    for n in (2, 3, 4, 5):
        cases += [(f"simplex{n}", rotation(n)),
                  (f"simplex{n}", {0: 1, 1: 0, **{i: i for i in range(2, n)}})]
    cases += [("star3", {0: 0, 1: 2, 2: 3, 3: 1}),
              ("path5", {i: 4 - i for i in range(5)}),
              ("circle3", rotation(3))]
    for name, perm in list(cases):
        if f"refined_{name}" in suite and perm != {v: v for v in perm}:
            cases.append((f"refined_{name}", lift(suite[name], perm)))
    return cases


def direct_degree_traces(u, L):
    """tr(P_k U_k) with P_k the kernel projector of a fresh eigensolve."""
    traces = {}
    for k in range(L.basis.max_degree + 1):
        w, v = np.linalg.eigh(L.diag_block(k).astype(float))
        kernel = v[:, w < kernel_threshold(w)]
        traces[k] = float(np.trace(kernel @ kernel.T @ u.diag_block(k)))
    return traces


def direct_heat(u, L, time):
    """Alternating sum of tr(exp(-time L_k) U_k), V^T U V formed per time."""
    total = 0.0
    for k in range(L.basis.max_degree + 1):
        w, v = np.linalg.eigh(L.diag_block(k).astype(float))
        rotated = v.T @ u.diag_block(k) @ v
        tr = float(np.sum(np.exp(-time * np.clip(w, 0.0, None)) * np.diag(rotated)))
        total += tr if k % 2 == 0 else -tr
    return total


class TestSharedSuperTrace:
    def test_against_direct_formulas(self, suite):
        cases = automorphism_cases(suite)
        assert len(cases) > len(suite) + 40
        for name, perm in cases:
            c = suite[name]
            d, L = de_rham(c)
            t = check_automorphism(c, perm)
            u = induced_map(t, L.basis)
            number, traces = lefschetz_number(t, d)
            direct = direct_degree_traces(u, L)
            assert traces.keys() == direct.keys(), name
            for k in direct:
                assert abs(traces[k] - direct[k]) <= 1e-12, (name, k)
            fixed, _ = fixed_point_indices(t, c)
            assert number == sum(i for _, i in fixed), name
            report = lefschetz_report(c, t, d)
            assert (report.number, report.degree_traces) == (number, traces)
            for time in (0.0, 0.1, 1.0, 10.0, 50.0):
                value = heat_lefschetz(t, d, time)
                assert abs(value - direct_heat(u, L, time)) <= 1e-12, (name, time)
                assert report.heat_trace(time) == value, (name, time)

    def test_vertex_field_against_fixed_simplex_loop(self, suite):
        """Each fixed simplex shares its index, (-1)^dim times the diagonal
        entry of the induced map, among its vertices; the field sums to the
        Lefschetz number."""
        for name, perm in automorphism_cases(suite):
            c = suite[name]
            d, L = de_rham(c)
            t = check_automorphism(c, perm)
            diagonal = induced_map(t, L.basis).matrix.toarray().diagonal()
            expected = {v: Fraction(0) for v in c.base}
            for s, sign in zip(L.basis.elements, diagonal.tolist()):
                for v in s:
                    expected[v] += Fraction((-1) ** (len(s) - 1) * sign, len(s))
            _, field = fixed_point_indices(t, c)
            assert field == expected, name
            assert sum(field.values()) == lefschetz_number(t, d)[0], name

    def test_report_rejects_bad_times(self, c4, c4_ops):
        d, L = c4_ops
        report = lefschetz_report(c4, check_automorphism(c4, rotation(4)), d)
        for time in (-1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidInputError):
                report.heat_trace(time)
