"""Automorphism actions, Lefschetz numbers, fixed-point indices, heat traces."""

from fractions import Fraction

import numpy as np
import pytest

from simhodge import (InvalidInputError, check_automorphism, dirac,
                      downward_closure, euler_characteristic,
                      exterior_derivative, fixed_point_indices, generate,
                      graded_basis, heat_lefschetz, hodge, induced_map,
                      lefschetz_number, lefschetz_report, whitney_complex)


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
                gap = u.matrix @ op.matrix - op.matrix @ u.matrix
                gap.eliminate_zeros()
                assert gap.count_nonzero() == 0, (name, label)


class TestLefschetzNumber:
    def test_identity_is_chi(self, k3):
        d, L = de_rham(k3)
        t = check_automorphism(k3, {v: v for v in k3.base})
        number, traces = lefschetz_number(t, d, L)
        assert number == euler_characteristic(k3) == 1

    def test_cycle_rotation_zero(self, c4, c4_ops):
        d, L = c4_ops
        t = check_automorphism(c4, rotation(4))
        number, traces = lefschetz_number(t, d, L)
        assert number == 0
        assert abs(traces[0] - 1) < 1e-7 and abs(traces[1] - 1) < 1e-7

    def test_cycle_reflection_two(self, c4, c4_ops):
        d, L = c4_ops
        t = check_automorphism(c4, {0: 0, 1: 3, 2: 2, 3: 1})
        number, traces = lefschetz_number(t, d, L)
        assert number == 2
        assert abs(traces[1] + 1) < 1e-7  # orientation reversed on the circle


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
            value = heat_lefschetz(t, L, 0.0)
            assert abs(value - sum(i for _, i in fixed)) < 1e-12

    def test_rotation_constant_zero(self, c4, c4_ops):
        d, L = c4_ops
        t = check_automorphism(c4, rotation(4))
        for x in (0.5, 2.0):
            assert abs(heat_lefschetz(t, L, x)) < 1e-9

    def test_identity_reduces_to_supertrace(self, k3):
        d, L = de_rham(k3)
        t = check_automorphism(k3, {v: v for v in k3.base})
        assert abs(heat_lefschetz(t, L, 1.0) - 1.0) < 1e-9

    def test_large_time_limit_is_cohomological(self, c4, c4_ops):
        d, L = c4_ops
        for perm in (rotation(4), {0: 0, 1: 3, 2: 2, 3: 1}):
            t = check_automorphism(c4, perm)
            number, _ = lefschetz_number(t, d, L)
            assert abs(heat_lefschetz(t, L, 50.0) - number) < 1e-9

    def test_negative_time_rejected(self, c4, c4_ops):
        d, L = c4_ops
        t = check_automorphism(c4, rotation(4))
        with pytest.raises(InvalidInputError):
            heat_lefschetz(t, L, -1.0)

    def test_non_finite_time_rejected(self, c4, c4_ops):
        d, L = c4_ops
        t = check_automorphism(c4, rotation(4))
        for time in (float("nan"), float("inf")):
            with pytest.raises(InvalidInputError):
                heat_lefschetz(t, L, time)


class TestLefschetzReport:
    def test_number_equals_fixed_index_sum(self, suite):
        wheel = suite["wheel5"]
        rotate_rim = {0: 0, 1: 2, 2: 3, 3: 4, 4: 5, 5: 1}
        t = check_automorphism(wheel, rotate_rim)
        d, L = de_rham(wheel)
        report = lefschetz_report(wheel, t, d, L)
        assert report.consistent
        assert report.number == 1  # only the hub stays put

    def test_payload_fields(self, c4, c4_ops):
        d, L = c4_ops
        t = check_automorphism(c4, {0: 0, 1: 3, 2: 2, 3: 1})
        payload = lefschetz_report(c4, t, d, L).to_payload()
        assert payload["lefschetz_number"] == 2
        assert payload["matches_fixed_points"] is True
        assert len(payload["fixed_simplices"]) == 2
