"""Complex construction, counting invariants, and the refinement operator."""

import itertools
import math
import random

import numpy as np
import pytest

from simhodge import (Complex, InvalidInputError, barycentric_operator,
                      barycentric_refinement, downward_closure,
                      euler_characteristic, f_matrix, f_vector, generate,
                      graphical_complex, random_subcomplex, skeleton,
                      stirling2, unit_sphere, whitney_complex)


def brute_force_cliques(vertices, edges):
    """Oracle: every vertex subset all of whose pairs are edges."""
    adjacency = {frozenset(e) for e in edges}
    cliques = []
    vertices = list(vertices)
    for k in range(1, len(vertices) + 1):
        for subset in itertools.combinations(vertices, k):
            if all(frozenset(p) in adjacency
                   for p in itertools.combinations(subset, 2)):
                cliques.append(subset)
    return cliques


def stirling2_oracle(n, k):
    """Oracle: inclusion-exclusion formula for Stirling numbers."""
    total = sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
    return total // math.factorial(k)


class TestConstruction:
    def test_downward_closure_full_simplex(self):
        assert f_vector(downward_closure([{1, 2, 3}])) == (3, 3, 1)

    def test_downward_closure_three_edges(self):
        c = downward_closure([{1, 2}, {2, 3}, {1, 3}])
        assert len(c) == 6
        assert sorted(c.simplices) == [(1,), (1, 2), (1, 3), (2,), (2, 3), (3,)]

    def test_singleton(self):
        assert f_vector(downward_closure([{1}])) == (1,)

    def test_empty_facet_rejected(self):
        with pytest.raises(InvalidInputError):
            downward_closure([set()])

    def test_closure_validated(self):
        with pytest.raises(InvalidInputError):
            Complex([(1, 2)])  # vertices missing

    def test_empty_complex(self):
        empty = Complex(())
        assert len(empty) == 0
        assert empty.dimension == -1
        assert f_vector(empty) == ()
        assert euler_characteristic(empty) == 0


class TestFacets:
    def test_against_maximal_simplex_oracle(self, suite):
        for name, c in [*suite.items(), ("empty", Complex(()))]:
            oracle = [s for s in c if not any(set(s) < set(t) for t in c)]
            assert c.facets() == oracle, name


class TestWhitney:
    def test_triangle(self):
        c = whitney_complex(range(1, 4), [(1, 2), (2, 3), (1, 3)])
        assert f_vector(c) == (3, 3, 1)
        assert euler_characteristic(c) == 1

    def test_four_cycle(self):
        c = whitney_complex(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert f_vector(c) == (4, 4)

    def test_octahedron_chi_against_brute_force(self):
        groups = [(0, 1), (2, 3), (4, 5)]
        edges = [(a, b) for g, h in itertools.combinations(groups, 2)
                 for a in g for b in h]
        c = whitney_complex(range(6), edges)
        oracle = brute_force_cliques(range(6), edges)
        assert c.simplices == {tuple(sorted(s)) for s in oracle}
        chi = sum((-1) ** (len(s) - 1) for s in oracle)
        assert euler_characteristic(c) == chi == 2

    def test_random_graphs_against_brute_force(self):
        rng = random.Random(41)
        for _ in range(10):
            n = rng.randint(1, 7)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.5]
            c = whitney_complex(range(n), edges)
            oracle = {tuple(sorted(s))
                      for s in brute_force_cliques(range(n), edges)}
            assert c.simplices == oracle

    def test_unknown_vertex_rejected(self):
        with pytest.raises(InvalidInputError):
            whitney_complex([0, 1], [(0, 2)])

    def test_loop_rejected(self):
        with pytest.raises(InvalidInputError):
            whitney_complex([0, 1], [(0, 0)])

    def test_isolated_vertices_kept(self):
        c = whitney_complex(range(3), [(0, 1)])
        assert (2,) in c.simplices


class TestGraphical:
    def test_triangle_forests(self):
        edges = [(1, 2), (2, 3), (1, 3)]
        c = graphical_complex(range(1, 4), edges)
        # oracle: check all 7 non-empty edge subsets by hand, reject the 3-cycle
        assert f_vector(c) == (3, 3)
        assert euler_characteristic(c) == 0

    def test_single_edge(self):
        c = graphical_complex([0, 1], [(0, 1)])
        assert f_vector(c) == (1,)

    def test_two_edge_path_is_full_simplex(self):
        c = graphical_complex(range(3), [(0, 1), (1, 2)])
        assert f_vector(c) == (2, 1)

    def test_no_edges_gives_empty(self):
        assert len(graphical_complex(range(3), [])) == 0


class TestSkeleton:
    def test_circle_from_disc(self, k3):
        sk = skeleton(k3, 1)
        assert f_vector(sk) == (3, 3)
        assert euler_characteristic(sk) == 0

    def test_identity_at_top_dimension(self, k3):
        assert skeleton(k3, k3.dimension) == k3

    def test_k4_one_skeleton(self):
        c = generate("simplex", 4)
        assert f_vector(skeleton(c, 1)) == (4, 6)


class TestBarycentric:
    def test_refined_triangle(self, k3):
        assert f_vector(barycentric_refinement(k3)) == (7, 12, 6)

    def test_single_vertex_fixed_point(self):
        v = downward_closure([{0}])
        assert f_vector(barycentric_refinement(v)) == (1,)

    def test_chi_preserved(self, suite):
        for name, c in suite.items():
            if len(c) <= 40:
                refined = barycentric_refinement(c)
                assert euler_characteristic(refined) == euler_characteristic(c), name

    def test_operator_entries_d2(self):
        expected = np.array([[1, 1, 1], [0, 2, 6], [0, 0, 6]])
        assert np.array_equal(barycentric_operator(2), expected)

    def test_operator_from_stirling_oracle(self):
        for d in range(4):
            s = barycentric_operator(d)
            for i in range(1, d + 2):
                for j in range(1, d + 2):
                    assert s[i - 1, j - 1] == math.factorial(i) * stirling2_oracle(j, i)

    def test_operator_maps_f_vectors(self, k3):
        s = barycentric_operator(2)
        assert tuple(s @ np.array([3, 3, 1])) == (7, 12, 6)

    def test_transpose_fixes_euler_valuation(self):
        s = barycentric_operator(2)
        assert tuple(s.T @ np.array([1, -1, 1])) == (1, -1, 1)

    def test_stirling_recurrence_matches_formula(self):
        for n in range(8):
            for k in range(8):
                assert stirling2(n, k) == stirling2_oracle(n, k)


class TestUnitSphere:
    def test_triangle_vertex_link(self, k3):
        link = unit_sphere(k3, 0)
        assert sorted(link.simplices) == [(1,), (1, 2), (2,)]
        assert f_vector(link) == (2, 1)

    def test_cycle_link_two_points(self, c4):
        link = unit_sphere(c4, 0)
        assert f_vector(link) == (2,)

    def test_isolated_vertex_gives_empty(self):
        c = downward_closure([{5}])
        assert len(unit_sphere(c, 5)) == 0

    def test_missing_vertex_rejected(self, k3):
        with pytest.raises(InvalidInputError):
            unit_sphere(k3, 99)

    def test_center_never_in_link(self, suite):
        for c in suite.values():
            for v in sorted(c.base)[:3]:
                link = unit_sphere(c, v)
                assert v not in link.base
                Complex(link.simplices)  # re-validate closure


class TestFMatrix:
    def brute_force(self, c):
        d = c.dimension
        out = np.zeros((d + 1, d + 1), dtype=int)
        for a in c.simplices:
            for b in c.simplices:
                if set(a) & set(b):
                    out[len(a) - 1, len(b) - 1] += 1
        return out

    def test_circle_pair_counts(self, k3):
        circle = skeleton(k3, 1)
        fm = f_matrix(circle)
        assert fm.tolist() == [[3, 6], [6, 9]]
        signs = np.array([1, -1])
        assert signs @ fm @ signs == 0

    def test_single_vertex(self):
        assert f_matrix(downward_closure([{0}])).tolist() == [[1]]

    def test_against_brute_force(self, suite):
        for name in ("wheel4", "octahedron", "random0", "refined_circle3"):
            c = suite[name]
            assert np.array_equal(f_matrix(c), self.brute_force(c)), name

    def test_symmetric_with_dominant_diagonal(self, suite):
        for c in suite.values():
            fm = f_matrix(c)
            assert np.array_equal(fm, fm.T)
            fv = f_vector(c)
            for k in range(len(fv)):
                assert fm[k, k] >= fv[k]


class TestGenerate:
    def test_simplex(self):
        assert f_vector(generate("simplex", 3)) == (3, 3, 1)

    def test_wheel_is_disc(self):
        c = generate("wheel", 4)
        assert f_vector(c) == (5, 8, 4)
        assert euler_characteristic(c) == 1

    def test_random_is_valid_and_deterministic(self):
        a = generate("random", 8, seed=7)
        b = generate("random", 8, seed=7)
        assert a == b
        Complex(a.simplices)  # closure holds

    def test_cycle_needs_four_vertices(self):
        with pytest.raises(InvalidInputError):
            generate("cycle", 3)

    def test_unknown_family(self):
        with pytest.raises(InvalidInputError):
            generate("moebius", 5)

    def test_octahedron_needs_no_size(self):
        assert f_vector(generate("octahedron")) == (6, 12, 8)


class TestValuationAxiom:
    def test_chi_is_a_valuation(self, suite):
        rng = random.Random(11)
        for name in ("wheel5", "octahedron", "random3", "simplex4"):
            c = suite[name]
            for _ in range(25):
                a = random_subcomplex(c, rng)
                b = random_subcomplex(c, rng)
                lhs = euler_characteristic(a | b) + euler_characteristic(a & b)
                rhs = euler_characteristic(a) + euler_characteristic(b)
                assert lhs == rhs, name

    def test_union_intersection_are_complexes(self, suite):
        rng = random.Random(5)
        c = suite["wheel4"]
        a, b = random_subcomplex(c, rng), random_subcomplex(c, rng)
        Complex((a | b).simplices)
        Complex((a & b).simplices)
