"""Index pipelines, Wu characteristics, curvature, Poincare-Hopf, expectation."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from simhodge import (InvalidInputError, ResourceLimitError, analytic_index,
                      barycentric_refinement, betti, cohomological_index,
                      connection_derivative, downward_closure,
                      euler_characteristic, f_vector, gauss_bonnet_curvature,
                      generate, index_expectation, index_theorem_report,
                      mean_tuple_curvature, multilinear_curvature,
                      poincare_hopf, random_subcomplex, skeleton,
                      sphere_curvature, valuation_evaluate, wu_characteristic,
                      wu_intersection)


def brute_force_wu(c, k):
    """Oracle: direct product enumeration with set-intersection tests."""
    simplices = list(c.simplices)
    total = 0
    for combo in itertools.product(simplices, repeat=k):
        if all(set(a) & set(b) for a, b in itertools.combinations(combo, 2)):
            w = 1
            for s in combo:
                w *= (-1) ** (len(s) - 1)
            total += w
    return total


def brute_force_curvatures(c, k):
    """Oracle: per-vertex multilinear and mean tuple curvature by product
    enumeration, each tuple weight spread over the vertices of its union."""
    simplices = [frozenset(s) for s in c.simplices]
    shares = {v: Fraction(0) for v in c.base}
    sums = {v: 0 for v in c.base}
    counts = {v: 0 for v in c.base}
    for combo in itertools.product(simplices, repeat=k):
        if all(a & b for a, b in itertools.combinations(combo, 2)):
            w = 1
            for s in combo:
                w *= (-1) ** (len(s) - 1)
            union = frozenset().union(*combo)
            for v in union:
                shares[v] += Fraction(w, len(union))
                sums[v] += w
                counts[v] += 1
    means = {v: Fraction(sums[v], counts[v]) for v in c.base}
    return shares, means


class TestAnalyticIndex:
    def test_triangle_split(self):
        assert analytic_index([3, 1], [3]) == 1

    def test_single_space(self):
        assert analytic_index([5], []) == 5

    def test_equal_spaces(self):
        assert analytic_index([4, 2], [4, 2]) == 0

    def test_negative_dimension_rejected(self):
        with pytest.raises(InvalidInputError):
            analytic_index([-1], [0])


class TestCohomologicalIndex:
    def test_circle(self):
        assert cohomological_index((1, 1)) == 0

    def test_disc(self):
        assert cohomological_index((1, 0, 0)) == 1

    def test_edge_pair_complex(self):
        edge = downward_closure([(1, 2)])
        assert cohomological_index(betti(connection_derivative(edge, 2))) == -1


class TestValuations:
    def test_euler_valuation(self, k3):
        assert valuation_evaluate([1, -1, 1], k3) == 1

    def test_facet_count(self, k3):
        assert valuation_evaluate([0, 0, 1], k3) == 1
        c = generate("wheel", 4)
        assert valuation_evaluate([0, 0, 1], c) == 4

    def test_quadratic_checkerboard_gives_pair_characteristic(self, suite):
        for name in ("circle3", "wheel4", "simplex3"):
            c = suite[name]
            size = c.dimension + 1
            x = [[(-1) ** (i + j) for j in range(size)] for i in range(size)]
            assert valuation_evaluate(x, c) == wu_characteristic(c, 2), name

    def test_dimension_mismatch_rejected(self, k3):
        with pytest.raises(InvalidInputError):
            valuation_evaluate([1, -1], k3)

    def test_asymmetric_bilinear_rejected(self, k3):
        x = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
        with pytest.raises(InvalidInputError):
            valuation_evaluate(x, k3)

    def test_non_subcomplex_rejected(self, k3, c4):
        with pytest.raises(InvalidInputError):
            valuation_evaluate([1, -1, 1], k3, sub=c4)

    def test_fraction_coefficients(self, k3):
        value = valuation_evaluate([Fraction(1, 2), 0, 0], k3)
        assert value == Fraction(3, 2)

    def test_subcomplex_evaluation(self, k3):
        sub = skeleton(k3, 1)
        assert valuation_evaluate([1, -1, 1], k3, sub=sub) == 0

    def test_bilinearity_on_random_subcomplexes(self, suite):
        rng = random.Random(23)
        c = suite["wheel4"]
        for _ in range(20):
            a = random_subcomplex(c, rng)
            b = random_subcomplex(c, rng)
            probe = random_subcomplex(c, rng)
            lhs = wu_intersection(a | b, probe) + wu_intersection(a & b, probe)
            rhs = wu_intersection(a, probe) + wu_intersection(b, probe)
            assert lhs == rhs


class TestWuCharacteristic:
    def test_full_simplexes(self):
        for n in range(1, 6):
            assert wu_characteristic(generate("simplex", n), 2) == (-1) ** (n - 1)

    def test_wheel_disc_minus_boundary(self):
        for n in (4, 5, 6):
            assert wu_characteristic(generate("wheel", n), 2) == 1

    def test_triple_on_single_edge(self):
        assert wu_characteristic(downward_closure([(1, 2)]), 3) == 1

    def test_order_one_is_chi(self, suite):
        for name in ("wheel4", "random7"):
            c = suite[name]
            assert wu_characteristic(c, 1) == euler_characteristic(c)

    def test_against_brute_force(self, suite):
        for name in ("circle3", "star3", "cycle4", "simplex3"):
            c = suite[name]
            for k in (2, 3):
                assert wu_characteristic(c, k) == brute_force_wu(c, k), (name, k)

    def test_order_four_against_brute_force(self):
        edge = downward_closure([(1, 2)])
        path = generate("path", 3)
        for c in (edge, path):
            assert wu_characteristic(c, 4) == brute_force_wu(c, 4)

    def test_matches_pairwise_intersection_form(self, suite):
        for name in ("wheel4", "random9"):
            c = suite[name]
            assert wu_characteristic(c, 2) == wu_intersection(c, c), name

    def test_invalid_order(self, k3):
        with pytest.raises(InvalidInputError):
            wu_characteristic(k3, 0)


class TestCurvature:
    def test_cycle_is_flat(self):
        for n in (4, 6, 8):
            assert set(gauss_bonnet_curvature(generate("cycle", n)).values()) \
                == {Fraction(0)}

    def test_star_center_and_leaves(self):
        k = gauss_bonnet_curvature(generate("star", 3))
        assert k[0] == Fraction(-1, 2)
        assert all(k[v] == Fraction(1, 2) for v in (1, 2, 3))
        assert sum(k.values()) == 1

    def test_triangle_thirds(self, k3):
        assert set(gauss_bonnet_curvature(k3).values()) == {Fraction(1, 3)}

    def test_sphere_formula_agrees(self, suite):
        for name in ("wheel5", "octahedron", "random8", "refined_star3"):
            c = suite[name]
            assert sphere_curvature(c) == gauss_bonnet_curvature(c), name

    def test_total_is_chi(self, suite):
        for name, c in suite.items():
            total = sum(gauss_bonnet_curvature(c).values(), Fraction(0))
            assert total == euler_characteristic(c), name


class TestMultilinearCurvature:
    def test_order_one_reduction(self, k3):
        assert multilinear_curvature(k3, 1) == gauss_bonnet_curvature(k3)

    def test_single_edge_pairs_sum(self):
        edge = downward_closure([(1, 2)])
        assert sum(multilinear_curvature(edge, 2).values()) == -1

    def test_wheel_pairs_sum(self):
        c = generate("wheel", 4)
        assert sum(multilinear_curvature(c, 2).values()) == 1

    def test_totals_match_characteristic(self, suite):
        for name in ("octahedron", "random3", "refined_cycle4"):
            c = suite[name]
            for k in (2, 3):
                total = sum(multilinear_curvature(c, k).values(), Fraction(0))
                assert total == wu_characteristic(c, k), (name, k)

    def test_per_vertex_against_brute_force(self, suite):
        for name, c in suite.items():
            for k in (1, 2, 3):
                if k == 3 and len(c) > 26:
                    continue
                shares, means = brute_force_curvatures(c, k)
                assert multilinear_curvature(c, k) == shares, (name, k)
                assert mean_tuple_curvature(c, k) == means, (name, k)

    def test_mean_diagnostic_runs(self, k3):
        means = mean_tuple_curvature(k3, 2)
        assert set(means) == k3.base
        single = downward_closure([{0}])
        assert mean_tuple_curvature(single, 1) == {0: Fraction(1)}


class TestPoincareHopf:
    def test_cycle_indices(self, c4):
        indices = poincare_hopf(c4, {0: 0, 1: 1, 2: 2, 3: 3})
        assert indices == {0: 1, 1: 0, 2: 0, 3: -1}

    def test_single_vertex(self):
        assert poincare_hopf(downward_closure([{0}]), {0: 3.5}) == {0: 1}

    def test_star_center_minimal(self):
        indices = poincare_hopf(generate("star", 3), {0: 0, 1: 1, 2: 2, 3: 3})
        assert indices == {0: 1, 1: 0, 2: 0, 3: 0}

    def test_non_injective_rejected(self, k3):
        with pytest.raises(InvalidInputError):
            poincare_hopf(k3, {0: 1, 1: 1, 2: 2})

    def test_sums_to_chi_random_functions(self, suite):
        rng = random.Random(31)
        for name in ("wheel6", "octahedron", "random11"):
            c = suite[name]
            vertices = sorted(c.base)
            for _ in range(50):
                ranks = list(range(len(vertices)))
                rng.shuffle(ranks)
                f = dict(zip(vertices, ranks))
                assert sum(poincare_hopf(c, f).values()) \
                    == euler_characteristic(c), name


class TestIndexExpectation:
    def test_cycle_exhaustive_flat(self, c4):
        result = index_expectation(c4)
        assert result.exhaustive
        assert result.values == gauss_bonnet_curvature(c4)

    def test_star_exhaustive(self):
        c = generate("star", 3)
        result = index_expectation(c)
        assert result.values == {0: Fraction(-1, 2), 1: Fraction(1, 2),
                                 2: Fraction(1, 2), 3: Fraction(1, 2)}

    def test_sampled_within_three_standard_errors(self, k3):
        result = index_expectation(k3, mode="sampled", samples=10000, seed=1)
        for v, mean in result.values.items():
            spread = max(result.stderr[v], 1e-12)
            assert abs(mean - 1 / 3) < 3 * spread

    def test_resource_guard(self):
        c = generate("path", 9)
        with pytest.raises(ResourceLimitError):
            index_expectation(c)

    def test_unknown_mode(self, k3):
        with pytest.raises(InvalidInputError):
            index_expectation(k3, mode="montecarlo")

    def test_non_positive_sample_count(self, k3):
        for samples in (0, -5):
            with pytest.raises(InvalidInputError):
                index_expectation(k3, mode="sampled", samples=samples)


class TestIndexTheoremReport:
    def test_triangle_de_rham(self, k3):
        triple = index_theorem_report(k3, 1)
        assert (triple.analytic, triple.cohomological, triple.topological) \
            == (1, 1, 1)
        assert triple.equal

    def test_wheel_pair_complex(self):
        triple = index_theorem_report(generate("wheel", 4), 2)
        assert triple.equal
        assert triple.analytic == 1

    def test_skeleton_circle(self, k3):
        triple = index_theorem_report(skeleton(k3, 1), 1)
        assert (triple.analytic, triple.cohomological, triple.topological) \
            == (0, 0, 0)
        assert triple.equal

    def test_order_three_on_small_complexes(self, suite):
        for name in ("simplex2", "circle3", "star3"):
            c = suite[name]
            triple = index_theorem_report(c, 3)
            assert triple.equal, name
            assert triple.analytic == wu_characteristic(c, 3), name


class TestRefinementInvariance:
    def test_pair_characteristic_stable(self, suite):
        for name in ("simplex3", "circle3", "star3", "cycle5"):
            c = suite[name]
            refined = barycentric_refinement(c)
            assert wu_characteristic(refined, 2) == wu_characteristic(c, 2), name
