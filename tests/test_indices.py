"""Index pipelines, Wu characteristics, curvature, Poincare-Hopf, expectation."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from conftest import (gauss_bonnet_curvature, random_subcomplex,
                      small_complexes, sphere_curvature, unit_sphere)
from hypothesis import given, settings
from hypothesis import strategies as st

from simhodge import (InvalidInputError, ResourceLimitError, analytic_index,
                      barycentric_refinement, betti, cohomological_index,
                      connection_derivative, downward_closure,
                      euler_characteristic, f_vector, generate,
                      index_expectation, index_theorem_report,
                      multilinear_curvature, poincare_hopf, skeleton,
                      valuation_evaluate, vertex_spread, wu_characteristic,
                      wu_intersection)
from simhodge import indices
from simhodge.complexes import simplex_weight


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


def brute_force_curvatures(c, k, weight=simplex_weight):
    """Oracle: per-vertex multilinear curvature by product enumeration, each
    tuple's product of ``weight(simplex)`` spread over the vertices of its
    union; the default weight (-1)^dim gives the curvature."""
    simplices = list(c.simplices)
    shares = {v: Fraction(0) for v in c.base}
    for combo in itertools.product(simplices, repeat=k):
        if all(set(a) & set(b) for a, b in itertools.combinations(combo, 2)):
            w = 1
            for s in combo:
                w *= weight(s)
            union = frozenset().union(*combo)
            for v in union:
                shares[v] += Fraction(w, len(union))
    return shares


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


def test_wu_intersection_refused_over_the_pair_budget(monkeypatch):
    from simhodge import budget

    def weight(s):
        raise AssertionError("a pair was weighed before the budget")

    facet = downward_closure([range(4)])  # 15 simplices
    monkeypatch.setattr(budget, "PRODUCT_PAIR_LIMIT", 15 * 15)
    assert wu_intersection(facet, facet) == wu_characteristic(facet, 2) == -1
    monkeypatch.setattr(budget, "PRODUCT_PAIR_LIMIT", 15 * 15 - 1)
    monkeypatch.setattr(indices, "simplex_weight", weight)
    with pytest.raises(ResourceLimitError, match=(
            "^product needs 225 entry pairs, limit is 224$")):
        wu_intersection(facet, facet)


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

    def test_fold_budget_refuses_before_the_slot(self):
        from simhodge.operators import connection_basis

        # the 63 simplices of a 6-vertex facet: the first four slots of the
        # order-8 fold behind the characteristic would extend 736585 prefixes,
        # 667286 of them in the fourth
        facet = downward_closure([range(6)])
        with pytest.raises(ResourceLimitError, match=(
                "^order 8 fold needs 736585 extensions at slot 4, limit is 262144$")):
            wu_characteristic(facet, 8)
        for call in (multilinear_curvature, connection_basis):
            with pytest.raises(ResourceLimitError, match=(
                    r"^order 8 fold needs \d+ extensions at slot \d, limit is 262144$")):
                call(facet, 8)


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
                shares = brute_force_curvatures(c, k)
                assert multilinear_curvature(c, k) == shares, (name, k)


class TestVertexSpread:
    """Order 1 spreads each simplex, order 2 counts pairs from faces and
    higher orders enumerate the last slot; each must give the enumerated
    shares exactly, for any integer weights."""

    @settings(max_examples=60)
    @given(small_complexes, st.sampled_from([1, 2, 3]),
           st.sampled_from([1, 2 ** 40]), st.data())
    def test_random_integer_weights_against_brute_force(self, c, k, scale, data):
        weights = data.draw(st.lists(st.integers(-7, 7), min_size=len(c),
                                     max_size=len(c)))
        weights = [scale * w for w in weights]
        weight_of = dict(zip(c, weights))
        assert vertex_spread(c, k, weights) == brute_force_curvatures(
            c, k, weight_of.__getitem__)

    def test_several_blocks_against_brute_force(self):
        """A complex with thousands of intersecting pairs: the face counts at
        order 2 and the simplex spread at order 1 against enumeration."""
        c = generate("random", 30, seed=4, edge_prob=0.4)
        assert sum(m.bit_count() for m in indices.intersection_masks(c)) > 2000
        for k in (1, 2):
            assert multilinear_curvature(c, k) == brute_force_curvatures(c, k), k

    @pytest.mark.parametrize("spare_bits", [1, 64 * 4 * 3, 10 ** 4])
    def test_block_size_does_not_change_the_field(self, suite, monkeypatch,
                                                  spare_bits):
        """Each vertex packs its numerators in blocks of k * bitlen(sum |w|)
        plus SLOT_SPARE_BITS bits; every spare width from one bit up must
        read back the same numerators."""
        c = suite["octahedron"]
        expected = {k: brute_force_curvatures(c, k) for k in (1, 2, 3)}
        monkeypatch.setattr(indices, "SLOT_SPARE_BITS", spare_bits)
        for k in (1, 2, 3):
            assert multilinear_curvature(c, k) == expected[k], k
        weights = [(-7) ** len(s) for s in c]  # mixed signs and sizes
        weight_of = dict(zip(c, weights))
        for k in (1, 2):
            assert vertex_spread(c, k, weights) == brute_force_curvatures(
                c, k, weight_of.__getitem__), k

    def test_order_two_on_many_isolated_vertices_is_linear(self):
        """Unpacking a |c| + |V| bit row for each of the 20003 prefixes took
        about 6 s on a 2-CPU host; counting from faces takes about 0.2 s."""
        import time

        c = downward_closure([(v,) for v in range(20000)] + [(20000, 20001, 20002)])
        started = time.monotonic()
        curvature = multilinear_curvature(c, 2)
        assert time.monotonic() - started < 2
        assert curvature[0] == 1 and curvature[20000] == Fraction(1, 3)
        assert sum(curvature.values()) == wu_characteristic(c, 2) == 20001

    @pytest.mark.parametrize("scale", [1, 2 ** 40])  # tallies past int64 at 2^40
    def test_integer_weights_against_weighted_brute_force(self, suite, scale):
        rng = random.Random(11)
        for name in ("wheel4", "octahedron", "random3"):
            c = suite[name]
            weights = [scale * rng.randint(-7, 7) for _ in c]
            weight_of = dict(zip(c, weights))
            for k in (1, 2, 3):
                if k == 3 and len(c) > 26:
                    continue
                assert vertex_spread(c, k, weights) == brute_force_curvatures(
                    c, k, weight_of.__getitem__), (name, k)

    def test_single_vertex(self):
        c = downward_closure([(7,)])
        for k in (1, 2, 3):
            assert multilinear_curvature(c, k) == {7: Fraction(1)}
            assert vertex_spread(c, k, [5]) == {7: Fraction(5 ** k)}

    def test_empty_complex(self):
        assert vertex_spread(downward_closure([]), 2, []) == {}

    def test_last_slot_pairs_refused_before_the_blocks(self):
        import time

        # order 3 on a 9-vertex facet: 121486 prefixes fold into 54912166
        # (prefix, last simplex) pairs, more than PRODUCT_PAIR_LIMIT
        started = time.monotonic()
        with pytest.raises(ResourceLimitError, match=(
                "^order 3 vertex spread needs 54912166 \\(prefix, last simplex\\) "
                "pairs, limit is 16777216$")):
            multilinear_curvature(downward_closure([range(9)]), 3)
        assert time.monotonic() - started < 1
        # an 8-vertex facet has 6451841 pairs and stays admitted
        assert sum(multilinear_curvature(downward_closure([range(8)]), 3).values()) \
            == 253


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

    def test_nan_value_rejected(self, k3):
        # NaN != NaN, so NaN values pass a set-based injectivity test
        with pytest.raises(InvalidInputError, match="NaN"):
            poincare_hopf(k3, {0: float("nan"), 1: float("nan"), 2: 2})

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

    def test_per_vertex_against_lower_sphere(self, suite):
        """Oracle: i(v) = 1 - chi of the part of the unit sphere of v where
        f is smaller, per vertex, for seeded injective functions."""
        rng = random.Random(5)
        for name, c in suite.items():
            vertices = sorted(c.base)
            for _ in range(3):
                values = rng.sample(range(10 * len(vertices)), len(vertices))
                f = dict(zip(vertices, values))
                expected = {v: 1 - sum(simplex_weight(y) for y in unit_sphere(c, v)
                                       if all(f[u] < f[v] for u in y))
                            for v in vertices}
                assert poincare_hopf(c, f) == expected, name

    def test_exact_ranking_of_huge_and_rational_values(self, c4):
        f = {0: 10 ** 400 + 1, 1: 10 ** 400, 2: Fraction(1, 3), 3: Fraction(1, 4)}
        assert poincare_hopf(c4, f) == poincare_hopf(c4, {0: 3, 1: 2, 2: 1, 3: 0})


class TestIndexExpectation:
    def test_exhaustive_is_curvature_on_small_suite(self, suite):
        for name, c in suite.items():
            if len(c.base) <= 7:
                result = index_expectation(c)
                assert result.values == gauss_bonnet_curvature(c), name

    def test_sampled_values_pinned(self):
        """Pinned floats: a change of the draw stream (one permutation per
        draw, in order) or of the summation shows here."""
        result = index_expectation(generate("wheel", 6), mode="sampled",
                                   samples=500, seed=3)
        assert result.values == {0: -0.002, 1: 0.16, 2: 0.172, 3: 0.18,
                                 4: 0.152, 5: 0.176, 6: 0.162}
        assert result.stderr == {
            0: 0.03492838387329136, 1: 0.024915858403835898,
            2: 0.02586178648121587, 3: 0.02512369399590753,
            4: 0.024037304341377384, 5: 0.025180309767753054,
            6: 0.024647758518778134}

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
        # 10! orderings times 10 vertices and 18 link entries: 101,606,400
        c = generate("path", 10)
        with pytest.raises(ResourceLimitError):
            index_expectation(c)

    def test_unknown_mode(self, k3):
        with pytest.raises(InvalidInputError):
            index_expectation(k3, mode="montecarlo")

    def test_non_positive_sample_count(self, k3):
        for samples in (0, -5):
            with pytest.raises(InvalidInputError):
                index_expectation(k3, mode="sampled", samples=samples)

    def test_negative_seed_rejected(self, k3):
        with pytest.raises(InvalidInputError, match="seed"):
            index_expectation(k3, mode="sampled", samples=10, seed=-1)

    def test_sample_budget_checked_before_drawing(self, k3, monkeypatch):
        from simhodge import budget, indices

        # a draw on k3 costs 3 vertices plus 9 link entries
        monkeypatch.setattr(budget, "MAX_INDEX_FIELD_WORK", 5 * 12)
        assert index_expectation(k3, mode="sampled", samples=5, seed=1).samples == 5

        def draw(*args):
            raise AssertionError("a draw ran before the budget was checked")

        monkeypatch.setattr(indices, "_index_field", draw)
        for samples in (6, 10 ** 23):
            with pytest.raises(ResourceLimitError):
                index_expectation(k3, mode="sampled", samples=samples)
        with pytest.raises(ResourceLimitError):  # no links: one unit per draw
            index_expectation(downward_closure([]), mode="sampled", samples=61)


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
