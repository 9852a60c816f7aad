"""Index notions, Wu characteristics, curvature, and Poincare-Hopf data.

Three pipelines compute the same number for an elliptic complex: dimension
counts (analytic), exact Betti alternating sums (cohomological), and vertex
curvature sums (topological).  Curvatures and indices are exact rationals;
floats appear only in sampled expectations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .complexes import (Complex, f_matrix, f_vector, intersection_masks,
                        simplex_weight, unit_sphere)
from .errors import InvalidInputError, ResourceLimitError
from .io import fraction_payload
from .operators import (GradedOperator, alternating_sum, connection_derivative,
                        exterior_derivative, iter_bits, tuple_fold,
                        tuple_weight_sum)
from .spectral import betti

EXHAUSTIVE_VERTEX_LIMIT = 8
SAMPLED_WORK_LIMIT = 10 ** 8  # draws times (vertices + link entries)


def analytic_index(e_dims, f_dims) -> int:
    """dim(ker D) - dim(ker D*) for D mapping E to F, which is dim E - dim F."""
    e_dims, f_dims = list(e_dims), list(f_dims)
    if any(d < 0 for d in e_dims + f_dims):
        raise InvalidInputError("dimensions must be non-negative")
    return sum(e_dims) - sum(f_dims)


def cohomological_index(betti_numbers) -> int:
    """Alternating sum of Betti numbers."""
    return alternating_sum(betti_numbers)


def valuation_evaluate(coefficients, c: Complex, sub: Complex = None):
    """Evaluate a linear or bilinear valuation on a complex or a subcomplex.

    A vector of length dim(c)+1 pairs with the f-vector; a square matrix of
    that size contracts against the f-matrix of intersecting ordered pairs.
    """
    target = c if sub is None else sub
    if sub is not None and not sub.simplices <= c.simplices:
        raise InvalidInputError("sub is not a subcomplex of c")
    x = np.asarray(coefficients, dtype=object)
    if x.ndim not in (1, 2):
        raise InvalidInputError("coefficients must be a vector or a square matrix")
    size = c.dimension + 1
    if x.shape != (size,) * x.ndim:
        raise InvalidInputError(
            f"expected shape {(size,) * x.ndim} for the coefficients, got {x.shape}")
    if not np.array_equal(x, x.T):
        raise InvalidInputError("bilinear valuation matrix must be symmetric")
    counts = np.asarray(f_vector(target) if x.ndim == 1 else f_matrix(target))
    padded = np.zeros(x.shape, dtype=object)  # a subcomplex may have lower dimension
    padded[tuple(slice(n) for n in counts.shape)] = counts
    return sum((x * padded).ravel())


def wu_intersection(a: Complex, b: Complex) -> int:
    """Sum of weight products over ordered intersecting pairs (x in a, y in b)."""
    total = 0
    b_items = [(set(y), simplex_weight(y)) for y in b.simplices]
    for x in a.simplices:
        xs, wx = set(x), simplex_weight(x)
        total += wx * sum(wy for ys, wy in b_items if xs & ys)
    return total


def wu_characteristic(c: Complex, k: int = 2) -> int:
    """Order-k characteristic: weight products over pairwise intersecting k-tuples.

    Order 1 is the Euler characteristic; order 2 the quadratic intersection
    characteristic.  Ordered tuples, repeats allowed.
    """
    _, meet = intersection_masks(c)
    return tuple_weight_sum(meet, k, [simplex_weight(s) for s in c])


def gauss_bonnet_curvature(c: Complex) -> dict[int, Fraction]:
    """Vertex curvature K(v), each simplex spreading its weight over its vertices.

    K(v) = sum over simplices x containing v of (-1)^dim(x) / (dim(x)+1),
    so the curvatures add up to the Euler characteristic exactly.
    """
    curvature = {v: Fraction(0) for v in c.base}
    for s in c.simplices:
        share = Fraction(simplex_weight(s), len(s))
        for v in s:
            curvature[v] += share
    return curvature


def sphere_curvature(c: Complex) -> dict[int, Fraction]:
    """The same curvature from link counts: 1 - V_0/2 + V_1/3 - V_2/4 + ...

    V_k(v) counts the k-simplices of the unit sphere of v.  Agrees with
    gauss_bonnet_curvature vertex by vertex.
    """
    out = {}
    for v in sorted(c.base):
        counts = (1,) + f_vector(unit_sphere(c, v))  # 1, V_0, V_1, ...
        out[v] = alternating_sum(Fraction(n, i + 1) for i, n in enumerate(counts))
    return out


def _vertex_tallies(c: Complex, k: int, weights) -> list[dict[int, int]]:
    """Per vertex (sorted order), the summed weight products of the pairwise
    intersecting k-tuples whose vertex union contains it, keyed by union size."""
    vmasks, meet = intersection_masks(c)
    tallies: list[dict[int, int]] = [{} for _ in c.base]
    for (allowed, prefix), w in tuple_fold(meet, k, weights, 0,
                                           lambda acc, i: acc | vmasks[i]).items():
        # group the last slot by final union, per prefix to keep memory flat
        unions: dict[int, int] = {}
        for i in iter_bits(allowed):
            union = prefix | vmasks[i]
            unions[union] = unions.get(union, 0) + w * weights[i]
        for union, total in unions.items():
            size = union.bit_count()
            for b in iter_bits(union):
                t = tallies[b]
                t[size] = t.get(size, 0) + total
    return tallies


def multilinear_curvature(c: Complex, k: int) -> dict[int, Fraction]:
    """Order-k curvature distributing each tuple weight over its vertex union.

    Every pairwise intersecting ordered k-tuple carries the product of its
    member weights; the share lands equally on the vertices of the union of
    its members, so the total over vertices is the order-k characteristic.
    Order 1 reduces to gauss_bonnet_curvature.
    """
    tallies = _vertex_tallies(c, k, [simplex_weight(s) for s in c])
    return {v: sum(Fraction(w, size) for size, w in t.items())
            for v, t in zip(sorted(c.base), tallies)}


def mean_tuple_curvature(c: Complex, k: int) -> dict[int, Fraction]:
    """Diagnostic per-vertex average of tuple weights over incident tuples.

    The plain mean over all pairwise intersecting k-tuples whose vertex union
    contains v.  Unlike multilinear_curvature it carries no sum identity."""
    sums = _vertex_tallies(c, k, [simplex_weight(s) for s in c])
    # never empty: the k-fold repeat of (v,) is a tuple containing v
    counts = _vertex_tallies(c, k, [1] * len(c))
    return {v: Fraction(sum(s.values()), sum(n.values()))
            for v, s, n in zip(sorted(c.base), sums, counts)}


def _links_with_weights(c: Complex) -> dict[int, list[tuple]]:
    links = {v: [] for v in c.base}
    for s in c.simplices:
        if len(s) > 1:
            w = -simplex_weight(s)  # removing one vertex flips the weight
            for i in range(len(s)):
                links[s[i]].append((s[:i] + s[i + 1:], w))
    return links


def _index_field(vertices, links, rank: dict) -> dict[int, int]:
    """i(v) = 1 - chi of the part of the unit sphere of v ranked below v."""
    out = {}
    for v in vertices:
        rv = rank[v]
        chi_lower = sum(w for y, w in links[v] if all(rank[u] < rv for u in y))
        out[v] = 1 - chi_lower
    return out


def poincare_hopf(c: Complex, f: dict) -> dict[int, int]:
    """Integer index field of an injective vertex function.

    i_f(v) = 1 - chi of the part of the unit sphere of v where f is smaller,
    and the indices add up to the Euler characteristic exactly.
    """
    try:
        values = {v: f[v] for v in c.base}
    except KeyError as missing:
        raise InvalidInputError(f"vertex function misses vertex {missing}") from None
    if any(x != x for x in values.values()):  # NaN is unequal to itself
        raise InvalidInputError("vertex function values must not be NaN")
    if len(set(values.values())) != len(values):
        raise InvalidInputError("vertex function must be injective")
    return _index_field(sorted(c.base), _links_with_weights(c), values)


def seeded_rng(seed: int | None) -> np.random.Generator:
    """numpy generator for a non-negative integer seed, or fresh entropy for None."""
    if seed is not None and seed < 0:
        raise InvalidInputError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


@dataclass
class ExpectationResult:
    """Average Poincare-Hopf indices over injective functions."""

    values: dict
    stderr: dict | None
    samples: int
    exhaustive: bool


def index_expectation(c: Complex, mode: str = "exhaustive", samples: int = 10000,
                      seed: int | None = None) -> ExpectationResult:
    """Average the Poincare-Hopf index field over vertex orderings.

    Exhaustive mode averages over all |V|! orderings with exact rationals and
    reproduces the Gauss-Bonnet curvature; sampled mode draws random orderings
    and reports a standard error per vertex.
    """
    vertices = sorted(c.base)
    n = len(vertices)
    links = _links_with_weights(c)
    if mode == "exhaustive":
        if n > EXHAUSTIVE_VERTEX_LIMIT:
            raise ResourceLimitError(
                f"exhaustive expectation limited to {EXHAUSTIVE_VERTEX_LIMIT} "
                f"vertices, complex has {n}")
        totals = {v: 0 for v in vertices}
        count = math.factorial(n)
        for perm in itertools.permutations(range(n)):
            rank = dict(zip(vertices, perm))
            for v, i in _index_field(vertices, links, rank).items():
                totals[v] += i
        values = {v: Fraction(t, count) for v, t in totals.items()}
        return ExpectationResult(values, None, count, True)
    if mode != "sampled":
        raise InvalidInputError("mode must be 'exhaustive' or 'sampled'")
    if samples < 1:
        raise InvalidInputError(f"sample count must be positive, got {samples}")
    per_draw = max(n + sum(map(len, links.values())), 1)
    if samples * per_draw > SAMPLED_WORK_LIMIT:
        raise ResourceLimitError(
            f"sampled expectation on this complex is limited to "
            f"{SAMPLED_WORK_LIMIT // per_draw} samples")
    rng = seeded_rng(seed)
    totals = {v: 0.0 for v in vertices}
    squares = {v: 0.0 for v in vertices}
    for _ in range(samples):
        rank = dict(zip(vertices, rng.permutation(n).tolist()))
        for v, i in _index_field(vertices, links, rank).items():
            totals[v] += i
            squares[v] += i * i
    means = {v: totals[v] / samples for v in vertices}
    stderr = {}
    for v in vertices:
        variance = max(squares[v] / samples - means[v] ** 2, 0.0)
        stderr[v] = math.sqrt(variance / samples)
    return ExpectationResult(means, stderr, samples, False)


@dataclass
class IndexTriple:
    """The three index computations and whether they coincide."""

    analytic: int
    cohomological: int
    topological: Fraction
    order: int

    @property
    def equal(self) -> bool:
        return self.analytic == self.cohomological == self.topological

    def to_payload(self) -> dict:
        return {
            "analytic": int(self.analytic),
            "cohomological": int(self.cohomological),
            "topological": fraction_payload(self.topological),
            "order": self.order,
            "equal": bool(self.equal),
        }

    @classmethod
    def from_invariants(cls, d: GradedOperator, betti_numbers, curvature: dict,
                        order: int) -> "IndexTriple":
        """The triple from an order's derivative, its Betti numbers and its
        vertex curvature: dimension count, Betti sum and curvature sum."""
        return cls(d.basis.alternating_dimension_sum(),
                   cohomological_index(betti_numbers),
                   sum(curvature.values(), Fraction(0)), order)


def index_theorem_report(c: Complex, k: int = 1) -> IndexTriple:
    """Compute the analytic, cohomological and topological indices independently.

    Order 1 uses the plain form complex (Euler characteristic); order k >= 2
    the connection complex of that order (order-k characteristic).
    """
    d = exterior_derivative(c) if k == 1 else connection_derivative(c, k)
    return IndexTriple.from_invariants(d, betti(d), multilinear_curvature(c, k), k)
