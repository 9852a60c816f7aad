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

from . import budget
from . import _np as np
from .complexes import Complex, f_matrix, f_vector, simplex_weight, tuple_fold
from .errors import InvalidInputError
from .io import fraction_payload
from .operators import (GradedOperator, alternating_sum, connection_degree_counts,
                        connection_derivative, exterior_derivative)
from .spectral import betti

# Scratch bytes per block of the vertex spread: one per simplex for each prefix,
# and about 64 per (prefix, last simplex) pair and vertex slot of that simplex.
SPREAD_BLOCK_BYTES = 2 ** 21


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
    """Sum of weight products over ordered intersecting pairs (x in a, y in b),
    refused over PRODUCT_PAIR_LIMIT pairs before the first."""
    budget.require_pairs(len(a) * len(b))
    total = 0
    b_items = [(set(y), simplex_weight(y)) for y in b.simplices]
    for x in a.simplices:
        xs, wx = set(x), simplex_weight(x)
        total += wx * sum(wy for ys, wy in b_items if xs & ys)
    return total


def wu_characteristic(c: Complex, k: int = 2) -> int:
    """Order-k characteristic: weight products over pairwise intersecting k-tuples.

    Order 1 is the Euler characteristic; order 2 the quadratic intersection
    characteristic.  Ordered tuples, repeats allowed.  A tuple's weight
    product is (-1)^(total degree): an alternating sum of the degree counts.
    """
    return alternating_sum(connection_degree_counts(c, k))


def vertex_spread(c: Complex, k: int, weights) -> dict[int, Fraction]:
    """Push integer per-simplex weights onto the vertices.

    Every pairwise intersecting ordered k-tuple carries the product of its
    members' weights, shared equally among the vertices of their union.  The
    last slot runs over blocks of (prefix, last simplex) pairs: each pair's
    weight goes to the vertices it adds, each prefix's pair totals to its own.
    More than PRODUCT_PAIR_LIMIT pairs are refused before the first block.
    """
    vertices = sorted(c.base)
    n, nv, width = len(c), len(vertices), max(c.dimension + 1, 1)
    column = {v: j for j, v in enumerate(vertices)}
    vmasks = [sum(1 << column[v] for v in s) for s in c]
    prefixes = tuple_fold(c, k, weights, 0, lambda acc, i: acc | vmasks[i])
    pairs = sum(allowed.bit_count() for allowed, _ in prefixes)
    budget.require(pairs, budget.PRODUCT_PAIR_LIMIT, f"order {k} vertex spread "
                   f"needs {pairs} (prefix, last simplex) pairs")
    members = np.full((n, width), nv, dtype=np.min_scalar_type(nv))  # nv pads
    for i, s in enumerate(c):
        members[i, :len(s)] = [column[v] for v in s]
    big = sum(map(abs, prefixes.values())) * sum(map(abs, weights)) >= 2 ** 63
    dtype = object if big else np.int64  # int64 unless a tally could overflow
    last_weight = np.array(weights, dtype=dtype)
    tallies = np.zeros((nv + 1, min(nv, k * width) + 1), dtype=dtype)  # vertex, size
    step, row_bytes = max(1, SPREAD_BLOCK_BYTES // (64 * width)), (n + nv + 8) // 8
    spent = itertools.accumulate(n + 64 * width * a.bit_count() for a, _ in prefixes)
    for _, group in itertools.groupby(zip(prefixes, spent),
                                      lambda e: e[1] // SPREAD_BLOCK_BYTES):
        block = [key for key, _ in group]
        # per prefix: allowed simplices, then union vertices and the pad nv
        raw = b"".join((a | (u | 1 << nv) << n).to_bytes(row_bytes, "little")
                       for a, u in block)
        bits = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(len(block), -1),
                             axis=1, count=n + nv + 1, bitorder="little").view(bool)
        (rows, last), inside = np.nonzero(bits[:, :n]), bits[:, n:]
        prefix_size = inside.sum(axis=1) - 1
        prefix_weight = np.array([prefixes[key] for key in block], dtype=dtype)
        totals = np.zeros((len(block), tallies.shape[1]), dtype=dtype)
        for at in range(0, len(rows), step):
            p, x = rows[at:at + step], last[at:at + step]
            new = ~inside[p[:, None], members[x]]
            union = prefix_size[p] + new.sum(axis=1)
            w = prefix_weight[p] * last_weight[x]
            np.add.at(totals, (p, union), w)
            j, slot = np.nonzero(new)
            np.add.at(tallies, (members[x[j], slot], union[j]), w[j])
        tallies += inside.T.astype(dtype) @ totals
    return {v: sum((Fraction(w, s) for s, w in enumerate(t.tolist()) if w), Fraction(0))
            for v, t in zip(vertices, tallies)}


def multilinear_curvature(c: Complex, k: int) -> dict[int, Fraction]:
    """Order-k curvature: the vertex spread of the weights (-1)^dim.

    The total over vertices is the order-k characteristic.  Order 1 is the
    Gauss-Bonnet curvature, K(v) = sum over simplices x containing v of
    (-1)^dim(x) / (dim(x)+1), which adds up to the Euler characteristic.
    """
    return vertex_spread(c, k, [simplex_weight(s) for s in c])


def _index_field(c: Complex, ranks: np.ndarray) -> np.ndarray:
    """Index fields, one row per row of ``ranks`` (draws x sorted vertices).

    Each simplex s adds (-1)^dim s to its highest-ranked vertex, so i(v) is
    1 - chi of the part of the unit sphere of v ranked below v.
    """
    draws, n = ranks.shape
    column = {v: j for j, v in enumerate(sorted(c.base))}
    offsets = np.arange(draws)[:, None] * n
    field = np.zeros(draws * n, dtype=np.int64)
    for _, group in itertools.groupby(c, key=len):  # dimension-major
        members = np.array([[column[v] for v in s] for s in group])
        top = members[np.arange(len(members)), ranks[:, members].argmax(axis=2)]
        field += simplex_weight(members[0]) * np.bincount(
            (top + offsets).ravel(), minlength=draws * n)
    return field.reshape(draws, n)


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
    vertices = sorted(c.base)
    # a Python sort ranks huge ints and Fractions exactly
    order = sorted(range(len(vertices)), key=lambda j: values[vertices[j]])
    return dict(zip(vertices, _index_field(c, np.argsort(order)[None])[0].tolist()))


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
    and reports a standard error per vertex.  Either is refused when its
    orderings times (vertices + link entries) pass MAX_INDEX_FIELD_WORK.
    """
    vertices = sorted(c.base)
    n = len(vertices)
    per_draw = max(sum(map(len, c)), 1)  # vertices plus link entries
    most = budget.MAX_INDEX_FIELD_WORK // per_draw  # orderings
    if mode == "exhaustive":
        count = 1
        for i in range(2, n + 1):  # n!, cut short once it is over budget
            if count > most:
                break
            count *= i
        budget.require(count, most, f"exhaustive expectation on this complex "
                       f"needs at least {count} orderings")
        rows = itertools.permutations(range(n))
    elif mode != "sampled":
        raise InvalidInputError("mode must be 'exhaustive' or 'sampled'")
    elif samples < 1:
        raise InvalidInputError(f"sample count must be positive, got {samples}")
    else:
        budget.require(samples, most, f"sampled expectation on this complex "
                       f"needs {samples} samples")
        rng = seeded_rng(seed)
        rows, count = (rng.permutation(n) for _ in range(samples)), samples
    # exact int64 sums of the fields and their squares, ~2^18 entries a batch
    totals = squares = np.zeros(n, dtype=np.int64)
    while batch := list(itertools.islice(rows, max(1, 2 ** 18 // per_draw))):
        field = _index_field(c, np.array(batch, dtype=np.int64))
        totals = totals + field.sum(axis=0)
        squares = squares + (field * field).sum(axis=0)
    if mode == "exhaustive":
        values = {v: Fraction(t, count) for v, t in zip(vertices, totals.tolist())}
        return ExpectationResult(values, None, count, True)
    means = {v: t / count for v, t in zip(vertices, totals.tolist())}
    stderr = {v: math.sqrt(max(sq / count - means[v] ** 2, 0.0) / count)
              for v, sq in zip(vertices, squares.tolist())}
    return ExpectationResult(means, stderr, count, False)


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
