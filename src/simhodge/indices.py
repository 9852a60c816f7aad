"""Index notions, Wu characteristics, curvature, and Poincare-Hopf data.

Three pipelines compute the same number for an elliptic complex: dimension
counts (analytic), exact Betti alternating sums (cohomological), and vertex
curvature sums (topological).  Curvatures and indices are exact rationals;
floats appear only in sampled expectations.

The order-k curvature K(v) sums w / |U| over the pairwise intersecting
ordered k-tuples of weight product w whose union U contains v (Knill 2016).
At order 2, K(v) = 2 sum_{x ni v} w(x) T(x) - sum_{S ni v} P(S) over faces S
(``_pair_tallies``): no pair is listed, and the curvature total and the
characteristic, a tuple fold, come from independent routes.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import budget
from . import _np as np
from .complexes import (Complex, f_matrix, f_vector, intersection_masks,
                        iter_bits, seeded_rng, simplex_weight, tuple_fold)
from .errors import InvalidInputError
from .intlinalg import as_integer
from .io import fraction_payload
from .operators import (GradedOperator, alternating_sum, connection_degree_counts,
                        connection_derivative, exterior_derivative)
from .spectral import betti

# headroom of each packed numerator slot above the bound k * bitlen(sum |w|):
# one bit holds the sign, since no entry reaches (sum |w|)^k
SLOT_SPARE_BITS = 2


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
    members' weights, shared equally among the vertices of their union U:
    K(v) = sum of w / |U| over the tuples with v in U.  Each vertex tallies
    exact numerators by union size in one packed integer (``_unpack``).
    Order 1 spreads each simplex over itself, order 2 counts from faces
    (``_pair_tallies``), and higher orders fold the first k-1 slots with
    ``tuple_fold`` and enumerate the last.  The (prefix, last simplex) pairs,
    at order 2 the meet-mask bits, are charged against PRODUCT_PAIR_LIMIT
    before other work.
    """
    weights, vertices = [as_integer(w) for w in weights], sorted(c.base)
    if k == 1:
        pairs = len(c)
    elif k == 2:
        pairs = sum(meet.bit_count() for meet in intersection_masks(c))
    else:
        column = {v: j for j, v in enumerate(vertices)}
        vmasks = [sum(1 << column[v] for v in s) for s in c]
        prefixes = tuple_fold(c, k, weights, 0, lambda acc, i: acc | vmasks[i])
        pairs = sum(allowed.bit_count() for allowed, _ in prefixes)
    budget.require(pairs, budget.PRODUCT_PAIR_LIMIT, f"order {k} vertex spread "
                   f"needs {pairs} (prefix, last simplex) pairs")
    # an entry sums weight products of distinct tuples: |entry| <= (sum |w|)^k
    bits = k * sum(map(abs, weights)).bit_length() + SLOT_SPARE_BITS
    if k == 1:
        tallies = _union_tallies(c, zip(c, weights), bits)
    elif k == 2:
        tallies = _pair_tallies(c, weights, bits)
    else:
        totals = {}  # by union mask: each allowed last simplex i joins vmasks[i]
        for (allowed, union), w in prefixes.items():
            for i in iter_bits(allowed):
                key = union | vmasks[i]
                totals[key] = totals.get(key, 0) + w * weights[i]
        tallies = _union_tallies(c, (([vertices[j] for j in iter_bits(union)], w)
                                     for union, w in totals.items()), bits)
    scale = math.lcm(*range(1, k * (c.dimension + 1) + 1))  # of every union size
    return {v: Fraction(sum(n * (scale // size) for size, n
                            in enumerate(_unpack(tallies[v], bits)) if n), scale)
            for v in vertices}


def _unpack(packed: int, bits: int) -> list[int]:
    """The entries n_0, n_1, ... of the packed vector sum n_i 2^(bits i).

    Sums, integer multiples and shifts of packed vectors are those of the
    vectors, and a product of two is their convolution.  The entries are
    read back exactly while each lies in [-2^(bits-1), 2^(bits-1)).
    """
    half, mask, entries = 1 << bits - 1, (1 << bits) - 1, []
    while packed:
        entries.append(((packed + half) & mask) - half)
        packed = (packed - entries[-1]) >> bits
    return entries


def _union_tallies(c: Complex, unions, bits) -> dict:
    """{vertex: packed numerators by union size} from (union vertices,
    summed weight) items: each weight goes to each vertex of its union."""
    tallies = dict.fromkeys(c.base, 0)
    for union, w in unions:
        if w:
            packed = w << bits * len(union)
            for v in union:
                tallies[v] += packed
    return tallies


def _pair_tallies(c: Complex, weights, bits) -> dict:
    """{vertex: packed numerators by union size} of the ordered intersecting
    pairs, counted from faces by Moebius inversion (Rota 1964): no pair is
    listed.

    F(S, b) sums w(y) over the b-vertex simplices y containing the face S,
    packed by b, in one pass over the faces of every simplex.  Since
    1{v in x | y} = 1{v in x} + 1{v in y} - 1{v in x & y} and the pairs are
    symmetric, K(v) = 2 sum_{x ni v} w(x) T(x) - sum_{S ni v} P(S), where
    with a = |x|, s = |S| and the sums over r = 1..s:

    - T(x) = sum_{S in x, b, r} (-1)^(s-r) C(s, r) F(S, b) / (a+b-r): the y
      of b vertices meeting x in exactly r weigh the alternating sum over
      s >= r of C(s, r) times F over the s-faces of x;
    - P(S) = sum_{a, b, r} (-1)^(s-r) C(s-1, r-1) F(S, a) F(S, b) / (a+b-r),
      which summed over the S with v in S in x & y counts each pair (x, y)
      once, at its union size a + b - |x & y|.
    """
    width = c.dimension + 1
    cofaces = dict.fromkeys(c, 0)  # F(S, .) packed by b
    for y, w in zip(c, weights):
        if w:
            for s in range(1, len(y) + 1):
                for face in itertools.combinations(y, s):
                    cofaces[face] += w << bits * len(y)
    # inverse[s][r] = (-1)^(s-r) C(s, r) turns sums over faces into exact meets
    inverse = [[(-1) ** (s - r) * math.comb(s, r) for r in range(s + 1)]
               for s in range(width + 1)]
    tallies = dict.fromkeys(c.base, 0)
    for x, w in zip(c, weights):
        if w:
            a = len(x)
            sums = [sum(map(cofaces.__getitem__, itertools.combinations(x, s)))
                    for s in range(1, a + 1)]  # F over the s-faces of x, by b
            t = sum(sum(inverse[s][r] * sums[s - 1] for s in range(r, a + 1))
                    << bits * (a - r) for r in range(1, a + 1))
            for v in x:
                tallies[v] += 2 * w * t
    for face, f in cofaces.items():
        if f:
            s, square = len(face), f * f  # divisible by 2^(bits 2s)
            p = sum(inverse[s - 1][r - 1] * (square >> bits * r)
                    for r in range(1, s + 1))
            for v in face:
                tallies[v] -= p
    return tallies


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


class ExpectationResult:
    """Average Poincare-Hopf indices over injective functions."""

    def __init__(self, values: dict, stderr: dict | None, samples: int,
                 exhaustive: bool):
        self.values, self.stderr = values, stderr
        self.samples, self.exhaustive = samples, exhaustive


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


class IndexTriple:
    """The three index computations and whether they coincide."""

    def __init__(self, analytic: int, cohomological: int, topological: Fraction,
                 order: int):
        self.analytic, self.cohomological = analytic, cohomological
        self.topological, self.order = topological, order

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
