"""Finite abstract simplicial complexes and their counting invariants.

A complex is a finite set of non-empty vertex sets closed under taking
non-empty subsets.  Vertices are non-negative integer ids; text labels, when
they exist, ride along in a side table and never affect the mathematics.
All constructors return immutable, hashable ``Complex`` values, so every
operation in this package is a pure function.  ``tuple_fold`` walks every
pairwise intersecting tuple over meet masks built once per complex.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator

from . import budget
from . import _np as np
from .errors import InvalidInputError

Simplex = tuple[int, ...]


def as_simplex(vertices) -> Simplex:
    """Canonical representative: strictly increasing tuple of vertex ids."""
    s = tuple(sorted(set(vertices)))
    if not s:
        raise InvalidInputError("a simplex must contain at least one vertex")
    for v in s:
        if not isinstance(v, numbers.Integral) or v < 0:
            raise InvalidInputError(f"vertex ids must be non-negative integers, got {v!r}")
    return tuple(int(v) for v in s)


class Complex:
    """A finite abstract simplicial complex.

    ``simplices`` is a frozenset of sorted integer tuples.  Construction
    verifies closure under non-empty subsets (it suffices to check all
    codimension-one faces).  The empty complex is allowed and propagates
    through every operation.
    """

    __slots__ = ("simplices", "base", "labels", "_sorted", "_meet")

    def __init__(self, simplices, labels=None, validate=True):
        canon = frozenset(as_simplex(s) for s in simplices) if validate \
            else frozenset(simplices)
        if validate:
            for s in canon:
                if len(s) > 1:
                    for i in range(len(s)):
                        if s[:i] + s[i + 1:] not in canon:
                            raise InvalidInputError(
                                f"not closed under subsets: {s} present but "
                                f"{s[:i] + s[i + 1:]} missing")
        self.simplices = canon
        self.base = frozenset(v for s in canon for v in s)
        self.labels = dict(labels) if labels else None
        self._sorted = tuple(sorted(canon, key=lambda s: (len(s), s)))
        self._meet = None

    @property
    def dimension(self) -> int:
        """Maximal simplex dimension; -1 for the empty complex."""
        return max((len(s) for s in self.simplices), default=0) - 1

    def __len__(self):
        return len(self.simplices)

    def __iter__(self):
        """Deterministic iteration: dimension-major, lexicographic."""
        return iter(self._sorted)

    def __contains__(self, simplex):
        return tuple(sorted(set(simplex))) in self.simplices

    def __eq__(self, other):
        return isinstance(other, Complex) and self.simplices == other.simplices

    def __hash__(self):
        return hash(self.simplices)

    def __repr__(self):
        return f"Complex({len(self.simplices)} simplices, dim {self.dimension})"

    def label_of(self, v: int) -> str:
        return self.labels[v] if self.labels else str(v)

    def facets(self) -> list[Simplex]:
        """Maximal simplices, in deterministic order."""
        # closed under subsets: a simplex is maximal unless it is a
        # codimension-one face of another simplex
        faces = {s[:i] + s[i + 1:] for s in self.simplices for i in range(len(s))}
        return [s for s in self._sorted if s not in faces]

    def union(self, other: "Complex") -> "Complex":
        return Complex(self.simplices | other.simplices,
                       labels=self._merged_labels(other), validate=False)

    def intersection(self, other: "Complex") -> "Complex":
        return Complex(self.simplices & other.simplices,
                       labels=self._merged_labels(other), validate=False)

    __or__ = union
    __and__ = intersection

    def _merged_labels(self, other):
        if other.labels is None or other.labels == self.labels:
            return self.labels
        if self.labels is None:
            return other.labels
        return None


def downward_closure(facets, labels=None) -> Complex:
    """Smallest complex containing the facets, refused once over SIMPLEX_LIMIT."""
    simplices = set()
    for facet in facets:
        f = as_simplex(facet)
        budget.require(spans := (1 << len(f)) - 1, budget.SIMPLEX_LIMIT,
                       f"a facet on {len(f)} vertices spans {spans} simplices")
        for k in range(1, len(f) + 1):
            simplices.update(itertools.combinations(f, k))
        budget.require(len(simplices), budget.SIMPLEX_LIMIT,
                       f"the facets span at least {len(simplices)} simplices")
    return Complex(simplices, labels=labels, validate=False)


def _check_simple_graph(vertices, edges):
    vset = {int(v) for v in vertices}
    eset = set()
    for e in edges:
        a, b = map(int, e)
        if a == b:
            raise InvalidInputError(f"loop edge ({a},{a}) not allowed")
        if a not in vset or b not in vset:
            raise InvalidInputError(f"edge ({a},{b}) references an unknown vertex")
        eset.add((min(a, b), max(a, b)))
    return vset, eset


def _maximal_cliques(adjacency):
    """Bron-Kerbosch with pivoting over v -> neighbor sets; a lazy generator."""

    def extend(r, p, x):
        if not p and not x:
            yield r
            return
        pivot = max(p | x, key=lambda u: len(adjacency[u] & p))
        for v in sorted(p - adjacency[pivot]):
            yield from extend(r | {v}, p & adjacency[v], x & adjacency[v])
            p.discard(v)  # p and x are this call's own sets
            x.add(v)

    return extend(frozenset(), set(adjacency), set())


def whitney_complex(vertices, edges, labels=None) -> Complex:
    """Complex whose simplices are the cliques of a simple graph."""
    vset, eset = _check_simple_graph(vertices, edges)
    if not vset:
        return Complex((), labels=labels, validate=False)
    adjacency = {v: set() for v in vset}
    for a, b in eset:
        adjacency[a].add(b)
        adjacency[b].add(a)
    return downward_closure(_maximal_cliques(adjacency), labels=labels)


def skeleton(c: Complex, k: int) -> Complex:
    """Subcomplex of all simplices of dimension at most k."""
    if k < 0:
        raise InvalidInputError("skeleton dimension must be non-negative")
    keep = [s for s in c.simplices if len(s) <= k + 1]
    return Complex(keep, labels=c.labels, validate=False)


def barycentric_refinement(c: Complex) -> Complex:
    """Refined complex: vertices are the simplices of c, simplices its chains.

    Two simplices of c are adjacent when one contains the other, and every
    pairwise comparable set is totally ordered, so the refinement is the
    Whitney complex of the containment graph; its exact size is checked first.
    """
    size = sum(barycentric_f_vector(f_vector(c)))
    budget.require(size, budget.SIMPLEX_LIMIT,
                   f"the refinement would have {size} simplices")
    order = list(c)
    index = {s: i for i, s in enumerate(order)}
    edges = [(index[face], i) for i, s in enumerate(order)
             for k in range(1, len(s)) for face in itertools.combinations(s, k)]
    labels = {i: ".".join(c.label_of(v) for v in s) for i, s in enumerate(order)}
    return whitney_complex(range(len(order)), edges, labels=labels)


def f_vector(c: Complex) -> tuple[int, ...]:
    """Simplex counts (v_0, ..., v_d); empty tuple for the empty complex."""
    counts = [0] * (c.dimension + 1)
    for s in c.simplices:
        counts[len(s) - 1] += 1
    return tuple(counts)


def simplex_weight(s) -> int:
    """(-1)^dim for a simplex given as a vertex tuple."""
    return -1 if len(s) % 2 == 0 else 1


def euler_characteristic(c: Complex) -> int:
    """Alternating count sum((-1)^dim(x)) over all simplices, an exact integer."""
    return sum(simplex_weight(s) for s in c.simplices)


def intersection_masks(c: Complex) -> tuple[int, ...]:
    """Per simplex, in the deterministic order, the bitmask of the simplices
    meeting it: the union of the vertex stars of its vertices.  Computed once
    per complex, after their |c|^2 / 8 bytes are checked against the budget.
    """
    if c._meet is None:
        budget.require(len(c), budget.meet_mask_simplices(),
                       f"meet masks over {len(c)} simplices")
        star = {v: 0 for v in c.base}
        for i, s in enumerate(c):
            for v in s:
                star[v] |= 1 << i
        meet = []
        for s in c:
            m = 0
            for v in s:
                m |= star[v]
            meet.append(m)
        c._meet = tuple(meet)
    return c._meet


def iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def tuple_fold(c: Complex, k: int, weights, acc0, step) -> dict:
    """Fold the first k-1 slots of the pairwise intersecting k-tuples of c.

    From the empty prefix, which allows every simplex, each step appends
    each allowed simplex i, narrows the allowed mask by the meet mask of i,
    multiplies in weights[i] and updates the accumulator to step(acc, i).
    Returns {(allowed, acc): summed weight product} over the (k-1)-prefixes;
    callers finish the k-th slot over the bits of ``allowed``.  Order 1
    folds no slot, so it builds no meet masks.  Before each slot runs, the
    extensions (the bits of every ``allowed``) summed over it and the slots
    before it are refused over ``budget.fold_extensions``: SIMPLEX_LIMIT, or
    the memory budget at |c| mask bits each.
    """
    if k < 1:
        raise InvalidInputError("order must be at least 1")
    prefixes = {((1 << len(c)) - 1, acc0): 1}
    meet = intersection_masks(c) if k > 1 else ()
    work = 0
    for slot in range(1, k):
        work += sum(allowed.bit_count() for allowed, _ in prefixes)
        budget.require(work, budget.fold_extensions(len(c)),
                       f"order {k} fold needs {work} extensions at slot {slot}")
        grown = {}
        for (allowed, acc), w in prefixes.items():
            for i in iter_bits(allowed):
                key = (allowed & meet[i], step(acc, i))
                grown[key] = grown.get(key, 0) + w * weights[i]
        prefixes = grown
        if not prefixes:  # an empty complex: every later slot is empty too
            break
    return prefixes


def layer_fold(c: Complex, k: int, acc0, step):
    """Triples (acc, dim, count): ``count`` pairwise intersecting k-tuples
    fold their first k-1 slots to ``acc`` and end in a dim-simplex."""
    fv = f_vector(c)  # c iterates dimension-major: one bit range per layer
    layers = [((1 << n) - 1) << start
              for n, start in zip(fv, itertools.accumulate(fv, initial=0))]
    for (allowed, acc), w in tuple_fold(c, k, [1] * len(c), acc0, step).items():
        for dim, layer in enumerate(layers):
            yield acc, dim, w * (allowed & layer).bit_count()


def f_matrix(c: Complex) -> np.ndarray:
    """Counts of ordered intersecting simplex pairs by dimension pair.

    Entry (k, l) is the number of ordered pairs (a, b) with dim a = k,
    dim b = l and a meeting b: the order-2 fold keyed by dim a.  Symmetric,
    with diagonal at least the f-vector since every simplex meets itself.
    """
    dims = [len(s) - 1 for s in c]
    out = np.zeros((c.dimension + 1,) * 2, dtype=np.int64)
    for first, dim, count in layer_fold(c, 2, None, lambda acc, i: dims[i]):
        out[first, dim] += count
    return out


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k), via the usual recurrence."""
    if n < 0 or k < 0:
        raise InvalidInputError("stirling2 arguments must be non-negative")
    row = [1] + [0] * k
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def barycentric_operator(d: int) -> np.ndarray:
    """Matrix S mapping f-vectors to refined f-vectors, S_ij = i! * S2(j, i).

    Indices run over 1..d+1 and land in rows/columns 0..d.  The transpose
    fixes the alternating vector (1, -1, 1, ...), the Euler valuation.  The
    entries are exact Python integers (an object array): from d = 18 on some
    pass the int64 range.
    """
    if d < 0:
        raise InvalidInputError("dimension must be non-negative")
    return np.array(_barycentric_rows(d), dtype=object)


def _barycentric_rows(d: int) -> list[list[int]]:
    """The rows of ``barycentric_operator(d)``, Python integers; none for d = -1."""
    return [[math.factorial(i) * stirling2(j, i) for j in range(1, d + 2)]
            for i in range(1, d + 2)]


def barycentric_f_vector(fv) -> list[int]:
    """S fv, the f-vector of the refinement of a complex with f-vector ``fv``."""
    return [sum(map(operator.mul, row, fv)) for row in _barycentric_rows(len(fv) - 1)]


_FAMILIES = ("simplex", "cycle", "path", "wheel", "star", "octahedron", "random")


def seeded_rng(seed: int | None) -> np.random.Generator:
    """numpy generator for a non-negative integer seed, or fresh entropy for None."""
    if seed is not None and seed < 0:
        raise InvalidInputError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def generate(family: str, n: int | None = None, seed: int = 0,
             edge_prob: float = 0.5) -> Complex:
    """Deterministic test-corpus complexes.

    Families: full simplex on n vertices, the discrete circle (n >= 4), the
    path, the wheel over an n-cycle rim (n >= 4), the n-pointed star, the
    octahedron, and the Whitney complex of an Erdos-Renyi graph drawn from
    ``seed``, 0 unless given, so every call with the same arguments gives
    the same complex.
    """
    if family not in _FAMILIES:
        raise InvalidInputError(f"unknown family {family!r}; choose from {_FAMILIES}")
    if family == "octahedron":
        groups = [(0, 1), (2, 3), (4, 5)]
        edges = [(a, b) for g, h in itertools.combinations(groups, 2)
                 for a in g for b in h]
        return whitney_complex(range(6), edges)
    if n is None or n < 1:
        raise InvalidInputError(f"family {family!r} needs a positive size n")
    if family == "simplex":
        return downward_closure([range(n)])
    if family == "cycle":
        if n < 4:
            raise InvalidInputError("a discrete circle needs n >= 4")
        return downward_closure([(i, (i + 1) % n) for i in range(n)])
    if family == "path":
        if n == 1:
            return downward_closure([(0,)])
        return downward_closure([(i, i + 1) for i in range(n - 1)])
    if family == "star":
        return downward_closure([(0, i) for i in range(1, n + 1)])
    if family == "wheel":
        if n < 4:
            raise InvalidInputError("a wheel rim needs n >= 4")
        rim = [(i, i % n + 1) for i in range(1, n + 1)]
        spokes = [(0, i) for i in range(1, n + 1)]
        return whitney_complex(range(n + 1), rim + spokes)
    # random: Whitney complex of G(n, p); each vertex pair draws one coin and
    # may become an edge, a simplex, so the pairs are charged as simplices
    pairs = n * (n - 1) // 2
    budget.require(pairs, budget.SIMPLEX_LIMIT,
                   f"random({n}) draws a coin for each of {pairs} vertex pairs")
    rng = seeded_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < edge_prob]
    return whitney_complex(range(n), edges)

