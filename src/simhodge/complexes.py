"""Finite abstract simplicial complexes and their counting invariants.

A complex is a finite set of non-empty vertex sets closed under taking
non-empty subsets.  Vertices are non-negative integer ids; text labels, when
they exist, ride along in a side table and never affect the mathematics.
All constructors return immutable, hashable ``Complex`` values, so every
operation in this package is a pure function.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InvalidInputError

Simplex = tuple[int, ...]


def as_simplex(vertices) -> Simplex:
    """Canonical representative: strictly increasing tuple of vertex ids."""
    s = tuple(sorted(set(vertices)))
    if not s:
        raise InvalidInputError("a simplex must contain at least one vertex")
    for v in s:
        if not isinstance(v, (int, np.integer)) or v < 0:
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
    """Smallest complex containing the given facets."""
    simplices = set()
    for facet in facets:
        f = as_simplex(facet)
        for k in range(1, len(f) + 1):
            simplices.update(itertools.combinations(f, k))
    return Complex(simplices, labels=labels, validate=False)


def _check_simple_graph(vertices, edges):
    vset = set()
    for v in vertices:
        vset.add(int(v))
    eset = set()
    for e in edges:
        a, b = e
        a, b = int(a), int(b)
        if a == b:
            raise InvalidInputError(f"loop edge ({a},{a}) not allowed")
        if a not in vset or b not in vset:
            raise InvalidInputError(f"edge ({a},{b}) references an unknown vertex")
        eset.add((min(a, b), max(a, b)))
    return vset, eset


def _maximal_cliques(adjacency):
    """Bron-Kerbosch with pivoting over an adjacency dict v -> set of neighbors."""
    cliques = []

    def extend(r, p, x):
        if not p and not x:
            cliques.append(r)
            return
        pivot = max(p | x, key=lambda u: len(adjacency[u] & p))
        for v in sorted(p - adjacency[pivot]):
            extend(r | {v}, p & adjacency[v], x & adjacency[v])
            p = p - {v}
            x = x | {v}

    extend(frozenset(), set(adjacency), set())
    return cliques


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


def graphical_complex(vertices, edges) -> Complex:
    """Complex of all non-empty forests of a graph, over edge ids.

    Edge i of the sorted edge list becomes vertex i of the output; a set of
    edges is a simplex when it contains no cycle.  Labels record the original
    edge endpoints.
    """
    vset, eset = _check_simple_graph(vertices, edges)
    edge_list = sorted(eset)
    m = len(edge_list)
    forests = []

    def acyclic(edge_ids):
        parent = {}

        def find(u):
            while parent.setdefault(u, u) != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            return u

        for i in edge_ids:
            a, b = edge_list[i]
            ra, rb = find(a), find(b)
            if ra == rb:
                return False
            parent[ra] = rb
        return True

    def grow(current):
        forests.append(tuple(current))
        last = current[-1] if current else -1
        for i in range(last + 1, m):
            if acyclic(current + [i]):
                grow(current + [i])

    for i in range(m):
        grow([i])
    labels = {i: f"{a}-{b}" for i, (a, b) in enumerate(edge_list)}
    return Complex(forests, labels=labels, validate=False)


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
    Whitney complex of the containment graph.
    """
    order = list(c)
    sets = [frozenset(s) for s in order]
    n = len(order)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if sets[i] < sets[j] or sets[j] < sets[i]]
    labels = {i: ".".join(c.label_of(v) for v in s) for i, s in enumerate(order)}
    return whitney_complex(range(n), edges, labels=labels)


def unit_sphere(c: Complex, v: int) -> Complex:
    """The link of a vertex: simplices not containing v whose join with v is in c."""
    if v not in c.base:
        raise InvalidInputError(f"vertex {v} is not in the complex")
    keep = [s for s in c.simplices
            if v not in s and tuple(sorted(s + (v,))) in c.simplices]
    return Complex(keep, labels=c.labels, validate=False)


def f_vector(c: Complex) -> tuple[int, ...]:
    """Simplex counts (v_0, ..., v_d); empty tuple for the empty complex."""
    counts = [0] * (c.dimension + 1)
    for s in c.simplices:
        counts[len(s) - 1] += 1
    return tuple(counts)


def euler_characteristic(c: Complex) -> int:
    """Alternating count sum((-1)^dim(x)) over all simplices, an exact integer."""
    return sum(-1 if len(s) % 2 == 0 else 1 for s in c.simplices)


def vertex_masks(c: Complex) -> list[int]:
    """Vertex-set bitmask per simplex, aligned with the deterministic order."""
    bit = {v: 1 << i for i, v in enumerate(sorted(c.base))}
    return [sum(bit[v] for v in s) for s in c]


def intersection_masks(c: Complex) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Vertex masks and, per simplex, the bitmask of simplices meeting it.

    Both follow the deterministic order.  Simplex i meets simplex j exactly
    when they share a vertex, so each meet mask is the union over the
    vertices of i of the simplices containing that vertex.  Computed once per
    complex.
    """
    if c._meet is None:
        masks = tuple(vertex_masks(c))
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
        c._meet = (masks, tuple(meet))
    return c._meet


def f_matrix(c: Complex) -> np.ndarray:
    """Counts of ordered intersecting simplex pairs by dimension pair.

    Entry (k, l) is the number of ordered pairs (a, b) with dim a = k,
    dim b = l and a meeting b.  Symmetric, with diagonal at least the
    f-vector since every simplex meets itself.
    """
    d = c.dimension
    if d < 0:
        return np.zeros((0, 0), dtype=np.int64)
    layers = [0] * (d + 1)
    for i, s in enumerate(c):
        layers[len(s) - 1] |= 1 << i
    out = np.zeros((d + 1, d + 1), dtype=np.int64)
    for s, m in zip(c, intersection_masks(c)[1]):
        out[len(s) - 1] += [(m & layer).bit_count() for layer in layers]
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
    fixes the alternating vector (1, -1, 1, ...), the Euler valuation.
    """
    if d < 0:
        raise InvalidInputError("dimension must be non-negative")
    s = np.zeros((d + 1, d + 1), dtype=np.int64)
    for i in range(1, d + 2):
        for j in range(1, d + 2):
            s[i - 1, j - 1] = math.factorial(i) * stirling2(j, i)
    return s


_FAMILIES = ("simplex", "cycle", "path", "wheel", "star", "octahedron", "random")


def generate(family: str, n: int | None = None, seed: int | None = None,
             edge_prob: float = 0.5) -> Complex:
    """Deterministic test-corpus complexes.

    Families: full simplex on n vertices, the discrete circle (n >= 4), the
    path, the wheel over an n-cycle rim (n >= 4), the n-pointed star, the
    octahedron, and the Whitney complex of a seeded Erdos-Renyi graph.
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
    # random: Whitney complex of G(n, p)
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < edge_prob]
    return whitney_complex(range(n), edges)


def random_subcomplex(c: Complex, rng, keep_prob: float = 0.5) -> Complex:
    """Downward closure of a random subset of simplices; always a subcomplex."""
    chosen = [s for s in c if rng.random() < keep_prob]
    return downward_closure(chosen, labels=c.labels)
