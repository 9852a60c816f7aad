"""Independent reference values for the benchmark's correctness gate.

Everything here is recomputed from a facet list with plain itertools and
numpy, without calling simhodge, so the gate compares the program against a
second implementation rather than against itself.  Betti numbers come from
float ranks of the boundary matrices; the inputs are small enough (at most a
few hundred rows per block, entries in {-1, 0, 1}) that the SVD rank is
unambiguous.
"""

from __future__ import annotations

import itertools

import numpy as np


class Facts:
    """Counts and characteristics of the complex spanned by a facet list."""

    def __init__(self, facets):
        labels = sorted({v for f in facets for v in f}, key=_label_key)
        index = {v: i for i, v in enumerate(labels)}
        simplices = set()
        for facet in facets:
            ids = sorted(index[v] for v in facet)
            for k in range(1, len(ids) + 1):
                simplices.update(itertools.combinations(ids, k))
        self.labels = labels
        self.simplices = sorted(simplices, key=lambda s: (len(s), s))
        top = max(len(s) for s in self.simplices)
        self.f_vector = [sum(1 for s in self.simplices if len(s) == k)
                         for k in range(1, top + 1)]
        self.euler = sum(n if k % 2 == 0 else -n
                         for k, n in enumerate(self.f_vector))
        incidence = np.zeros((len(self.simplices), len(labels)))
        for row, s in enumerate(self.simplices):
            incidence[row, list(s)] = 1.0
        self._meet = (incidence @ incidence.T > 0).astype(np.int64)
        self._weights = np.array([1 if len(s) % 2 else -1 for s in self.simplices],
                                 dtype=np.int64)

    def order2_tuples(self) -> int:
        """Ordered pairs of intersecting simplices."""
        return int(self._meet.sum())

    def wu(self, k: int) -> int:
        """Order-k characteristic for k = 2 or 3."""
        a, w = self._meet, self._weights
        if k == 2:
            return int(w @ a @ w)
        if k == 3:
            # sum over a, b of w_a w_b [a meets b] * sum over c meeting both of w_c
            middle = a @ (w[:, None] * a)
            return int(np.sum(np.outer(w, w) * a * middle))
        raise ValueError("wu supports orders 2 and 3")

    def betti(self) -> list[int]:
        """Betti numbers from float ranks of the boundary matrices."""
        by_dim = [[s for s in self.simplices if len(s) == k + 1]
                  for k in range(len(self.f_vector))]
        ranks = []
        for k in range(1, len(by_dim)):
            rows = {s: i for i, s in enumerate(by_dim[k - 1])}
            m = np.zeros((len(by_dim[k - 1]), len(by_dim[k])))
            for col, s in enumerate(by_dim[k]):
                for j in range(len(s)):
                    m[rows[s[:j] + s[j + 1:]], col] = -1.0 if j % 2 else 1.0
            ranks.append(int(np.linalg.matrix_rank(m)))
        ranks = [0] + ranks + [0]
        return [n - ranks[k] - ranks[k + 1] for k, n in enumerate(self.f_vector)]

    def lefschetz_number(self, mapping: dict) -> int:
        """Sum over fixed simplices of (-1)^dim times the sign of the induced order."""
        perm = {self.labels.index(a): self.labels.index(b)
                for a, b in mapping.items()}
        total = 0
        for s in self.simplices:
            image = [perm.get(v, v) for v in s]
            if sorted(image) == list(s):
                inversions = sum(1 for i, j in itertools.combinations(range(len(s)), 2)
                                 if image[i] > image[j])
                sign = -1 if inversions % 2 else 1
                total += sign * (1 if len(s) % 2 else -1)
        return total


def _label_key(label: str):
    return (0, int(label), "") if label.isdigit() else (1, 0, label)


def parse_facets(text: str) -> list[list[str]]:
    return [line.split("#")[0].split() for line in text.splitlines()
            if line.split("#")[0].split()]


def is_automorphism(facts: Facts, mapping: dict) -> bool:
    perm = {facts.labels.index(a): facts.labels.index(b) for a, b in mapping.items()}
    present = set(facts.simplices)
    return all(tuple(sorted(perm.get(v, v) for v in s)) in present
               for s in facts.simplices)
