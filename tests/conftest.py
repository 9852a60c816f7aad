"""Shared fixtures: the standard complex zoo used across the test suite."""

import numpy as np
import pytest
from hypothesis import settings
from scipy import sparse

from simhodge import (barycentric_refinement, generate, skeleton,
                      whitney_complex)

# Property tests draw the same examples on every run and have no per-example
# deadline, so a slow example on a busy host is not a failure.
settings.register_profile("simhodge", derandomize=True, deadline=None)
settings.load_profile("simhodge")


def as_scipy(matrix):
    """The stored triplets of an IntMatrix as a scipy CSR array, the oracle
    for operator identities checked with scipy's own arithmetic."""
    return sparse.csr_array((matrix.data, (matrix.row, matrix.col)),
                            shape=matrix.shape)


def k3_whitney():
    return whitney_complex(range(3), [(0, 1), (1, 2), (0, 2)])


def build_suite() -> dict:
    """Named complexes: families, the 1-skeleton circle, seeded random ones,
    and barycentric refinements of everything with at most 12 simplices."""
    named = {}
    for n in range(1, 6):
        named[f"simplex{n}"] = generate("simplex", n)
    for n in range(4, 9):
        named[f"cycle{n}"] = generate("cycle", n)
    named["path5"] = generate("path", 5)
    named["star3"] = generate("star", 3)
    for n in (4, 5, 6):
        named[f"wheel{n}"] = generate("wheel", n)
    named["octahedron"] = generate("octahedron")
    named["circle3"] = skeleton(k3_whitney(), 1)
    for s in range(20):
        named[f"random{s}"] = generate("random", 8, seed=s, edge_prob=0.45)
    for key, value in list(named.items()):
        if len(value) <= 12:
            named[f"refined_{key}"] = barycentric_refinement(value)
    return named


@pytest.fixture(scope="session")
def suite():
    return build_suite()


@pytest.fixture(scope="session")
def k3():
    return k3_whitney()


@pytest.fixture(scope="session")
def c4():
    return generate("cycle", 4)


@pytest.fixture()
def solver_calls(monkeypatch):
    """Counts of the np.linalg.eigh and eigvalsh calls made in the test."""
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        solver = getattr(np.linalg, name)

        def counted(*args, name=name, solver=solver):
            calls[name] += 1
            return solver(*args)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls
