"""Shared fixtures: the standard complex zoo used across the test suite."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from scipy import sparse

from simhodge import (Complex, InvalidInputError, barycentric_refinement,
                      betti, dirac, downward_closure, exact_rank, f_vector,
                      generate, hodge, skeleton, whitney_complex)
from simhodge.complexes import simplex_weight
from simhodge.lax import _symmetric
from simhodge.operators import alternating_sum
from simhodge.spectral import kernel_mask, singular_frame

# Property tests draw the same examples on every run and have no per-example
# deadline, so a slow example on a busy host is not a failure.
settings.register_profile("simhodge", derandomize=True, deadline=None)
settings.load_profile("simhodge")

# Small complexes for property tests: up to four facets of at most three of
# six vertices, or a random clique complex on at most five vertices.
small_complexes = st.one_of(
    st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True),
             min_size=1, max_size=4).map(downward_closure),
    st.builds(lambda n, seed, p: generate("random", n, seed=seed, edge_prob=p),
              st.integers(1, 5), st.integers(0, 10 ** 6),
              st.floats(0.0, 1.0)))


def as_scipy(matrix):
    """The stored triplets of an IntMatrix as a scipy CSR array, the oracle
    for operator identities checked with scipy's own arithmetic."""
    return sparse.csr_array((matrix.data, (matrix.row, matrix.col)),
                            shape=matrix.shape)


def gauss_bonnet_curvature(c) -> dict:
    """Oracle for the order-1 curvature: each simplex spreads its weight
    (-1)^dim over its vertices, so K(v) sums (-1)^dim(x) / (dim(x)+1) over
    the simplices x containing v and the curvatures add up to chi exactly."""
    curvature = {v: Fraction(0) for v in c.base}
    for s in c.simplices:
        share = Fraction(simplex_weight(s), len(s))
        for v in s:
            curvature[v] += share
    return curvature


def unit_sphere(c, v: int) -> Complex:
    """The link of a vertex: simplices not containing v whose join with v is in c."""
    if v not in c.base:
        raise InvalidInputError(f"vertex {v} is not in the complex")
    keep = [s for s in c.simplices
            if v not in s and tuple(sorted(s + (v,))) in c.simplices]
    return Complex(keep, labels=c.labels, validate=False)


def sphere_curvature(c) -> dict:
    """Oracle for the order-1 curvature from link counts:
    1 - V_0/2 + V_1/3 - V_2/4 + ..., where V_k(v) counts the k-simplices of
    the unit sphere of v.  Agrees with multilinear_curvature(c, 1) vertex by
    vertex."""
    out = {}
    for v in sorted(c.base):
        counts = (1,) + f_vector(unit_sphere(c, v))  # 1, V_0, V_1, ...
        out[v] = alternating_sum(Fraction(n, i + 1) for i, n in enumerate(counts))
    return out


def random_subcomplex(c, rng, keep_prob: float = 0.5) -> Complex:
    """Downward closure of a random subset of simplices; always a subcomplex."""
    chosen = [s for s in c if rng.random() < keep_prob]
    return downward_closure(chosen, labels=c.labels)


def full_hodge_spectra(d) -> list:
    """Oracle for ``hodge_spectra``: ``eigvalsh`` of each degree block of
    L = (d + d*)^2, with L formed in full."""
    L = hodge(dirac(d))
    return [L.eigenvalues(k) for k in range(L.basis.max_degree + 1)]


def dense_gram_values(d) -> list:
    """Oracle for the σ² of ``singular_frame``: per block d_k, ``eigvalsh``
    of its whole dense Gram matrix on the narrower side, above its
    ``kernel_mask``, with no swap sectors."""
    dims, values = d.basis.dims, []
    for k in range(len(dims) - 1):
        b = d.block(k + 1, k).astype(float)
        w = np.linalg.eigvalsh(b.T @ b if dims[k] <= dims[k + 1] else b @ b.T)
        values.append(w[~kernel_mask(w)])
    return values


def check_tau_adapted(d):
    """Oracle for the order-2 vectors frame: every column x of each U_k and
    V_k of ``singular_frame(d, vectors=True)`` has tau x = x or tau x = -x
    within 1e-12, and its σ² are those of the values frame, as many and
    within 1e-12 of the block's top value."""
    partner, sign = d.swap
    frames = zip(singular_frame(d, vectors=True), singular_frame(d))
    for k, ((w, u, v), (values, _, _)) in enumerate(frames):
        assert len(w) == len(values), k
        top = max(float(values[-1]) if len(values) else 0.0, 1.0)
        assert np.max(np.abs(w - values), initial=0.0) <= 1e-12 * top, k
        for degree, x in ((k + 1, u), (k, v)):
            part = d.basis.degree_slice(degree)
            tau_x = np.zeros_like(x)  # tau e_i = sign_i e_partner(i)
            tau_x[partner[part] - part.start] = sign[part][:, None] * x
            off = np.minimum(np.max(np.abs(tau_x - x), axis=0, initial=0.0),
                             np.max(np.abs(tau_x + x), axis=0, initial=0.0))
            assert np.max(off, initial=0.0) <= 1e-12, (k, degree)


def check_clearing(d):
    """Oracle for the clearing in ``betti``: its Betti numbers against those
    from a plain ``exact_rank`` of each whole block d_k; and from the top
    block down, the pivot columns that ``exact_rank`` reports are distinct,
    the block on them has full rank, and leaving out the rows at the pivot
    columns of the block above keeps the block's rank."""
    dims = d.basis.dims
    blocks = [d.matrix.block(d.basis.degree_slice(k + 1), d.basis.degree_slice(k))
              for k in range(len(dims))]
    ranks = [exact_rank(block) for block in blocks]
    assert betti(d) == tuple(dims[k] - ranks[k] - (ranks[k - 1] if k else 0)
                             for k in range(len(dims)))
    above = []
    for block, rank in zip(blocks[::-1], ranks[::-1]):
        pivots = []
        assert exact_rank(block, skip=above, pivots=pivots) == rank
        assert len(set(pivots)) == len(pivots) == rank
        assert exact_rank(as_scipy(block)[:, pivots]) == rank
        above = pivots


def split_by_degree(matrix, basis):
    """(raising, preserving, lowering) parts of a symmetric matrix over a
    graded basis: its entries from a degree into any strictly higher one,
    within a degree, and into a lower one.  They add back to the matrix."""
    m = _symmetric(matrix, basis)
    degrees = np.asarray(basis.degrees)
    gaps = degrees[:, None] - degrees[None, :]
    return m * (gaps > 0), m * (gaps == 0), m * (gaps < 0)


def spectral_drift(e0, e1) -> float:
    """Largest displacement between two sorted spectra of flow states."""
    if e0.shape != e1.shape:
        raise InvalidInputError("states have different dimensions")
    return float(np.max(np.abs(e1 - e0), initial=0.0))


def two_product_field(x, basis):
    """The commutator [B, X] as written: B = raising - lowering, BX - XB."""
    raising, _, lowering = split_by_degree(x, basis)
    b = raising - lowering
    return b @ x - x @ b


def reference_rk4(m, basis, t_end, dt, sample_every):
    """Oracle of the closed-form flow: classical RK4 of the dense matrix m
    under the two-product field, sampled like ``integrate``."""
    steps = int(round(t_end / dt))
    samples = [m]
    for i in range(1, steps + 1):
        k1 = two_product_field(m, basis)
        k2 = two_product_field(m + 0.5 * dt * k1, basis)
        k3 = two_product_field(m + 0.5 * dt * k2, basis)
        k4 = two_product_field(m + dt * k3, basis)
        m = m + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        m = 0.5 * (m + m.T)
        if i % sample_every == 0 or i == steps:
            samples.append(m)
    return samples


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


@pytest.fixture()
def solver_widths(monkeypatch):
    """The widths of the np.linalg.eigh and eigvalsh calls made in the test,
    in call order: the ``solver_calls`` that records what it counts."""
    widths = {"eigh": [], "eigvalsh": []}
    for name in widths:
        solver = getattr(np.linalg, name)

        def recorded(a, name=name, solver=solver):
            widths[name].append(len(a))
            return solver(a)
        monkeypatch.setattr(np.linalg, name, recorded)
    return widths
