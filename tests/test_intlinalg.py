"""Exact rank computations against constructed-rank and elimination oracles."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from simhodge import (GradedBasis, GradedOperator, IntMatrix,
                      InvalidInputError, ResourceLimitError, betti,
                      exact_nullity, exact_rank, exterior_derivative,
                      graded_basis)
from simhodge.operators import require_nilpotent


def fraction_rank(matrix):
    """Oracle: plain Gaussian elimination over exact rationals."""
    rows = [[Fraction(int(x)) for x in row] for row in np.asarray(matrix)]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                factor = rows[i][col] / top[col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], top)]
        rank += 1
    return rank


def test_identity_and_zero():
    assert exact_rank(np.eye(5, dtype=int)) == 5
    assert exact_rank(np.zeros((4, 7), dtype=int)) == 0
    assert exact_rank(np.zeros((0, 3), dtype=int)) == 0


def test_constructed_rank():
    rng = np.random.default_rng(3)
    for rows, cols, r in ((6, 9, 2), (10, 4, 3), (8, 8, 5)):
        left = rng.integers(-4, 5, size=(rows, r))
        right = rng.integers(-4, 5, size=(r, cols))
        product = left @ right
        # the factors are generically full rank; confirm with the float oracle
        assert np.linalg.matrix_rank(product) == r
        assert exact_rank(product) == r


def test_random_matrices_match_float_oracle():
    rng = np.random.default_rng(17)
    for _ in range(40):
        m = rng.integers(-3, 4, size=rng.integers(1, 9, size=2))
        assert exact_rank(m) == np.linalg.matrix_rank(m)


def test_random_matrices_match_fraction_elimination():
    rng = np.random.default_rng(29)
    for _ in range(30):
        shape = rng.integers(1, 11, size=2)
        m = rng.integers(-9, 10, size=shape)
        if rng.random() < 0.5:  # force rank deficiency
            m[-1] = m[0] * int(rng.integers(-3, 4))
        assert exact_rank(m) == fraction_rank(m)


def test_entry_growth_falls_back_to_bigints():
    # entries near 2^16 make the first elimination step exceed the int64 guard
    rng = np.random.default_rng(8)
    m = rng.integers(-60000, 60000, size=(10, 10))
    assert exact_rank(m) == fraction_rank(m)


def test_rank_one_with_huge_entries_uses_bigints():
    big = 10 ** 30
    m = np.array([[big, 2 * big], [3 * big, 6 * big]], dtype=object)
    assert exact_rank(m) == 1


def test_nullity():
    m = np.array([[1, 2, 3], [2, 4, 6]])
    assert exact_rank(m) == 1
    assert exact_nullity(m) == 2


def test_sparse_input_sums_repeated_cells():
    # the two (0, 1) cells cancel, leaving a rank-one matrix
    m = sparse.coo_array(([2, 5, -5, 4], ([0, 0, 0, 1], [0, 1, 1, 0])),
                         shape=(2, 3))
    assert exact_rank(m) == 1
    assert exact_nullity(m) == 2


def test_non_integer_and_non_2d_inputs_rejected():
    for bad in (np.array([[1.5, 2.0]]), np.array([[np.nan, 1.0]]),
                np.array([[np.inf]]), np.array([["1", "2"]]),
                sparse.csr_array(np.array([[0.5, 0.0], [0.0, 1.0]]))):
        with pytest.raises(ValueError):
            exact_rank(bad)
    with pytest.raises(ValueError):
        exact_rank(np.ones((2, 2, 2), dtype=int))
    assert exact_rank(np.array([[2.0, 4.0], [1.0, 2.0]])) == 1


@st.composite
def sparse_integer_matrices(draw):
    """Up to 9x9, few non-zeros up to 1e6, some rows copies of others."""
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    m = np.zeros((rows, cols), dtype=np.int64)
    if rows and cols:
        cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
        entry = st.integers(-10 ** 6, 10 ** 6).filter(bool)
        for (i, j), v in draw(st.lists(st.tuples(cells, entry),
                                       max_size=2 * (rows + cols))):
            m[i, j] = v
        # scaled copies and sums of rows make rank deficiencies
        for _ in range(draw(st.integers(0, 3))):
            target, a, b = (draw(st.integers(0, rows - 1)) for _ in range(3))
            m[target] = draw(st.integers(-3, 3)) * m[a] + m[b]
    return m


@settings(max_examples=200, deadline=None)
@given(sparse_integer_matrices())
def test_matches_fraction_oracle_on_sparse_and_dense_inputs(m):
    expected = fraction_rank(m)
    assert exact_rank(m) == expected
    assert exact_rank(sparse.csr_array(m)) == expected
    assert exact_rank(IntMatrix(*np.nonzero(m), m[np.nonzero(m)], m.shape)) == expected
    assert exact_rank(m.astype(object) * 10 ** 20) == expected


@st.composite
def triplet_matrices(draw, shape):
    """An IntMatrix and the scipy COO array of the same triplets, which may
    repeat a cell or cancel one to zero."""
    rows, cols = shape
    cells = []
    if rows and cols:
        cell = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1),
                         st.integers(-3, 3))
        cells = draw(st.lists(cell, max_size=12))
        cells += [(i, j, -v) for i, j, v in cells if draw(st.booleans())]
    r, c, v = (np.array(x, dtype=np.int64) for x in
               (zip(*cells) if cells else ([], [], [])))
    return IntMatrix(r, c, v, shape), sparse.coo_array((v, (r, c)), shape=shape)


def assert_same(m, oracle):
    """Equal shape, dense values and canonical triplets: row-major, one
    entry per cell, no stored zeros."""
    canonical = sparse.csr_array(oracle)
    canonical.sum_duplicates()
    canonical.eliminate_zeros()
    coo = canonical.tocoo()
    assert m.shape == oracle.shape
    assert m.nnz == coo.nnz
    for mine, theirs in ((m.row, coo.row), (m.col, coo.col), (m.data, coo.data)):
        assert mine.dtype == np.int64
        assert np.array_equal(mine, theirs)
    assert np.array_equal(m.toarray(), oracle.toarray())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_int_matrix_matches_scipy(data):
    r, k, c = (data.draw(st.integers(0, 5)) for _ in range(3))
    a, sa = data.draw(triplet_matrices((r, k)))
    b, sb = data.draw(triplet_matrices((k, c)))
    a2, sa2 = data.draw(triplet_matrices((r, k)))
    assert_same(a, sa)
    assert a.tocoo() is a
    assert_same(a @ b, sa.tocsr() @ sb.tocsr())
    assert_same(a + a2, sa.tocsr() + sa2.tocsr())
    assert_same(a.T, sa.T)
    r0, r1 = sorted(data.draw(st.integers(0, r)) for _ in range(2))
    c0, c1 = sorted(data.draw(st.integers(0, k)) for _ in range(2))
    assert_same(a.block(slice(r0, r1), slice(c0, c1)), sa.tocsr()[r0:r1, c0:c1])


def test_product_pair_limit_is_checked_before_allocation(monkeypatch):
    from simhodge import budget, intlinalg

    a = IntMatrix([0, 0, 1], [0, 1, 1], [1, 2, 3], (2, 2))  # a @ a forms 4 pairs
    monkeypatch.setattr(budget, "PRODUCT_PAIR_LIMIT", 4)
    assert_same(a @ a, sparse.csr_array(a.toarray() @ a.toarray()))

    def never(*args, **kwargs):
        raise AssertionError("pairs were allocated before the limit was checked")

    monkeypatch.setattr(budget, "PRODUCT_PAIR_LIMIT", 3)
    monkeypatch.setattr(intlinalg.np, "repeat", never)
    with pytest.raises(ResourceLimitError,
                       match="product needs 4 entry pairs, limit is 3"):
        a @ a


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_products_formed_in_runs_of_rows_match_scipy(data):
    """At a limit of 256 pairs a product forms them in runs of whole rows of
    about 4 pairs each, so most products here take several runs."""
    from simhodge import budget

    r, k, c = (data.draw(st.integers(0, 6)) for _ in range(3))
    a, sa = data.draw(triplet_matrices((r, k)))
    b, sb = data.draw(triplet_matrices((k, c)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(budget, "PRODUCT_PAIR_LIMIT", 256)
        product = a @ b
    assert_same(product, sa.tocsr() @ sb.tocsr())


class TestInt64Range:
    """IntMatrix arithmetic refuses a result whose entries could pass the
    int64 range, where numpy would wrap them."""

    def test_sum_past_int64_refused(self):
        big = IntMatrix([0], [0], [2 ** 62], (1, 1))
        with pytest.raises(InvalidInputError, match="sum could pass"):
            big + big  # wraps to -2**63 in int64
        below = IntMatrix([0], [0], [2 ** 62 - 1], (1, 1)) + big
        assert below.data.tolist() == [2 ** 63 - 1]
        low = IntMatrix([0], [0], [-2 ** 63], (1, 1))
        with pytest.raises(InvalidInputError, match="sum could pass"):
            low + IntMatrix([0], [0], [0], (1, 1))

    def test_product_past_int64_refused(self):
        # max|a| * max|b| * inner dimension: 2**31 * 2**31 * 2 = 2**63
        a = IntMatrix([0, 0], [0, 1], [2 ** 31, 1], (1, 2))
        with pytest.raises(InvalidInputError, match="product could pass"):
            a @ a.T
        one = IntMatrix([0], [0], [2 ** 31], (1, 1))
        assert (one @ one).data.tolist() == [2 ** 62]

    @pytest.mark.parametrize("n", [2, 4])
    def test_repeated_cell_past_int64_refused(self, n):
        # summed in int64, two entries 2**62 wrapped to -2**63, and four to
        # 0, which dropped the cell
        with pytest.raises(InvalidInputError, match="cell sum could pass"):
            IntMatrix([0] * n, [0] * n, [2 ** 62] * n, (1, 1))
        # what + and @ admit still constructs: |entries| up to 2**63 - 1
        below = IntMatrix([0] * 2, [0] * 2, [2 ** 62, 2 ** 62 - 1], (1, 1))
        assert below.data.tolist() == [2 ** 63 - 1]
        ones = IntMatrix([0] * n, [0] * n, [1] * n, (1, 1))
        assert ones.data.tolist() == [n]

    def test_entry_past_int64_refused(self):
        with pytest.raises(InvalidInputError, match="past the int64 range"):
            IntMatrix([0], [0], [2 ** 70], (1, 1))
        with pytest.raises(InvalidInputError, match="past the int64 range"):
            GradedOperator(np.array([[2 ** 70]], dtype=object),
                           GradedBasis(["a"], [0]))

    def test_scaled_derivative_is_not_passed_as_nilpotent(self, k3):
        # a triangle's d with entries 2**32: d @ d has 2**64-sized products,
        # which wrapped to 0, so the derivative passed and betti was (2, 1, 0)
        d = exterior_derivative(k3).matrix
        scaled = GradedOperator(IntMatrix(d.row, d.col, d.data * 2 ** 32, d.shape),
                                graded_basis(k3), shift=1)
        with pytest.raises(InvalidInputError, match="product could pass"):
            require_nilpotent(scaled)
        with pytest.raises(InvalidInputError, match="product could pass"):
            betti(scaled)
