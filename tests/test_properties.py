"""Property tests: parse round trips, index identities on random small
complexes, and parser robustness on arbitrary text."""

import hashlib
import json
from unittest import mock
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simhodge import (InvalidInputError, IndexTriple, ResourceLimitError,
                      betti, connection_derivative, dirac,
                      exterior_derivative, f_vector, generate, integrate,
                      multilinear_curvature, spectrum_report,
                      wu_characteristic)
from simhodge import cli, lax, spectral
from simhodge.io import (parse_facets, parse_permutation,
                         parse_vertex_function, serialize_facets, sha256_hex)
from simhodge.spectral import singular_frame

from conftest import (check_clearing, check_tau_adapted, dense_gram_values,
                      small_complexes)

# Numerically equal labels ("1", "01", "+1", "1" in Arabic-Indic digits) must
# still intern to distinct, reproducible ids.
LABELS = ["0", "1", "01", "001", "+1", "١", "1_0", "10", "-1", "a", "b",
          "x_y"]


@st.composite
def facet_texts(draw):
    facets = draw(st.lists(st.lists(st.sampled_from(LABELS), min_size=1,
                                    max_size=4, unique=True),
                           min_size=1, max_size=5))
    return "\n".join(" ".join(f) for f in facets) + "\n"


@given(facet_texts())
def test_parse_serialize_parse_round_trip(text):
    c = parse_facets(text)
    again = parse_facets(serialize_facets(c))
    assert again == c
    assert again.labels == c.labels
    assert serialize_facets(again) == serialize_facets(c)


@settings(max_examples=60)
@given(small_complexes, st.sampled_from([1, 2]))
def test_index_identities_and_kernels(c, order):
    d = exterior_derivative(c) if order == 1 else connection_derivative(c, order)
    exact = betti(d)
    triple = IndexTriple.from_invariants(d, exact,
                                         multilinear_curvature(c, order), order)
    assert triple.analytic == triple.cohomological == triple.topological
    assert triple.topological == Fraction(wu_characteristic(c, order))
    # the eigenvalue-only kernel counts against exact rank
    report = spectrum_report(d)
    assert report.kernel_counts == exact
    assert report.supersymmetry.symmetric


@settings(max_examples=60)
@given(small_complexes, st.sampled_from([1, 2]))
def test_cleared_betti_is_the_whole_block_betti(c, order):
    """Clearing from the top degree down against a plain exact rank of each
    whole block, with distinct full-rank pivot columns (``check_clearing``)."""
    check_clearing(exterior_derivative(c) if order == 1
                   else connection_derivative(c, order))


@settings(max_examples=60)
@given(small_complexes)
def test_swap_sectors_match_the_whole_gram_solves(c):
    """Order-2 σ², solved one swap sector at a time, against the whole
    dense Gram matrix of each block, to 1e-12 of its top value."""
    d = connection_derivative(c, 2)
    for w, expected in zip([w for w, _, _ in singular_frame(d)],
                           dense_gram_values(d)):
        assert len(w) == len(expected)
        top = max(float(expected[-1]) if len(expected) else 0.0, 1.0)
        assert np.max(np.abs(w - expected), initial=0.0) <= 1e-12 * top
    assert spectrum_report(d).agreement


@settings(max_examples=60)
@given(small_complexes, st.sampled_from([1, 2]))
def test_vectors_frame_is_orthonormal_and_reproduces_d(c, order):
    """Every block b of ``singular_frame(d, vectors=True)``: U^T U and V^T V
    within 1e-12 of I, and U diag(σ) V^T within 1e-12 of b's largest entry."""
    d = exterior_derivative(c) if order == 1 else connection_derivative(c, order)
    for k, (w, u, v) in enumerate(singular_frame(d, vectors=True)):
        block = d.block(k + 1, k)
        for side in (u, v):
            assert np.max(np.abs(side.T @ side - np.eye(side.shape[1])),
                          initial=0.0) <= 1e-12
        assert np.max(np.abs((u * np.sqrt(w)) @ v.T - block), initial=0.0) \
            <= 1e-12 * np.max(np.abs(block), initial=0.0)


@settings(max_examples=60)
@given(small_complexes)
def test_order_two_vectors_are_tau_adapted(c):
    """Order-2 singular vectors, solved one swap sector at a time, are tau
    eigenvectors, with the σ² of the values frame (``check_tau_adapted``)."""
    check_tau_adapted(connection_derivative(c, 2))


@settings(max_examples=60)
@given(small_complexes, st.sampled_from([1, 2, 3]))
def test_curvature_totals_are_the_characteristic(c, order):
    """The blocked vertex spread adds up to the tuple count's alternating sum."""
    total = sum(multilinear_curvature(c, order).values(), Fraction(0))
    assert total == wu_characteristic(c, order)


@settings(max_examples=40)
@given(small_complexes, st.sampled_from([0.5, 0.1, 0.01]),
       st.sampled_from([1.0, 2.0]))
def test_lax_checks_hold_at_any_step(tmp_path_factory, c, dt, t_end):
    """Every check of ``lax`` holds whatever --dt: a Dirac start samples the
    closed form, so the step sets only the sampled times."""
    path = tmp_path_factory.mktemp("lax") / "c.txt"
    path.write_text(serialize_facets(c))
    args = cli._build_parser().parse_args(
        ["lax", "--input", str(path), "--t-end", str(t_end), "--dt", str(dt)])
    results = json.loads(cli.run(args)[0])["results"]
    assert results["t_end"] == pytest.approx(t_end)
    for check in ("isospectral_within_tolerance",
                  "nilpotency_within_tolerance"):
        assert results[check] is True, check


@settings(max_examples=60)
@given(small_complexes, st.sampled_from([2.0, 20.0, 0.0]),
       st.sampled_from([0.01, 0.1]), st.sampled_from([1, 10]),
       # rows of 1335499 and 1335470 bytes leave 201 states 157 and 5986
       # bytes below the limit: there the charge of the pairs decides
       st.sampled_from([1335499, 1335470, 2 ** 20, None]))
def test_lax_precheck_is_the_flow_charge(c, t_end, dt, sample_every,
                                         row_bytes):
    """``flow_steps`` on the f-vector, as ``lax`` charges a flow before any
    operator, refuses exactly when ``integrate`` does, with the same
    message; ``integrate`` charges once, and a refused flow solves no Gram
    matrix."""
    def charge(run):
        try:
            run()
        except ResourceLimitError as err:
            return str(err)
        return None

    d = exterior_derivative(c)
    with mock.patch.object(lax, "flow_steps", wraps=lax.flow_steps) as charged, \
            mock.patch.object(spectral, "gram_pairs",
                              wraps=spectral.gram_pairs) as solved:
        refused = charge(lambda: integrate(d, t_end, dt, sample_every,
                                           row_bytes))
    assert refused == charge(lambda: lax.flow_steps(
        f_vector(c), t_end, dt, sample_every, row_bytes))
    assert charged.call_count == 1
    assert refused is None or not solved.called


PARSER_TEXT = st.one_of(
    st.text(),
    st.lists(st.sampled_from(["a", "b", "c", "1", "01", "2", "7", "(", ")",
                              "->", "-", ">", "#", " ", "\n", "\t", "nan",
                              "inf", "-inf", "1e400", "0.5", "١",
                              " ", "\x00"])).map("".join))
COMPLEXES = [parse_facets("a b 1\n01 c\n2\n"), generate("octahedron")]


@pytest.mark.parametrize("parse", [parse_permutation, parse_vertex_function])
@pytest.mark.parametrize("c", COMPLEXES, ids=["labelled", "numbered"])
@given(text=PARSER_TEXT)
def test_parsers_raise_only_input_errors(parse, c, text):
    try:
        parse(text, c)
    except InvalidInputError:  # ParseError included
        pass


@example(b"")
@example(b"\xff\xfe\x80 is not UTF-8")
@example(bytes(range(256)) * 80)  # 20 KiB, many blocks
@given(st.binary())
def test_sha256_hex_is_the_hashlib_digest(data):
    assert sha256_hex(data) == hashlib.sha256(data).hexdigest()
