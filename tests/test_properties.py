"""Property tests: parse round trips, index identities on random small
complexes, and parser robustness on arbitrary text."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simhodge import (InvalidInputError, IndexTriple, betti,
                      connection_derivative, downward_closure,
                      exterior_derivative, generate, multilinear_curvature,
                      spectrum_report, wu_characteristic)
from simhodge.io import (parse_facets, parse_permutation,
                         parse_vertex_function, serialize_facets)

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


small_complexes = st.one_of(
    st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True),
             min_size=1, max_size=4).map(downward_closure),
    st.builds(lambda n, seed, p: generate("random", n, seed=seed, edge_prob=p),
              st.integers(1, 5), st.integers(0, 10 ** 6),
              st.floats(0.0, 1.0)))


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
