"""Text formats and JSON serialization helpers.

Two input formats exist: a facet list (one facet per line, whitespace
separated vertex labels) and an edge list (``v NAME`` and ``e A B`` lines)
whose graph becomes a clique complex.  Labels are interned to dense ids in
numeric-aware sorted order and kept on the complex, so parse, serialize and
parse again reproduces the same complex.  Comment text after ``#`` is
ignored; a non-comment line without tokens is a parse error.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

try:  # CPython's builtin SHA-256, so no process maps OpenSSL to stamp its input
    from _sha2 import sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from .complexes import Complex, downward_closure, whitney_complex
from .errors import InvalidInputError, ParseError
from .operators import GradedOperator


def _label_sort_key(label: str):
    """Integers by value first, ties ("1", "01") and other labels by text."""
    try:
        return (0, int(label), label)
    except ValueError:
        return (1, 0, label)


def _tokenized_lines(text: str):
    """Yield (line_number, tokens) for content lines; reject empty facts."""
    for number, raw in enumerate(text.splitlines(), start=1):
        body, _, _ = raw.partition("#")
        tokens = body.split()
        if tokens:
            yield number, tokens
        elif "#" not in raw:
            raise ParseError("no tokens on a non-comment line", line=number)


def intern_labels(labels) -> tuple[dict, dict]:
    """Dense ids in numeric-aware sorted label order; returns (to_id, to_label)."""
    ordered = sorted(set(labels), key=_label_sort_key)
    to_id = {lab: i for i, lab in enumerate(ordered)}
    return to_id, {i: lab for lab, i in to_id.items()}


def parse_facets(text: str) -> Complex:
    """Parse a facet list into its downward closure."""
    facets = []
    for number, tokens in _tokenized_lines(text):
        if len(set(tokens)) != len(tokens):
            raise ParseError("facet repeats a vertex label", line=number)
        facets.append(tokens)
    to_id, to_label = intern_labels(lab for f in facets for lab in f)
    return downward_closure([[to_id[lab] for lab in f] for f in facets],
                            labels=to_label)


def parse_edges(text: str) -> Complex:
    """Parse a vertex/edge list into the clique complex of the graph."""
    labels, edges = [], []
    seen_vertices, seen_edges = set(), set()
    for number, tokens in _tokenized_lines(text):
        kind, args = tokens[0], tokens[1:]
        if kind == "v":
            if len(args) != 1:
                raise ParseError("vertex line needs exactly one label", line=number)
            if args[0] in seen_vertices:
                raise ParseError(f"vertex {args[0]!r} declared twice", line=number)
            seen_vertices.add(args[0])
            labels.append(args[0])
        elif kind == "e":
            if len(args) != 2:
                raise ParseError("edge line needs exactly two labels", line=number)
            a, b = args
            if a == b:
                raise ParseError(f"loop edge on {a!r}", line=number)
            for lab in (a, b):
                if lab not in seen_vertices:
                    raise ParseError(f"edge references undeclared vertex {lab!r}",
                                     line=number)
            key = frozenset((a, b))
            if key in seen_edges:
                raise ParseError(f"duplicate edge {a!r} {b!r}", line=number)
            seen_edges.add(key)
            edges.append((a, b))
        else:
            raise ParseError(f"unknown directive {kind!r} (expected 'v' or 'e')",
                             line=number)
    to_id, to_label = intern_labels(labels)
    return whitney_complex(to_id.values(),
                           [(to_id[a], to_id[b]) for a, b in edges],
                           labels=to_label)


def decode_text(raw: bytes, source: str) -> str:
    """UTF-8 text of an input file's bytes; ParseError if they are not UTF-8."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(f"{source} is not valid UTF-8 "
                         f"(byte {err.start}: {err.reason})") from None


def read_text(path: str) -> str:
    with open(path, "rb") as handle:
        return decode_text(handle.read(), path)


def parse_input(path: str, fmt: str, raw: bytes | None = None) -> Complex:
    """Parse the complex in ``path``, or in ``raw`` (its bytes) when given."""
    if fmt not in ("facets", "edges"):
        raise InvalidInputError(f"unknown format {fmt!r} (expected facets or edges)")
    text = read_text(path) if raw is None else decode_text(raw, path)
    return parse_facets(text) if fmt == "facets" else parse_edges(text)


def serialize_facets(c: Complex) -> str:
    """Deterministic facet-list text; parsing it recovers the same complex."""
    lines = [" ".join(sorted(map(c.label_of, facet), key=_label_sort_key))
             for facet in c.facets()]
    return "\n".join(sorted(lines)) + ("\n" if lines else "")


def _label_resolver(c: Complex):
    """label -> vertex id through one map built per parse, not a scan per
    label; the first id of a label wins.  Unlabeled complexes read ints."""
    ids = {}
    for v, lab in (c.labels or {v: v for v in c.base}).items():
        ids.setdefault(lab, v)

    def resolve(label: str) -> int:
        try:
            return ids[label if c.labels else int(label)]
        except (KeyError, ValueError):
            raise InvalidInputError(f"unknown vertex label {label!r}") from None
    return resolve


def parse_permutation(text: str, c: Complex) -> dict:
    """Vertex permutation from ``a->b`` lines or cycle notation ``(a b c)(d e)``.

    Unmentioned vertices stay fixed.
    """
    resolve = _label_resolver(c)
    mapping = {}

    def assign(src: int, dst: int, number: int):
        if src in mapping:
            raise ParseError(f"vertex {c.label_of(src)!r} mapped twice", line=number)
        mapping[src] = dst

    for number, tokens in _tokenized_lines(text):
        body = " ".join(tokens)
        if "->" in body:
            parts = [p.strip() for p in body.split("->")]
            if len(parts) != 2 or not all(parts):
                raise ParseError("expected exactly 'a -> b'", line=number)
            assign(resolve(parts[0]), resolve(parts[1]), number)
        elif body.startswith("("):
            if not re.fullmatch(r"(\s*\([^()]*\))+\s*", body):
                raise ParseError("every label of a cycle line must lie inside one "
                                 "pair of parentheses", line=number)
            for chunk in re.findall(r"\(([^()]*)\)", body):
                ids = [resolve(name) for name in chunk.split()]
                for i, src in enumerate(ids):
                    assign(src, ids[(i + 1) % len(ids)], number)
        else:
            raise ParseError("expected 'a -> b' pairs or '(a b c)' cycles",
                             line=number)
    for v in c.base:
        mapping.setdefault(v, v)
    return mapping


def parse_vertex_function(text: str, c: Complex) -> dict:
    """Vertex function from ``label value`` lines; every value must be finite."""
    resolve = _label_resolver(c)
    out = {}
    for number, tokens in _tokenized_lines(text):
        if len(tokens) != 2:
            raise ParseError("expected 'label value'", line=number)
        v = resolve(tokens[0])
        if v in out:
            raise ParseError(f"vertex {tokens[0]!r} assigned twice", line=number)
        try:
            out[v] = float(tokens[1])
        except ValueError:
            raise ParseError(f"unreadable value {tokens[1]!r}", line=number) from None
        if not math.isfinite(out[v]):
            raise ParseError(f"value {tokens[1]!r} is not finite", line=number)
    return out


def sha256_hex(data: bytes) -> str:
    return sha256(data).hexdigest()


def fraction_payload(value: Fraction) -> dict:
    value = Fraction(value)
    return {"num": value.numerator, "den": value.denominator}


def field_payload(c: Complex, values: dict) -> dict:
    """Vertex-keyed payload using original labels; rationals as num/den pairs."""
    out = {}
    for v in sorted(values):
        x = values[v]
        out[c.label_of(v)] = fraction_payload(x) if isinstance(x, Fraction) \
            else (int(x) if isinstance(x, int) else float(x))
    return out


def _element_labels(c: Complex, element):
    if element and isinstance(element[0], tuple):
        return [[c.label_of(v) for v in member] for member in element]
    return [c.label_of(v) for v in element]


def operator_to_triplets(op: GradedOperator) -> str:
    """One ``row col value`` line per non-zero entry, in row-major order."""
    m = op.matrix
    return "".join(f"{r} {col} {val}\n" for r, col, val in
                   zip(m.row.tolist(), m.col.tolist(), m.data.tolist()))


def operator_to_json(op: GradedOperator, c: Complex) -> dict:
    m = op.matrix
    return {
        "shape": list(m.shape),
        "grading_shift": int(op.shift),
        "basis": [_element_labels(c, e) for e in op.basis.elements],
        "degrees": [int(d) for d in op.basis.degrees],
        "entries": [list(e) for e in zip(m.row.tolist(), m.col.tolist(),
                                         m.data.tolist())],
    }
