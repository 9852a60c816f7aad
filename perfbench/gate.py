"""Correctness gate: decide whether one op's exit code and output are right.

An op fails when its exit code is not the expected one, when a successful
op's stdout is not strict JSON (NaN and Infinity are rejected), when any
boolean in its ``results`` block is false (every boolean there is a
cross-check), or when an exact field differs from the value the plan holds.
Float fields are only compared through sums with a stated tolerance.
"""

from __future__ import annotations

import json
from fractions import Fraction

SCHEMA = "simhodge.report/1"
REFUSAL_PREFIX = {2: "error:", 4: "resource limit:"}


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in output")


def strict_loads(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def lookup(tree, dotted: str):
    node = tree
    for key in dotted.split("."):
        node = node[int(key)] if isinstance(node, list) else node[key]
    return node


def _false_checks(node, path=""):
    if isinstance(node, bool):
        return [] if node else [path or "results"]
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    out = []
    for key, value in items:
        out += _false_checks(value, f"{path}.{key}" if path else str(key))
    return out


def check_op(op: dict, code: int, stdout: str, stderr: str) -> list[str]:
    """Problems with one op's outcome; an empty list means it passed."""
    expect = op["expect"]
    if code != expect["exit"]:
        return [f"exit code {code}, expected {expect['exit']}: {stderr[-300:]}"]
    if "Traceback" in stderr:
        return ["traceback on stderr"]
    if code != 0:
        prefix = REFUSAL_PREFIX.get(code, "")
        if stdout or not stderr.startswith(prefix):
            return [f"refusal with exit {code} must print only {prefix!r} "
                    f"on stderr"]
        return []
    try:
        report = strict_loads(stdout)
    except ValueError as err:
        return [f"output is not strict JSON: {err}"]
    if report.get("schema") != SCHEMA or report.get("command") != op["argv"][0]:
        return ["wrong schema or command in report"]
    results = report["results"]
    problems = [f"cross-check false at {p}" for p in _false_checks(results)]
    try:
        for path, want in expect.get("equal", {}).items():
            got = lookup(results, path)
            if got != want:
                problems.append(f"{path} = {got!r}, expected {want!r}")
        for path, want in expect.get("length", {}).items():
            got = len(lookup(results, path))
            if got != want:
                problems.append(f"len({path}) = {got}, expected {want}")
        for path, want in expect.get("fraction_sum", {}).items():
            got = sum((Fraction(v["num"], v["den"])
                       for v in lookup(results, path).values()), Fraction(0))
            if got != want:
                problems.append(f"sum of {path} = {got}, expected {want}")
        for path, (want, tol) in expect.get("float_sum", {}).items():
            got = sum(lookup(results, path).values())
            if not abs(got - want) <= tol:
                problems.append(f"sum of {path} = {got}, expected {want} +- {tol}")
    except (KeyError, IndexError, TypeError) as err:
        problems.append(f"missing or malformed field: {err!r}")
    return problems
