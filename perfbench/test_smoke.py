"""Seconds-long checks of the benchmark's own arithmetic and gate.

Run from the repository root with ``python3 perfbench/test_smoke.py`` or
``python3 -m pytest perfbench/test_smoke.py``.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gate  # noqa: E402
import tracer  # noqa: E402
from reference import Facts, parse_facets  # noqa: E402

OCTAHEDRON = "0 2 4\n0 2 5\n0 3 4\n0 3 5\n1 2 4\n1 2 5\n1 3 4\n1 3 5\n"


def test_self_times_subtract_direct_children():
    rec = tracer.Recorder()
    rec.spans = [[0, None, "a", 0.0, 10.0, {}], [1, 0, "b", 1.0, 4.0, {}],
                 [2, 1, "c", 2.0, 3.0, {}], [3, 0, "b", 5.0, 6.0, {}],
                 [4, None, "b", 11.0, 12.5, {}]]
    assert rec.self_times() == {"a": 6.0, "b": 4.5, "c": 1.0}
    assert rec.root_time() == 11.5 == sum(rec.self_times().values())


def test_install_records_nested_spans_and_uninstall_restores(tmp_path):
    import simhodge.cli as cli
    import simhodge.spectral as spectral

    original = spectral.betti
    path = tmp_path / "octahedron.txt"
    path.write_text(OCTAHEDRON)
    rec = tracer.Recorder()
    patches = tracer.install(rec)
    try:
        with redirect_stdout(io.StringIO()):
            assert cli.main(["betti", "--input", str(path)]) == 0
    finally:
        tracer.uninstall(patches)
    assert spectral.betti is original
    metrics = tracer.layer_metrics(rec)
    assert metrics["spectral.betti_calls"] == 1
    assert metrics["intlinalg.exact_rank_calls"] == 3
    assert metrics["operators.derivative_calls"] == 1
    assert metrics["complexes.simplices"] == 26
    assert metrics["io.input_bytes"] == len(OCTAHEDRON)
    names = {s[tracer.NAME]: s for s in rec.spans}
    assert rec.parent_name(names["spectral.betti"]) == "spectral.spectrum_report"
    assert abs(sum(rec.self_times().values()) - rec.root_time()) < 1e-9


def _op(exit_code=0):
    return {"name": "t", "argv": ["heat"], "expect": {"exit": exit_code,
                                                      "equal": {"chi": 2}}}


def _report(results: str) -> str:
    return '{"schema": "simhodge.report/1", "command": "heat", "results": %s}' % results


def test_gate_accepts_a_good_report():
    assert gate.check_op(_op(), 0, _report('{"chi": 2, "ok": true}'), "") == []


def test_gate_rejects_nan_false_checks_wrong_values_and_exit_codes():
    assert gate.check_op(_op(), 0, _report('{"chi": 2, "x": NaN}'), "")
    assert gate.check_op(_op(), 0, _report('{"chi": 2, "x": Infinity}'), "")
    assert gate.check_op(_op(), 0, _report('{"chi": 2, "ok": [true, false]}'), "")
    assert gate.check_op(_op(), 0, _report('{"chi": 3}'), "")
    assert gate.check_op(_op(), 0, _report('{}'), "")
    assert gate.check_op(_op(), 1, _report('{"chi": 2}'), "")
    assert gate.check_op(_op(4), 0, _report('{"chi": 2}'), "")
    assert gate.check_op(_op(4), 4, "", "resource limit: too big\n") == []
    assert gate.check_op(_op(2), 2, "", "Traceback (most recent call last):\n")


def test_reference_facts_of_the_octahedron():
    facts = Facts(parse_facets(OCTAHEDRON))
    assert facts.f_vector == [6, 12, 8]
    assert facts.euler == 2 and facts.betti() == [1, 0, 1]
    assert (facts.wu(2), facts.wu(3)) == (2, 2)
    assert facts.order2_tuples() == 386
    assert facts.lefschetz_number({"0": "1", "1": "0"}) == 0  # a reflection


if __name__ == "__main__":
    import tempfile

    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            if "tmp_path" in test.__code__.co_varnames[:test.__code__.co_argcount]:
                with tempfile.TemporaryDirectory() as tmp:
                    test(Path(tmp))
            else:
                test()
            print(f"ok {name}")
