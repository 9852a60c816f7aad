"""Start-up: numpy is imported on first use through ``simhodge._np``, so a
process that computes no floats never loads it, while ``import
simhodge.cli`` still loads every simhodge module the benchmark tracer binds."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import simhodge
from simhodge import barycentric_refinement, generate
from simhodge.io import serialize_facets

SRC = str(Path(simhodge.__file__).resolve().parents[1])
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# runs simhodge.cli.main on argv in this interpreter, then writes one last
# stderr line: the numpy modules the process loaded
MAIN = "\n".join([
    "import json, sys",
    "from simhodge.cli import main",
    "try:",
    "    code = main(sys.argv[1:])",
    "except SystemExit as exit:",
    "    code = exit.code",
    "loaded = [m for m in sys.modules if m.split('.')[0] == 'numpy']",
    "print(json.dumps(loaded), file=sys.stderr)",
    "sys.exit(code)"])


def _fresh(script, argv=(), cwd=None):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          cwd=cwd, capture_output=True, text=True, timeout=120)


def _main(argv, cwd):
    """(exit code, stdout, stderr before the last line, numpy modules loaded)."""
    done = _fresh(MAIN, argv, cwd)
    *err, loaded = done.stderr.splitlines()
    return done.returncode, done.stdout, "\n".join(err), json.loads(loaded)


def test_cli_import_binds_every_traced_name_and_loads_no_numpy():
    """The tracer reads each name it wraps from ``sys.modules`` right after
    ``import simhodge.cli``; the import loads those modules, not numpy."""
    script = "\n".join([
        "import importlib.util, json, sys",
        "import simhodge.cli",
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'numpy']",
        f"spec = importlib.util.spec_from_file_location('tracer', {str(TRACER)!r})",
        "tracer = importlib.util.module_from_spec(spec)",
        "spec.loader.exec_module(tracer)",
        "missing = [(m, a) for targets in tracer.SPANS.values()",
        "           for m, a in targets",
        "           if a not in vars(sys.modules.get(m, json))]",
        "for m, cls, a in (*tracer.METHOD_SPANS.values(),",
        "                  *tracer.COUNTERS.values()):",
        "    owner = sys.modules.get(m, json)",
        "    if a not in vars(owner if cls is None else getattr(owner, cls, json)):",
        "        missing.append((m, cls, a))",
        "print(json.dumps({'numpy': loaded, 'missing': missing}))"])
    done = _fresh(script)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"numpy": [], "missing": []}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup")
    texts = {
        "octahedron.txt": serialize_facets(generate("octahedron")),
        "refined.txt": serialize_facets(
            barycentric_refinement(generate("octahedron"))),
        # the octahedron with a facet that repeats a vertex label
        "malformed.txt": "0 2 4 0\n" + serialize_facets(generate("octahedron")),
        "random40.txt": serialize_facets(
            generate("random", 40, seed=1, edge_prob=0.3)),
        "path4100.txt": serialize_facets(generate("path", 4100)),
        "octahedron.perm": "(0 1)\n",
    }
    for name, text in texts.items():
        (root / name).write_text(text)
    return root


@pytest.mark.parametrize("argv, code, message", [
    (["--version"], 0, ""),
    (["skeleton", "--input", "octahedron.txt"], 0, ""),
    (["betti", "--input", "malformed.txt"], 2,
     "error: line 1: facet repeats a vertex label"),
    (["curvature", "--order", "3", "--input", "octahedron.txt"], 4,
     "resource limit: order 3 needs 4442 tuples, limit is 2000"),
    (["lax", "--t-end", "1e6", "--dt", "0.1", "--input", "octahedron.txt"], 4,
     "resource limit: 10000001 sampled states of size 26 need "),
    # charged its 74 singular pairs a state, from the f-vector, before
    # numpy loads or any Gram matrix is solved
    (["lax", "--t-end", "1600", "--dt", "0.1", "--input", "refined.txt"], 4,
     "resource limit: 16001 sampled states of size 146 need 277265328 bytes, "
     "limit is 268435456"),
    # the frame's width limit, which bounds a flow's work, from the f-vector
    (["lax", "--input", "path4100.txt"], 4,
     "resource limit: degree-0 block is 4100 wide for a dense eigensolve, "
     "limit is 4096"),
    (["refine", "--input", "octahedron.txt"], 0, ""),
    # the vertex spread and the characteristic it is checked against are
    # Python integers at both orders
    (["curvature", "--input", "random40.txt"], 0, ""),
    (["curvature", "--order", "2", "--input", "random40.txt"], 0, ""),
    (["report", "--input", "random40.txt"], 4,
     "resource limit: degree-2 block is 7463 wide for a dense eigensolve, "
     "limit is 4096"),
    (["heat", "--t", "abc", "--input", "octahedron.txt"], 2,
     "error: unreadable time list 'abc'"),
    (["lefschetz", "--t", "0,x", "--perm", "octahedron.perm",
      "--input", "octahedron.txt"], 2, "error: unreadable time list '0,x'"),
], ids=["version", "skeleton", "malformed", "order3-guard", "lax-budget",
        "lax-refined-pairs", "lax-path4100", "refine", "curvature-random40",
        "curvature2-random40", "report-random40",
        "heat-bad-t", "lefschetz-bad-t"])
def test_processes_that_compute_no_floats_load_no_numpy(inputs, argv, code,
                                                        message):
    got, out, err, loaded = _main(argv, inputs)
    assert got == code, err
    assert err.startswith(message)
    assert (out.strip() == simhodge.__version__ if argv == ["--version"]
            else (out == "") == (code != 0))
    assert loaded == []


def test_float_command_loads_numpy_and_reports_as_in_process(inputs, capsys):
    """``betti`` imports numpy inside the command and gives the ``results``
    of a run in this process, where numpy was loaded first."""
    from simhodge.cli import main

    argv = ["betti", "--input", str(inputs / "octahedron.txt")]
    code, out, err, loaded = _main(argv, inputs)
    assert code == 0, err
    assert "numpy" in loaded
    assert main(argv) == 0
    expected = json.loads(capsys.readouterr().out)["results"]
    assert json.loads(out)["results"] == expected
    assert expected["betti"] == [1, 0, 1]


def test_a_patched_name_survives_the_first_access():
    """An attribute set on a module's ``np`` before numpy loads is kept when
    a later lookup of another name copies numpy's names in."""
    script = "\n".join([
        "import sys",
        "from simhodge import intlinalg",
        "assert 'numpy' not in sys.modules",
        "patched = object()",
        "intlinalg.np.repeat = patched",
        "zeros = intlinalg.np.zeros",
        "import numpy",
        "assert zeros is numpy.zeros",
        "assert intlinalg.np.repeat is patched",
        "assert intlinalg.np.ndarray is numpy.ndarray",
        "assert intlinalg.np.__name__ == 'simhodge._np'",
        "print('ok')"])
    done = _fresh(script)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


def test_lazily_imported_submodule_resolves(inputs):
    """``numpy.random`` is itself imported on first use; ``ph`` reaches it
    through the binding in a fresh process."""
    code, out, err, loaded = _main(
        ["ph", "--input", "octahedron.txt", "--seed", "3"], inputs)
    assert code == 0, err
    assert "numpy.random" in loaded
    results = json.loads(out)["results"]
    assert results["sum_equals_euler_characteristic"] is True

