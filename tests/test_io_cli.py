"""Input formats, round-trip identity, report determinism, exit codes."""

import json

import pytest
from conftest import as_scipy

from simhodge import (ContractViolationError, ParseError, downward_closure,
                      euler_characteristic, exterior_derivative, f_vector,
                      generate, trajectory_to_csv)
from simhodge.cli import main
from simhodge.io import (operator_to_json, operator_to_triplets, parse_edges,
                         parse_facets, parse_input, parse_permutation,
                         parse_vertex_function, serialize_facets)

C4_EDGES = "v a\nv b\nv c\nv d\ne a b\ne b c\ne c d\ne a d\n"
K3_EDGES = "v 1\nv 2\nv 3\ne 1 2\ne 2 3\ne 1 3\n"


class TestFacetFormat:
    def test_triangle_facet(self):
        c = parse_facets("1 2 3\n")
        assert c == downward_closure([{0, 1, 2}])
        assert c.labels == {0: "1", 1: "2", 2: "3"}

    def test_comments_and_inline_comments(self):
        c = parse_facets("# heading\n1 2 # an edge\n2 3\n")
        assert f_vector(c) == (3, 2)

    def test_empty_facet_line_is_error(self):
        with pytest.raises(ParseError) as info:
            parse_facets("1 2\n\n2 3\n")
        assert info.value.line == 2

    def test_repeated_label_is_error(self):
        with pytest.raises(ParseError):
            parse_facets("1 1 2\n")

    def test_numeric_aware_interning(self):
        c = parse_facets("10 2\n")
        assert c.labels == {0: "2", 1: "10"}

    def test_round_trip_identity(self):
        for text in ("1 2 3\n2 4\n", "a b\nb c\nc a\n", "x\n"):
            c = parse_facets(text)
            again = parse_facets(serialize_facets(c))
            assert again == c
            assert again.labels == c.labels


class TestEdgeFormat:
    def test_cycle(self):
        c = parse_edges(C4_EDGES)
        assert len(c) == 8
        assert f_vector(c) == (4, 4)

    def test_triangle_fills_in(self):
        assert f_vector(parse_edges(K3_EDGES)) == (3, 3, 1)

    def test_undeclared_vertex(self):
        with pytest.raises(ParseError) as info:
            parse_edges("v a\ne a b\n")
        assert info.value.line == 2

    def test_loop_edge(self):
        with pytest.raises(ParseError):
            parse_edges("v a\ne a a\n")

    def test_duplicate_edge(self):
        with pytest.raises(ParseError):
            parse_edges("v a\nv b\ne a b\ne b a\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            parse_edges("w a\n")

    def test_round_trip_through_facets(self):
        c = parse_edges(C4_EDGES)
        assert parse_facets(serialize_facets(c)) == c


class TestPermutationsAndFunctions:
    def test_arrow_pairs(self):
        c = parse_edges(C4_EDGES)
        p = parse_permutation("a -> b\nb -> c\nc -> d\nd -> a\n", c)
        assert sorted(p.values()) == sorted(p.keys())

    def test_cycle_notation(self):
        c = parse_edges(C4_EDGES)
        p = parse_permutation("(a b c d)\n", c)
        q = parse_permutation("a->b\nb->c\nc->d\nd->a\n", c)
        assert p == q

    def test_multiple_cycles_on_one_line(self):
        c = parse_edges(C4_EDGES)
        p = parse_permutation("(a c)(b d)\n", c)
        q = parse_permutation("a->c\nc->a\nb->d\nd->b\n", c)
        assert p == q

    def test_unmentioned_vertices_fixed(self):
        c = parse_edges(C4_EDGES)
        p = parse_permutation("(b d)\n", c)
        assert p[p_key(c, "a")] == p_key(c, "a")

    def test_duplicate_source_rejected(self):
        c = parse_edges(C4_EDGES)
        with pytest.raises(ParseError):
            parse_permutation("a->b\na->c\n", c)

    def test_errors_name_their_line(self):
        c = parse_edges(C4_EDGES)
        cases = [("# swap\n(a b)\n\n", 3, "no tokens"),
                 ("a->b\n  # note\na b\n", 3, "expected 'a -> b' pairs"),
                 ("(a b)\n\tb -> c # again\n", 2, "mapped twice"),
                 ("a -> \n", 1, "exactly 'a -> b'")]
        for text, line, message in cases:
            with pytest.raises(ParseError, match=message) as err:
                parse_permutation(text, c)
            assert err.value.line == line, text

    def test_vertex_function(self):
        c = parse_edges(C4_EDGES)
        f = parse_vertex_function("a 0\nb 1.5\nc 2\nd 3\n", c)
        assert f[p_key(c, "b")] == 1.5

    def test_unreadable_value(self):
        c = parse_edges(C4_EDGES)
        with pytest.raises(ParseError):
            parse_vertex_function("a zero\n", c)


def p_key(c, label):
    return next(v for v, lab in c.labels.items() if lab == label)


class TestOperatorExport:
    def test_triplets_shape(self, k3):
        d = exterior_derivative(k3)
        lines = operator_to_triplets(d).strip().splitlines()
        assert len(lines) == as_scipy(d.matrix).count_nonzero()
        row, col, value = lines[0].split()
        assert int(value) in (-1, 1)

    def test_json_carries_basis_labels(self, k3):
        d = exterior_derivative(k3)
        payload = operator_to_json(d, k3)
        assert payload["shape"] == [7, 7]
        assert payload["grading_shift"] == 1
        assert payload["basis"][0] == ["0"]
        assert len(payload["entries"]) == as_scipy(d.matrix).count_nonzero()

    def test_json_tuple_basis_labels(self):
        from simhodge import connection_derivative

        edge = downward_closure([(0, 1)])
        d = connection_derivative(edge, 2)
        payload = operator_to_json(d, edge)
        assert payload["basis"][0] == [["0"], ["0"]]
        assert payload["degrees"][0] == 0


@pytest.fixture()
def k3_file(tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text(K3_EDGES)
    return str(path)


@pytest.fixture()
def c4_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text(C4_EDGES)
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCli:
    def test_report_on_triangle(self, k3_file, capsys):
        code, out, _ = run_cli(["report", "--input", k3_file,
                                "--format", "edges"], capsys)
        assert code == 0
        report = json.loads(out)
        results = report["results"]
        assert results["euler_characteristic"] == 1
        assert results["index_theorem"]["1"]["equal"] is True
        assert results["index_theorem"]["2"]["equal"] is True
        assert report["schema"] == "simhodge.report/1"

    def test_heat_on_cycle(self, c4_file, capsys):
        code, out, _ = run_cli(["heat", "--input", c4_file, "--format", "edges",
                                "--t", "0,1,10"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["within_tolerance"] is True
        assert abs(results["supertrace"]["1.0"]) < 1e-9

    def test_lefschetz_rotation(self, c4_file, tmp_path, capsys):
        perm = tmp_path / "rot.txt"
        perm.write_text("(a b c d)\n")
        code, out, _ = run_cli(["lefschetz", "--input", c4_file,
                                "--format", "edges", "--perm", str(perm)], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["lefschetz_number"] == 0
        assert results["fixed_simplices"] == []
        assert results["heat_trace_constant"] is True

    def test_lefschetz_uses_vertex_labels(self, tmp_path, capsys):
        square = tmp_path / "square.txt"
        square.write_text("a b\nb c\nc d\nd a\n")
        perm = tmp_path / "flip.txt"
        perm.write_text("(b d)\n")
        code, out, _ = run_cli(["lefschetz", "--input", str(square),
                                "--perm", str(perm)], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["lefschetz_number"] == 2
        assert results["fixed_simplices"] == [{"simplex": ["a"], "index": 1},
                                              {"simplex": ["c"], "index": 1}]
        one, zero = {"num": 1, "den": 1}, {"num": 0, "den": 1}
        assert results["vertex_indices"] == {"a": one, "b": zero,
                                             "c": one, "d": zero}
        code, out, _ = run_cli(["curvature", "--input", str(square)], capsys)
        assert json.loads(out)["results"]["values"].keys() == \
            results["vertex_indices"].keys()

    def test_lefschetz_builds_the_action_once(self, tmp_path, capsys,
                                              monkeypatch):
        import numpy as np

        from simhodge import lefschetz
        from simhodge.operators import GradedOperator

        octahedron = tmp_path / "octahedron.txt"
        octahedron.write_text(serialize_facets(generate("octahedron")))
        perm = tmp_path / "swap.txt"
        perm.write_text("(0 1)(2 3)\n")
        calls = {"induced_map": 0, "commuting": 0, "eigh": 0,
                 "eigh_outside_eigensystem": 0, "action_blocks": 0}
        actions, inside = [], []
        induced_map, require_commuting = (lefschetz.induced_map,
                                          lefschetz._require_commuting)
        eigh, eigensystem, diag_block = (np.linalg.eigh,
                                         GradedOperator.eigensystem,
                                         GradedOperator.diag_block)

        def counting_induced_map(*args):
            calls["induced_map"] += 1
            actions.append(induced_map(*args))
            return actions[-1]

        def counting_commuting(*args):
            calls["commuting"] += 1
            return require_commuting(*args)

        def counting_eigh(*args):
            calls["eigh"] += 1
            calls["eigh_outside_eigensystem"] += not inside
            return eigh(*args)

        def marking_eigensystem(op, k):
            inside.append(k)
            try:
                return eigensystem(op, k)
            finally:
                inside.pop()

        def counting_diag_block(op, k):
            calls["action_blocks"] += any(op is u for u in actions)
            return diag_block(op, k)

        monkeypatch.setattr(lefschetz, "induced_map", counting_induced_map)
        monkeypatch.setattr(lefschetz, "_require_commuting", counting_commuting)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(GradedOperator, "eigensystem", marking_eigensystem)
        monkeypatch.setattr(GradedOperator, "diag_block", counting_diag_block)
        code, out, _ = run_cli(["lefschetz", "--input", str(octahedron),
                                "--perm", str(perm), "--t", "0,0.1,1,10,50"],
                               capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["lefschetz_number"] == 2
        assert len(results["heat_trace"]) == 5
        # three degrees: one solve and one V^T U V product for each
        assert calls == {"induced_map": 1, "commuting": 2, "eigh": 3,
                         "eigh_outside_eigensystem": 0, "action_blocks": 3}

    def test_deterministic_results(self, k3_file, capsys):
        _, first, _ = run_cli(["ph", "--input", k3_file, "--format", "edges",
                               "--seed", "9"], capsys)
        _, second, _ = run_cli(["ph", "--input", k3_file, "--format", "edges",
                                "--seed", "9"], capsys)
        a, b = json.loads(first), json.loads(second)
        assert json.dumps(a["results"], sort_keys=True) \
            == json.dumps(b["results"], sort_keys=True)

    def test_ph_sum_matches_chi(self, k3_file, capsys):
        code, out, _ = run_cli(["ph", "--input", k3_file, "--format", "edges",
                                "--seed", "3"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["sum_equals_euler_characteristic"] is True

    def test_refine_cross_check(self, k3_file, capsys):
        code, out, _ = run_cli(["refine", "--input", k3_file,
                                "--format", "edges"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["refined_f_vector"] == [7, 12, 6]
        assert results["operator_matches"] is True

    def test_skeleton_command(self, k3_file, capsys):
        code, out, _ = run_cli(["skeleton", "--input", k3_file,
                                "--format", "edges", "--order", "1"], capsys)
        assert code == 0
        assert json.loads(out)["results"]["f_vector"] == [3, 3]

    def test_betti_connection_order(self, k3_file, capsys):
        code, out, _ = run_cli(["betti", "--input", k3_file, "--format", "edges",
                                "--order", "2"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["exact_numeric_agreement"] is True

    def test_export_triplets(self, c4_file, capsys):
        code, out, _ = run_cli(["export", "--input", c4_file, "--format", "edges",
                                "--operator", "dirac"], capsys)
        assert code == 0
        assert "triplets" in json.loads(out)["results"]

    def test_lax_csv_output(self, c4_file, tmp_path, capsys):
        out_path = tmp_path / "flow.csv"
        code, _, _ = run_cli(["lax", "--input", c4_file, "--format", "edges",
                              "--t-end", "0.2", "--dt", "0.05",
                              "--out", str(out_path)], capsys)
        assert code == 0
        assert out_path.read_text().startswith("t,eig_0")

    def test_lax_invariant_booleans(self, c4_file, capsys):
        code, out, _ = run_cli(["lax", "--input", c4_file, "--format", "edges",
                                "--t-end", "1", "--dt", "0.01"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["isospectral_within_tolerance"] is True
        assert results["nilpotency_within_tolerance"] is True
        assert results["symmetry_within_tolerance"] is True

    def test_out_file_written_atomically(self, k3_file, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(["heat", "--input", k3_file, "--format", "edges",
                              "--out", str(out_path)], capsys)
        assert code == 0
        assert json.loads(out_path.read_text())["command"] == "heat"
        assert not (tmp_path / "report.json.tmp").exists()

    def test_out_dir_environment_variable(self, k3_file, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.setenv("SIMHODGE_OUT_DIR", str(tmp_path))
        code, _, _ = run_cli(["heat", "--input", k3_file, "--format", "edges",
                              "--out", "fromenv.json"], capsys)
        assert code == 0
        assert (tmp_path / "fromenv.json").exists()

    def test_lax_json_trajectory_with_matrices(self, c4_file, capsys):
        code, out, _ = run_cli(["lax", "--input", c4_file, "--format", "edges",
                                "--t-end", "0.2", "--dt", "0.1", "--matrices"],
                               capsys)
        assert code == 0
        states = json.loads(out)["results"]["trajectory"]["states"]
        assert len(states) >= 2
        assert len(states[0]["matrix"]) == 8
        assert states[0]["b_norm"] == 0.0

    @pytest.fixture()
    def lax_calls(self, monkeypatch):
        """Count FlowState.eigenvalues calls and keep the integrated states."""
        from simhodge import cli
        from simhodge.lax import FlowState

        seen = {"eigenvalues": 0, "states": None}
        eigenvalues, integrate = FlowState.eigenvalues, cli.integrate

        def counting_eigenvalues(state):
            seen["eigenvalues"] += 1
            return eigenvalues(state)

        def keeping_integrate(*args, **kwargs):
            seen["states"] = integrate(*args, **kwargs)
            return seen["states"]

        monkeypatch.setattr(FlowState, "eigenvalues", counting_eigenvalues)
        monkeypatch.setattr(cli, "integrate", keeping_integrate)
        return seen

    def test_lax_solves_each_state_once(self, c4_file, capsys, lax_calls):
        code, out, _ = run_cli(["lax", "--input", c4_file, "--format", "edges",
                                "--t-end", "1", "--dt", "0.05"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        states = lax_calls["states"]
        assert lax_calls["eigenvalues"] == len(states) == 11
        assert "csv" not in results
        rows = results["trajectory"]["states"]
        assert results["spectral_drift"] == rows[-1]["drift"]
        assert results["final_middle_norm"] == rows[-1]["b_norm"]
        assert results["max_nilpotency_defect"] == max(
            row["d_squared_norm"] for row in rows)

    def test_lax_csv_is_trajectory_csv(self, c4_file, tmp_path, capsys,
                                       lax_calls):
        out_path = tmp_path / "flow.csv"
        code, out, _ = run_cli(["lax", "--input", c4_file, "--format", "edges",
                                "--t-end", "1", "--dt", "0.05",
                                "--out", str(out_path)], capsys)
        assert code == 0 and out == ""
        states = lax_calls["states"]
        assert lax_calls["eigenvalues"] == len(states) == 11
        assert out_path.read_text() == trajectory_to_csv(states)


class TestExitCodes:
    def test_parse_error_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2\n\n3\n")
        code, _, err = run_cli(["report", "--input", str(bad)], capsys)
        assert code == 2
        assert "line 2" in err

    def test_missing_file_is_two(self, capsys):
        code, _, _ = run_cli(["report", "--input", "/does/not/exist"], capsys)
        assert code == 2

    def test_invalid_time_is_two(self, c4_file, capsys):
        code, _, _ = run_cli(["heat", "--input", c4_file, "--format", "edges",
                              "--t", "-1"], capsys)
        assert code == 2

    def test_resource_limit_is_four(self, tmp_path, capsys):
        big = tmp_path / "big.txt"
        big.write_text(" ".join(str(i) for i in range(9)) + "\n")
        code, _, _ = run_cli(["ph", "--input", str(big), "--mode", "exhaustive"],
                             capsys)
        assert code == 4

    def test_connection_guard_is_four(self, tmp_path, capsys):
        big = tmp_path / "big.txt"
        big.write_text(" ".join(str(i) for i in range(7)) + "\n")
        code, _, _ = run_cli(["betti", "--input", str(big), "--order", "3"],
                             capsys)
        assert code == 4

    def test_contract_violation_is_three(self, k3_file, capsys, monkeypatch):
        from simhodge import cli

        def boom(c, args):
            raise ContractViolationError("forced for the exit-code contract")

        monkeypatch.setitem(cli._COMMANDS, "heat", boom)
        code, _, err = run_cli(["heat", "--input", k3_file, "--format", "edges"],
                               capsys)
        assert code == 3
        assert "contract violation" in err

    def test_bad_sample_count_is_two(self, k3_file, capsys):
        code, _, _ = run_cli(["ph", "--input", k3_file, "--format", "edges",
                              "--mode", "sampled:many"], capsys)
        assert code == 2

    def test_ph_sampled_mode(self, k3_file, capsys):
        code, out, _ = run_cli(["ph", "--input", k3_file, "--format", "edges",
                                "--mode", "sampled:500", "--seed", "2"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["samples"] == 500
        assert set(results["stderr"]) == {"1", "2", "3"}

    def test_curvature_order_two(self, k3_file, capsys):
        code, out, _ = run_cli(["curvature", "--input", k3_file,
                                "--format", "edges", "--order", "2"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["total_matches_characteristic"] is True
        assert results["target_characteristic"] == 1  # a 2-simplex has weight +1

    def test_bad_permutation_is_two(self, c4_file, tmp_path, capsys):
        perm = tmp_path / "perm.txt"
        perm.write_text("a->b\nb->a\n")  # not simplex-preserving on the cycle
        code, _, _ = run_cli(["lefschetz", "--input", c4_file,
                              "--format", "edges", "--perm", str(perm)], capsys)
        assert code == 2


def test_tracer_bindings_resolve():
    """Every (module, attribute) the benchmark tracer wraps must exist."""
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [(mod, attr) for targets in tracer.SPANS.values()
               for mod, attr in targets
               if not callable(getattr(sys.modules[mod], attr, None))]
    for mod, cls, attr in (*tracer.METHOD_SPANS.values(),
                           *tracer.COUNTERS.values()):
        owner = sys.modules[mod]
        if cls is None:
            found = callable(getattr(owner, attr, None))
        else:
            found = callable(vars(getattr(owner, cls, object)).get(attr))
        if not found:
            missing.append((mod, cls, attr))
    assert missing == []


def test_runtime_needs_no_scipy(tmp_path):
    """Importing the CLI loads no scipy module, and ``report`` exits 0 with
    scipy made unimportable; checked in a fresh interpreter."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import simhodge

    octahedron = tmp_path / "octahedron.txt"
    octahedron.write_text(serialize_facets(generate("octahedron")))
    script = "\n".join([
        "import sys",
        "import simhodge.cli",
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']",
        "assert loaded == [], loaded",
        "sys.modules['scipy'] = None",
        f"sys.exit(simhodge.cli.main(['report', '--input', {str(octahedron)!r}]))"])
    env = dict(os.environ,
               PYTHONPATH=str(Path(simhodge.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["results"]["euler_characteristic"] == 2


class TestHostileInputs:
    @pytest.mark.parametrize("flags", [
        ["ph", "--mode", "sampled:0"],
        ["ph", "--mode", "sampled:-5"],
        ["heat", "--t", "nan,inf"],
        ["heat", "--t", "0,inf"],
        ["lax", "--dt", "nan"],
        ["lax", "--dt", "0"],
        ["lax", "--dt", "inf"],
        ["lax", "--t-end", "inf"],
        ["lax", "--t-end", "nan"],
    ])
    def test_out_of_range_flag_is_two(self, k3_file, capsys, flags):
        code, out, err = run_cli([flags[0], "--input", k3_file,
                                  "--format", "edges", *flags[1:]], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("flags", [
        ["--t-end", "1e12", "--dt", "1e-3"],
        ["--dt", "5e-324"],
    ])
    def test_unbounded_lax_is_four(self, k3_file, capsys, monkeypatch, flags):
        from simhodge import lax

        def step(*args):
            raise AssertionError("a step ran before the budget was checked")

        monkeypatch.setattr(lax, "_rk4_step", step)
        code, out, err = run_cli(["lax", "--input", k3_file,
                                  "--format", "edges", *flags], capsys)
        assert code == 4
        assert out == ""
        assert err.startswith("resource limit: ")

    def test_non_finite_lefschetz_time_is_two(self, c4_file, tmp_path, capsys):
        perm = tmp_path / "perm.txt"
        perm.write_text("(a b c d)\n")
        code, _, err = run_cli(["lefschetz", "--input", c4_file,
                                "--format", "edges", "--perm", str(perm),
                                "--t", "1,nan"], capsys)
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("command", ["betti", "report"])
    def test_invalid_utf8_input_is_two(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe1 2\n")
        code, out, err = run_cli([command, "--input", str(bad)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "UTF-8" in err

    def test_invalid_utf8_permutation_is_two(self, c4_file, tmp_path, capsys):
        perm = tmp_path / "perm.txt"
        perm.write_bytes(b"a->\xff\n")
        code, _, err = run_cli(["lefschetz", "--input", c4_file,
                                "--format", "edges", "--perm", str(perm)],
                               capsys)
        assert code == 2
        assert "UTF-8" in err

    def test_non_finite_result_is_three_not_nan(self, k3_file, capsys,
                                                monkeypatch):
        from simhodge import cli

        monkeypatch.setitem(cli._COMMANDS, "heat",
                            lambda c, args: {"value": float("nan")})
        code, out, err = run_cli(["heat", "--input", k3_file,
                                  "--format", "edges"], capsys)
        assert code == 3
        assert out == "" and "NaN" not in err
        assert err.startswith("contract violation: ")

    def test_input_read_once_and_hashed(self, k3_file, capsys, monkeypatch):
        import builtins
        import hashlib

        opened = []
        real_open = builtins.open

        def counting_open(path, *args, **kwargs):
            opened.append(str(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        code, out, _ = run_cli(["heat", "--input", k3_file,
                                "--format", "edges"], capsys)
        assert code == 0
        assert opened.count(k3_file) == 1
        digest = hashlib.sha256(K3_EDGES.encode()).hexdigest()
        assert json.loads(out)["input"]["sha256"] == digest

    def test_report_computes_each_invariant_once(self, k3_file, capsys,
                                                 monkeypatch):
        import sys

        from simhodge import indices, operators, spectral

        calls = {}

        def count_everywhere(original):
            def wrapper(*args, **kwargs):
                calls[original.__name__] = calls.get(original.__name__, 0) + 1
                return original(*args, **kwargs)

            # rebind in every module that imported the function by name
            for name, module in list(sys.modules.items()):
                if name.startswith("simhodge"):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, attr, wrapper)

        for fn in (spectral.betti, indices.multilinear_curvature,
                   operators.exterior_derivative,
                   operators.connection_derivative):
            count_everywhere(fn)
        code, out, _ = run_cli(["report", "--input", k3_file,
                                "--format", "edges"], capsys)
        assert code == 0
        assert calls == {"betti": 2, "multilinear_curvature": 1,
                         "exterior_derivative": 1, "connection_derivative": 1}
        triples = json.loads(out)["results"]["index_theorem"]
        assert all(t["equal"] for t in triples.values())

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_vertex_function_is_two(self, k3_file, tmp_path, capsys,
                                               value):
        function = tmp_path / "f.txt"
        function.write_text(f"1 0\n2 {value}\n3 2\n")
        code, out, err = run_cli(["ph", "--input", k3_file, "--format", "edges",
                                  "--function", str(function)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 2: ") and "Traceback" not in err

    @pytest.mark.parametrize("mode", [[], ["--mode", "sampled:10"]])
    def test_negative_seed_is_two(self, k3_file, capsys, mode):
        code, out, err = run_cli(["ph", "--input", k3_file, "--format", "edges",
                                  "--seed", "-1", *mode], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_huge_sample_count_is_four(self, k3_file, capsys):
        import time

        started = time.perf_counter()
        code, out, err = run_cli(["ph", "--input", k3_file, "--format", "edges",
                                  "--mode", "sampled:99999999999999999999999"],
                                 capsys)
        assert time.perf_counter() - started < 1.0
        assert code == 4
        assert out == ""
        assert err.startswith("resource limit: ")

    def test_report_checks_each_derivative_nilpotent_once(self, k3_file, capsys,
                                                          monkeypatch):
        from simhodge import cli
        from simhodge.intlinalg import IntMatrix

        derivatives, left = [], []
        derivative_for, matmul = cli._derivative_for, IntMatrix.__matmul__

        def recording_derivative_for(*args):
            derivatives.append(derivative_for(*args))
            return derivatives[-1]

        def recording_matmul(self, other):
            left.append(self)
            return matmul(self, other)

        monkeypatch.setattr(cli, "_derivative_for", recording_derivative_for)
        monkeypatch.setattr(IntMatrix, "__matmul__", recording_matmul)
        code, _, _ = run_cli(["report", "--input", k3_file, "--format", "edges"],
                             capsys)
        assert code == 0
        assert len(derivatives) == 2
        assert sum(any(m is d.matrix for d in derivatives) for m in left) == 2


def _run_child(argv, tmp_path, hash_seed="0", address_space=None, timeout=120):
    """``simhodge`` in a fresh interpreter with a fixed hash seed, one BLAS
    thread and optionally an address-space limit in bytes (so an allocation
    past it fails in the child instead of exhausting the machine)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import simhodge

    def limit():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    env = dict(os.environ, PYTHONHASHSEED=hash_seed, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1",
               PYTHONPATH=str(Path(simhodge.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "simhodge.cli", *argv],
                          env=env, cwd=tmp_path, capture_output=True, text=True,
                          timeout=timeout,
                          preexec_fn=limit if address_space else None)


def test_numerically_equal_labels_ignore_hash_seed(tmp_path):
    """Labels "1" and "01" have the same integer value; their ids, and so
    the ``ph`` indices, must not depend on set iteration order."""
    facets = tmp_path / "ties.txt"
    facets.write_text("01 2\n1 3\n")
    runs = [_run_child(["ph", "--input", str(facets), "--seed", "0"], tmp_path,
                       hash_seed=seed) for seed in ("0", "1")]
    assert [run.returncode for run in runs] == [0, 0]
    first, second = (json.loads(run.stdout)["results"] for run in runs)
    assert first == second
    assert parse_facets("01 2\n1 3\n").labels == {0: "01", 1: "1", 2: "2", 3: "3"}


class TestEigensolves:
    @pytest.mark.parametrize("command, extra, solves", [
        ("report", [], {"eigh": 0, "eigvalsh": 8}),  # 3 order-1, 5 order-2 blocks
        ("betti", [], {"eigh": 0, "eigvalsh": 3}),
        ("betti", ["--order", "2"], {"eigh": 0, "eigvalsh": 5}),
        ("heat", [], {"eigh": 0, "eigvalsh": 3}),
        ("lefschetz", ["--perm", "swap.txt"], {"eigh": 3, "eigvalsh": 0}),
    ])
    def test_vectors_only_where_read(self, tmp_path, capsys, monkeypatch,
                                     solver_calls, command, extra, solves):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "octahedron.txt").write_text(
            serialize_facets(generate("octahedron")))
        (tmp_path / "swap.txt").write_text("(0 1)(2 3)\n")
        code, _, err = run_cli([command, "--input", "octahedron.txt", *extra],
                               capsys)
        assert code == 0, err
        assert solver_calls == solves

    @pytest.mark.parametrize("argv", [
        ["report"], ["betti", "--order", "2"]])
    def test_dense_block_budget_is_four(self, tmp_path, capsys, monkeypatch, argv):
        from simhodge import operators

        def never(*args):
            raise AssertionError("a basis was built before the budget was checked")

        monkeypatch.setattr(operators, "DENSE_BLOCK_LIMIT", 100)  # order 2 needs 132
        monkeypatch.setattr(operators, "connection_basis", never)
        octahedron = tmp_path / "octahedron.txt"
        octahedron.write_text(serialize_facets(generate("octahedron")))
        code, out, err = run_cli([*argv, "--input", str(octahedron)], capsys)
        assert code == 4
        assert out == ""
        assert err.startswith("resource limit: degree-2 block is 132 wide")

    def test_order_three_curvature_still_four(self, tmp_path, capsys):
        octahedron = tmp_path / "octahedron.txt"
        octahedron.write_text(serialize_facets(generate("octahedron")))
        code, _, err = run_cli(["curvature", "--input", str(octahedron),
                                "--order", "3"], capsys)
        assert code == 4
        assert err.startswith("resource limit: order 3 needs 4442 tuples")

    @pytest.mark.parametrize("argv", [
        ["report"], ["betti", "--order", "2"]])
    def test_wide_order_two_blocks_refused_in_a_bounded_child(self, tmp_path, argv):
        """random(40, 0.3) has an order-2 block 30732 wide (7 GiB as dense
        int64); refused before any basis, well inside a 2 GiB address space."""
        import time

        big = tmp_path / "random40.txt"
        big.write_text(serialize_facets(generate("random", 40, seed=1,
                                                 edge_prob=0.3)))
        started = time.monotonic()
        done = _run_child([*argv, "--input", str(big)], tmp_path,
                          address_space=2 << 30, timeout=60)
        elapsed = time.monotonic() - started
        assert done.returncode == 4, done.stderr[-2000:]
        assert done.stderr.startswith(
            "resource limit: degree-2 block is 7463 wide")
        assert elapsed < 10
