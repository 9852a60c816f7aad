"""Input formats, round-trip identity, report determinism, exit codes."""

import json

import pytest
from conftest import as_scipy

from simhodge import (ContractViolationError, InvalidInputError, ParseError,
                      ResourceLimitError, dirac, downward_closure,
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

    def test_empty_edge_list_is_the_empty_complex(self):
        for text in ("", "# no vertices\n"):
            c = parse_edges(text)
            assert c == downward_closure([]) and len(c) == 0
            assert f_vector(c) == ()

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
        assert parse_permutation(" ( a c )   (b d) \n", c) == p

    @pytest.mark.parametrize("line", [
        "(0 1) 2 3", "2 (0 1)(3 4)", "(0 1)(2 3) 4", "(0 (1 2))", "((0 1))",
        "(0 1", "(0 1)(2 3", "(0 1))", "(0 1)) (2 3)"])
    def test_malformed_cycles_refused(self, line, tmp_path, capsys):
        """A label outside a cycle's parentheses, nested parentheses and
        unbalanced ones are refused, naming the line; exit 2 from the CLI."""
        octahedron = generate("octahedron")
        text = f"# swap\n{line}\n"
        with pytest.raises(ParseError) as err:
            parse_permutation(text, octahedron)
        assert err.value.line == 2
        complex_file, perm = tmp_path / "octahedron.txt", tmp_path / "perm.txt"
        complex_file.write_text(serialize_facets(octahedron))
        perm.write_text(text)
        code, out, err = run_cli(["lefschetz", "--input", str(complex_file),
                                  "--perm", str(perm)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: line 2: ") and "Traceback" not in err

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

    @pytest.mark.parametrize("parse, line", [
        (parse_vertex_function, "{} 1\n"), (parse_permutation, "{0} -> {0}\n")])
    def test_label_table_read_once_per_parse(self, parse, line):
        """Each label resolves through one map, not a scan of the labels."""
        class CountingLabels(dict):
            reads = 0

            def items(self):
                CountingLabels.reads += 1
                return super().items()

        c = parse_facets(serialize_facets(generate("path", 200)))
        c.labels = CountingLabels(c.labels)
        text = "".join(line.format(lab) for lab in c.labels.values())
        assert len(parse(text, c)) == 200
        assert CountingLabels.reads <= 1

    def test_unknown_labels_keep_their_message(self):
        labeled, plain = parse_edges(C4_EDGES), generate("cycle", 4)
        for c, text in ((labeled, "e 1\n"), (plain, "7 1\n"), (plain, "x 1\n")):
            with pytest.raises(InvalidInputError,
                               match=f"unknown vertex label '{text.split()[0]}'"):
                parse_vertex_function(text, c)
        assert parse_vertex_function("03 1\n", plain) == {3: 1.0}


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
    def test_output_bytes(self, tmp_path, monkeypatch, capsysbinary):
        """A report is compact sorted JSON and exactly one newline, the same
        bytes on stdout and in an --out file; a trajectory CSV is written as
        it is, ending in its one newline."""
        from simhodge import cli

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli.time, "monotonic", lambda: 0.0)
        (tmp_path / "k3.txt").write_text("1 2 3\n")
        expected = (
            b'{"command": "skeleton", "input": {"format": "facets", "path": '
            b'"k3.txt", "sha256": "1def07dbe06eeb097aafec8a40329937cd20c93a83'
            b'634b8221ea2b41a894310c"}, "results": {"euler_characteristic": 0, '
            b'"f_vector": [3, 3], "facets": "1 2\\n1 3\\n2 3\\n", "order": 1}, '
            b'"schema": "simhodge.report/1", "timing_ms": 0.0, '
            b'"version": "0.1.0"}\n')
        argv = ["skeleton", "--input", "k3.txt", "--order", "1"]
        assert main(argv) == 0
        assert capsysbinary.readouterr().out == expected
        assert main(argv + ["--out", "report.json"]) == 0
        assert (tmp_path / "report.json").read_bytes() == expected
        assert main(["lax", "--input", "k3.txt", "--t-end", "0.2", "--dt", "0.1",
                     "--out", "flow.csv"]) == 0
        csv = (tmp_path / "flow.csv").read_bytes()
        assert csv.startswith(b"t,eig_0,") and csv.count(b"\n") == 4
        assert csv.endswith(b"\n") and not csv.endswith(b"\n\n")
        assert capsysbinary.readouterr().out == b""

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

    def test_lefschetz_degree_traces_are_integers(self, tmp_path, capsys):
        """tr(U | H^k) is an integer in every degree: an edge and a point,
        with the edge's ends swapped, fix both components."""
        complex_file = tmp_path / "edge_and_point.txt"
        complex_file.write_text("a b\nc\n")
        perm = tmp_path / "swap.txt"
        perm.write_text("(a b)\n")
        code, out, _ = run_cli(["lefschetz", "--input", str(complex_file),
                                "--perm", str(perm)], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["degree_traces"] == {"0": 2, "1": 0}
        assert all(type(v) is int for v in results["degree_traces"].values())
        assert results["lefschetz_number"] == 2

    def test_lefschetz_builds_the_action_once(self, tmp_path, capsys,
                                              monkeypatch):
        import numpy as np

        from simhodge import cli, lefschetz, operators
        from simhodge.operators import GradedOperator

        octahedron = tmp_path / "octahedron.txt"
        octahedron.write_text(serialize_facets(generate("octahedron")))
        perm = tmp_path / "swap.txt"
        perm.write_text("(0 1)(2 3)\n")
        calls = {"induced_map": 0, "commuting": 0, "eigh": 0,
                 "action_blocks": 0}
        actions, widths = [], []
        induced_map, require_commuting = (lefschetz.induced_map,
                                          lefschetz._require_commuting)
        eigh, diag_block = np.linalg.eigh, GradedOperator.diag_block

        def counting_induced_map(*args):
            calls["induced_map"] += 1
            actions.append(induced_map(*args))
            return actions[-1]

        def counting_commuting(*args):
            calls["commuting"] += 1
            return require_commuting(*args)

        def counting_eigh(a):
            calls["eigh"] += 1
            widths.append(len(a))
            return eigh(a)

        def never(*args, **kwargs):
            raise AssertionError("lefschetz formed or solved L")

        def counting_diag_block(op, k):
            calls["action_blocks"] += any(op is u for u in actions)
            return diag_block(op, k)

        monkeypatch.setattr(lefschetz, "induced_map", counting_induced_map)
        monkeypatch.setattr(lefschetz, "_require_commuting", counting_commuting)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        for owner in (cli, operators):
            monkeypatch.setattr(owner, "hodge", never)
        monkeypatch.setattr(GradedOperator, "eigensystem", never)
        monkeypatch.setattr(GradedOperator, "diag_block", counting_diag_block)
        code, out, _ = run_cli(["lefschetz", "--input", str(octahedron),
                                "--perm", str(perm), "--t", "0,0.1,1,10,50"],
                               capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["lefschetz_number"] == 2
        assert len(results["heat_trace"]) == 5
        # one commuting check with d, one Gram solve for each of the two
        # blocks of d, and one W^T U W product for each of the three degrees
        assert calls == {"induced_map": 1, "commuting": 1, "eigh": 2,
                         "action_blocks": 3}
        assert widths == [6, 8]

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

    def test_exhaustive_nine_cycle_is_curvature(self, tmp_path, capsys):
        """9! orderings times 9 vertices and 18 link entries, 9.8 million,
        are inside the index-field work limit."""
        from fractions import Fraction

        from simhodge import index_expectation, multilinear_curvature
        from simhodge.io import field_payload

        c = generate("cycle", 9)
        path = tmp_path / "cycle9.txt"
        path.write_text(serialize_facets(c))
        code, out, err = run_cli(["ph", "--input", str(path), "--mode",
                                  "exhaustive"], capsys)
        assert code == 0, err
        results = json.loads(out)["results"]
        assert results["samples"] == 362880 and results["matches_curvature"]
        expected = multilinear_curvature(c, 1)
        values = index_expectation(c, "exhaustive").values
        assert values == expected
        assert all(type(x) is Fraction for x in values.values())
        assert results["values"] == field_payload(c, expected)

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

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("operator, shift", [("derivative", 1), ("hodge", 0)])
    def test_export_json(self, k3_file, capsys, order, operator, shift):
        """The JSON export carries the shape, the degrees and the basis,
        labelled per order: a simplex at order 1, a tuple of simplices at
        order 2; the grading shift is 1 for d and 0 for L."""
        from simhodge import connection_basis, graded_basis

        code, out, _ = run_cli(["export", "--input", k3_file, "--format",
                                "edges", "--operator", operator, "--order",
                                str(order), "--kind", "json"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert (results["operator"], results["order"]) == (operator, order)
        payload = results["json"]
        k3 = parse_edges(K3_EDGES)
        basis = graded_basis(k3) if order == 1 else connection_basis(k3, order)
        n = len(basis)
        assert payload["shape"] == [n, n] and payload["degrees"] == list(basis.degrees)
        assert payload["grading_shift"] == shift
        if order == 1:
            assert payload["basis"] == [[k3.label_of(v) for v in s]
                                        for s in basis.elements]
        else:
            assert payload["basis"] == [[[k3.label_of(v) for v in s] for s in e]
                                        for e in basis.elements]
        assert all(0 <= r < n and 0 <= col < n and v
                   for r, col, v in payload["entries"])

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

    def test_out_file_written_atomically(self, k3_file, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(["heat", "--input", k3_file, "--format", "edges",
                              "--out", str(out_path)], capsys)
        assert code == 0
        assert json.loads(out_path.read_text())["command"] == "heat"
        assert not (tmp_path / "report.json.tmp").exists()

    @pytest.mark.parametrize("target", ["missing/report.json", "adir"])
    def test_unwritable_out_is_two(self, k3_file, tmp_path, capsys, target):
        (tmp_path / "adir").mkdir()
        code, out, err = run_cli(["heat", "--input", k3_file, "--format", "edges",
                                  "--out", str(tmp_path / target)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert list(tmp_path.rglob("*.tmp")) == []
        assert list((tmp_path / "adir").iterdir()) == []

    def test_failed_replace_removes_the_temporary_file(self, k3_file, tmp_path,
                                                        capsys, monkeypatch):
        from simhodge import cli

        def refuse(src, dst):
            raise PermissionError(f"cannot replace {dst}")

        monkeypatch.setattr(cli.os, "replace", refuse)
        out_path = tmp_path / "report.json"
        code, out, err = run_cli(["heat", "--input", k3_file, "--format", "edges",
                                  "--out", str(out_path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot replace ") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [tmp_path / "k3.txt"]

    def test_out_dir_environment_variable(self, k3_file, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.setenv("SIMHODGE_OUT_DIR", str(tmp_path))
        code, _, _ = run_cli(["heat", "--input", k3_file, "--format", "edges",
                              "--out", "fromenv.json"], capsys)
        assert code == 0
        assert (tmp_path / "fromenv.json").exists()

    def test_out_fifo_is_written_into(self, k3_file, tmp_path, capsys):
        """An --out path that exists and is not a regular file, here a FIFO,
        gets the report and stays what it is."""
        import os
        import stat
        import threading

        fifo = tmp_path / "report.fifo"
        os.mkfifo(fifo)
        received = []

        def read():
            with open(fifo, "rb") as handle:
                received.append(handle.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        code, out, err = run_cli(["heat", "--input", k3_file, "--format", "edges",
                                  "--out", str(fifo)], capsys)
        assert (code, out, err) == (0, "", "")
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert list(tmp_path.glob("*.tmp")) == []
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert json.loads(received[0])["command"] == "heat"

    def test_lax_json_trajectory_with_matrices(self, c4_file, capsys):
        code, out, _ = run_cli(["lax", "--input", c4_file, "--format", "edges",
                                "--t-end", "0.2", "--dt", "0.1", "--matrices"],
                               capsys)
        assert code == 0
        states = json.loads(out)["results"]["trajectory"]["states"]
        assert len(states) >= 2
        assert len(states[0]["matrix"]) == 8
        assert states[0]["b_norm"] == 0.0

    def test_lax_on_a_40_spoke_wheel_passes(self, tmp_path, capsys):
        # RK4 at the default dt = 0.01 drifted 1.8e-6 here, past the 1e-6
        # bound; the closed form drifts by rounding only
        wheel = tmp_path / "wheel40.txt"
        wheel.write_text(serialize_facets(generate("wheel", 40)))
        code, out, _ = run_cli(["lax", "--input", str(wheel)], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["spectral_drift"] < 1e-12
        assert results["isospectral_within_tolerance"] is True
        assert results["nilpotency_within_tolerance"] is True

    def test_lax_on_a_400_vertex_path_takes_no_rk4_step(self, tmp_path,
                                                        capsys):
        # sigma spreads widely on a long path; its frame still passes
        # FRAME_TOL, else the flow would exit 3
        path = tmp_path / "path400.txt"
        path.write_text(serialize_facets(generate("path", 400)))
        code, out, err = run_cli(["lax", "--input", str(path)], capsys)
        assert code == 0, err
        results = json.loads(out)["results"]
        flags = [v for v in results.values() if isinstance(v, bool)]
        assert flags and all(flags), results

    @pytest.mark.parametrize("argv", [
        ["report"], ["lax", "--t-end", "0.2", "--dt", "0.1", "--matrices"]])
    def test_report_is_one_line_of_strict_json(self, k3_file, capsys,
                                               monkeypatch, argv):
        """The report is one line; read back and indented, as the report
        was written before, it holds the same values in the same order."""
        from simhodge import cli

        reports, dumps = [], json.dumps

        def keeping_dumps(report, **kwargs):
            reports.append(report)
            return dumps(report, **kwargs)

        def reject(name):
            raise ValueError(f"non-finite {name}")

        monkeypatch.setattr(cli.json, "dumps", keeping_dumps)
        code, out, _ = run_cli([argv[0], "--input", k3_file, "--format",
                                "edges", *argv[1:]], capsys)
        assert code == 0 and len(reports) == 1
        assert out.count("\n") == 1 and out.endswith("}\n")
        parsed = json.loads(out, parse_constant=reject)
        indented = dumps(reports[0], sort_keys=True, indent=2,
                         allow_nan=False)
        assert parsed["results"] == json.loads(indented)["results"]
        assert out == dumps(json.loads(indented)) + "\n"

    @pytest.mark.parametrize("argv", [
        ["report"], ["betti"], ["betti", "--order", "2"], ["curvature"],
        ["curvature", "--order", "2"], ["ph"], ["ph", "--function", "f.txt"],
        ["ph", "--mode", "exhaustive"], ["ph", "--mode", "sampled:50"],
        ["lefschetz", "--perm", "perm.txt"], ["heat"],
        ["lax", "--t-end", "0.2", "--matrices"], ["refine"], ["skeleton"],
        ["export"], ["export", "--operator", "hodge", "--kind", "json"]])
    def test_results_are_json_native(self, tmp_path, capsys, monkeypatch,
                                     argv):
        """Every command hands the encoder dicts with str keys, lists, str,
        int, float, bool and None only: no tuple, Fraction or numpy scalar
        that an encoder would have to convert."""
        from simhodge import cli

        def native(value):
            if type(value) is dict:
                return all(type(k) is str and native(v) for k, v in value.items())
            if type(value) is list:
                return all(map(native, value))
            return type(value) in (str, int, float, bool, type(None))

        reports, dumps = [], json.dumps

        def keeping_dumps(report, **kwargs):
            reports.append(report)
            return dumps(report, **kwargs)

        monkeypatch.chdir(tmp_path)
        (tmp_path / "octahedron.txt").write_text(
            serialize_facets(generate("octahedron")))
        (tmp_path / "perm.txt").write_text("(0 1)(2 3)\n")
        (tmp_path / "f.txt").write_text("".join(f"{v} {v * v}\n" for v in range(6)))
        monkeypatch.setattr(cli.json, "dumps", keeping_dumps)
        code, _, err = run_cli([argv[0], "--input", "octahedron.txt", *argv[1:]],
                               capsys)
        assert code == 0, err
        assert native(reports[0]["results"])

    @pytest.fixture()
    def lax_calls(self, monkeypatch):
        """Count the spectra taken of a stack of states and of one state
        (``FlowState.eigenvalues``), and keep the integrated states."""
        from simhodge import cli, lax

        seen = {"spectrum": 0, "eigenvalues": 0, "states": None}
        eigenvalues, integrate = lax.FlowState.eigenvalues, cli.integrate
        spectrum = lax._Frame.spectrum

        def counting_spectrum(frame, stack):
            seen["spectrum"] += 1
            return spectrum(frame, stack)

        def counting_eigenvalues(state):
            seen["eigenvalues"] += 1
            return eigenvalues(state)

        def keeping_integrate(*args, **kwargs):
            seen["states"] = integrate(*args, **kwargs)
            return seen["states"]

        monkeypatch.setattr(lax._Frame, "spectrum", counting_spectrum)
        monkeypatch.setattr(lax.FlowState, "eigenvalues", counting_eigenvalues)
        monkeypatch.setattr(cli, "integrate", keeping_integrate)
        return seen

    def test_lax_solves_each_state_once(self, c4_file, capsys, lax_calls):
        code, out, _ = run_cli(["lax", "--input", c4_file, "--format", "edges",
                                "--t-end", "1", "--dt", "0.05"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        # one spectrum of the stack of all 11 states, none of a state alone
        assert len(lax_calls["states"]) == 11
        assert (lax_calls["spectrum"], lax_calls["eigenvalues"]) == (1, 0)
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
        assert len(states) == 11
        assert (lax_calls["spectrum"], lax_calls["eigenvalues"]) == (1, 0)
        assert out_path.read_text() == trajectory_to_csv(states)

    def test_lax_dense_work_is_the_first_and_last_state(
            self, tmp_path, capsys, monkeypatch, solver_calls):
        from simhodge import barycentric_refinement, lax

        refined = tmp_path / "refined.txt"
        refined.write_text(serialize_facets(
            barycentric_refinement(generate("octahedron"))))
        written = []
        to_dense = lax._Frame.to_dense

        def counting_to_dense(frame, state):
            written.append(state)
            return to_dense(frame, state)

        monkeypatch.setattr(lax._Frame, "to_dense", counting_to_dense)
        code, out, _ = run_cli(["lax", "--input", str(refined),
                                "--t-end", "10", "--dt", "0.01"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert len(results["trajectory"]["states"]) == 101
        # one eigh per block of d for the frame is all the dense work: every
        # state, the first and the last too, is read from the frame, and
        # none is written without --matrices
        assert solver_calls == {"eigh": 2, "eigvalsh": 0}
        assert written == []
        assert "closed_form_error" not in results
        assert results["isospectral_within_tolerance"] is True
        assert results["nilpotency_within_tolerance"] is True

    def test_curvature_order_three_folds_the_counts_once(self, tmp_path, capsys,
                                                         monkeypatch):
        import sys

        from simhodge import complexes

        triangle = tmp_path / "triangle.txt"
        triangle.write_text("1 2 3\n")
        calls = []
        fold = complexes.tuple_fold

        def counting_fold(*args):
            calls.append(args[1])
            return fold(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("simhodge"):
                for attr, value in list(vars(module).items()):
                    if value is fold:
                        monkeypatch.setattr(module, attr, counting_fold)
        code, out, _ = run_cli(["curvature", "--input", str(triangle),
                                "--order", "3"], capsys)
        assert code == 0
        # the budget's degree counts, then the curvature's vertex spread
        assert calls == [3, 3]
        results = json.loads(out)["results"]
        # weight products over the ordered pairwise-intersecting triples
        assert results["target_characteristic"] == -5
        assert results["total_matches_characteristic"] is True

    def test_report_folds_the_order_two_counts_once(self, tmp_path, capsys,
                                                    monkeypatch):
        import sys

        from simhodge import operators

        octahedron = tmp_path / "octahedron.txt"
        octahedron.write_text(serialize_facets(generate("octahedron")))
        calls = []
        counts = operators.connection_degree_counts

        def counting(c, k):
            calls.append(k)
            return counts(c, k)

        for name, module in list(sys.modules.items()):
            if name.startswith("simhodge"):
                for attr, value in list(vars(module).items()):
                    if value is counts:
                        monkeypatch.setattr(module, attr, counting)
        code, out, _ = run_cli(["report", "--input", str(octahedron)], capsys)
        assert code == 0
        # the budgets of orders 1 and 2, then omega_3; omega_2 is the
        # alternating dimension sum of the order-2 basis
        assert calls == [1, 2, 3]
        assert json.loads(out)["results"]["wu"] == {"2": 2, "3": 2}


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


def test_cli_import_loads_no_openssl():
    """Importing the CLI adds no ``_hashlib`` module, so no process maps
    OpenSSL: the input digest is CPython's builtin SHA-256.  Checked in a
    fresh interpreter against the modules loaded before the import, which a
    site hook may have filled with hashlib already."""
    import importlib.util
    import os
    import subprocess
    import sys
    from pathlib import Path

    import simhodge

    if not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")):
        pytest.skip("this CPython has no builtin SHA-256 module")
    script = "\n".join([
        "import sys",
        "before = set(sys.modules)",
        "import simhodge.cli",
        "added = sorted(set(sys.modules) - before)",
        "assert '_hashlib' not in added, added"])
    env = dict(os.environ,
               PYTHONPATH=str(Path(simhodge.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


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
        import time

        from simhodge import cli

        def build(*args):
            raise AssertionError("an operator was built before the budget was checked")

        monkeypatch.setattr(cli, "exterior_derivative", build)
        started = time.perf_counter()
        code, out, err = run_cli(["lax", "--input", k3_file,
                                  "--format", "edges", *flags], capsys)
        assert time.perf_counter() - started < 1.0
        assert code == 4
        assert out == ""
        assert err.startswith("resource limit: ")

    @pytest.mark.parametrize("argv, code, message", [
        (["report", "--input", "random40.txt"], 4,
         "resource limit: degree-2 block is 7463 wide for a dense eigensolve, "
         "limit is 4096\n"),
        (["heat", "--input", "octahedron.txt", "--t", "abc"], 2,
         "error: unreadable time list 'abc'\n"),
        (["lefschetz", "--input", "octahedron.txt", "--perm", "swap.txt",
          "--t", "0,x"], 2, "error: unreadable time list '0,x'\n"),
    ], ids=["report-order-two-frame", "heat-times", "lefschetz-times"])
    def test_refused_before_the_first_derivative(self, tmp_path, capsys,
                                                 monkeypatch, argv, code,
                                                 message):
        """``report`` checks both orders' budgets, and ``heat`` and
        ``lefschetz`` read their time lists, before any derivative is built."""
        from simhodge import cli

        def build(*args):
            raise AssertionError("a derivative was built before every check")

        for name in ("exterior_derivative", "connection_derivative"):
            monkeypatch.setattr(cli, name, build)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "random40.txt").write_text(serialize_facets(
            generate("random", 40, seed=1, edge_prob=0.3)))
        (tmp_path / "octahedron.txt").write_text(
            serialize_facets(generate("octahedron")))
        (tmp_path / "swap.txt").write_text("(0 1)\n")
        assert run_cli(argv, capsys) == (code, "", message)

    def test_hundred_million_closed_form_steps_run(self, k3_file, capsys):
        """--t-end 1000 --dt 1e-5 is 1e8 steps, but the flow computes only
        its 10001 sampled states, from the closed form."""
        import time

        started = time.perf_counter()
        code, out, err = run_cli(["lax", "--input", k3_file, "--format",
                                  "edges", "--t-end", "1000", "--dt", "1e-5"],
                                 capsys)
        assert time.perf_counter() - started < 1.0
        assert (code, err) == (0, "")
        results = json.loads(out)["results"]
        assert len(results["trajectory"]["states"]) == 10001
        assert results["t_end"] == 1000.0  # not 1e8 * 1e-5, one ulp past it
        assert results["isospectral_within_tolerance"] is True

    def test_ten_thousand_lax_steps_run(self, k3_file, capsys):
        code, out, _ = run_cli(["lax", "--input", k3_file, "--format", "edges",
                                "--t-end", "10", "--dt", "0.001"], capsys)
        assert code == 0
        assert len(json.loads(out)["results"]["trajectory"]["states"]) == 101

    def test_csv_states_charged_csv_rows(self, monkeypatch):
        """lax --t-end 2000 --dt 0.1 on the refined octahedron: its 20001
        CSV rows fit the trajectory budget, its JSON report rows do not."""
        import argparse

        from simhodge import barycentric_refinement, cli, lax

        refined = barycentric_refinement(generate("octahedron"))
        args = argparse.Namespace(t_end=2000.0, dt=0.1, matrices=False)
        calls = []
        monkeypatch.setattr(cli, "integrate", lambda *a: calls.append(a))
        cli._lax_states(refined, args, csv=True)
        assert calls[0][-1] == lax.report_row_bytes(len(refined), csv=True)
        with pytest.raises(ResourceLimitError, match="^20001 sampled states "):
            cli._lax_states(refined, args)
        assert len(calls) == 1

    def test_matrices_charged_before_any_operator(self, tmp_path, capsys,
                                                  monkeypatch):
        """The frame path admits lax --t-end 500 --dt 0.01 on the refined
        octahedron; reporting its 5001 sampled matrices does not fit."""
        from simhodge import barycentric_refinement, cli

        def build(*args):
            raise AssertionError("an operator was built before the budget "
                                 "was checked")

        monkeypatch.setattr(cli, "exterior_derivative", build)
        refined = tmp_path / "refined.txt"
        refined.write_text(serialize_facets(
            barycentric_refinement(generate("octahedron"))))
        code, out, err = run_cli(["lax", "--input", str(refined), "--t-end",
                                  "500", "--dt", "0.01", "--matrices"], capsys)
        assert (code, out) == (4, "")
        assert err == ("resource limit: 5001 sampled states of size 146 need "
                       "10320383664 bytes, limit is 268435456\n")

    def test_hodge_export_budget_before_dirac(self, k3_file, capsys, monkeypatch):
        """export --operator hodge counts the pairs of (d + d*)^2 from d alone,
        the same count and message as the product it stands in for."""
        from simhodge import budget, cli

        d = exterior_derivative(parse_input(k3_file, "edges"))
        big_d = dirac(d).matrix
        monkeypatch.setattr(budget, "PRODUCT_PAIR_LIMIT", 0)
        with pytest.raises(ResourceLimitError) as refused:
            big_d @ big_d
        pairs = int(str(refused.value).split()[2])
        argv = ["export", "--input", k3_file, "--format", "edges",
                "--operator", "hodge"]
        monkeypatch.setattr(budget, "PRODUCT_PAIR_LIMIT", pairs)
        assert run_cli(argv, capsys)[0] == 0

        def never(*args):
            raise AssertionError("d was squared before the budget was checked")

        monkeypatch.setattr(budget, "PRODUCT_PAIR_LIMIT", pairs - 1)
        monkeypatch.setattr(cli, "dirac", never)
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (4, "")
        assert err == (f"resource limit: product needs {pairs} entry pairs, "
                       f"limit is {pairs - 1}\n")

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

    def test_non_json_result_is_three(self, k3_file, capsys, monkeypatch):
        from fractions import Fraction

        from simhodge import cli

        monkeypatch.setitem(cli._COMMANDS, "heat",
                            lambda c, args: {"value": Fraction(1, 2)})
        code, out, err = run_cli(["heat", "--input", k3_file,
                                  "--format", "edges"], capsys)
        assert code == 3 and out == ""
        assert err.startswith("contract violation: results are not strict "
                              "JSON: ") and "Traceback" not in err

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
        assert calls == {"betti": 2, "multilinear_curvature": 2,  # one per order
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

        derivatives, pairs = [], []
        derivative_for, matmul = cli._derivative_for, IntMatrix.__matmul__

        def recording_derivative_for(*args):
            derivatives.append(derivative_for(*args))
            return derivatives[-1]

        def recording_matmul(self, other):
            pairs.append((self, other))
            return matmul(self, other)

        monkeypatch.setattr(cli, "_derivative_for", recording_derivative_for)
        monkeypatch.setattr(IntMatrix, "__matmul__", recording_matmul)
        code, _, _ = run_cli(["report", "--input", k3_file, "--format", "edges"],
                             capsys)
        assert code == 0
        assert len(derivatives) == 2
        # each d @ d once; the order-2 swap check's d @ tau also has d on the left
        assert sum(any(a is b is d.matrix for d in derivatives)
                   for a, b in pairs) == 2


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


def _cycle_and_points(n):
    """Facets of n vertices: a 3-cycle on 0, 1, 2 and the rest isolated."""
    return "0 1\n1 2\n0 2\n" + "".join(f"{v}\n" for v in range(3, n))


@pytest.mark.parametrize("name, text, argv, message", [
    ("facet26.txt", " ".join(map(str, range(26))) + "\n", ["skeleton"],
     "a facet on 26 vertices spans 67108863 simplices"),
    ("k26.txt", "".join(f"v {i}\n" for i in range(26)) + "".join(
        f"e {i} {j}\n" for i in range(26) for j in range(i + 1, 26)),
     ["skeleton", "--format", "edges"],
     "a facet on 26 vertices spans 67108863 simplices"),
    ("facet10.txt", " ".join(map(str, range(10))) + "\n", ["refine"],
     "the refinement would have 204495125 simplices"),
])
def test_simplex_budget_is_four_in_a_bounded_child(tmp_path, name, text, argv,
                                                   message):
    """Complexes and refinements over SIMPLEX_LIMIT simplices are refused
    before they are enumerated, well inside a 2 GiB address space."""
    import time

    path = tmp_path / name
    path.write_text(text)
    started = time.monotonic()
    done = _run_child([argv[0], "--input", str(path), *argv[1:]], tmp_path,
                      address_space=2 << 30, timeout=60)
    assert done.returncode == 4, done.stderr[-2000:]
    assert done.stderr.startswith(f"resource limit: {message}, limit is ")
    assert time.monotonic() - started < 10


@pytest.mark.parametrize("argv, code", [
    (["report"], 4), (["betti"], 4), (["betti", "--order", "2"], 4),
    (["curvature", "--order", "2"], 4), (["heat"], 4), (["lax"], 4),
    (["lefschetz", "--perm", "identity.txt"], 4), (["curvature"], 0),
    (["export", "--operator", "hodge"], 4), (["lax", "--matrices"], 4),
    (["ph", "--mode", "exhaustive"], 4), (["refine"], 4), (["skeleton"], 0)])
def test_one_17_vertex_facet_in_a_bounded_child(tmp_path, argv, code):
    """One facet on 17 vertices spans 131071 simplices, inside SIMPLEX_LIMIT.
    Order 1 builds no meet masks, and every meet mask, dense block, flow,
    exhaustive expectation, refinement and operator product over budget is
    refused before it is allocated, inside 2 GiB."""
    import time

    (tmp_path / "facet17.txt").write_text(" ".join(map(str, range(17))) + "\n")
    (tmp_path / "identity.txt").write_text("0->0\n")
    started = time.monotonic()
    done = _run_child([argv[0], "--input", "facet17.txt", *argv[1:]], tmp_path,
                      address_space=2 << 30, timeout=60)
    assert done.returncode == code, done.stderr[-2000:]
    if argv[-1] == "hodge":  # the Dirac-square pairs are counted before d @ d
        assert time.monotonic() - started < 3
        assert done.stderr == ("resource limit: product needs 37878958 entry "
                               "pairs, limit is 16777216\n")
    if code == 4:
        assert done.stderr.startswith("resource limit: ")
    elif argv[0] == "skeleton":
        assert json.loads(done.stdout)["results"]["f_vector"] == [17, 136]
    else:
        assert json.loads(done.stdout)["results"]["total_matches_characteristic"]


@pytest.mark.parametrize("name, flags", [
    ("octahedron", ["--dt", "1", "--t-end", "100"]),
    ("octahedron", ["--dt", "1e200", "--t-end", "1e200"]),
    ("wheel", ["--dt", "1", "--t-end", "100"])],
    ids=["octahedron", "octahedron-1e200", "wheel6"])
def test_far_future_flow_warns_nothing(tmp_path, name, flags):
    """At t = 100 every sech(2 sigma t) is far below rounding, and at
    t = 1e200 the product 2 sigma t is past the float range; the closed form
    reads its limit there: exit 0, every check true, and no numpy warning on
    stderr."""
    (tmp_path / "c.txt").write_text(serialize_facets(
        generate(name, 6 if name == "wheel" else None)))
    done = _run_child(["lax", "--input", "c.txt", *flags], tmp_path)
    assert (done.returncode, done.stderr) == (0, "")
    results = json.loads(done.stdout)["results"]
    assert [key for key, value in results.items() if value is False] == []
    assert results["t_end"] == float(flags[-1])


def test_refined_octahedron_flow_of_10001_json_rows_runs(tmp_path):
    """``lax --t-end 1000 --dt 0.1`` on the refined octahedron: 10001 report
    rows of 146 eigenvalues, charged about what they peak at, fit the
    trajectory budget (at 2048 + 200 bytes a value they were refused)."""
    from simhodge import barycentric_refinement

    (tmp_path / "refined.txt").write_text(
        serialize_facets(barycentric_refinement(generate("octahedron"))))
    done = _run_child(["lax", "--input", "refined.txt", "--t-end", "1000",
                       "--dt", "0.1"], tmp_path)
    assert (done.returncode, done.stderr) == (0, "")
    results = json.loads(done.stdout)["results"]
    assert len(results["trajectory"]["states"]) == 10001
    assert [key for key, value in results.items() if value is False] == []


@pytest.mark.parametrize("argv", [["heat"],
                                  ["lefschetz", "--perm", "swap.txt"]])
def test_heat_time_past_the_float_range_warns_nothing(tmp_path, argv):
    """At t = 1e308 every t * lambda of a nonzero eigenvalue is past the float
    range; the trace takes exp(-inf) = 0 without a warning on stderr."""
    (tmp_path / "octahedron.txt").write_text(
        serialize_facets(generate("octahedron")))
    (tmp_path / "swap.txt").write_text("(0 1)\n")
    done = _run_child([argv[0], "--input", "octahedron.txt", *argv[1:],
                       "--t", "1e308"], tmp_path)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stderr == ""
    results = json.loads(done.stdout)["results"]
    if argv[0] == "heat":
        assert results["supertrace"] == {"1e+308": 2.0}
    else:  # the swap of two antipodes fixes a circle: L = chi(circle) = 0
        assert abs(results["heat_trace"]["1e+308"]) < 1e-9


def test_order_two_curvature_over_pair_budget_is_four(tmp_path):
    """A 15-vertex facet has 32767 simplices, inside the meet-mask budget,
    and 1059392917 ordered intersecting pairs: the order-2 vertex spread
    refuses them before its first block."""
    import time

    (tmp_path / "facet15.txt").write_text(" ".join(map(str, range(15))) + "\n")
    started = time.monotonic()
    done = _run_child(["curvature", "--input", "facet15.txt", "--order", "2"],
                      tmp_path, address_space=2 << 30, timeout=60)
    assert done.returncode == 4, done.stderr[-2000:]
    assert done.stderr == ("resource limit: order 2 vertex spread needs "
                           "1059392917 (prefix, last simplex) pairs, "
                           "limit is 16777216\n")
    assert time.monotonic() - started < 3


def test_order_two_basis_over_simplex_limit_is_four(tmp_path):
    """A 10-vertex facet has 989527 ordered intersecting pairs, more than
    SIMPLEX_LIMIT: refused before any basis element is built."""
    import time

    (tmp_path / "facet10.txt").write_text(" ".join(map(str, range(10))) + "\n")
    started = time.monotonic()
    done = _run_child(["export", "--input", "facet10.txt", "--order", "2"],
                      tmp_path, address_space=2 << 30, timeout=60)
    assert done.returncode == 4, done.stderr[-2000:]
    assert done.stderr.startswith(
        "resource limit: order 2 needs 989527 tuples, limit is 262144")
    assert time.monotonic() - started < 2


@pytest.mark.parametrize("argv", [
    ["curvature", "--order", "3"], ["curvature", "--order", "4"],
    ["curvature", "--order", "8"], ["betti", "--order", "3"],
    ["export", "--order", "3"]])
@pytest.mark.parametrize("vertices", [6, 9, 12, 15])
def test_high_orders_on_one_facet_are_four_in_a_bounded_child(tmp_path, argv,
                                                             vertices):
    """Orders of three or more on one facet of 6 to 15 vertices: the tuple
    count, or the fold's budget on the slot before it, refuses each well
    inside 2 GiB and 5 s."""
    import time

    (tmp_path / "facet.txt").write_text(" ".join(map(str, range(vertices))) + "\n")
    started = time.monotonic()
    done = _run_child([argv[0], "--input", "facet.txt", *argv[1:]], tmp_path,
                      address_space=2 << 30, timeout=10)
    assert done.returncode == 4, done.stderr[-2000:]
    assert done.stderr.startswith("resource limit: ")
    assert "Traceback" not in done.stderr
    assert time.monotonic() - started < 5


@pytest.mark.parametrize("argv", [
    ["export", "--order", "1000000000"], ["betti", "--order", "3000"],
    ["curvature", "--order", "400"], ["curvature", "--order", "1000000000"]])
def test_huge_orders_on_the_octahedron_are_four_in_a_bounded_child(tmp_path,
                                                                  argv):
    """Each slot of a huge order passes the fold budget on its own while the
    degree keys and weights keep growing; the extensions summed over the
    slots refuse each well inside 2 GiB and 5 s."""
    import time

    (tmp_path / "octahedron.txt").write_text(serialize_facets(generate("octahedron")))
    started = time.monotonic()
    done = _run_child([argv[0], "--input", "octahedron.txt", *argv[1:]],
                      tmp_path, address_space=2 << 30, timeout=30)
    assert done.returncode == 4, done.stderr[-2000:]
    assert done.stderr.startswith("resource limit: ")
    assert "Traceback" not in done.stderr
    assert time.monotonic() - started < 5


def test_report_results_on_the_refined_octahedron_are_pinned(tmp_path, capsys):
    """The ``results`` block of ``report`` holds only integers, fractions and
    booleans, so it is byte-identical across BLAS builds and solver changes."""
    import hashlib

    from simhodge import barycentric_refinement

    refined = tmp_path / "refined.txt"
    refined.write_text(serialize_facets(barycentric_refinement(generate("octahedron"))))
    code, out, err = run_cli(["report", "--input", str(refined)], capsys)
    assert code == 0, err
    text = json.dumps(json.loads(out)["results"], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "4ebbfa76ff8714ce491fee58d4aa8e02cfe1612057e69006a7848ef173daa62f"


def test_hodge_export_of_a_15_vertex_facet_stays_small(tmp_path):
    """(d + d*)^2 of a 15-vertex facet forms 7.6 million entry pairs that sum
    to one diagonal entry per simplex; formed a run of rows at a time they
    peak far below the 745 MB they took as one batch.  The peak is read from
    a small intermediate process, since a child's peak RSS starts from its
    parent's at exec."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import simhodge

    (tmp_path / "facet15.txt").write_text(" ".join(map(str, range(15))) + "\n")
    probe = ("import os, resource, subprocess, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
             "child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
             "_, status, usage = os.wait4(child.pid, 0)\n"
             "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1",
               PYTHONPATH=str(Path(simhodge.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", probe, sys.executable, "-m", "simhodge.cli",
         "export", "--input", "facet15.txt", "--operator", "hodge"],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    code, peak_kib = map(int, done.stdout.split())
    assert code == 0, done.stderr[-2000:]
    assert peak_kib < 400 * 1024


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
        # one Gram solve per block of d: 2 order-1 blocks; 4 order-2 blocks,
        # each solved once per swap sector (degree 0's tau = -1 one is empty)
        ("report", [], {"eigh": 0, "eigvalsh": 10}),
        ("betti", [], {"eigh": 0, "eigvalsh": 2}),
        ("betti", ["--order", "2"], {"eigh": 0, "eigvalsh": 8}),
        ("heat", [], {"eigh": 0, "eigvalsh": 2}),
        ("lefschetz", ["--perm", "swap.txt"], {"eigh": 2, "eigvalsh": 0}),
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

    def test_report_solves_nothing_wider_than_576(self, tmp_path, capsys,
                                                 solver_widths):
        """The refined octahedron's order-2 degrees are 26, 288, 1080, 1440
        and 624 wide; its value solves run on the narrower side of each d_k,
        one swap sector at a time: 26/0, 144/144, 504/576 and 336/288 wide.
        Whole, the widest would be 1080."""
        from simhodge import barycentric_refinement

        refined = tmp_path / "refined.txt"
        refined.write_text(serialize_facets(
            barycentric_refinement(generate("octahedron"))))
        code, _, err = run_cli(["report", "--input", str(refined)], capsys)
        assert code == 0, err
        assert solver_widths["eigh"] == []
        assert sorted(solver_widths["eigvalsh"][2:]) \
            == [0, 26, 144, 144, 288, 336, 504, 576]

    @pytest.mark.parametrize("argv", [
        ["report"], ["betti", "--order", "2"]])
    def test_dense_block_budget_is_four(self, tmp_path, capsys, monkeypatch, argv):
        from simhodge import budget, operators

        def never(*args):
            raise AssertionError("a basis was built before the budget was checked")

        # blocks up to 100 wide; order 2 needs 132
        monkeypatch.setattr(budget, "MEMORY_BYTES", 8 * 100 ** 2)
        monkeypatch.setattr(operators, "connection_basis", never)
        octahedron = tmp_path / "octahedron.txt"
        octahedron.write_text(serialize_facets(generate("octahedron")))
        code, out, err = run_cli([*argv, "--input", str(octahedron)], capsys)
        assert code == 4
        assert out == ""
        assert err.startswith("resource limit: degree-2 block is 132 wide")

    @pytest.mark.parametrize("command, extra", [
        ("heat", []), ("lefschetz", ["--perm", "swap.txt"])])
    def test_order_one_budget_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                               solver_calls, command, extra):
        """The octahedron's degrees are 6, 12 and 8 wide and the Gram sides
        of its values solve 6 and 8: heat runs on blocks up to 10 wide and
        is refused at 7, lefschetz, whose vectors are degree-wide, at 10."""
        from simhodge import budget

        monkeypatch.chdir(tmp_path)
        (tmp_path / "octahedron.txt").write_text(
            serialize_facets(generate("octahedron")))
        (tmp_path / "swap.txt").write_text("(0 1)(2 3)\n")
        argv = [command, "--input", "octahedron.txt", *extra]
        monkeypatch.setattr(budget, "MEMORY_BYTES", 8 * 10 ** 2)
        if command == "heat":
            assert run_cli(argv, capsys)[0] == 0
            monkeypatch.setattr(budget, "MEMORY_BYTES", 8 * 7 ** 2)
            solver_calls.update(eigh=0, eigvalsh=0)
        code, out, err = run_cli(argv, capsys)
        assert code == 4
        assert out == ""
        assert err.startswith("resource limit: " + {
            "heat": "degree-2 block is 8 wide",
            "lefschetz": "degree-1 block is 12 wide"}[command])
        assert solver_calls == {"eigh": 0, "eigvalsh": 0}

    def test_values_charge_the_gram_sides(self, tmp_path, capsys, monkeypatch,
                                          solver_calls):
        """On 20 vertices with a 3-cycle, with blocks up to 12 wide: the
        values solves are 3 wide at order 1 and 12 and 9 at order 2, so
        they run; lefschetz's vectors are 20 wide in degree 0."""
        from simhodge import budget

        monkeypatch.setattr(budget, "MEMORY_BYTES", 8 * 12 ** 2)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.txt").write_text(_cycle_and_points(20))
        (tmp_path / "id.txt").write_text("0 -> 0\n")
        for extra, betti in (([], [18, 1]), (["--order", "2"], [17, 1, 1])):
            code, out, err = run_cli(["betti", "--input", "c.txt", *extra],
                                     capsys)
            assert code == 0, err
            results = json.loads(out)["results"]
            assert results["betti"] == betti
            assert results["exact_numeric_agreement"]
        for command in ("heat", "report"):
            code, _, err = run_cli([command, "--input", "c.txt"], capsys)
            assert code == 0, err
        solver_calls.update(eigh=0, eigvalsh=0)
        code, out, err = run_cli(["lefschetz", "--input", "c.txt",
                                  "--perm", "id.txt"], capsys)
        assert (code, out) == (4, "")
        assert err.startswith("resource limit: degree-0 block is 20 wide")
        assert solver_calls == {"eigh": 0, "eigvalsh": 0}

    def test_isolated_points_solve_in_a_bounded_child(self, tmp_path):
        """5000 vertices with a 3-cycle: no values solve is wider than 3 at
        order 1 or 12 at order 2, while lefschetz's degree 0 is over the
        4096 the default dense-block memory allows."""
        import time

        (tmp_path / "c.txt").write_text(_cycle_and_points(5000))
        (tmp_path / "id.txt").write_text("0 -> 0\n")
        for argv in (["betti"], ["heat"], ["report"], ["betti", "--order", "2"],
                     ["export", "--operator", "hodge"]):
            started = time.monotonic()
            done = _run_child([*argv, "--input", "c.txt"], tmp_path,
                              address_space=2 << 30, timeout=60)
            assert done.returncode == 0, (argv, done.stderr[-2000:])
            assert time.monotonic() - started < 10, argv
        done = _run_child(["lefschetz", "--input", "c.txt", "--perm", "id.txt"],
                          tmp_path, address_space=2 << 30, timeout=60)
        assert done.returncode == 4
        assert done.stderr == ("resource limit: degree-0 block is 5000 wide "
                               "for a dense eigensolve, limit is 4096\n")

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
