"""Command-line entry point.

One subcommand per pipeline; every run emits a versioned JSON report, one
line with sorted keys (``python -m json.tool`` indents it).  For a
fixed input and seed its exact ``results`` fields are byte-deterministic, and
its float fields are for a fixed BLAS build and thread count.  Exit codes: 0
success, 2 invalid input or --out write error, 3 contract violation, 4 resource limit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__, budget
from . import _np as np
from .complexes import (barycentric_f_vector, barycentric_refinement,
                        euler_characteristic, f_matrix, f_vector, seeded_rng,
                        skeleton)
from .errors import (ContractViolationError, InvalidInputError,
                     ResourceLimitError)
from .indices import (IndexTriple, index_expectation, multilinear_curvature,
                      poincare_hopf, wu_characteristic)
from .io import (field_payload, fraction_payload, operator_to_json,
                 operator_to_triplets, parse_input, parse_permutation,
                 parse_vertex_function, read_text, serialize_facets,
                 sha256_hex)
from .lax import (flow_steps, integrate, report_row_bytes, trajectory_to_csv,
                  trajectory_to_json)
from .lefschetz import check_automorphism, lefschetz_report
from .operators import (alternating_sum, connection_degree_counts,
                        connection_derivative, dirac, exterior_derivative,
                        hodge, require_connection_budget)
from .spectral import (TRACE_TOL, heat_supertrace, hodge_spectra,
                       require_frame, spectrum_report)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONTRACT = 3
EXIT_RESOURCE = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simhodge",
        description="complex invariants, index cross-checks, fixed points, flows")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, **extra_flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="input file path")
        p.add_argument("--format", choices=("facets", "edges"), default="facets")
        p.add_argument("--out", help="output path (default: stdout)")
        for flag, kwargs in extra_flags.items():
            p.add_argument(flag, **kwargs)
        return p

    add("report", "f-data, characteristics, Betti numbers, curvature, index triple")
    add("betti", "Betti numbers with the exact/numeric kernel cross-check",
        **{"--order": dict(type=int, default=1)})
    add("curvature", "vertex curvature of the given order",
        **{"--order": dict(type=int, default=1)})
    add("ph", "Poincare-Hopf indices for a vertex function, or index expectation",
        **{"--function": dict(help="vertex function file"),
           "--seed": dict(type=int, default=0),
           "--mode": dict(default=None,
                          help="'exhaustive' or 'sampled:N' for index expectation")})
    add("lefschetz", "Lefschetz number and fixed-point indices of an automorphism",
        **{"--perm": dict(required=True, help="permutation file"),
           "--t": dict(default="0.1,1,10", help="heat times, comma separated")})
    add("heat", "heat super-trace over a time grid",
        **{"--t": dict(default="0,0.1,0.5,1,5,10", help="comma separated times")})
    add("lax", "integrate the isospectral flow and report diagnostics",
        **{"--t-end": dict(type=float, default=1.0),
           "--dt": dict(type=float, default=0.01),
           "--matrices": dict(action="store_true",
                              help="embed full matrices in the JSON trajectory")})
    add("refine", "barycentric refinement with the f-vector operator cross-check")
    add("skeleton", "skeleton of the given dimension",
        **{"--order": dict(type=int, default=1)})
    add("export", "dump an operator as coordinate triplets or JSON",
        **{"--operator": dict(choices=("derivative", "dirac", "hodge"),
                              default="derivative"),
           "--order": dict(type=int, default=1),
           "--kind": dict(choices=("triplets", "json"), default="triplets")})
    return parser


def _check_derivative(c, order, vectors=None):
    """Refuse the order's derivative when it is over budget; unless
    ``vectors`` is None, also when its singular frame, with or without
    vectors, is too wide (``require_frame`` on its degree counts)."""
    counts = require_connection_budget(c, order)
    if vectors is not None:
        require_frame(counts or connection_degree_counts(c, order), vectors)


def _derivative_for(c, order, vectors=None):
    """The order's derivative, once ``_check_derivative`` passes."""
    _check_derivative(c, order, vectors)
    if order == 1:
        return exterior_derivative(c)
    return connection_derivative(c, order)


def _cmd_report(c, args):
    for order in (1, 2):  # both orders pass their budgets before any other work
        _check_derivative(c, order, False)
    derivatives = {order: _derivative_for(c, order) for order in (1, 2)}
    payload = {
        "f_vector": list(f_vector(c)),
        "f_matrix": f_matrix(c).tolist(),
        "euler_characteristic": euler_characteristic(c),
        "wu": {"2": derivatives[2].basis.alternating_dimension_sum(),
               "3": wu_characteristic(c, 3)},
    }
    curvatures = {k: multilinear_curvature(c, k) for k in (1, 2)}
    reports, triples = {}, {}
    for order, curvature in curvatures.items():
        d = derivatives[order]
        sr = spectrum_report(d)
        reports[str(order)] = {
            "betti": list(sr.betti_numbers),
            "exact_numeric_agreement": sr.agreement,
            "supersymmetric": sr.supersymmetry.symmetric,
        }
        triples[str(order)] = IndexTriple.from_invariants(
            d, sr.betti_numbers, curvature, order).to_payload()
    payload["cohomology"] = reports
    payload["curvature"] = {str(k): field_payload(c, v)
                            for k, v in curvatures.items()}
    payload["index_theorem"] = triples
    payload["invariants"] = {
        "index_theorem_equal": all(t["equal"] for t in triples.values()),
        "cohomology_checks_pass": all(
            r["exact_numeric_agreement"] and r["supersymmetric"]
            for r in reports.values()),
    }
    return payload


def _cmd_betti(c, args):
    d = _derivative_for(c, args.order, False)
    sr = spectrum_report(d)
    payload = sr.to_payload()
    payload["order"] = args.order
    return payload


def _cmd_curvature(c, args):
    counts = require_connection_budget(c, args.order)
    values = multilinear_curvature(c, args.order)
    total = sum(values.values(), Fraction(0))
    # the budget check folded the degree counts of order three and more
    target = (wu_characteristic(c, args.order) if counts is None
              else alternating_sum(counts))
    return {
        "order": args.order,
        "values": field_payload(c, values),
        "total": fraction_payload(total),
        "target_characteristic": target,
        "total_matches_characteristic": total == target,
    }


def _cmd_ph(c, args):
    if args.mode:
        if args.mode == "exhaustive":
            result = index_expectation(c, mode="exhaustive")
        elif args.mode.startswith("sampled:"):
            try:
                n = int(args.mode.split(":", 1)[1])
            except ValueError:
                raise InvalidInputError(
                    f"unreadable sample count in {args.mode!r}") from None
            result = index_expectation(c, mode="sampled", samples=n, seed=args.seed)
        else:
            raise InvalidInputError(f"unknown mode {args.mode!r}")
        payload = {
            "mode": "exhaustive" if result.exhaustive else "sampled",
            "samples": result.samples,
            "values": field_payload(c, result.values),
        }
        if result.stderr is not None:
            payload["stderr"] = field_payload(c, result.stderr)
        if result.exhaustive:
            payload["matches_curvature"] = result.values == multilinear_curvature(c, 1)
        return payload
    if args.function:
        f = parse_vertex_function(read_text(args.function), c)
    else:
        ranks = seeded_rng(args.seed).permutation(len(c.base)).tolist()
        f = dict(zip(sorted(c.base), ranks))
    indices = poincare_hopf(c, f)
    total, chi = sum(indices.values()), euler_characteristic(c)
    return {
        "function": {c.label_of(v): f[v] for v in sorted(f)},
        "indices": field_payload(c, indices),
        "sum": total,
        "euler_characteristic": chi,
        "sum_equals_euler_characteristic": total == chi,
    }


def _cmd_lefschetz(c, args):
    times = _parse_times(args.t)
    t = check_automorphism(c, parse_permutation(read_text(args.perm), c))
    report = lefschetz_report(c, t, _derivative_for(c, 1, True))
    heats = {str(x): report.heat_trace(x) for x in times}
    payload = report.to_payload()
    payload["heat_trace"] = heats
    payload["heat_trace_constant"] = bool(
        max(heats.values()) - min(heats.values()) < 1e-9) if heats else True
    return payload


def _parse_times(text: str):
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise InvalidInputError(f"unreadable time list {text!r}") from None


def _cmd_heat(c, args):
    times = _parse_times(args.t)
    spectra = hodge_spectra(_derivative_for(c, 1, False))
    chi = euler_characteristic(c)
    values = {str(x): heat_supertrace(spectra, x) for x in times}
    deviation = max((abs(v - chi) for v in values.values()), default=0.0)
    return {
        "euler_characteristic": chi,
        "supertrace": values,
        "max_deviation": deviation,
        "within_tolerance": deviation < 1e-9,
    }


def _lax_states(c, args, csv=False):
    """The sampled states of ``lax``, each charged the row of the report
    it goes to: the CSV trajectory with ``csv``, else the JSON report."""
    if not 0 < args.dt < math.inf:
        raise InvalidInputError(f"--dt must be positive and finite, got {args.dt}")
    # sample every 0.1 time units; the cap keeps a subnormal dt from overflowing
    sample_every = max(1, round(min(0.1 / args.dt, 1e18)))
    row_bytes = report_row_bytes(len(c), csv, args.matrices)
    # the charge integrate makes, on the same widths, before any operator
    flow_steps(f_vector(c), args.t_end, args.dt, sample_every, row_bytes)
    return integrate(exterior_derivative(c), args.t_end, args.dt, sample_every,
                     row_bytes)


def _cmd_lax(c, args):
    states = _lax_states(c, args)
    trajectory = trajectory_to_json(states, include_matrices=args.matrices)
    residual = trajectory.pop("moment_residual")
    rows = trajectory["states"]
    drift = rows[-1]["drift"]
    defect = max(row["d_squared_norm"] for row in rows)
    return {
        "t_end": states[-1].t,
        "dt": args.dt,
        "spectral_drift": drift,
        "final_middle_norm": rows[-1]["b_norm"],
        "max_nilpotency_defect": defect,
        "moment_residual": residual,
        "isospectral_within_tolerance": residual <= TRACE_TOL and drift < 1e-6,
        "nilpotency_within_tolerance": defect < 1e-8,
        "trajectory": trajectory,
    }


def _cmd_refine(c, args):
    refined = barycentric_refinement(c)
    fv = f_vector(c)
    fv1 = f_vector(refined)
    predicted = barycentric_f_vector(fv)
    return {
        "f_vector": list(fv),
        "refined_f_vector": list(fv1),
        "operator_prediction": predicted,
        "operator_matches": list(fv1) == predicted,
        "euler_characteristic_preserved":
            euler_characteristic(refined) == euler_characteristic(c),
        "facets": serialize_facets(refined),
    }


def _cmd_skeleton(c, args):
    sk = skeleton(c, args.order)
    return {
        "order": args.order,
        "f_vector": list(f_vector(sk)),
        "euler_characteristic": euler_characteristic(sk),
        "facets": serialize_facets(sk),
    }


def _cmd_export(c, args):
    d = _derivative_for(c, args.order)
    if args.operator == "hodge":
        # (d + d*)^2's pairs, before dirac(d): row j of d + d* is row and column j of d
        per_row = np.bincount(np.concatenate([d.matrix.row, d.matrix.col]),
                              minlength=len(d.basis))
        budget.require_pairs(int(per_row @ per_row))
    op = {"derivative": lambda: d,
          "dirac": lambda: dirac(d),
          "hodge": lambda: hodge(dirac(d))}[args.operator]()
    if args.kind == "triplets":
        return {"operator": args.operator, "order": args.order,
                "triplets": operator_to_triplets(op)}
    return {"operator": args.operator, "order": args.order,
            "json": operator_to_json(op, c)}


_COMMANDS = {
    "report": _cmd_report,
    "betti": _cmd_betti,
    "curvature": _cmd_curvature,
    "ph": _cmd_ph,
    "lefschetz": _cmd_lefschetz,
    "heat": _cmd_heat,
    "lax": _cmd_lax,
    "refine": _cmd_refine,
    "skeleton": _cmd_skeleton,
    "export": _cmd_export,
}


def _write_output(parts, out_path):
    if out_path is None:
        sys.stdout.writelines(parts)
        return
    base_dir = os.environ.get("SIMHODGE_OUT_DIR")
    if base_dir and not os.path.isabs(out_path):
        out_path = os.path.join(base_dir, out_path)
    if os.path.exists(out_path) and not os.path.isfile(out_path):
        # a FIFO or a device is written into, never replaced by a file
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.writelines(parts)
        return
    tmp = f"{out_path}.tmp"
    handle = open(tmp, "w", encoding="utf-8")  # from here on tmp is ours
    try:
        with handle:
            handle.writelines(parts)
        os.replace(tmp, out_path)
    except OSError:
        os.remove(tmp)
        raise


def run(args) -> tuple[str, ...]:
    """Execute one parsed command and return its output as the strings to
    write in order: the JSON report, then its newline, kept apart so that a
    large report is never copied to append one.

    ``lax`` with an ``--out`` path ending in ``.csv`` returns the trajectory
    CSV alone instead.
    """
    with open(args.input, "rb") as handle:
        raw = handle.read()
    c = parse_input(args.input, args.format, raw)
    if args.command == "lax" and args.out and args.out.endswith(".csv"):
        return (trajectory_to_csv(_lax_states(c, args, csv=True)),)
    started = time.monotonic()
    results = _COMMANDS[args.command](c, args)
    elapsed_ms = 1000.0 * (time.monotonic() - started)
    report = {
        "schema": "simhodge.report/1",
        "version": __version__,
        "command": args.command,
        "input": {"path": args.input, "format": args.format,
                  "sha256": sha256_hex(raw)},
        "results": results,
        "timing_ms": elapsed_ms,
    }
    try:
        text = json.dumps(report, sort_keys=True, allow_nan=False)
    except (TypeError, ValueError) as err:  # a non-JSON type, NaN or an infinity
        raise ContractViolationError(f"results are not strict JSON: {err}") from None
    return text, "\n"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _write_output(run(args), args.out)
    except (InvalidInputError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceLimitError as err:
        print(f"resource limit: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except ContractViolationError as err:
        print(f"contract violation: {err}", file=sys.stderr)
        return EXIT_CONTRACT
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
