"""Command-line entry point.

One subcommand per pipeline; every run emits a versioned JSON report.  For a
fixed input and seed its exact ``results`` fields are byte-deterministic, and
its float fields are for a fixed BLAS build and thread count.  Exit codes: 0
success, 2 parse or invalid input, 3 contract violation, 4 resource limit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .complexes import (barycentric_operator, barycentric_refinement,
                        euler_characteristic, f_matrix, f_vector, skeleton)
from .errors import (ContractViolationError, InvalidInputError,
                     ResourceLimitError)
from .indices import (IndexTriple, gauss_bonnet_curvature, index_expectation,
                      multilinear_curvature, poincare_hopf, seeded_rng,
                      wu_characteristic)
from .io import (field_payload, fraction_payload, operator_to_json,
                 operator_to_triplets, parse_input, parse_permutation,
                 parse_vertex_function, read_text, serialize_facets,
                 sha256_hex)
from .lax import integrate, trajectory_to_csv, trajectory_to_json
from .lefschetz import check_automorphism, lefschetz_report
from .operators import (connection_derivative, dirac, exterior_derivative,
                        hodge, require_connection_budget)
from .spectral import heat_supertrace, spectrum_report

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


def _derivative_for(c, order, eigensolve=False):
    """The order's derivative, refused first when it is over budget; with
    ``eigensolve`` also when one of its Hodge blocks is too wide to solve."""
    require_connection_budget(c, order, eigensolve)
    if order == 1:
        return exterior_derivative(c)
    return connection_derivative(c, order)


def _cmd_report(c, args):
    # both orders pass their budgets before any other work
    derivatives = {order: _derivative_for(c, order, True)
                   for order in (1, 2)}
    payload = {
        "f_vector": list(f_vector(c)),
        "f_matrix": f_matrix(c).tolist(),
        "euler_characteristic": euler_characteristic(c),
        "wu": {"2": wu_characteristic(c, 2), "3": wu_characteristic(c, 3)},
    }
    curvatures = {1: gauss_bonnet_curvature(c), 2: multilinear_curvature(c, 2)}
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
    d = _derivative_for(c, args.order, True)
    sr = spectrum_report(d)
    payload = sr.to_payload()
    payload["order"] = args.order
    return payload


def _cmd_curvature(c, args):
    require_connection_budget(c, args.order)
    values = multilinear_curvature(c, args.order)
    total = sum(values.values(), Fraction(0))
    target = wu_characteristic(c, args.order)
    return {
        "order": args.order,
        "values": field_payload(c, values),
        "total": fraction_payload(total),
        "target_characteristic": target,
        "total_matches_characteristic": total == target,
    }


def _cmd_ph(c, args):
    chi = euler_characteristic(c)
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
            curvature = gauss_bonnet_curvature(c)
            payload["matches_curvature"] = result.values == curvature
        return payload
    if args.function:
        f = parse_vertex_function(read_text(args.function), c)
    else:
        ranks = seeded_rng(args.seed).permutation(len(c.base)).tolist()
        f = dict(zip(sorted(c.base), ranks))
    indices = poincare_hopf(c, f)
    total = sum(indices.values())
    return {
        "function": {c.label_of(v): f[v] for v in sorted(f)},
        "indices": field_payload(c, indices),
        "sum": total,
        "euler_characteristic": chi,
        "sum_equals_euler_characteristic": total == chi,
    }


def _cmd_lefschetz(c, args):
    t = check_automorphism(c, parse_permutation(read_text(args.perm), c))
    d = exterior_derivative(c)
    report = lefschetz_report(c, t, d, hodge(dirac(d)))
    heats = {str(x): report.heat_trace(x) for x in _parse_times(args.t)}
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
    big_l = hodge(dirac(exterior_derivative(c)))
    chi = euler_characteristic(c)
    values = {str(x): heat_supertrace(big_l, x) for x in _parse_times(args.t)}
    deviation = max((abs(v - chi) for v in values.values()), default=0.0)
    return {
        "euler_characteristic": chi,
        "supertrace": values,
        "max_deviation": deviation,
        "within_tolerance": deviation < 1e-9,
    }


def _lax_states(c, args):
    if not 0 < args.dt < math.inf:
        raise InvalidInputError(f"--dt must be positive and finite, got {args.dt}")
    big_d = dirac(exterior_derivative(c))
    # sample every 0.1 time units; the cap keeps a subnormal dt from overflowing
    sample_every = max(1, round(min(0.1 / args.dt, 1e18)))
    return integrate(big_d, args.t_end, args.dt, sample_every=sample_every)


def _cmd_lax(c, args):
    states = _lax_states(c, args)
    trajectory = trajectory_to_json(states, include_matrices=args.matrices)
    rows = trajectory["states"]
    drift = rows[-1]["drift"]
    defect = max(row["d_squared_norm"] for row in rows)
    return {
        "t_end": states[-1].t,
        "dt": args.dt,
        "spectral_drift": drift,
        "final_middle_norm": rows[-1]["b_norm"],
        "max_nilpotency_defect": defect,
        "isospectral_within_tolerance": drift < 1e-6,
        "nilpotency_within_tolerance": defect < 1e-8,
        "symmetry_within_tolerance": True,  # else trajectory_to_json raised
        "trajectory": trajectory,
    }


def _cmd_refine(c, args):
    refined = barycentric_refinement(c)
    d = c.dimension
    fv = f_vector(c)
    fv1 = f_vector(refined)
    if d >= 0:
        s = barycentric_operator(d)
        predicted = (s @ np.array(fv, dtype=np.int64)).tolist()
    else:
        predicted = []
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


def _write_output(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    base_dir = os.environ.get("SIMHODGE_OUT_DIR")
    if base_dir and not os.path.isabs(out_path):
        out_path = os.path.join(base_dir, out_path)
    tmp = f"{out_path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, out_path)


def run(args) -> str:
    """Execute one parsed command and return the serialized report.

    ``lax`` with an ``--out`` path ending in ``.csv`` returns the trajectory
    CSV instead.
    """
    with open(args.input, "rb") as handle:
        raw = handle.read()
    c = parse_input(args.input, args.format, raw)
    if args.command == "lax" and args.out and args.out.endswith(".csv"):
        return trajectory_to_csv(_lax_states(c, args))
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
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False,
                          default=_json_default)
    except ValueError as err:  # NaN or an infinity reached the report
        raise ContractViolationError(f"results are not strict JSON: {err}") from None
    return text + "\n"


def _json_default(value):
    if isinstance(value, Fraction):
        return fraction_payload(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    raise TypeError(f"not serializable: {type(value)!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = run(args)
    except (InvalidInputError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceLimitError as err:
        print(f"resource limit: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except ContractViolationError as err:
        print(f"contract violation: {err}", file=sys.stderr)
        return EXIT_CONTRACT
    _write_output(text, args.out)
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
