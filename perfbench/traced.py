"""Traced run: every op of a plan in one process, tracing off and on.

Usage: python perfbench/traced.py PLAN.json SECONDS SUMMARY.json SPANS.json

Imports simhodge.cli under a span, then alternates an untraced pass and a
traced pass over the plan's ops, calling ``simhodge.cli.main`` with each op's
argv, and starts another pair while less than SECONDS have passed.  Each
pass's outputs go through the same gate as the end-to-end runs.  Writes the
median per-layer metrics to SUMMARY.json and the spans of the last traced
pass to SPANS.json.
"""

from __future__ import annotations

import io
import json
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import gate
import tracer


def run_pass(cli, ops, problems) -> tuple[float, int]:
    """Run every op in this process; return the summed call time and failures."""
    total, failed = 0.0, 0
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                code = cli.main(op["argv"])
            except SystemExit as stop:
                code = stop.code if isinstance(stop.code, int) else 1
            except Exception:  # an uncaught error is an op failure, not ours
                traceback.print_exc()
                code = 1
            total += perf_counter() - start
        found = gate.check_op(op, code, out.getvalue(), err.getvalue())
        problems += [f"{op['name']}: {problem}" for problem in found]
        failed += bool(found)
    return total, failed


def main(argv) -> int:
    plan_path, seconds, summary_path, spans_path = argv
    seconds = float(seconds)
    with open(plan_path, encoding="utf-8") as handle:
        ops = json.load(handle)["ops"]
    started = perf_counter()
    rec = tracer.Recorder()
    with rec.span("cli.import"):
        import simhodge.cli as cli
    import_s = rec.self_times()["cli.import"]
    problems, untraced, traced, passes = [], [], [], []
    failed = 0
    while True:
        # alternate which side of a pair runs first, so neither always warms up
        for tracing in (False, True) if len(passes) % 2 == 0 else (True, False):
            if tracing:
                rec = tracer.Recorder()
                patches = tracer.install(rec)
                try:
                    wall, bad = run_pass(cli, ops, problems)
                finally:
                    tracer.uninstall(patches)
                traced.append(wall)
            else:
                wall, bad = run_pass(cli, ops, problems)
                untraced.append(wall)
            failed += bad
        metrics = tracer.layer_metrics(rec)
        metrics["trace.coverage_ratio"] = rec.root_time() / traced[-1]
        passes.append(metrics)
        if perf_counter() - started >= seconds:
            break
    # counts are exact and repeat across passes; median_low keeps them integers
    summary = {name: (statistics.median if isinstance(passes[0][name], float)
                      else statistics.median_low)([p[name] for p in passes])
               for name in passes[0]}
    summary["cli.import_s"] = import_s
    summary["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump({"attempted": len(ops) * 2 * len(passes), "failed": failed,
                   "problems": problems,
                   "untraced_s": untraced, "traced_s": traced,
                   "metrics": summary}, handle, indent=2)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(rec.to_json(), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
