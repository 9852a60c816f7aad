"""simhodge benchmark: fresh CLI processes timed from outside.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are in workloads.py and README.md.  A child process generates the
inputs from the seed under .perfbench_work/<workload>/ before anything is
timed.

--trace 0 runs closed-loop passes of ``python -m simhodge.cli`` processes,
one at a time, and starts another pass while less than S seconds have
passed.  Every pass is preceded by a process that only imports
simhodge.cli.  Wall time, CPU time and peak RSS come from each child's own
rusage.  --trace 1 runs perfbench/traced.py, which calls
``simhodge.cli.main`` in one process with and without spans.

This process imports nothing beyond the standard library: on Linux a
child's peak RSS starts from its parent's peak at exec, so a large parent
would hide the children's own peaks.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import gate

HERE = Path(__file__).resolve().parent
WORK_ROOT = Path(".perfbench_work")
WORKLOADS = ("report-refined", "lax-flow", "cli-mix")
MIN_SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0  # every child is killed once the run is this old
IMPORT_ONLY = ["-c", "import simhodge.cli"]


def child_env() -> dict:
    """The fixed environment of every child: no inherited settings but PATH."""
    threads = "1"  # one BLAS thread: at most nproc, and steadier on a shared host
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": "src", "PYTHONHASHSEED": "0", "LC_ALL": "C.UTF-8",
            "OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads,
            "MKL_NUM_THREADS": threads}


class Child:
    """One finished child process with its own resource usage."""

    def __init__(self, argv, env, out_path: Path, err_path: Path, deadline: float):
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out,
                                    stderr=err, env=env, stdin=subprocess.DEVNULL)
            timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = out_path.read_bytes()
        self.stderr = err_path.read_bytes()


def import_probe(env, workdir: Path, deadline: float) -> float:
    child = Child(IMPORT_ONLY, env, workdir / "probe.out", workdir / "probe.err",
                  deadline)
    if child.code != 0:
        raise RuntimeError("importing simhodge.cli failed: "
                           + child.stderr.decode(errors="replace")[-500:])
    return child.wall_s


def timed_run(plan, env, workdir: Path, seconds: float, deadline: float) -> dict:
    ops = plan["ops"]
    import_probe(env, workdir, deadline)  # untimed warm-up: bytecode and page cache
    started = perf_counter()
    setup, passes, op_walls, problems, failed = [], [], [], [], 0
    while True:
        setup.append(import_probe(env, workdir, deadline))
        wall = cpu = out_bytes = peak = 0.0
        records = []
        for op in ops:
            child = Child(["-m", "simhodge.cli", *op["argv"]], env,
                          workdir / "op.out", workdir / "op.err", deadline)
            wall += child.wall_s
            cpu += child.cpu_s
            out_bytes += len(child.stdout) + len(child.stderr)
            peak = max(peak, child.rss_mb)
            op_walls.append(child.wall_s)
            records.append({"op": op["name"], "wall_s": child.wall_s,
                            "cpu_s": child.cpu_s, "rss_mb": child.rss_mb})
            found = gate.check_op(op, child.code,
                                  child.stdout.decode("utf-8", errors="replace"),
                                  child.stderr.decode("utf-8", errors="replace"))
            problems += [f"{op['name']}: {p}" for p in found]
            failed += bool(found)
        passes.append({"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak,
                       "output_kb": out_bytes / 1024.0, "ops": records})
        if perf_counter() - started >= seconds:
            break
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(import_probe(env, workdir, deadline))
    # inclusive: interpolate inside the samples, never beyond the slowest one
    p90 = statistics.quantiles(op_walls, n=10, method="inclusive")[8] \
        if len(op_walls) > 1 else op_walls[0]
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "op_wall_p50_s": (statistics.median(op_walls), "s"),
        "op_wall_p90_s": (p90, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "output_kb": (statistics.median(p["output_kb"] for p in passes), "KiB"),
    }
    return {"attempted": len(ops) * len(passes), "failed": failed,
            "problems": problems, "passes": passes, "setup_s": setup,
            "op_walls_s": op_walls, "metrics": metrics,
            "parent_peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def traced_run(plan, env, workdir: Path, seconds: float, deadline: float) -> dict:
    summary_path = workdir / "trace_summary.json"
    child = Child([str(HERE / "traced.py"), str(workdir / "plan.json"), str(seconds),
                   str(summary_path), str(workdir / "spans.json")],
                  env, workdir / "trace.out", workdir / "trace.err", deadline)
    if child.code != 0:
        raise RuntimeError("traced run failed: "
                           + child.stderr.decode(errors="replace")[-2000:])
    summary = json.loads(summary_path.read_text())
    units = {name: ("s" if name.endswith("_s") else
                    "ratio" if name.endswith("_ratio") else "count")
             for name in summary["metrics"]}
    summary["metrics"] = {name: (value, units[name])
                          for name, value in sorted(summary["metrics"].items())}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + RUN_LIMIT_S
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not Path("src/simhodge/cli.py").is_file():
        print("error: run from the root of a simhodge checkout "
              "(src/simhodge/cli.py not found)", file=sys.stderr)
        return 2
    workdir = WORK_ROOT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env()
    child = Child([str(HERE / "workloads.py"), args.workload, str(args.seed),
                   str(workdir)], env, workdir / "build.out", workdir / "build.err",
                  deadline)
    if child.code != 0:
        print("error: generating inputs failed: "
              + child.stderr.decode(errors="replace")[-2000:], file=sys.stderr)
        return 1
    plan = json.loads((workdir / "plan.json").read_text())
    run = traced_run if args.trace else timed_run
    result = run(plan, env, workdir, args.seconds, deadline)
    (workdir / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    print(f"fail_ratio {result['failed']}/{result['attempted']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
