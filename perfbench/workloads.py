"""Seeded inputs, operation lists and expected values for each workload.

``build`` writes every input file of a workload into a work directory and
returns a JSON-serializable plan: the ops to run, in order, each with the
argv for ``python -m simhodge.cli`` and the expectations the gate checks.
Inputs come from ``simhodge.generate`` and ``serialize_facets``; expected
values come from literal constants for the fixed complexes and from
``reference.Facts`` for the random ones.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import numpy as np
from simhodge import barycentric_refinement, generate
from simhodge.io import serialize_facets

from reference import Facts, is_automorphism, parse_facets

WORKLOADS = {
    "report-refined": "exact rank and eigensolve dominate; Betti numbers "
                      "are computed twice per derivative; no Lax flow",
    "lax-flow": "dense RK4 flow and trajectory serialization on a 146x146 "
                "Dirac matrix; no exact rank at all",
    "cli-mix": "19 short processes over all 10 subcommands: start-up, import, "
               "parsing and the tuple fold dominate; includes exit 2 and 4",
}

# Values of the fixed complexes, checked against reference.Facts when built.
FIXED = {
    "octahedron": {"f_vector": [6, 12, 8], "euler": 2, "betti": [1, 0, 1],
                   "betti2": [0, 0, 1, 0, 1], "wu2": 2, "wu3": 2},
    "refined": {"f_vector": [26, 72, 48], "euler": 2, "betti": [1, 0, 1],
                "betti2": [0, 0, 1, 0, 1], "wu2": 2, "wu3": 2},
    "wheel6": {"f_vector": [7, 12, 6], "euler": 1, "betti": [1, 0, 0],
               "betti2": [0, 0, 1, 0, 0], "wu2": 1, "wu3": 1},
}

# Random inputs: (n, edge probability, work proxy, target, relative window).
# A candidate graph is kept only when its proxy lies in the window, so that
# every seed gives different inputs with about the same amount of work.
RANDOM = {
    "random16": (16, 0.5, "link_entries", 440, 0.04),
    "random60": (60, 0.25, "simplices", 1150, 0.02),
    "random80": (80, 0.25, "order2_tuples", 700_000, 0.02),
}

WHY = {
    "octahedron": "smallest 2-sphere; fixed Betti and Wu constants; guard op",
    "refined": "barycentric refinement of the octahedron; order-2 basis dims "
               "(26, 288, 1080, 1440, 624) make dense exact rank the hot spot",
    "wheel6": "disc with 7 vertices: exhaustive index expectation fits the "
              "8-vertex limit, and the rim rotations are automorphisms",
    "random16": "dense small clique complex (about 440 link entries) for "
                "index fields, heat and export",
    "random60": "about 1150 simplices: order-1 exact rank and eigensolves of "
                "a few hundred rows",
    "random80": "about 700k order-2 tuples: the tuple fold of "
                "multilinear_curvature dominates",
    "malformed": "a facet repeating a vertex label; the parser must exit 2",
    "octahedron.perm": "seeded automorphism of the octahedron",
    "wheel6.perm": "seeded automorphism of the wheel",
    "random16.fn": "seeded injective vertex function for Poincare-Hopf",
}


def _pick_random(name: str, seed: int) -> tuple[str, int]:
    n, p, proxy, target, window = RANDOM[name]
    for j in range(2000):
        sub_seed = seed * 2000 + j
        c = generate("random", n, seed=sub_seed, edge_prob=p)
        if proxy == "simplices":
            value = len(c)
        elif proxy == "link_entries":  # work of one Poincare-Hopf index field
            value = sum(len(s) for s in c.simplices if len(s) > 1)
        else:
            incidence = np.zeros((len(c), n), dtype=np.float32)
            for row, s in enumerate(c.simplices):
                incidence[row, list(s)] = 1.0
            value = int(np.count_nonzero(incidence @ incidence.T))
        if abs(value - target) <= window * target:
            return serialize_facets(c), sub_seed
    raise RuntimeError(f"no {name} candidate within the work window for seed {seed}")


def _automorphism(facts: Facts, rng) -> dict:
    labels = facts.labels
    found = [mapping for mapping in (dict(zip(labels, image))
                                     for image in itertools.permutations(labels))
             if is_automorphism(facts, mapping)]
    return found[int(rng.integers(len(found)))]


def _cycles(mapping: dict) -> str:
    seen, parts = set(), []
    for start in mapping:
        if start in seen or mapping[start] == start:
            continue
        cycle, v = [], start
        while v not in seen:
            seen.add(v)
            cycle.append(v)
            v = mapping[v]
        parts.append("(" + " ".join(cycle) + ")")
    return "".join(parts) + "\n" if parts else "# identity\n"


def _report_expect(const: dict) -> dict:
    return {
        "equal": {"f_vector": const["f_vector"],
                  "euler_characteristic": const["euler"],
                  "wu.2": const["wu2"], "wu.3": const["wu3"],
                  "cohomology.1.betti": const["betti"],
                  "cohomology.2.betti": const["betti2"],
                  "index_theorem.1.analytic": const["euler"],
                  "index_theorem.2.cohomological": const["wu2"]},
        "fraction_sum": {"curvature.1": const["euler"],
                         "curvature.2": const["wu2"]},
    }


def build(workload: str, seed: int, workdir: Path) -> dict:
    """Write the inputs of a workload and its manifest under workdir; return its plan."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng(seed)
    inputs_dir = workdir / "inputs"
    inputs_dir.mkdir(parents=True, exist_ok=True)
    texts, seeds = {}, {}
    octahedron = generate("octahedron")
    texts["octahedron"] = serialize_facets(octahedron)
    texts["refined"] = serialize_facets(barycentric_refinement(octahedron))
    texts["wheel6"] = serialize_facets(generate("wheel", 6))
    if workload == "cli-mix":
        for name in RANDOM:
            texts[name], seeds[name] = _pick_random(name, seed)
    facts = {name: Facts(parse_facets(text)) for name, text in texts.items()}
    for name, const in FIXED.items():
        got = {"f_vector": facts[name].f_vector, "euler": facts[name].euler,
               "betti": facts[name].betti(), "wu2": facts[name].wu(2),
               "wu3": facts[name].wu(3)}
        for key, value in got.items():
            if const[key] != value:
                raise RuntimeError(f"reference disagrees on {name} {key}: "
                                   f"{value} != {const[key]}")
    paths = {}

    def write(name, text):
        path = inputs_dir / (name if "." in name else f"{name}.txt")
        path.write_text(text, encoding="utf-8")
        paths[name] = path.as_posix()

    manifest = {"workload": workload, "seed": seed, "why": WORKLOADS[workload],
                "inputs": {}}
    ops = []

    def op(name, argv, **expect):
        expect.setdefault("exit", 0)
        ops.append({"name": name, "argv": argv, "expect": expect})

    if workload == "report-refined":
        write("refined", texts["refined"])
        op("report-refined", ["report", "--input", paths["refined"]],
           **_report_expect(FIXED["refined"]))
    elif workload == "lax-flow":
        write("refined", texts["refined"])
        op("lax-refined", ["lax", "--input", paths["refined"], "--t-end", "10",
                           "--dt", "0.01"],
           length={"trajectory.states": 101,
                   "trajectory.states.0.eigenvalues": 146})
    else:
        for name in ("octahedron", "wheel6", *RANDOM):
            write(name, texts[name])
        oct_perm = _automorphism(facts["octahedron"], rng)
        wheel_perm = _automorphism(facts["wheel6"], rng)
        write("octahedron.perm", _cycles(oct_perm))
        write("wheel6.perm", _cycles(wheel_perm))
        r16 = facts["random16"]
        values = rng.permutation(len(r16.labels)) + 1
        write("random16.fn", "".join(f"{lab} {int(x)}\n"
                                     for lab, x in zip(r16.labels, values)))
        lines = texts["octahedron"].splitlines()
        first = lines[0].split()
        lines.insert(int(rng.integers(len(lines) + 1)),
                     " ".join(first + first[:1]))
        write("malformed", "\n".join(lines) + "\n")
        o, w, r60, r80 = (facts[k] for k in ("octahedron", "wheel6",
                                             "random60", "random80"))
        p = paths
        op("report-octahedron", ["report", "--input", p["octahedron"]],
           **_report_expect(FIXED["octahedron"]))
        op("report-wheel6", ["report", "--input", p["wheel6"]],
           **_report_expect(FIXED["wheel6"]))
        op("betti-random60", ["betti", "--input", p["random60"]],
           equal={"betti": r60.betti(), "order": 1})
        op("betti2-wheel6", ["betti", "--order", "2", "--input", p["wheel6"]],
           equal={"betti": FIXED["wheel6"]["betti2"], "order": 2})
        op("curvature-random60", ["curvature", "--input", p["random60"]],
           equal={"target_characteristic": r60.euler,
                  "total": {"num": r60.euler, "den": 1}},
           fraction_sum={"values": r60.euler})
        wu2 = r80.wu(2)
        op("curvature2-random80",
           ["curvature", "--order", "2", "--input", p["random80"]],
           equal={"target_characteristic": wu2, "total": {"num": wu2, "den": 1}},
           fraction_sum={"values": wu2})
        op("curvature3-octahedron-guard",
           ["curvature", "--order", "3", "--input", p["octahedron"]], exit=4)
        op("ph-random16", ["ph", "--input", p["random16"],
                           "--function", p["random16.fn"]],
           equal={"sum": r16.euler, "euler_characteristic": r16.euler})
        op("ph-sampled-random16", ["ph", "--input", p["random16"], "--mode",
                                   "sampled:2000", "--seed", str(seed)],
           equal={"mode": "sampled", "samples": 2000},
           float_sum={"values": [r16.euler, 1e-9]})
        op("ph-exhaustive-wheel6", ["ph", "--input", p["wheel6"],
                                    "--mode", "exhaustive"],
           equal={"mode": "exhaustive", "samples": 5040},
           fraction_sum={"values": FIXED["wheel6"]["euler"]})
        for name, facts_of, perm in (("octahedron", o, oct_perm),
                                     ("wheel6", w, wheel_perm)):
            number = facts_of.lefschetz_number(perm)
            op(f"lefschetz-{name}", ["lefschetz", "--input", p[name],
                                     "--perm", p[f"{name}.perm"]],
               equal={"lefschetz_number": number, "fixed_index_sum": number})
        for name in ("random16", "random60"):
            op(f"heat-{name}", ["heat", "--input", p[name]],
               equal={"euler_characteristic": facts[name].euler})
        op("lax-wheel6", ["lax", "--input", p["wheel6"]],
           length={"trajectory.states": 11})
        op("refine-octahedron", ["refine", "--input", p["octahedron"]],
           equal={"f_vector": FIXED["octahedron"]["f_vector"],
                  "refined_f_vector": FIXED["refined"]["f_vector"]})
        op("skeleton-random60", ["skeleton", "--order", "1",
                                 "--input", p["random60"]],
           equal={"f_vector": r60.f_vector[:2],
                  "euler_characteristic": r60.f_vector[0] - r60.f_vector[1]})
        n16 = len(r16.simplices)
        op("export-random16", ["export", "--input", p["random16"],
                               "--operator", "hodge", "--kind", "json"],
           equal={"json.shape": [n16, n16]}, length={"json.degrees": n16})
        op("malformed-facets", ["betti", "--input", p["malformed"]], exit=2)

    for name, path in paths.items():
        entry = {"file": path, "why": WHY[name]}
        if name in facts:
            entry["f_vector"] = facts[name].f_vector
            entry["order2_tuples"] = facts[name].order2_tuples()
        if name in seeds:
            entry["generate_seed"] = seeds[name]
        manifest["inputs"][name] = entry
    (workdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return {"workload": workload, "seed": seed, "ops": ops}


if __name__ == "__main__":
    # usage: PYTHONPATH=src python3 perfbench/workloads.py WORKLOAD SEED WORKDIR
    # writes the inputs, WORKDIR/manifest.json and WORKDIR/plan.json
    name, seed_arg, out_dir = sys.argv[1:4]
    plan = build(name, int(seed_arg), Path(out_dir))
    (Path(out_dir) / "plan.json").write_text(json.dumps(plan, indent=1) + "\n")
