"""End-to-end gate: one test per release criterion, at its stated tolerance.

Runs against the shared complex zoo (families, circle skeleton, twenty seeded
random complexes, refinements of the small ones) and prints one line per
criterion on success.
"""

import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from conftest import (full_hodge_spectra, gauss_bonnet_curvature,
                      random_subcomplex, reference_rk4, spectral_drift)

from simhodge import (Complex, barycentric_operator,
                      barycentric_refinement, betti, check_automorphism,
                      connection_derivative, dirac, euler_characteristic,
                      exterior_derivative, f_vector, fixed_point_indices,
                      generate, heat_lefschetz, heat_supertrace, hodge,
                      hodge_spectra, index_expectation, integrate,
                      lefschetz_number, multilinear_curvature, poincare_hopf,
                      spectrum_report, supersymmetry_check, whitney_complex,
                      wu_characteristic)
from simhodge.cli import main

HEAT_TIMES = (0.0, 0.1, 0.5, 1.0, 5.0, 10.0)


@pytest.fixture(scope="module")
def de_rham(suite):
    out = {}
    for name, c in suite.items():
        d = exterior_derivative(c)
        out[name] = (d, hodge(dirac(d)))
    return out


@pytest.fixture(scope="module")
def connection_two(suite):
    return {name: connection_derivative(c, 2) for name, c in suite.items()}


def alternating(values):
    return sum(v if k % 2 == 0 else -v for k, v in enumerate(values))


def test_criterion_01_closure_and_valuation_axiom(suite):
    for name, c in suite.items():
        Complex(c.simplices)  # closure re-validated from scratch
        rng = random.Random(hash(name) & 0xFFFF)
        for _ in range(50):
            a = random_subcomplex(c, rng)
            b = random_subcomplex(c, rng)
            lhs = euler_characteristic(a | b) + euler_characteristic(a & b)
            rhs = euler_characteristic(a) + euler_characteristic(b)
            assert lhs == rhs, name
    print(f"PASS criterion 1: closure + valuation axiom "
          f"(50 random pairs x {len(suite)} complexes, exact)")


def test_criterion_02_euler_poincare(suite, de_rham, connection_two):
    for name, c in suite.items():
        d1, _ = de_rham[name]
        assert alternating(betti(d1)) == d1.basis.alternating_dimension_sum() \
            == euler_characteristic(c), name
        d2 = connection_two[name]
        assert alternating(betti(d2)) == d2.basis.alternating_dimension_sum() \
            == wu_characteristic(c, 2), name
    print(f"PASS criterion 2: Euler-Poincare exact for the form and order-2 "
          f"complexes on {len(suite)} complexes")


def test_criterion_03_mckean_singer(suite, de_rham, k3):
    worst = 0.0
    for name, c in suite.items():
        d, _ = de_rham[name]
        chi = euler_characteristic(c)
        # the Gram-assembled spectra, and the full Hodge blocks as the oracle
        for spectra in (hodge_spectra(d), full_hodge_spectra(d)):
            for t in HEAT_TIMES:
                worst = max(worst, abs(heat_supertrace(spectra, t) - chi))
        assert worst < 1e-9, name
    # negative control: degree 1 emptied, so the even forms are the whole
    # domain and the odd half is empty; the paired-spectrum property cannot
    # hold for such a split
    spectra = hodge_spectra(exterior_derivative(k3))
    control = supersymmetry_check([spectra[0], np.zeros(0), spectra[2]])
    assert not control.symmetric
    print(f"PASS criterion 3: heat super-trace matches chi within 1e-9 "
          f"(worst {worst:.2e}); non-elliptic control flagged")


def test_criterion_04_gauss_bonnet(suite, k3):
    for name, c in suite.items():
        total = sum(gauss_bonnet_curvature(c).values(), Fraction(0))
        assert total == euler_characteristic(c), name
    for n in (4, 6, 8):
        assert set(gauss_bonnet_curvature(generate("cycle", n)).values()) \
            == {Fraction(0)}
    star = gauss_bonnet_curvature(generate("star", 3))
    assert star[0] == Fraction(-1, 2)
    assert [star[v] for v in (1, 2, 3)] == [Fraction(1, 2)] * 3
    assert set(gauss_bonnet_curvature(k3).values()) == {Fraction(1, 3)}
    print(f"PASS criterion 4: curvature sums to chi exactly on {len(suite)} "
          f"complexes; hand values match")


def test_criterion_05_poincare_hopf_and_expectation(suite):
    for name, c in suite.items():
        vertices = sorted(c.base)
        chi = euler_characteristic(c)
        rng = random.Random(hash(name) & 0xFFFF)
        for _ in range(100):
            ranks = list(range(len(vertices)))
            rng.shuffle(ranks)
            assert sum(poincare_hopf(c, dict(zip(vertices, ranks))).values()) \
                == chi, name
    small = {name: c for name, c in suite.items() if len(c.base) <= 7}
    for name, c in small.items():
        assert index_expectation(c).values == gauss_bonnet_curvature(c), name
    print(f"PASS criterion 5: index sums exact (100 functions x {len(suite)} "
          f"complexes); exhaustive expectation = curvature on "
          f"{len(small)} small complexes")


def test_criterion_06_wu(suite):
    for n in range(1, 6):
        assert wu_characteristic(generate("simplex", n), 2) == (-1) ** (n - 1)
    for n in (4, 5, 6):
        assert wu_characteristic(generate("wheel", n), 2) == 1
    stable = 0
    for name, c in suite.items():
        if len(c.base) <= 6 and not name.startswith("refined"):
            assert wu_characteristic(barycentric_refinement(c), 2) \
                == wu_characteristic(c, 2), name
            stable += 1
    for name, c in suite.items():
        for k in (2, 3):
            total = sum(multilinear_curvature(c, k).values(), Fraction(0))
            assert total == wu_characteristic(c, k), (name, k)
    print(f"PASS criterion 6: order-2 values, refinement invariance "
          f"({stable} complexes), order-2/3 curvature totals exact")


def test_criterion_07_barycentric_operator(suite):
    assert barycentric_operator(2).tolist() == [[1, 1, 1], [0, 2, 6], [0, 0, 6]]
    s = barycentric_operator(2)
    assert tuple(s.T @ np.array([1, -1, 1])) == (1, -1, 1)
    for name, c in suite.items():
        if c.dimension < 0:
            continue
        s = barycentric_operator(c.dimension)
        predicted = tuple(int(x) for x in s @ np.array(f_vector(c)))
        assert f_vector(barycentric_refinement(c)) == predicted, name
    print(f"PASS criterion 7: refinement counts equal the operator image "
          f"on {len(suite)} complexes; fixed alternating vector confirmed")


def lefschetz_pairs(suite):
    identity = lambda c: {v: v for v in c.base}
    c4 = suite["cycle4"]
    cases = [
        ("cycle4 rotation", c4, {0: 1, 1: 2, 2: 3, 3: 0}, 0),
        ("cycle4 vertex reflection", c4, {0: 0, 1: 3, 2: 2, 3: 1}, 2),
        ("cycle4 edge reflection", c4, {0: 1, 1: 0, 2: 3, 3: 2}, 2),
        ("cycle5 rotation", suite["cycle5"],
         {i: (i + 1) % 5 for i in range(5)}, 0),
        ("cycle6 double rotation", suite["cycle6"],
         {i: (i + 2) % 6 for i in range(6)}, 0),
        ("octahedron antipodal", suite["octahedron"],
         {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}, 0),
        ("octahedron single reflection", suite["octahedron"],
         {0: 1, 1: 0, 2: 2, 3: 3, 4: 4, 5: 5}, 0),
        ("octahedron double swap", suite["octahedron"],
         {0: 1, 1: 0, 2: 3, 3: 2, 4: 4, 5: 5}, 2),
        ("wheel5 rim rotation", suite["wheel5"],
         {0: 0, 1: 2, 2: 3, 3: 4, 4: 5, 5: 1}, 1),
        ("star3 leaf swap", suite["star3"], {0: 0, 1: 2, 2: 1, 3: 3}, 1),
        ("simplex3 transposition", suite["simplex3"], {0: 1, 1: 0, 2: 2}, 1),
        ("simplex4 identity", suite["simplex4"], identity(suite["simplex4"]), 1),
        ("circle3 identity", suite["circle3"], identity(suite["circle3"]), 0),
        ("wheel4 identity", suite["wheel4"], identity(suite["wheel4"]), 1),
    ]
    return cases


def test_criterion_08_lefschetz(suite, de_rham):
    cases = lefschetz_pairs(suite)
    assert len(cases) >= 10
    reverse = {id(c): name for name, c in suite.items()}
    for label, c, perm, expected in cases:
        name = reverse[id(c)]
        d, L = de_rham[name]
        t = check_automorphism(c, perm)
        number, _ = lefschetz_number(t, d)
        fixed, vertex = fixed_point_indices(t, c)
        assert number == expected, label
        assert number == sum(i for _, i in fixed), label
        assert sum(vertex.values(), Fraction(0)) == number, label
        base = heat_lefschetz(t, d, 0.0)
        for x in (0.1, 1.0, 10.0):
            assert abs(heat_lefschetz(t, d, x) - base) < 1e-9, label
    print(f"PASS criterion 8: Lefschetz number = fixed index sum on "
          f"{len(cases)} pairs; heat trace constant within 1e-9")


def test_criterion_09_lax_flow(suite):
    for name in ("cycle4", "simplex3"):
        states = integrate(exterior_derivative(suite[name]), 10.0, 0.01,
                           sample_every=100)
        assert spectral_drift(states[0].eigenvalues(),
                              states[-1].eigenvalues()) < 1e-6, name
        assert max(s.raising_norm_squared() for s in states) < 1e-8, name
    # the flow is the closed form; RK4 of the commutator as written is its
    # oracle, fourth order in dt
    drifts = []
    k3_d = exterior_derivative(suite["simplex3"])
    k3_dirac = dirac(k3_d)
    for dt in (0.2, 0.1):
        exact = integrate(k3_d, 5.0, dt, sample_every=10 ** 9)[-1]
        rk4 = reference_rk4(k3_dirac.to_dense(), k3_dirac.basis, 5.0, dt,
                            10 ** 9)[-1]
        drifts.append(spectral_drift(exact.eigenvalues(),
                                     np.linalg.eigvalsh(rk4)))
    ratio = drifts[0] / drifts[1]
    assert 8.0 <= ratio <= 32.0
    c4_states = integrate(exterior_derivative(suite["cycle4"]), 1.0, 0.01,
                          sample_every=100)
    assert c4_states[0].preserving_norm() == 0.0
    assert c4_states[-1].preserving_norm() > 1e-3
    print(f"PASS criterion 9: drift < 1e-6 at t=10, oracle RK4 halving ratio "
          f"{ratio:.1f} in [8, 32], nilpotency kept, middle part grows")


def test_criterion_10_exact_numeric_cross_validation(suite, de_rham,
                                                     connection_two):
    blocks = 0
    for name in suite:
        for d in (de_rham[name][0], connection_two[name]):
            report = spectrum_report(d)
            assert report.agreement, name
            blocks += len(report.kernel_counts)
    print(f"PASS criterion 10: integer nullity = spectral kernel count in "
          f"{blocks} Hodge blocks")


def test_criterion_11_cli(tmp_path, capsys):
    source = tmp_path / "complex.txt"
    source.write_text("v a\nv b\nv c\nv d\ne a b\ne b c\ne c d\ne a d\n")

    # round trip through the facet serializer
    from simhodge.io import parse_facets, parse_input, serialize_facets
    c = parse_input(str(source), "edges")
    assert parse_facets(serialize_facets(c)) == c

    # determinism of the results payload for a fixed seed
    outputs = []
    for _ in range(2):
        assert main(["ph", "--input", str(source), "--format", "edges",
                     "--seed", "5"]) == 0
        outputs.append(json.loads(capsys.readouterr().out)["results"])
    assert json.dumps(outputs[0], sort_keys=True) \
        == json.dumps(outputs[1], sort_keys=True)

    # documented exit codes
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n\n")
    assert main(["report", "--input", str(bad)]) == 2
    capsys.readouterr()
    big = tmp_path / "big.txt"
    big.write_text(" ".join(str(i) for i in range(9)) + "\n")
    assert main(["ph", "--input", str(big), "--mode", "exhaustive"]) == 4
    capsys.readouterr()
    assert main(["heat", "--input", str(source), "--format", "edges",
                 "--t", "0,1,10"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["within_tolerance"] is True
    print("PASS criterion 11: round trip, deterministic payloads, "
          "exit codes 0/2/4 exercised")


def test_readme_tour_runs():
    """The library tour in README.md runs as written."""
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(tour, "README.md", "exec"), {})


def test_readme_budget_table_names_every_limit():
    """The README's budget table has one row per limit of ``budget``, with
    its value (written as 2000, 2^27 or 10^8)."""
    import re
    from pathlib import Path

    from simhodge import budget

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([A-Z_]+)` \| [^|]+ \| (\d+)(?:\^(\d+))?",
                      readme, re.MULTILINE)
    table = {name: int(base) ** int(power or 1) for name, base, power in rows}
    limits = {name: value for name, value in vars(budget).items()
              if name.isupper() and isinstance(value, int)}
    assert len(limits) == 6
    assert table == limits
