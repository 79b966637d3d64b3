"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with  `pytest tests/test_acceptance.py -v -s`  to see the per-criterion
lines.  Criterion 2 is split: the literal exponent bound (e <= 2) for the
determinantal F_3 fixture is provably unattainable (only units of the local
ring can witness a splitting at e <= 2; see notes in the repository docs),
so that assertion is expected to fail; the companion test records the true
behavior (certified at e = 3) and the remaining clauses of the criterion.
"""

import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from fsing.certify import certify_log_canonical, certify_klt, parse_job, run_corpus
from fsing.fcriteria import (
    nu_value,
    sharply_fpure,
    splitting_oracle,
    strongly_fregular,
)
from fsing.frobenius import FrobeniusPower, embed_ideal_to_level
from fsing.groebner import Ideal
from fsing.polycore import parse_polynomial, prime_field
from fsing.testideals import (
    PLinearMap,
    RelativeSetup,
    fiber_compare,
    pair_multiplier,
    relative_pair_setup,
    skoda_check,
    stabilization_scan,
    tau_absolute,
    tau_pair_divisor,
    tau_relative,
)
from fsing.triples import TripleSpec, divisor, polynomial_ring, quotient_ring
from fsing.verify import verify_witness_data

SRC = str(Path(__file__).resolve().parent.parent / "src")
CUSP = "x^2 + y^3"


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line, file=sys.stderr)
    assert ok, line


def ring(names, p, relations=()):
    dom = prime_field(p)
    R0 = polynomial_ring(list(names), dom)
    if relations:
        return quotient_ring(list(names), dom, [R0.parse(r) for r in relations])
    return R0


def unit_ideal(R):
    return Ideal(R.domain, R.nvars, [R.constant(1)])


def det_ring(p):
    return ring(["A", "B", "C", "D"], p,
                ["A^4 - B*C", "A^2*B^4 - A^2*D - C*D", "B^5 - B*D - A^2*D"])


# ---------------------------------------------------------------------------
# Criterion 1: Fedder/oracle agreement on >= 20 graded fixtures, < 60 s.

FIXTURES_1 = [
    # (names, p, relations, divisor components)
    (["x"], 2, [], []),
    (["x", "y"], 2, [], []),
    (["x", "y"], 3, [], []),
    (["x", "y", "z"], 5, [], []),
    (["x", "y", "z"], 5, ["x^3 + y^3 + z^3"], []),
    (["x", "y", "z"], 7, ["x^3 + y^3 + z^3"], []),
    (["x", "y", "z"], 13, ["x^3 + y^3 + z^3"], []),
    (["x", "y"], 3, [CUSP], []),
    (["x", "y"], 5, [CUSP], []),
    (["x", "y"], 7, [CUSP], []),
    (["x", "y", "z"], 3, ["x^2 + y^2 + z^2"], []),
    (["x", "y", "z"], 5, ["x^2 + y^2 + z^2"], []),
    (["x", "y", "z", "w"], 5, ["x^2 + y^2 + z^2 + w^2"], []),
    (["x", "y", "z"], 3, ["x*z - y^2"], []),
    (["x", "y"], 7, [], [(CUSP, "1/2")]),
    (["x", "y"], 7, [], [(CUSP, "5/6")]),
    (["x", "y"], 7, [], [(CUSP, "1")]),
    (["x"], 5, [], [("x", "1/2")]),
    (["x"], 5, [], [("x", "5/6")]),
    (["x"], 5, [], [("x", "1")]),
    (["x", "y"], 3, [], [("x", "1/2"), ("y", "1")]),
    (["x", "y"], 3, [], [("x", "1")]),
]


def test_criterion_1_fedder_oracle_agreement():
    start = time.time()
    assert len(FIXTURES_1) >= 20
    checked = 0
    for names, p, rels, comps in FIXTURES_1:
        R = ring(names, p, rels)
        delta = divisor([(R.parse(g), Fraction(c)) for g, c in comps])
        spec = TripleSpec(R, delta)
        exponents = (1, 2) if p in (2, 3) else (1,)
        for e in exponents:
            fed = sharply_fpure(spec, e)
            orc = splitting_oracle(spec, e)
            assert orc.status in ("holds", "fails")
            assert fed.holds == orc.holds, (names, p, rels, comps, e)
            checked += 1
    elapsed = time.time() - start
    report("1 (Fedder/oracle agreement)", elapsed < 60,
           f"{len(FIXTURES_1)} fixtures, {checked} cells, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: the determinantal F_3 fixture.


@pytest.fixture(scope="session")
def det_f3_certification():
    """Certified SFR run for the F_3 determinantal ring (shared: it is the
    expensive computation of the suite)."""
    R = det_ring(3)
    c = R.parse("B")  # B^5 lies in the singular-locus ideal: valid choice
    start = time.time()
    result = strongly_fregular(TripleSpec(R), c, 3)
    return R, c, result, time.time() - start


def test_criterion_2_spec_exponent_bound(det_f3_certification):
    """The literal spec bound: certified at some e <= 2.

    Unattainable: at e in {1, 2} the elements admitting a Glassbrenner
    witness are exactly the units (m^[q] colon computations verified against
    independent degreewise linear algebra), so no legitimate test element
    can certify below e = 3.  Kept faithful; expected to fail.
    """
    R = det_ring(3)
    results = [strongly_fregular(TripleSpec(R), R.parse(c), 2)
               for c in ("B", "A")]
    certified = any(r.certified and r.e <= 2 for r in results)
    report("2 (determinantal certified at e <= 2, literal spec bound)",
           certified, "true minimal witness exponent is 3; see decisions ledger")


def test_criterion_2_determinantal_truth(det_f3_certification):
    R, c, result, elapsed = det_f3_certification
    start = time.time()
    assert result.certified, "F_3 determinantal ring must certify by e = 3"
    assert result.e == 3
    assert verify_witness_data_from(result, R)
    # over F_5 and F_7 the ring is inconclusive at e = 1 (only p = 3 works)
    for p in (5, 7):
        Rp = det_ring(p)
        rp = strongly_fregular(TripleSpec(Rp), Rp.parse("B"), 1)
        assert rp.status == "inconclusive", p
    total = elapsed + (time.time() - start)
    report("2' (determinantal: certified at e = 3; F_5/F_7 inconclusive; "
           "runtime)", total < 600, f"{total:.1f}s")


def verify_witness_data_from(result, R):
    from fsing.certify import _witness_verification

    spec = TripleSpec(R)
    return verify_witness_data(_witness_verification(R, spec, result.witness))


# ---------------------------------------------------------------------------
# Criterion 3: the classical cusp pair threshold at p = 7.


def test_criterion_3_cusp_threshold():
    R = ring(["x", "y"], 7)
    f = R.parse(CUSP)
    assert nu_value(f, 1) == 5
    pair56 = TripleSpec(R, divisor([(f, Fraction(5, 6))]))
    assert sharply_fpure(pair56, 1).holds
    pair1 = TripleSpec(R, divisor([(f, Fraction(1))]))
    assert sharply_fpure(pair1, 1).status == "fails"
    assert sharply_fpure(pair1, 2).status == "fails"
    job = parse_job({
        "variables": ["x", "y"], "coefficient": "Q",
        "delta": [{"g": CUSP, "c": "5/6"}], "e_max": 1,
    }, "lc")
    cert = certify_log_canonical(job)
    assert cert.conclusion == "log_canonical" and cert.prime == 7
    report("3 (cusp pair threshold, nu(1)=5, LC certificate at p=7)", True)


# ---------------------------------------------------------------------------
# Relative fixtures shared by criteria 4, 5, 6.


def relative_fixtures():
    """(name, setup, stabilizes) triples.

    The Skoda-heavy fixture with a two-generator a never stabilizes over the
    whole base (its level-n summands keep acquiring smaller base exponents;
    stabilization only happens over the dense open t != 0, as the
    dense-open-subset caveat allows), so it is excluded from the
    persistence and fiber criteria and exercised by the Skoda identity only.
    """
    out = []
    # F_3[t][x]: the divisor t*x as a pair
    R3 = polynomial_ring(["t", "x"], prime_field(3), base_vars=[0])
    t3, x3 = R3.variable(0), R3.variable(1)
    out.append(("div(tx)/F3", relative_pair_setup(
        R3, divisor([(t3 * x3, Fraction(1))]), R3.ideal([x3]), Fraction(1)),
        True))
    # F_3[t][x]: multiplier (tx)^2 with seed (x^2): grows then stabilizes
    out.append(("growth/F3", RelativeSetup(
        R3, PLinearMap(FrobeniusPower(3, 1), (t3 * x3) ** 2),
        R3.ideal([x3 ** 2]), unit_ideal(R3), Fraction(1)), True))
    # same multiplier with a nontrivial two-generator a: Skoda fixture
    out.append(("growth-skoda/F3", RelativeSetup(
        R3, PLinearMap(FrobeniusPower(3, 1), (t3 * x3) ** 2),
        R3.ideal([x3 ** 2]), R3.ideal([x3, t3 + x3]), Fraction(2)), False))
    # F_3[t][x]: the pair (1/2) div(x^2 + t)
    out.append(("half-divisor/F3", relative_pair_setup(
        R3, divisor([(R3.parse("x^2 + t"), Fraction(1, 2))]),
        R3.ideal([x3]), Fraction(1)), True))
    # F_5[t][x] variants
    R5 = polynomial_ring(["t", "x"], prime_field(5), base_vars=[0])
    t5, x5 = R5.variable(0), R5.variable(1)
    out.append(("div(tx)/F5", relative_pair_setup(
        R5, divisor([(t5 * x5, Fraction(1))]), R5.ideal([x5]), Fraction(1)),
        True))
    out.append(("half-divisor/F5", relative_pair_setup(
        R5, divisor([(R5.parse("x^2 + t"), Fraction(1, 2))]),
        R5.ideal([x5]), Fraction(1)), True))
    out.append(("shifted-divisor/F5", relative_pair_setup(
        R5, divisor([(t5 * (x5 + R5.constant(2)), Fraction(1))]),
        R5.ideal([x5 + R5.constant(2)]), Fraction(1)), True))
    return out


def test_criterion_4_skoda_identity():
    checked = 0
    for name, setup, _stab in relative_fixtures():
        if not (setup.lam > setup.mu_a() - 1):
            continue
        for n in range(0, 4):
            assert skoda_check(setup, n), (name, n)
            checked += 1
    assert checked >= 24
    report("4 (Skoda identity on relative fixtures, n <= 3)", True,
           f"{checked} (fixture, level) cells")


def test_criterion_5_stabilization_persistence():
    checked = vacuous = 0
    for name, setup, stabilizes in relative_fixtures():
        if (setup.lam * (setup.phi.power.q - 1)).denominator != 1:
            continue
        scan = stabilization_scan(setup, 4)
        assert scan.stabilized == stabilizes, name
        if not scan.stabilized:
            vacuous += 1  # no stable level by n_max: nothing to persist
            continue
        n0 = scan.stabilization_level
        for extra in (1, 2):
            prev = tau_relative(setup, n0 + extra - 1).ideal
            cur = tau_relative(setup, n0 + extra).ideal
            lifted = embed_ideal_to_level(prev, setup.ring.base_vars,
                                          setup.phi.power, 1)
            assert cur.equals(lifted), (name, n0, extra)
        checked += 1
    assert checked >= 4
    report("5 (stabilization persists for two further levels)", True,
           f"{checked} fixtures verified, {vacuous} vacuous")


def test_criterion_6_fiber_comparison():
    f3_count = f5_count = 0
    for name, setup, stabilizes in relative_fixtures():
        if not stabilizes:
            continue
        p = setup.ring.domain.p
        scan = stabilization_scan(setup, 4)
        assert scan.stabilized, name
        n0 = scan.stabilization_level
        good = [a for a in range(1, p) if
                fiber_compare(setup, n0, {0: a}).status != "bad_fiber"][:3]
        assert good, name
        for a in good:
            res = fiber_compare(setup, n0, {0: a})
            assert res.status == "equal", (name, a, res)
        if p == 3:
            f3_count += 1
        else:
            f5_count += 1
    assert f3_count >= 3 and f5_count >= 3
    # degenerate point: the divisor t*x contains the fiber t = 0
    name, setup, _ = relative_fixtures()[0]
    assert fiber_compare(setup, 1, {0: 0}).status == "bad_fiber"
    report("6 (fiber comparison at good points; bad fibers flagged)", True,
           f"{f3_count} fixtures over F_3[t], {f5_count} over F_5[t]")


# ---------------------------------------------------------------------------
# Criterion 7: pair route equals the multiplier route, identically.


def test_criterion_7_pair_divisor_consistency():
    fixtures = [
        (ring(["x"], 5), [("x", Fraction(1, 2))], 1),
        (ring(["x"], 5), [("x", Fraction(1))], 1),
        (ring(["x"], 5), [("x", Fraction(2))], 1),
        (ring(["x", "y"], 7), [(CUSP, Fraction(5, 6))], 1),
        (ring(["x", "y"], 3), [("x", Fraction(1, 2)), ("y", Fraction(1))], 1),
        (ring(["t", "x"], 3), [("t*x", Fraction(1))], 1),
    ]
    for R, comps, lam in fixtures:
        delta = divisor([(R.parse(g), c) for g, c in comps])
        power, u, I = pair_multiplier(R, delta)
        direct = tau_absolute(PLinearMap(power, u), I, unit_ideal(R),
                              Fraction(lam), 3)
        via_pair = tau_pair_divisor(R, delta, unit_ideal(R), lam, 3)
        assert direct.ideal.equals(via_pair.ideal), comps
    report("7 (pair/divisor route = multiplier route, exactly)", True,
           f"{len(fixtures)} fixtures")


# ---------------------------------------------------------------------------
# Criterion 8: deformation consistency for the quadric slice.


def test_criterion_8_deformation_consistency():
    from fsing.certify import verify_deformation_sfr

    dom = prime_field(5)
    names = ["x", "y", "z", "t"]
    R = quotient_ring(names, dom,
                      [parse_polynomial("x^2 + y^2 + z^2 + t^2", names, dom)])
    report8 = verify_deformation_sfr(R, R.parse("t"), R.parse("x"),
                                     R.parse("x"), 1)
    assert report8.certificate.conclusion == "deformation_consistent"
    assert not report8.theorem_violation_candidate
    # a regular fixture and an inconclusive-slice fixture: no violation flag
    R2 = polynomial_ring(["x", "y", "z"], dom)
    rep2 = verify_deformation_sfr(R2, R2.parse("z"), R2.constant(1),
                                  R2.constant(1), 1)
    assert not rep2.theorem_violation_candidate
    report("8 (quadric 3-fold / quadric-cone slice both certified)", True)


# ---------------------------------------------------------------------------
# Criterion 9: independent witness re-verification in a separate process.


@pytest.fixture(scope="session")
def emitted_certificates(tmp_path_factory, det_f3_certification):
    """Every positive certificate the acceptance run emits, on disk."""
    tmp = tmp_path_factory.mktemp("certs")
    certs = []
    jobs = [
        ("lc", {
            "variables": ["x", "y"], "coefficient": "Q",
            "delta": [{"g": CUSP, "c": "5/6"}], "prime": 7, "e_max": 1}),
        ("lc", {
            "variables": ["x", "y", "z"], "coefficient": "Q",
            "delta": [{"g": "x^3 + y^3 + z^3", "c": "1"}],
            "prime": 7, "e_max": 1}),
        ("klt", {
            "variables": ["x", "y", "z"], "coefficient": "Q",
            "relations": ["x^2 + y^2 + z^2"], "test_element": "x",
            "prime": 5, "e_max": 1}),
        ("klt", {
            "variables": ["x", "y", "z"], "coefficient": "Q",
            "relations": ["x*z - y^2"], "test_element": "y",
            "prime": 3, "e_max": 1}),
        ("sfr", {
            "variables": ["x", "y", "z", "w"], "coefficient": "Fp", "p": 3,
            "relations": ["x*y - z*w"], "test_element": "x", "e_max": 1}),
    ]
    for mode, data in jobs:
        job = parse_job(data, mode)
        cert = certify_log_canonical(job) if mode == "lc" else certify_klt(job)
        assert cert.status == "certified"
        certs.append(cert)
    # the determinantal e = 3 certificate, from the shared session fixture
    R, c, result, _ = det_f3_certification
    from fsing.certify import _emit

    spec = TripleSpec(R)
    cert = _emit("sfr", 3, result.witness, spec,
                 ["test element vanishes on the singular locus"],
                 [{"prime": 3, "status": "certified"}])
    certs.append(cert)
    paths = []
    for i, cert in enumerate(certs):
        path = tmp / f"cert{i}.json"
        path.write_text(cert.to_json())
        paths.append(path)
    return paths


def test_criterion_9_soundness_separate_process(emitted_certificates):
    # the verifier itself must only pull in the polynomial and Groebner layers
    import fsing.verify as verifier_module

    source = Path(verifier_module.__file__).read_text()
    for line in source.splitlines():
        line = line.strip()
        if line.startswith("from .") or line.startswith("from fsing"):
            module = line.split()[1]
            assert module.split(".")[-1] in ("groebner", "polycore"), line

    for path in emitted_certificates:
        proc = subprocess.run(
            [sys.executable, "-m", "fsing.verify", str(path)],
            capture_output=True, text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, (path, proc.stdout, proc.stderr)
    report("9 (independent witness re-verification)", True,
           f"{len(emitted_certificates)} certificates re-verified")


# ---------------------------------------------------------------------------
# Criterion 10: determinism of the corpus report.


def _strip_timestamps(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if '"generated_at"' not in line
                     and '"timestamp"' not in line)


def test_criterion_10_corpus_determinism(tmp_path):
    bundled = Path(SRC) / "fsing" / "data" / "corpus.json"
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    report1 = run_corpus(str(bundled), str(out1))
    report2 = run_corpus(str(bundled), str(out2))
    assert report1["all_pass"] and report2["all_pass"]
    text1 = _strip_timestamps(out1.read_text())
    text2 = _strip_timestamps(out2.read_text())
    assert text1 == text2
    report("10 (byte-identical corpus reports modulo timestamps)", True)
