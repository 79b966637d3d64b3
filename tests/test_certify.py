"""Certification engine: LC/klt certificates, deformation, corpus runner."""

import json
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from fsing.arithmodels import reduce_mod_p, spread_out
from fsing.certify import (
    CertifyError,
    certify_gsfr,
    certify_klt,
    certify_log_canonical,
    parse_input,
    parse_job,
    run_corpus,
    run_job,
    verify_deformation_sfr,
)
from fsing.cli import main
from fsing.fcriteria import nu_value
from fsing.polycore import prime_field
from fsing.testideals import tau_pair_divisor
from fsing.triples import quotient_ring
from fsing.verify import verify_certificate_file, verify_witness_data

SRC = str(Path(__file__).resolve().parent.parent / "src")
GOLDEN_REPORT = Path(__file__).resolve().parent / "data" / "corpus_report.json"
# the 2x2 minors of a generic 2x3 matrix: not a complete intersection, so
# its Fedder colon takes the general, budgeted route
MINORS_2X3 = ["a*e - b*d", "a*f - c*d", "b*f - c*e"]
M61 = 2 ** 61 - 1   # a Mersenne prime


def lc_job(**extra):
    data = {
        "variables": ["x", "y"],
        "coefficient": "Q",
        "delta": [{"g": "x^2 + y^3", "c": "5/6"}],
    }
    data.update(extra)
    return parse_job(data, "lc")


class TestCertifyLogCanonical:
    def test_cusp_pair_at_7(self):
        cert = certify_log_canonical(lc_job(prime=7, e_max=2))
        assert cert.conclusion == "log_canonical"
        assert cert.prime == 7 and cert.exponent_witness == 1
        assert cert.witness_element is not None
        assert verify_witness_data(cert.verification)

    def test_fermat_pair_on_affine_space(self):
        job = parse_job({
            "variables": ["x", "y", "z"],
            "coefficient": "Q",
            "delta": [{"g": "x^3 + y^3 + z^3", "c": "1"}],
            "prime": 7,
            "e_max": 1,
        }, "lc")
        cert = certify_log_canonical(job)
        assert cert.conclusion == "log_canonical"

    def test_non_lc_pair_stays_inconclusive(self):
        # the cusp pair at coefficient 1 is not LC; the tool must not claim it
        cert = certify_log_canonical(lc_job(prime=5, e_max=2,
                                            delta=[{"g": "x^2 + y^3", "c": "1"}]))
        assert cert.conclusion == "inconclusive"
        assert cert.status == "inconclusive"
        assert cert.witness_element is None

    def test_prime_rejected_when_index_divisible(self):
        cert = certify_log_canonical(lc_job(prime=2, e_max=1))
        # 2 divides the denominator of 5/6: job rejected for that prime
        assert cert.conclusion == "inconclusive"
        assert any("rejected_index_divisible" in t["status"]
                   for t in cert.primes_tried)

    def test_prime_sweep_finds_good_prime(self):
        cert = certify_log_canonical(lc_job(e_max=1))
        assert cert.conclusion == "log_canonical"
        assert cert.prime == 7  # 2, 3 divide 6; 5 fails; 7 certifies

    def test_budget_is_per_prime(self):
        # 100 reduction steps suffice at each prime of the sweep, but not
        # for 2, 3, 5 and 7 together: the budget must not carry over
        job = parse_job({
            "variables": ["x", "y", "z"], "coefficient": "Q",
            "relations": ["x^3 + y^3 + z^3"], "e_max": 1, "gb_budget": 100,
        }, "lc")
        cert = certify_log_canonical(job)
        assert cert.conclusion == "log_canonical" and cert.prime == 7
        assert all(t["status"] != "budget_exceeded" for t in cert.primes_tried)

    def test_fp_input_rejected(self):
        data = {
            "variables": ["x", "y"], "coefficient": "Fp", "p": 7,
            "delta": [{"g": "x^2 + y^3", "c": "5/6"}],
        }
        with pytest.raises(CertifyError):
            certify_log_canonical(parse_job(data, "lc"))

    def test_assumptions_recorded(self):
        cert = certify_log_canonical(lc_job(prime=7, e_max=1))
        assert cert.assumptions
        assert any("normal" in a for a in cert.assumptions)


class TestCertifyKlt:
    def test_quadric_threefold(self):
        job = parse_job({
            "variables": ["x", "y", "z"],
            "coefficient": "Q",
            "relations": ["x^2 + y^2 + z^2"],
            "test_element": "x",
            "prime": 5,
            "e_max": 1,
        }, "klt")
        cert = certify_klt(job)
        assert cert.conclusion == "klt"
        assert cert.exponent_witness == 1
        assert verify_witness_data(cert.verification)

    def test_regular_ring_trivial(self):
        job = parse_job({
            "variables": ["x", "y"], "coefficient": "Q",
            "test_element": "1", "prime": 5, "e_max": 1,
        }, "klt")
        cert = certify_klt(job)
        assert cert.conclusion == "klt"

    def test_fp_native_emits_sfr(self):
        job = parse_job({
            "variables": ["x", "y", "z"], "coefficient": "Fp", "p": 5,
            "relations": ["x^2 + y^2 + z^2"],
            "test_element": "x", "e_max": 1,
        }, "sfr")
        cert = certify_klt(job)
        assert cert.conclusion == "strongly_F_regular"

    @pytest.mark.parametrize("element", ["3*x", "x^2 + y^2 + z^2 + 3*x"])
    def test_test_element_vanishing_mod_p_is_degenerate(self, element):
        # mod 3 the element is 0, or lies in the relations: a degenerate
        # prime for this test element, not a crash of the sweep
        job = parse_job({
            "variables": ["x", "y", "z"], "coefficient": "Q",
            "relations": ["x^2 + y^2 + z^2"],
            "test_element": element, "e_max": 1,
        }, "klt")
        cert = certify_klt(job)
        assert {"prime": 3, "status": "degenerate: test element vanishes mod 3"} \
            in cert.primes_tried
        assert cert.conclusion == "klt" and cert.prime == 5
        assert verify_witness_data(cert.verification)

    @pytest.mark.parametrize("extra, status", [
        ({"test_element": f"1/{M61}*x"}, "test element denominator"),
        ({"relations": [f"x^2 + y^2 + 1/{M61}*z^2"]},
         f"degenerate: prime {M61} is excluded for this model"),
    ], ids=["test_element", "relation"])
    def test_huge_prime_denominator_is_refused_at_once(self, extra, status):
        # the denominator is refused by divisibility, with no factoring of
        # it before the first prime is tried
        data = {"variables": ["x", "y", "z"], "coefficient": "Q",
                "relations": ["x^2 + y^2 + z^2"], "test_element": "x",
                "prime": M61, "e_max": 1, **extra}
        start = time.perf_counter()
        cert = certify_klt(parse_job(data, "klt"))
        assert time.perf_counter() - start < 1
        assert cert.conclusion == "inconclusive"
        assert cert.primes_tried == [{"prime": M61, "status": status}]

    def test_fp_native_budget_exhaustion_is_inconclusive(self):
        # the budget runs out at the input's own prime: reported per cause,
        # not raised
        job = parse_job({
            "variables": ["a", "b", "c", "d", "e", "f"], "coefficient": "Fp",
            "p": 5, "relations": MINORS_2X3, "test_element": "a",
            "gb_budget": 5,
        }, "klt")
        cert = run_job(job)["certificate"]
        assert cert["conclusion"] == "inconclusive" and cert["prime"] == 5
        assert cert["primes_tried"] == [{"prime": 5,
                                         "status": "budget_exceeded"}]

    def test_missing_test_element(self):
        job = parse_job({
            "variables": ["x", "y"], "coefficient": "Q", "prime": 5,
        }, "klt")
        with pytest.raises(CertifyError):
            certify_klt(job)

    def test_determinantal_ring_over_q_at_p3(self, det5_klt_certificate):
        # the corpus determinantal ring, defined over Q with the 81*E^4
        # perturbation: a single good prime (p = 3) certifies klt even
        # though larger primes stay inconclusive
        cert = det5_klt_certificate
        assert cert.conclusion == "klt"
        assert cert.prime == 3 and cert.exponent_witness == 3
        assert verify_witness_data(cert.verification)


class TestRunJobTau:
    def tau_job(self, **extra):
        return parse_job({
            "variables": ["x", "y"], "coefficient": "Q",
            "delta": [{"g": "x^2 + y^3", "c": "5/6"}], "n_max": 3, **extra,
        }, "tau")

    def test_unpinned_moves_past_refused_primes(self):
        # 2 and 3 divide the denominator of 5/6; the first suggested prime
        # the index check accepts is 5
        job = self.tau_job()
        tau = run_job(job)["tau"]
        assert tau["p"] == 5
        spec_5 = reduce_mod_p(spread_out(job.spec), 5)
        direct = tau_pair_divisor(spec_5.ring, spec_5.delta, spec_5.a,
                                  spec_5.lam, 3)
        names = spec_5.ring.var_names
        assert tau["generators"] == [g.to_string(names)
                                     for g in direct.ideal.gens]

    def test_pinned_refused_prime_raises(self):
        with pytest.raises(CertifyError, match=r"\(3\)"):
            run_job(self.tau_job(prime=3))

    def test_unpinned_moves_past_degenerate_prime(self):
        # 2 divides the index denominator and the divisor vanishes mod 3
        job = self.tau_job(delta=[{"g": "3*x^2 + 3*y^3", "c": "1/2"}])
        tau = run_job(job)["tau"]
        assert tau["p"] == 5
        spec_5 = reduce_mod_p(spread_out(job.spec), 5)
        direct = tau_pair_divisor(spec_5.ring, spec_5.delta, spec_5.a,
                                  spec_5.lam, 3)
        names = spec_5.ring.var_names
        assert tau["generators"] == [g.to_string(names)
                                     for g in direct.ideal.gens]


class TestRunJobFpt:
    def test_unpinned_moves_past_degenerate_prime(self):
        # the divisor vanishes mod 2; fpt refuses no prime for the index
        job = parse_job({
            "variables": ["x", "y"], "coefficient": "Q", "e_max": 2,
            "delta": [{"g": "2*x^2 + 2*y^3", "c": "1"}],
        }, "fpt")
        fpt = run_job(job)["fpt"]
        assert fpt["p"] == 3
        f_3 = reduce_mod_p(spread_out(job.spec), 3).delta.components[0][0]
        assert [v["nu"] for v in fpt["values"]] == [nu_value(f_3, 1),
                                                    nu_value(f_3, 2)]


class TestCertifyGsfr:
    def gsfr_job(self, test_element):
        return parse_job({
            "variables": ["t", "x", "y", "z"], "base_variables": ["t"],
            "coefficient": "Fp", "p": 5, "relations": ["x^2 + y^2 + z^2"],
            "test_element": test_element, "level": 0, "e_max": 1,
        }, "gsfr")

    def test_base_unit_in_test_element(self, tmp_path):
        # t is a unit of F_5(t), so t^5*x is a test element; the witness
        # escapes m^[q] only in the fiber variables x, y, z
        cert = certify_gsfr(self.gsfr_job("t^5*x"))
        assert cert.conclusion == "geometrically_strongly_F_regular"
        assert cert.verification["escape_indices"] == [1, 2, 3]
        assert verify_witness_data(cert.verification)
        path = tmp_path / "gsfr.json"
        path.write_text(cert.to_json())
        assert verify_certificate_file(str(path))

    @pytest.mark.parametrize("indices", [[], [1, 1], [0, 4], [True], "x", 1])
    def test_malformed_escape_indices_fail_closed(self, indices):
        data = dict(certify_gsfr(self.gsfr_job("x")).verification,
                    escape_indices=indices)
        assert not verify_witness_data(data)

    @pytest.mark.parametrize("conclusion", [
        "klt", "strongly_F_regular", "log_canonical", None])
    def test_conclusion_relabelled_rejected(self, tmp_path, conclusion):
        # the fiber-only escape proves geometric strong F-regularity alone
        cert = certify_gsfr(self.gsfr_job("t^5*x")).to_dict()
        cert["conclusion"] = conclusion
        path = tmp_path / "gsfr.json"
        path.write_text(json.dumps(cert))
        assert not verify_certificate_file(str(path))


class TestDeformation:
    def quadric4(self):
        dom = prime_field(5)
        names = ["x", "y", "z", "t"]
        from fsing.polycore import parse_polynomial

        return quotient_ring(names, dom,
                             [parse_polynomial("x^2 + y^2 + z^2 + t^2",
                                               names, dom)])

    def test_quadric_slice_consistent(self):
        R = self.quadric4()
        report = verify_deformation_sfr(R, R.parse("t"), R.parse("x"),
                                        R.parse("x"), 1)
        assert report.certificate.conclusion == "deformation_consistent"
        assert not report.theorem_violation_candidate
        assert report.slice_result.e == 1 and report.total_result.e == 1

    def test_regular_slice_trivial(self):
        from fsing.triples import polynomial_ring

        R = polynomial_ring(["x", "y", "z"], prime_field(5))
        report = verify_deformation_sfr(R, R.parse("z"), R.constant(1),
                                        R.constant(1), 1)
        assert report.certificate.conclusion == "deformation_consistent"

    def test_cusp_slice_reports_hypothesis_missing(self):
        dom = prime_field(5)
        names = ["x", "y", "t"]
        from fsing.polycore import parse_polynomial
        from fsing.triples import polynomial_ring

        R = polynomial_ring(names, dom)
        # S = R/(t) has relations (x^2+y^3) after slicing the total ring
        R2 = quotient_ring(names, dom,
                           [parse_polynomial("x^2 + y^3 + t*x", names, dom)])
        report = verify_deformation_sfr(R2, R2.parse("t"), R2.parse("x"),
                                        R2.parse("x"), 2)
        assert report.certificate.conclusion == "inconclusive"
        assert any("hypothesis not established" in t["status"]
                   for t in report.certificate.primes_tried)
        assert not report.theorem_violation_candidate


class TestCertificateContract:
    def test_determinism_modulo_timestamp(self):
        a = certify_log_canonical(lc_job(prime=7, e_max=1)).to_dict()
        b = certify_log_canonical(lc_job(prime=7, e_max=1)).to_dict()
        a.pop("timestamp"), b.pop("timestamp")
        assert a == b

    def test_budget_exceeded_reported_per_prime(self):
        job = parse_job({
            "variables": ["A", "B", "C", "D"],
            "coefficient": "Q",
            "relations": ["A^4 - B*C", "A^2*B^4 - A^2*D - C*D",
                          "B^5 - B*D - A^2*D"],
            "prime": 3,
            "e_max": 2,
            "gb_budget": 50,
        }, "lc")
        cert = certify_log_canonical(job)
        assert cert.conclusion == "inconclusive"
        assert any(t["status"] == "budget_exceeded" for t in cert.primes_tried)

    def test_positive_certificates_carry_witness_and_assumptions(self):
        cert = certify_log_canonical(lc_job(prime=7, e_max=1))
        assert cert.witness_element and cert.exponent_witness
        assert cert.assumptions
        assert cert.to_dict()["cert_version"] == "cert_v1"

    def test_escape_indices_rejected_outside_gsfr(self, tmp_path):
        # a relative escape test must not weaken an lc certificate, even
        # where the witness would pass it
        cert = certify_log_canonical(lc_job(prime=7, e_max=1)).to_dict()
        cert["verification"]["escape_indices"] = [0]
        assert verify_witness_data(cert["verification"])
        path = tmp_path / "lc.json"
        path.write_text(json.dumps(cert))
        assert not verify_certificate_file(str(path))

    def test_huge_modulus_fails_closed_promptly(self, tmp_path):
        # primality of a forged p is decided or refused, never searched
        cert = certify_log_canonical(lc_job(prime=7, e_max=1)).to_dict()
        cert["verification"].update(p=2 ** 127 - 1, e=1, q=2 ** 127 - 1)
        path = tmp_path / "lc.json"
        path.write_text(json.dumps(cert))
        start = time.perf_counter()
        assert not verify_certificate_file(str(path))
        assert time.perf_counter() - start < 1

    def fermat_lc_certificate(self):
        # the cone over an elliptic curve: lc, but not klt
        return certify_log_canonical(parse_job({
            "variables": ["x", "y", "z"], "coefficient": "Q",
            "relations": ["x^3 + y^3 + z^3"], "prime": 7, "e_max": 1,
        }, "lc")).to_dict()

    def test_lc_witness_relabelled_klt_rejected(self, tmp_path):
        cert = self.fermat_lc_certificate()
        path = tmp_path / "lc.json"
        path.write_text(json.dumps(cert))
        assert verify_certificate_file(str(path))
        # no test-element factor: not a strong F-regularity witness
        cert["theorem_tag"] = "klt-from-strong-f-regularity-at-one-prime"
        cert["conclusion"] = "klt"
        path.write_text(json.dumps(cert))
        assert not verify_certificate_file(str(path))

    @pytest.mark.parametrize("conclusion", [
        "klt", "strongly_F_regular", "geometrically_strongly_F_regular",
        None])
    def test_lc_conclusion_relabelled_rejected(self, tmp_path, conclusion):
        # the lc tag waives the test-element check, so it may certify lc only
        cert = self.fermat_lc_certificate()
        cert["conclusion"] = conclusion
        path = tmp_path / "lc.json"
        path.write_text(json.dumps(cert))
        assert not verify_certificate_file(str(path))

    @pytest.mark.parametrize("edits", [
        {"conclusion": "klt"}, {"conclusion": "log_canonical"},
        {"theorem_tag": "made-up-tag"}, {"theorem_tag": ["x"]},
        {"theorem_tag": "made-up-tag", "conclusion": None}])
    def test_sfr_certificate_tampered_rejected(self, tmp_path, edits):
        # each tag certifies exactly its own conclusion, and no other tag
        # is accepted
        cert = certify_klt(parse_job({
            "variables": ["x", "y", "z", "w"], "coefficient": "Fp", "p": 3,
            "relations": ["x*y - z*w"], "test_element": "x", "e_max": 1},
            "sfr")).to_dict()
        path = tmp_path / "sfr.json"
        path.write_text(json.dumps(cert))
        assert verify_certificate_file(str(path))
        cert.update(edits)
        path.write_text(json.dumps(cert))
        assert not verify_certificate_file(str(path))

    def test_test_element_required_with_positive_exponent(self):
        cert = certify_klt(parse_job({
            "variables": ["x", "y", "z"], "coefficient": "Q",
            "relations": ["x*y - z^2"], "test_element": "x", "prime": 5,
            "e_max": 1}, "klt"))
        data = cert.verification
        assert verify_witness_data(data, test_element=True)
        stripped = dict(data, witness_factors=[
            dict(f, exponent=0) for f in data["witness_factors"]])
        stripped["witness_element"] = stripped["colon_element"]
        assert verify_witness_data(stripped)
        assert not verify_witness_data(stripped, test_element=True)

    def test_test_element_must_be_nonzero_in_the_ring(self):
        # over F_5[x, y]/(x - 1), c = x - 1 is zero, h = c^4 is in
        # (I^[5] : I) and h * c = x^5 - 1 escapes m^[5] by its constant term
        data = {"p": 5, "e": 1, "q": 5, "variables": ["x", "y"],
                "relations": ["x + 4"],
                "colon_element": "x^4 + x^3 + x^2 + x + 1",
                "witness_element": "x^5 + 4",
                "witness_factors": [{"poly": "x + 4", "exponent": 1,
                                     "source": "test_element"}]}
        assert verify_witness_data(data)
        assert not verify_witness_data(data, test_element=True)

    def test_exponent_zero_block_rejected(self, tmp_path):
        cert = self.fermat_lc_certificate()
        # q = p^0 = 1: h = 1 is in (I^[1] : I) and 1 escapes m^[1]
        cert["verification"].update(e=0, q=1, colon_element="1",
                                    witness_element="1", witness_factors=[])
        path = tmp_path / "e0.json"
        path.write_text(json.dumps(cert))
        assert not verify_certificate_file(str(path))

    def test_verifier_fails_closed_on_malformed_data(self, tmp_path):
        cert = certify_log_canonical(lc_job(prime=7, e_max=1)).to_dict()
        del cert["verification"]["colon_element"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(cert))
        proc = subprocess.run(
            [sys.executable, "-m", "fsing.verify", str(path)],
            capture_output=True, text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 1

    def test_huge_exponent_rejected_before_the_power(self):
        data = dict(self.fermat_lc_certificate()["verification"], e=10**9)
        start = time.perf_counter()
        assert not verify_witness_data(data)
        # a large p with an e below bits(q) would still cost a huge power
        big = 10**4299
        assert not verify_witness_data(dict(data, p=big, q=big, e=14000))
        assert time.perf_counter() - start < 0.5
        for p in (1, 0, -7):
            assert not verify_witness_data(dict(data, p=p, e=1, q=p))

    @pytest.mark.parametrize("content", [
        "[]", '"x"', "3", "{not json", '{"certificate": []}',
        '{"certificate": "x"}', b"\xff\xfe",
        '{"status": "certified", "verification": []}',
        '{"status": "certified", "verification": 7}'])
    def test_malformed_file_fails_closed(self, tmp_path, capsys, content):
        from fsing.verify import main as verify_main

        path = tmp_path / "cert.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        assert verify_main([str(path)]) == 1
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "witness verification: FAIL"
        assert len(out.splitlines()) == 2   # the reason, then the verdict
        assert verify_main([str(tmp_path / "missing.json")]) == 1
        assert "unreadable" in capsys.readouterr().out


class TestCorpusRunner:
    def test_empty_corpus(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"jobs": []}))
        report = run_corpus(str(path))
        assert report["all_pass"] and report["results"] == []

    def test_wrong_expectation_fails_with_diff(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"jobs": [{
            "name": "wrong",
            "mode": "lc",
            "input": {
                "variables": ["x", "y"], "coefficient": "Q",
                "delta": [{"g": "x^2 + y^3", "c": "5/6"}],
                "prime": 7, "e_max": 1,
            },
            "expect": {"certificate": {"conclusion": "inconclusive"}},
        }]}))
        out = tmp_path / "report.json"
        report = run_corpus(str(path), str(out))
        assert not report["all_pass"]
        assert report["results"][0]["pass"] is False
        assert out.exists()

    def test_bundled_corpus_all_pass(self):
        bundled = Path(SRC) / "fsing" / "data" / "corpus.json"
        report = run_corpus(str(bundled))
        failures = [r["name"] for r in report["results"] if not r["pass"]]
        assert report["all_pass"], failures

    def test_bundled_corpus_report_matches_golden(self):
        # the report is byte-reproducible apart from where and when it ran
        def strip(obj):
            if isinstance(obj, dict):
                return {k: strip(v) for k, v in obj.items()
                        if k != "timestamp"}
            if isinstance(obj, list):
                return [strip(v) for v in obj]
            return obj

        bundled = Path(SRC) / "fsing" / "data" / "corpus.json"
        report = run_corpus(str(bundled))
        del report["corpus"], report["generated_at"]
        fresh = json.dumps(strip(report), indent=2, sort_keys=True) + "\n"
        assert fresh == GOLDEN_REPORT.read_text(encoding="utf-8")


class TestCLI:
    def run_main(self, tmp_path, mode, data, *args):
        inp = tmp_path / "job.json"
        inp.write_text(json.dumps(data))
        return main([mode, "--input", str(inp), *args])

    @pytest.mark.parametrize("data, message", [
        ({"variables": ["x", "y"], "coefficient": "Q",
          "delta": [{"g": "x^2 + 2y", "c": "1"}]}, "position 7"),
        ({"variables": ["x", "y"], "coefficient": "Q",
          "relations": ["x + 1"]}, "vanish at the distinguished point"),
        ({"coefficient": "Q", "relations": ["x + 1"]}, "'variables'"),
        ({"variables": ["x", "y"], "coefficient": "Q", "mdoe": "klt",
          "delta": [{"g": "x^2 + y^3", "c": "5/6"}]}, "['mdoe']"),
        ([{"variables": ["x", "y"]}], "JSON object"),
    ], ids=["parse-error", "presentation-error", "missing-variables",
            "unknown-key", "not-an-object"])
    def test_bad_input_exits_2(self, tmp_path, capsys, data, message):
        assert self.run_main(tmp_path, "lc", data) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        ("prime", 1), ("prime", True), ("prime", 7.0),
        ("e_max", 2.9), ("e_max", True), ("e_max", -1), ("e_max", "-1"),
        ("gb_budget", 0), ("level", -1), ("n_max", -1),
        ("assert_q_gorenstein", "false"), ("assert_q_gorenstein", 1),
    ])
    def test_malformed_job_value_exits_2(self, tmp_path, capsys, key, value):
        data = {"variables": ["x", "y"], "coefficient": "Q",
                "delta": [{"g": "x^2 + y^3", "c": "5/6"}], key: value}
        with pytest.raises(CertifyError, match=key):
            parse_job(data, "lc")
        assert self.run_main(tmp_path, "lc", data) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} ") and "Traceback" not in err

    @pytest.mark.parametrize("change, key", [
        ({"delta": [{"g": "x^2 + y^3", "c": 0.1}]}, "delta[0].c"),
        ({"delta": [{"g": "x^2 + y^3", "c": True}]}, "delta[0].c"),
        ({"delta": [{"g": "x", "c": 1},
                    {"g": "x^2 + y^3", "c": "0.5"}]}, "delta[1].c"),
        ({"delta": [{"g": "x^2 + y^3", "c": "5/0"}]}, "delta[0].c"),
        ({"lambda": 0.3}, "lambda"),
        ({"lambda": "1e0"}, "lambda"),
        ({"variables": "xy"}, "variables"),
        ({"variables": ["x", 1]}, "variables[1]"),
        ({"variables": ["x", "x"]}, "variables"),
        ({"base_variables": "x"}, "base_variables"),
        ({"base_variables": ["u"]}, "base_variables"),
        ({"relations": "x*y"}, "relations"),
        ({"relations": ["x*y", 3]}, "relations[1]"),
        ({"a": "xy"}, "a"),
        ({"delta": [{"g": 7, "c": 1}]}, "delta[0].g"),
        ({"test_element": 5}, "test_element"),
        ({"h": ["t"]}, "h"),
    ], ids=["c-float", "c-flag", "c-decimal-string", "c-zero-denominator",
            "lambda-float", "lambda-exponent-string", "variables-string",
            "variables-non-string", "variables-repeated",
            "base-variables-string", "base-variables-unknown",
            "relations-string", "relations-non-string", "a-string",
            "g-non-string", "test-element-non-string", "h-non-string"])
    def test_malformed_triple_value_exits_2(self, tmp_path, capsys, change,
                                            key):
        # rationals are JSON integers or "a/b" strings, names and
        # polynomials are strings (in lists where several are asked for),
        # never cast: 0.1 is no binary fraction, true is no 1 and "xy"
        # names no variables x and y
        data = dict({"variables": ["x", "y"], "coefficient": "Q",
                     "delta": [{"g": "x^2 + y^3", "c": "5/6"}]}, **change)
        with pytest.raises(CertifyError, match=re.escape(key)):
            parse_job(data, "lc")
        assert self.run_main(tmp_path, "lc", data) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} ") and "Traceback" not in err

    def test_triple_values_kept(self):
        data = {"variables": ["x", "y", "t"], "base_variables": ["t"],
                "coefficient": "Q", "lambda": "1/2",
                "delta": [{"g": "x", "c": 1}, {"g": "y", "c": "-0"},
                          {"g": "x^2 + y^3", "c": "10/12"}]}
        spec = parse_input(data)
        assert spec.lam == Fraction(1, 2)
        assert [c for _, c in spec.delta.components] == [1, Fraction(5, 6)]
        assert spec.ring.base_vars == (2,)
        assert parse_input(dict(data, **{"lambda": 2})).lam == 2

    @pytest.mark.parametrize("option", [
        ["--prime", "1"], ["--e-max", "0"], ["--gb-budget", "0"]])
    def test_malformed_option_exits_2(self, tmp_path, capsys, option):
        data = {"variables": ["x", "y"], "coefficient": "Q",
                "delta": [{"g": "x^2 + y^3", "c": "5/6"}]}
        assert self.run_main(tmp_path, "lc", data, *option) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_job_values_kept(self):
        job = lc_job(prime="7", e_max=3, gb_budget="50", level=0, n_max=0,
                     assert_q_gorenstein=False)
        assert (job.prime, job.e_max, job.gb_budget, job.level, job.n_max,
                job.assert_q_gorenstein) == (7, 3, 50, 0, 0, False)
        assert lc_job(assert_q_gorenstein=True).assert_q_gorenstein is True
        assert lc_job(e_max=None).e_max == 2

    def test_prime_cast_like_e_max(self):
        assert lc_job(prime="7", e_max="1").prime == 7
        assert lc_job(prime=None).prime is None
        assert lc_job().prime is None

    def test_string_prime_certifies(self, tmp_path, capsys):
        data = {"variables": ["x", "y"], "coefficient": "Q",
                "delta": [{"g": "x^2 + y^3", "c": "5/6"}], "prime": "7",
                "e_max": 1}
        assert self.run_main(tmp_path, "lc", data) == 0
        cert = json.loads(capsys.readouterr().out)["certificate"]
        assert cert["prime"] == 7 and cert["status"] == "certified"

    @pytest.mark.parametrize("p, message", [
        (2.9, "p ("), (True, "p ("), ("2.9", "p ("), (None, "p ("),
        (4, "not prime")],
        ids=["float", "bool", "fraction-string", "null", "not-prime"])
    def test_malformed_fp_prime_exits_2(self, tmp_path, capsys, p, message):
        # an Fp input's p follows the rule of "prime"
        data = {"variables": ["x", "y"], "coefficient": "Fp", "p": p,
                "relations": ["x^2 + y^3"], "test_element": "x"}
        assert self.run_main(tmp_path, "klt", data) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_string_fp_prime_accepted(self):
        data = {"variables": ["x", "y"], "coefficient": "Fp", "p": "7",
                "relations": ["x^2 + y^3"]}
        assert parse_job(data, "klt").spec.ring.domain.p == 7

    def test_non_integer_prime_exits_2(self, tmp_path, capsys):
        data = {"variables": ["x", "y"], "coefficient": "Q",
                "delta": [{"g": "x^2 + y^3", "c": "5/6"}], "prime": "seven"}
        assert self.run_main(tmp_path, "lc", data) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_tau_at_refused_fp_prime_exits_2(self, tmp_path, capsys):
        data = {"variables": ["x", "y"], "coefficient": "Fp", "p": 3,
                "delta": [{"g": "x^2 + y^3", "c": "5/6"}]}
        assert self.run_main(tmp_path, "tau", data) == 2
        err = capsys.readouterr().err
        assert "(3)" in err and "rejected_index_divisible" in err

    @pytest.mark.parametrize("n_max", ["-1", "-3"])
    def test_tau_negative_n_max_exits_2(self, tmp_path, capsys, n_max):
        data = {"variables": ["x", "y"], "coefficient": "Q",
                "delta": [{"g": "x^2 + y^3", "c": "5/6"}]}
        assert self.run_main(tmp_path, "tau", data, "--n-max", n_max) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n_max" in err

    @pytest.mark.parametrize("base, relation, args, message", [
        (["t"], "x^2 + y^2 + z^2", ["--level", "-1"], "perfection level"),
        ([], "x^2 + y^2 + z^2", ["--level", "0"],
         "no designated base variables"),
        (["t"], "x^2 - t", ["--level", "1"], "off the fiber"),
    ], ids=["negative-level", "no-base-variables", "off-the-fiber"])
    def test_gsfr_reduction_error_exits_2(self, tmp_path, capsys, base,
                                          relation, args, message):
        data = {"variables": ["t", "x", "y", "z"], "base_variables": base,
                "coefficient": "Fp", "p": 5, "relations": [relation],
                "test_element": "x", "e_max": 1}
        assert self.run_main(tmp_path, "gsfr", data, *args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_fp_budget_exhaustion_exits_1(self, tmp_path):
        data = {"variables": ["a", "b", "c", "d", "e", "f"],
                "coefficient": "Fp", "p": 5, "relations": MINORS_2X3,
                "test_element": "a", "gb_budget": 5}
        out = tmp_path / "cert.json"
        assert self.run_main(tmp_path, "klt", data, "--json", str(out)) == 1
        cert = json.loads(out.read_text())["certificate"]
        assert cert["primes_tried"] == [{"prime": 5,
                                         "status": "budget_exceeded"}]

    def test_lc_mode(self, tmp_path):
        inp = tmp_path / "job.json"
        inp.write_text(json.dumps({
            "variables": ["x", "y"], "coefficient": "Q",
            "delta": [{"g": "x^2 + y^3", "c": "5/6"}],
        }))
        out = tmp_path / "cert.json"
        proc = subprocess.run(
            [sys.executable, "-m", "fsing.cli", "lc", "--input", str(inp),
             "--prime", "7", "--e-max", "1", "--json", str(out)],
            capture_output=True, text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, proc.stderr
        cert = json.loads(out.read_text())["certificate"]
        assert cert["conclusion"] == "log_canonical"

    def test_verify_entry_point(self, tmp_path):
        cert = certify_log_canonical(lc_job(prime=7, e_max=1))
        path = tmp_path / "cert.json"
        path.write_text(cert.to_json())
        proc = subprocess.run(
            [sys.executable, "-m", "fsing.verify", str(path)],
            capture_output=True, text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "PASS" in proc.stdout

    def test_verify_rejects_tampered_witness(self, tmp_path):
        cert = certify_log_canonical(lc_job(prime=7, e_max=1))
        data = cert.to_dict()
        # claim a different colon element: factorization check must fail
        data["verification"]["colon_element"] = "x + y"
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(data))
        proc = subprocess.run(
            [sys.executable, "-m", "fsing.verify", str(path)],
            capture_output=True, text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout
