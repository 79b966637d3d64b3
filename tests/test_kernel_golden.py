"""Golden kernel data: the deterministic work and results of fixed inputs.

``tests/data/kernel_golden.json`` pins, for fixed inputs, the reduction-step
count (``Budget.used``) and the generators of

  * an intersection of two ideals over Q (one Buchberger run in the
    elimination order), and the reduced grevlex basis of the result;
  * the Fedder colon ``(I^[3] : I)`` of the determinantal relations over
    F_3 at e = 1, and the reduced grevlex basis of the colon;

together with the e = 1 klt certificate of the Q-defined determinantal ring
(inconclusive: there is no witness at e = 1) and the verification block of
its e = 3 certificate.  A change that only speeds the kernel up must leave
all of it byte-equal.  Regenerate, only for a change meant to alter it, with

    PYTHONPATH=src python tests/test_kernel_golden.py > tests/data/kernel_golden.json
"""

import json
from pathlib import Path

import pytest

from conftest import DET5_KLT_INPUT
from fsing.certify import certify_klt, parse_job
from fsing.fcriteria import _fedder_colon
from fsing.frobenius import FrobeniusPower
from fsing.groebner import Budget, Ideal, intersection
from fsing.polycore import RATIONALS, parse_polynomial, prime_field
from fsing.triples import quotient_ring

GOLDEN = Path(__file__).resolve().parent / "data" / "kernel_golden.json"

XYZ = ["x", "y", "z"]
INTERSECTION_I = ["x^2 - y*z + 1/2*x", "x*y^2 - z^3"]
INTERSECTION_J = ["x*z - y^2", "y^3 - 3*x*z^2 + z"]
DET_F3_NAMES = ["A", "B", "C", "D", "E"]
DET_F3_RELATIONS = ["A^4 - B*C", "A^2*B^4 - A^2*D - C*D",
                    "B^5 - B*D - A^2*D"]


def _work(gens, names):
    """The reduced grevlex basis of the ideal ``gens`` generate, and the
    reduction steps it took."""
    budget = Budget()
    gb = Ideal.from_polys(gens).groebner_basis(budget=budget)
    return {"basis": [g.to_string(names) for g in gb], "basis_used": budget.used}


def intersection_record() -> dict:
    I, J = ([parse_polynomial(s, XYZ, RATIONALS) for s in texts]
            for texts in (INTERSECTION_I, INTERSECTION_J))
    budget = Budget()
    meet = intersection(Ideal.from_polys(I), Ideal.from_polys(J), budget)
    return {"gens": [g.to_string(XYZ) for g in meet.gens],
            "used": budget.used, **_work(meet.gens, XYZ)}


def fedder_colon_record() -> dict:
    ring = quotient_ring(DET_F3_NAMES, prime_field(3),
                         [parse_polynomial(s, DET_F3_NAMES, prime_field(3))
                          for s in DET_F3_RELATIONS])
    budget = Budget()
    gens = [build() for _, build in
            _fedder_colon(ring, FrobeniusPower(3, 1), budget)]
    return {"gens": [g.to_string(DET_F3_NAMES) for g in gens],
            "used": budget.used, **_work(gens, DET_F3_NAMES)}


def klt_e1_record() -> dict:
    cert = certify_klt(parse_job(dict(DET5_KLT_INPUT, e_max=1), "klt"))
    out = cert.to_dict()
    del out["timestamp"]
    return out


SECTIONS = {
    "intersection": intersection_record,
    "fedder_colon_det_f3_e1": fedder_colon_record,
    "klt_det_e1_certificate": klt_e1_record,
}


def golden_record(e3_certificate) -> dict:
    record = {name: build() for name, build in SECTIONS.items()}
    record["klt_det_e3_verification"] = e3_certificate.verification
    return record


def dump(record) -> str:
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_has_exactly_the_sections():
    assert sorted(golden()) == sorted([*SECTIONS, "klt_det_e3_verification"])


@pytest.mark.parametrize("name", list(SECTIONS))
def test_section_matches_golden(name):
    assert dump(SECTIONS[name]()) == dump(golden()[name])


def test_klt_det_e3_verification_matches_golden(det5_klt_certificate):
    assert dump(det5_klt_certificate.verification) == \
        dump(golden()["klt_det_e3_verification"])


if __name__ == "__main__":
    e3 = certify_klt(parse_job(DET5_KLT_INPUT, "klt"))
    print(dump(golden_record(e3)), end="")
