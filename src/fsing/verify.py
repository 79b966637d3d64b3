"""Independent witness re-verification from certificate data alone.

Deliberately imports only the polynomial layer and the Groebner kernel, so a
certificate can be re-checked in a separate process without trusting any of
the criteria code.  Checks performed:

  1. the witness element factors exactly as recorded (product of the listed
     factors times the colon element);
  2. the factor exponents meet the splitting requirements: e >= 1, each
     divisor component g appears with exponent >= ceil(c (q-1)), the
     a-generator factors have total weight >= ceil(lambda (q-1)), and a
     test-element factor, which every theorem but the lc one needs, has
     exponent >= 1 and is nonzero modulo the relations;
  3. the colon element h satisfies h * I subseteq I^[q];
  4. the witness element escapes m^[q] (a monomial with all exponents < q,
     or, for a geometric SFR certificate over a function-field base, with
     the exponents < q of the fiber variables listed in ``escape_indices``).

Together these re-prove the splitting at exponent e by the colon criterion.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .groebner import Ideal
from .polycore import Polynomial, ceil_frac, parse_polynomial, prime_field

# The theorem each certifying mode cites, and the one conclusion it may
# certify; a certificate citing any other tag is refused.
THEOREMS = {
    "lc": ("lc-from-sharp-f-purity-at-one-prime", "log_canonical"),
    "klt": ("klt-from-strong-f-regularity-at-one-prime", "klt"),
    "sfr": ("strong-f-regularity-glassbrenner-witness", "strongly_F_regular"),
    "gsfr": ("geometric-sfr-from-perfected-base",
             "geometrically_strongly_F_regular"),
    "deform": ("sfr-deformation-consistency", "deformation_consistent"),
}
TAG_CONCLUSIONS = dict(THEOREMS.values())
# The one theorem whose witness may escape m^[q] in the fiber variables only.
GSFR_TAG = THEOREMS["gsfr"][0]
# The one theorem whose witness needs no test-element factor.
LC_TAG = THEOREMS["lc"][0]


def verify_witness_data(data: dict, test_element: bool = False) -> bool:
    """Checks 1-4.  By default this is weaker than verify_certificate_file:
    only ``test_element=True`` also requires a test-element factor with
    exponent >= 1 that is nonzero modulo the relations."""
    p = int(data["p"])
    e = int(data["e"])
    q = int(data["q"])
    # p**e >= 2**((bits(p) - 1) * e), so when that exponent reaches bits(q)
    # the power cannot match q; bounding it first keeps a forged p or e from
    # costing the power, which then has fewer than 2 * bits(q) bits
    if p < 2 or e < 1 or (p.bit_length() - 1) * e >= q.bit_length() \
            or q != p ** e:
        return False
    dom = prime_field(p)
    names = list(data["variables"])
    nvars = len(names)

    def parse(s: str) -> Polynomial:
        return parse_polynomial(s, names, dom)

    relations = [parse(s) for s in data.get("relations", [])]
    colon_element = parse(data["colon_element"])
    witness = parse(data["witness_element"])
    factors = [(parse(f["poly"]), int(f["exponent"]), f["source"])
               for f in data.get("witness_factors", [])]

    # 1. factorization check
    product = colon_element
    for poly, exponent, _source in factors:
        product = product * poly ** exponent
    if product != witness:
        return False

    # 2. exponent requirements
    lam = Fraction(data.get("lambda", "1"))
    delta = [(parse(item["g"]), Fraction(item["c"]))
             for item in data.get("delta", [])]
    recorded = {}
    for poly, exponent, source in factors:
        recorded[(source, poly)] = recorded.get((source, poly), 0) + exponent
    for g, c in delta:
        needed = ceil_frac(c * (q - 1))
        if needed and recorded.get(("divisor", g), 0) < needed:
            return False
    a_gens = [parse(s) for s in data.get("a", [])]
    a_trivial = not a_gens or any(g.is_constant() and not g.is_zero()
                                  for g in a_gens)
    if not a_trivial:
        needed = ceil_frac(lam * (q - 1))
        weight = sum(exp for (source, _), exp in recorded.items()
                     if source == "ideal_a")
        # factors must actually be generators of a
        for poly, exponent, source in factors:
            if source == "ideal_a" and poly not in a_gens:
                return False
        if weight < needed:
            return False
    if test_element and not any(
            source == "test_element" and exponent >= 1
            and not Ideal(dom, nvars, relations).contains(poly)
            for poly, exponent, source in factors):
        return False

    # 3. colon membership: h * I subseteq I^[q]
    if relations:
        bracket = Ideal(dom, nvars, [g.frobenius_power(q) for g in relations])
        for g in relations:
            if not bracket.contains(colon_element * g):
                return False

    # 4. escape from m^[q], in the fiber variables only when recorded
    indices = data.get("escape_indices", list(range(nvars)))
    if (not isinstance(indices, list) or not indices
            or any(type(i) is not int or not 0 <= i < nvars for i in indices)
            or len(set(indices)) != len(indices)):
        return False
    return any(all(mono[i] < q for i in indices) for mono in witness.terms)


def verify_certificate_file(path: str) -> bool:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cert = json.load(fh)
    except (OSError, ValueError) as exc:   # ValueError: bad JSON or UTF-8
        print(f"certificate file unreadable: {type(exc).__name__}: {exc}")
        return False
    if isinstance(cert, dict) and "certificate" in cert \
            and "status" not in cert:
        cert = cert["certificate"]
    if not isinstance(cert, dict):
        print("certificate is not a JSON object")
        return False
    if cert.get("status") != "certified":
        print("certificate is not a positive certificate; nothing to verify")
        return True
    data = cert.get("verification")
    if data is None:
        print("certificate carries no verification block")
        return False
    if not isinstance(data, dict):
        print("verification block is not a JSON object")
        return False
    tag = cert.get("theorem_tag")
    conclusion = TAG_CONCLUSIONS.get(tag) if isinstance(tag, str) else None
    if conclusion is None or cert.get("conclusion") != conclusion:
        print(f"theorem tag {tag!r} does not certify the conclusion "
              f"{cert.get('conclusion')!r}")
        return False
    if "escape_indices" in data and tag != GSFR_TAG:
        print("escape_indices are allowed only in a "
              f"{GSFR_TAG} certificate")
        return False
    try:
        return verify_witness_data(data, test_element=tag != LC_TAG)
    except Exception as exc:  # malformed data must fail closed, not crash
        print(f"verification data unusable: {type(exc).__name__}: {exc}")
        return False


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 1:
        print("usage: python -m fsing.verify CERTIFICATE.json", file=sys.stderr)
        return 2
    ok = verify_certificate_file(argv[0])
    print("witness verification:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
