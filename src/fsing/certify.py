"""Certification engine: applies single-prime reduction arguments to checker
outputs and emits machine-readable certificates.

Conclusions are only ever positive ("log_canonical", "klt", ...) or
"inconclusive": splitting failures at finitely many exponents or primes
prove nothing.  Every positive certificate embeds a witness that is
re-verified at emission time and can be re-checked independently from the
certificate alone (see fsing.verify).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction

from . import __version__
from .arithmodels import (
    ReductionError,
    _reduce_poly,
    clear_denominators,
    geometric_sfr_check,
    reduce_mod_p,
    spread_out,
    suggest_primes,
)
from .fcriteria import (
    FPurityWitness,
    nu_value,
    sharply_fpure,
    strongly_fregular,
)
from .groebner import DEFAULT_GB_BUDGET, Budget, BudgetExceededError, Ideal
from .polycore import RATIONALS, Polynomial, prime_field, parse_polynomial
from .testideals import tau_pair_divisor
from .triples import (
    DivisorData,
    RingPresentation,
    TripleSpec,
    polynomial_ring,
    quotient_ring,
)
from .verify import THEOREMS, verify_witness_data

CERT_VERSION = "cert_v1"


class CertifyError(Exception):
    pass


@dataclass
class JobSpec:
    """One certification job: an input triple plus policy knobs."""

    spec: TripleSpec
    mode: str                       # lc | klt | sfr | gsfr | deform | fpt | tau
    prime: int | None = None
    e_max: int = 2
    gb_budget: int = DEFAULT_GB_BUDGET  # reduction steps, per prime tried
    test_element: Polynomial | None = None
    assert_q_gorenstein: bool = False
    level: int = 0                  # gsfr perfection level
    h: Polynomial | None = None     # deform slice element
    n_max: int = 4                  # tau truncation
    name: str = "job"

    def budget(self) -> Budget:
        return Budget(self.gb_budget)


@dataclass
class Certificate:
    conclusion: str          # log_canonical | klt | strongly_F_regular |
                             # geometrically_strongly_F_regular |
                             # deformation_consistent | inconclusive
    theorem_tag: str
    prime: int | None
    exponent_witness: int | None
    witness_element: str | None
    assumptions: list
    status: str              # certified | inconclusive
    tool_version: str = __version__
    cert_version: str = CERT_VERSION
    timestamp: str = ""
    verification: dict | None = None   # self-contained re-check data
    primes_tried: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.timestamp:
            self.timestamp = datetime.now(timezone.utc).isoformat()

    def to_dict(self) -> dict:
        out = {
            "cert_version": self.cert_version,
            "conclusion": self.conclusion,
            "theorem_tag": self.theorem_tag,
            "prime": self.prime,
            "exponent_witness": self.exponent_witness,
            "witness_element": self.witness_element,
            "assumptions": sorted(self.assumptions),
            "status": self.status,
            "tool_version": self.tool_version,
            "timestamp": self.timestamp,
            "primes_tried": self.primes_tried,
            "details": self.details,
        }
        if self.verification is not None:
            out["verification"] = self.verification
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _frac_str(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _witness_verification(ring: RingPresentation, spec: TripleSpec,
                          witness: FPurityWitness,
                          escape_indices=None) -> dict:
    """Self-contained data for independent re-verification.

    The verifier re-checks, with only polynomial arithmetic and Groebner
    membership: the witness factorization, membership of the colon factor in
    (I^[q] : I) via h * I subseteq I^[q], the required factor exponents, and
    the escape of the product from m^[q].  ``escape_indices`` restricts the
    escape test to the listed variables (function-field semantics, where the
    base variables are units of the coefficient field).
    """
    names = list(ring.var_names)
    colon = witness.colon_element.to_string(names)
    out = {
        "p": ring.domain.p,
        "e": witness.e,
        "q": witness.q,
        "variables": names,
        "relations": [g.to_string(names) for g in ring.relations.gens],
        "lambda": _frac_str(spec.lam),
        "delta": [{"g": g.to_string(names), "c": _frac_str(c)}
                  for g, c in spec.delta.components],
        "a": [g.to_string(names) for g in spec.a.gens],
        "witness_factors": [
            {"poly": f.poly.to_string(names), "exponent": f.exponent,
             "source": f.source}
            for f in witness.factors],
        "colon_element": colon,
        # a multiplier of 1 leaves the colon element as the product
        "witness_element": (colon if witness.product == witness.colon_element
                            else witness.product.to_string(names)),
        "escaping_monomial": list(witness.monomial),
    }
    if escape_indices is not None:
        out["escape_indices"] = sorted(escape_indices)
    return out


def _emit(mode: str, prime, witness: FPurityWitness | None,
          spec_p: TripleSpec | None, assumptions, primes_tried,
          details=None, escape_indices=None) -> Certificate:
    """The certificate of ``mode``'s theorem (``verify.THEOREMS``): its one
    conclusion with a witness, "inconclusive" without one."""
    tag, conclusion = THEOREMS[mode]
    ver = None
    exponent = None
    element = None
    if witness is None:
        conclusion = "inconclusive"     # a positive conclusion needs a witness
    else:
        assert spec_p is not None
        ver = _witness_verification(spec_p.ring, spec_p, witness,
                                    escape_indices)
        # emission-time soundness gate: checks 1-4 of fsing.verify; the
        # test-element factor it also requires is checked by
        # strongly_fregular when the witness is found
        if not verify_witness_data(ver):
            raise CertifyError("soundness gate: witness failed re-verification")
        exponent = witness.e
        element = ver["witness_element"]
    status = "inconclusive" if conclusion == "inconclusive" else "certified"
    return Certificate(conclusion, tag, prime, exponent, element,
                       list(assumptions), status, verification=ver,
                       primes_tried=list(primes_tried),
                       details=dict(details or {}))


def _base_assumptions(job: JobSpec, machine_checked_qgor: bool) -> list:
    out = ["model flat and fibers normal at the chosen prime (user-asserted)"]
    if machine_checked_qgor:
        out.append("log Q-Gorenstein: machine-checked (hypersurface ambient, "
                   "principal divisor components)")
    elif job.assert_q_gorenstein:
        out.append("log Q-Gorenstein at the point (user-asserted)")
    else:
        out.append("log Q-Gorenstein NOT asserted: conclusion transfer "
                   "requires it")
    return out


def _qgor_machine_checked(spec: TripleSpec) -> bool:
    """Gorenstein ambient heuristic: hypersurface (or regular) presentation
    with every divisor component principal (which our DivisorData ensures)."""
    return len(spec.ring.relations.gens) <= 1


def _sweep_primes(job: JobSpec, check_index: bool, attempt):
    """Pick the prime of the single-prime argument: the one rule for every
    mode that reduces at a prime.

    An F_p input is tried at its own prime, as given.  A Q input is spread
    out, then the pinned prime or the smallest good primes are tried in
    turn.  With ``check_index``, a prime dividing an index denominator is
    refused; a degenerate reduction or an exhausted budget (a fresh
    ``job.budget()`` per prime) moves on to the next prime.
    ``attempt(spec_p, p, budget)`` returns (status, result or None), and
    the first result ends the sweep.  Returns (p, spec_p, result, tried);
    p, spec_p and result are None when no prime gave a result.
    """
    if job.spec.ring.domain.characteristic != 0:
        model, plan = None, [job.spec.ring.domain.p]
    else:
        model = spread_out(job.spec)
        plan = [job.prime] if job.prime is not None else suggest_primes(model)
    tried = []
    for p in plan:
        if check_index and job.spec.index_denominator() % p == 0:
            tried.append({"prime": p, "status": "rejected_index_divisible"})
            continue
        try:
            spec_p = job.spec if model is None else reduce_mod_p(model, p)
            status, result = attempt(spec_p, p, job.budget())
        except ReductionError as exc:
            tried.append({"prime": p, "status": f"degenerate: {exc}"})
            continue
        except BudgetExceededError:
            tried.append({"prime": p, "status": "budget_exceeded"})
            continue
        tried.append({"prime": p, "status": status})
        if result is not None:
            return p, spec_p, result, tried
    return None, None, None, tried


def certify_log_canonical(job: JobSpec) -> Certificate:
    """Spread out, reduce at one good prime, test sharp F-purity, certify."""
    if job.spec.ring.domain.characteristic != 0:
        raise CertifyError("lc mode expects a Q-defined input")

    def attempt(spec_p, p, budget):
        for e in range(1, job.e_max + 1):
            result = sharply_fpure(spec_p, e, budget)
            if result.holds:
                return f"sharply F-pure at e={e}", result.witness
        return f"no splitting found for e <= {job.e_max}", None

    assumptions = _base_assumptions(job, _qgor_machine_checked(job.spec))
    p, spec_p, witness, tried = _sweep_primes(job, True, attempt)
    return _emit("lc", p, witness, spec_p, assumptions, tried)


def certify_klt(job: JobSpec) -> Certificate:
    """Strong F-regularity at one good prime certifies klt for Q input
    (or strong F-regularity itself for an F_p-native input)."""
    if job.test_element is None:
        raise CertifyError("klt/sfr modes need a test element "
                           "(suggest_test_elements can propose candidates)")
    assumptions = _base_assumptions(job, _qgor_machine_checked(job.spec))
    assumptions.append("test element vanishes on the non-regular locus "
                       "(user-asserted)")
    fp_native = job.spec.ring.domain.characteristic != 0
    if not fp_native:
        cleared, cden = clear_denominators(job.test_element)

    def attempt(spec_p, p, budget):
        if fp_native:
            c_p = job.test_element
        elif cden % p == 0:
            return "test element denominator", None
        else:
            c_p = _reduce_poly(cleared, p)
        if spec_p.ring.relations.contains(c_p):
            raise ReductionError(f"test element vanishes mod {p}")
        result = strongly_fregular(spec_p, c_p, job.e_max, budget)
        return result.status, result.witness

    p, spec_p, witness, tried = _sweep_primes(job, not fp_native, attempt)
    # an F_p input keeps its own prime, certified or not
    return _emit("sfr" if fp_native else "klt", job.spec.ring.domain.p or p,
                 witness, spec_p, assumptions, tried)


def certify_gsfr(job: JobSpec) -> Certificate:
    """Geometric strong F-regularity over a function-field base."""
    if job.spec.ring.domain.characteristic == 0:
        raise CertifyError("gsfr mode expects an F_p input with base variables")
    if job.test_element is None:
        raise CertifyError("gsfr mode needs a test element")
    assumptions = [
        "base field presented as F_p(t..) via the designated base variables",
        "geometric normality of the fibers (user-asserted)",
        "test element vanishes on the non-regular locus (user-asserted)",
    ]
    p = job.spec.ring.domain.p
    model, result = geometric_sfr_check(job.spec, job.level, job.test_element,
                                        job.e_max, job.budget())
    tried = [{"prime": p, "status": result.status, "level": job.level}]
    # _emit turns a missing witness into "inconclusive"
    return _emit("gsfr", p, result.witness, model, assumptions, tried,
                 details={"level": job.level},
                 escape_indices=job.spec.ring.fiber_vars)


@dataclass
class DeformationReport:
    slice_result: object
    total_result: object
    certificate: Certificate
    theorem_violation_candidate: bool = False


def verify_deformation_sfr(ring: RingPresentation, h: Polynomial,
                           c_slice: Polynomial, c_total: Polynomial,
                           e_max: int,
                           budget: Budget | None = None) -> DeformationReport:
    """Certify S = R/(h) and R strongly F-regular independently.

    Emits deformation_consistent when both certify.  If the slice certifies
    while the total space provably fails F-purity at e = 1 (a definitive
    graded refutation of strong F-regularity), the report raises the
    theorem-violation flag for bug triage; the deformation statement says
    this cannot happen on the Q-Gorenstein locus.
    """
    if budget is None:
        budget = Budget()
    dom = ring.domain
    slice_ring = quotient_ring(ring.var_names, dom,
                               list(ring.relations.gens) + [h],
                               ring.base_vars)
    slice_spec = TripleSpec(slice_ring)
    total_spec = TripleSpec(ring)
    slice_result = strongly_fregular(slice_spec, c_slice, e_max, budget)
    total_result = strongly_fregular(total_spec, c_total, e_max, budget)

    assumptions = [
        "S = R/(h) normal (user-asserted)",
        "test elements valid for both rings (user-asserted)",
    ]
    violation = False
    if slice_result.certified and not total_result.certified:
        purity = sharply_fpure(total_spec, 1, budget)
        if purity.status == "fails":
            violation = True

    p = dom.p
    if slice_result.certified and total_result.certified:
        cert = _emit("deform", p, total_result.witness, total_spec,
                     assumptions,
                     [{"prime": p,
                       "status": f"slice certified at e={slice_result.e}, "
                                 f"total at e={total_result.e}"}],
                     details={
                         "slice_exponent": slice_result.e,
                         "total_exponent": total_result.e,
                     })
    else:
        failed = []
        if not slice_result.certified:
            failed.append("hypothesis not established: slice inconclusive")
        if not total_result.certified:
            failed.append("total space inconclusive")
        cert = _emit("deform", p, None, None, assumptions,
                     [{"prime": p, "status": "; ".join(failed)}],
                     details={"theorem_violation_candidate": violation})
    return DeformationReport(slice_result, total_result, cert, violation)


# ---------------------------------------------------------------------------
# Job parsing and the corpus runner.


def _required(data: dict, key: str):
    if key not in data:
        raise CertifyError(f"input is missing the required key {key!r}")
    return data[key]


def parse_input(data: dict) -> TripleSpec:
    """Build a TripleSpec from the JSON input schema."""
    if not isinstance(data, dict):
        raise CertifyError("input must be a JSON object")
    unknown = sorted(set(data) - INPUT_KEYS)
    if unknown:
        raise CertifyError(f"unknown input keys {unknown}; known keys are "
                           f"{sorted(INPUT_KEYS)}")
    names = _strings_value("variables", _required(data, "variables"))
    if len(set(names)) < len(names):
        raise CertifyError(f"variables {names} name a variable twice")
    base_names = _strings_value("base_variables",
                                data.get("base_variables", []))
    coeff = data.get("coefficient", "Q")
    if coeff == "Q":
        dom = RATIONALS
    elif coeff == "Fp":
        dom = prime_field(_job_value("p", _required(data, "p"),
                                     *JOB_KEYS["prime"]))
    else:
        raise CertifyError(f"unknown coefficient domain {coeff!r}")
    unknown = [b for b in base_names if b not in names]
    if unknown:
        raise CertifyError(f"base_variables {unknown} are not among the "
                           f"variables {names}")
    base_vars = tuple(names.index(b) for b in base_names)
    rel = [parse_polynomial(s, names, dom)
           for s in _strings_value("relations", data.get("relations", []))]
    if rel:
        ring = quotient_ring(names, dom, rel, base_vars)
    else:
        ring = polynomial_ring(names, dom, base_vars)
    comps = []
    for i, item in enumerate(data.get("delta", [])):
        g = _string_value(f"delta[{i}].g", _required(item, "g"))
        comps.append((parse_polynomial(g, names, dom),
                      _rational_value(f"delta[{i}].c", _required(item, "c"))))
    a_gens = [parse_polynomial(s, names, dom)
              for s in _strings_value("a", data.get("a", []))]
    a = Ideal(dom, len(names), a_gens) if a_gens else None
    lam = _rational_value("lambda", data.get("lambda", 1))
    return TripleSpec(ring, DivisorData(tuple(comps)), a, lam)


_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def _rational_value(key: str, value) -> Fraction:
    """``value`` for ``key``: a JSON integer, or a string "a" or "a/b" with
    b > 0.  A float, a flag or any other string is refused, never cast."""
    if type(value) is int or (isinstance(value, str)
                              and _RATIONAL.fullmatch(value)):
        return Fraction(value)
    raise CertifyError(f"{key} must be an integer or an \"a/b\" string, "
                       f"not {value!r}")


def _string_value(key: str, value) -> str:
    """``value`` for ``key``: a JSON string (a name or a polynomial)."""
    if not isinstance(value, str):
        raise CertifyError(f"{key} must be a string, not {value!r}")
    return value


def _strings_value(key: str, value) -> list:
    """``value`` for ``key``: a JSON list of strings, never a string read as
    a list of its characters."""
    if type(value) is not list:
        raise CertifyError(f"{key} must be a list of strings, not {value!r}")
    return [_string_value(f"{key}[{i}]", s) for i, s in enumerate(value)]


# The job keys an input or a CLI option may set: kind, least value, meaning.
# A null value, or an override of None, leaves the key at its default.
JOB_KEYS = {
    "prime": (int, 2, "the prime to reduce at"),
    "e_max": (int, 1, "largest Frobenius exponent tried"),
    "gb_budget": (int, 1, "reduction steps per prime"),
    "level": (int, 0, "perfection level"),
    "n_max": (int, 0, "tau truncation level"),
    "assert_q_gorenstein": (bool, None, "Q-Gorenstein assertion"),
}

# Every key an input may hold: the triple's, read by parse_input (an Fp
# input's "p" is checked as "prime" is), and the job's, read by parse_job.
INPUT_KEYS = frozenset({
    "variables", "base_variables", "coefficient", "p", "relations", "delta",
    "a", "lambda", "mode", "name", "test_element", "h", *JOB_KEYS})


def _job_value(key: str, value, kind, least, meaning):
    """``value`` for ``key``: a JSON true or false for a flag; a JSON
    integer or a decimal string, at least ``least``, for a number.
    Anything else is refused, never cast."""
    if kind is bool:
        if type(value) is not bool:
            raise CertifyError(f"{key} ({meaning}) must be true or false, "
                               f"not {value!r}")
        return value
    if isinstance(value, str) and value.isdecimal():
        value = int(value)
    if type(value) is not int or value < least:
        raise CertifyError(f"{key} ({meaning}) must be an integer >= "
                           f"{least}, not {value!r}")
    return value


def parse_job(data: dict, mode: str | None = None, **overrides) -> JobSpec:
    spec = parse_input(data)
    job = JobSpec(spec, mode or data.get("mode", "lc"))
    for key, value in [*((k, data.get(k)) for k in JOB_KEYS),
                       *overrides.items()]:
        if value is not None:
            setattr(job, key, _job_value(key, value, *JOB_KEYS[key]))
    if "name" in data:
        job.name = data["name"]
    if "test_element" in data:
        job.test_element = spec.ring.parse(
            _string_value("test_element", data["test_element"]))
    if "h" in data:
        job.h = spec.ring.parse(_string_value("h", data["h"]))
    return job


def run_job(job: JobSpec) -> dict:
    """Dispatch one job; returns a JSON-ready result record."""
    if job.mode == "lc":
        return {"certificate": certify_log_canonical(job).to_dict()}
    if job.mode in ("klt", "sfr"):
        return {"certificate": certify_klt(job).to_dict()}
    if job.mode == "gsfr":
        return {"certificate": certify_gsfr(job).to_dict()}
    if job.mode == "deform":
        if job.h is None:
            raise CertifyError("deform mode needs the slice element h")
        if job.test_element is None:
            raise CertifyError("deform mode needs a test element "
                               "(used for both rings)")
        report = verify_deformation_sfr(job.spec.ring, job.h,
                                        job.test_element, job.test_element,
                                        job.e_max, job.budget())
        out = {"certificate": report.certificate.to_dict(),
               "theorem_violation_candidate": report.theorem_violation_candidate}
        return out
    if job.mode == "fpt":
        if not job.spec.delta.components and job.spec.a_is_trivial:
            raise CertifyError("fpt mode needs a divisor component or ideal")
        # nu(f, e) does not involve the divisor coefficient, so no prime is
        # refused for dividing an index denominator
        check_index = False

        def attempt(spec_p, p, budget):
            f = spec_p.delta.components[0][0] if spec_p.delta.components \
                else spec_p.a.gens[0]
            values = []
            for e in range(1, job.e_max + 1):
                nu = nu_value(f, e)
                values.append({"e": e, "nu": nu, "fpt_lower_bound":
                               _frac_str(Fraction(nu, p ** e))})
            return "computed", {"f": f.to_string(spec_p.ring.var_names),
                                "p": p, "values": values}
    elif job.mode == "tau":
        check_index = True

        def attempt(spec_p, p, budget):
            result = tau_pair_divisor(spec_p.ring, spec_p.delta, spec_p.a,
                                      spec_p.lam, job.n_max, budget)
            names = spec_p.ring.var_names
            return "computed", {
                "p": p,
                "generators": [g.to_string(names) for g in result.ideal.gens],
                "truncation_level": result.truncation_level,
                "stabilized": result.stabilized,
                "stabilization_level": result.stabilization_level,
            }
    else:
        raise CertifyError(f"unknown mode {job.mode!r}")
    _, _, result, tried = _sweep_primes(job, check_index, attempt)
    if result is None:
        primes = ", ".join(str(t["prime"]) for t in tried)
        statuses = "; ".join(f"{t['prime']}: {t['status']}" for t in tried)
        raise CertifyError(f"no result at any prime tried ({primes}): "
                           f"{statuses}")
    return {job.mode: result}


def _matches(expected, got) -> bool:
    """Subset match: every expected key/value appears in the result."""
    if isinstance(expected, dict):
        if not isinstance(got, dict):
            return False
        return all(k in got and _matches(v, got[k]) for k, v in expected.items())
    return expected == got


def run_corpus(path: str, out_path: str | None = None) -> dict:
    """Execute all corpus jobs; report matches; exit code via 'all_pass'."""
    with open(path, "r", encoding="utf-8") as fh:
        corpus = json.load(fh)
    results = []
    all_pass = True
    for entry in corpus.get("jobs", []):
        name = entry.get("name", f"job{len(results)}")
        record = {"name": name}
        try:
            job = parse_job(entry["input"], entry.get("mode"))
            job.name = name
            got = run_job(job)
            expected = entry.get("expect", {})
            ok = _matches(expected, got)
            record.update({"expected": expected, "got": got, "pass": ok})
        except Exception as exc:  # report, do not crash the runner
            record.update({"error": f"{type(exc).__name__}: {exc}",
                           "pass": False})
        if not record["pass"]:
            all_pass = False
        results.append(record)
    report = {
        "corpus": path,
        "tool_version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "results": results,
        "all_pass": all_pass,
    }
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report
