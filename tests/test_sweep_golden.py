"""Golden data of the prime sweep and of the Frobenius-sum test ideals.

``tests/data/sweep_golden.json`` pins, for fixed inputs,

  * the ``run_job`` record of F_p-native ``sfr`` jobs, one certified and
    one inconclusive (certificate timestamps removed);
  * the ``run_job`` record of ``fpt`` and ``tau`` jobs on F_p and on Q
    input, with a pinned prime and with the prime sweep;
  * the test ideals tau(X, Delta, J^{1 - eps}) of the sharply F-pure pair
    fixtures (the ideals ``TestSharpFPurityLink`` checks);
  * the ``sum_decomposition_check`` reports of ``TestSumDecomposition``.

A change that only restructures how a job picks its prime or how the
Frobenius-sum summands are built must leave all of it byte-equal.
Regenerate, only for a change meant to alter it, with

    PYTHONPATH=src python tests/test_sweep_golden.py > tests/data/sweep_golden.json
"""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest

from fsing.certify import parse_job, run_job
from fsing.polycore import prime_field
from fsing.testideals import (
    PLinearMap,
    _level_sum,
    pair_multiplier,
    sum_decomposition_check,
)
from fsing.triples import TRIVIAL_DIVISOR, divisor, polynomial_ring

GOLDEN = Path(__file__).resolve().parent / "data" / "sweep_golden.json"

CUSP = {"variables": ["x", "y"], "delta": [{"g": "x^2 + y^3", "c": "5/6"}]}

# (name, mode, input)
JOBS = [
    ("sfr/Fp/quadric3/certified", "sfr", {
        "variables": ["x", "y", "z"], "coefficient": "Fp", "p": 5,
        "relations": ["x^2 + y^2 + z^2"], "test_element": "x", "e_max": 1}),
    ("sfr/Fp/cusp/inconclusive", "sfr", {
        "variables": ["x", "y"], "coefficient": "Fp", "p": 7,
        "relations": ["x^2 + y^3"], "test_element": "x", "e_max": 2}),
    ("fpt/Fp/cusp", "fpt", dict(CUSP, coefficient="Fp", p=7, e_max=2)),
    ("fpt/Q/cusp/pinned", "fpt", dict(CUSP, coefficient="Q", prime=7,
                                      e_max=2)),
    ("fpt/Q/cusp/sweep", "fpt", dict(CUSP, coefficient="Q", e_max=2)),
    ("tau/Fp/cusp", "tau", dict(CUSP, coefficient="Fp", p=7, n_max=3)),
    ("tau/Q/cusp/pinned", "tau", dict(CUSP, coefficient="Q", prime=7,
                                      n_max=3)),
    ("tau/Q/cusp/sweep", "tau", dict(CUSP, coefficient="Q", n_max=3)),
]

# (ring variables, p, divisor component, coefficient) of the sharply F-pure
# pairs, and the exponents 1 - eps of their test-element ideals J = (g)
SHARP_PAIRS = [
    (["x", "y"], 7, "x^2 + y^3", Fraction(5, 6)),
    (["x"], 5, "x", Fraction(1, 2)),
    (["x"], 5, "x", Fraction(1)),
]
EPSILONS = [Fraction(1), Fraction(1, 2), Fraction(1, 6)]


def job_record(mode, data) -> dict:
    out = run_job(parse_job(data, mode))
    out.get("certificate", {}).pop("timestamp", None)
    return out


def sharp_pair_tau(variables, p, g_text, c, eps):
    R = polynomial_ring(variables, prime_field(p))
    g = R.parse(g_text)
    power, u, I = pair_multiplier(R, divisor([(g, c)]))
    return _level_sum(PLinearMap(power, u), I, [(R.ideal([g]), 1 - eps)], 3)


def sharp_pair_record() -> dict:
    out = {}
    for variables, p, g_text, c in SHARP_PAIRS:
        for eps in EPSILONS:
            tau = sharp_pair_tau(variables, p, g_text, c, eps)
            out[f"F{p}/{c}*div({g_text})/eps={eps}"] = [
                g.to_string(variables) for g in tau.gens]
    return out


def sum_decomposition_record() -> dict:
    R = polynomial_ring(["x", "y"], prime_field(5))
    cases = {
        "principal": ([R.ideal([R.parse("x^2 + y^3")])], [Fraction(1, 2)], 6),
        "unit": ([R.ideal([R.constant(1)])], [Fraction(2)], 3),
        "maximal": ([R.ideal([R.variable(0), R.variable(1)])],
                    [Fraction(3, 2)], 10),
    }
    return {name: dataclasses.asdict(sum_decomposition_check(
                R, TRIVIAL_DIVISOR, a_list, lambdas, sample_budget=budget))
            for name, (a_list, lambdas, budget) in cases.items()}


SECTIONS = {
    **{f"run_job/{name}": (lambda mode=mode, data=data: job_record(mode, data))
       for name, mode, data in JOBS},
    "sharp_fpurity_link_tau": sharp_pair_record,
    "sum_decomposition_reports": sum_decomposition_record,
}


def dump(record) -> str:
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_has_exactly_the_sections():
    assert sorted(golden()) == sorted(SECTIONS)


@pytest.mark.parametrize("name", list(SECTIONS))
def test_section_matches_golden(name):
    assert dump(SECTIONS[name]()) == dump(golden()[name])


if __name__ == "__main__":
    print(dump({name: build() for name, build in SECTIONS.items()}), end="")
