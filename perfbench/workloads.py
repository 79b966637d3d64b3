"""Workload definitions for the fsing benchmark.

A workload is a list of jobs.  A job is one top-level library call
(``run_job``, ``certify_klt``, ``skoda_check``, ...) on inputs built before
the timed region, plus the known answer it must reproduce.  Every job gets
fresh input objects, so Groebner bases cached on one job's ideals never
serve another job and the work done does not depend on the job order.

The seed only shuffles the job order and relabels the variables
(``x`` -> ``x_4821``).  Neither changes any answer: polynomial arithmetic
works on exponent vectors, and answers are compared after the original
names are put back.

Library functions are looked up through their module at call time
(``mods.testideals.skoda_check``), so a tracer that patches the module
attributes sees every job call.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

# mixed-batch runs the tau-relative jobs and the certify-batch jobs in one
# shuffled batch: on a shared machine whose speed drifts over minutes, one
# ~40 s run of both is much steadier than a ~20 s run of each, at the same
# total benchmark time.  Job labels keep the two groups' names.
WORKLOAD_NAMES = ("klt-det", "mixed-batch")

# Layers each workload must reach; a traced run fails if one records no call.
ACTIVE_LAYERS = {
    "klt-det": ("polycore", "groebner", "frobenius", "fcriteria",
                "arithmodels", "certify", "verify"),
    "mixed-batch": ("polycore", "groebner", "frobenius", "fcriteria",
                    "testideals", "arithmodels", "certify", "verify"),
}

# Explicit per-job caps.  A job that exceeds its reduction budget or wall
# cap counts as failed instead of stalling the run.
KLT_DET_BUDGET = 1_000_000        # certify_klt uses ~273k steps at the seed
JOB_BUDGET = 200_000              # every other job: seed maximum is far below
KLT_DET_CAP_S = 120.0
VERIFY_CAP_S = 30.0
JOB_CAP_S = 45.0

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Names:
    """Seeded variable relabeling and its inverse.

    Job inputs hold only variable identifiers, numbers and operators, so
    every identifier in an input string is a variable name.
    """

    def __init__(self, rng):
        self.rng = rng
        self.fwd: dict = {}
        self.back: dict = {}

    def new(self, name: str) -> str:
        if name not in self.fwd:
            label = f"{name}_{self.rng.randrange(1, 10 ** 6)}"
            self.fwd[name] = label
            self.back[label] = name
        return self.fwd[name]

    def text(self, text: str) -> str:
        return _IDENT.sub(lambda m: self.new(m.group(0)), text)

    def unlabel(self, obj):
        """Map relabeled identifiers back in every string of a JSON value."""
        if isinstance(obj, str):
            return _IDENT.sub(lambda m: self.back.get(m.group(0), m.group(0)),
                              obj)
        if isinstance(obj, list):
            return [self.unlabel(x) for x in obj]
        if isinstance(obj, dict):
            return {k: self.unlabel(v) for k, v in obj.items()}
        return obj

    def relabel_input(self, data: dict) -> dict:
        """A job input dict with every variable renamed."""
        out = dict(data)
        for key in ("variables", "base_variables", "relations", "a"):
            if key in data:
                out[key] = [self.text(s) for s in data[key]]
        if "delta" in data:
            out["delta"] = [{"g": self.text(d["g"]), "c": d["c"]}
                            for d in data["delta"]]
        for key in ("test_element", "h"):
            if key in data:
                out[key] = self.text(data[key])
        return out

    def gens(self, ideal, var_names) -> list:
        """Generators of an ideal as strings in the original names."""
        return [self.unlabel(g.to_string(var_names)) for g in ideal.gens]


@dataclass
class Job:
    label: str
    call: Callable            # ctx dict -> raw result
    summarize: Callable       # raw result -> answer summary (canonical names)
    cap_s: float = JOB_CAP_S
    certificates: Callable = field(default=lambda raw: [])
    extra_check: Callable | None = None   # raw -> error string or None


def load_modules():
    """The fsing package, with every module a workload calls imported."""
    import importlib

    for name in ("arithmodels", "certify", "fcriteria", "frobenius",
                 "groebner", "polycore", "testideals", "triples", "verify"):
        importlib.import_module(f"fsing.{name}")
    return sys.modules["fsing"]


# ---------------------------------------------------------------------------
# Answer summaries.


def cert_summary(cert: dict) -> dict:
    return {"verdict": cert["conclusion"], "prime": cert["prime"],
            "e": cert["exponent_witness"]}


def run_job_summary(names: Names, raw: dict) -> dict:
    raw = names.unlabel(raw)
    if "certificate" in raw:
        out = cert_summary(raw["certificate"])
        if "theorem_violation_candidate" in raw:
            out["violation"] = raw["theorem_violation_candidate"]
        return out
    if "fpt" in raw:
        return {"p": raw["fpt"]["p"],
                "nu": [v["nu"] for v in raw["fpt"]["values"]]}
    tau = raw["tau"]
    return {"p": tau["p"], "gens": tau["generators"],
            "stab": tau["stabilization_level"]}


def run_job_certs(raw) -> list:
    cert = raw.get("certificate") if isinstance(raw, dict) else None
    return [cert] if cert and cert["status"] == "certified" else []


def subset_match(expected, got) -> bool:
    if isinstance(expected, dict):
        return isinstance(got, dict) and all(
            k in got and subset_match(v, got[k]) for k, v in expected.items())
    return expected == got


# ---------------------------------------------------------------------------
# klt-det: one klt certification of a determinantal ring and its re-check.

DET5 = {
    "variables": ["A", "B", "C", "D", "E"],
    "coefficient": "Q",
    "relations": [
        "(A^2 + 81*E^4)*A^2 - B*C",
        "(A^2 + 81*E^4)*(B^4 - D) - D*C",
        "B*(B^4 - D) - D*A^2",
    ],
    "test_element": "B",
    "prime": 3,
    "e_max": 3,
    "assert_q_gorenstein": True,
    "gb_budget": KLT_DET_BUDGET,
}


def klt_det(mods, names: Names, tiny: bool = False):
    data = dict(DET5, e_max=1) if tiny else DET5
    spec = mods.certify.parse_job(names.relabel_input(data), "klt")

    def certify(ctx):
        cert = mods.certify.certify_klt(spec).to_dict()
        ctx["cert"] = cert
        return cert

    def verify(ctx):
        return mods.verify.verify_witness_data(ctx["cert"]["verification"])

    label = "klt-det/certify_klt" + ("/e_max=1" if tiny else "")
    jobs = [Job(label, certify,
                lambda raw: cert_summary(names.unlabel(raw)),
                cap_s=KLT_DET_CAP_S)]
    if not tiny:
        jobs.append(Job("klt-det/verify_witness_data", verify,
                        lambda raw: {"pass": raw}, cap_s=VERIFY_CAP_S))
    return jobs


# ---------------------------------------------------------------------------
# tau-relative jobs (half of mixed-batch): relative test ideals over F_p[t],
# Skoda checks, pair test ideals.


# The relative fixtures of the acceptance suite: (name, stabilizes).
# growth-skoda/F3 never stabilizes over the whole base.
FIXTURES = [
    ("div(tx)/F3", True), ("growth/F3", True), ("growth-skoda/F3", False),
    ("half-divisor/F3", True), ("div(tx)/F5", True),
    ("half-divisor/F5", True), ("shifted-divisor/F5", True),
]


def relative_fixture(mods, names: Names, name: str):
    """A freshly built RelativeSetup for one named fixture over F_p[t]."""
    T, tr = mods.testideals, mods.triples
    F = Fraction
    p = int(name.rsplit("/F", 1)[1])
    R = tr.polynomial_ring([names.new("t"), names.new("x")],
                           mods.polycore.prime_field(p), base_vars=[0])
    t, x = R.variable(0), R.variable(1)
    if name.startswith("div(tx)/"):
        return T.relative_pair_setup(R, tr.divisor([(t * x, F(1))]),
                                     R.ideal([x]), F(1))
    if name.startswith("half-divisor/"):
        return T.relative_pair_setup(R, tr.divisor([(x ** 2 + t, F(1, 2))]),
                                     R.ideal([x]), F(1))
    if name == "shifted-divisor/F5":
        shifted = x + R.constant(2)
        return T.relative_pair_setup(R, tr.divisor([(t * shifted, F(1))]),
                                     R.ideal([shifted]), F(1))
    phi = T.PLinearMap(mods.frobenius.FrobeniusPower(3, 1), (t * x) ** 2)
    if name == "growth/F3":
        return T.RelativeSetup(R, phi, R.ideal([x ** 2]),
                               R.ideal([R.constant(1)]), F(1))
    if name == "growth-skoda/F3":
        return T.RelativeSetup(R, phi, R.ideal([x ** 2]),
                               R.ideal([x, t + x]), F(2))
    raise KeyError(name)


# (variables, p, [(divisor component, coefficient)]) for tau_pair_divisor
PAIRS = [
    (["x", "y"], 7, [("x^2 + y^3", "5/6")]),
    (["x", "y"], 7, [("x^2 + y^3", "1/2")]),
    (["x", "y"], 5, [("x^2 + y^3", "1/2")]),
    (["x", "y", "z"], 7, [("x^3 + y^3 + z^3", "2/3")]),
    (["x", "y", "z"], 7, [("x^3 + y^3 + z^3", "1/2")]),
    (["x", "y"], 3, [("x", "1/2"), ("y", "1")]),
    (["x", "y"], 5, [("x*y*(x + y)", "2/3")]),
]

SCAN_N_MAX = 4
SKODA_N_MAX = 3
# growth-skoda/F3 is the fixture whose Buchberger inputs grow fastest with
# n.  At the seed tau_relative(n = 4) on it takes 77-87 s (247 generators)
# and skoda_check(n = 3) 7.6 s (124 generators), so both are capped to keep
# a round near 3 s; tau_relative(n = 3) still feeds 84 monomial generators
# into one Buchberger call.
TAU_REL_N_MAX = 3
SKODA_N_MAX_GROWTH = 2
PAIR_N_MAX = 3


def tau_relative_jobs(mods, names: Names, tiny: bool = False):
    T, G = mods.testideals, mods.groebner
    base_names = (names.new("t"), names.new("x"))
    jobs = []

    def budget():
        return G.Budget(JOB_BUDGET)

    def gens(raw):
        return {"gens": names.gens(raw.ideal, base_names)}

    for name, stabilizes in ([] if tiny else FIXTURES):
        if not stabilizes:
            continue
        setup = relative_fixture(mods, names, name)
        jobs.append(Job(
            f"tau-relative/stabilization_scan/{name}",
            lambda ctx, s=setup: T.stabilization_scan(s, SCAN_N_MAX, budget()),
            lambda raw: dict(gens(raw), stabilized=raw.stabilized,
                             stab=raw.stabilization_level)))
    for name, _ in FIXTURES:
        probe = relative_fixture(mods, names, name)
        if not probe.lam > probe.mu_a() - 1:
            continue
        n_max = (SKODA_N_MAX_GROWTH if name == "growth-skoda/F3"
                 else SKODA_N_MAX)
        if tiny:
            n_max = min(n_max, 2)
        for n in range(n_max + 1):
            setup = relative_fixture(mods, names, name)
            jobs.append(Job(
                f"tau-relative/skoda_check/{name}/n={n}",
                lambda ctx, s=setup, n=n: T.skoda_check(s, n, budget()),
                lambda raw: {"skoda": raw}))
    for n in ([] if tiny else range(TAU_REL_N_MAX + 1)):
        setup = relative_fixture(mods, names, "growth-skoda/F3")
        jobs.append(Job(
            f"tau-relative/tau_relative/growth-skoda/F3/n={n}",
            lambda ctx, s=setup, n=n: T.tau_relative(s, n, budget()),
            gens))
    for variables, p, comps in ([] if tiny else PAIRS):
        R = mods.triples.polynomial_ring([names.new(v) for v in variables],
                                         mods.polycore.prime_field(p))
        delta = mods.triples.divisor(
            [(R.parse(names.text(g)), Fraction(c)) for g, c in comps])
        unit = R.ideal([R.constant(1)])
        label = " + ".join(f"{c}*div({g})" for g, c in comps)
        jobs.append(Job(
            f"tau-relative/tau_pair_divisor/F{p}/{label}",
            lambda ctx, R=R, d=delta, u=unit: T.tau_pair_divisor(
                R, d, u, Fraction(1), PAIR_N_MAX, budget()),
            lambda raw, R=R: {"gens": names.gens(raw.ideal, R.var_names),
                              "stab": raw.stabilization_level}))
    return jobs


# ---------------------------------------------------------------------------
# certify-batch jobs (the other half of mixed-batch): run_job on the bundled
# corpus and on Q-defined lc / klt / fpt inputs, plus splitting-oracle
# cross-checks of small graded inputs.

_V3, _V4 = ["x", "y", "z"], ["x", "y", "z", "w"]
_V5, _V6 = ["x", "y", "z", "w", "v"], ["a", "b", "c", "d", "e", "f"]
_F3 = "x^3 + y^3 + z^3"
_F4 = "x^4 + y^4 + z^4 + w^4"
_MINORS = ["a*e - b*d", "a*f - c*d", "b*f - c*e"]
_TWO_QUADRICS = ["x*y - z*w", "x^2 + y^2 + z^2 + w^2 + v^2"]


def _q(mode, variables, relations=(), delta=(), **kw):
    data = {"variables": variables, "coefficient": "Q"}
    if relations:
        data["relations"] = list(relations)
    if delta:
        data["delta"] = [{"g": g, "c": c} for g, c in delta]
    data.update(kw)
    return mode, data


# (label, mode, input).  "sweep" means no pinned prime: certify tries the
# smallest admissible primes in turn.
BATCH = [
    ("lc/fermat-cubic/p7", *_q("lc", _V3, [_F3], prime=7, e_max=2)),
    ("lc/fermat-cubic/p5", *_q("lc", _V3, [_F3], prime=5, e_max=2)),
    ("lc/fermat-cubic/sweep", *_q("lc", _V3, [_F3], e_max=2)),
    ("lc/fermat-cubic/p13", *_q("lc", _V3, [_F3], prime=13, e_max=1)),
    ("lc/fermat-quartic/p5", *_q("lc", _V4, [_F4], prime=5, e_max=1)),
    ("lc/fermat-quartic/p13", *_q("lc", _V4, [_F4], prime=13, e_max=1)),
    ("lc/fermat-quartic/p3", *_q("lc", _V4, [_F4], prime=3, e_max=2)),
    ("lc/fermat-quartic/p7", *_q("lc", _V4, [_F4], prime=7, e_max=2)),
    ("lc/fermat-cubic/p11", *_q("lc", _V3, [_F3], prime=11, e_max=2)),
    ("lc/fermat-cubic/p5/e3", *_q("lc", _V3, [_F3], prime=5, e_max=3)),
    ("lc/fermat-cubic-divisor/sweep",
     *_q("lc", _V3, delta=[(_F3, "1")], e_max=2)),
    ("lc/fermat-quartic-divisor/p5",
     *_q("lc", _V4, delta=[(_F4, "1")], prime=5, e_max=1)),
    ("klt/quadric3/sweep",
     *_q("klt", _V3, ["x^2 + y^2 + z^2"], test_element="x", e_max=2)),
    ("klt/quadric4/p3", *_q("klt", _V4, ["x^2 + y^2 + z^2 + w^2"],
                            test_element="x", prime=3, e_max=2)),
    ("klt/quadric-cone/sweep",
     *_q("klt", _V4, ["x*y - z*w"], test_element="x", e_max=2)),
    ("klt/two-quadrics/p3", *_q("klt", _V5, _TWO_QUADRICS, test_element="x",
                                prime=3, e_max=2)),
    ("klt/two-quadrics/p5", *_q("klt", _V5, _TWO_QUADRICS, test_element="x",
                                prime=5, e_max=1)),
    ("klt/minors-2x3/p3", *_q("klt", _V6, _MINORS, test_element="a",
                              prime=3, e_max=2)),
    ("klt/minors-2x3/p5", *_q("klt", _V6, _MINORS, test_element="a",
                              prime=5, e_max=1)),
    ("klt/minors-2x3/sweep",
     *_q("klt", _V6, _MINORS, test_element="a", e_max=2)),
    ("klt/fermat-cubic/p7/e2", *_q("klt", _V3, [_F3], test_element="x",
                                   prime=7, e_max=2)),
    ("klt/fermat-quartic/p5", *_q("klt", _V4, [_F4], test_element="x",
                                  prime=5, e_max=1)),
    ("fpt/fermat-cubic/p11", *_q("fpt", _V3, delta=[(_F3, "1")], prime=11,
                                 e_max=2)),
]

# Small graded F_p inputs re-decided by the definitional splitting oracle:
# (label, input, e).  The known answer is the colon-criterion verdict of the
# matching batch job.
ORACLE = [
    ("oracle/fermat-cubic/p7", {"variables": _V3, "relations": [_F3]}, 7),
    ("oracle/fermat-cubic/p5", {"variables": _V3, "relations": [_F3]}, 5),
    ("oracle/fermat-quartic/p5", {"variables": _V4, "relations": [_F4]}, 5),
    ("oracle/fermat-quartic/p3", {"variables": _V4, "relations": [_F4]}, 3),
    ("oracle/two-quadrics/p3", {"variables": _V5,
                                "relations": _TWO_QUADRICS}, 3),
    ("oracle/cusp-pair-5/6/p7", {"variables": ["x", "y"],
                                 "delta": [{"g": "x^2 + y^3", "c": "5/6"}]},
     7),
]


def corpus_entries(root: Path):
    path = root / "src" / "fsing" / "data" / "corpus.json"
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def certify_batch(mods, names: Names, root: Path, tiny: bool = False):
    C = mods.certify
    jobs = []
    entries = [(f"corpus/{e['name']}", e["mode"], e["input"], e["expect"])
               for e in corpus_entries(root)]
    entries += [(label, mode, data, None) for label, mode, data in BATCH]
    if tiny:
        entries = [e for e in entries
                   if e[0] in ("corpus/lc_cusp_pair_5_6_p7",
                               "lc/fermat-cubic/p5",
                               "klt/two-quadrics/p3")]
    for label, mode, data, corpus_expect in entries:
        data = dict(data, gb_budget=JOB_BUDGET)
        spec = C.parse_job(names.relabel_input(data), mode)

        def extra_check(raw, corpus_expect=corpus_expect):
            if corpus_expect is None:
                return None
            if not subset_match(corpus_expect, names.unlabel(raw)):
                return "result does not match the corpus expectation"
            return None

        jobs.append(Job(
            f"certify-batch/{label}",
            lambda ctx, s=spec: C.run_job(s),
            lambda raw: run_job_summary(names, raw),
            certificates=run_job_certs, extra_check=extra_check))
    for label, data, p in ([] if tiny else ORACLE):
        spec = C.parse_input(names.relabel_input(
            dict(data, coefficient="Fp", p=p)))
        jobs.append(Job(
            f"certify-batch/{label}",
            lambda ctx, s=spec: mods.fcriteria.splitting_oracle(s, 1),
            lambda raw: {"holds": raw.holds}))
    return jobs


def build(workload: str, mods, names: Names, root: Path, tiny: bool = False):
    if workload == "klt-det":
        return klt_det(mods, names, tiny)
    if workload == "mixed-batch":
        return (tau_relative_jobs(mods, names, tiny)
                + certify_batch(mods, names, root, tiny))
    raise ValueError(f"unknown workload {workload!r}")
