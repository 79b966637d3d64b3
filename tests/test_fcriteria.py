"""Splitting criteria: nu values, purity, regularity, the graded oracle."""

import json
import random
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import mul
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from fsing import fcriteria, groebner
from fsing.fcriteria import (
    FPurityWitness,
    NonGradedError,
    WitnessFactor,
    _fedder_colon,
    _truncate,
    complete_intersection,
    find_positive_grading,
    fpt_lower_bound,
    nu_value,
    sharply_fpure,
    splitting_oracle,
    strongly_fregular,
    suggest_test_elements,
)
from fsing.frobenius import FrobeniusPower, bracket_power, decompose
from fsing.groebner import Budget, Ideal, buchberger, colon_ideal
from fsing.polycore import (Polynomial, PolyError, default_variable_names,
                            prime_field)
from fsing.triples import (
    DivisorData,
    TripleSpec,
    divisor,
    polynomial_ring,
    quotient_ring,
)

CORPUS = Path(__file__).resolve().parent.parent / "src" / "fsing" / "data" \
    / "corpus.json"


def ring(names, p, relations=()):
    dom = prime_field(p)
    R0 = polynomial_ring(list(names), dom)
    if relations:
        return quotient_ring(list(names), dom, [R0.parse(r) for r in relations])
    return R0


def pair(names, p, g_text, c):
    R = ring(names, p)
    return TripleSpec(R, divisor([(R.parse(g_text), Fraction(c))]))


CUSP = "x^2 + y^3"


class TestNuValue:
    def test_single_variable(self):
        R = ring("x", 5)
        assert nu_value(R.parse("x"), 1) == 4

    def test_cusp_p7(self):
        R = ring(["x", "y"], 7)
        assert nu_value(R.parse(CUSP), 1) == 5

    def test_cusp_p5(self):
        R = ring(["x", "y"], 5)
        assert nu_value(R.parse(CUSP), 1) == 3

    def test_unit_rejected(self):
        R = ring(["x", "y"], 5)
        with pytest.raises(PolyError):
            nu_value(R.parse("x + 1"), 1)

    def test_brute_force_agreement(self):
        # independent oracle: scan t upward with direct expansion
        R = ring(["x", "y"], 3)
        f = R.parse("x^2 + x*y + y^2")
        q = 9
        t, power = 0, R.constant(1)
        while True:
            nxt = power * f
            if all(any(e >= q for e in m) for m in nxt.terms):
                break
            power, t = nxt, t + 1
        assert nu_value(f, 2) == t

    @given(st.sampled_from([2, 3, 5]), st.sampled_from([1, 2]),
           st.integers(2, 3),
           st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * 3),
                              st.integers(1, 4)),
                    min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_matches_untruncated_powers(self, p, e, nvars, terms):
        """nu(f, e) against a scan over the full powers f^t, for f in m."""
        dom = prime_field(p)
        f = Polynomial(dom, nvars, {m[:nvars]: c for m, c in terms
                                    if any(m[:nvars])})
        q = p ** e
        t, power = 0, Polynomial.constant(dom, nvars, 1)
        while any(all(x < q for x in m) for m in power.terms):
            power, t = power * f, t + 1
        assert nu_value(f, e) == t - 1


class TestFptLowerBound:
    def test_single_variable(self):
        R = ring("x", 5)
        assert fpt_lower_bound(R.parse("x"), 1) == Fraction(4, 5)

    def test_cusp_p7_e1(self):
        R = ring(["x", "y"], 7)
        assert fpt_lower_bound(R.parse(CUSP), 1) == Fraction(5, 7)

    def test_cusp_p7_e2(self):
        # frozen from the brute-force oracle: nu(2) = 40 (so 40/49; forced by
        # nu(e+1) >= p nu(e) and the Lucas pattern of the binomials)
        R = ring(["x", "y"], 7)
        assert fpt_lower_bound(R.parse(CUSP), 2) == Fraction(40, 49)

    def test_monotone_in_e(self):
        R = ring(["x", "y"], 5)
        f = R.parse(CUSP)
        values = [fpt_lower_bound(f, e) for e in (1, 2, 3)]
        assert values == sorted(values)
        assert all(v <= 1 for v in values)


class TestSharplyFPure:
    def test_regular_ring(self):
        spec = TripleSpec(ring(["x", "y"], 5))
        for e in (1, 2, 3):
            assert sharply_fpure(spec, e).holds

    def test_fermat_cubic_p7(self):
        spec = TripleSpec(ring(["x", "y", "z"], 7, ["x^3 + y^3 + z^3"]))
        result = sharply_fpure(spec, 1)
        assert result.holds
        # witness: the (xyz)^6 coefficient of f^6 is 90 = 6 mod 7
        assert result.witness.monomial == (6, 6, 6)
        assert result.witness.product.coefficient((6, 6, 6)) == 6

    def test_cusp_p3_fails(self):
        spec = TripleSpec(ring(["x", "y"], 3, [CUSP]))
        assert sharply_fpure(spec, 1).status == "fails"

    def test_cusp_pair_5_6_p7(self):
        result = sharply_fpure(pair(["x", "y"], 7, CUSP, "5/6"), 1)
        assert result.holds
        # x^6 y^6 appears in f^5 with coefficient C(5,3) = 10 = 3 mod 7
        assert result.witness.monomial == (6, 6)
        assert result.witness.product.coefficient((6, 6)) == 3

    def test_lambda_monotonicity(self):
        # same witness certifies any smaller coefficient at the same e
        for c in (Fraction(5, 6), Fraction(1, 2), Fraction(1, 3)):
            assert sharply_fpure(pair(["x", "y"], 7, CUSP, c), 1).holds

    def test_holds_at_multiples(self):
        fixtures = [
            TripleSpec(ring(["x", "y", "z"], 7, ["x^3 + y^3 + z^3"])),
            pair(["x", "y"], 7, CUSP, "5/6"),
            TripleSpec(ring(["x", "y", "z"], 3, ["x^2 + y^2 + z^2"])),
        ]
        for spec in fixtures:
            base = next(e for e in (1, 2) if sharply_fpure(spec, e).holds)
            for multiple in (2 * base, 3 * base):
                assert sharply_fpure(spec, multiple).holds

    def test_nonprincipal_a_fails_like_the_oracle(self):
        # exhausting the products of a's generators is definitive: they
        # generate a^n, and m^[q] is an ideal
        R = ring(["x", "y"], 3)
        a = R.ideal([R.parse("x"), R.parse("y")])
        spec = TripleSpec(R, DivisorData(()), a, Fraction(3))
        for e in (1, 2):
            assert sharply_fpure(spec, e).status == "fails"
            assert splitting_oracle(spec, e).status == "fails"


class TestStronglyFRegular:
    def test_quadric_cone_p5(self):
        spec = TripleSpec(ring(["x", "y", "z"], 5, ["x^2 + y^2 + z^2"]))
        result = strongly_fregular(spec, spec.ring.parse("x"), 1)
        assert result.certified and result.e == 1
        # witness x * f^4 contains x y^4 z^4 with coefficient 6 = 1 mod 5
        assert result.witness.product.coefficient((1, 4, 4)) == 1

    def test_regular_ring_trivial(self):
        spec = TripleSpec(ring(["x", "y"], 5))
        result = strongly_fregular(spec, spec.ring.constant(1), 1)
        assert result.certified and result.e == 1

    def test_never_negative(self):
        spec = TripleSpec(ring(["x", "y"], 5, [CUSP]))  # not even F-pure
        result = strongly_fregular(spec, spec.ring.parse("x"), 2)
        assert result.status == "inconclusive"

    def test_certified_implies_sharply_fpure(self):
        fixtures = [
            (TripleSpec(ring(["x", "y", "z"], 5, ["x^2 + y^2 + z^2"])), "x"),
            (TripleSpec(ring(["x", "y", "z"], 3, ["x*z - y^2"])), "x"),
            (TripleSpec(ring(["x", "y", "z", "w"], 3, ["x*y - z*w"])), "x"),
        ]
        for spec, c in fixtures:
            result = strongly_fregular(spec, spec.ring.parse(c), 2)
            assert result.certified
            assert sharply_fpure(spec, result.e).holds


class TestSuggestTestElements:
    def test_regular(self):
        assert suggest_test_elements(ring(["x", "y"], 5)) == \
            [polynomial_ring(["x", "y"], prime_field(5)).constant(1)]

    def test_quadric_candidates_nonzero(self):
        R = ring(["x", "y", "z"], 5, ["x^2 + y^2 + z^2"])
        for c in suggest_test_elements(R):
            assert not c.is_zero()
            assert not R.relations.contains(c)


class TestGrading:
    def test_cusp_weights(self):
        R = ring(["x", "y"], 7)
        assert find_positive_grading([R.parse(CUSP)], 2) == (3, 2)

    def test_determinantal_weights(self):
        R = ring(["A", "B", "C", "D"], 3)
        polys = [R.parse("A^4 - B*C"), R.parse("A^2*B^4 - A^2*D - C*D"),
                 R.parse("B^5 - B*D - A^2*D")]
        w = find_positive_grading(polys, 4)
        assert w == (1, 2, 2, 8)
        for f in polys:
            assert f.is_homogeneous(w)

    def test_non_gradeable(self):
        R = ring(["x", "y"], 5)
        with pytest.raises(NonGradedError):
            find_positive_grading([R.parse("x^2 + x^3")], 2)


class TestSplittingOracle:
    def test_regular(self):
        assert splitting_oracle(TripleSpec(ring(["x", "y"], 5)), 1).holds

    def test_fermat_p7_holds(self):
        spec = TripleSpec(ring(["x", "y", "z"], 7, ["x^3 + y^3 + z^3"]))
        assert splitting_oracle(spec, 1).holds

    def test_cusp_p3_fails(self):
        spec = TripleSpec(ring(["x", "y"], 3, [CUSP]))
        assert splitting_oracle(spec, 1).status == "fails"

    @pytest.mark.parametrize("names,p,rels", [
        (["x", "y", "z"], 7, ["x^3 + y^3 + z^3"]),
        (["x", "y", "z", "w", "v"], 3,
         ["x*y - z*w", "x^2 + y^2 + z^2 + w^2 + v^2"]),
        # E_8, weights (15, 10, 6): its v_b reach weighted degree 24, below
        # sum(w) = 31 but far above the relation's total degree 5
        (["x", "y", "z"], 7, ["x^2 + y^3 + z^5"]),
    ])
    def test_witness_map_solves_equation(self, names, p, rels):
        """psi, rebuilt from the witness map alone, splits R at e = 1:
        psi(d) = psi(1) = 1 mod I, and psi(x^b h_j) lies in I for every b
        in [0, q)^n and every relation h_j."""
        R = ring(names, p, rels)
        result = splitting_oracle(TripleSpec(R), 1)
        assert result.holds
        I, v = R.relations, result.witness_map

        def psi(f):
            # psi(sum_r g_r^q x^r) = sum_r g_r psi(x^r); c^(1/q) = c in F_p
            return sum((g * v[r] for r, g in decompose(f, p).items()
                        if r in v), R.constant(0))

        assert I.contains(psi(R.constant(1)) - 1)
        for h in I.gens:
            for b in product(range(p), repeat=R.nvars):
                shifted = Polynomial.monomial(R.domain, R.nvars, b) * h
                assert I.contains(psi(shifted)), (h, b)

    @pytest.mark.parametrize("e", [0, -1])
    def test_exponent_below_one_rejected(self, e):
        spec = TripleSpec(ring(["x", "y", "z"], 7, ["x^3 + y^3 + z^3"]))
        with pytest.raises(ValueError, match="e must be >= 1"):
            splitting_oracle(spec, e)


def _reference_solve(equations, ncols, p):
    """Dense Gauss-Jordan elimination over F_p with the oracle's pivot rule:
    rows in order, each pivot the least column of its reduced row, free
    columns 0.  None when some row reduces to 0 = nonzero."""
    pivots = []   # (column, dense row with the constant last), fully reduced
    for row, const in equations:
        vec = [0] * ncols + [const % p]
        for c, val in row.items():
            vec[c] = val % p
        for col, prow in pivots:
            f = vec[col]
            vec = [(a - f * b) % p for a, b in zip(vec, prow)]
        lead = next((c for c in range(ncols) if vec[c]), None)
        if lead is None:
            if vec[ncols]:
                return None
            continue
        inv = pow(vec[lead], -1, p)
        vec = [a * inv % p for a in vec]
        pivots = [(col, [(a - prow[lead] * b) % p for a, b in zip(prow, vec)])
                  for col, prow in pivots]
        pivots.append((lead, vec))
    solution = [0] * ncols
    for col, prow in pivots:
        solution[col] = prow[ncols]
    return solution


def _random_system(rng, p):
    """A sparse affine system over F_p: rows that are random combinations of
    a few base rows (rank-deficient), with constants that are the same
    combination or, now and then, one changed (inconsistent)."""
    ncols = rng.randint(1, 14)
    base = []
    for _ in range(rng.randint(1, ncols)):
        cols = rng.sample(range(ncols), rng.randint(1, min(ncols, 4)))
        base.append(({c: rng.randrange(1, p) for c in cols}, rng.randrange(p)))
    equations = []
    for _ in range(rng.randint(1, 2 * len(base) + 2)):
        row, const = {}, 0
        for brow, bconst in rng.sample(base, rng.randint(1, min(3, len(base)))):
            f = rng.randrange(1, p)
            for c, val in brow.items():
                row[c] = row.get(c, 0) + f * val
            const += f * bconst
        if rng.random() < 0.08:
            const += rng.randrange(1, p)
        # unreduced entries, and zeros, as a caller may pass them
        equations.append(({c: val + p * rng.randrange(-2, 3)
                           for c, val in row.items()}, const))
    return equations, ncols


class TestSolveFp:
    """``_solve_fp`` against a dense reference with the same pivot rule."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_against_dense_reference(self, p):
        rng = random.Random(2400 + p)
        outcomes = set()
        for _ in range(300):
            equations, ncols = _random_system(rng, p)
            got = fcriteria._solve_fp(equations, ncols, p)
            expected = _reference_solve(equations, ncols, p)
            assert got == expected, equations
            if got is None:
                outcomes.add("inconsistent")
                continue
            outcomes.add("solved")
            for row, const in equations:
                assert sum(val * got[c] for c, val in row.items()) % p \
                    == const % p
        assert outcomes == {"inconsistent", "solved"}


AGREEMENT_FIXTURES = [
    # (names, p, relations, divisor components, purity expected at e=1)
    (["x", "y"], 2, [], [], True),
    (["x", "y"], 3, [], [], True),
    (["x", "y", "z"], 5, ["x^3 + y^3 + z^3"], [], False),
    (["x", "y", "z"], 7, ["x^3 + y^3 + z^3"], [], True),
    (["x", "y", "z"], 13, ["x^3 + y^3 + z^3"], [], True),
    (["x", "y"], 3, [CUSP], [], False),
    (["x", "y"], 5, [CUSP], [], False),
    # the cuspidal curve is not normal and never F-pure: fpt = 5/6 < 1
    (["x", "y"], 7, [CUSP], [], False),
    (["x", "y", "z"], 3, ["x^2 + y^2 + z^2"], [], True),
    (["x", "y", "z"], 5, ["x^2 + y^2 + z^2"], [], True),
    (["x", "y"], 7, [], [(CUSP, "5/6")], True),
    (["x", "y"], 7, [], [(CUSP, "1")], False),
    (["x", "y"], 5, [], [("x", "1/2")], True),
]


class TestOracleAgreement:
    @pytest.mark.parametrize("names,p,rels,comps,expect", AGREEMENT_FIXTURES)
    def test_agreement_e1(self, names, p, rels, comps, expect):
        R = ring(names, p, rels)
        delta = divisor([(R.parse(g), Fraction(c)) for g, c in comps])
        spec = TripleSpec(R, delta)
        fed = sharply_fpure(spec, 1)
        orc = splitting_oracle(spec, 1)
        assert fed.holds == orc.holds == expect


# ---------------------------------------------------------------------------
# Fedder's closed forms against the general colon route.


def _general_colon(names, p, relations, e):
    R = quotient_ring(names, prime_field(p), relations)
    power = FrobeniusPower(p, e)
    return colon_ideal(bracket_power(R.relations, power), R.relations).gens


def _built(pairs, q):
    """The generators of ``_fedder_colon``'s pairs, each checked against its
    truncation mod m^[q]."""
    gens = [build() for _, build in pairs]
    assert [short() for short, _ in pairs] == [_truncate(h, q) for h in gens]
    return gens


def _closed_colon(names, p, relations, e):
    R = quotient_ring(names, prime_field(p), relations)
    return _built(_fedder_colon(R, FrobeniusPower(p, e), Budget()), p ** e)


def _escapes(c, colon_gens, q):
    """Whether c * h has a term outside m^[q] for some generator h."""
    return any(max(m) < q for h in colon_gens for m in (c * h).terms)


def _monomials(nvars, degrees):
    return st.sampled_from([m for m in product(range(max(degrees) + 1),
                                               repeat=nvars)
                            if sum(m) in degrees])


def _terms(nvars, degrees, p):
    """(monomial, coefficient) pairs; no degree 0, so the polynomial
    vanishes at the origin."""
    return st.lists(st.tuples(_monomials(nvars, degrees),
                              st.integers(1, p - 1)),
                    min_size=1, max_size=4)


@st.composite
def _hypersurface(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    e = draw(st.sampled_from([1, 2]))
    nvars = draw(st.integers(2, 3))
    f = Polynomial(prime_field(p), nvars, draw(_terms(nvars, (1, 2, 3), p)))
    assume(f)
    return p, e, nvars, [f]


@st.composite
def _complete_intersection(draw):
    """Two relations; q <= 9, since the general route at q = 25 or 49 can
    take minutes on three variables."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    e = draw(st.sampled_from([1, 2]) if p <= 3 else st.just(1))
    nvars = draw(st.integers(2, 3))
    dom = prime_field(p)
    rels = [Polynomial(dom, nvars, draw(_terms(nvars, (1, 2), p)))
            for _ in range(2)]
    assume(all(rels))
    R = quotient_ring(default_variable_names(nvars), dom, rels)
    assume(len(R.relations.gens) == 2 and complete_intersection(R))
    return p, e, nvars, rels


class TestFedderClosedForms:
    """``_fedder_colon`` against the general route ``colon_ideal(I^[q], I)``:
    byte for byte for a hypersurface and for an ideal that is not a complete
    intersection, and for a complete intersection as the same ideal modulo
    I^[q], with the same escape decision."""

    @given(_hypersurface())
    @settings(max_examples=60, deadline=None)
    def test_hypersurface_matches_general_route(self, case):
        p, e, nvars, rels = case
        names = default_variable_names(nvars)
        want = [g.to_string(names) for g in _general_colon(names, p, rels, e)]
        got = [g.to_string(names) for g in _closed_colon(names, p, rels, e)]
        assert got == want

    def test_hypersurface_keeps_the_leading_coefficient(self):
        # lc(f) = 2 over F_5: the general route returns f^4 / 2, not f^4
        names = ["x", "y", "z"]
        R = ring(names, 5, ["2*x^2 + y^2 + z^2"])
        (h,) = _closed_colon(names, 5, list(R.relations.gens), 1)
        f = R.relations.gens[0]
        assert h == f ** 4 * 3
        assert h.leading_coefficient() == 3

    @given(_complete_intersection())
    @settings(max_examples=40, deadline=None)
    def test_complete_intersection_matches_general_route(self, case):
        p, e, nvars, rels = case
        names = default_variable_names(nvars)
        q = p ** e
        want = _general_colon(names, p, rels, e)
        got = _closed_colon(names, p, rels, e)
        bracket = bracket_power(Ideal.from_polys(rels), FrobeniusPower(p, e))
        assert Ideal.from_polys(list(bracket.gens) + got).equals(
            Ideal.from_polys(want))
        dom = prime_field(p)
        for c in [Polynomial.constant(dom, nvars, 1)] + [
                Polynomial.variable(dom, nvars, i) for i in range(nvars)]:
            assert _escapes(c, got, q) == _escapes(c, want, q)

    @pytest.mark.parametrize("names,p,rels,general", [
        (["a", "b", "c", "d", "e", "f"], 3,
         ["a*e - b*d", "a*f - c*d", "b*f - c*e"], True),
        # a redundant member: two generators of a height-one ideal
        (["x", "y", "z"], 3, ["x*z - y^2", "x^2*z - x*y^2"], True),
        (["x", "y", "z"], 3, ["x*z - y^2"], False),
        (["x", "y", "z", "w", "v"], 3,
         ["x*y - z*w", "x^2 + y^2 + z^2 + w^2 + v^2"], False),
    ])
    def test_only_non_complete_intersections_take_the_general_route(
            self, monkeypatch, names, p, rels, general):
        colons, bases = [], []

        def colon_spy(I, J, budget=None):
            colons.append(J)
            return colon_ideal(I, J, budget)

        def buchberger_spy(gens, *args, **kwargs):
            bases.append(gens)
            return buchberger(gens, *args, **kwargs)

        R = ring(names, p, rels)
        # the relations' own basis, which the recogniser reads, comes first
        R.relations.groebner_basis()
        monkeypatch.setattr(fcriteria, "colon_ideal", colon_spy)
        for module in (groebner, fcriteria):   # wherever it is bound
            monkeypatch.setattr(module, "buchberger", buchberger_spy,
                                raising=False)
        got = _built(_fedder_colon(R, FrobeniusPower(p, 1), Budget()), p)
        assert len(colons) == (1 if general else 0)
        assert general or not bases
        want = _general_colon(names, p, [R.parse(r) for r in rels], 1)
        if general or len(rels) == 1:
            assert [g.to_string(names) for g in got] == \
                [g.to_string(names) for g in want]
        else:
            bracket = bracket_power(R.relations, FrobeniusPower(p, 1))
            assert Ideal.from_polys(list(bracket.gens) + got).equals(
                Ideal.from_polys(want))

    def test_complete_intersection_runs_no_colon_basis(self):
        # over F_5 at e = 2 the reduced basis of I^[25] + (F) took 345,603
        # reduction steps; the closed form spends only the relations' basis
        names = ["x", "y", "z", "w", "v"]
        rels = ["x*y - z*w", "x^2 + y^2 + z^2 + w^2 + v^2"]
        budget = Budget()
        got = _built(_fedder_colon(ring(names, 5, rels), FrobeniusPower(5, 2),
                                   budget), 25)
        R = ring(names, 5, rels)
        basis = Budget()
        R.relations.groebner_basis(budget=basis)
        assert budget.used == basis.used
        f = reduce(mul, R.relations.gens)
        # over F_5, g^5 = g^[5], so F = f^24 = (f^4)^[5] * f^4
        base = f ** 4
        F = base.frobenius_power(5) * base
        assert got == [F * R.domain.inv(f.leading_coefficient())]

    def test_general_route_truncates_each_generator_once_on_demand(
            self, monkeypatch):
        truncated = []

        def truncate_spy(f, *args):
            truncated.append(f)
            return _truncate(f, *args)

        R = ring(["a", "b", "c", "d", "e", "f"], 3,
                 ["a*e - b*d", "a*f - c*d", "b*f - c*e"])
        pairs = _fedder_colon(R, FrobeniusPower(3, 1), Budget())
        assert len(pairs) > 1
        monkeypatch.setattr(fcriteria, "_truncate", truncate_spy)
        short, build = pairs[-1]
        assert short() is short()
        assert truncated == [build()]
        assert short() == _truncate(build(), 3)

    def test_recogniser(self):
        two_quadrics = ring(["x", "y", "z", "w", "v"], 3,
                            ["x*y - z*w", "x^2 + y^2 + z^2 + w^2 + v^2"])
        twisted_cubic = ring(["x", "y", "z", "w"], 3,
                             ["x*z - y^2", "x*w - y*z", "y*w - z^2"])
        assert complete_intersection(two_quadrics)
        assert not complete_intersection(twisted_cubic)


@st.composite
def _graded_relations(draw):
    """Homogeneous relations in the standard grading: one form in three
    variables, or two in four (where p = 5 makes the oracle slow)."""
    k = draw(st.integers(1, 2))
    p = draw(st.sampled_from([2, 3, 5] if k == 1 else [2, 3]))
    nvars = 2 + k
    dom = prime_field(p)
    rels = []
    for _ in range(k):
        degree = draw(st.integers(2, 3))
        rels.append(Polynomial(dom, nvars, draw(_terms(nvars, (degree,), p))))
    assume(all(rels))
    return p, nvars, rels


class TestClosedFormOracleAgreement:
    @given(_graded_relations())
    @settings(max_examples=40, deadline=None)
    def test_fpure_verdict_matches_oracle(self, case):
        p, nvars, rels = case
        R = quotient_ring(default_variable_names(nvars), prime_field(p), rels)
        spec = TripleSpec(R)
        orc = splitting_oracle(spec, 1)
        assert orc.status in ("holds", "fails")
        assert sharply_fpure(spec, 1).holds == orc.holds


# ---------------------------------------------------------------------------
# The truncated routes (decisions modulo m^[q]) against full products.


def _random_poly(rng, dom, nvars, degrees, nterms, fiber=None):
    """A polynomial with terms of the given total degrees, so vanishing at
    the origin; with ``fiber``, each term also holds a fiber variable."""
    terms = {}
    for _ in range(nterms):
        m = [0] * nvars
        for _ in range(rng.choice(degrees)):
            m[rng.randrange(nvars)] += 1
        if fiber is not None and not any(m[i] for i in fiber):
            m[rng.choice(fiber)] += 1
        terms[tuple(m)] = rng.randrange(1, dom.p)
    return Polynomial(dom, nvars, terms)


def _escaping(w, q, indices):
    return [m for m in w.terms if all(m[i] < q for i in indices)]


def _full_witness(spec, e, extra=None, indices=None):
    """The colon criterion on full products: F = f^(q-1) by repeated
    squaring, every multiplier d and every d * h multiplied out, and the
    escape read off all their terms."""
    R = spec.ring
    p = R.domain.p
    q = p ** e
    indices = range(R.nvars) if indices is None else indices
    rels = R.relations.gens
    if R.is_regular_ambient:
        colon = [R.constant(1)]
    elif len(rels) == 1 or complete_intersection(R):
        f = reduce(mul, rels)
        colon = [f ** (q - 1) * R.domain.inv(f.leading_coefficient())]
    else:
        colon = colon_ideal(bracket_power(R.relations, FrobeniusPower(p, e)),
                            R.relations).gens
    head = () if extra is None else (WitnessFactor(extra, 1, "test_element"),)
    for factors in fcriteria._multiplier_candidates(spec, q):
        factors = head + factors
        d = reduce(mul, (w.poly ** w.exponent for w in factors), R.constant(1))
        for h in colon:
            w = d * h
            if _escaping(w, q, indices):
                return FPurityWitness(e, q, factors, d, h, w,
                                      min(_escaping(w, q, indices)))
    return None


def _random_spec(rng, kind):
    """(spec, e, extra, escape_indices) for one seeded case of ``kind``."""
    if kind == "hypersurface":
        p = rng.choice([2, 3, 5, 7])
        e = 1 if p == 7 else rng.choice([1, 2])
        nvars = 2 if p ** e > 9 else rng.choice([2, 3])
        dom = prime_field(p)
        rels = [_random_poly(rng, dom, nvars, (2, 3), rng.randint(2, 4))]
    elif kind == "two-relation":
        p = rng.choice([2, 3, 5])
        e = rng.choice([1, 2]) if p <= 3 else 1
        nvars = rng.choice([3, 4])
        dom = prime_field(p)
        rels = [_random_poly(rng, dom, nvars, (2,), rng.randint(2, 3))
                for _ in range(2)]
    elif kind == "general":
        p, e = rng.choice([(2, 1), (2, 2), (3, 1)])
        nvars = 4
        dom = prime_field(p)
        # the twisted cubic: not a complete intersection
        rels = [Polynomial(dom, 4, {(1, 0, 1, 0): 1, (0, 2, 0, 0): -1}),
                Polynomial(dom, 4, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1}),
                Polynomial(dom, 4, {(0, 1, 0, 1): 1, (0, 0, 2, 0): -1})]
    else:  # "gsfr": base variable t = the last one, escapes in x, y, z only
        p = rng.choice([2, 3, 5])
        e = rng.choice([1, 2]) if p <= 3 else 1
        nvars = 4
        dom = prime_field(p)
        rels = [_random_poly(rng, dom, nvars, (2, 3), rng.randint(2, 4),
                             fiber=(0, 1, 2))]
    names = default_variable_names(nvars)
    base = (3,) if kind == "gsfr" else ()
    R = quotient_ring(names, dom, rels, base)
    indices = R.fiber_vars if kind == "gsfr" else None
    components = []
    if rng.random() < 0.5:
        g = _random_poly(rng, dom, nvars, (1, 2), rng.randint(1, 2))
        components.append((g, rng.choice([Fraction(1, 3), Fraction(1, 2),
                                          Fraction(5, 6), Fraction(1)])))
    a, lam = None, Fraction(1)
    if kind == "hypersurface" and rng.random() < 0.3:
        a = R.ideal([R.variable(0), R.variable(1)])
        lam = rng.choice([Fraction(1, 3), Fraction(1, 2)])
    extra = R.variable(rng.randrange(nvars - len(base))) \
        if kind == "gsfr" or rng.random() < 0.5 else None
    return TripleSpec(R, divisor(components), a, lam), e, extra, indices


class TestTruncatedRoutes:
    """Every escape is decided modulo m^[q]; the verdicts, the witnesses and
    nu must be those of the full products."""

    @pytest.mark.parametrize("seed", range(48))
    def test_nu_matches_full_powers(self, seed):
        rng = random.Random(f"nu-{seed}")
        p = (2, 3, 5, 7)[seed % 4]
        e = 1 + seed // 4 % 2
        nvars = rng.choice([2, 3])
        f = _random_poly(rng, prime_field(p), nvars, (1, 2, 3),
                         rng.randint(1, 3))
        q = p ** e
        # scan up the full powers f^t, each checked termwise
        t, power = 0, Polynomial.constant(f.domain, nvars, 1)
        while _escaping(power, q, range(nvars)):
            power, t = power * f, t + 1
        assert nu_value(f, e) == t - 1

    @pytest.mark.parametrize("kind", ["hypersurface", "two-relation",
                                      "general", "gsfr"])
    def test_witness_search_matches_full_products(self, kind):
        found = 0
        for seed in range(24):
            spec, e, extra, indices = _random_spec(
                random.Random(f"{kind}-{seed}"), kind)
            want = _full_witness(spec, e, extra, indices)
            got = fcriteria._search_witness(spec, e, Budget(), extra, indices)
            assert got == want
            found += want is not None
        # the cases reach both outcomes
        assert 0 < found < 24

    @pytest.mark.parametrize("names, p, f, e_max", [
        *[(job["input"]["variables"], job["input"]["p"],
           job["input"]["delta"][0]["g"], job["input"]["e_max"])
          for job in json.loads(CORPUS.read_text(encoding="utf-8"))["jobs"]
          if job["mode"] == "fpt"],
        # the fpt input of the benchmark batch
        (["x", "y", "z"], 11, "x^3 + y^3 + z^3", 2),
    ])
    def test_nu_frobenius_bounds(self, names, p, f, e_max):
        # (f^t)^[p] = f^(pt): f^nu(e) escapes m^[q] and f^(nu(e) + 1) does
        # not, so p nu(e) <= nu(e + 1) <= p nu(e) + p - 1
        f = ring(names, p).parse(f)
        nu = [nu_value(f, e) for e in range(1, e_max + 2)]
        for low, high in zip(nu, nu[1:]):
            assert p * low <= high <= p * low + p - 1

    def test_level_that_does_not_split_builds_no_full_power(self, monkeypatch):
        # x^3 + y^3 + z^3 over F_11 (supersingular): at e = 2 the level is
        # decided on (f^10 mod m^[11])^[11] = 0, while the full
        # F = f^120 = (f^10)^[11] * f^10 has 4,356 terms
        sizes = []
        product = Polynomial.__mul__

        def spy(self, other):
            result = product(self, other)
            sizes.append(len(result.terms))
            return result

        R = ring("xyz", 11, ["x^3 + y^3 + z^3"])
        monkeypatch.setattr(Polynomial, "__mul__", spy)
        assert sharply_fpure(TripleSpec(R), 2).status == "fails"
        assert sizes and max(sizes) <= 66  # the terms of f^10
