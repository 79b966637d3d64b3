"""Splitting criteria: nu values, purity, regularity, the graded oracle."""

from fractions import Fraction
from functools import reduce
from itertools import product
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

from fsing import fcriteria, groebner
from fsing.fcriteria import (
    NonGradedError,
    _fedder_colon,
    complete_intersection,
    find_positive_grading,
    fpt_lower_bound,
    nu_value,
    sharply_fpure,
    splitting_oracle,
    strongly_fregular,
    suggest_test_elements,
)
from fsing.frobenius import FrobeniusPower, bracket_power
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

    def test_nonprincipal_a_gets_hedged_status(self):
        R = ring(["x", "y"], 3)
        a = R.ideal([R.parse("x"), R.parse("y")])
        spec = TripleSpec(R, DivisorData(()), a, Fraction(3))
        result = sharply_fpure(spec, 1)
        assert result.status in ("holds", "no_witness_among_generators")


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

    def test_witness_map_solves_equation(self):
        spec = TripleSpec(ring(["x", "y", "z"], 7, ["x^3 + y^3 + z^3"]))
        result = splitting_oracle(spec, 1)
        assert result.witness_map  # a nonzero graded splitting was returned

    def test_bound_too_small(self):
        spec = TripleSpec(ring(["x", "y", "z"], 7, ["x^3 + y^3 + z^3"]))
        assert splitting_oracle(spec, 1, degree_bound=-1).status == \
            "bound_too_small"


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


def _closed_colon(names, p, relations, e):
    R = quotient_ring(names, prime_field(p), relations)
    return _fedder_colon(R, FrobeniusPower(p, e), Budget())


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
        got = _fedder_colon(R, FrobeniusPower(p, 1), Budget())
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
        got = _fedder_colon(ring(names, 5, rels), FrobeniusPower(5, 2), budget)
        R = ring(names, 5, rels)
        basis = Budget()
        R.relations.groebner_basis(budget=basis)
        assert budget.used == basis.used
        f = reduce(mul, R.relations.gens)
        # over F_5, g^5 = g^[5], so F = f^24 = (f^4)^[5] * f^4
        base = f ** 4
        F = base.frobenius_power(5) * base
        assert got == [F * R.domain.inv(f.leading_coefficient())]

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
