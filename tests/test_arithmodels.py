"""Spreading out, reduction mod p, and perfected-base SFR checks."""

from fractions import Fraction

import pytest

from fsing.arithmodels import (
    ReductionError,
    geometric_sfr_check,
    perfection_model,
    reduce_mod_p,
    spread_out,
    suggest_primes,
)
from fsing.polycore import RATIONALS, parse_polynomial, prime_field
from fsing.triples import TripleSpec, divisor, polynomial_ring, quotient_ring


def q_spec(relations=(), delta=(), names=("x", "y")):
    names = list(names)
    R0 = polynomial_ring(names, RATIONALS)
    rel = [R0.parse(r) for r in relations]
    ring = quotient_ring(names, RATIONALS, rel) if rel else R0
    comps = [(R0.parse(g), Fraction(c)) for g, c in delta]
    return TripleSpec(ring, divisor(comps))


class TestSpreadOut:
    def test_half_denominator(self):
        model = spread_out(q_spec(["x^2 + (1/2)*y^3"]))
        assert model.excluded_primes == frozenset({2})
        R0 = polynomial_ring(["x", "y"], RATIONALS)
        assert model.integral_relations[0] == R0.parse("2*x^2 + y^3")

    def test_integer_input_excludes_nothing(self):
        model = spread_out(q_spec(["x^3 - y^2"]))
        assert model.excluded_primes == frozenset()

    def test_mixed_denominators(self):
        model = spread_out(q_spec(["1/3*x + 1/5*y"]))
        assert model.excluded_primes == frozenset({3, 5})
        R0 = polynomial_ring(["x", "y"], RATIONALS)
        assert model.integral_relations[0] == R0.parse("5*x + 3*y")


class TestReduceModP:
    def test_coefficientwise(self):
        model = spread_out(q_spec(["x^2 + (1/2)*y^3"]))
        spec5 = reduce_mod_p(model, 5)
        assert spec5.ring.domain.p == 5
        assert spec5.ring.relations.gens[0] == spec5.ring.parse("2*x^2 + y^3")

    def test_excluded_prime_rejected(self):
        model = spread_out(q_spec(["x^2 + (1/2)*y^3"]))
        with pytest.raises(ReductionError):
            reduce_mod_p(model, 2)

    def test_vanishing_generator_rejected(self):
        model = spread_out(q_spec(["3*x^2 + 3*y^3"]))
        with pytest.raises(ReductionError):
            reduce_mod_p(model, 3)

    def test_determinantal_mod_3_matches_direct_fixture(self):
        # the 5-variable integral model reduces mod 3 to the 4-variable
        # determinantal fixture ring tensored with a free variable
        names = ["A", "B", "C", "D", "E"]
        R0 = polynomial_ring(names, RATIONALS)
        rels = [
            "(A^2 + 81*E^4)*A^2 - B*C",
            "(A^2 + 81*E^4)*(B^4 - D) - D*C",
            "B*(B^4 - D) - D*A^2",
        ]
        spec = TripleSpec(quotient_ring(names, RATIONALS,
                                        [R0.parse(r) for r in rels]))
        model = spread_out(spec)
        spec3 = reduce_mod_p(model, 3)
        dom3 = prime_field(3)
        expected = [
            parse_polynomial("A^4 - B*C", names, dom3),
            parse_polynomial("A^2*B^4 - A^2*D - C*D", names, dom3),
            parse_polynomial("B^5 - B*D - A^2*D", names, dom3),
        ]
        assert spec3.ring.relations.equals(
            spec3.ring.ideal(expected))

    def test_roundtrip_on_integral_input(self):
        model = spread_out(q_spec(["x^3 - 7*y^2"]))
        spec5 = reduce_mod_p(model, 5)
        dom5 = prime_field(5)
        assert spec5.ring.relations.gens[0] == \
            parse_polynomial("x^3 - 7*y^2", ["x", "y"], dom5)

    def test_suggest_primes_skips_excluded(self):
        model = spread_out(q_spec(["x^2 + (1/6)*y^3"]))
        assert suggest_primes(model) == [5, 7, 11, 13, 17]


def fp_base_spec(p, relations, names, base):
    dom = prime_field(p)
    R0 = polynomial_ring(list(names), dom, base_vars=base)
    rel = [R0.parse(r) for r in relations]
    ring = quotient_ring(list(names), dom, rel, base) if rel else R0
    return TripleSpec(ring)


class TestGeometricSFR:
    def test_regular_fiber_any_level(self):
        spec = fp_base_spec(5, [], ["t", "x", "y"], [0])
        for level in (0, 1, 2):
            _, res = geometric_sfr_check(spec, level, spec.ring.constant(1), 1)
            assert res.certified

    def test_quadric_cone_over_function_field(self):
        spec = fp_base_spec(5, ["x^2 + y^2 + z^2"], ["t", "x", "y", "z"], [0])
        model, res = geometric_sfr_check(spec, 0, spec.ring.parse("x"), 1)
        assert model is spec and res.certified and res.e == 1

    def test_perfection_model_substitutes(self):
        spec = fp_base_spec(3, ["x^2 + t*y^2 + z^2"], ["t", "x", "y", "z"], [0])
        model = perfection_model(spec, 1)
        assert model.ring.relations.gens[0] == \
            model.ring.parse("x^2 + t^3*y^2 + z^2")

    def test_perfection_model_level_zero_is_the_spec(self):
        spec = fp_base_spec(3, ["x^2 - t^3"], ["t", "x"], [0])
        assert perfection_model(spec, 0) is spec

    def test_perfection_model_levels_compose(self):
        dom = prime_field(3)
        R0 = polynomial_ring(["t", "x", "y"], dom, base_vars=[0])
        ring = quotient_ring(["t", "x", "y"], dom, [R0.parse("x^2 - t^3*y")],
                             [0])
        spec = TripleSpec(ring, divisor([(R0.parse("x + t*y"), "1/2")]),
                          R0.ideal([R0.parse("t^2*x"), R0.parse("y")]))
        twice = perfection_model(perfection_model(spec, 1), 1)
        once = perfection_model(spec, 2)
        assert twice.ring.relations.gens == once.ring.relations.gens
        assert twice.ring.relations.gens[0] == R0.parse("x^2 - t^27*y")
        assert twice.delta == once.delta == divisor(
            [(R0.parse("x + t^9*y"), "1/2")])
        assert twice.a.gens == once.a.gens
        assert once.a.equals(R0.ideal([R0.parse("t^18*x"), R0.parse("y")]))

    def test_perfection_model_negative_level_refused(self):
        spec = fp_base_spec(3, ["x^2 - t^3"], ["t", "x"], [0])
        with pytest.raises(ReductionError, match="perfection level"):
            perfection_model(spec, -1)

    def test_certification_monotone_in_level(self):
        # certifications persist at every computed higher level
        fixtures = [
            fp_base_spec(5, ["x^2 + y^2 + z^2"], ["t", "x", "y", "z"], [0]),
            fp_base_spec(3, ["x^2 + t*y^2 + z^2"], ["t", "x", "y", "z"], [0]),
        ]
        for spec in fixtures:
            results = [geometric_sfr_check(spec, n, spec.ring.parse("x"),
                                           1)[1].certified
                       for n in (0, 1, 2)]
            first = results.index(True) if True in results else None
            assert first is not None
            assert all(results[first:])

    def test_level_zero_needs_base_vars(self):
        spec = TripleSpec(quotient_ring(
            ["x", "y"], prime_field(5),
            [parse_polynomial("x^2 - y^3", ["x", "y"], prime_field(5))]))
        with pytest.raises(ReductionError):
            geometric_sfr_check(spec, 1, spec.ring.parse("x"), 1)

    @pytest.mark.parametrize("relation", ["x^2 - t", "x^2 + t*x - t^2"])
    def test_relation_off_the_fiber_refused(self, relation):
        # t is a unit of F_5(t), so the relation does not vanish at the
        # point of the fiber and a certificate there would be vacuous
        spec = fp_base_spec(5, [relation], ["t", "x"], [0])
        with pytest.raises(ReductionError, match="off the fiber"):
            geometric_sfr_check(spec, 0, spec.ring.parse("x"), 1)
