"""Test ideal sums: absolute, pair-divisor, relative, and their identities."""

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from fsing.frobenius import FrobeniusPower, embed_ideal_to_level, frobenius_root
from fsing.groebner import Ideal, ideal_power, ideal_product
from fsing.polycore import Polynomial, ceil_frac, prime_field
from fsing.testideals import TestIdealError as TauError
from fsing.testideals import (
    PLinearMap,
    _level_sum,
    _partial_sums,
    _summands,
    RelativeSetup,
    base_change_check,
    fiber_compare,
    relative_pair_setup,
    skoda_check,
    stabilization_scan,
    sum_decomposition_check,
    tau_absolute,
    tau_pair_divisor,
    tau_relative,
)
from fsing.triples import TRIVIAL_DIVISOR, TripleSpec, divisor, polynomial_ring


def line(p):
    return polynomial_ring(["x"], prime_field(p))


def plane(p):
    return polynomial_ring(["x", "y"], prime_field(p))


def unit_ideal(R):
    return Ideal(R.domain, R.nvars, [R.constant(1)])


class TestTauAbsolute:
    def test_monomial_pair_klt(self):
        R = line(5)
        gamma = PLinearMap(FrobeniusPower(5, 1), R.constant(1))
        res = tau_absolute(gamma, unit_ideal(R), R.ideal([R.variable(0)]),
                           Fraction(1, 2), 4)
        assert res.ideal.is_unit()
        assert res.stabilized

    def test_monomial_pair_boundary(self):
        R = line(5)
        gamma = PLinearMap(FrobeniusPower(5, 1), R.constant(1))
        res = tau_absolute(gamma, unit_ideal(R), R.ideal([R.variable(0)]),
                           Fraction(1), 4)
        assert res.ideal.equals(R.ideal([R.variable(0)]))

    def test_trivial_triple(self):
        R = line(5)
        gamma = PLinearMap(FrobeniusPower(5, 1), R.constant(1))
        res = tau_absolute(gamma, unit_ideal(R), unit_ideal(R), Fraction(7, 2), 3)
        assert res.ideal.is_unit()

    def test_ascending_partial_sums(self):
        R = plane(7)
        cusp = R.parse("x^2 + y^3")
        gamma = PLinearMap(FrobeniusPower(7, 1), cusp ** 5)
        seed = R.ideal([cusp])
        previous = None
        for n in range(0, 4):
            res = tau_absolute(gamma, seed, unit_ideal(R), Fraction(1), n)
            if previous is not None:
                for g in previous.gens:
                    assert res.ideal.contains(g)
            previous = res.ideal

    def test_stabilization_reverified(self):
        R = line(3)
        gamma = PLinearMap(FrobeniusPower(3, 1), R.variable(0) ** 2)
        res = tau_absolute(gamma, R.ideal([R.variable(0)]), unit_ideal(R),
                           Fraction(1), 4)
        assert res.stabilized
        assert res.stabilization_level is not None

    def test_negative_n_max_raises(self):
        R = line(3)
        gamma = PLinearMap(FrobeniusPower(3, 1), R.constant(1))
        for n_max in (-1, -3):
            with pytest.raises(TauError, match="n_max"):
                tau_absolute(gamma, unit_ideal(R), unit_ideal(R), 1, n_max)

    def test_failed_recheck_resets_level(self):
        # S_1 adds nothing, so level 1 is recorded; S_2 then grows the sum,
        # so the re-check past n_max fails and no level may be reported
        R = line(2)
        gamma = PLinearMap(FrobeniusPower(2, 1), R.parse("x^2 + 1"))
        res = tau_absolute(gamma, unit_ideal(R), R.ideal([R.parse("x^2")]),
                           Fraction(2, 3), 1)
        assert not res.stabilized
        assert res.stabilization_level is None


class TestTauPairDivisor:
    def test_half_divisor_is_klt(self):
        R = line(5)
        res = tau_pair_divisor(R, divisor([(R.variable(0), Fraction(1, 2))]),
                               unit_ideal(R), 1, 4)
        assert res.ideal.is_unit()

    def test_full_divisor(self):
        R = line(5)
        res = tau_pair_divisor(R, divisor([(R.variable(0), Fraction(1))]),
                               unit_ideal(R), 1, 4)
        assert res.ideal.equals(R.ideal([R.variable(0)]))

    def test_double_divisor_skoda_twist(self):
        R = line(5)
        res = tau_pair_divisor(R, divisor([(R.variable(0), Fraction(2))]),
                               unit_ideal(R), 1, 4)
        assert res.ideal.equals(R.ideal([R.variable(0) ** 2]))

    def test_maximal_ideal_squared(self):
        R = plane(7)
        m = R.ideal([R.variable(0), R.variable(1)])
        res = tau_pair_divisor(R, TRIVIAL_DIVISOR, m, 2, 2)
        assert res.ideal.equals(m)
        # brute-force cross-check at e <= 2: the summands at i = 0, 1, 2
        # computed directly from the definition agree with the partial sum
        from fsing.frobenius import frobenius_root
        from fsing.groebner import ideal_power

        gens = []
        for i in (0, 1, 2):
            q = 7 ** i
            J = ideal_power(m, -((-2 * q) // 1))
            gens.extend(frobenius_root(J, FrobeniusPower(7, i)).gens
                        if i else J.gens)
        oracle = Ideal(R.domain, R.nvars, gens)
        assert oracle.equals(res.ideal)

    def test_cusp_at_threshold(self):
        R = plane(7)
        res = tau_pair_divisor(R, divisor([(R.parse("x^2 + y^3"),
                                            Fraction(5, 6))]),
                               unit_ideal(R), 1, 3)
        m = R.ideal([R.variable(0), R.variable(1)])
        assert res.ideal.equals(m)

    def test_index_divisible_by_p(self):
        R = line(3)
        with pytest.raises(TauError):
            tau_pair_divisor(R, divisor([(R.variable(0), Fraction(1, 3))]),
                             unit_ideal(R), 1, 2)

    def test_pair_consistency_with_absolute(self):
        # the pair route must agree identically with tau_absolute under the
        # constructed multiplier, on every fixture
        from fsing.testideals import pair_multiplier

        fixtures = [
            (line(5), [("x", Fraction(1, 2))]),
            (line(5), [("x", Fraction(1))]),
            (plane(7), [("x^2 + y^3", Fraction(5, 6))]),
            (plane(3), [("x", Fraction(1, 2)), ("y", Fraction(1))]),
        ]
        for R, comps in fixtures:
            delta = divisor([(R.parse(g), c) for g, c in comps])
            power, u, I = pair_multiplier(R, delta)
            direct = tau_absolute(PLinearMap(power, u), I, unit_ideal(R),
                                  Fraction(1), 3)
            via_pair = tau_pair_divisor(R, delta, unit_ideal(R), 1, 3)
            assert direct.ideal.equals(via_pair.ideal)


def growth_setup():
    """u = (tx)^2, I = (x^2) over F_3[t][x]: grows at n=1, stabilizes at 2."""
    R = polynomial_ring(["t", "x"], prime_field(3), base_vars=[0])
    t, x = R.variable(0), R.variable(1)
    return R, RelativeSetup(R, PLinearMap(FrobeniusPower(3, 1), (t * x) ** 2),
                            R.ideal([x ** 2]), unit_ideal(R), Fraction(1))


def pair_setup_f3():
    R = polynomial_ring(["t", "x"], prime_field(3), base_vars=[0])
    t, x = R.variable(0), R.variable(1)
    return R, relative_pair_setup(R, divisor([(t * x, Fraction(1))]),
                                  unit_ideal(R), Fraction(1))


def pair_setup_f5():
    R = polynomial_ring(["t", "x"], prime_field(5), base_vars=[0])
    t, x = R.variable(0), R.variable(1)
    return R, relative_pair_setup(R, divisor([(t * x, Fraction(1))]),
                                  unit_ideal(R), Fraction(1))


class TestTauRelative:
    def test_trivial_setup_unit(self):
        R = polynomial_ring(["t", "x"], prime_field(3), base_vars=[0])
        setup = RelativeSetup(R, PLinearMap(FrobeniusPower(3, 1), R.constant(1)),
                              unit_ideal(R), unit_ideal(R), Fraction(1))
        for n in (0, 1, 2):
            assert tau_relative(setup, n).ideal.is_unit()

    def test_strict_growth_then_stabilization(self):
        R, setup = growth_setup()
        tau0 = tau_relative(setup, 0)
        tau1 = tau_relative(setup, 1)
        # values frozen from the by-hand fiber decomposition:
        #   tau_0 = (x^2);  tau_1 = (x^2, t^2 x) in level-1 coordinates
        assert tau0.ideal.equals(R.ideal([R.parse("x^2")]))
        assert tau1.ideal.equals(R.ideal([R.parse("x^2"), R.parse("t^2*x")]))
        lifted = embed_ideal_to_level(tau0.ideal, (0,), FrobeniusPower(3, 1), 1)
        assert not tau1.ideal.equals(lifted)

    def test_levels_ascend(self):
        R, setup = growth_setup()
        for n in (1, 2, 3):
            prev = embed_ideal_to_level(tau_relative(setup, n - 1).ideal, (0,),
                                        FrobeniusPower(3, 1), 1)
            cur = tau_relative(setup, n).ideal
            for g in prev.gens:
                assert cur.contains(g)


class TestStabilizationScan:
    def test_trivial_stabilizes_at_one(self):
        R = polynomial_ring(["t", "x"], prime_field(3), base_vars=[0])
        setup = RelativeSetup(R, PLinearMap(FrobeniusPower(3, 1), R.constant(1)),
                              unit_ideal(R), unit_ideal(R), Fraction(1))
        res = stabilization_scan(setup, 3)
        assert res.stabilized and res.stabilization_level == 1

    def test_negative_n_max_raises(self):
        _, setup = growth_setup()
        for n_max in (-1, -3):
            with pytest.raises(TauError, match="n_max"):
                stabilization_scan(setup, n_max)

    def test_growth_fixture_stabilizes_at_two(self):
        _, setup = growth_setup()
        res = stabilization_scan(setup, 4)
        assert res.stabilized and res.stabilization_level == 2
        assert res.guarantee == "proposition"

    def test_pair_fixture_stabilizes(self):
        _, setup = pair_setup_f3()
        res = stabilization_scan(setup, 3)
        assert res.stabilized and res.stabilization_level == 1

    def test_persistence_two_more_levels(self):
        # once stable, the next two computed levels stay equal
        for _, setup in (growth_setup(), pair_setup_f3(), pair_setup_f5()):
            res = stabilization_scan(setup, 4)
            assert res.stabilized
            n0 = res.stabilization_level
            power = setup.phi.power
            for extra in (1, 2):
                prev = tau_relative(setup, n0 + extra - 1).ideal
                cur = tau_relative(setup, n0 + extra).ideal
                lifted = embed_ideal_to_level(prev, setup.ring.base_vars,
                                              power, 1)
                assert cur.equals(lifted)

    def test_no_guarantee_flag(self):
        # two generators force mu(a) = 2, and lambda = 1/2 <= mu - 1
        R = polynomial_ring(["t", "x"], prime_field(3), base_vars=[0])
        t, x = R.variable(0), R.variable(1)
        setup = RelativeSetup(R, PLinearMap(FrobeniusPower(3, 1), R.constant(1)),
                              unit_ideal(R), R.ideal([x, t + x]), Fraction(1, 2))
        res = stabilization_scan(setup, 2)
        assert res.guarantee == "no guarantee"
        assert tau_relative(setup, 1).guarantee == "no guarantee"


class TestSkoda:
    def test_principal_a(self):
        R = polynomial_ring(["t", "x"], prime_field(3), base_vars=[0])
        setup = RelativeSetup(R, PLinearMap(FrobeniusPower(3, 1), R.constant(1)),
                              unit_ideal(R), R.ideal([R.variable(1)]),
                              Fraction(3, 2))
        for n in range(4):
            assert skoda_check(setup, n)

    def test_two_generators(self):
        R = polynomial_ring(["t", "x"], prime_field(3), base_vars=[0])
        t, x = R.variable(0), R.variable(1)
        setup = RelativeSetup(R, PLinearMap(FrobeniusPower(3, 1), (t * x) ** 2),
                              R.ideal([x ** 2]), R.ideal([x, t + x]),
                              Fraction(2))
        assert setup.lam > setup.mu_a() - 1
        for n in range(3):
            assert skoda_check(setup, n)

    def test_pair_fixture(self):
        _, setup = pair_setup_f5()
        bumped = RelativeSetup(setup.ring, setup.phi, setup.I,
                               setup.ring.ideal([setup.ring.variable(1)]),
                               Fraction(1), setup.pair_divisor)
        for n in range(3):
            assert skoda_check(bumped, n)


class TestBaseChange:
    def test_identity(self):
        R, setup = growth_setup()
        fresh = polynomial_ring(["t", "x"], prime_field(3), base_vars=[0])
        assert base_change_check(setup, {0: fresh.variable(0)}, fresh, 2)

    def test_specialize_base_to_point(self):
        R, setup = growth_setup()
        fiber = polynomial_ring(["x"], prime_field(3))
        assert base_change_check(setup, {0: fiber.constant(1)}, fiber, 2)

    def test_adjoin_unused_base_variable(self):
        R, setup = growth_setup()
        big = polynomial_ring(["t", "u", "x"], prime_field(3), base_vars=[0, 1])
        assert base_change_check(setup, {0: big.variable(0)}, big, 2)


class TestFiberCompare:
    def test_trivial_always_equal(self):
        R = polynomial_ring(["t", "x"], prime_field(3), base_vars=[0])
        setup = RelativeSetup(R, PLinearMap(FrobeniusPower(3, 1), R.constant(1)),
                              unit_ideal(R), unit_ideal(R), Fraction(1))
        for a in (0, 1, 2):
            assert fiber_compare(setup, 1, {0: a}).status == "equal"

    def test_pair_good_point(self):
        _, setup = pair_setup_f3()
        assert fiber_compare(setup, 1, {0: 1}).status == "equal"
        assert fiber_compare(setup, 1, {0: 2}).status == "equal"

    def test_pair_bad_fiber(self):
        _, setup = pair_setup_f3()
        assert fiber_compare(setup, 1, {0: 0}).status == "bad_fiber"

    def test_growth_fixture_fibers(self):
        _, setup = growth_setup()
        scan = stabilization_scan(setup, 4)
        for a in (1, 2):
            assert fiber_compare(setup, scan.stabilization_level, {0: a}).status \
                == "equal"


class TestSharpFPurityLink:
    """Sharply F-pure pairs admit J with J inside tau(X, Delta, a^lam J^{1-eps})."""

    @pytest.mark.parametrize("eps", [Fraction(1), Fraction(1, 2), Fraction(1, 6)])
    def test_principal_pair_fixtures(self, eps):
        from fsing.fcriteria import sharply_fpure
        from fsing.testideals import pair_multiplier
        from fsing.triples import TripleSpec, divisor

        fixtures = [
            (plane(7), "x^2 + y^3", Fraction(5, 6)),
            (line(5), "x", Fraction(1, 2)),
            (line(5), "x", Fraction(1)),
        ]
        for R, g_text, c in fixtures:
            g = R.parse(g_text)
            delta = divisor([(g, c)])
            assert sharply_fpure(TripleSpec(R, delta), 1).holds
            J = R.ideal([g])  # the chosen test-element ideal for the pair
            power, u, I = pair_multiplier(R, delta)
            tau = _level_sum(PLinearMap(power, u), I, [(J, 1 - eps)], 3)
            for gen in J.gens:
                assert tau.contains(gen), (g_text, c, eps)


class TestSumDecomposition:
    def test_principal_recovers_tau(self):
        R = plane(5)
        a = R.ideal([R.parse("x^2 + y^3")])
        report = sum_decomposition_check(R, TRIVIAL_DIVISOR, [a],
                                         [Fraction(1, 2)], sample_budget=6)
        assert report.sampled_in_tau
        assert report.tau_in_sampled

    def test_unit_ideal_trivial(self):
        R = plane(5)
        report = sum_decomposition_check(R, TRIVIAL_DIVISOR, [unit_ideal(R)],
                                         [Fraction(2)], sample_budget=3)
        assert report.sampled_in_tau

    def test_maximal_ideal_sampled(self):
        R = plane(5)
        m = R.ideal([R.variable(0), R.variable(1)])
        report = sum_decomposition_check(R, TRIVIAL_DIVISOR, [m],
                                         [Fraction(3, 2)], sample_budget=10)
        assert report.sampled_in_tau
        assert report.samples >= 3


def _literal_summands(gamma, I, pairs, fiber_indices, count):
    """S_0..S_{count-1} by the definition: one root at q^i of
    u^{(i)} * prod a_j^{ceil(q^i lam_j)} * I, u^{(i)} = (u^{(i-1)})^q u."""
    p, e, q = gamma.power.p, gamma.power.e, gamma.power.q
    u = gamma.multiplier
    ui = Polynomial.constant(u.domain, u.nvars, 1)
    out = []
    for i in range(count):
        J = I
        for a, lam in pairs:
            J = ideal_product(ideal_power(a, ceil_frac(lam * q ** i)), J)
        J = Ideal(J.domain, J.nvars, [ui * g for g in J.gens])
        if i:
            J = frobenius_root(J, FrobeniusPower(p, e * i), fiber_indices)
        out.append(J)
        ui = ui.frobenius_power(q) * u
    return out


def _small_poly(max_terms):
    return st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * 3),
                              st.integers(1, 4)),
                    min_size=1, max_size=max_terms)


class TestNestedSummands:
    @given(st.sampled_from([2, 3, 5]), st.sampled_from([1, 2]),
           st.booleans(), _small_poly(3),
           st.lists(_small_poly(3), min_size=1, max_size=2),
           st.lists(st.tuples(st.lists(_small_poly(2), min_size=1, max_size=1),
                              st.sampled_from([Fraction(1, 4), Fraction(1, 3),
                                               Fraction(1, 2), Fraction(2, 3),
                                               Fraction(1)])),
                    min_size=1, max_size=2))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_matches_single_root(self, p, e, relative, u_terms, I_terms,
                                 pair_terms):
        """Nested single-step roots give the ideals of the literal sum, for
        i <= 3 while q^i <= 125; absolute in (x, y), or relative over F_p[t]
        in (t, x, y).  Each a_j is principal, so a_j^{q^i lam_j} stays one
        generator."""
        nvars = 3 if relative else 2
        fiber = (1, 2) if relative else None
        dom = prime_field(p)

        def poly(terms):
            return Polynomial(dom, nvars, {m[:nvars]: c for m, c in terms})

        def ideal(polys):
            return Ideal(dom, nvars, [poly(t) for t in polys])

        u = poly(u_terms)
        I = ideal(I_terms)
        pairs = [(ideal(gs), lam) for gs, lam in pair_terms]
        if u.is_zero() or I.is_zero() or any(a.is_zero() for a, _ in pairs):
            return
        gamma = PLinearMap(FrobeniusPower(p, e), u)
        count = 1 + max(i for i in range(4) if gamma.power.q ** i <= 125)
        # each literal summand by its reduced basis: equal ideals have
        # equal reduced bases, and pushing any generating set of S_i
        # generates the pushed S_i
        want = [Ideal.reduced(S.gens)
                for S in _literal_summands(gamma, I, pairs, fiber, count)]
        got = list(islice(_summands(gamma, I, pairs, fiber), count))
        for i, (a, b) in enumerate(zip(got, want)):
            assert Ideal.reduced(a).gens == b.gens, i
        # the partial-sum chain: P_n is the interreduced literal sum pushed
        # to level n, and it grew exactly when S_n is not in the pushed P_{n-1}
        base = (0,) if relative else ()

        def literal_sum(n, k):
            """Generators of S_0..S_k, each S_i pushed to level n."""
            return [g for i in range(k + 1) for g in embed_ideal_to_level(
                want[i], base, gamma.power, n - i).gens]

        chain = islice(_partial_sums(gamma, I, pairs, base, fiber), count)
        for n, (partial, grew) in enumerate(chain):
            assert partial.gens == Ideal.reduced(literal_sum(n, n)).gens, n
            assert _level_sum(gamma, I, pairs, n, base, fiber).gens \
                == partial.gens, n
            pushed = Ideal(dom, nvars, literal_sum(n, n - 1))
            assert grew == (not pushed.contains_ideal(want[n])), n

    @staticmethod
    def relative_chain_data():
        """A relative chain over F_2[t] in (x, y) whose products (x*y = y*x)
        and roots (distinct generators sharing a piece) repeat generators."""
        R = polynomial_ring(["t", "x", "y"], prime_field(2), base_vars=[0])
        t, x, y = R.variable(0), R.variable(1), R.variable(2)
        gamma = PLinearMap(FrobeniusPower(2, 1), t * x + y ** 3)
        pairs = ((R.ideal([x, y]), Fraction(1, 2)),
                 (R.ideal([x + t * y]), Fraction(1, 3)))
        return gamma, R.ideal([x, y, t * x]), pairs, R.fiber_vars

    def test_summands_are_distinct_nonzero_tuples(self):
        gamma, I, pairs, fiber = self.relative_chain_data()
        R2 = plane(3)
        x, y = R2.variable(0), R2.variable(1)
        absolute = (PLinearMap(FrobeniusPower(3, 1), x * y),
                    R2.ideal([x, y]), ((R2.ideal([x, y]), Fraction(2, 3)),),
                    None)
        for args in ((gamma, I, pairs, fiber), absolute):
            for S in islice(_summands(*args), 4):
                assert isinstance(S, tuple) and S
                assert all(not g.is_zero() for g in S)
                assert len(set(S)) == len(S)

    def test_summands_build_only_the_power_ideals(self, monkeypatch):
        """Past each a_j's basis ideal and its powers, no ``Ideal``."""
        gamma, I, pairs, fiber = self.relative_chain_data()
        built = []
        init = Ideal.__init__

        def spy(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(Ideal, "__init__", spy)
        list(islice(_summands(gamma, I, pairs, fiber), 4))
        q = gamma.power.q
        exponents = sum(len({ceil_frac(lam * q ** i) for i in range(4)})
                        for _, lam in pairs)
        assert len(built) == len(pairs) + exponents
