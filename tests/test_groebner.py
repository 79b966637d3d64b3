"""Groebner kernel: bases, membership, colon, intersection, budget."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fsing import groebner
from fsing.groebner import (
    Budget,
    BudgetExceededError,
    Ideal,
    buchberger,
    colon_ideal,
    divide,
    eliminate,
    groebner_basis,
    ideal_membership,
    ideal_ops,
    ideal_power,
    intersection,
)
from fsing.polycore import (
    GREVLEX,
    LEX,
    Polynomial,
    RATIONALS,
    PackingOverflow,
    elimination_order,
    parse_polynomial,
    prime_field,
)

try:
    import sympy as sp

    HAVE_SYMPY = True
except ImportError:  # pragma: no cover
    HAVE_SYMPY = False


def P(text, names=("x", "y"), domain=RATIONALS):
    return parse_polynomial(text, list(names), domain)


def ideal(*texts, names=("x", "y"), domain=RATIONALS):
    return Ideal(domain, len(names), [P(t, names, domain) for t in texts])


class TestGroebnerBasis:
    def test_principal(self):
        gb = groebner_basis(ideal("x"), LEX)
        assert list(gb) == [P("x")]

    def test_two_variables(self):
        gb = groebner_basis(ideal("x", "y"), GREVLEX)
        assert set(gb) == {P("x"), P("y")}

    def test_circle_and_line_lex(self):
        # frozen from the sympy oracle: [x - y, y^2 - 1/2] after monic scaling
        gb = groebner_basis(ideal("x^2 + y^2 - 1", "x - y"), LEX)
        assert set(gb) == {P("x - y"), P("y^2 - 1/2")}

    def test_idempotence(self):
        I = ideal("x^2 + y^2 - 1", "x*y - 1")
        gb = groebner_basis(I, GREVLEX)
        again = groebner_basis(Ideal(I.domain, I.nvars, list(gb)), GREVLEX)
        assert list(gb) == list(again)

    @pytest.mark.skipif(not HAVE_SYMPY, reason="sympy oracle unavailable")
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_against_sympy_oracle(self, seed):
        rng = random.Random(seed)
        x, y = sp.symbols("x y")
        names = ("x", "y")

        def random_poly():
            terms = {}
            for _ in range(rng.randint(1, 4)):
                mono = (rng.randint(0, 3), rng.randint(0, 3))
                terms[mono] = terms.get(mono, 0) + rng.randint(-3, 3)
            return Polynomial(RATIONALS, 2, terms)

        polys = [random_poly() for _ in range(2)]
        polys = [f for f in polys if not f.is_zero()]
        if not polys:
            return
        mine = groebner_basis(Ideal(RATIONALS, 2, polys), GREVLEX)
        sym = sp.groebner(
            [sp.sympify(f.to_string(names).replace("^", "**")) for f in polys],
            x, y, order="grevlex")
        sym_set = {sp.expand(g / sp.LC(sp.poly(g, x, y, order="grevlex")))
                   for g in sym.exprs}
        mine_set = {sp.expand(sp.sympify(g.to_string(names).replace("^", "**")))
                    for g in mine}
        assert mine_set == sym_set

    @pytest.mark.skipif(not HAVE_SYMPY, reason="sympy oracle unavailable")
    @pytest.mark.parametrize("p,seed", [(3, 0), (5, 1), (7, 2)])
    def test_against_sympy_oracle_prime_field(self, p, seed):
        rng = random.Random(100 + seed)
        x, y = sp.symbols("x y")
        names = ("x", "y")
        dom = prime_field(p)

        def random_poly():
            terms = {}
            for _ in range(rng.randint(1, 4)):
                mono = (rng.randint(0, 3), rng.randint(0, 3))
                terms[mono] = terms.get(mono, 0) + rng.randint(1, p - 1)
            return Polynomial(dom, 2, terms)

        polys = [f for f in (random_poly(), random_poly()) if not f.is_zero()]
        if not polys:
            return
        mine = groebner_basis(Ideal(dom, 2, polys), GREVLEX)
        sym = sp.groebner(
            [sp.sympify(f.to_string(names).replace("^", "**")) for f in polys],
            x, y, order="grevlex", modulus=p)
        # compare monic leading-normalized sets coefficientwise mod p
        def normalize(expr):
            poly = sp.Poly(expr, x, y, modulus=p)
            return {m: int(c) % p for m, c in poly.terms()}

        sym_set = [normalize(g) for g in sym.exprs]
        mine_set = [normalize(sp.sympify(g.to_string(names).replace("^", "**")))
                    for g in mine]
        def canon(items):
            return sorted((sorted(d.items()) for d in items))
        assert canon(mine_set) == canon(sym_set)


def _sympy_monic_basis(polys, names, order, p):
    """sympy's reduced Groebner basis, each member as a frozenset of
    (monomial, coefficient) scaled to leading coefficient one."""
    syms = sp.symbols(names)
    kw = {} if p is None else {"modulus": p}
    basis = sp.groebner(
        [sp.sympify(f.to_string(names).replace("^", "**")) for f in polys],
        *syms, order=order.kind, **kw)
    out = set()
    for g in basis.polys:
        terms = g.terms(order=order.kind)
        if p is None:
            lc = Fraction(int(terms[0][1].p), int(terms[0][1].q))
            out.add(frozenset((m, Fraction(int(c.p), int(c.q)) / lc)
                              for m, c in terms))
        else:
            inv = pow(int(terms[0][1]) % p, -1, p)
            out.add(frozenset((m, int(c) * inv % p) for m, c in terms))
    return out


class TestReducedIdeal:
    @pytest.mark.parametrize("texts,p", [
        (("x^2 + y^2 - 1", "x - y"), 0),
        (("x^3 - y", "x*y^2 + x", "x^2*y - y^2", "x^3 - y"), 3),
        (("x^2*y", "x*y^2", "x^3", "x^2"), 2),
        (("x^2 + x*y", "0"), 5),
    ])
    def test_carries_the_buchberger_basis(self, monkeypatch, texts, p):
        dom = prime_field(p) if p else RATIONALS
        gens = [P(t, domain=dom) for t in texts]
        I = Ideal.reduced(gens)
        assert I.gens == buchberger(gens)
        calls = []
        real = groebner.buchberger

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(groebner, "buchberger", spy)
        assert I.groebner_basis() == I.gens
        assert all(I.contains(g) for g in gens)
        assert not calls
        I.groebner_basis(LEX)
        assert len(calls) == 1

    def test_zero_generators(self):
        I = Ideal.reduced([Polynomial.zero(RATIONALS, 2)])
        assert I.is_zero() and I.groebner_basis() == ()


class TestSympyOracleWide:
    """Reduced bases in 3 and 4 variables, exponents up to 8, in grevlex
    and lex, over Q and F_7, against sympy."""

    @pytest.mark.skipif(not HAVE_SYMPY, reason="sympy oracle unavailable")
    @pytest.mark.parametrize("nvars", [3, 4])
    @pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
    @pytest.mark.parametrize("p", [None, 7], ids=["Q", "F7"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_against_sympy(self, nvars, order, p, seed):
        rng = random.Random(1000 * nvars + seed)
        dom = RATIONALS if p is None else prime_field(p)
        names = ("x", "y", "z", "w")[:nvars]

        def random_binomial():
            # lex bases of random trinomials over Q grow past test-suite
            # size (tens of thousands of steps at these degrees)
            terms = {}
            for _ in range(2):
                mono = tuple(rng.randint(0, 8) for _ in range(nvars))
                terms[mono] = terms.get(mono, 0) + rng.choice([-3, -1, 1, 2])
            return Polynomial(dom, nvars, terms)

        polys = [f for f in (random_binomial() for _ in range(7 - nvars))
                 if f]
        mine = groebner_basis(Ideal(dom, nvars, polys), order)
        assert {frozenset(g.terms.items()) for g in mine} == \
            _sympy_monic_basis(polys, names, order, p)


DIVISION_ORDERS = [GREVLEX, LEX, elimination_order(1), elimination_order(2)]
mono3 = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))


class TestDivisionProperty:
    @given(st.sampled_from([None, 2, 5]),
           st.sampled_from(range(len(DIVISION_ORDERS))),
           st.lists(st.tuples(mono3, st.integers(-4, 4)), max_size=8),
           st.lists(st.lists(st.tuples(mono3, st.integers(-4, 4)),
                             min_size=1, max_size=4), min_size=1, max_size=3))
    @settings(max_examples=120, deadline=None)
    def test_quotients_and_remainder(self, p, k, f_terms, divisor_terms):
        """f = sum q_i g_i + r, and no term of r is divisible by any lm(g_i)."""
        dom = RATIONALS if p is None else prime_field(p)
        order = DIVISION_ORDERS[k]
        f = Polynomial(dom, 3, f_terms)
        divs = [g for g in (Polynomial(dom, 3, t) for t in divisor_terms) if g]
        if not divs:
            return
        qs, r = divide(f, divs, order, with_quotients=True)
        assert len(qs) == len(divs)
        total = r
        for q, g in zip(qs, divs):
            total = total + q * g
        assert total == f
        lms = [g.leading_monomial(order) for g in divs]
        for m in r.terms:
            assert not any(all(a <= b for a, b in zip(lm, m)) for lm in lms)
        for h in [r, *qs]:
            if h:
                assert h.leading_monomial(order) == max(h.terms,
                                                        key=order.key)


def _first_divisor_reduce(work, divs, packing, dom, budget, quotients=None,
                          index=None):
    """A literal ``groebner._reduce``: the largest live term is reduced by
    the first divisor, in list order, whose leading monomial divides it;
    ``index`` is not used."""
    p, guard = dom.p, packing.guard
    rem = []
    while work:
        m = min(work, key=packing.key)
        c = work.pop(m)
        budget.tick()
        for i, (lm, inv, tail) in enumerate(divs):
            if ((m | guard) - lm) & guard == guard:
                fc = c * inv % p if p else c * inv
                if quotients is not None:
                    quotients[i][m - lm] = fc
                for m2, c2 in tail:
                    m2 += m - lm
                    if m2 & guard:
                        raise PackingOverflow
                    s = work.get(m2, 0) - fc * c2
                    s = s % p if p else s
                    if s:
                        work[m2] = s
                    else:
                        work.pop(m2, None)
                break
        else:
            rem.append((m, c))
    return rem


def _outcome(call, literal: bool):
    """(result or BudgetExceededError, Budget.used) of call(budget), with
    ``groebner._reduce`` replaced by the literal one when asked."""
    budget = Budget(20_000)
    with mock.patch.object(groebner, "_reduce", _first_divisor_reduce
                           if literal else groebner._reduce):
        try:
            out = call(budget)
        except BudgetExceededError:
            out = BudgetExceededError
    return out, budget.used


small_mono = st.tuples(*[st.integers(0, 2)] * 3)
# nonzero modulo every field drawn below
terms_of = st.dictionaries(small_mono, st.integers(1, 4), min_size=1,
                           max_size=3)


class TestDivisorChoice:
    """``_reduce`` finds divisors through their sorted leading monomials;
    it must still pick, step by step, the first dividing divisor in list
    order.  Among 12 or more divisors, leading monomials of degree <= 6 in
    3 variables repeat, and the list order is shuffled."""

    @given(st.sampled_from([None, 5, 7]),
           st.sampled_from([GREVLEX, LEX, elimination_order(1)]),
           st.dictionaries(st.tuples(*[st.integers(0, 5)] * 3),
                           st.integers(1, 4), max_size=8),
           st.lists(terms_of, min_size=12, max_size=16),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_first_divisor_in_list_order(self, p, order, f_terms,
                                                 divisor_terms, rng):
        dom = _field(p)
        f = Polynomial(dom, 3, f_terms)
        divs = [Polynomial(dom, 3, t) for t in divisor_terms]
        # same leading monomial in every order, different polynomial
        divs += [g + 1 for g in divs[:4] if not g.is_constant()]
        rng.shuffle(divs)
        for call in (lambda b: divide(f, divs, order, b, with_quotients=True),
                     lambda b: buchberger(divs, order, b)):
            assert _outcome(call, False) == _outcome(call, True)

    def test_wide_exponents(self, monkeypatch):
        """Tails of degree 40000 and more under lex: the reduction
        overflows the width its inputs need, and the re-runs at doubled
        width choose the same divisors."""
        names = ("x", "y", "z")
        rng = random.Random(14)
        divs = [Polynomial(RATIONALS, 3, {
            (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)): 1,
            (0, rng.randint(0, 3), rng.randint(0, 3)): -2}) for _ in range(12)]
        divs += [P(t, names) for t in ("x*z - y^40000", "x*z + 3*z^50000",
                                       "x^2 - z^45000", "x^2*y - y^70000")]
        rng.shuffle(divs)
        f = P("x^5*z^2 + 2*x^3*y*z - x^2*y^2 + x*z", names)
        wide = [P(t, names) for t in ("y^2 - x", "x*y - z^70000", "x^2 - z")]
        attempts = []
        real = groebner._widening

        def spy(budget, width, attempt):
            attempts.append([])
            return real(budget, width,
                        lambda w: attempts[-1].append(w) or attempt(w))

        monkeypatch.setattr(groebner, "_widening", spy)
        for call in (lambda b: divide(f, divs, LEX, b, with_quotients=True),
                     lambda b: buchberger(wide, LEX, b)):
            attempts.clear()
            assert _outcome(call, False) == _outcome(call, True)
            assert attempts and all(len(a) > 1 for a in attempts)


def _sorted_distinct_reference(gens):
    """The generator order Ideal kept before sort_key() was confined to
    ties: drop duplicates at their first occurrence, then one full sort."""
    seen, kept = set(), []
    for g in gens:
        if g and g not in seen:
            seen.add(g)
            kept.append(g)
    kept.sort(key=lambda g: (GREVLEX.key(g.leading_monomial(GREVLEX)),
                             g.sort_key()))
    return kept


class TestIdealGeneratorOrder:
    @given(st.sampled_from([None, 2, 3]),
           st.lists(st.lists(st.tuples(st.tuples(st.integers(0, 1),
                                                 st.integers(0, 1)),
                                       st.integers(-2, 2)),
                             max_size=3), min_size=1, max_size=6),
           st.lists(st.tuples(st.integers(0, 5), st.booleans()), max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_matches_full_key_sort(self, p, pool_terms, picks):
        """Few small monomials, so leading monomials repeat; picks repeat
        pool members, as the same object or as an equal copy."""
        dom = RATIONALS if p is None else prime_field(p)
        pool = [Polynomial(dom, 2, dict(t)) for t in pool_terms]
        gens = []
        for k, copy in picks:
            g = pool[k % len(pool)]
            gens.append(Polynomial(dom, 2, dict(g.terms)) if copy else g)
        got = Ideal(dom, 2, gens).gens
        want = _sorted_distinct_reference(gens)
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want))


class TestWideExponents:
    """Exponents of 2^16 and more, and results past the width the inputs
    need (the packed kernel widens its fields and starts over)."""

    @pytest.mark.skipif(not HAVE_SYMPY, reason="sympy oracle unavailable")
    def test_grevlex_basis_against_sympy(self):
        names = ("x", "y", "z")
        polys = [P("x^70000*y - z", names), P("y^70000 - z", names)]
        mine = buchberger(polys, GREVLEX)
        assert {frozenset(g.terms.items()) for g in mine} == \
            _sympy_monic_basis(polys, names, GREVLEX, None)

    def test_elimination_basis(self):
        # t = y^70000 forces x = t^2 = y^140000
        names = ("t", "x", "y")
        I = Ideal(RATIONALS, 3, [P("t - y^70000", names),
                                 P("t^2 - x", names)])
        gb = buchberger(I.gens, elimination_order(1))
        assert set(gb) == {P("t - y^70000", names),
                           P("y^140000 - x", names)}
        assert eliminate(I, 1).gens == (P("y^140000 - x", names),)

    @pytest.mark.parametrize("order", [LEX, elimination_order(1)],
                             ids=["lex", "elim"])
    def test_division_past_the_input_width(self, order):
        # the remainder is f at x = y^70000
        names = ("x", "y")
        f = P("x^3 + x*y^70000", names)
        g = P("x - y^70000", names)
        (q,), r = divide(f, [g], order, with_quotients=True)
        assert r == P("y^210000 + y^140000", names)
        assert q == P("x^2 + x*y^70000 + y^140000 + y^70000", names)
        assert q * g + r == f

    def test_grevlex_division_and_intersection(self):
        names = ("x", "y")
        f = P("x^70000*y^2 - y", names)
        (q,), r = divide(f, [P("x*y - 1", names)], GREVLEX,
                         with_quotients=True)
        assert r == P("x^69998 - y", names)
        assert q * P("x*y - 1", names) + r == f
        meet = intersection(Ideal(RATIONALS, 2, [P("x^70000", names)]),
                            Ideal(RATIONALS, 2, [P("y^70000", names)]))
        assert meet.gens == (P("x^70000*y^70000", names),)
        assert meet.contains(P("x^70001*y^70000 - x^70000*y^70001", names))
        assert not meet.contains(P("x^70000*y^69999", names))

    def test_step_counts_do_not_depend_on_the_width(self, monkeypatch):
        """Every call shares one budget, so a re-run after an overflow that
        did not restart from the budget it started with would show."""
        names = ("t", "x", "y")
        gens = [P("t - y^70000", names), P("t^2 - x", names)]
        xs, ys = (Ideal(RATIONALS, 2, [P(text)])
                  for text in ("x^70000", "y^70000"))
        attempts = []
        real = groebner._widening

        def spy(budget, width, attempt):
            attempts.append([])
            return real(budget, width,
                        lambda w: attempts[-1].append(w) or attempt(w))

        monkeypatch.setattr(groebner, "_widening", spy)
        runs = []
        for width in (None, 64):
            if width is not None:
                monkeypatch.setattr(groebner, "_MIN_WIDTH", width,
                                    raising=False)
            attempts.clear()
            budget = Budget()
            gb = buchberger(gens, elimination_order(1), budget)
            r = divide(P("t^3*x", names), gb, elimination_order(1),
                       budget)
            kept = eliminate(Ideal(RATIONALS, 3, gens), 1, budget).gens
            meet = intersection(xs, ys, budget).gens
            runs.append((gb, r, kept, meet, budget.used))
            # buchberger, divide, eliminate, intersection: each overflows
            # the width its inputs need, and none overflows 64 bits
            assert [len(a) > 1 for a in attempts] == [width is None] * 4
        assert runs[0] == runs[1]


class TestMembership:
    def test_basic(self):
        assert ideal_membership(P("x^2"), ideal("x"))

    def test_negative(self):
        assert not ideal_membership(P("x + y"), ideal("x^2", "y^2"))

    def test_char2_square(self):
        F2 = prime_field(2)
        assert ideal_membership(P("(x+y)^2", domain=F2),
                                ideal("x^2", "y^2", domain=F2))

    def test_zero_ideal(self):
        zero = Ideal(RATIONALS, 2, ())
        assert ideal_membership(P("0"), zero)
        assert not ideal_membership(P("x"), zero)


class TestColonAndIntersection:
    def test_colon_power(self):
        assert colon_ideal(ideal("x^2"), ideal("x")).equals(ideal("x"))

    def test_colon_product(self):
        assert colon_ideal(ideal("x*y"), ideal("x")).equals(ideal("y"))

    def test_intersection(self):
        assert intersection(ideal("x"), ideal("y")).equals(ideal("x*y"))

    def test_colon_contracts(self):
        I, J = ideal("x^2*y", "y^3"), ideal("x*y", "y^2")
        C = colon_ideal(I, J)
        # (I : J) * J subseteq I and I subseteq (I : J)
        for f in C.gens:
            for g in J.gens:
                assert ideal_membership(f * g, I)
        for f in I.gens:
            assert ideal_membership(f, C)


class TestIdealOps:
    def test_sum(self):
        assert ideal_ops(ideal("x"), ideal("y"), "sum").equals(ideal("x", "y"))

    def test_intersection_op(self):
        assert ideal_ops(ideal("x"), ideal("y"), "intersection").equals(ideal("x*y"))

    def test_equality(self):
        assert ideal_ops(ideal("x", "y"), ideal("x + y", "y"), "equality")

    def test_product(self):
        assert ideal_ops(ideal("x"), ideal("y"), "product").equals(ideal("x*y"))

    def test_power(self):
        assert ideal_power(ideal("x", "y"), 2).equals(ideal("x^2", "x*y", "y^2"))

    def test_power_of_zero_ideal(self):
        zero = Ideal.zero(prime_field(3), 2)
        for n in (1, 2, 5):
            assert ideal_power(zero, n).is_zero()
        assert ideal_power(zero, 0).gens == (Polynomial.constant(zero.domain, 2, 1),)


class TestRandomizedClosure:
    @pytest.mark.parametrize("seed", range(4))
    def test_membership_closed_under_ring_ops(self, seed):
        rng = random.Random(100 + seed)

        def random_poly():
            terms = {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-2, 2)
                     for _ in range(rng.randint(1, 3))}
            return Polynomial(RATIONALS, 2, terms)

        I = Ideal(RATIONALS, 2, [random_poly(), random_poly()])
        if I.is_zero():
            return
        f = I.gens[0] * random_poly()
        g = I.gens[-1] * random_poly()
        assert ideal_membership(f + g, I)
        assert ideal_membership(f * random_poly(), I)


def _block_free(gb, k):
    """The members of ``gb`` in which none of the first k variables occurs."""
    return [g for g in gb if all(not any(m[:k]) for m in g.terms)]


def _intersection_via_full_basis(I, J, budget):
    """The former route of ``intersection``, kept as a reference: the full
    reduced basis of the tagged generators in the elimination order, then
    its members free of the tag."""
    dom, n = I.domain, I.nvars
    t = Polynomial.variable(dom, n + 1, 0)
    one = Polynomial.constant(dom, n + 1, 1)
    gens = [t * groebner._prepend_variable(g) for g in I.gens]
    gens += [(one - t) * groebner._prepend_variable(g) for g in J.gens]
    gb = buchberger(gens, elimination_order(1), budget)
    return Ideal(dom, n, [g.drop_variables([0]) for g in _block_free(gb, 1)])


ELIMINATION_CASES = [
    (1, ("t", "x", "y"), ("t - x^2", "t^2 - y")),
    (1, ("t", "x", "y"), ("t*x - y^2", "t*y - x", "x^3 - y + 1")),
    (1, ("t", "x", "y", "z"), ("t*x - z", "t*y - z^2", "t^2 - x*y")),
    (2, ("t", "u", "x", "y"), ("t - x^2", "u - x*y", "t*u - y^3")),
    (2, ("t", "u", "x", "y"), ("t*u - x", "t^2 - y", "u^2 - x*y + 2")),
]
INTERSECTION_CASES = [
    (("x^2 - y*z + 2*x", "x*y^2 - z^3"), ("x*z - y^2", "y^3 - 3*x*z^2 + z")),
    (("x^2", "y*z"), ("x*y", "z^2 - x")),
    (("x*y - z", "x^3"), ("y^2 - x*z", "z^2")),
]
FIELDS = [None, 2, 3, 5]
small_terms = st.lists(
    st.tuples(st.tuples(*[st.integers(0, 2)] * 4), st.integers(-3, 3)),
    min_size=1, max_size=3)


def _field(p):
    return RATIONALS if p is None else prime_field(p)


class TestEliminate:
    def test_eliminate_parameter(self):
        names = ("t", "x", "y")
        I = ideal("t - x^2", "t^2 - y", names=names)
        E = eliminate(I, 1)
        assert E.equals(ideal("x^4 - y", names=names))

    def check_against_full_basis(self, I, k, limit=None):
        full = Budget() if limit is None else Budget(limit)
        try:
            gb = buchberger(I.gens, elimination_order(k), full)
        except BudgetExceededError:
            return False
        budget = Budget()
        E = eliminate(I, k, budget)
        assert E.gens == Ideal(I.domain, I.nvars, _block_free(gb, k)).gens
        assert budget.used <= full.used
        return True

    def check_intersection(self, I, J, limit=None):
        full = Budget() if limit is None else Budget(limit)
        try:
            want = _intersection_via_full_basis(I, J, full)
        except BudgetExceededError:
            return False
        budget = Budget()
        assert intersection(I, J, budget).gens == want.gens
        assert budget.used <= full.used
        return True

    @pytest.mark.parametrize("p", FIELDS, ids=["Q", "F2", "F3", "F5"])
    @pytest.mark.parametrize("k,names,texts", ELIMINATION_CASES)
    def test_keeps_the_block_free_members_of_the_full_basis(self, p, k,
                                                            names, texts):
        I = ideal(*texts, names=names, domain=_field(p))
        assert self.check_against_full_basis(I, k)

    @pytest.mark.parametrize("p", FIELDS, ids=["Q", "F2", "F3", "F5"])
    @pytest.mark.parametrize("I_texts,J_texts", INTERSECTION_CASES)
    def test_intersection_matches_the_full_basis_route(self, p, I_texts,
                                                       J_texts):
        names, dom = ("x", "y", "z"), _field(p)
        assert self.check_intersection(
            ideal(*I_texts, names=names, domain=dom),
            ideal(*J_texts, names=names, domain=dom))

    @given(st.sampled_from(FIELDS), st.sampled_from([1, 2]),
           st.lists(small_terms, min_size=1, max_size=3),
           st.lists(small_terms, min_size=1, max_size=2))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_random_ideals(self, p, k, I_terms, J_terms):
        """``eliminate`` on ideals in four variables; ``intersection`` on
        the same terms with the last exponent dropped."""
        dom = _field(p)
        I = Ideal(dom, 4, [Polynomial(dom, 4, t) for t in I_terms])
        self.check_against_full_basis(I, k, limit=20_000)
        I3, J3 = (Ideal(dom, 3, [Polynomial(dom, 3, {m[:3]: c for m, c in t})
                                 for t in terms])
                  for terms in (I_terms, J_terms))
        self.check_intersection(I3, J3, limit=20_000)

    def test_writes_no_basis_cache(self):
        """The members it finalises are not a full elimination basis, so
        ``Ideal.reduced`` and ``Ideal.groebner_basis`` stay the only writers
        of the cache."""
        I = ideal("t - x^2", "t^2 - y", names=("t", "x", "y"))
        eliminate(I, 1)
        eliminate(I, 2)
        assert I._gb_cache == {}


def _colon_via_parts(I, J, budget=None):
    """The former route of ``colon_ideal``, kept as a reference: the colon
    by each generator f of J as (I cap (f)) / f, then the pairwise
    intersection of those parts."""
    result = None
    for f in J.gens:
        quotients = []
        for g in intersection(I, Ideal(I.domain, I.nvars, [f]), budget).gens:
            qs, r = divide(g, [f], GREVLEX, budget, with_quotients=True)
            assert r.is_zero()
            quotients.append(qs[0])
        part = Ideal(I.domain, I.nvars, quotients)
        result = part if result is None else intersection(result, part, budget)
    return result


def _frobenius_colon(texts, names, p, e):
    """The ideals (I^[q], I) of the Fedder colon over F_p, q = p^e, for I
    generated by ``texts``."""
    from fsing.frobenius import FrobeniusPower, bracket_power

    I = ideal(*texts, names=names, domain=prime_field(p))
    return bracket_power(I, FrobeniusPower(p, e)), I


DET_F3 = (("A", "B", "C", "D", "E"),
          ("A^4 - B*C", "A^2*B^4 - A^2*D - C*D", "B^5 - B*D - A^2*D"))
MINORS_2X3 = (("x", "y", "z", "u", "v", "w"),
              ("x*v - y*u", "x*w - z*u", "y*w - z*v"))
RATIONAL_NORMAL_QUARTIC = (
    ("a", "b", "c", "d", "e"),
    ("a*c - b^2", "a*d - b*c", "a*e - b*d", "b*d - c^2", "b*e - c*d",
     "c*e - d^2"))


# no constant terms and at least two terms: few unit or monomial ideals
colon_terms = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3).filter(any),
                              st.integers(1, 4), min_size=2, max_size=3)


class TestColonAgainstParts:
    """``colon_ideal`` restricts (1) by one generator of J at a time; its
    generators must be those of the former route, the pairwise intersection
    of the per-generator colons, byte for byte."""

    def check(self, I, J, budget=None):
        want = _colon_via_parts(I, J, budget)
        got = colon_ideal(I, J)
        assert [g.to_string() for g in got.gens] == \
            [g.to_string() for g in want.gens]
        return got

    @pytest.mark.parametrize("names,texts,p,e", [
        (*DET_F3, 3, 1), (*DET_F3, 3, 2),
        (*MINORS_2X3, 2, 1), (*MINORS_2X3, 3, 1),
        (*RATIONAL_NORMAL_QUARTIC, 2, 1)],
        ids=["det-F3-e1", "det-F3-e2", "minors-F2", "minors-F3",
             "quartic-F2"])
    def test_fedder_colons(self, names, texts, p, e):
        self.check(*_frobenius_colon(texts, names, p, e))

    @pytest.mark.parametrize("I_texts,J_texts", INTERSECTION_CASES + [
        (("x^2*y", "y^3"), ("x*y", "y^2")),
        (("x^2 - y*z + 2*x", "x*y^2 - z^3"), ("x", "y + z")),
    ])
    def test_over_q(self, I_texts, J_texts):
        names = ("x", "y", "z")
        self.check(ideal(*I_texts, names=names), ideal(*J_texts, names=names))

    def test_redundant_generator(self):
        C = self.check(ideal("x^3", "x*y^2", "y^4"), ideal("x", "y", "x + y"))
        assert C.equals(ideal("x^3", "x^2*y", "x*y^2", "y^3"))

    def test_unit_in_j(self):
        I = ideal("x^2 - y", "x*y^2")
        C = self.check(I, ideal("x + 1", "1"))
        assert C.equals(I)

    def test_zero_i(self):
        assert self.check(Ideal.zero(RATIONALS, 2), ideal("x", "y")).is_zero()

    def test_principal_j_gives_the_quotients(self):
        """No reduction: the quotient of x^2 by 2*x is x/2, not monic."""
        C = self.check(ideal("x^2", "x*y^3"), ideal("2*x"))
        assert [g.to_string(["x", "y"]) for g in C.gens] == ["1/2*x", "1/2*y^3"]

    @given(st.sampled_from(FIELDS),
           st.lists(colon_terms, min_size=2, max_size=3),
           st.lists(colon_terms, min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_random_ideals(self, p, I_terms, J_terms):
        dom = _field(p)
        I, J = (Ideal(dom, 3, [Polynomial(dom, 3, t) for t in terms])
                for terms in (I_terms, J_terms))
        if J.is_zero():
            return
        try:
            self.check(I, J, Budget(20_000))
        except BudgetExceededError:   # raised by the reference only
            pass


def _spoiled(basis, rng):
    """The reduced ``basis`` (ascending), every other member with a
    multiple of an earlier member added, of smaller leading monomial, and
    every member scaled: the same ideal and leading monomials, so a
    Groebner basis still, but not a reduced one."""
    dom = basis[0].domain
    key = lambda f: GREVLEX.key(f.leading_monomial())   # noqa: E731
    out = []
    for k, g in enumerate(basis):
        if k % 2:
            h = basis[rng.randrange(k)]
            u = Polynomial.variable(dom, g.nvars, rng.randrange(g.nvars))
            g = g + (h * u if key(h * u) < key(g) else h)
        out.append(g * rng.randint(1, dom.p - 1 if dom.p else 3))
    return out


XYZ = ("x", "y", "z")
BASES = [
    (None, ("x^2 - y*z + 1/2*x", "x*y^2 - z^3", "x*z - y^2")),
    (3, ("x^3 - y*z", "y^3 - x*z^2", "x*y*z - z^2")),
    (5, ("x^2 + 2*y*z", "y^2 + 3*x*z", "z^2 + x*y + 1")),
    (2, ("x^2 + y*z + z", "y^2 + x*z", "z^3 + x*y")),
]


class TestInterreduced:
    """``_interreduced`` finishes a Groebner basis in one ascending pass,
    with no S-pair; on a basis that is not reduced it must give the reduced
    basis."""

    @pytest.mark.parametrize("p,texts", BASES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_spoiled_basis_comes_back_reduced(self, p, texts, seed):
        reduced = buchberger([P(t, XYZ, _field(p)) for t in texts])
        gens = _spoiled(reduced, random.Random(seed))
        assert gens != list(reduced)
        out = groebner._interreduced(gens, Budget())
        assert [list(g.terms.items()) for g in out] == \
            [list(g.terms.items()) for g in reduced]

    @pytest.mark.parametrize("p,texts", BASES)
    def test_reduced_basis_costs_one_step_per_term_above_the_smallest(
            self, p, texts):
        reduced = buchberger([P(t, XYZ, _field(p)) for t in texts])
        budget = Budget()
        out = groebner._interreduced(list(reduced), budget)
        assert [list(g.terms.items()) for g in out] == \
            [list(g.terms.items()) for g in reduced]
        # nothing reduces a term, and the smallest member is not reduced
        assert budget.used == sum(len(g.terms) for g in reduced[1:])

    def test_f3_reduced_basis_steps(self):
        reduced = buchberger([P(t, XYZ, _field(3)) for t in BASES[1][1]])
        budget = Budget()
        groebner._interreduced(list(reduced), budget)
        assert budget.used == 14

    @pytest.mark.parametrize("p,texts", BASES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_each_member_reduced_by_the_members_below(self, p, texts, seed):
        reduced = buchberger([P(t, XYZ, _field(p)) for t in texts])
        # and two members a kept leading monomial divides, dropped unreduced
        x = Polynomial.variable(reduced[0].domain, 3, 0)
        gens = _spoiled(reduced, random.Random(seed)) + [
            reduced[0] * x, reduced[1] + reduced[0]]
        seen = []

        def spy(work, divs, packing, *args, **kwargs):
            lead = min(work, key=packing.key)
            seen.append((packing.unpack(lead),
                         [packing.unpack(d[0]) for d in divs]))
            return real(work, divs, packing, *args, **kwargs)

        real = groebner._reduce
        with mock.patch.object(groebner, "_reduce", spy):
            out = groebner._interreduced(gens, Budget())
        assert out == reduced
        lms = [g.leading_monomial() for g in out]
        assert seen == [(lms[i], lms[:i]) for i in range(1, len(out))]


class TestBudget:
    def test_budget_exceeded_is_distinct(self):
        I = ideal("x^4 + y^3 - 1", "x*y^3 - x - y", "x^3*y - 2*y^2 - x")
        with pytest.raises(BudgetExceededError):
            groebner_basis(I, LEX, Budget(5))


class TestDeterminantalFixture:
    """The F_3 determinantal corpus ring: (I^[3] : I) strictly contains I^[3]."""

    def colon(self):
        from fsing.frobenius import FrobeniusPower, bracket_power

        names = ("A", "B", "C", "D")
        dom = prime_field(3)
        I = Ideal(dom, 4, [P("A^4 - B*C", names, dom),
                           P("A^2*B^4 - A^2*D - C*D", names, dom),
                           P("B^5 - B*D - A^2*D", names, dom)])
        Iq = bracket_power(I, FrobeniusPower(3, 1))
        return I, Iq, colon_ideal(Iq, I)

    def test_colon_strictly_contains_bracket(self):
        I, Iq, C = self.colon()
        assert not C.is_zero()
        for g in Iq.gens:
            assert C.contains(g)
        assert not all(Iq.contains(g) for g in C.gens)

    def test_colon_soundness(self):
        # every colon generator multiplies I into I^[3]
        I, Iq, C = self.colon()
        for h in C.gens:
            for g in I.gens:
                assert Iq.contains(h * g)
