"""Polynomial layer: parsing, arithmetic, canonical forms."""

import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fsing.groebner import divide
from fsing.polycore import (
    GREVLEX,
    LEX,
    DomainError,
    ParseError,
    Polynomial,
    RATIONALS,
    _is_prime,
    elimination_order,
    parse_polynomial,
    prime_field,
)

try:
    import sympy as sp

    HAVE_SYMPY = True
except ImportError:  # pragma: no cover
    HAVE_SYMPY = False

F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)
F7 = prime_field(7)
XY = ["x", "y"]


def P(text, variables=XY, domain=RATIONALS):
    return parse_polynomial(text, variables, domain)


class TestParse:
    def test_zero(self):
        assert parse_polynomial("0", XY, F5).is_zero()

    def test_char2_square(self):
        assert P("(x+y)^2", XY, F2) == P("x^2 + y^2", XY, F2)

    def test_rational_literal(self):
        f = P("x^2 + (1/2)*y^3")
        assert f.terms == {(2, 0): Fraction(1), (0, 3): Fraction(1, 2)}

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            P("x + w")

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            P("x + + y")
        assert "position" in str(err.value)

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            P("2x")

    def test_division_by_nonunit(self):
        with pytest.raises(ParseError):
            parse_polynomial("1/2", XY, F2)

    def test_division_fine_when_unit(self):
        f = parse_polynomial("1/2", XY, F5)
        assert f.constant_term() == 3  # inverse of 2 mod 5

    @pytest.mark.parametrize("text", [
        "x^2 - y", "-x + 3*y^2 - 1/3", "(x + y)*(x - y)", "x^2*y^3",
        "1/2*x - 7", "0",
    ])
    def test_parse_print_parse_fixed_point(self, text):
        f = P(text)
        s = f.to_string(XY)
        assert P(s) == f
        assert P(s).to_string(XY) == s


class TestArith:
    def test_product_of_conjugates(self):
        assert P("x + y") * P("x - y") == P("x^2 - y^2")

    def test_add_zero_identity(self):
        f = P("x^2 - 3*y")
        assert f + P("0") == f

    def test_freshman_dream(self):
        a, b = P("x + y", XY, F2), P("x + y", XY, F2)
        assert a * b == P("x^2 + y^2", XY, F2)

    def test_domain_mismatch(self):
        with pytest.raises(DomainError):
            P("x") + P("x", XY, F5)

    def test_sub(self):
        assert (P("x") - P("x")).is_zero()


class TestPower:
    def test_power_zero(self):
        assert (P("x + 1/3*y") ** 0).is_one()

    def test_direct_expansion(self):
        f = P("x^2 + y^3", XY, F3) ** 2
        assert f == P("x^4 + 2*x^2*y^3 + y^6", XY, F3)

    def test_multinomial_coefficient_mod_7(self):
        # (x+y+z)^6: coefficient of x^2 y^2 z^2 is 6!/(2!2!2!) = 90 = 6 mod 7,
        # frozen from the repeated-multiplication oracle below
        names = ["x", "y", "z"]
        f = P("x + y + z", names, F7)
        oracle = f
        for _ in range(5):
            oracle = oracle * f
        assert oracle.coefficient((2, 2, 2)) == 6
        assert f ** 6 == oracle

    def test_frobenius_power_matches_pow(self):
        f = P("x^2 + 2*y", XY, F5)
        assert f.frobenius_power(5) == f ** 5
        assert f.frobenius_power(25) == f ** 25
        g = P("2*x + y", XY, F3)
        assert g.frobenius_power(1) == g
        assert g.frobenius_power(9) == g ** 9
        # 6 is a multiple of p = 3 but not a power of it
        with pytest.raises(DomainError):
            g.frobenius_power(6)


class TestSubstitution:
    def test_polynomial_substitution(self):
        f = P("x^2 + 2*x - y")
        target = parse_polynomial("0", ["u", "v"], RATIONALS)
        u = Polynomial.variable(RATIONALS, 2, 0)
        v = Polynomial.variable(RATIONALS, 2, 1)
        image = f.substitute({0: u + v, 1: u * v})
        expected = (u + v) ** 2 + 2 * (u + v) - u * v
        assert image == expected

    def test_scale_exponents(self):
        f = P("x^2*y + x")
        assert f.scale_exponents([0], 3) == P("x^6*y + x^3")

    def test_partial_evaluation(self):
        f = P("x^2*y + 3*x - 1")
        g = f.evaluate_partial({0: 2})
        assert g == P("4*y + 5")

    def test_drop_variables(self):
        f = P("y^2 + 2*y")
        g = f.drop_variables([0])
        assert g.nvars == 1
        assert g == parse_polynomial("y^2 + 2*y", ["y"], RATIONALS)


coeff_q = st.fractions(min_value=-4, max_value=4, max_denominator=6)
mono2 = st.tuples(st.integers(0, 4), st.integers(0, 4))


def polys_q():
    return st.dictionaries(mono2, coeff_q, max_size=5).map(
        lambda terms: Polynomial(RATIONALS, 2, terms))


def polys_fp(p):
    return st.dictionaries(mono2, st.integers(0, p - 1), max_size=5).map(
        lambda terms: Polynomial(prime_field(p), 2, terms))


class TestRingAxioms:
    @given(polys_q(), polys_q(), polys_q())
    @settings(max_examples=60, deadline=None)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(polys_q(), polys_q())
    @settings(max_examples=60, deadline=None)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_frobenius_additive(self, p):
        @given(polys_fp(p), polys_fp(p))
        @settings(max_examples=40, deadline=None)
        def check(a, b):
            assert (a + b) ** p == a ** p + b ** p

        check()

    @given(polys_q())
    @settings(max_examples=60, deadline=None)
    def test_parse_print_roundtrip(self, f):
        assert parse_polynomial(f.to_string(XY), XY, RATIONALS) == f


class TestParserShortcut:
    def test_non_ascii_digit_is_a_parse_error(self):
        with pytest.raises(ParseError) as err:
            P("x^²")
        assert err.value.position == 2

    @pytest.mark.parametrize("text, message, position", [
        # two errors: the first one the parser reaches is reported
        ("x y $", "unexpected trailing token 'y'", 2),
        ("(x $", "unexpected character '$'", 3),
    ])
    def test_first_error_position(self, text, message, position):
        with pytest.raises(ParseError) as err:
            P(text)
        assert str(err.value).startswith(message)
        assert err.value.position == position

    @pytest.mark.parametrize("text, expected", [
        ("(x + y)^3", "x^3 + 3*x^2*y + 3*x*y^2 + y^3"),
        ("2^3*x", "8*x"),
        ("x^0", "1"),
        ("x^1*y^0", "x"),
    ])
    def test_powers_keep_their_values(self, text, expected):
        assert P(text) == P(expected)

    @given(st.dictionaries(st.tuples(st.integers(0, 120), st.integers(0, 120)),
                           coeff_q, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_with_large_exponents(self, terms):
        f = Polynomial(RATIONALS, 2, terms)
        assert parse_polynomial(f.to_string(XY), XY, RATIONALS) == f


mono3 = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
# the last order equals the third without being the same object
ORDERS = [GREVLEX, LEX, elimination_order(1), elimination_order(2),
          elimination_order(1)]


class TestLeadingMonomialCache:
    @given(st.sampled_from([None, 2, 5, 7]),
           st.lists(st.tuples(mono3, st.integers(-5, 5)), min_size=1,
                    max_size=6),
           st.lists(st.sampled_from(range(len(ORDERS))), min_size=1,
                    max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_interleaved_orders_match_max(self, p, terms, picks):
        dom = RATIONALS if p is None else prime_field(p)
        f = Polynomial(dom, 3, terms)
        if f.is_zero():
            return
        g = Polynomial(dom, 3, [(m[::-1], c + 1) for m, c in terms])
        first = ORDERS[picks[0]]
        # a scalar multiple and a remainder are born with the leading
        # monomial of ``first`` (when f has it cached) already set
        derived = [f, f.monic(first), f * g, f * 3,
                   divide(f + g, [g] if g else [], first)]
        if p is not None:
            derived.append(f.frobenius_power(p))
        for k in picks:
            order = ORDERS[k]
            for h in derived:
                if h:
                    assert h.leading_monomial(order) == \
                        max(h.terms, key=order.key)


# Differential tests against sympy's expansion over Q; an F_p answer is the
# image of the Q answer, since every denominator used is a unit mod p.
XYZ = ["x", "y", "z"]
PRIMES = [None, 2, 3, 5, 7]
# exponents up to 2 in three variables, so products and sums often collide
mono_small = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))


def _expected(sympy_poly, p):
    """The term map of a sympy Q-polynomial, reduced into F_p for p."""
    out = {}
    for m, c in sympy_poly.as_dict().items():
        c = Fraction(int(c.p), int(c.q))
        if p:
            c = c.numerator * pow(c.denominator, -1, p) % p
        if c:
            out[m] = c
    return out


def _to_sympy(f, gens):
    return sp.Poly.from_dict(
        {m: sp.Rational(c.numerator, c.denominator) if isinstance(c, Fraction)
         else c for m, c in f.terms.items()}, *gens, domain="QQ")


@st.composite
def poly_triples(draw):
    p = draw(st.sampled_from(PRIMES))
    dom = RATIONALS if p is None else prime_field(p)
    coeff = coeff_q if p is None else st.integers(-p, 2 * p)
    polys = [Polynomial(dom, 3, draw(st.lists(st.tuples(mono_small, coeff),
                                              max_size=6)))
             for _ in range(3)]
    return p, polys


def _number(dens):
    """An int or rational literal, possibly raised to a power."""
    return st.builds(
        lambda n, d, k: (f"{n}/{d}" if d > 1 else str(n)) + k,
        st.integers(0, 12), st.sampled_from(dens),
        st.sampled_from(["", "^0", "^2", "^3"]))


def _texts(dens):
    """Unexpanded expressions: signed sums of products of numbers, name^k
    and parenthesised sums, possibly raised to a power, nested at most two
    deep so that every expansion stays small."""
    name = st.builds(lambda v, k: v + k, st.sampled_from(XYZ),
                     st.sampled_from(["", "^0", "^1", "^2", "^3"]))

    def expr(factor, size):
        term = st.lists(factor, min_size=1, max_size=size).map("*".join)
        signed = st.builds(lambda sign, t: sign + t,
                           st.sampled_from([" + ", " - "]), term)
        return st.builds(lambda first, rest: first + "".join(rest),
                         st.builds(lambda sign, t: sign + t,
                                   st.sampled_from(["", "-"]), term),
                         st.lists(signed, max_size=size - 1))

    def paren(inner, powers):
        return st.builds(lambda e, k: f"({e}){k}", inner,
                         st.sampled_from(powers))

    leaf = _number(dens) | name
    inner = paren(expr(leaf, 3), ["", "^0", "^2", "^3"])
    outer = paren(expr(leaf | inner, 2), ["", "^0", "^2"])
    return expr(leaf | inner | outer, 3)


@st.composite
def parse_cases(draw):
    p = draw(st.sampled_from(PRIMES))
    dens = [d for d in range(1, 7) if p is None or d % p]
    return p, draw(_texts(dens))


@pytest.mark.skipif(not HAVE_SYMPY, reason="sympy oracle unavailable")
class TestAgainstSympy:
    @given(poly_triples())
    @settings(max_examples=80, deadline=None)
    def test_ring_operations(self, case):
        p, (a, b, c) = case
        gens = sp.symbols("x y z")
        A, B, C = (_to_sympy(f, gens) for f in (a, b, c))
        pairs = [
            (a * b, A * B),
            (a + b, A + B),
            (-a, -A),
            ((a + b) - a, B),
            ((a + b) * (a - b), A ** 2 - B ** 2),
            (a * b - b * a, A - A),
            (a * (b + c) - a * c, A * B),
            (a * 3, A * 3),
        ]
        for got, want in pairs:
            assert got.terms == _expected(want, p)

    @given(parse_cases())
    @settings(max_examples=120, deadline=None)
    def test_parse_matches_expansion(self, case):
        p, text = case
        dom = RATIONALS if p is None else prime_field(p)
        gens = sp.symbols("x y z")
        # sympy reads n/d^k as n/(d^k): bracket each rational literal
        sympy_text = re.sub(r"(\d+/\d+)", r"(\1)", text).replace("^", "**")
        want = sp.Poly(sp.sympify(sympy_text), *gens, domain="QQ")
        assert parse_polynomial(text, XYZ, dom).terms == _expected(want, p)


# ---------------------------------------------------------------------------
# The lazy character-by-character parser that parse_polynomial replaced,
# kept as a reference: the same grammar, terms, term order and errors.

_REF_DIGITS = frozenset("0123456789")


class _ReferenceTokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self._ahead = None

    def peek(self):
        if self._ahead is None:
            self._ahead = self._lex()
        return self._ahead

    def next(self):
        kind, value, pos = self.peek()
        self._ahead = None
        self.pos = pos + len(value)
        return kind, value, pos

    def _lex(self):
        t = self.text
        i = self.pos
        while i < len(t) and t[i].isspace():
            i += 1
        if i >= len(t):
            return ("end", "", i)
        ch = t[i]
        if ch in _REF_DIGITS:
            j = i
            while j < len(t) and t[j] in _REF_DIGITS:
                j += 1
            return ("int", t[i:j], i)
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(t) and (t[j].isalnum() or t[j] == "_"):
                j += 1
            return ("name", t[i:j], i)
        if ch in "+-*/^()":
            return (ch, ch, i)
        raise ParseError(f"unexpected character {ch!r}", i)


def _reference_parse(text, variables, domain):
    names = list(variables)
    index = {n: i for i, n in enumerate(names)}
    nvars = len(names)
    p = domain.p
    tok = _ReferenceTokenizer(text)

    def parse_expr():
        acc = {}
        kind, _, _ = tok.peek()
        while True:
            negate = kind == "-"
            if kind in ("+", "-"):
                tok.next()
            for m, c in parse_term().items():
                if negate:
                    c = -c % p if p else -c
                w = acc.get(m)
                if w is None:
                    acc[m] = c
                else:
                    s = (w + c) % p if p else w + c
                    if s:
                        acc[m] = s
                    else:
                        del acc[m]
            kind, _, _ = tok.peek()
            if kind not in ("+", "-"):
                return Polynomial(domain, nvars, acc, _clean=True)

    def parse_term():
        mono = [0] * nvars
        coeff = domain.one()
        product = None
        while True:
            kind, value, pos = tok.next()
            if kind == "name":
                if value not in index:
                    raise ParseError(f"unknown identifier {value!r}", pos)
                mono[index[value]] += parse_exponent()
            elif kind == "int":
                c = int(value)
                if tok.peek()[0] == "/":
                    tok.next()
                    k, v, pos = tok.next()
                    if k != "int":
                        raise ParseError("expected a natural number after '/'",
                                         pos)
                    if int(v) == 0:
                        raise ParseError("division by zero", pos)
                    try:
                        c = domain.normalize(Fraction(c, int(v)))
                    except DomainError as exc:
                        raise ParseError(str(exc), pos) from exc
                else:
                    c = domain.normalize(c)
                k = parse_exponent()
                coeff = coeff * pow(c, k, p) % p if p else coeff * c ** k
            elif kind == "(":
                inner = parse_expr()
                k, _, pos = tok.next()
                if k != ")":
                    raise ParseError("expected ')'", pos)
                inner = inner ** parse_exponent()
                product = inner if product is None else product * inner
            else:
                raise ParseError(f"unexpected token {value!r}", pos)
            if tok.peek()[0] != "*":
                break
            tok.next()
        if coeff == 0:
            return {}
        term = {tuple(mono): coeff}
        if product is None:
            return term
        return (product * Polynomial(domain, nvars, term, _clean=True)).terms

    def parse_exponent():
        if tok.peek()[0] != "^":
            return 1
        tok.next()
        k, v, pos = tok.next()
        if k != "int":
            raise ParseError("expected a natural number after '^'", pos)
        return int(v)

    result = parse_expr()
    kind, value, pos = tok.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing token {value!r}", pos)
    return result


def _parse_outcome(parse, text, variables, domain):
    """The terms in order, or the error's type, message and position."""
    try:
        return list(parse(text, variables, domain).terms.items())
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


# names (some unknown, some Unicode), numbers, operators, separators, and
# characters that start no token: non-ASCII digits and punctuation
_FUZZ_TOKENS = ["x", "y", "z", "é", "x²", "_t", "w", "xé", "ß", "Ⅻ",
                "0", "1", "2", "3", "12", "007", "²", "٣", "2x", "x2", "4٣",
                "+", "-", "*", "/", "^", "(", ")", "**", "^2",
                " ", "", "\t", "\n", "\u00a0", "\u2009", "\u3000", "\x1c",
                "$", ".", "#", ",", "=", "\x00"]
_FUZZ_VARIABLES = [["x", "y", "z"], ["x", "y", "é", "x²", "_t"],
                   ["2", "+", "x", ""]]


@st.composite
def parser_texts(draw):
    kind = draw(st.sampled_from(["tokens", "nested", "flat"]))
    if kind == "tokens":
        text = "".join(draw(st.lists(st.sampled_from(_FUZZ_TOKENS),
                                     max_size=30)))
    else:
        # a well-formed text, then truncated or with one character replaced
        monos = st.tuples(*[st.integers(0, 4)] * 3)
        if kind == "nested":
            f = Polynomial(RATIONALS, 3, draw(st.dictionaries(
                monos, coeff_q, max_size=5)))
            text = f"({f.to_string(XYZ)})^{draw(st.integers(0, 3))} * x - 1/3"
        else:
            # the plain sum of monomials that to_string writes
            p = draw(st.sampled_from([None, 3, 5]))
            f = Polynomial(RATIONALS if p is None else prime_field(p), 3,
                           draw(st.dictionaries(
                               monos, coeff_q if p is None
                               else st.integers(1, p - 1), max_size=6)))
            text = f.to_string(draw(st.sampled_from([XYZ, ["_t", "x", "y"]])))
        cut = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:cut]
        else:
            text = (text[:cut] + draw(st.sampled_from(_FUZZ_TOKENS))
                    + text[cut + 1:])
    return text


class TestParserAgainstReference:
    @given(parser_texts(), st.sampled_from(_FUZZ_VARIABLES),
           st.sampled_from([None, 3, 5]))
    @settings(max_examples=900, deadline=None, derandomize=True)
    def test_same_terms_or_same_error(self, text, variables, p):
        dom = RATIONALS if p is None else prime_field(p)
        assert (_parse_outcome(parse_polynomial, text, variables, dom)
                == _parse_outcome(_reference_parse, text, variables, dom))

    @pytest.mark.parametrize("text", [
        "x ²", "x^٣", "é*x² + _t", "x\x1c+ y", "x $", "(x $", "x + ",
        "1/0", "1/3", "x^", "()", "x y $", "2 ^ 3 / 3", "\x1c", "",
        "2٣*x", "x^2٣", "1/2٣", "x\u00a0+\u2009y",
        # flat sums, and near misses that must read as the recursive path
        "x  + y", "x*3", "3*4", "- x", "+x", "x + -y", "x - x", "0*x + y",
        "x + x", " x", "x ", "1/2*x", "x^",
    ])
    def test_examples(self, text):
        for variables in _FUZZ_VARIABLES:
            for dom in (RATIONALS, F3):
                assert (_parse_outcome(parse_polynomial, text, variables, dom)
                        == _parse_outcome(_reference_parse, text, variables,
                                          dom))


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


class TestIsPrime:
    def test_matches_trial_division(self):
        assert all(_is_prime(n) == _trial_division(n)
                   for n in range(-3, 10 ** 5))

    @pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
    def test_strong_pseudoprimes_composite(self, n):
        # strong probable primes to the bases 2, 3, 5, 7 (and up to 23)
        assert not _is_prime(n)
        with pytest.raises(DomainError, match="not prime"):
            prime_field(n)

    def test_mersenne_61_accepted_promptly(self):
        start = time.perf_counter()
        assert _is_prime(2 ** 61 - 1)
        assert prime_field(2 ** 61 - 1).p == 2 ** 61 - 1
        assert time.perf_counter() - start < 1

    def test_modulus_beyond_bound_refused_promptly(self):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="3317044064679887385961981"):
            prime_field(2 ** 127 - 1)
        assert time.perf_counter() - start < 1
