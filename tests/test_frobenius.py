"""Bracket powers, Frobenius roots, level embeddings."""

import random

import pytest

from fsing.frobenius import (
    FrobeniusPower,
    bracket_power,
    embed_ideal_to_level,
    frobenius_root,
)
from fsing.groebner import Ideal, ideal_product
from fsing.polycore import DomainError, Polynomial, parse_polynomial, prime_field


def P(text, names, p):
    return parse_polynomial(text, list(names), prime_field(p))


def ideal(p, names, *texts):
    dom = prime_field(p)
    return Ideal(dom, len(names), [P(t, names, p) for t in texts])


class TestBracketPower:
    def test_monomial_case(self):
        I = ideal(3, "xy", "x", "y^2")
        B = bracket_power(I, FrobeniusPower(3, 2))
        assert B.equals(ideal(3, "xy", "x^9", "y^18"))

    def test_additivity(self):
        I = ideal(5, "xy", "x + y")
        B = bracket_power(I, FrobeniusPower(5, 1))
        assert B.equals(ideal(5, "xy", "x^5 + y^5"))

    def test_strictly_inside_ordinary_power(self):
        from fsing.groebner import ideal_power

        I = ideal(2, "xy", "x", "y")
        B = bracket_power(I, FrobeniusPower(2, 2))
        P4 = ideal_power(I, 4)
        for g in B.gens:
            assert P4.contains(g)
        assert not B.contains(P("x^2*y^2", "xy", 2))

    def test_q_one_is_identity(self):
        I = ideal(3, "xy", "2*x + y", "y^2")
        assert bracket_power(I, FrobeniusPower(3, 0)).gens == I.gens

    def test_wrong_characteristic(self):
        I = ideal(3, "xy", "x")
        with pytest.raises(DomainError):
            bracket_power(I, FrobeniusPower(5, 1))

    def test_multiplicative_over_products(self):
        rng = random.Random(7)
        dom = prime_field(3)

        def rand_poly():
            terms = {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(1, 2)
                     for _ in range(rng.randint(1, 3))}
            return Polynomial(dom, 2, terms)

        for _ in range(5):
            I = Ideal(dom, 2, [rand_poly()])
            J = Ideal(dom, 2, [rand_poly(), rand_poly()])
            q = FrobeniusPower(3, 1)
            lhs = bracket_power(ideal_product(I, J), q)
            rhs = ideal_product(bracket_power(I, q), bracket_power(J, q))
            assert lhs.equals(rhs)


class TestFrobeniusRoot:
    def test_pure_power(self):
        I = ideal(3, "x", "x^9")
        assert frobenius_root(I, FrobeniusPower(3, 1)).equals(ideal(3, "x", "x^3"))

    def test_basis_decomposition(self):
        # x^2 y^5 = (y)^3 * (x^2 y^2): the only coefficient polynomial is y
        I = ideal(3, "xy", "x^2*y^5")
        R = frobenius_root(I, FrobeniusPower(3, 1))
        assert R.equals(ideal(3, "xy", "y"))
        # root consistency: I subseteq R^[3]
        assert bracket_power(R, FrobeniusPower(3, 1)).contains(
            P("x^2*y^5", "xy", 3))
        # minimality: x^2 y^5 is not in J^[3] for the smaller J = (y^2)
        assert not bracket_power(ideal(3, "xy", "y^2"), FrobeniusPower(3, 1)) \
            .contains(P("x^2*y^5", "xy", 3))

    def test_inverse_on_bracket_powers(self):
        rng = random.Random(3)
        for _ in range(6):
            mono = {(rng.randint(0, 3), rng.randint(0, 3)): 1}
            J = Ideal(prime_field(2), 2, [Polynomial(prime_field(2), 2, mono)])
            q = FrobeniusPower(2, rng.randint(1, 3))
            assert frobenius_root(bracket_power(J, q), q).equals(J)

    def test_projection_formula(self):
        # frobenius_root(a^[q] I, q) = a * frobenius_root(I, q)
        rng = random.Random(11)
        dom = prime_field(3)
        q = FrobeniusPower(3, 1)

        def rand_poly():
            terms = {(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(1, 2)
                     for _ in range(rng.randint(1, 3))}
            return Polynomial(dom, 2, terms)

        for _ in range(6):
            a = Ideal(dom, 2, [rand_poly(), rand_poly()])
            I = Ideal(dom, 2, [rand_poly()])
            lhs = frobenius_root(ideal_product(bracket_power(a, q), I), q)
            rhs = ideal_product(a, frobenius_root(I, q))
            assert lhs.equals(rhs)

    def test_monotone(self):
        q = FrobeniusPower(3, 1)
        I = ideal(3, "xy", "x^3*y^4")
        J = ideal(3, "xy", "x^3*y^4", "x*y^7")
        rI, rJ = frobenius_root(I, q), frobenius_root(J, q)
        for g in rI.gens:
            assert rJ.contains(g)

    def test_iterated_roots_compose(self):
        I = ideal(2, "xy", "x^5*y^7 + x^4*y^2")
        r1 = frobenius_root(frobenius_root(I, FrobeniusPower(2, 1)),
                            FrobeniusPower(2, 1))
        r2 = frobenius_root(I, FrobeniusPower(2, 2))
        assert r1.equals(r2)

    @pytest.mark.parametrize("p,e,seed", [(2, 1, 0), (3, 1, 1), (3, 2, 2),
                                          (5, 1, 3)])
    def test_root_consistency_randomized(self, p, e, seed):
        # I subseteq (I^[1/q])^[q], and the root of anything smaller than
        # the computed one fails to contain some generator
        rng = random.Random(seed)
        dom = prime_field(p)
        q = FrobeniusPower(p, e)

        def rand_poly():
            terms = {(rng.randint(0, 2 * q.q), rng.randint(0, 2 * q.q)):
                     rng.randint(1, p - 1) for _ in range(rng.randint(1, 4))}
            return Polynomial(dom, 2, terms)

        for _ in range(5):
            I = Ideal(dom, 2, [rand_poly(), rand_poly()])
            if I.is_zero():
                continue
            root = frobenius_root(I, q)
            lifted = bracket_power(root, q)
            for g in I.gens:
                assert lifted.contains(g)


class TestEmbedIdealToLevel:
    def test_embedding(self):
        I = ideal(3, ["t", "x"], "t^2*x + t")
        embedded = embed_ideal_to_level(I, (0,), FrobeniusPower(3, 1), 1)
        assert embedded.gens == (P("t^6*x + t^3", ["t", "x"], 3),)

    def test_downward_refused(self):
        I = ideal(3, ["t", "x"], "t^2*x + t")
        with pytest.raises(DomainError):
            embed_ideal_to_level(I, (0,), FrobeniusPower(3, 1), -1)
