"""Shared domain types: ring presentations, divisor data, triples.

A RingPresentation is an ambient polynomial ring together with a relations
ideal, presenting R = P/I, plus an optional designated block of base
variables (the coefficient subring A for relative constructions).  The
distinguished maximal ideal is always the irrelevant one generated by all
variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .groebner import Ideal
from .polycore import CoefficientDomain, Polynomial


class PresentationError(Exception):
    pass


@dataclass(frozen=True)
class RingPresentation:
    var_names: tuple
    domain: CoefficientDomain
    relations: Ideal
    base_vars: tuple = ()

    def __post_init__(self):
        if self.relations.domain != self.domain or self.relations.nvars != self.nvars:
            raise PresentationError("relations live in a different ring")
        for g in self.relations.gens:
            if g.constant_term() != 0:
                raise PresentationError(
                    "relations must vanish at the distinguished point")
        if any(not 0 <= i < self.nvars for i in self.base_vars):
            raise PresentationError("base variable index out of range")

    @property
    def nvars(self) -> int:
        return len(self.var_names)

    @property
    def fiber_vars(self) -> tuple:
        base = set(self.base_vars)
        return tuple(i for i in range(self.nvars) if i not in base)

    @property
    def is_regular_ambient(self) -> bool:
        return self.relations.is_zero()

    def variable(self, index: int) -> Polynomial:
        return Polynomial.variable(self.domain, self.nvars, index)

    def constant(self, value) -> Polynomial:
        return Polynomial.constant(self.domain, self.nvars, value)

    def parse(self, text: str) -> Polynomial:
        from .polycore import parse_polynomial

        return parse_polynomial(text, self.var_names, self.domain)

    def ideal(self, gens) -> Ideal:
        return Ideal(self.domain, self.nvars, gens)

    def to_string(self, f: Polynomial) -> str:
        return f.to_string(self.var_names)


def polynomial_ring(var_names, domain: CoefficientDomain,
                    base_vars=()) -> RingPresentation:
    names = tuple(var_names)
    return RingPresentation(names, domain,
                            Ideal(domain, len(names), ()),
                            tuple(base_vars))


def quotient_ring(var_names, domain: CoefficientDomain, relations,
                  base_vars=()) -> RingPresentation:
    names = tuple(var_names)
    return RingPresentation(names, domain,
                            Ideal(domain, len(names), list(relations)),
                            tuple(base_vars))


@dataclass(frozen=True)
class DivisorData:
    """Effective Q-divisor as a formal sum of c_i * div(g_i)."""

    components: tuple = ()

    def __post_init__(self):
        comps = []
        for g, c in self.components:
            c = Fraction(c)
            if c < 0:
                raise PresentationError("divisor coefficients must be >= 0")
            if g.is_zero():
                raise PresentationError("divisor component defined by zero")
            if c == 0:
                continue
            comps.append((g, c))
        object.__setattr__(self, "components", tuple(comps))

    def index_denominator(self) -> int:
        """lcm of the coefficient denominators (the Cartier-index datum)."""
        return lcm(*(c.denominator for _, c in self.components))

    def map_components(self, fn) -> "DivisorData":
        return DivisorData(tuple((fn(g), c) for g, c in self.components))


def divisor(components) -> DivisorData:
    return DivisorData(tuple(components))


TRIVIAL_DIVISOR = DivisorData(())


@dataclass(frozen=True)
class TripleSpec:
    """(R, Delta, a, lambda): the object all checkers consume."""

    ring: RingPresentation
    delta: DivisorData = TRIVIAL_DIVISOR
    a: Ideal | None = None
    lam: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))
        if self.a is None:
            object.__setattr__(self, "a", Ideal(
                self.ring.domain, self.ring.nvars, [self.ring.constant(1)]))
        if self.lam <= 0:
            raise PresentationError("lambda must be positive")
        for g, _ in self.delta.components:
            if g.domain != self.ring.domain or g.nvars != self.ring.nvars:
                raise PresentationError("divisor component in a different ring")
        if self.a.domain != self.ring.domain or self.a.nvars != self.ring.nvars:
            raise PresentationError("ideal a lives in a different ring")
        if self.a.is_zero():
            raise PresentationError("the ideal a must be nonzero")
        if not self.ring.relations.is_zero():
            if all(self.ring.relations.contains(g) for g in self.a.gens):
                raise PresentationError("a is contained in the relations ideal")

    @property
    def a_is_trivial(self) -> bool:
        return any(g.is_constant() and not g.is_zero() for g in self.a.gens)

    def index_denominator(self) -> int:
        """Denominator data gating test-ideal logic: lcm over Delta and lambda."""
        return lcm(self.delta.index_denominator(), self.lam.denominator)
