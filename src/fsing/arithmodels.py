"""Spreading out Q-defined data over Z[1/n], reducing modulo primes, and the
one perfected-base model k^{1/p^n} of an F_p(t..) input.

Denominators are cleared generator by generator; n is the lcm of every
cleared denominator, and a prime is good iff it does not divide n.
Flatness and normality of the model at a good prime are NOT verified;
certificates record them as assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .fcriteria import SFRResult, strongly_fregular
from .groebner import Budget, Ideal
from .polycore import Polynomial, _is_prime, prime_field
from .triples import DivisorData, RingPresentation, TripleSpec


class ReductionError(Exception):
    pass


def clear_denominators(f: Polynomial):
    """(f times its cleared denominator d, d): the lcm of the coefficient
    denominators."""
    if not f.domain.is_rational:
        raise ReductionError("only Q-coefficients can be spread out")
    den = lcm(*(Fraction(c).denominator for c in f.terms.values()))
    return f * den, den


@dataclass(frozen=True)
class ArithmeticModel:
    """A Z[1/n]-model of Q-defined input data, n = ``denominator``."""

    var_names: tuple
    integral_relations: tuple       # polynomials over Q with integer coefficients
    integral_divisor: DivisorData   # generators cleared, coefficients untouched
    integral_a: tuple
    denominator: int                # n: lcm of every cleared denominator
    origin: TripleSpec

    def good_prime(self, p: int) -> bool:
        return self.denominator % p != 0


def spread_out(spec: TripleSpec) -> ArithmeticModel:
    """Clear denominators of all generators; n is the lcm of them all."""
    ring = spec.ring
    if not ring.domain.is_rational:
        raise ReductionError("spread_out expects a Q-defined triple")
    dens = [1]

    def clear(g: Polynomial) -> Polynomial:
        cleared, den = clear_denominators(g)
        dens.append(den)
        return cleared

    rel = tuple(map(clear, ring.relations.gens))
    delta = spec.delta.map_components(clear)
    a_gens = tuple(map(clear, spec.a.gens))
    return ArithmeticModel(ring.var_names, rel, delta, a_gens, lcm(*dens),
                           spec)


def _reduce_poly(f: Polynomial, p: int) -> Polynomial:
    dom = prime_field(p)
    return Polynomial(dom, f.nvars,
                      {m: dom.from_fraction(c) for m, c in f.terms.items()})


def reduce_mod_p(model: ArithmeticModel, p: int) -> TripleSpec:
    """The fiber of the model over a good prime, as an F_p triple."""
    if not model.good_prime(p):
        raise ReductionError(f"prime {p} is excluded for this model")
    dom = prime_field(p)
    nvars = len(model.var_names)

    def reduce(what: str, g: Polynomial) -> Polynomial:
        r = _reduce_poly(g, p)
        if r.is_zero():
            raise ReductionError(
                what.format(g.to_string(model.var_names)) + f" vanishes mod {p}")
        return r

    rel = [reduce("relation {}", g) for g in model.integral_relations]
    delta = model.integral_divisor.map_components(
        lambda g: reduce("divisor component {}", g))
    a_gens = [reduce("generator of a ({})", g) for g in model.integral_a]
    ring = RingPresentation(model.var_names, dom, Ideal(dom, nvars, rel),
                            model.origin.ring.base_vars)
    return TripleSpec(ring, delta, Ideal(dom, nvars, a_gens), model.origin.lam)


def suggest_primes(model: ArithmeticModel):
    """The five smallest good primes (one good prime suffices)."""
    out = []
    p = 2
    while len(out) < 5:
        if _is_prime(p) and model.good_prime(p):
            out.append(p)
        p += 1
    return out


# ---------------------------------------------------------------------------
# Perfect-closure base change for geometric strong F-regularity.


def perfection_model(spec: TripleSpec, level: int) -> TripleSpec:
    """The k^{1/p^n} model, n = ``level``: substitute t_j -> s_j^{p^n} in
    all data.

    The base variables of the presentation are read as generators of the
    function field k = F_p(t_1..t_m); the returned triple presents the same
    object over F_p with the root variables occupying the base slots.
    """
    ring = spec.ring
    p = ring.domain.characteristic
    if level < 0:
        raise ReductionError("perfection level must be >= 0")
    if p == 0:
        raise ReductionError("perfection base change needs characteristic p")
    if not ring.base_vars:
        raise ReductionError("no designated base variables to perfect")
    if level == 0:
        return spec
    factor = p ** level

    def push(f: Polynomial) -> Polynomial:
        return f.scale_exponents(ring.base_vars, factor)

    new_ring = RingPresentation(
        ring.var_names, ring.domain,
        Ideal(ring.domain, ring.nvars, [push(g) for g in ring.relations.gens]),
        ring.base_vars)
    return TripleSpec(new_ring, spec.delta.map_components(push),
                      Ideal(ring.domain, ring.nvars,
                            [push(g) for g in spec.a.gens]),
                      spec.lam)


def geometric_sfr_check(spec: TripleSpec, level: int, c: Polynomial,
                        e_max: int, budget: Budget | None = None
                        ) -> tuple[TripleSpec, SFRResult]:
    """Strong F-regularity of the k^{1/p^n} model at the distinguished point:
    (the model that was checked, its result).

    A certificate at any level propagates to geometric strong F-regularity
    over the perfect closure.  The escape test ignores base-variable
    exponents (they are units of the function field k).  A relation with a
    term free of the fiber variables is refused: that term is a unit of k,
    so the point lies off the fiber and no verdict would mean anything.
    """
    ring = spec.ring
    fiber = ring.fiber_vars
    for g in ring.relations.gens:
        if any(not any(m[i] for i in fiber) for m in g.terms):
            raise ReductionError(
                f"relation {ring.to_string(g)} has a term free of the fiber "
                f"variables, so the point is off the fiber over F_p(t..)")
    model = perfection_model(spec, level)
    c_model = c.scale_exponents(ring.base_vars,
                                ring.domain.characteristic ** level)
    return model, strongly_fregular(model, c_model, e_max, budget,
                                    escape_indices=fiber)
