"""Spreading out Q-defined data over Z[1/n], reducing modulo primes, and the
one perfected-base model k^{1/p^n} of an F_p(t..) input.

Denominators are cleared generator by generator; every prime dividing a
cleared denominator is excluded.  Flatness and normality of the model at a
non-excluded prime are NOT verified; certificates record them as
assumptions.
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


def _prime_factors(n: int):
    n = abs(int(n))
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def clear_denominators(f: Polynomial):
    """(integral polynomial, excluded primes of the cleared denominator)."""
    if not f.domain.is_rational:
        raise ReductionError("only Q-coefficients can be spread out")
    cleared = f * lcm(*(Fraction(c).denominator for c in f.terms.values()))
    primes = set()
    for c in f.terms.values():
        primes |= _prime_factors(Fraction(c).denominator)
    return cleared, primes


@dataclass(frozen=True)
class ArithmeticModel:
    """A Z[1/n]-model of Q-defined input data."""

    var_names: tuple
    integral_relations: tuple       # polynomials over Q with integer coefficients
    integral_divisor: DivisorData   # generators cleared, coefficients untouched
    integral_a: tuple
    excluded_primes: frozenset
    origin: TripleSpec

    def good_prime(self, p: int) -> bool:
        return p not in self.excluded_primes


def spread_out(spec: TripleSpec) -> ArithmeticModel:
    """Clear denominators of all generators; collect excluded primes."""
    ring = spec.ring
    if not ring.domain.is_rational:
        raise ReductionError("spread_out expects a Q-defined triple")
    excluded = set()
    rel = []
    for g in ring.relations.gens:
        cleared, primes = clear_denominators(g)
        rel.append(cleared)
        excluded |= primes
    div_comps = []
    for g, c in spec.delta.components:
        cleared, primes = clear_denominators(g)
        div_comps.append((cleared, c))
        excluded |= primes
    a_gens = []
    for g in spec.a.gens:
        cleared, primes = clear_denominators(g)
        a_gens.append(cleared)
        excluded |= primes
    return ArithmeticModel(ring.var_names, tuple(rel),
                           DivisorData(tuple(div_comps)), tuple(a_gens),
                           frozenset(excluded), spec)


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
    rel = []
    for g in model.integral_relations:
        r = _reduce_poly(g, p)
        if r.is_zero():
            raise ReductionError(
                f"relation {g.to_string(model.var_names)} vanishes mod {p}")
        rel.append(r)
    comps = []
    for g, c in model.integral_divisor.components:
        r = _reduce_poly(g, p)
        if r.is_zero():
            raise ReductionError(
                f"divisor component {g.to_string(model.var_names)} vanishes mod {p}")
        comps.append((r, c))
    a_gens = []
    for g in model.integral_a:
        r = _reduce_poly(g, p)
        if r.is_zero():
            raise ReductionError(
                f"generator of a ({g.to_string(model.var_names)}) vanishes mod {p}")
        a_gens.append(r)
    ring = RingPresentation(model.var_names, dom, Ideal(dom, nvars, rel),
                            model.origin.ring.base_vars)
    a = Ideal(dom, nvars, a_gens) if a_gens else Ideal(
        dom, nvars, [Polynomial.constant(dom, nvars, 1)])
    return TripleSpec(ring, DivisorData(tuple(comps)), a, model.origin.lam)


def suggest_primes(model: ArithmeticModel):
    """The five smallest non-excluded primes (one good prime suffices)."""
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
