"""Groebner-basis kernel: reduction, Buchberger, membership, colon, intersection.

Buchberger runs with the sugar selection strategy and both classical pair
criteria (coprime leading monomials, chain criterion), with a deterministic
pair order so outputs are reproducible: pairs wait in a heap of distinct
(sugar, order key of the lcm, i, j) tuples.  A reduction-step budget guards
against runaway computations; exceeding it raises BudgetExceededError.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .polycore import (
    GREVLEX,
    DomainError,
    MonomialOrder,
    PolyError,
    Polynomial,
    elimination_order,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

DEFAULT_GB_BUDGET = 10**7


class BudgetExceededError(Exception):
    """A Groebner computation exceeded its reduction-step budget."""


@dataclass
class Budget:
    limit: int = DEFAULT_GB_BUDGET
    used: int = 0

    def tick(self, n: int = 1):
        self.used += n
        if self.used > self.limit:
            raise BudgetExceededError(
                f"reduction budget of {self.limit} steps exceeded")


def _ensure_budget(budget: Budget | None) -> Budget:
    return budget if budget is not None else Budget()


def divide(f: Polynomial, divisors, order: MonomialOrder = GREVLEX,
           budget: Budget | None = None, with_quotients: bool = False):
    """Multivariate division: f = sum q_i g_i + r with no term of r
    divisible by any lm(g_i).  Returns r, or (quotients, r).

    Leading terms are tracked with a lazy-deletion min-heap on heap keys;
    stale entries are skipped on pop.
    """
    budget = _ensure_budget(budget)
    dom = f.domain
    nvars = f.nvars
    divs = [g for g in divisors if g]
    lms = [g.leading_monomial(order) for g in divs]
    inv_lcs = [dom.inv(g.terms[m]) for g, m in zip(divs, lms)]
    quotients = [dict() for _ in divs] if with_quotients else None
    rem: dict = {}
    work = dict(f.terms)
    hkey = order.heap_key
    heap = [(hkey(m), m) for m in work]
    heapq.heapify(heap)
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        _, lm = pop(heap)
        if lm not in work:
            continue
        budget.tick()
        lc = work.pop(lm)
        for i, gm in enumerate(lms):
            if mono_divides(gm, lm):
                factor_m = mono_div(lm, gm)
                factor_c = dom.mul(lc, inv_lcs[i])
                if with_quotients:
                    q = quotients[i]
                    q[factor_m] = dom.add(q.get(factor_m, dom.zero()), factor_c)
                g = divs[i]
                for m2, c2 in g.terms.items():
                    if m2 == gm:
                        continue
                    m = mono_mul(factor_m, m2)
                    if m in work:
                        s = dom.sub(work[m], dom.mul(factor_c, c2))
                        if s == 0:
                            del work[m]
                        else:
                            work[m] = s
                    else:
                        s = dom.neg(dom.mul(factor_c, c2))
                        if s != 0:
                            work[m] = s
                            push(heap, (hkey(m), m))
                break
        else:
            rem[lm] = lc
    r = Polynomial(dom, nvars, rem, _clean=True)
    if with_quotients:
        qs = [Polynomial(dom, nvars, q, _clean=True) for q in quotients]
        return qs, r
    return r


def _s_poly(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    dom = f.domain
    fm, gm = f.leading_monomial(order), g.leading_monomial(order)
    lcm = mono_lcm(fm, gm)
    mf = Polynomial.monomial(f.domain, f.nvars, mono_div(lcm, fm),
                             dom.inv(f.terms[fm]))
    mg = Polynomial.monomial(g.domain, g.nvars, mono_div(lcm, gm),
                             dom.inv(g.terms[gm]))
    return mf * f - mg * g


def buchberger(gens, order: MonomialOrder = GREVLEX,
               budget: Budget | None = None):
    """Reduced Groebner basis of the ideal generated by ``gens``."""
    budget = _ensure_budget(budget)
    basis = [g.monic(order) for g in gens if g]
    if not basis:
        return ()
    basis.sort(key=lambda g: (order.key(g.leading_monomial(order)), g.sort_key()))

    lms = [g.leading_monomial(order) for g in basis]
    sugars = [g.total_degree() for g in basis]

    def pair_data(i, j):
        lcm = mono_lcm(lms[i], lms[j])
        sugar = sum(lcm) + max(sugars[i] - sum(lms[i]), sugars[j] - sum(lms[j]))
        return (sugar, order.key(lcm), i, j)

    # every (sugar, key, i, j) is distinct, so the heap pops pairs in the
    # same order as a scan for the minimum would
    pairs = [pair_data(i, j)
             for i in range(len(basis)) for j in range(i + 1, len(basis))]
    heapq.heapify(pairs)
    done = set()

    while pairs:
        pair_sugar, _, i, j = heapq.heappop(pairs)
        done.add((i, j))
        lcm = mono_lcm(lms[i], lms[j])
        # product criterion
        if lcm == mono_mul(lms[i], lms[j]):
            continue
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if mono_divides(lms[k], lcm):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a in done and b in done:
                    skip = True
                    break
        if skip:
            continue
        s = _s_poly(basis[i], basis[j], order)
        r = divide(s, basis, order, budget)
        if r:
            r = r.monic(order)
            new_index = len(basis)
            new_sugar = max(pair_sugar, r.total_degree())
            basis.append(r)
            lms.append(r.leading_monomial(order))
            sugars.append(new_sugar)
            for k in range(new_index):
                heapq.heappush(pairs, pair_data(k, new_index))
    return _reduce_basis(basis, order, budget)


def _reduce_basis(basis, order: MonomialOrder, budget: Budget):
    # minimalize: drop members whose lm is divisible by another lm
    basis = [g for g in basis if g]
    lms = [g.leading_monomial(order) for g in basis]
    keep = []
    for i, m in enumerate(lms):
        if any(j != i and mono_divides(lms[j], m)
               and (lms[j] != m or j < i) for j in range(len(basis))):
            continue
        keep.append(i)
    minimal = [basis[i] for i in keep]
    # tail-reduce each member against the others
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = divide(g, others, order, budget) if others else g
        if r:
            reduced.append(r.monic(order))
    reduced.sort(key=lambda g: order.key(g.leading_monomial(order)))
    return tuple(reduced)


# ---------------------------------------------------------------------------


class Ideal:
    """An ideal of a polynomial ring, with cached reduced Groebner bases."""

    __slots__ = ("domain", "nvars", "gens", "_gb_cache")

    def __init__(self, domain, nvars: int, gens):
        self.domain = domain
        self.nvars = nvars
        seen = set()
        cleaned = []
        for g in gens:
            if not isinstance(g, Polynomial):
                raise PolyError("ideal generators must be polynomials")
            if g.domain != domain or g.nvars != nvars:
                raise DomainError("generator lives in a different ring")
            if g.is_zero() or g in seen:
                continue
            seen.add(g)
            cleaned.append(g)
        cleaned.sort(key=lambda g: (GREVLEX.key(g.leading_monomial(GREVLEX)),
                                    g.sort_key()))
        self.gens = tuple(cleaned)
        self._gb_cache = {}

    @classmethod
    def from_polys(cls, polys):
        polys = list(polys)
        if not polys:
            raise PolyError("cannot infer the ring of an empty generator list")
        return cls(polys[0].domain, polys[0].nvars, polys)

    @classmethod
    def zero(cls, domain, nvars):
        return cls(domain, nvars, ())

    def is_zero(self) -> bool:
        return not self.gens

    def unit_test_poly(self) -> Polynomial:
        return Polynomial.constant(self.domain, self.nvars, 1)

    def is_unit(self, budget: Budget | None = None) -> bool:
        return self.contains(self.unit_test_poly(), budget=budget)

    def groebner_basis(self, order: MonomialOrder = GREVLEX,
                       budget: Budget | None = None):
        token = order.cache_token()
        if token not in self._gb_cache:
            self._gb_cache[token] = buchberger(self.gens, order, budget)
        return self._gb_cache[token]

    def normal_form(self, f: Polynomial, order: MonomialOrder = GREVLEX,
                    budget: Budget | None = None) -> Polynomial:
        gb = self.groebner_basis(order, budget)
        if not gb:
            return f
        return divide(f, gb, order, budget)

    def contains(self, f: Polynomial, budget: Budget | None = None) -> bool:
        if f.is_zero():
            return True
        if self.is_zero():
            return False
        return self.normal_form(f, GREVLEX, budget).is_zero()

    def __contains__(self, f: Polynomial) -> bool:
        return self.contains(f)

    def contains_ideal(self, other: "Ideal", budget: Budget | None = None) -> bool:
        return all(self.contains(g, budget) for g in other.gens)

    def equals(self, other: "Ideal", budget: Budget | None = None) -> bool:
        return self.contains_ideal(other, budget) and other.contains_ideal(self, budget)

    def __repr__(self):
        gens = ", ".join(g.to_string() for g in self.gens) or "0"
        return f"Ideal({self.domain}; {gens})"


# ---------------------------------------------------------------------------
# Spec-level operations.


def groebner_basis(I: Ideal, order: MonomialOrder = GREVLEX,
                   budget: Budget | None = None):
    return I.groebner_basis(order, budget)


def ideal_membership(f: Polynomial, I: Ideal,
                     budget: Budget | None = None) -> bool:
    return I.contains(f, budget)


def _prepend_variable(f: Polynomial, t_exponent: int = 0) -> Polynomial:
    terms = {(t_exponent,) + m: c for m, c in f.terms.items()}
    return Polynomial(f.domain, f.nvars + 1, terms, _clean=True)


def intersection(I: Ideal, J: Ideal, budget: Budget | None = None) -> Ideal:
    """I cap J via the single-tag-variable elimination trick."""
    if I.is_zero() or J.is_zero():
        return Ideal.zero(I.domain, I.nvars)
    dom, n = I.domain, I.nvars
    t_only = Polynomial.variable(dom, n + 1, 0)
    one = Polynomial.constant(dom, n + 1, 1)
    gens = [t_only * _prepend_variable(g) for g in I.gens]
    gens += [(one - t_only) * _prepend_variable(g) for g in J.gens]
    order = elimination_order(1)
    gb = buchberger(gens, order, budget)
    kept = [g.drop_variables([0]) for g in gb
            if all(m[0] == 0 for m in g.terms)]
    return Ideal(dom, n, kept)


def _colon_by_element(I: Ideal, f: Polynomial, budget: Budget | None = None) -> Ideal:
    if f.is_zero():
        raise PolyError("colon by the zero element")
    meet = intersection(I, Ideal(I.domain, I.nvars, [f]), budget)
    quotients = []
    for g in meet.gens:
        qs, r = divide(g, [f], GREVLEX, budget, with_quotients=True)
        if not r.is_zero():
            raise PolyError("exact division failed in colon computation")
        quotients.append(qs[0])
    return Ideal(I.domain, I.nvars, quotients)


def colon_ideal(I: Ideal, J: Ideal, budget: Budget | None = None) -> Ideal:
    """(I : J) = {f : f*J subseteq I}."""
    if J.is_zero():
        raise PolyError("colon by the zero ideal")
    result = None
    for f in J.gens:
        part = _colon_by_element(I, f, budget)
        result = part if result is None else intersection(result, part, budget)
    return result


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    return Ideal(I.domain, I.nvars, I.gens + J.gens)


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    gens = [f * g for f in I.gens for g in J.gens]
    return Ideal(I.domain, I.nvars, gens)


def ideal_power(I: Ideal, n: int) -> Ideal:
    """I^n, generated by the degree-n products of the generators."""
    if n < 0:
        raise PolyError("negative ideal power")
    if n == 0:
        return Ideal(I.domain, I.nvars, [Polynomial.constant(I.domain, I.nvars, 1)])
    gens = I.gens
    if len(gens) == 1:
        return Ideal(I.domain, I.nvars, [gens[0] ** n])
    pow_cache = [{0: Polynomial.constant(I.domain, I.nvars, 1)} for _ in gens]

    def gen_power(i: int, k: int) -> Polynomial:
        cache = pow_cache[i]
        if k not in cache:
            top = max(cache)
            acc = cache[top]
            for j in range(top + 1, k + 1):
                acc = acc * gens[i]
                cache[j] = acc
        return cache[k]

    out = []
    for comp in _compositions(n, len(gens)):
        f = None
        for i, k in enumerate(comp):
            if k == 0:
                continue
            f = gen_power(i, k) if f is None else f * gen_power(i, k)
        out.append(f)
    return Ideal(I.domain, I.nvars, out)


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def ideal_ops(I: Ideal, J: Ideal, op: str, budget: Budget | None = None):
    if op == "sum":
        return ideal_sum(I, J)
    if op == "product":
        return ideal_product(I, J)
    if op == "intersection":
        return intersection(I, J, budget)
    if op == "equality":
        return I.equals(J, budget)
    raise ValueError(f"unknown ideal operation {op!r}")


def eliminate(I: Ideal, k: int, budget: Budget | None = None) -> Ideal:
    """Intersection with the subring omitting the first k variables."""
    gb = I.groebner_basis(elimination_order(k), budget)
    kept = [g for g in gb if all(all(e == 0 for e in m[:k]) for m in g.terms)]
    return Ideal(I.domain, I.nvars, kept)
