"""Groebner-basis kernel: reduction, Buchberger, membership, colon, intersection.

Inside the kernel every monomial is one int in the packed encoding of
``polycore.Packing``: a product is an addition, divisibility a mask test and
the order a comparison of linear keys.  ``divide`` packs its dividend, and
each divisor caches its packed data (leading monomial, inverse leading
coefficient, tail; ``Polynomial.packed``).  ``buchberger`` works on packed
members and unpacks only the reduced basis it returns, whose members carry
their packed data; ``eliminate``, and so ``intersection``, finalises only
the members free of the eliminated block.  The field width fits the inputs'
degrees (at least 15 bits); a sum that overflows a field sets its guard bit,
and the call is redone with doubled width from the budget it started with,
so results and step counts never depend on the width.

Buchberger runs with the sugar selection strategy and both classical pair
criteria (coprime leading monomials, chain criterion); pairs wait in a heap
of distinct (sugar, -key of the lcm, i, j) tuples, so outputs are
reproducible.  A reduction-step budget guards against runaway computations;
exceeding it raises BudgetExceededError.
"""

from __future__ import annotations

import heapq
from bisect import bisect, insort
from dataclasses import dataclass
from itertools import groupby

from .polycore import (
    GREVLEX,
    DomainError,
    MonomialOrder,
    Packing,
    PackingOverflow,
    PolyError,
    Polynomial,
    elimination_order,
)

DEFAULT_GB_BUDGET = 10**7


class BudgetExceededError(Exception):
    """A Groebner computation exceeded its reduction-step budget."""


@dataclass
class Budget:
    limit: int = DEFAULT_GB_BUDGET
    used: int = 0

    def tick(self):
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceededError(
                f"reduction budget of {self.limit} steps exceeded")


# Smallest packed field width; the kernel widens it for inputs of larger
# degree, and doubles it whenever a computation overflows it.
_MIN_WIDTH = 15


def _widening(budget: Budget, width: int, attempt):
    """attempt(width), re-run with doubled width after a packing overflow;
    each re-run starts from the same budget, so step counts do not depend
    on the width."""
    used = budget.used
    while True:
        try:
            return attempt(width)
        except PackingOverflow:
            budget.used = used
            width *= 2


def _width(degree: int) -> int:
    """The field width for inputs of at most this total degree."""
    return max(_MIN_WIDTH, degree.bit_length())


def divide(f: Polynomial, divisors, order: MonomialOrder = GREVLEX,
           budget: Budget | None = None, with_quotients: bool = False):
    """Multivariate division: f = sum q_i g_i + r with no term of r
    divisible by any lm(g_i).  Returns r, or (quotients, r).
    """
    budget = Budget() if budget is None else budget
    dom = f.domain
    divs = [g for g in divisors if g]

    def attempt(width):
        packing = order.packing(f.nvars, width)
        data = [g.packed(packing) for g in divs]
        pack = packing.pack
        work = {pack(m): c for m, c in f.terms.items()}
        quotients = [{} for _ in divs] if with_quotients else None
        rem = _reduce(work, data, packing, dom, budget, quotients)
        return packing, rem, quotients

    packing, rem, quotients = _widening(budget, _width(f.total_degree()),
                                          attempt)
    r = packing.polynomial(dom, rem)
    if with_quotients:
        return [packing.polynomial(dom, q.items()) for q in quotients], r
    return r


def _reduce(work: dict, divs, packing: Packing, dom, budget: Budget,
            quotients=None, index=None) -> list:
    """Reduce packed terms by packed divisors (see Polynomial.packed).

    ``work`` maps each packed monomial to its coefficient and is consumed.
    Returns the remainder as (monomial, coefficient) pairs from the leading
    term down.  Each live term has a min-heap entry ``(key << W) | m``, its
    key (``Packing.key``, inlined) above its monomial m in the packing's W
    bits, so the largest monomial pops first; a cancelled term's entry stays
    behind, and the loop ends once ``work`` is empty.  Each live pop is one
    budget step.  ``index`` lists (leading monomial, i) for each divisor i
    in ascending order (built when not given): only ``lm <= m`` can divide
    m, so the scan stops at the first larger lm, and m is reduced by the
    dividing divisor of least i, the first in list order.  ``quotients[i]``
    collects the factors of divisor i by packed monomial.
    """
    if index is None:
        index = sorted((d[0], i) for i, d in enumerate(divs))
    p = dom.p
    guard, dm = packing.guard, packing.deg_mask
    shift = guard.bit_length()
    low = (1 << shift) - 1
    none = len(divs)
    heap = [((m - ((m & dm) << 1)) << shift) | m for m in work]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    rem = []
    while work:
        m = pop(heap) & low
        c = work.pop(m, None)
        if c is None:
            continue
        budget.tick()
        mg = m | guard
        i = none
        for gm, k in index:
            if gm > m:
                break
            if k < i and (mg - gm) & guard == guard:
                i = k
        if i == none:
            rem.append((m, c))
            continue
        gm, inv, tail = divs[i]
        fm = m - gm
        fc = c * inv % p if p else c * inv
        if quotients is not None:
            # m - gm differs for each live m, so fm is new here
            quotients[i][fm] = fc
        nfc = -fc
        for m2, c2 in tail:
            m2 += fm
            w = work.get(m2)
            if w is None:
                if m2 & guard:
                    raise PackingOverflow
                work[m2] = nfc * c2 % p if p else nfc * c2
                push(heap, ((m2 - ((m2 & dm) << 1)) << shift) | m2)
            else:
                s = (w + nfc * c2) % p if p else w + nfc * c2
                if s:
                    work[m2] = s
                else:
                    del work[m2]
    return rem


def _monic(rem: list, dom):
    """The packed divisor data of a remainder scaled to leading coefficient
    one."""
    p = dom.p
    lm, lc = rem[0]
    inv = dom.inv(lc)
    return (lm, dom.one(),
            [(P, c * inv % p if p else c * inv) for P, c in rem[1:]])


def _s_poly(f, g, lcm: int, packing: Packing, p) -> dict:
    """Work terms of the S-polynomial of two monic packed members."""
    guard = packing.guard
    work = {}
    # lcm/lm(f) * f - lcm/lm(g) * g; the leading terms cancel
    for (lm, _, tail), sign in ((f, 1), (g, -1)):
        u = lcm - lm
        for m2, c2 in tail:
            m2 += u
            w = work.get(m2)
            if w is None:
                if m2 & guard:
                    raise PackingOverflow
                work[m2] = sign * c2 % p if p else sign * c2
            else:
                s = (w + sign * c2) % p if p else w + sign * c2
                if s:
                    work[m2] = s
                else:
                    del work[m2]
    return work


def buchberger(gens, order: MonomialOrder = GREVLEX,
               budget: Budget | None = None):
    """Reduced Groebner basis of the ideal generated by ``gens``."""
    return _groebner(gens, order, budget, 0)


def _groebner(gens, order: MonomialOrder, budget: Budget | None,
              block: int):
    """The members of the reduced basis of ``gens`` in ``order`` free of
    the first ``block`` variables, which ``order`` must eliminate.  Only
    they are finalised: their terms are free of the block too, so only they
    divide them, and they come out as within the full reduced basis."""
    return _packed_run(gens, order, budget, lambda basis, packing, budget:
                       _buchberger(basis, packing, budget, block))


def _interreduced(gens, budget: Budget | None):
    """The reduced grevlex basis of ``gens``, which must be a grevlex
    Groebner basis: one ``_reduce_basis`` pass, no S-pair."""
    return _packed_run(gens, GREVLEX, budget, lambda basis, packing, budget:
                       _reduce_basis([g.packed(packing) for g in basis],
                                     packing, basis[0].domain, budget))


def _packed_run(gens, order: MonomialOrder, budget: Budget | None, run):
    """run(basis, packing, budget) on the monic nonzero ``gens`` sorted in
    ``order``, at a width that fits them (see ``_widening``); () when
    there are none."""
    budget = Budget() if budget is None else budget
    basis = _sorted([g.monic(order) for g in gens if g], order)
    if not basis:
        return ()
    nvars = basis[0].nvars
    width = _width(max(g.total_degree() for g in basis))
    return _widening(budget, width, lambda width: run(
        basis, order.packing(nvars, width), budget))


def _buchberger(basis, packing: Packing, budget: Budget, block: int):
    """Buchberger on monic packed members; see ``_groebner``."""
    dom = basis[0].domain
    p, guard, pack = dom.p, packing.guard, packing.pack
    members = [g.packed(packing) for g in basis]
    lms = [d[0] for d in members]
    index = sorted((m, i) for i, m in enumerate(lms))
    lm_tuples = [g.leading_monomial(packing.order) for g in basis]
    sugars = [g.total_degree() for g in basis]

    def pair_data(i, j):
        a, b = lm_tuples[i], lm_tuples[j]
        lcm = tuple(map(max, a, b))
        packed_lcm = pack(lcm)
        if packed_lcm & guard:
            raise PackingOverflow
        sugar = sum(lcm) + max(sugars[i] - sum(a), sugars[j] - sum(b))
        # -key orders like order.key, and every (sugar, -key, i, j) is
        # distinct, so the heap pops pairs in the order of a scan for the
        # minimum
        return (sugar, -packing.key(packed_lcm), i, j, packed_lcm)

    pairs = [pair_data(i, j)
             for i in range(len(members)) for j in range(i + 1, len(members))]
    heapq.heapify(pairs)
    done = set()

    while pairs:
        pair_sugar, _, i, j, lcm = heapq.heappop(pairs)
        done.add((i, j))
        # product criterion
        if lcm == lms[i] + lms[j]:
            continue
        # chain criterion
        lcm_g = lcm | guard
        skip = False
        for k, km in enumerate(lms):
            if k == i or k == j:
                continue
            if (lcm_g - km) & guard == guard:
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a in done and b in done:
                    skip = True
                    break
        if skip:
            continue
        work = _s_poly(members[i], members[j], lcm, packing, p)
        rem = _reduce(work, members, packing, dom, budget, index=index)
        if rem:
            new_index = len(members)
            members.append(_monic(rem, dom))
            lms.append(rem[0][0])
            insort(index, (rem[0][0], new_index))
            lm_tuples.append(packing.unpack(rem[0][0]))
            sugars.append(max(pair_sugar,
                              max(packing.degree(P) for P, _ in rem)))
            for k in range(new_index):
                heapq.heappush(pairs, pair_data(k, new_index))
    return _reduce_basis([d for d, m in zip(members, lm_tuples)
                          if not any(m[:block])], packing, dom, budget)


def _reduce_basis(members, packing: Packing, dom, budget: Budget):
    """The reduced basis of the monic packed members of a Groebner basis,
    in one pass in ascending order: a member is dropped when a kept leading
    monomial divides its own, else its tail is reduced by the kept members,
    reduced already and, being below it, the only ones that can divide a
    term of it; so its remainder starts with (lm, 1)."""
    guard, one = packing.guard, dom.one()
    kept, index, out = [], [], []
    # ascending in the order: descending in the key; stable, so of equal
    # leading monomials the first is kept
    for d in sorted(members, key=lambda d: -packing.key(d[0])):
        lm = d[0]
        # a divisor's packed monomial is never larger than its multiple's
        if any(((lm | guard) - gm) & guard == guard
               for gm, _ in index[:bisect(index, (lm + 1,))]):
            continue
        if kept:    # the smallest member is reduced already
            work = dict(d[2])
            work[lm] = one
            d = (lm, one, _reduce(work, kept, packing, dom, budget,
                                  index=index)[1:])
        insort(index, (lm, len(kept)))
        kept.append(d)
        # its Polynomial, its divisor data cached
        out.append(packing.polynomial(dom, [(lm, one)] + d[2], d))
    return tuple(out)


def _sorted(gens, order: MonomialOrder, distinct: bool = False) -> list:
    """``gens`` sorted by (key of the leading monomial in ``order``,
    sort_key()); with ``distinct``, each polynomial kept once, at its first
    occurrence.  ``sort_key()`` is needed, and computed, only inside runs of
    equal leading monomials."""
    gens = sorted(gens, key=lambda g: order.key(g.leading_monomial(order)))
    out = []
    for _, run in groupby(gens, key=lambda g: g.leading_monomial(order)):
        run = list(run)
        if len(run) > 1:
            run.sort(key=Polynomial.sort_key)   # stable: first occurrence first
            if distinct:
                run = [g for k, g in enumerate(run)
                       if k == 0 or g != run[k - 1]]
        out.extend(run)
    return out


# ---------------------------------------------------------------------------


class Ideal:
    """An ideal of a polynomial ring, with cached reduced Groebner bases."""

    __slots__ = ("domain", "nvars", "gens", "_gb_cache")

    def __init__(self, domain, nvars: int, gens):
        self.domain = domain
        self.nvars = nvars
        cleaned = []
        for g in gens:
            if not isinstance(g, Polynomial):
                raise PolyError("ideal generators must be polynomials")
            if g.domain != domain or g.nvars != nvars:
                raise DomainError("generator lives in a different ring")
            if not g.is_zero():
                cleaned.append(g)
        self.gens = tuple(_sorted(cleaned, GREVLEX, distinct=True))
        self._gb_cache = {}

    @classmethod
    def from_polys(cls, polys):
        polys = list(polys)
        if not polys:
            raise PolyError("cannot infer the ring of an empty generator list")
        return cls(polys[0].domain, polys[0].nvars, polys)

    @classmethod
    def reduced(cls, gens, budget: Budget | None = None) -> "Ideal":
        """The ideal generated by the reduced grevlex basis of ``gens``,
        which it keeps as its grevlex basis."""
        gb = buchberger(gens, GREVLEX, budget)
        ideal = cls.from_polys(gb or gens)
        ideal._gb_cache[GREVLEX.cache_token()] = gb
        return ideal

    @classmethod
    def zero(cls, domain, nvars):
        return cls(domain, nvars, ())

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self, budget: Budget | None = None) -> bool:
        return self.contains(Polynomial.constant(self.domain, self.nvars, 1),
                             budget=budget)

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


def _prepend_variable(f: Polynomial) -> Polynomial:
    return Polynomial(f.domain, f.nvars + 1,
                      {(0,) + m: c for m, c in f.terms.items()}, _clean=True)


def intersection(I: Ideal, J: Ideal, budget: Budget | None = None) -> Ideal:
    """I cap J via the single-tag-variable elimination trick."""
    if I.is_zero() or J.is_zero():
        return Ideal.zero(I.domain, I.nvars)
    dom, n = I.domain, I.nvars
    t_only = Polynomial.variable(dom, n + 1, 0)
    one = Polynomial.constant(dom, n + 1, 1)
    gens = [t_only * _prepend_variable(g) for g in I.gens]
    gens += [(one - t_only) * _prepend_variable(g) for g in J.gens]
    meet = _groebner(gens, elimination_order(1), budget, 1)
    return Ideal(dom, n, [g.drop_variables([0]) for g in meet])


def colon_ideal(I: Ideal, J: Ideal, budget: Budget | None = None) -> Ideal:
    """(I : J) = {g : g*J subseteq I}.  Starting from P = (1), each
    generator f of J in turn restricts P to {g in P : g*f in I}, which is
    (I cap f*P) / f: g*f lies in f*P iff g lies in P, f being a
    nonzerodivisor (Cox-Little-O'Shea, section 4.4).  P is carried as the
    reduced basis of I cap f*P, whose members are f times P's: the next
    generator f' meets I with the exact quotients f'*g / f, and only the
    last meet is divided by its generator.  For a principal J the
    generators are those quotients.  Otherwise they already form a
    Groebner basis, as lm(f*h) = lm(f)*lm(h), and are returned as the
    reduced grevlex basis."""
    if J.is_zero():
        raise PolyError("colon by the zero ideal")
    meet, prev = [Polynomial.constant(I.domain, I.nvars, 1)], None
    for f in J.gens:
        gens = [f * g if prev is None else _exact_quotient(f * g, prev, budget)
                for g in meet]
        meet = intersection(I, Ideal(I.domain, I.nvars, gens), budget).gens
        prev = f
    P = [_exact_quotient(g, prev, budget) for g in meet]
    if len(J.gens) > 1:
        P = _interreduced(P, budget)
    return Ideal(I.domain, I.nvars, P)


def _exact_quotient(g: Polynomial, f: Polynomial,
                    budget: Budget | None) -> Polynomial:
    qs, r = divide(g, [f], GREVLEX, budget, with_quotients=True)
    if not r.is_zero():
        raise PolyError("exact division failed in colon computation")
    return qs[0]


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
    if len(gens) <= 1:   # (g)^n = (g^n), and 0^n = 0
        return Ideal(I.domain, I.nvars, [g ** n for g in gens])
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
    """Intersection with the subring omitting the first k variables (see
    ``_groebner``); it is no full basis, so nothing is cached on I."""
    return Ideal(I.domain, I.nvars,
                 _groebner(I.gens, elimination_order(k), budget, k))
