"""Sharp F-purity and strong F-regularity checkers.

Two independent routes decide splitting questions for a triple
(R, Delta, a^lambda) at the irrelevant maximal ideal of R = P/I:

* a colon-ideal criterion: splitting at exponent e holds iff some witness
  d = prod g_i^{ceil(c_i (q-1))} * (product of a-generators of total weight
  ceil(lambda (q-1))) satisfies d * (I^[q] : I) not subseteq m^[q];

* a definitional splitting oracle for graded inputs, which sets up the
  equation psi(d) = 1 on a p^{-e}-linear map psi as an exact linear system
  over F_p and solves it.

Negative strong F-regularity verdicts are never emitted: failure to certify
up to e_max is reported as inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from heapq import heapify, heappop, heappush
from itertools import combinations, combinations_with_replacement, product
from math import gcd, lcm
from operator import add, mul

from .groebner import Budget, Ideal, colon_ideal
from .polycore import GREVLEX, DomainError, Polynomial, PolyError, ceil_frac
from .frobenius import FrobeniusPower, bracket_power
from .triples import DivisorData, RingPresentation, TripleSpec

# re-exported domain types live here per the module map
__all__ = [
    "RingPresentation",
    "DivisorData",
    "TripleSpec",
    "nu_value",
    "sharply_fpure",
    "strongly_fregular",
    "splitting_oracle",
    "fpt_lower_bound",
    "suggest_test_elements",
    "FPurityResult",
    "SFRResult",
    "SplittingOracleResult",
    "NonGradedError",
    "find_positive_grading",
    "ring_dimension",
    "complete_intersection",
    "singular_locus_ideal",
]


class NonGradedError(Exception):
    pass


def _truncate(f: Polynomial, q: int, indices=None) -> Polynomial:
    """f mod m^[q], for m the ideal of the given variables (all by default):
    f without its terms that have an exponent >= q in one of them.

    m^[q] = (x_i^q) is a monomial ideal and a product only raises exponents,
    so (f * g) mod m^[q] = ((f mod m^[q]) * (g mod m^[q])) mod m^[q]: every
    question "does this product escape m^[q]?" can be asked of truncated
    operands.
    """
    if indices is None:
        terms = {m: c for m, c in f.terms.items() if max(m, default=0) < q}
    else:
        terms = {m: c for m, c in f.terms.items()
                 if all(m[i] < q for i in indices)}
    return Polynomial(f.domain, f.nvars, terms, _clean=True)


def _escaping_monomial(f: Polynomial, q: int, indices=None):
    """The least exponent tuple of a term of f outside m^[q]; None when f
    lies in m^[q]."""
    return min(_truncate(f, q, indices).terms, default=None)


def _power_mod(f: Polynomial, t: int, power: FrobeniusPower, indices=None,
               small=None) -> Polynomial:
    """f^t mod m^[q], q = p^e, as the product over the base-p digits t_i of t
    of (f^(t_i))^[p^i], truncated after each product.

    The coefficients lie in F_p, so g^(p^i) = g^[p^i]; and a term of f^(t_i)
    with an exponent >= ceil(q / p^i) lands in m^[q] once its exponents are
    scaled by p^i, so it is dropped first.  ``small`` caches f^k, reduced
    mod m^[q] or not, for the digits k < p; a caller may share it between
    calls on one f.
    """
    small = {} if small is None else small
    p, q = power.p, power.q
    out = None
    step = 1
    while t and (out is None or out):
        t, k = divmod(t, p)
        if k:
            if k not in small:
                small[k] = _truncate(f ** k, q, indices)
            g = _truncate(small[k], -(-q // step), indices)
            if step > 1:
                g = g.frobenius_power(step)
            out = g if out is None else _truncate(out * g, q, indices)
        step *= p
    return Polynomial.constant(f.domain, f.nvars, 1) if out is None else out


# ---------------------------------------------------------------------------
# nu and F-pure threshold bookkeeping.


def nu_value(f: Polynomial, e: int) -> int:
    """Largest t >= 0 with f^t not in m^[p^e], for m = (all variables)."""
    p = f.domain.characteristic
    if p == 0:
        raise DomainError("nu_value requires positive characteristic")
    if e < 1:
        raise ValueError("e must be >= 1")
    if f.constant_term() != 0:
        raise PolyError("nu_value requires f in the maximal ideal")
    power = FrobeniusPower(p, e)
    small: dict = {}
    # binary search on the monotone predicate "f^t in m^[q]"; f^0 = 1
    # escapes, and f^q = f^[q] lies in m^[q] since f lies in m
    lo, hi = 0, power.q
    while hi - lo > 1:
        mid = (hi + lo) // 2
        if _power_mod(f, mid, power, small=small):
            lo = mid
        else:
            hi = mid
    return lo


def fpt_lower_bound(f: Polynomial, e: int) -> Fraction:
    """nu(e)/p^e: a certified lower bound for the F-pure threshold."""
    p = f.domain.characteristic
    return Fraction(nu_value(f, e), p ** e)


# ---------------------------------------------------------------------------
# Witness machinery shared by the colon-criterion checks.


@dataclass(frozen=True)
class WitnessFactor:
    poly: Polynomial
    exponent: int
    source: str  # "divisor" | "ideal_a" | "test_element"


@dataclass(frozen=True)
class FPurityWitness:
    e: int
    q: int
    factors: tuple            # WitnessFactor list rebuilding the multiplier
    multiplier: Polynomial    # d (and c, for SFR checks) multiplied out
    colon_element: Polynomial
    product: Polynomial       # multiplier * colon_element
    monomial: tuple           # a monomial of product escaping m^[q]


@dataclass(frozen=True)
class FPurityResult:
    status: str  # "holds" | "fails" | "no_witness_among_generators"
    e: int
    witness: FPurityWitness | None = None

    @property
    def holds(self) -> bool:
        return self.status == "holds"


@dataclass(frozen=True)
class SFRResult:
    status: str  # "certified" | "inconclusive"
    e: int       # witness exponent, or the exhausted e_max
    witness: FPurityWitness | None = None

    @property
    def certified(self) -> bool:
        return self.status == "certified"


def _fedder_colon(ring: RingPresentation, power: FrobeniusPower,
                  budget: Budget | None, indices=None):
    """Generators h of (I^[q] : I) modulo I^[q], as pairs of calls (one that
    gives h mod m^[q], one that gives h).

    A complete intersection (f_1, ..., f_k), hypersurfaces and the regular
    ambient ring (k = 0, F = 1) included, has the colon I^[q] + (F),
    F = (f_1 ... f_k)^(q-1) (Fedder 1983), and gets the one closed form
    F / lc(f_1 ... f_k): equal to the general colon as an ideal modulo
    I^[q], and for k = 1 byte-equal to ``colon_ideal``'s
    quotient of the monic f^q by f.  The relations vanish at the origin, so
    I^[q] lies in the monomial ideal m^[q], and d * (I^[q] + (F)) escapes
    m^[q] iff d * F does; for an escape in the fiber variables only, this
    needs a fiber variable in every term of each relation (else the point
    is off the fiber).  Only F mod m^[q] is formed up front; F itself, the
    product of (f^(p-1))^[p^i] over i < e, is built from the same f^(p-1)
    when a witness needs it.  Any other ideal takes the general route, whose
    generators are truncated only when the search first reaches them.
    """
    gens = ring.relations.gens
    if len(gens) == 1 or complete_intersection(ring, budget):
        f = reduce(mul, gens) if gens else ring.constant(1)
        unit = ring.domain.inv(f.leading_coefficient(GREVLEX))
        p = power.p
        base = f ** (p - 1)
        # every base-p digit of q - 1 is p - 1
        short = unit * _power_mod(f, power.q - 1, power, indices,
                                  {p - 1: base})

        def full():
            return reduce(mul, (base.frobenius_power(p ** i)
                                for i in range(1, power.e)), base) * unit
        return [(lambda: short, full)]
    return [(cache(lambda h=h: _truncate(h, power.q, indices)), lambda h=h: h)
            for h in colon_ideal(bracket_power(ring.relations, power),
                                 ring.relations, budget).gens]


def _multiplier_candidates(spec: TripleSpec, q: int):
    """Witness multipliers d, as the factors whose product is d: the fixed
    divisor part, then products of a-generators of total weight
    ceil(lambda (q-1))."""
    fixed = []
    for g, c in spec.delta.components:
        k = ceil_frac(c * (q - 1))
        if k:
            fixed.append(WitnessFactor(g, k, "divisor"))
    fixed = tuple(fixed)
    weight = ceil_frac(spec.lam * (q - 1))
    if weight == 0 or spec.a_is_trivial:
        yield fixed
        return
    gens = spec.a.gens
    for combo in combinations_with_replacement(range(len(gens)), weight):
        yield fixed + tuple(WitnessFactor(gens[i], combo.count(i), "ideal_a")
                            for i in sorted(set(combo)))


def _multiply_out(ring: RingPresentation, factors) -> Polynomial:
    return reduce(mul, (w.poly ** w.exponent for w in factors),
                  ring.constant(1))


def _search_witness(spec: TripleSpec, e: int, budget: Budget | None,
                    extra: Polynomial | None = None, escape_indices=None):
    """One exponent of the colon criterion: a witness d * h, with h a
    generator of (I^[q] : I) and d a multiplier (times ``extra``, the test
    element of an SFR check), escaping m^[q]; None if there is none.

    Each pair is decided modulo m^[q], on (d mod m^[q]) * (h mod m^[q]);
    the full d, h and d * h are formed for the winning pair only."""
    ring = spec.ring
    power = FrobeniusPower(ring.domain.characteristic, e)
    q = power.q
    colon_gens = _fedder_colon(ring, power, budget, escape_indices)
    head = () if extra is None else (WitnessFactor(extra, 1, "test_element"),)

    @cache
    def factor_mod(w: WitnessFactor) -> Polynomial:
        return _power_mod(w.poly, w.exponent, power, escape_indices)

    for factors in _multiplier_candidates(spec, q):
        factors = head + factors
        d = reduce(lambda a, b: _truncate(a * b, q, escape_indices),
                   map(factor_mod, factors), ring.constant(1))
        for short, build in colon_gens:
            mono = _escaping_monomial(d * short(), q, escape_indices)
            if mono is not None:
                multiplier, h = _multiply_out(ring, factors), build()
                return FPurityWitness(e, q, factors, multiplier, h,
                                      multiplier * h, mono)
    return None


def sharply_fpure(spec: TripleSpec, e: int,
                  budget: Budget | None = None) -> FPurityResult:
    """Colon-criterion decision of sharp F-purity of the triple at level e."""
    p = spec.ring.domain.characteristic
    if p == 0:
        raise DomainError("sharp F-purity lives in positive characteristic")
    if e < 1:
        raise ValueError("e must be >= 1")
    witness = _search_witness(spec, e, budget)
    if witness is not None:
        return FPurityResult("holds", e, witness)
    # products of generators generate the multiplier ideal, so exhausting
    # them is definitive; the hedged status is kept for non-principal a per
    # the decision ledger.
    definitive = spec.a_is_trivial or len(spec.a.gens) <= 1
    return FPurityResult("fails" if definitive else "no_witness_among_generators", e)


def strongly_fregular(spec: TripleSpec, c: Polynomial, e_max: int,
                      budget: Budget | None = None,
                      escape_indices=None) -> SFRResult:
    """Certify strong F-regularity with the supplied test element c.

    c must not vanish on any component of the non-regular locus
    (user-asserted).  Returns certified(e) with a re-checkable witness, or
    inconclusive(e_max); a negative verdict is never produced.

    ``escape_indices`` restricts the escape from m^[q] to those variables:
    over a function-field base F_p(t..) the base variables are units of the
    coefficient field, so only fiber exponents can obstruct a witness.
    """
    ring = spec.ring
    if ring.domain.characteristic == 0:
        raise DomainError("strong F-regularity lives in positive characteristic")
    if ring.relations.contains(c):
        raise PolyError("test element must be nonzero in R")
    for e in range(1, e_max + 1):
        witness = _search_witness(spec, e, budget, c, escape_indices)
        if witness is not None:
            return SFRResult("certified", e, witness)
    return SFRResult("inconclusive", e_max)


# ---------------------------------------------------------------------------
# Jacobian helper for test-element candidates.


def _partial_derivative(f: Polynomial, i: int) -> Polynomial:
    # lowering the i-th exponent is injective, so no two terms meet
    p = f.domain.p
    terms: dict = {}
    for m, c in f.terms.items():
        c = c * m[i] % p if p else c * m[i]
        if c:
            terms[m[:i] + (m[i] - 1,) + m[i + 1:]] = c
    return Polynomial(f.domain, f.nvars, terms, _clean=True)


def _minors(rows, size, ring):
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    for ri in combinations(range(nrows), size):
        for ci in combinations(range(ncols), size):
            yield _det([[rows[r][c] for c in ci] for r in ri], ring)


def _det(matrix, ring):
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = Polynomial.zero(ring.domain, ring.nvars)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = matrix[0][j] * _det(minor, ring)
        total = total + term if j % 2 == 0 else total - term
    return total


def ring_dimension(ring: RingPresentation, budget: Budget | None = None) -> int:
    """Krull dimension of P/I from the leading-term ideal of a GB.

    dim = size of a largest variable subset S with no GB leading monomial
    supported entirely inside S (combinatorial, fine for few variables).
    """
    if ring.is_regular_ambient:
        return ring.nvars
    gb = ring.relations.groebner_basis(GREVLEX, budget)
    lms = [g.leading_monomial(GREVLEX) for g in gb]
    n = ring.nvars
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            s = set(subset)
            if not any(all(i in s for i, e in enumerate(m) if e > 0)
                       for m in lms):
                return size
    return 0


def complete_intersection(ring: RingPresentation,
                          budget: Budget | None = None) -> bool:
    """True iff the relations are a complete intersection: as many
    generators as the codimension n - dim(P/I).  Then they form a regular
    sequence at every prime containing I, which is what Fedder's closed
    form of (I^[q] : I) needs."""
    codim = ring.nvars - ring_dimension(ring, budget)
    return len(ring.relations.gens) == codim


def singular_locus_ideal(ring: RingPresentation,
                         budget: Budget | None = None):
    """I + (codim x codim minors of the Jacobian): cuts out the non-regular
    locus when the quotient is equidimensional (the fixtures' situation)."""
    if ring.is_regular_ambient:
        return Ideal(ring.domain, ring.nvars, [ring.constant(1)])
    gens = list(ring.relations.gens)
    codim = ring.nvars - ring_dimension(ring, budget)
    codim = max(1, min(codim, min(len(gens), ring.nvars)))
    jac = [[_partial_derivative(g, i) for i in range(ring.nvars)] for g in gens]
    minors = [m for m in _minors(jac, codim, ring) if not m.is_zero()]
    return Ideal(ring.domain, ring.nvars, gens + minors)


def suggest_test_elements(ring: RingPresentation,
                          budget: Budget | None = None):
    """Up to eight candidates for a test element (suggestions only).

    An element is a valid choice when it vanishes on the non-regular locus;
    the helper proposes (a) single variables and low-degree monomials with a
    small power inside the singular-locus ideal (radical membership, checked)
    and (b) Jacobian minors of size = codimension.  The caller remains
    responsible for geometric validity in non-equidimensional cases.
    """
    if ring.is_regular_ambient:
        return [ring.constant(1)]
    sing = singular_locus_ideal(ring, budget)
    out = []
    seen = set()

    def consider(f: Polynomial):
        if f.is_zero():
            return
        f = f.monic(GREVLEX)
        if ring.relations.contains(f, budget) or f in seen:
            return
        seen.add(f)
        out.append(f)

    # variables with a power in the singular ideal, then the Jacobian minors
    # among its generators (consider() drops the relations themselves)
    power_cap = 3 * ring.nvars
    for i in range(ring.nvars):
        x = ring.variable(i)
        acc = x
        for _ in range(power_cap):
            if sing.contains(acc, budget):
                consider(x)
                break
            acc = acc * x
    for m in sing.gens:
        consider(m)
    out.sort(key=lambda f: (f.total_degree(), f.sort_key()))
    return out[:8]


# ---------------------------------------------------------------------------
# The definitional splitting oracle (graded linear algebra).


@dataclass(frozen=True)
class SplittingOracleResult:
    status: str  # "holds" | "fails"
    e: int
    weights: tuple = ()
    witness_map: dict | None = None  # residue monomial -> value polynomial

    @property
    def holds(self) -> bool:
        return self.status == "holds"


def find_positive_grading(polys, nvars: int):
    """A positive integer weight vector making every input homogeneous."""
    rows = []
    for f in polys:
        monos = list(f.terms)
        if len(monos) <= 1:
            continue
        base = monos[0]
        for m in monos[1:]:
            rows.append([a - b for a, b in zip(m, base)])
    # rational kernel of the difference matrix
    kernel = _kernel_basis(rows, nvars)
    if not kernel:
        raise NonGradedError("input admits no positive grading")
    for combo in _small_combinations(len(kernel)):
        w = [sum(c * k[i] for c, k in zip(combo, kernel)) for i in range(nvars)]
        if all(x > 0 for x in w):
            return _integerize(w)
    raise NonGradedError("input admits no positive grading")


def _kernel_basis(rows, nvars):
    matrix = [list(map(Fraction, r)) for r in rows]
    pivots = {}
    for row in matrix:
        row = row[:]
        for col, rr in pivots.items():
            if row[col] != 0:
                f = row[col]
                row = [a - f * b for a, b in zip(row, rr)]
        for col, val in enumerate(row):
            if val != 0:
                row = [a / val for a in row]
                pivots[col] = row
                break
    free = [i for i in range(nvars) if i not in pivots]
    basis = []
    for fcol in free:
        vec = [Fraction(0)] * nvars
        vec[fcol] = Fraction(1)
        for col in sorted(pivots, reverse=True):
            row = pivots[col]
            vec[col] = -sum(row[j] * vec[j] for j in range(nvars) if j != col)
        basis.append(vec)
    return basis


def _small_combinations(k, bound: int = 4):
    # all-ones first: the common case
    yield (1,) * k
    for combo in product(range(-bound, bound + 1), repeat=k):
        if any(combo):
            yield combo


def _integerize(w):
    den = lcm(*(Fraction(x).denominator for x in w))
    ints = [int(Fraction(x) * den) for x in w]
    g = gcd(*ints)
    return tuple(x // (g or 1) for x in ints)


def splitting_oracle(spec: TripleSpec, e: int) -> SplittingOracleResult:
    """Decide splitting by solving psi(d) = 1 for a p^{-e}-linear psi: R -> R.

    psi is parametrized by its values v_b = psi(x^b) on the pushforward
    basis, b in [0, q)^n; it descends to R = P/I iff psi maps every
    x^b * h_j (h_j the relations) into I.  Grading pins the degree of each
    v_b exactly, deg v_b = (w(b) - w(d)) / q <= (q - 1) sum(w) / q < sum(w),
    so the system is finite and is solved exactly, with no degree cap.
    """
    ring = spec.ring
    p = ring.domain.characteristic
    if p == 0:
        raise DomainError("the splitting oracle lives in positive characteristic")
    if e < 1:
        raise ValueError("e must be >= 1")
    q = p ** e
    graded_input = list(ring.relations.gens) + [g for g, _ in spec.delta.components]
    if not spec.a_is_trivial:
        graded_input += list(spec.a.gens)
    weights = find_positive_grading(graded_input, ring.nvars)
    for factors in _multiplier_candidates(spec, q):
        witness = _oracle_single(ring, _multiply_out(ring, factors), q,
                                 weights)
        if witness is not None:
            return SplittingOracleResult("holds", e, weights, witness)
    return SplittingOracleResult("fails", e, weights)


def _graded_monomials(nvars: int, weights, degree: int):
    """All exponent vectors of the given weighted degree."""
    out = []

    def rec(i, remaining, prefix):
        if i == nvars - 1:
            if remaining % weights[i] == 0:
                out.append(tuple(prefix + [remaining // weights[i]]))
            return
        w = weights[i]
        for e in range(remaining // w + 1):
            rec(i + 1, remaining - e * w, prefix + [e])

    rec(0, degree, [])
    return out


def _oracle_single(ring: RingPresentation, d: Polynomial, q: int, weights):
    """Solve for psi with psi(d) = 1 mod I and psi(I) subseteq I; the map
    {residue b: v_b}, or None if there is none.

    Every factor of d is an input that ``find_positive_grading`` made
    homogeneous, so d is homogeneous (and nonzero, as a product of nonzero
    polynomials over a field)."""
    dom = ring.domain
    nvars = ring.nvars
    deg_d = d.weighted_degree(weights)

    # unknown blocks: v_b for residues b with (w(b) - deg_d) divisible by q
    unknowns = []     # list of (residue b, monomial of v_b)
    block_index = {}  # residue -> {monomial: column}
    for b in product(range(q), repeat=nvars):
        wb = sum(w * e for w, e in zip(weights, b))
        num = wb - deg_d
        if num < 0 or num % q:
            continue
        monos = _graded_monomials(nvars, weights, num // q)
        if not monos:
            continue
        cols = {}
        for m in monos:
            cols[m] = len(unknowns)
            unknowns.append((b, m))
        block_index[b] = cols

    if not unknowns:
        return None

    nf = ring.relations.normal_form
    # nf is linear, so each monomial's normal form is computed once
    nf_terms: dict = {}

    def nf_monomial(m) -> dict:
        terms = nf_terms.get(m)
        if terms is None:
            terms = nf_terms[m] = nf(Polynomial(dom, nvars, {m: 1},
                                                _clean=True)).terms
        return terms

    def pieces(f: Polynomial, b) -> dict:
        """x^b f over the pushforward basis, as {residue: {quotient: c}} for
        the residues with unknowns: x^(a+b) = (x^((a+b) div q))^q
        x^((a+b) mod q) for each term c x^a of f, in f's term order."""
        parts: dict = {}
        for a, c in f.terms.items():
            s = tuple(map(add, a, b))
            res = tuple(x % q for x in s)
            if res in block_index:
                parts.setdefault(res, {})[tuple(x // q for x in s)] = c
        return parts

    def rows(parts, rhs):
        """parts: {residue b: {monomial a: coefficient c}} for sum c x^a v_b;
        the equations nf(sum c x^a v_b) = rhs (a normal form, as a term
        dict), one per monomial, over the unknown columns."""
        p = dom.p
        acc: dict = {}
        for b, w_terms in parts.items():
            for mono, col in block_index[b].items():
                for a, c in w_terms.items():
                    for mm, cc in nf_monomial(tuple(map(add, a, mono))).items():
                        row = acc.setdefault(mm, {})
                        row[col] = (row.get(col, 0) + c * cc) % p
        for key in set(acc) | set(rhs):
            yield ({c: v for c, v in acc.get(key, {}).items() if v},
                   rhs.get(key, 0))

    def equations():
        """The system, row by row, so that it is never held whole."""
        # descent conditions: psi(x^b h_j) in I, right-hand side zero
        for h in ring.relations.gens:
            for b in product(range(q), repeat=nvars):
                yield from rows(pieces(h, b), {})
        # splitting condition: psi(d) = 1; the relations vanish at the
        # origin, so 1 is its own normal form
        origin = (0,) * nvars
        yield from rows(pieces(d, origin), {origin: 1})

    solution = _solve_fp(equations(), len(unknowns), dom.p)
    if solution is None:
        return None
    witness: dict = {}
    for (b, m), c in zip(unknowns, solution):
        if c:
            witness.setdefault(b, {})[m] = c
    return {b: Polynomial(dom, nvars, t, _clean=False)
            for b, t in witness.items()}


def _solve_fp(equations, ncols: int, p: int):
    """Solve a sparse affine system over F_p, given as an iterable of
    (row {column: value}, const); returns one solution or None.

    Rows are taken in order.  Each is reduced by the pivots it meets, in the
    order the pivots were made, and the least column left becomes the next
    pivot.  A pivot row has no entry in an older pivot's column, so fill-in
    adds only younger pivot columns and each pivot is used at most once per
    row.  The free columns of the solution are 0.
    """
    rank = {}     # pivot column -> its index in pivots
    pivots = []   # (column, row over the other columns, const), oldest first
    for row, const in equations:
        row = {c: v % p for c, v in row.items() if v % p}
        const %= p
        heap = [rank[c] for c in row if c in rank]
        heapify(heap)
        while heap:
            col, prow, pconst = pivots[heappop(heap)]
            f = row.pop(col, 0)
            if not f:   # cancelled by an older pivot's fill-in
                continue
            for c2, v2 in prow.items():
                old = row.get(c2, 0)
                nv = (old - f * v2) % p
                if not nv:
                    del row[c2]
                else:
                    row[c2] = nv
                    if not old and c2 in rank:
                        heappush(heap, rank[c2])
            const = (const - f * pconst) % p
        if not row:
            if const:
                return None
            continue
        col = min(row)
        inv = pow(row[col], -1, p)
        rank[col] = len(pivots)
        pivots.append((col, {c: v * inv % p for c, v in row.items()
                             if c != col}, const * inv % p))
    solution = [0] * ncols
    for col, prow, pconst in reversed(pivots):
        solution[col] = (pconst - sum(v * solution[c]
                                      for c, v in prow.items())) % p
    return solution
