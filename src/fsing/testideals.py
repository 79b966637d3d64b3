"""Test ideals via truncated Frobenius sums, absolute and relative.

The absolute test ideal of (Spec R, gamma, a^lambda) with respect to I is
the ascending sum over i of the images of (a^{ceil(q^i lambda)} I) under the
i-th iterate of the p^{-e}-linear map gamma.  With gamma represented by a
multiplier u, the i-th summand is the Frobenius root of
u^{(i)} * a^{ceil(q^i lambda)} * I at q^i, where u^{(i)} = u^{1+q+...+q^{i-1}}.
It is computed as i nested roots at q, multiplying by u before each one,
by the identities (K^[1/q])^[1/q'] = K^[1/qq'] and (g^q K)^[1/q] = g K^[1/q]
(Blickle-Mustata-Smith 2008, Lemma 2.4), so u^{(i)} is never formed.

The relative theory works over a polynomial base A = F_p[t_1..t_m]: roots
are taken in the fiber variables only (coefficients in A^{1/q^i} untouched),
and level-i summands are pushed into B_n = R tensor_A A^{1/q^n} by scaling
base exponents by q^{n-i}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice

from .groebner import Budget, Ideal, ideal_power, ideal_product
# not called here: perfbench/selftest.py checks that the tracer rebinds
# this imported name
from .groebner import buchberger  # noqa: F401
from .polycore import DomainError, Polynomial, ceil_frac
from .frobenius import FrobeniusPower, decompose, embed_ideal_to_level
from .triples import DivisorData, PresentationError, RingPresentation


class TestIdealError(Exception):
    pass


@dataclass(frozen=True)
class PLinearMap:
    """A p^{-e}-linear map gamma: R^{1/q} -> R given by a multiplier u.

    gamma sends z^{1/q} to trace(u z)^{1/q}; images of ideals are Frobenius
    roots of u-multiples.  The ambient ring must be a polynomial ring.
    """

    power: FrobeniusPower
    multiplier: Polynomial

    def __post_init__(self):
        if self.multiplier.is_zero():
            raise TestIdealError("multiplier must be nonzero")
        if self.multiplier.domain.characteristic != self.power.p:
            raise DomainError("multiplier characteristic mismatch")


@dataclass(frozen=True)
class TauResult:
    ideal: Ideal
    truncation_level: int
    stabilized: bool
    stabilization_level: int | None = None
    # "proposition" | "empirical" | "no guarantee"
    guarantee: str = "empirical"


def _summands(gamma: PLinearMap, I: Ideal, pairs, fiber_indices=None):
    """The summands S_0, S_1, ... of the Frobenius sum of (gamma, I) and
    the mixed ideal prod a_j^{lam_j}, for ``pairs = ((a_j, lam_j), ...)``.

    S_i is the root at q^i (in the fiber variables only, if given) of
    u^{(i)} * J_i, with u^{(i)} = u^{1+q+...+q^{i-1}} and
    J_i = prod a_j^{ceil(q^i lam_j)} * I.  It is evaluated by nested
    single-step roots phi (at q, fiber variables only if given),

        S_i = phi(u_[q^{i-1}] * phi(... phi(u_[q] * phi(u * J_i)) ...)),

    where u_[q^k] is u with its base exponents multiplied by q^k (u itself
    without base variables).  That rests on (K^[1/q])^[1/q'] = K^[1/qq']
    and (g^q K)^[1/q] = g_[q] K^[1/q], with u^{(i)} = u^{(i-1)} u^{q^{i-1}}.
    Powers are taken of each a_j's reduced basis (same ideal, smaller
    generators), computed once, as are the scaled multipliers u_[q^k].
    Generators pass as duplicate-free tuples; no step builds an ``Ideal``,
    as products of nonzero polynomials and ``decompose`` pieces are nonzero.
    """
    q = gamma.power.q
    bases = []
    for a, _ in pairs:
        gb = a.groebner_basis()
        bases.append(Ideal(a.domain, a.nvars, gb) if gb else a)
    powers = [{} for _ in pairs]
    u = gamma.multiplier
    base_vars = (() if fiber_indices is None
                 else set(range(u.nvars)).difference(fiber_indices))
    scaled = [u]
    for i in count():
        J = I.gens
        for base, (_, lam), cache in zip(bases, pairs, powers):
            n = ceil_frac(Fraction(lam) * q ** i)
            if n not in cache:
                cache[n] = ideal_power(base, n).gens
            J = dict.fromkeys(f * g for f in cache[n] for g in J)
        for k in range(i):
            if k == len(scaled):
                scaled.append(u.scale_exponents(base_vars, q ** k)
                              if base_vars else u)
            J = dict.fromkeys(r for g in J for r in decompose(
                scaled[k] * g, q, fiber_indices).values())
        yield tuple(J)


def _partial_sums(gamma: PLinearMap, I: Ideal, pairs, base=(),
                  fiber_indices=None, budget: Budget | None = None):
    """Yield (P_n, grew) for n = 0, 1, ..., with P_n = S_0 + ... + S_n, each
    S_i pushed to level n (base exponents scaled by q^{n-i}).

    Only ``Ideal.reduced`` builds ideals here: each P_n, with its basis.
    The generators of S_n that are new, those outside the pushed P_{n-1},
    are found first; P_n is the pushed P_{n-1} plus the new generators,
    interreduced, which is the same ideal as with all of S_n.  grew is
    False exactly when nothing is new, so the chain has stabilized there.
    Without base variables nothing moves, and P_n is P_{n-1} itself when
    it did not grow.

    Containment needs no basis of the pushed ideal: B_n is free over the
    pushed B_{n-1} on the base monomials t^r, 0 <= r < q, so g lies in the
    pushed P_{n-1} iff every component g_r of g = sum_r t^r (g_r pushed)
    lies in P_{n-1}.
    """
    q = gamma.power.q
    summands = _summands(gamma, I, pairs, fiber_indices)
    partial = Ideal.reduced(next(summands), budget)
    yield partial, True
    for summand in summands:
        new = [g for g in summand
               if any(partial.normal_form(h, budget=budget)
                      for h in decompose(g, q, base).values())]
        if new or base:
            pushed = [g.scale_exponents(base, q) for g in partial.gens]
            partial = Ideal.reduced(pushed + new, budget)
        yield partial, bool(new)


def _level_sum(gamma: PLinearMap, I: Ideal, pairs, n: int, base=(),
               fiber_indices=None, budget: Budget | None = None) -> Ideal:
    """P_n of ``_partial_sums``: S_0 + ... + S_n pushed to level n."""
    chain = _partial_sums(gamma, I, pairs, base, fiber_indices, budget)
    return next(islice(chain, n, None))[0]


def tau_absolute(gamma: PLinearMap, I: Ideal, a: Ideal, lam,
                 n_max: int, budget: Budget | None = None) -> TauResult:
    """Truncated absolute test ideal sum, with ascending-chain stabilization.

    The reported level is the first n whose summand adds nothing to the
    partial sum; it counts as stabilized only if the summand after n_max
    adds nothing either.
    """
    lam = Fraction(lam)
    if lam <= 0:
        raise TestIdealError("lambda must be positive")
    if I.is_zero() or a.is_zero():
        raise TestIdealError("I and a must be nonzero")
    if n_max < 0:
        raise TestIdealError("n_max must be >= 0")
    chain = _partial_sums(gamma, I, ((a, lam),), budget=budget)
    level = None
    for n, (partial, grew) in enumerate(islice(chain, n_max + 1)):
        if level is None and not grew:
            level = n
    # re-verify: adding the next summand does not change the ideal
    stabilized = level is not None and not next(chain)[1]
    return TauResult(partial, n_max, stabilized,
                     level if stabilized else None)


def pair_multiplier(R: RingPresentation, delta: DivisorData) -> tuple:
    """(q, u, I) realizing the pair (R, Delta) as a multiplier map.

    Picks the least e <= 24 with (p^e - 1) * c_i integral for all components,
    sets u = prod g_i^{c_i (q-1)} and I = (prod g_i^{ceil c_i}), a test
    element ideal inside tau(R, Delta).
    """
    p = R.domain.characteristic
    if p == 0:
        raise DomainError("pairs need positive characteristic")
    if not R.is_regular_ambient:
        raise PresentationError("pair test ideals need a regular ambient ring")
    den = delta.index_denominator()
    if den % p == 0:
        raise TestIdealError(
            f"divisor index {den} is divisible by p = {p}; no valid q exists")
    e = 1
    while (p ** e - 1) % den != 0:
        e += 1
        if e > 24:
            raise TestIdealError("no q = p^e with e <= 24 makes (q-1)Delta integral")
    q = p ** e
    u = R.constant(1)
    test = R.constant(1)
    for g, c in delta.components:
        u = u * g ** int(c * (q - 1))
        test = test * g ** ceil_frac(c)
    return FrobeniusPower(p, e), u, Ideal(R.domain, R.nvars, [test])


def tau_pair_divisor(R: RingPresentation, delta: DivisorData, a: Ideal,
                     lam, n_max: int, budget: Budget | None = None) -> TauResult:
    """tau(X, Delta, a^lambda) through the divisor-to-multiplier construction."""
    power, u, I = pair_multiplier(R, delta)
    gamma = PLinearMap(power, u)
    return tau_absolute(gamma, I, a, lam, n_max, budget)


# ---------------------------------------------------------------------------
# Relative limiting test ideals over a polynomial base.


@dataclass(frozen=True)
class RelativeSetup:
    """Data of (X/V, phi, I, a^lambda) with X = Spec A[x], A = F_p[t..]."""

    ring: RingPresentation          # regular ambient with designated base vars
    phi: PLinearMap                 # relative map via multiplier
    I: Ideal
    a: Ideal
    lam: Fraction
    pair_divisor: DivisorData | None = None  # optional pair provenance

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))
        if not self.ring.is_regular_ambient:
            raise PresentationError("relative setups need a regular ambient ring")
        # an empty base block means V = Spec F_p: the absolute case
        if self.I.is_zero() or self.a.is_zero():
            raise TestIdealError("I and a must be nonzero")
        # side condition: lambda (q-1) q^l integral for some l
        q = self.phi.power.q
        p = self.phi.power.p
        rem = self.lam.denominator
        while rem % p == 0:
            rem //= p
        if (q - 1) % rem != 0:
            raise TestIdealError(
                "lambda denominator does not divide (q-1) p^l; side condition fails")

    @property
    def fiber_indices(self):
        return self.ring.fiber_vars

    def mu_a(self) -> int:
        """Minimal homogeneous generator count when graded, else len(gens)."""
        gens = list(self.a.gens)
        if all(g.is_homogeneous() for g in gens):
            kept = []
            for i, g in enumerate(gens):
                others = kept + gens[i + 1:]
                if others and Ideal(self.a.domain, self.a.nvars, others).contains(g):
                    continue
                kept.append(g)
            return max(len(kept), 1)
        return max(len(gens), 1)

    @property
    def guarantee(self) -> str:
        """Whether Skoda's identity is proven here: "proposition" when
        lambda > mu(a) - 1 and lambda (q-1) is integral, else
        "no guarantee"."""
        q = self.phi.power.q
        if (self.lam > self.mu_a() - 1
                and (self.lam * (q - 1)).denominator == 1):
            return "proposition"
        return "no guarantee"


def tau_relative(setup: RelativeSetup, n: int,
                 budget: Budget | None = None) -> TauResult:
    """The n-th limiting relative test ideal, as an ideal of B_n.

    Returned generators live in level-n coordinates: a base exponent b on
    t_j stands for t_j^{b/q^n}.
    """
    if n < 0:
        raise TestIdealError("level must be >= 0")
    ideal = _level_sum(setup.phi, setup.I, ((setup.a, setup.lam),), n,
                       setup.ring.base_vars, setup.fiber_indices, budget)
    return TauResult(ideal, n, False, None, setup.guarantee)


def stabilization_scan(setup: RelativeSetup, n_max: int,
                       budget: Budget | None = None) -> TauResult:
    """First n <= n_max with tau_{n-1} B_n = tau_n, i.e. the level-n summand
    adds nothing; the chain is not checked beyond that level."""
    if n_max < 0:
        raise TestIdealError("n_max must be >= 0")
    chain = _partial_sums(setup.phi, setup.I, ((setup.a, setup.lam),),
                          setup.ring.base_vars, setup.fiber_indices, budget)
    for n, (partial, grew) in enumerate(islice(chain, n_max + 1)):
        if not grew:
            return TauResult(partial, n, True, n, setup.guarantee)
    return TauResult(partial, n_max, False, None, setup.guarantee)


def base_change_check(setup: RelativeSetup, substitution, new_ring: RingPresentation,
                      n: int, budget: Budget | None = None) -> bool:
    """Check tau_n(X'/V') = tau_n(X/V) B'_n for a base change t_j -> A'.

    ``substitution`` maps each base variable index of the original ring to a
    polynomial of ``new_ring`` in the new base variables; fiber variables
    must map to themselves (same names, any position).
    """
    fiber_names = [setup.ring.var_names[i] for i in setup.fiber_indices]
    name_to_new = {nm: i for i, nm in enumerate(new_ring.var_names)}
    images = {}
    for i in setup.ring.base_vars:
        images[i] = substitution[i]
    for i, nm in zip(setup.fiber_indices, fiber_names):
        images[i] = Polynomial.variable(new_ring.domain, new_ring.nvars,
                                        name_to_new[nm])

    def push(f: Polynomial) -> Polynomial:
        return f.substitute(images)

    new_setup = RelativeSetup(
        new_ring,
        PLinearMap(setup.phi.power, push(setup.phi.multiplier)),
        Ideal(new_ring.domain, new_ring.nvars, [push(g) for g in setup.I.gens]),
        Ideal(new_ring.domain, new_ring.nvars, [push(g) for g in setup.a.gens]),
        setup.lam)
    lhs = tau_relative(new_setup, n, budget).ideal
    # rhs: tau_n(X/V) pushed into B'_n; base substitution commutes with the
    # level-n coordinates because F_p is perfect.
    rhs_gens = [push(g) for g in tau_relative(setup, n, budget).ideal.gens]
    rhs = Ideal(new_ring.domain, new_ring.nvars, rhs_gens)
    return lhs.equals(rhs, budget)


@dataclass(frozen=True)
class FiberCompareResult:
    status: str  # "equal" | "not_equal" | "bad_fiber"
    relative_ideal: Ideal | None = None
    fiber_ideal: Ideal | None = None

    def __bool__(self):
        return self.status == "equal"


def fiber_compare(setup: RelativeSetup, n: int, point,
                  budget: Budget | None = None) -> FiberCompareResult:
    """Specialize tau_n at a perfect point of V and compare with the
    absolute test ideal of the fiber, summed up to level max(n, 3).

    ``point`` maps base variable index -> F_p value.  Over F_p the q-th
    root of a scalar is itself, so level-n base coordinates specialize to
    the same value.
    """
    base = list(setup.ring.base_vars)
    fiber = list(setup.fiber_indices)
    if set(point) != set(base):
        raise TestIdealError("point must assign exactly the base variables")

    def specialize(f: Polynomial) -> Polynomial:
        return f.evaluate_partial(point).drop_variables(base)

    u_f = specialize(setup.phi.multiplier)
    I_f = [specialize(g) for g in setup.I.gens]
    a_f = [specialize(g) for g in setup.a.gens]
    degenerate = u_f.is_zero() or all(g.is_zero() for g in I_f) \
        or all(g.is_zero() for g in a_f)
    if setup.pair_divisor is not None:
        for g, _ in setup.pair_divisor.components:
            if specialize(g).is_zero():
                degenerate = True
    if degenerate:
        return FiberCompareResult("bad_fiber")

    dom = setup.ring.domain
    nf = len(fiber)
    fiber_I = Ideal(dom, nf, [g for g in I_f if not g.is_zero()])
    fiber_a = Ideal(dom, nf, [g for g in a_f if not g.is_zero()])
    gamma = PLinearMap(setup.phi.power, u_f)
    absolute = tau_absolute(gamma, fiber_I, fiber_a, setup.lam, max(n, 3),
                            budget)

    rel = tau_relative(setup, n, budget)
    specialized = [specialize(g) for g in rel.ideal.gens]
    rel_fiber = Ideal(dom, nf, [g for g in specialized if not g.is_zero()])
    equal = rel_fiber.equals(absolute.ideal, budget)
    return FiberCompareResult("equal" if equal else "not_equal",
                              rel_fiber, absolute.ideal)


# ---------------------------------------------------------------------------
# Relative pair fixtures and the sum-decomposition check.


def relative_pair_setup(R: RingPresentation, delta: DivisorData, a: Ideal,
                        lam, budget: Budget | None = None) -> RelativeSetup:
    """Build the relative setup attached to a pair (X, Delta) over V.

    The multiplier is u = prod g_i^{c_i(q-1)}; I is the absolute test ideal
    tau(X, Delta) of the total space (computable since the ambient is a
    polynomial ring over F_p), the canonical test-element ideal, summed to
    level 4.
    """
    power, u, seed = pair_multiplier(R, delta)
    gamma = PLinearMap(power, u)
    unit_a = Ideal(R.domain, R.nvars, [R.constant(1)])
    total = tau_absolute(gamma, seed, unit_a, Fraction(1), 4, budget)
    return RelativeSetup(R, gamma, total.ideal, a, Fraction(lam), delta)


@dataclass(frozen=True)
class SumDecompositionReport:
    sampled_in_tau: bool            # every sampled summand inside tau (exact)
    tau_in_sampled: bool            # tau inside the sum of sampled summands
    samples: int
    note: str = ""


def sum_decomposition_check(R: RingPresentation, delta: DivisorData,
                            a_list, lambda_list, sample_budget: int,
                            budget: Budget | None = None) -> SumDecompositionReport:
    """Sampled two-sided check of the sum-over-divisors decomposition.

    For sampled m_i and f_i in a_i^{ceil(m_i lam_i)}, each pair test ideal
    tau(X, Delta + sum div(f_i)/m_i) must sit inside tau(X, Delta,
    prod a_i^{lam_i}) (exact); the reverse containment is attempted against
    the sum of sampled summands and may fail for a small budget, which is
    reported distinctly.  Every test ideal is summed to level 4.
    """
    p = R.domain.characteristic
    pairs = list(zip(a_list, [Fraction(x) for x in lambda_list]))
    power, u, I = pair_multiplier(R, delta)
    tau_triple = _level_sum(PLinearMap(power, u), I, pairs, 4, budget=budget)

    sampled_gens = []
    samples = 0
    sampled_ok = True
    for m in [m for m in range(1, sample_budget + 1) if m % p != 0]:
        # f_i: products of generators of a_i of total weight ceil(m lam_i)
        fs = []
        for aj, lj in pairs:
            k = ceil_frac(Fraction(lj) * m)
            f = R.constant(1)
            for t, g in enumerate(aj.gens):
                share = k // len(aj.gens) + (1 if t < k % len(aj.gens) else 0)
                f = f * g ** share
            fs.append(f)
        extra = [(f, Fraction(1, m)) for f in fs if not f.is_constant()]
        try:
            summand = tau_pair_divisor(
                R, DivisorData(tuple(delta.components) + tuple(extra)),
                Ideal(R.domain, R.nvars, [R.constant(1)]), Fraction(1), 4,
                budget)
        except TestIdealError:
            continue  # p divides the sampled index; skip this m
        samples += 1
        sampled_gens.extend(summand.ideal.gens)
        if not all(tau_triple.contains(g, budget) for g in summand.ideal.gens):
            sampled_ok = False
    if not sampled_gens:
        return SumDecompositionReport(True, False, 0, "no admissible samples")
    sampled_sum = Ideal.reduced(sampled_gens, budget)
    reverse = all(sampled_sum.contains(g, budget) for g in tau_triple.gens)
    note = "" if reverse else "budget too small for the reverse containment"
    return SumDecompositionReport(sampled_ok, reverse, samples, note)


def skoda_check(setup: RelativeSetup, n: int, budget: Budget | None = None) -> bool:
    """tau_n(phi I, a^lambda) * a == tau_n(phi I, a^{lambda+1}), exactly."""
    lhs_tau = tau_relative(setup, n, budget)
    lhs = ideal_product(lhs_tau.ideal,
                        embed_ideal_to_level(setup.a, setup.ring.base_vars,
                                             setup.phi.power, n))
    bumped = RelativeSetup(setup.ring, setup.phi, setup.I, setup.a,
                           setup.lam + 1, setup.pair_divisor)
    rhs = tau_relative(bumped, n, budget)
    return lhs.equals(rhs.ideal, budget)
