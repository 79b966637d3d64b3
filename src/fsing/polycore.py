"""Exact sparse multivariate polynomial arithmetic over Q and F_p.

Polynomials are immutable term maps (exponent tuple -> nonzero coefficient).
Coefficients are ``fractions.Fraction`` over the rationals and canonical
residues in ``[0, p-1]`` over a prime field.  Variables are positional;
names are display metadata supplied by callers.

Every term loop, here and in the Groebner kernel, uses one coefficient
rule: a sum or product ``c`` is stored as ``c % p if p else c``, with ``p``
the domain's prime (None over Q); monomials multiply as
``tuple(map(add, a, b))``.  The parser builds a product of names and
numbers as one term; only parenthesised factors multiply Polynomials.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul
from typing import Iterable, Mapping


class PolyError(Exception):
    """Base class for polynomial-layer errors."""


class ParseError(PolyError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainError(PolyError):
    """Domain mismatch or invalid coefficient domain."""


# Miller-Rabin on the prime bases up to 41 decides primality of every n
# below _PRIME_BOUND (Sorenson and Webster 2015); no larger modulus is taken.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic primality for n < _PRIME_BOUND: trial division by the
    bases, then a strong-probable-prime test to each of them."""
    if n >= _PRIME_BOUND:
        raise DomainError(f"modulus {n} is too large: primality is "
                          f"decided only below {_PRIME_BOUND}")
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0   # n - 1 = d * 2^s with d odd
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def ceil_frac(x) -> int:
    """The exact ceiling of a rational number."""
    x = Fraction(x)
    return -((-x.numerator) // x.denominator)


@dataclass(frozen=True)
class CoefficientDomain:
    """Either the rationals (p is None) or the prime field F_p."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not _is_prime(self.p):
            raise DomainError(f"modulus {self.p} is not prime")

    @property
    def is_rational(self) -> bool:
        return self.p is None

    @property
    def characteristic(self) -> int:
        return 0 if self.p is None else self.p

    def zero(self):
        return Fraction(0) if self.p is None else 0

    def one(self):
        return Fraction(1) if self.p is None else 1

    def from_fraction(self, value: Fraction):
        """Canonical image of a rational number in this domain."""
        value = Fraction(value)
        if self.p is None:
            return value
        if value.denominator % self.p == 0:
            raise DomainError(
                f"denominator {value.denominator} is not a unit modulo {self.p}")
        num = value.numerator % self.p
        den = value.denominator % self.p
        return (num * pow(den, -1, self.p)) % self.p

    def normalize(self, c):
        if self.p is None:
            return Fraction(c)
        if isinstance(c, Fraction):
            return self.from_fraction(c)
        return int(c) % self.p

    def inv(self, a):
        if self.p is None:
            if a == 0:
                raise DomainError("division by zero")
            return Fraction(1) / a
        if a % self.p == 0:
            raise DomainError(f"{a} is not a unit modulo {self.p}")
        return pow(a, -1, self.p)

    def __str__(self):
        return "Q" if self.p is None else f"F_{self.p}"


RATIONALS = CoefficientDomain(None)


def prime_field(p: int) -> CoefficientDomain:
    return CoefficientDomain(p)


# ---------------------------------------------------------------------------
# Monomials: plain exponent tuples; the Groebner kernel packs them into ints.

Monomial = tuple


class PackingOverflow(Exception):
    """A packed exponent field outgrew its width (the caller re-packs wider)."""


@dataclass(frozen=True)
class MonomialOrder:
    """Total order on monomials compatible with multiplication.

    kind is one of "lex", "grevlex", "elim"; for "elim" the first
    ``block`` variables dominate (block order, grevlex inside each block),
    so a Groebner basis eliminates the leading block.
    """

    kind: str = "grevlex"
    block: int = 0
    _packings: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def key(self, m: Monomial):
        if self.kind == "lex":
            return m
        if self.kind == "grevlex":
            return _grevlex_key(m)
        if self.kind == "elim":
            return (_grevlex_key(m[: self.block]), _grevlex_key(m[self.block:]))
        raise ValueError(f"unknown order kind {self.kind!r}")

    def blocks(self, nvars: int):
        """The variable blocks, most significant first; grevlex orders
        inside a block, and a one-variable block is compared by degree."""
        if self.kind == "lex":
            return [(i,) for i in range(nvars)]
        if self.kind == "grevlex":
            return [tuple(range(nvars))] if nvars else []
        if self.kind == "elim":
            cut = min(self.block, nvars)
            return [b for b in (tuple(range(cut)), tuple(range(cut, nvars)))
                    if b]
        raise ValueError(f"unknown order kind {self.kind!r}")

    def packing(self, nvars: int, width: int) -> "Packing":
        """The packed encoding of this order (made once per nvars, width)."""
        token = (nvars, width)
        if token not in self._packings:
            self._packings[token] = Packing(self, nvars, width)
        return self._packings[token]

    def cache_token(self):
        return (self.kind, self.block)


def _grevlex_key(m: Monomial):
    return (sum(m), tuple(-e for e in reversed(m)))


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")


def elimination_order(block: int) -> MonomialOrder:
    return MonomialOrder("elim", block)


class Packing:
    """Monomials of one order and ring as Python ints.

    Each field is ``width`` value bits under one guard bit.  Within a block
    of the order the fields run from high to low: the block degree, then
    e_last ... e_first; a one-variable block keeps only its degree field, so
    lex has no separate degree field.  Earlier blocks sit higher.  Then

    * the product of monomials is ``a + b``;
    * ``g`` divides ``m`` iff ``((m | guard) - g) & guard == guard``;
    * ``key(P) = P - ((P & deg_mask) << 1)`` is linear in the exponents and
      sorts ascending exactly when ``order.key`` sorts descending, so a
      min-heap of keys pops the leading monomial, ``key(a + b) == key(a) +
      key(b)``, and ``-key`` orders like ``order.key``.

    A sum whose field reaches ``2**width`` sets that field's guard bit and
    nothing else; whoever adds monomials checks the guard and raises
    PackingOverflow.
    """

    __slots__ = ("order", "nvars", "width", "guard", "deg_mask", "_mask",
                 "_weights", "_shifts", "_deg_shifts")

    def __init__(self, order: MonomialOrder, nvars: int, width: int):
        step = width + 1
        fields = []                  # (block, variable or None), high to low
        for block in order.blocks(nvars):
            fields.append((block, None))
            if len(block) > 1:
                fields.extend((block, v) for v in reversed(block))
        weights, shifts = [0] * nvars, [0] * nvars
        guard = deg_mask = 0
        deg_shifts = []
        for pos, (block, var) in enumerate(reversed(fields)):
            shift = pos * step
            guard |= 1 << (shift + width)
            if var is None:
                deg_mask |= ((1 << step) - 1) << shift
                deg_shifts.append(shift)
                for v in block:
                    weights[v] += 1 << shift
                if len(block) == 1:
                    shifts[block[0]] = shift
            else:
                weights[var] += 1 << shift
                shifts[var] = shift
        self.order, self.nvars, self.width = order, nvars, width
        self.guard, self.deg_mask = guard, deg_mask
        self._mask = (1 << width) - 1
        self._weights, self._shifts = tuple(weights), tuple(shifts)
        self._deg_shifts = tuple(deg_shifts)

    def pack(self, m: Monomial) -> int:
        """The packed monomial; the caller ensures its degree fits."""
        return sum(map(mul, m, self._weights))

    def key(self, P: int) -> int:
        return P - ((P & self.deg_mask) << 1)

    def unpack(self, P: int) -> Monomial:
        mask = self._mask
        return tuple([(P >> s) & mask for s in self._shifts])

    def degree(self, P: int) -> int:
        mask = self._mask
        return sum([(P >> s) & mask for s in self._deg_shifts])

    def polynomial(self, domain: CoefficientDomain, terms,
                   data=None) -> "Polynomial":
        """The Polynomial of packed (monomial, coefficient) pairs listed
        from the leading term down, keeping its leading monomial and, when
        given, its divisor data (see Polynomial.packed)."""
        mask, shifts = self._mask, self._shifts
        poly = Polynomial(domain, self.nvars, {
            tuple([(P >> s) & mask for s in shifts]): c for P, c in terms},
            _clean=True)
        if poly.terms:
            poly._lm = (self.order, next(iter(poly.terms)),
                        None if data is None else self, data)
        return poly


# ---------------------------------------------------------------------------


class Polynomial:
    """Immutable sparse polynomial in a fixed number of variables.

    ``_lm`` caches the last leading monomial computed, as (order, monomial,
    packing, divisor data); the last two are None until ``packed`` fills
    them.  The terms never change after construction, so it stays valid.
    """

    __slots__ = ("domain", "nvars", "terms", "_lm")

    def __init__(self, domain: CoefficientDomain, nvars: int,
                 terms: Mapping[Monomial, object] | Iterable = (), *,
                 _clean: bool = False):
        self.domain = domain
        self.nvars = nvars
        self._lm = None
        if _clean:
            self.terms = dict(terms)
            return
        p = domain.p
        clean: dict = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mono, coeff in items:
            mono = tuple(int(e) for e in mono)
            if len(mono) != nvars or any(e < 0 for e in mono):
                raise PolyError(f"bad exponent vector {mono} for {nvars} variables")
            c = domain.normalize(coeff)
            if mono in clean:
                c = (clean[mono] + c) % p if p else clean[mono] + c
            if c == 0:
                clean.pop(mono, None)
            else:
                clean[mono] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, domain, nvars):
        return cls(domain, nvars, {}, _clean=True)

    @classmethod
    def constant(cls, domain, nvars, value):
        c = domain.normalize(value)
        if c == 0:
            return cls.zero(domain, nvars)
        return cls(domain, nvars, {(0,) * nvars: c}, _clean=True)

    @classmethod
    def variable(cls, domain, nvars, index, exponent: int = 1):
        if not 0 <= index < nvars:
            raise PolyError(f"variable index {index} out of range")
        mono = tuple(exponent if i == index else 0 for i in range(nvars))
        return cls(domain, nvars, {mono: domain.one()}, _clean=True)

    @classmethod
    def monomial(cls, domain, nvars, mono, coeff=1):
        return cls(domain, nvars, {tuple(mono): coeff})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.nvars: self.domain.one()}

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, self.domain.zero())

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.domain != other.domain or self.nvars != other.nvars:
            raise DomainError("polynomials live in different rings")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.domain, self.nvars, other)
        self._check_compatible(other)
        p = self.domain.p
        res = dict(self.terms)
        for m, c in other.terms.items():
            w = res.get(m)
            if w is None:
                res[m] = c
            else:
                s = (w + c) % p if p else w + c
                if s:
                    res[m] = s
                else:
                    del res[m]
        return Polynomial(self.domain, self.nvars, res, _clean=True)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        p = self.domain.p
        return Polynomial(self.domain, self.nvars,
                          {m: -c % p if p else -c
                           for m, c in self.terms.items()}, _clean=True)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.domain, self.nvars, other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        p = self.domain.p
        if not isinstance(other, Polynomial):
            c = self.domain.normalize(other)
            if c == 0:
                return Polynomial.zero(self.domain, self.nvars)
            res = Polynomial(self.domain, self.nvars,
                             {m: v * c % p if p else v * c
                              for m, v in self.terms.items()}, _clean=True)
            if self._lm is not None:    # same support, same leading monomial
                res._lm = (self._lm[0], self._lm[1], None, None)
            return res
        self._check_compatible(other)
        res: dict = {}
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = tuple(map(add, m1, m2))
                w = res.get(m)
                # a product of nonzero coefficients is nonzero (p is prime)
                if w is None:
                    res[m] = c1 * c2 % p if p else c1 * c2
                else:
                    s = (w + c1 * c2) % p if p else w + c1 * c2
                    if s:
                        res[m] = s
                    else:
                        del res[m]
        return Polynomial(self.domain, self.nvars, res, _clean=True)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if n < 0:
            raise PolyError("negative exponent")
        result = Polynomial.constant(self.domain, self.nvars, 1)
        base = self
        while n > 0:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n >>= 1
        return result

    def frobenius_power(self, q: int) -> "Polynomial":
        """q-th power in characteristic p (q = p^k, k >= 0): termwise."""
        p = self.domain.characteristic
        if p == 0 or q not in (p ** k for k in range(q.bit_length())):
            raise DomainError("frobenius_power requires q a power of the characteristic")
        # c^q = c for c in F_p, so only exponents scale.
        return Polynomial(self.domain, self.nvars,
                          {tuple(e * q for e in m): c for m, c in self.terms.items()},
                          _clean=True)

    # -- structure ---------------------------------------------------------

    def total_degree(self) -> int:
        return max(map(sum, self.terms), default=0)

    def weighted_degree(self, weights) -> int:
        return max((sum(w * e for w, e in zip(weights, m)) for m in self.terms),
                   default=0)

    def is_homogeneous(self, weights=None) -> bool:
        if not self.terms:
            return True
        if weights is None:
            weights = (1,) * self.nvars
        degs = {sum(w * e for w, e in zip(weights, m)) for m in self.terms}
        return len(degs) == 1

    def leading_monomial(self, order: MonomialOrder = GREVLEX) -> Monomial:
        cached = self._lm
        if cached is not None and (cached[0] is order or cached[0] == order):
            return cached[1]
        if not self.terms:
            raise PolyError("zero polynomial has no leading monomial")
        lm = max(self.terms, key=order.key)
        self._lm = (order, lm, None, None)
        return lm

    def packed(self, packing: "Packing"):
        """This polynomial as a divisor in ``packing``: (leading monomial,
        inverse leading coefficient, tail), the tail listing (monomial,
        coefficient) for every other term, monomials packed.

        Cached in ``_lm`` for ``packing``.  Raises PackingOverflow when a
        degree does not fit the field width.
        """
        cached = self._lm
        if cached is not None and cached[2] is packing:
            return cached[3]
        lm = self.leading_monomial(packing.order)
        if max(map(sum, self.terms)) >> packing.width:
            raise PackingOverflow
        pack = packing.pack
        tail = [(pack(m), c) for m, c in self.terms.items() if m != lm]
        data = (pack(lm), self.domain.inv(self.terms[lm]), tail)
        self._lm = (packing.order, lm, packing, data)
        return data

    def leading_coefficient(self, order: MonomialOrder = GREVLEX):
        return self.terms[self.leading_monomial(order)]

    def monic(self, order: MonomialOrder = GREVLEX) -> "Polynomial":
        if not self.terms:
            return self
        inv = self.domain.inv(self.leading_coefficient(order))
        return self * inv

    def coefficient(self, mono: Monomial):
        return self.terms.get(tuple(mono), self.domain.zero())

    # -- substitutions -----------------------------------------------------

    def scale_exponents(self, indices, factor: int) -> "Polynomial":
        """Multiply the exponents of the given variables by ``factor``."""
        idx = set(indices)
        return Polynomial(self.domain, self.nvars,
                          {tuple(e * factor if i in idx else e
                                 for i, e in enumerate(m)): c
                           for m, c in self.terms.items()}, _clean=True)

    def substitute(self, images: dict) -> "Polynomial":
        """Substitute polynomials for variables (index -> Polynomial).

        Unmapped variables stay as themselves; all images must live in a
        common target ring, which also hosts the result.
        """
        target = None
        for img in images.values():
            target = img
            break
        if target is None:
            return self
        dom, nvars = target.domain, target.nvars
        if dom != self.domain:
            raise DomainError("substitution images live in a different domain")
        result = Polynomial.zero(dom, nvars)
        pow_cache: dict = {}
        for m, c in self.terms.items():
            term = Polynomial.constant(dom, nvars, c)
            for i, e in enumerate(m):
                if e == 0:
                    continue
                if i in images:
                    key = (i, e)
                    if key not in pow_cache:
                        pow_cache[key] = images[i] ** e
                    term = term * pow_cache[key]
                else:
                    if i >= nvars:
                        raise PolyError("unmapped variable outside target ring")
                    term = term * Polynomial.variable(dom, nvars, i, e)
            result = result + term
        return result

    def evaluate_partial(self, values: dict) -> "Polynomial":
        """Substitute constants for some variables (index -> coefficient)."""
        dom = self.domain
        p = dom.p
        res: dict = {}
        for m, c in self.terms.items():
            new_m = list(m)
            for i, v in values.items():
                e = m[i]
                if e:
                    v = dom.normalize(v)
                    c = c * pow(v, e, p) % p if p else c * v ** e
                new_m[i] = 0
            if c == 0:
                continue
            key = tuple(new_m)
            w = res.get(key)
            if w is None:
                res[key] = c
            else:
                s = (w + c) % p if p else w + c
                if s:
                    res[key] = s
                else:
                    del res[key]
        return Polynomial(dom, self.nvars, res, _clean=True)

    def drop_variables(self, indices) -> "Polynomial":
        """Remove variables (which must not occur) from the ring."""
        idx = sorted(set(indices), reverse=True)
        terms = {}
        for m, c in self.terms.items():
            m = list(m)
            for i in idx:
                if m[i] != 0:
                    raise PolyError("cannot drop a variable that occurs")
                del m[i]
            terms[tuple(m)] = c
        return Polynomial(self.domain, self.nvars - len(idx), terms, _clean=True)

    # -- comparisons / hashing ---------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if self.is_constant():
                try:
                    return self.constant_term() == self.domain.normalize(other)
                except (DomainError, TypeError, ValueError):
                    return NotImplemented
            return NotImplemented
        return (self.domain == other.domain and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.domain, self.nvars, frozenset(self.terms.items())))

    def sort_key(self):
        """Deterministic total sort key (grevlex on the term list)."""
        items = sorted(self.terms.items(), key=lambda t: _grevlex_key(t[0]))
        return tuple((m, str(c)) for m, c in items)

    # -- printing ----------------------------------------------------------

    def to_string(self, var_names=None) -> str:
        if not self.terms:
            return "0"
        if var_names is None:
            var_names = default_variable_names(self.nvars)
        parts = []
        for mono in sorted(self.terms, key=_grevlex_key, reverse=True):
            coeff = self.terms[mono]
            factors = [f"{var_names[i]}^{e}" if e > 1 else var_names[i]
                       for i, e in enumerate(mono) if e > 0]
            negative = self.domain.is_rational and coeff < 0
            mag = -coeff if negative else coeff
            if factors:
                body = "*".join(factors)
                if mag != 1:
                    body = f"{mag}*{body}"
            else:
                body = str(mag)
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(parts)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"Polynomial({self.domain}, {self.to_string()})"


def default_variable_names(nvars: int):
    if nvars <= 3:
        return ("x", "y", "z")[:nvars]
    return tuple(f"x{i}" for i in range(nvars))


# ---------------------------------------------------------------------------
# Parser for the expression grammar:
#   expr     := sign? term (('+'|'-') term)*
#   term     := factor ('*' factor)*
#   factor   := (name | rational | '(' expr ')') ('^' nat)?
#   rational := int ('/' nat)?
# Whitespace is insignificant; implicit multiplication is a syntax error.


# A token is an ASCII natural number, a name (str.isalnum or '_'), or any
# other character; whitespace (str.isspace) separates tokens.  str.isdigit
# also accepts digits such as '²' that int() rejects.
_TOKEN = re.compile(r"[0-9]+|\w+|\S")
_DIGITS = frozenset("0123456789")
_OPERATORS = frozenset("+-*/^()")


# The names the flat path reads: ASCII, so each is one whole token between
# the separators it stands among.
_FLAT_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_FLAT_SIGN = re.compile(r" ([+-]) ")


def _is_name(t: str) -> bool:
    return t[:1].isalpha() or t[:1] == "_"


def _is_natural(t: str) -> bool:
    return t.isascii() and t.isdigit()


def parse_polynomial(text: str, variables, domain: CoefficientDomain) -> Polynomial:
    """Parse ``text`` into a canonical Polynomial in the given variables."""
    names = list(variables)
    index = {n: i for i, n in enumerate(names) if _is_name(n)}
    nvars = len(names)
    flat = _parse_flat(text, {n: i for n, i in index.items()
                              if _FLAT_NAME.fullmatch(n)}, nvars, domain)
    if flat is not None:
        return flat
    p = domain.p
    toks = _TOKEN.findall(text) + [""]
    i = 0

    def fail(message: str, k: int):
        """Raise ``message`` at token k; positions are found only here.  No
        rule accepts a character that starts no token, so the parser stops
        at the first one and it is reported as itself."""
        t = toks[k]
        if t and t[0] not in _DIGITS and t not in _OPERATORS and not _is_name(t):
            message = f"unexpected character {t[0]!r}"
        starts = [m.start() for m in _TOKEN.finditer(text)] + [len(text)]
        raise ParseError(message, starts[k])

    def parse_expr() -> Polynomial:
        nonlocal i
        # the terms accumulate in one dict: summing Polynomials would copy
        # the partial sum once per term
        acc: dict = {}
        t = toks[i]
        while True:
            negate = t == "-"
            if negate or t == "+":
                i += 1
            for m, c in parse_term().items():
                _add_term(acc, m, c, negate, p)
            t = toks[i]
            if t != "+" and t != "-":
                return Polynomial(domain, nvars, acc, _clean=True)

    def parse_term() -> dict:
        """The terms of one product.  Its names and numbers build one
        exponent vector and one coefficient; only parenthesised factors
        are multiplied as Polynomials."""
        nonlocal i
        mono = [0] * nvars
        coeff = domain.one()
        product = None
        while True:
            t = toks[i]
            i += 1
            if t in index:
                mono[index[t]] += natural("^", 1)
            elif t[:1] in _DIGITS:
                c = int(t)
                try:
                    c = _number(c, natural("/"), domain)
                except DomainError as exc:
                    fail(str(exc), i - 1)
                k = natural("^", 1)
                coeff = coeff * pow(c, k, p) % p if p else coeff * c ** k
            elif t == "(":
                inner = parse_expr()
                i += 1
                if toks[i - 1] != ")":
                    fail("expected ')'", i - 1)
                inner = inner ** natural("^", 1)
                product = inner if product is None else product * inner
            elif _is_name(t):
                fail(f"unknown identifier {t!r}", i - 1)
            else:
                fail(f"unexpected token {t!r}", i - 1)
            if toks[i] != "*":
                break
            i += 1
        if coeff == 0:
            return {}
        term = {tuple(mono): coeff}
        if product is None:
            return term
        return (product * Polynomial(domain, nvars, term, _clean=True)).terms

    def natural(op: str, default=None):
        """The natural number after ``op``, else ``default``."""
        nonlocal i
        if toks[i] != op:
            return default
        v = toks[i + 1]
        i += 2
        if v[:1] not in _DIGITS:
            fail(f"expected a natural number after {op!r}", i - 1)
        return int(v)

    result = parse_expr()
    if i < len(toks) - 1:
        fail(f"unexpected trailing token {toks[i]!r}", i)
    return result


def _parse_flat(text: str, index: dict, nvars: int,
                domain: CoefficientDomain) -> Polynomial | None:
    """``text`` read as a flat sum of monomials, the form ``to_string``
    writes: an optional leading '-', terms joined by ' + ' or ' - ', each
    term numbers (n or n/d) and names (x or x^k) joined by '*'.  None for
    any other text, and for one the recursive-descent parser would reject;
    that parser then reads it.  Numbers are read and terms summed by the
    helpers that parser uses, so they come out equal and in the same
    order."""
    p = domain.p
    one = domain.one()
    # each factor read so far: (variable index, exponent) or (None, number)
    known = {n: (i, 1) for n, i in index.items()}
    parts = _FLAT_SIGN.split(text)      # term, sign, term, ...
    negate = parts[0][:1] == "-"
    if negate:
        parts[0] = parts[0][1:]
    acc: dict = {}
    for k in range(0, len(parts), 2):
        if k:
            negate = parts[k - 1] == "-"
        mono = [0] * nvars
        coeff = one
        for factor in parts[k].split("*"):
            read = known.get(factor)
            if read is None:
                read = known[factor] = _flat_factor(factor, index, domain)
                if read is None:
                    return None
            i, v = read
            if i is None:
                coeff = coeff * v % p if p else coeff * v
            else:
                mono[i] += v
        if coeff:
            _add_term(acc, tuple(mono), coeff, negate, p)
    return Polynomial(domain, nvars, acc, _clean=True)


def _flat_factor(factor: str, index: dict, domain: CoefficientDomain):
    """One factor of a flat sum as (variable index, exponent) for x^k, or
    (None, number) for n or n/d in the domain; None if it is neither, or a
    number the recursive-descent parser rejects."""
    name, caret, power = factor.partition("^")
    if caret:
        i = index.get(name)
        return None if i is None or not _is_natural(power) else (i, int(power))
    num, slash, den = factor.partition("/")
    if not _is_natural(num) or slash and not _is_natural(den):
        return None
    try:
        return None, _number(int(num), int(den) if slash else None, domain)
    except DomainError:
        return None


def _number(num: int, den: int | None, domain: CoefficientDomain):
    """num, or num/den, in ``domain``; DomainError for a zero denominator
    or one the domain cannot invert."""
    if den == 0:
        raise DomainError("division by zero")
    return domain.normalize(num if den is None else Fraction(num, den))


def _add_term(acc: dict, m, c, negate: bool, p: int | None):
    """Add the term c*x^m, negated when asked, to the term dict ``acc``,
    modulo p unless p is None; a monomial that cancels is deleted."""
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


def poly_arith(a: Polynomial, b: Polynomial, op: str) -> Polynomial:
    """Exact ring operation; op is one of add, sub, mul."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise ValueError(f"unknown operation {op!r}")


def poly_power(f: Polynomial, n: int) -> Polynomial:
    """n-th power by binary exponentiation (n >= 0)."""
    return f ** n
