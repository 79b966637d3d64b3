"""Characteristic-p Frobenius machinery.

Bracket powers, Frobenius roots over polynomial rings (by decomposition over
the monomial basis of the Frobenius pushforward), and the embedding of ideals
of B_i = R tensor_A A^{1/q^i} into B_{i+n} for polynomial bases A = F_p[t].

p^{-e}-linear maps are represented throughout by a single multiplier
element u: the map sends z^{1/q} to trace(u*z)^{1/q}, and the image of an
ideal J is computed as the Frobenius root of u*J.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groebner import Ideal
from .polycore import DomainError, Polynomial, _is_prime


@dataclass(frozen=True)
class FrobeniusPower:
    """q = p^e for the ambient characteristic p."""

    p: int
    e: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise DomainError(f"{self.p} is not prime")
        if self.e < 0:
            raise DomainError("Frobenius exponent must be >= 0")

    @property
    def q(self) -> int:
        return self.p ** self.e


def _check_char(obj, p: int):
    if obj.domain.characteristic != p:
        raise DomainError(
            f"expected characteristic {p}, got {obj.domain.characteristic}")


def bracket_power(I: Ideal, power: FrobeniusPower) -> Ideal:
    """a^[q]: the ideal generated by q-th powers of the generators."""
    _check_char(I, power.p)
    return Ideal(I.domain, I.nvars,
                 [g.frobenius_power(power.q) for g in I.gens])


def decompose(f: Polynomial, q: int, root_indices=None) -> dict:
    """Write f = sum_r (g_r)^q * x^r over the pushforward basis.

    Returns {residue monomial r: g_r}.  Only the variables in
    ``root_indices`` (default: all) are rooted; the others stay in the
    coefficient polynomials untouched, which realizes relative Frobenius
    roots over a polynomial base.
    """
    n = f.nvars
    idx = set(range(n)) if root_indices is None else set(root_indices)
    pieces: dict = {}
    for m, c in f.terms.items():
        residue = tuple(m[i] % q if i in idx else 0 for i in range(n))
        quotient = tuple((m[i] - residue[i]) // q if i in idx else m[i]
                         for i in range(n))
        bucket = pieces.setdefault(residue, {})
        bucket[quotient] = c  # c^{1/q} = c over F_p
    return {r: Polynomial(f.domain, n, terms, _clean=True)
            for r, terms in pieces.items()}


def frobenius_root(I: Ideal, power: FrobeniusPower, root_indices=None) -> Ideal:
    """I^[1/q]: smallest J with I subseteq J^[q] (polynomial ambient only)."""
    _check_char(I, power.p)
    q = power.q
    gens = []
    for g in I.gens:
        gens.extend(decompose(g, q, root_indices).values())
    return Ideal(I.domain, I.nvars, gens)


def embed_ideal_to_level(I: Ideal, base_indices, power: FrobeniusPower,
                         levels: int) -> Ideal:
    """Image of a level-i ideal in level i+levels coordinates: B_i embeds in
    B_{i+levels} by t_j -> t_j^{q^levels} on the base variables."""
    if levels < 0:
        raise DomainError("cannot embed downward")
    qn = power.q ** levels
    return Ideal(I.domain, I.nvars,
                 [g.scale_exponents(base_indices, qn) for g in I.gens])
