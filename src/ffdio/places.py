"""Places of the projective line over Q: orders, divisors, the sum formula.

A finite place is a monic irreducible polynomial in t; the place at infinity
is a distinguished singleton of degree 1. The order of f/g at infinity is
deg g - deg f.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .parser import parse_ratfunc
from .ratfunc import ONE, Poly, RatFunc, factorize, multiplicity


class PrimeDivisor:
    """A finite place (monic irreducible poly) or the place at infinity.

    `heights.weil_total` also wraps the elements of a coprime base, which may
    be reducible: ord_at at such an element b is the order that all
    irreducible factors of b share, and its degree is the sum of theirs.
    """

    __slots__ = ("poly",)

    def __init__(self, poly: Optional[Poly]):
        if poly is not None:
            if poly.degree < 1:
                raise ValueError("a finite place needs degree >= 1")
            if poly.leading() != 1:
                raise ValueError("a finite place must be monic")
        object.__setattr__(self, "poly", poly)

    @property
    def is_finite(self) -> bool:
        return self.poly is not None

    @property
    def degree(self) -> int:
        return self.poly.degree if self.poly is not None else 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, PrimeDivisor):
            return NotImplemented
        return self.poly == other.poly

    def __hash__(self) -> int:
        return hash(self.poly)

    def sort_key(self):
        if self.poly is None:
            return (1, 0, ())
        return (0, self.poly.degree, self.poly.coeffs)

    def __str__(self) -> str:
        return "inf" if self.poly is None else str(self.poly)

    def __repr__(self) -> str:
        return f"PrimeDivisor({str(self)!r})"


INFINITY = PrimeDivisor(None)


def parse_prime(text: str) -> PrimeDivisor:
    """Parse `inf` or an irreducible polynomial expression (normalized monic)."""
    if text.strip() == "inf":
        return INFINITY
    value = parse_ratfunc(text)
    if value.den != ONE or value.num.degree < 1:
        raise ValueError(f"{text!r} is not a polynomial of degree >= 1")
    poly = value.num.monic()
    fact = factorize(poly)
    if len(fact.factors) != 1 or fact.factors[0][1] != 1:
        raise ValueError(f"{text!r} is not irreducible")
    return PrimeDivisor(poly)


def ord_at(x: RatFunc, p: PrimeDivisor) -> int:
    """Order of vanishing of x at p (negative at poles); x must be nonzero."""
    if x.is_zero():
        raise ValueError("the order of zero is undefined")
    if p.poly is None:
        return x.den.degree - x.num.degree
    return multiplicity(x.num, p.poly) - multiplicity(x.den, p.poly)


@dataclass(frozen=True)
class Divisor:
    """Formal integer combination of places; stored multiplicities are nonzero."""

    support: tuple[tuple[PrimeDivisor, int], ...]  # sorted, finite places first

    @classmethod
    def from_dict(cls, entries: dict[PrimeDivisor, int]) -> "Divisor":
        items = [(p, m) for p, m in entries.items() if m != 0]
        items.sort(key=lambda pm: pm[0].sort_key())
        return cls(tuple(items))

    def multiplicity(self, p: PrimeDivisor) -> int:
        for q, m in self.support:
            if q == p:
                return m
        return 0

    def degree(self) -> int:
        return sum(m * p.degree for p, m in self.support)

    def __str__(self) -> str:
        if not self.support:
            return "0"
        return " + ".join(f"{m}*({p})" for p, m in self.support)


def divisor_of(x: RatFunc) -> Divisor:
    """The divisor of zeros minus poles of a nonzero x; total degree is 0."""
    if x.is_zero():
        raise ValueError("the zero element has no divisor")
    entries: dict[PrimeDivisor, int] = {}
    for poly, mult in factorize(x.num).factors:
        entries[PrimeDivisor(poly)] = entries.get(PrimeDivisor(poly), 0) + mult
    for poly, mult in factorize(x.den).factors:
        p = PrimeDivisor(poly)
        entries[p] = entries.get(p, 0) - mult
    inf_ord = x.den.degree - x.num.degree
    if inf_ord:
        entries[INFINITY] = inf_ord
    return Divisor.from_dict(entries)


def check_sum_formula(x: RatFunc) -> int:
    """Sum of ord * degree over the support of (x); always exactly 0."""
    return sum(m * p.degree for p, m in divisor_of(x).support)
