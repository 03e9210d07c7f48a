"""Projective points and hyperplanes over Q(t): heights, Weil functions, proximity.

Heights are exact integers (degree sums); nothing here is approximate. All
outputs are invariant under scaling a point's coordinates or a form's
coefficients by a common nonzero rational function.

A height takes one lcm of the denominators and one gcd of the cleared
coordinates, and factors nothing: h([f_0 : ... : f_M]) = max deg F_i -
deg gcd(F_i), where F_i = f_i * lcm(dens) are polynomials. `weil_total`
factors nothing either: it sums over the elements of a coprime base of the
values involved.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence as Seq

from .places import INFINITY, PrimeDivisor, ord_at
from .ratfunc import ONE, RatFunc, coprime_base, poly_gcd


@dataclass(frozen=True)
class ProjPoint:
    coords: tuple[RatFunc, ...]

    def __post_init__(self):
        if not any(self.coords):
            raise ValueError("a projective point needs a nonzero coordinate")

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

    def __str__(self) -> str:
        return "[" + " : ".join(str(c) for c in self.coords) + "]"


@dataclass(frozen=True)
class LinearForm:
    coeffs: tuple[RatFunc, ...]

    def __post_init__(self):
        if not any(self.coeffs):
            raise ValueError("a linear form needs a nonzero coefficient")

    @property
    def dim(self) -> int:
        return len(self.coeffs) - 1

    def apply(self, x: ProjPoint) -> RatFunc:
        if len(self.coeffs) != len(x.coords):
            raise ValueError("dimension mismatch between form and point")
        acc = RatFunc.constant(0)
        for a, c in zip(self.coeffs, x.coords):
            acc = acc + a * c
        return acc

    def __str__(self) -> str:
        return "[" + " : ".join(str(c) for c in self.coeffs) + "]"


@dataclass(frozen=True)
class PlaceSet:
    places: frozenset[PrimeDivisor]

    def __post_init__(self):
        if not self.places:
            raise ValueError("place set must be nonempty")

    @classmethod
    def of(cls, places: Iterable[PrimeDivisor]) -> "PlaceSet":
        return cls(frozenset(places))

    def sorted(self) -> list[PrimeDivisor]:
        return sorted(self.places, key=lambda p: p.sort_key())


def _min_ord(values: Seq[RatFunc], p: PrimeDivisor) -> int:
    """Minimum of ord_p over the nonzero entries (zero entries have ord +inf)."""
    ords = [ord_at(v, p) for v in values if not v.is_zero()]
    if not ords:
        raise ValueError("all values are zero")
    return min(ords)


def e_point(x: ProjPoint, p: PrimeDivisor) -> int:
    return _min_ord(x.coords, p)


def e_form(L: LinearForm, p: PrimeDivisor) -> int:
    return _min_ord(L.coeffs, p)


def _height(values: Seq[RatFunc]) -> int:
    """max deg F_i - deg gcd(F_i) over the nonzero values f_i, F_i = f_i * D
    with D the lcm of their denominators. Summed over the places, this is
    -min ord_p(f_i) * deg p: at infinity the max degree, at the finite places
    minus the degree of the gcd."""
    nonzero = [v for v in values if not v.is_zero()]
    if not nonzero:
        raise ValueError("all values are zero")
    common = ONE
    for v in nonzero:
        if v.den.degree == 0 or v.den == common:
            continue
        if common.degree == 0:
            common = v.den
        else:  # both monic, so the lcm is monic
            common = common * (v.den // poly_gcd(common, v.den))
    polys = [v.num if v.den == common else v.num * (common // v.den) for v in nonzero]
    top = max(f.degree for f in polys)
    if any(f.degree == 0 for f in polys):  # a constant has gcd 1 with the rest
        return top
    g = polys[0]
    for f in polys[1:]:
        g = poly_gcd(g, f)
        if g.degree == 0:
            break
    return top - g.degree


def height_point(x: ProjPoint) -> int:
    return _height(x.coords)


def height_form(L: LinearForm) -> int:
    return _height(L.coeffs)


def form_value(x: ProjPoint, L: LinearForm) -> RatFunc:
    """L(x), which must be nonzero for a Weil function of x at L to exist."""
    value = L.apply(x)
    if value.is_zero():
        raise ValueError("the point lies on the hyperplane; Weil function undefined")
    return value


def weil_at(value: RatFunc, e_x: int, e_L: int, p: PrimeDivisor) -> int:
    """The Weil function at p from the value L(x), e_p(x) and e_p(L), which the
    caller computes once for all the places or forms it sums over."""
    lam = (ord_at(value, p) - e_x - e_L) * p.degree
    assert lam >= 0, "Weil function must be nonnegative"
    return lam


def weil(x: ProjPoint, L: LinearForm, p: PrimeDivisor) -> int:
    """Local proximity of x to the hyperplane L = 0 at p; nonnegative."""
    return weil_at(form_value(x, L), e_point(x, p), e_form(L, p), p)


def weil_total(x: ProjPoint, L: LinearForm) -> int:
    """Sum of the Weil function over all places; equals h(x) + h(L) exactly.

    The finite places are taken in blocks, one per element b of a coprime base
    of the numerators and denominators of x, L and L(x). Every place p | b has
    the same order in each of those values, so the Weil function at b times
    deg b is the sum of lambda_p * deg p over the places p | b, and it is
    nonnegative exactly when each of them is.
    """
    value = form_value(x, L)
    polys = (f for v in (*x.coords, *L.coeffs, value) for f in (v.num, v.den))
    blocks = [PrimeDivisor(b) for b in coprime_base(polys)]
    return sum(weil_at(value, e_point(x, p), e_form(L, p), p) for p in [*blocks, INFINITY])


def proximity(x: ProjPoint, L: LinearForm, S: PlaceSet) -> int:
    """Sum of the Weil function over the places of S."""
    value = form_value(x, L)
    return sum(weil_at(value, e_point(x, p), e_form(L, p), p) for p in S.sorted())
