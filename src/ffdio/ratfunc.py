"""Exact univariate polynomial and rational-function arithmetic over Q.

Everything here is immutable and exact: coefficients are `fractions.Fraction`,
equality is structural, and no floating point is used anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

Scalar = Union[int, Fraction]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


class Poly:
    """Dense polynomial in t over Q: coeffs[i] is the coefficient of t^i.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _normalized(cls, coeffs: tuple) -> "Poly":
        """Wrap a tuple of Fractions that already has no trailing zero."""
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", coeffs)
        return p

    @classmethod
    def _trimmed(cls, coeffs: list) -> "Poly":
        """Wrap a list of Fractions, dropping its trailing zeros."""
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return cls._normalized(tuple(coeffs))

    @classmethod
    def constant(cls, c: Scalar) -> "Poly":
        return cls([_frac(c)])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Poly":
        return self._scale(1 / self.leading())

    def _scale(self, c: Fraction) -> "Poly":
        """c * self for a nonzero Fraction c, without a convolution."""
        if c == 1:
            return self
        return Poly._normalized(tuple(c * x for x in self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "Poly":
        return Poly._normalized(tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly._trimmed(out)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "Poly":
        other = _as_poly(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        if len(a) == 1:
            return other._scale(a[0])
        if len(b) == 1:
            return self._scale(b[0])
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        # The leading coefficient is lc(a) * lc(b), which is nonzero.
        return Poly._normalized(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __divmod__(self, other) -> tuple["Poly", "Poly"]:
        other = _as_poly(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        d = other.degree
        lc = other.leading()
        if len(rem) - 1 < d:
            return ZERO, self
        quo = [Fraction(0)] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c:
                q = c / lc
                quo[i - d] = q
                for j, oc in enumerate(other.coeffs):
                    rem[i - d + j] -= q * oc
        # The leading quotient coefficient is lc(self) / lc(other), nonzero.
        return Poly._normalized(tuple(quo)), Poly._trimmed(rem)

    def __floordiv__(self, other) -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Poly":
        return divmod(self, other)[1]

    def evaluate(self, x: Scalar) -> Fraction:
        x = _frac(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in range(self.degree, -1, -1):
            c = self.coeffs[e]
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif mag == 1:
                body = "t" if e == 1 else f"t^{e}"
            else:
                body = f"{mag}*t" if e == 1 else f"{mag}*t^{e}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"Poly({str(self)!r})"


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.constant(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Poly")


ZERO = Poly()
ONE = Poly([1])
T = Poly([0, 1])


def _primitive(p: Poly) -> tuple[Fraction, list[int]]:
    """p = c * P for a nonzero p, with c a positive rational and P a primitive
    integer coefficient list, lowest degree first."""
    from math import gcd, lcm

    den = lcm(*[c.denominator for c in p.coeffs])
    if den == 1:
        ints = [c.numerator for c in p.coeffs]
    else:
        ints = [c.numerator * (den // c.denominator) for c in p.coeffs]
    content = gcd(*ints)
    if content != 1:
        ints = [c // content for c in ints]
    return Fraction(content, den), ints


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; raises on gcd(0, 0).

    Computed over the integers after clearing denominators; plain Euclid over
    Q suffers severe coefficient blowup at moderate degrees.
    """
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd of two zero polynomials is undefined")
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    from sympy.polys.domains import ZZ
    from sympy.polys.euclidtools import dup_gcd

    def as_ints(p: Poly):  # sympy wants the highest degree first
        return [ZZ(c) for c in reversed(_primitive(p)[1])]

    g = dup_gcd(as_ints(a), as_ints(b), ZZ)
    return Poly(reversed([int(c) for c in g])).monic()


def multiplicity(f: Poly, p: Poly) -> int:
    """Largest m with p^m dividing f; f must be nonzero and p nonconstant.

    Off the place t, f and p are cleared to primitive integer polynomials F and
    P once. By Gauss's lemma p^m | f over Q exactly when P^m | F over Z, so each
    trial division runs in Z[t] and stops at the first coefficient that lc(P)
    does not divide.
    """
    if f.is_zero():
        raise ValueError("multiplicity in the zero polynomial is undefined")
    if p.coeffs == T.coeffs:
        m = 0
        while m <= f.degree and f.coeffs[m] == 0:
            m += 1
        return m
    F, P = _primitive(f)[1], _primitive(p)[1]
    d, lc = len(P) - 1, P[-1]
    m = 0
    while len(F) > d:
        rem = list(F)
        quo = [0] * (len(F) - d)
        for i in range(len(F) - 1, d - 1, -1):
            c = rem[i]
            if c:
                q, r = divmod(c, lc)
                if r:
                    return m
                quo[i - d] = q
                for j in range(d):
                    rem[i - d + j] -= q * P[j]
        if any(rem[:d]):
            return m
        m += 1
        F = quo
    return m


def coprime_base(polys: Iterable[Poly]) -> list[Poly]:
    """Monic, squarefree, pairwise coprime b_1, ..., b_k, sorted by (degree,
    coefficients), such that every irreducible factor of a nonconstant input
    divides exactly one b_i, and all irreducible factors of one b_i have the
    same order in every input. Nothing is factored.

    Each input f gives its squarefree layers rad(f), rad(f / rad(f)), ...: the
    k-th layer is the product of the irreducible p with ord_p(f) >= k, and
    f / rad(f) = gcd(f, f') in characteristic 0. The layers are then refined
    pairwise: a piece that shares a factor g with a base element b splits b
    into g and b / g, and goes on as its own cofactor. Every layer stays a
    product of base elements, so ord_p(f), the number of layers of f that p
    divides, is constant on the irreducible factors of one element.
    """
    from sympy.polys.densetools import dup_diff
    from sympy.polys.domains import ZZ
    from sympy.polys.euclidtools import dup_inner_gcd

    # Primitive integer lists, highest degree first, as sympy wants them.
    base: list[list] = []
    for f in polys:
        if f.degree < 1:
            continue
        f = [ZZ(c) for c in reversed(_primitive(f)[1])]
        while len(f) > 1:
            f, piece, _ = dup_inner_gcd(f, dup_diff(f, 1, ZZ), ZZ)
            # A rest b / g appended here is coprime to what is left of the
            # piece, since b and the piece are squarefree: it is not revisited.
            for i in range(len(base)):
                g, rest, piece = dup_inner_gcd(base[i], piece, ZZ)
                if len(g) > 1:  # b and the piece share g: b becomes g and b / g
                    base[i] = g
                    if len(rest) > 1:
                        base.append(rest)
                if len(piece) == 1:
                    break
            else:
                base.append(piece)
    out = [Poly(reversed([int(c) for c in b])).monic() for b in base]
    out.sort(key=lambda b: (b.degree, b.coeffs))
    return out


@dataclass(frozen=True)
class Factorization:
    """unit * prod(factor^mult) == the factored polynomial, exactly."""

    unit: Fraction
    factors: tuple[tuple[Poly, int], ...]

    def expand(self) -> Poly:
        acc = Poly.constant(self.unit)
        for f, m in self.factors:
            acc = acc * f ** m
        return acc


@lru_cache(maxsize=4096)
def factorize(p: Poly) -> Factorization:
    """Factor into a rational unit times monic irreducible polynomials over Q.

    Factors are sorted by (degree, coefficient tuple); the result is certified
    by exact re-multiplication before being returned.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if p.degree == 0:
        return Factorization(p.coeffs[0], ())
    if p.degree == 1:
        # Degree one is irreducible: p = lc * (monic p), with nothing to certify.
        return Factorization(p.leading(), ((p.monic(), 1),))

    unit, ints = _primitive(p)

    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dup_factor_list

    # sympy wants the highest degree first.
    lead, sym_factors = dup_factor_list([ZZ(c) for c in reversed(ints)], ZZ)
    unit *= Fraction(int(lead))
    pairs = [(list(reversed([int(c) for c in f])), m) for f, m in sym_factors]

    factors = []
    for cs, mult in pairs:
        poly = Poly(cs)
        lc = poly.leading()
        unit *= lc ** mult
        factors.append((poly.monic(), mult))
    factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))

    result = Factorization(unit, tuple(factors))
    if result.expand() != p:
        raise AssertionError(f"factorization certificate failed for {p}")
    return result


class RatFunc:
    """Reduced rational function num/den over Q with monic denominator.

    The zero element is 0/1; arithmetic coerces ints, Fractions and Polys.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Union[Poly, Scalar], den: Union[Poly, Scalar] = ONE):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if num.is_zero():
            num, den = ZERO, ONE
        else:
            # A constant side has gcd 1 with the other.
            if num.degree > 0 and den.degree > 0:
                g = poly_gcd(num, den)
                if g.degree > 0:
                    num, den = num // g, den // g
            lc = den.leading()
            if lc != 1:
                num = num._scale(1 / lc)
                den = den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _reduced(cls, num: Poly, den: Poly) -> "RatFunc":
        """Wrap num/den that is already reduced, with den monic and 0 as 0/1."""
        r = object.__new__(cls)
        object.__setattr__(r, "num", num)
        object.__setattr__(r, "den", den)
        return r

    @classmethod
    def constant(cls, c: Scalar) -> "RatFunc":
        return cls(Poly.constant(c))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not a constant")
        return self.num.coeffs[0] if self.num.coeffs else Fraction(0)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction, Poly)):
            # Its denominator would be ONE, the one monic constant.
            return self.den.degree == 0 and self.num == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __neg__(self) -> "RatFunc":
        return RatFunc._reduced(-self.num, self.den)

    def __add__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == ONE and other.den == ONE:
            return RatFunc._reduced(self.num + other.num, ONE)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other) -> "RatFunc":
        return self + (-_require_ratfunc(other))

    def __rsub__(self, other) -> "RatFunc":
        return _require_ratfunc(other) + (-self)

    def __mul__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == ONE and other.den == ONE:
            return RatFunc._reduced(self.num * other.num, ONE)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = _require_ratfunc(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RatFunc":
        return _require_ratfunc(other) / self

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFunc(self.den, self.num)

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return self.inverse() ** (-n)
        # Powers of coprime num and den stay coprime; a monic den stays monic.
        return RatFunc._reduced(self.num ** n, self.den ** n)

    def __str__(self) -> str:
        if self.den == ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({str(self)!r})"


def _as_ratfunc(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction)):
        return RatFunc.constant(x)
    if isinstance(x, Poly):
        return RatFunc(x)
    return NotImplemented


def _require_ratfunc(x) -> RatFunc:
    r = _as_ratfunc(x)
    if r is NotImplemented:
        raise TypeError(f"cannot coerce {type(x).__name__} to RatFunc")
    return r


RF_T = RatFunc(T)
