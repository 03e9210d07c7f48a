"""An oracle for ffdio's outputs, computed with sympy alone.

Nothing here imports ffdio. Elements of Q(t) are sympy ``FracField``
elements, whose sparse arithmetic and gcds share no code with ffdio's dense
``Fraction`` polynomials. Where ffdio sums local orders over places, the
oracle takes a different route when one exists: the height of a point is the
largest degree of its cleared coordinates minus the degree of their gcd, and
orders at finite places come from repeated division. Q-ranks of sequences
are ranks of sparse matrices over QQ.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import sympy
from sympy import QQ, Integer, Symbol
from sympy.polys.matrices import DomainMatrix

SYMBOL = Symbol("t")
K, T = sympy.field(SYMBOL, QQ)
R = K.ring


def _ilog2(n):
    n = int(n)
    if n < 1:
        raise ValueError(f"ilog2 of {n}")
    return Integer(n.bit_length() - 1)


def value(text: str, alpha: int | None = None):
    """The element of Q(t) that an ffdio expression denotes at index alpha."""
    names = {"t": SYMBOL, "ilog2": _ilog2}
    if alpha is not None:
        names["a"] = Integer(alpha)
    return K.from_expr(sympy.sympify(text, locals=names))


def num_den(x):
    """Coprime numerator and monic denominator, as polynomials over QQ."""
    num, den = x.numer, x.denom
    lc = den.LC
    return num.quo_ground(lc), den.quo_ground(lc)


@lru_cache(maxsize=None)
def place(text: str):
    """A place as ffdio writes it: 'inf' (None here) or a monic irreducible."""
    if text.strip() == "inf":
        return None
    return R.from_expr(sympy.sympify(text, locals={"t": SYMBOL})).monic()


def place_degree(p) -> int:
    return 1 if p is None else p.degree()


def _multiplicity(f, p) -> int:
    m = 0
    while True:
        q, r = divmod(f, p)
        if r:
            return m
        f, m = q, m + 1


def order(x, p) -> int:
    """ord_p of a nonzero element of Q(t); p = None is the place at infinity."""
    if not x:
        raise ValueError("the order of zero is undefined")
    if p is None:
        return x.denom.degree() - x.numer.degree()
    return _multiplicity(x.numer, p) - _multiplicity(x.denom, p)


def height(coords) -> int:
    """Projective height: clear denominators, then max degree minus gcd degree."""
    pairs = [(c.numer, c.denom) for c in coords if c]
    if not pairs:
        raise ValueError("a projective point needs a nonzero coordinate")
    common = pairs[0][1]
    for _, d in pairs[1:]:
        common = common.lcm(d)
    polys = [n * common.exquo(d) for n, d in pairs]
    g = polys[0]
    for f in polys[1:]:
        g = g.gcd(f)
    return max(f.degree() for f in polys) - g.degree()


def weil(x, form, p) -> int:
    """Local Weil function of the point x against the form at the place p."""
    value_at = sum((a * c for a, c in zip(form, x)), K.zero)
    if not value_at:
        raise ValueError("the point lies on the hyperplane")
    e_x = min(order(c, p) for c in x if c)
    e_form = min(order(a, p) for a in form if a)
    return (order(value_at, p) - e_x - e_form) * place_degree(p)


def _dense(p) -> list[Fraction]:
    """Coefficients lowest degree first, as Fractions."""
    out = [Fraction(0)] * (max(p.degree(), -1) + 1)
    for (e,), c in p.terms():
        out[e] = Fraction(int(c.numerator), int(c.denominator))
    return out


def _key(p) -> tuple:
    return tuple(reversed(_dense(p.monic())))


def place_key(text: str):
    p = place(text)
    return "inf" if p is None else _key(p)


def divisor(x) -> dict:
    """{place: multiplicity} of a nonzero element, from sympy's factor_list.

    Finite places are keyed by their monic coefficient tuple (highest degree
    first); the place at infinity is keyed by 'inf'.
    """
    out: dict = {}
    for poly, sign in ((x.numer, 1), (x.denom, -1)):
        for factor, mult in poly.factor_list()[1]:
            key = _key(factor)
            out[key] = out.get(key, 0) + sign * mult
    inf = x.denom.degree() - x.numer.degree()
    if inf:
        out["inf"] = inf
    return {k: m for k, m in out.items() if m}


def reduced_coeffs(x) -> tuple[list[Fraction], list[Fraction]]:
    """Numerator and monic denominator coefficients, lowest degree first."""
    num, den = num_den(x)
    return _dense(num), _dense(den)


def q_rank(items) -> int:
    """Rank over Q of K-valued sequences on a window.

    items[k][i] = (num, den) of item k at the i-th window index. A relation
    sum_k c_k item_k = 0 with rational c_k holds at an index exactly when it
    holds between the numerators over a common denominator, so each item
    becomes the concatenated coefficient vectors of those numerators.
    """
    if not items:
        return 0
    rows: dict[int, dict] = {k: {} for k in range(len(items))}
    offset = 0
    for i in range(len(items[0])):
        common = R.one
        for item in items:
            common = common.lcm(item[i][1])
        width = 0
        for k, item in enumerate(items):
            num, den = item[i]
            f = num * common.exquo(den)
            for (e,), c in f.terms():
                rows[k][offset + e] = c
            width = max(width, f.degree() + 1)
        offset += width
    rows = {k: r for k, r in rows.items() if r}
    if not rows:
        return 0
    return DomainMatrix(rows, (len(items), max(offset, 1)), QQ).rank()


def exponent_vectors(n: int, s: int) -> list[tuple[int, ...]]:
    """All exponent vectors of n generators with total degree s."""
    if n == 1:
        return [(s,)]
    return [(e,) + rest for e in range(s, -1, -1) for rest in exponent_vectors(n - 1, s - e)]


class MonomialValues:
    """Values of monomials in generator sequences, as (num, den) pairs."""

    def __init__(self, generators):
        # generators[g][i] = the element of Q(t) of generator g at the i-th index
        self.generators = generators
        self._powers: dict = {}

    def _power(self, g: int, i: int, e: int):
        key = (g, i, e)
        if key not in self._powers:
            self._powers[key] = self.generators[g][i] ** e
        return self._powers[key]

    def monomial(self, exps) -> list:
        out = []
        for i in range(len(self.generators[0])):
            acc = K.one
            for g, e in enumerate(exps):
                if e:
                    acc = acc * self._power(g, i, e)
            out.append((acc.numer, acc.denom))
        return out

    def rank(self, exps_list) -> int:
        return q_rank([self.monomial(e) for e in exps_list])

    def dim(self, s: int) -> int:
        """l(s): the Q-rank of all monomials of total degree s."""
        return self.rank(exponent_vectors(len(self.generators), s))


def choose_s(dims: list[int], delta: Fraction) -> int | None:
    """Smallest s with l(s+1) <= (1+delta) l(s), from dims = [l(0), l(1), ...]."""
    for s in range(len(dims) - 1):
        if dims[s + 1] <= (1 + delta) * dims[s]:
            return s
    return None


def _is_singular(rows) -> bool:
    m = [list(r) for r in rows]
    n = len(m)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return True
        m[c], m[pivot] = m[pivot], m[c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return False


def general_position(forms) -> bool:
    """Every (M+1)-subset of the forms is independent over Q(t)."""
    size = len(forms[0])
    return not any(
        _is_singular([forms[j] for j in subset])
        for subset in combinations(range(len(forms)), size)
    )
