"""Monomial spaces over normalized coefficient sequences: dimensions, the
(1+delta) degree selection, and nested basis extension.

The space of degree s is spanned over Q by all monomials of total degree s in
the given sequences; its dimension is the Q-rank of the monomial value
sequences on the evaluation window.

The Q-ranks come from cleared integer numerators. At each index alpha one
common scale c(alpha) turns every generator value into an integer polynomial
P_i = c(alpha) * xi_i(alpha): the lcm of their denominators, which takes a gcd
only where two denominators differ, times the lcm of the coefficient
denominators left. A degree-s monomial times c(alpha)^s is then prod P_i^e_i,
built from one monomial of degree s-1 with one integer product and kept per
index. Every item of one rank has the same degree, so the items at one index
share the factor c(alpha)^s, which changes neither the rank nor the greedy
accepted prefix. (Scaling each generator by its own content would.)
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm
from typing import Optional, Sequence as Seq

from .linalg import GreedyBasis
from .moving import Sequence
from .ratfunc import ONE, RatFunc, poly_gcd

# The most monomials of degree at most s, C(n+s, s) for n generators, that a
# space of degree s may keep per index; a larger degree is refused before its
# monomials are listed.
MAX_MONOMIALS = 10_000


def _exponent_vectors(n: int, s: int) -> list[tuple[int, ...]]:
    """All exponent vectors of length n with total degree exactly s, in
    lexicographically decreasing order."""
    if n == 1:
        return [(s,)]
    out = []
    for first in range(s, -1, -1):
        for rest in _exponent_vectors(n - 1, s - first):
            out.append((first,) + rest)
    return out


def monomials(xi_count: int, s: int) -> list[tuple[int, ...]]:
    """All exponent vectors of total degree s in graded-lex order."""
    if s < 0:
        raise ValueError("degree must be nonnegative")
    if xi_count < 1:
        raise ValueError("need at least one generator")
    return _exponent_vectors(xi_count, s)


def monomial_sequence(xis: Seq[Sequence], exponents: Seq[int]) -> Sequence:
    """The sequence alpha -> prod xis[i](alpha)^e_i."""
    pairs = [(xis[i], e) for i, e in enumerate(exponents) if e]

    def fn(alpha: int) -> RatFunc:
        acc = RatFunc.constant(1)
        for seq, e in pairs:
            acc = acc * seq.eval(alpha) ** e
        return acc

    alpha_min = max((seq.alpha_min for seq, _ in pairs), default=0)
    label = "*".join(f"g{i}^{e}" for i, (_, e) in enumerate(pairs)) or "1"
    return Sequence(fn, alpha_min, label)


class _Ladder:
    """Cleared monomial values on a window, kept per index.

    The value of exponent vector e at the k-th index is c^|e| * prod xi_i^e_i
    as a list of integer coefficients (lowest degree first), with one common
    scale c per index. The generators are evaluated at an index only when a
    monomial of degree >= 1 is first asked for there.
    """

    def __init__(self, xis: tuple[Sequence, ...], window: tuple[int, ...]):
        self.xis = xis
        self.window = window
        n = len(xis)
        self._units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        self._memo: list[dict[tuple[int, ...], list[int]]] = [
            {(0,) * n: [1]} for _ in window
        ]

    def _cleared(self, k: int) -> None:
        """Evaluate the generators at the k-th index and keep each cleared
        generator P_i = c * xi_i under its unit exponent vector."""
        values = [seq.eval(self.window[k]) for seq in self.xis]
        den = ONE
        for v in values:
            if v.den != den and v.den != ONE:
                den = v.den if den == ONE else den * (v.den // poly_gcd(den, v.den))
        nums = [
            v.num if v.den == den else v.num * (den if v.den == ONE else den // v.den)
            for v in values
        ]
        scale = lcm(*(c.denominator for p in nums for c in p.coeffs))
        memo = self._memo[k]
        for unit, p in zip(self._units, nums):
            memo[unit] = [c.numerator * (scale // c.denominator) for c in p.coeffs]

    def value(self, k: int, e: tuple[int, ...]) -> list[int]:
        """The cleared value of e at the k-th index: the value of e minus
        its first nonzero unit, times that generator, built down to the
        nearest monomial already kept."""
        memo = self._memo[k]
        if e not in memo and self._units[0] not in memo:
            self._cleared(k)
        missing = []
        while e not in memo:
            i = next(i for i, x in enumerate(e) if x)
            missing.append((e, i))
            e = e[:i] + (e[i] - 1,) + e[i + 1:]
        out = memo[e]
        for e, i in reversed(missing):
            out = memo[e] = _convolve(out, memo[self._units[i]])
        return out

    def rows(self, gens: Seq[tuple[int, ...]]) -> list[dict[int, int]]:
        """One sparse integer row per monomial: its cleared value's
        coefficients at each index, one block of columns per index."""
        rows: list[dict[int, int]] = [{} for _ in gens]
        offset = 0
        for k in range(len(self.window)):
            values = [self.value(k, g) for g in gens]
            for row, v in zip(rows, values):
                for i, c in enumerate(v):
                    if c:
                        row[offset + i] = c
            offset += max(1, max(map(len, values), default=0))
        return rows


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """The product of two integer polynomials given as coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


@dataclass(frozen=True)
class MonomialSpace:
    s: int
    generators: tuple[tuple[int, ...], ...]
    window: tuple[int, ...]
    basis: tuple[int, ...]  # indices into generators, greedy independent prefix
    dim: int
    xis: tuple[Sequence, ...]
    ladder: _Ladder = field(compare=False, repr=False)  # the values, for reuse


def dim_L(
    xis: Seq[Sequence], s: int, window: Seq[int], *, ladder: Optional[_Ladder] = None
) -> MonomialSpace:
    """Evaluate all degree-s monomials on the window and take their Q-rank.

    The basis is the greedy first-independent prefix in graded-lex generator
    order, which makes it a prefix-stable choice across degrees. `ladder` is
    the ladder of a space of the same generators and window, whose monomial
    values are then reused. A degree s with more than MAX_MONOMIALS monomials
    of degree <= s is refused with a ValueError before anything is built.
    """
    window = tuple(window)
    if not window:
        raise ValueError("window must be nonempty")
    n = len(xis)
    # A degree-s value is built on those of every lower degree, so the ladder
    # keeps all monomials of degree <= s.
    count = comb(n + s, s) if s >= 0 else 0
    if count > MAX_MONOMIALS:
        raise ValueError(
            f"{count} monomials of degree at most {s} in {n} generators exceed "
            f"the cap {MAX_MONOMIALS}"
        )
    gens = monomials(n, s)
    if ladder is None:
        ladder = _Ladder(tuple(xis), window)
    elif ladder.xis != tuple(xis) or ladder.window != window:
        raise ValueError("the ladder belongs to other generators or another window")
    greedy = GreedyBasis()
    for row in ladder.rows(gens):
        greedy.offer(row)
    return MonomialSpace(
        s=s,
        generators=tuple(gens),
        window=window,
        basis=tuple(greedy.accepted),
        dim=greedy.rank,
        xis=tuple(xis),
        ladder=ladder,
    )


def choose_s(
    xis: Seq[Sequence],
    delta: Fraction,
    window: Seq[int],
    s_max: int,
) -> tuple[MonomialSpace, MonomialSpace]:
    """The spaces of degrees s and s+1 for the smallest s <= s_max with
    l(s+1) <= (1+delta) * l(s) on the window.

    The degrees share one ladder, so each monomial is built once, with one
    product. The first degree over the MAX_MONOMIALS cap is refused.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if s_max < 0:
        raise ValueError("s_max: must be a nonnegative integer")
    bound = 1 + Fraction(delta)
    prev = dim_L(xis, 0, window)
    for s in range(s_max + 1):
        nxt = dim_L(xis, s + 1, window, ladder=prev.ladder)
        if nxt.dim <= bound * prev.dim:
            return prev, nxt
        prev = nxt
    raise ValueError(
        f"no s <= {s_max} with l(s+1) <= (1+{delta})*l(s); raise s_max or grow the window"
    )


def extend_basis(space_s: MonomialSpace, space_s1: MonomialSpace) -> list[tuple[int, ...]]:
    """Extend the degree-s basis to a degree-(s+1) basis.

    The degree-s basis monomials are carried up by multiplying with a generator
    whose value is identically 1 on the window (present after normalization);
    the list is completed greedily from the degree-(s+1) generators. Every
    candidate has degree s+1, so their values come from space_s1's ladder.
    """
    if space_s1.s != space_s.s + 1:
        raise ValueError("spaces must have consecutive degrees")
    if space_s1.window != space_s.window or space_s1.xis != space_s.xis:
        raise ValueError("spaces must share generators and window")
    xis = space_s.xis
    window = space_s.window

    one_idx = None
    for i, seq in enumerate(xis):
        if all(seq.eval(alpha) == 1 for alpha in window):
            one_idx = i
            break
    if one_idx is None:
        raise ValueError(
            "no generator is identically 1 on the window; no degree-preserving "
            "embedding between the spaces is available"
        )

    lifted = []
    for gi in space_s.basis:
        vec = list(space_s.generators[gi])
        vec[one_idx] += 1
        lifted.append(tuple(vec))

    lifted_set = set(lifted)
    candidates = lifted + [g for g in space_s1.generators if g not in lifted_set]

    greedy = GreedyBasis()
    chosen: list[tuple[int, ...]] = []
    for g, row in zip(candidates, space_s1.ladder.rows(candidates)):
        if greedy.offer(row):
            chosen.append(g)
        elif len(chosen) < len(lifted):
            raise AssertionError("lifted basis monomials must stay independent")
        if len(chosen) == space_s1.dim:
            break
    if len(chosen) != space_s1.dim:
        raise AssertionError("basis extension failed to reach the full dimension")
    return chosen
