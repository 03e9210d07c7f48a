"""Exact Gaussian elimination over any field with Python arithmetic operators.

Entries may be `fractions.Fraction` or `RatFunc`; zero testing is `== 0`
(RatFunc compares against the constant). No pivoting heuristics are needed
since arithmetic is exact. `rational_vectors` turns Q(t)-valued sequences
into Q-vectors, so ranks over Q use the same elimination.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence, TypeVar

from .ratfunc import ONE, RatFunc, poly_gcd

F = TypeVar("F")

Matrix = list[list]


class InconsistentSystem(ValueError):
    pass


def _copy(rows: Sequence[Sequence[F]]) -> Matrix:
    return [list(r) for r in rows]


def rref(rows: Sequence[Sequence[F]]) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form and pivot column indices."""
    m = _copy(rows)
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows: Sequence[Sequence[F]]) -> int:
    return len(rref(rows)[1])


def solve(rows: Sequence[Sequence[F]], rhs: Sequence[Sequence[F]]) -> Matrix:
    """X with rows @ X == rhs, free variables set to zero.

    `rhs` has one row per equation and one column per right-hand side; the
    augmented matrix [rows | rhs] is row-reduced once for all of them.
    """
    ncols = len(rows[0])
    reduced, pivots = rref([list(a) + list(b) for a, b in zip(rows, rhs)])
    if pivots and pivots[-1] >= ncols:
        raise InconsistentSystem("no exact solution")
    zero = rhs[0][0] - rhs[0][0]
    x = [[zero] * len(rhs[0]) for _ in range(ncols)]
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][ncols:]
    return x


def det(rows: Sequence[Sequence[F]]):
    """Determinant by fraction-producing elimination (exact)."""
    m = _copy(rows)
    n = len(m)
    sign = 1
    result = None
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot_row is None:
            return m[0][0] - m[0][0]  # zero of the field
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            sign = -sign
        pv = m[c][c]
        result = pv if result is None else result * pv
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return result if sign == 1 else -result


class GreedyBasis:
    """Incremental independent-prefix selection over a field.

    Feed vectors in order; `offer` returns True (and keeps the vector) iff it
    is independent of everything accepted so far.
    """

    def __init__(self):
        self.reduced: list[tuple[int, list]] = []  # (pivot column, reduced row)
        self.accepted: list[int] = []
        self.count = 0

    def offer(self, vec: Sequence[F]) -> bool:
        row = list(vec)
        for pc, red in self.reduced:
            if row[pc] != 0:
                f = row[pc]
                row = [a - f * b for a, b in zip(row, red)]
        pivot = next((c for c, v in enumerate(row) if v != 0), None)
        idx = self.count
        self.count += 1
        if pivot is None:
            return False
        pv = row[pivot]
        row = [x / pv for x in row]
        self.reduced.append((pivot, row))
        self.reduced.sort(key=lambda pr: pr[0])
        self.accepted.append(idx)
        return True

    @property
    def rank(self) -> int:
        return len(self.reduced)


def rational_vectors(values_per_alpha: list[list[RatFunc]]) -> list[list[Fraction]]:
    """Flatten K-valued columns into Q-vectors by clearing denominators per alpha.

    values_per_alpha[i][m] is the value of item m at the i-th window index;
    the result has one vector per item, concatenating t-coefficient blocks.
    """
    n_items = len(values_per_alpha[0]) if values_per_alpha else 0
    vectors: list[list[Fraction]] = [[] for _ in range(n_items)]
    for values in values_per_alpha:
        dens = [v.den for v in values]
        common = ONE
        for d in dens:
            if common == ONE:
                common = d
            elif d != ONE:
                common = common * d // poly_gcd(common, d)
        numerators = [v.num * (common // v.den) for v in values]
        width = max((p.degree for p in numerators), default=-1) + 1
        width = max(width, 1)
        for m, p in enumerate(numerators):
            block = list(p.coeffs) + [Fraction(0)] * (width - len(p.coeffs))
            vectors[m].extend(block)
    return vectors
