"""Exact Gaussian elimination, one path per field.

Over Q(t) (entries `RatFunc`, or `fractions.Fraction`): `rref`, with `rank`
and `solve` on top of it. Zero testing is by truthiness (`RatFunc.__bool__`
reads the numerator, and builds nothing), and no pivoting heuristics are
needed since arithmetic is exact. A tall `solve` row-reduces only a spanning
subset of its rows: the rows independent at t = `PROBE_T` modulo
`PROBE_PRIME`, plus any row that fails the exact span check of the others.
`det`, which `general_position_check` only compares with 0, still has a
forward elimination of its own.

Over Q: `GreedyBasis`, which keeps sparse primitive integer rows and
eliminates fraction-free, so ranks over Q use that one path.
`rational_vectors` turns Q(t)-valued sequences into the sparse Q-vectors it
takes, over one denominator lcm per index; `build_transfer` uses it for the
independence of the products b_mu * x_nu. The Q-ranks of monomial spaces skip
it: `steinmetz` feeds cleared integer numerators, with one product per
monomial, and takes a gcd only where the generators' denominators differ.
"""
from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Mapping, Optional, Sequence, TypeVar, Union

from .ratfunc import ONE, Poly, RatFunc, poly_gcd

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
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        if pv != 1:
            m[r] = [x / pv if x else x for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b if b else a for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows: Sequence[Sequence[F]]) -> int:
    return len(rref(rows)[1])


# The point t = PROBE_T and the prime at which `solve` picks its rows.
PROBE_T = 3
PROBE_PRIME = 2**61 - 1


def solve(rows: Sequence[Sequence[F]], rhs: Sequence[Sequence[F]]) -> Matrix:
    """X with rows @ X == rhs, free variables set to zero.

    `rhs` has one row per equation and one column per right-hand side; the
    augmented matrix [rows | rhs] is row-reduced once for all of them. With
    more equations than unknowns, only a subset of its rows is row-reduced,
    one that spans the others; the RREF of a row space is unique, so X is the
    one the full system gives. The subset starts from the rows independent at
    t = PROBE_T modulo PROBE_PRIME (a minor that is nonzero there is nonzero
    over Q(t)), or from the first rows where some entry does not evaluate
    there. A row that is not the combination of the reduced rows given by its
    pivot entries joins the subset, which is then row-reduced again; only an
    unlucky t_0 or an inconsistent system adds a row.
    """
    ncols = len(rows[0])
    aug = [list(a) + list(b) for a, b in zip(rows, rhs)]
    picked = _independent_at_probe([r[:ncols] for r in aug]) if len(aug) > ncols else None
    if picked is None:
        picked = list(range(min(len(aug), ncols)))
    while True:
        reduced, pivots = rref([aug[i] for i in picked])
        if pivots and pivots[-1] >= ncols:
            raise InconsistentSystem("no exact solution")
        chosen = set(picked)
        failed = next(
            (i for i in range(len(aug)) if i not in chosen and not _in_span(aug[i], reduced, pivots)),
            None,
        )
        if failed is None:
            break
        picked.append(failed)
    zero = rhs[0][0] - rhs[0][0]
    x = [[zero] * len(rhs[0]) for _ in range(ncols)]
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][ncols:]
    return x


def _in_span(row: list, reduced: Matrix, pivots: list[int]) -> bool:
    """row == sum_k row[pivots[k]] * reduced[k], exactly. Only the non-pivot
    columns are compared: at pivot column pivots[k] the sum is row[pivots[k]]
    by construction."""
    terms = [(row[pc], reduced[k]) for k, pc in enumerate(pivots) if row[pc]]
    pivot_set = set(pivots)
    for c, target in enumerate(row):
        if c in pivot_set:
            continue
        acc = None
        for f, red in terms:
            if red[c]:
                acc = f * red[c] if acc is None else acc + f * red[c]
        if acc is None:
            if target:
                return False
        elif acc != target:
            return False
    return True


def _independent_at_probe(rows: Matrix) -> Optional[list[int]]:
    """Indices of a maximal set of rows, taken greedily in order, that stay
    independent at t = PROBE_T modulo PROBE_PRIME; None if some entry has a
    pole there or a denominator that the prime divides."""
    basis: list[tuple[int, list[int]]] = []  # (pivot column, row with 1 there)
    picked = []
    for idx, row in enumerate(rows):
        vec = []
        for v in row:
            value = _value_at_probe(v)
            if value is None:
                return None
            vec.append(value)
        for pc, red in basis:
            f = vec[pc]
            if f:
                vec = [(a - f * b) % PROBE_PRIME for a, b in zip(vec, red)]
        pc = next((c for c, v in enumerate(vec) if v), None)
        if pc is None:
            continue
        inv = pow(vec[pc], -1, PROBE_PRIME)
        basis.append((pc, [v * inv % PROBE_PRIME for v in vec]))
        picked.append(idx)
        if len(picked) == len(row):
            break
    return picked


def _value_at_probe(v) -> Optional[int]:
    """v (RatFunc, Fraction or int) at t = PROBE_T modulo PROBE_PRIME."""
    if not isinstance(v, RatFunc):
        v = RatFunc.constant(v)
    num, den = _poly_at_probe(v.num), _poly_at_probe(v.den)
    if num is None or not den:
        return None
    return num * pow(den, -1, PROBE_PRIME) % PROBE_PRIME


def _poly_at_probe(p: Poly) -> Optional[int]:
    acc = 0
    for c in reversed(p.coeffs):
        if c.denominator % PROBE_PRIME == 0:
            return None
        acc = (acc * PROBE_T + c.numerator * pow(c.denominator, -1, PROBE_PRIME)) % PROBE_PRIME
    return acc


def det(rows: Sequence[Sequence[F]]):
    """Determinant by fraction-producing elimination (exact)."""
    m = _copy(rows)
    n = len(m)
    sign = 1
    result = None
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c]), None)
        if pivot_row is None:
            return m[0][0] - m[0][0]  # zero of the field
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            sign = -sign
        pv = m[c][c]
        result = pv if result is None else result * pv
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return result if sign == 1 else -result


QVector = Union[Sequence, Mapping[int, object]]  # dense, or sparse {column: value}


def _primitive(vec: QVector) -> dict[int, int]:
    """The nonzero entries of a Q-vector as a primitive integer row: the
    denominators cleared and the content divided out, neither of which
    changes independence."""
    items = vec.items() if isinstance(vec, Mapping) else enumerate(vec)
    entries = [(c, v) for c, v in items if v]
    den = 1
    for _, v in entries:
        if v.denominator != 1:
            den = lcm(den, v.denominator)
    row = {c: v.numerator * (den // v.denominator) for c, v in entries}
    return _divide_content(row)


def _divide_content(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


class GreedyBasis:
    """Incremental independent-prefix selection over Q.

    Feed Q-vectors (int or Fraction entries, dense or sparse) in order;
    `offer` returns True (and keeps the vector) iff it is independent of
    everything accepted so far. Stored rows are sparse primitive integer rows,
    reduced fraction-free: row <- (pv/g)*row - (f/g)*red with g = gcd(f, pv).
    """

    def __init__(self):
        # (pivot column, primitive integer row), in pivot order
        self.reduced: list[tuple[int, dict[int, int]]] = []
        self.accepted: list[int] = []
        self.count = 0

    def offer(self, vec: QVector) -> bool:
        row = _primitive(vec)
        for pc, red in self.reduced:
            if not row:
                break
            f = row.get(pc)
            if f is None:
                continue
            pv = red[pc]
            g = gcd(f, pv)
            a, b = pv // g, f // g
            if a != 1:
                row = {c: a * v for c, v in row.items()}
            # red is zero left of pc, so the pivot columns already cleared stay zero.
            for c, v in red.items():
                x = row.get(c, 0) - b * v
                if x:
                    row[c] = x
                else:
                    del row[c]
            if row:
                row = _divide_content(row)
        idx = self.count
        self.count += 1
        if not row:
            return False
        insort(self.reduced, (min(row), row), key=itemgetter(0))
        self.accepted.append(idx)
        return True

    @property
    def rank(self) -> int:
        return len(self.reduced)


def rational_vectors(values_per_alpha: list[list[RatFunc]]) -> list[dict[int, Fraction]]:
    """Flatten K-valued columns into sparse Q-vectors by clearing denominators
    per alpha.

    values_per_alpha[i][m] is the value of item m at the i-th window index;
    the result has one vector per item, concatenating t-coefficient blocks
    and holding only the nonzero coefficients as {column: coefficient}.
    """
    n_items = len(values_per_alpha[0]) if values_per_alpha else 0
    vectors: list[dict[int, Fraction]] = [{} for _ in range(n_items)]
    offset = 0
    for values in values_per_alpha:
        common = ONE
        for v in values:
            d = v.den
            if common == ONE:
                common = d
            elif d != ONE:
                common = common * d // poly_gcd(common, d)
        numerators = [v.num if v.den == common else v.num * (common // v.den) for v in values]
        for vec, p in zip(vectors, numerators):
            for i, c in enumerate(p.coeffs):
                if c:
                    vec[offset + i] = c
        width = max((p.degree for p in numerators), default=-1) + 1
        offset += max(width, 1)
    return vectors
