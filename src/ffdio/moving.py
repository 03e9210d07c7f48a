"""Index-parameterized sequences of points and hyperplanes over Q(t).

Infinite index sets are represented by closed-form generators evaluated on
finite windows; "all but finitely many" statements become window verdicts
with explicit exception lists.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence as Seq

from . import linalg
from .heights import LinearForm, ProjPoint, height_form, height_point
from .parser import EvalError, Node, evaluate, parse_expression
from .ratfunc import RatFunc


def window_range(lo: int, hi: int) -> tuple[int, ...]:
    """Inclusive integer window [lo, hi]."""
    if hi < lo:
        raise ValueError(f"empty window [{lo}, {hi}]")
    return tuple(range(lo, hi + 1))


class Sequence:
    """A deterministic map alpha -> Q(t), alpha >= alpha_min, with memoization."""

    __slots__ = ("_fn", "alpha_min", "text", "_cache")

    def __init__(self, fn: Callable[[int], RatFunc], alpha_min: int = 0, text: Optional[str] = None):
        self._fn = fn
        self.alpha_min = alpha_min
        self.text = text
        self._cache: dict[int, RatFunc] = {}

    @classmethod
    def from_text(cls, text: str, alpha_min: int = 0) -> "Sequence":
        node = parse_expression(text, index=True)
        return cls.from_node(node, alpha_min, text)

    @classmethod
    def from_node(cls, node: Node, alpha_min: int = 0, text: Optional[str] = None) -> "Sequence":
        return cls(lambda alpha: evaluate(node, alpha), alpha_min, text)

    @classmethod
    def constant(cls, value) -> "Sequence":
        rf = value if isinstance(value, RatFunc) else RatFunc.constant(value)
        return cls(lambda alpha: rf, 0, str(rf))

    def eval(self, alpha: int) -> RatFunc:
        if alpha < self.alpha_min:
            raise ValueError(f"index {alpha} below alpha_min={self.alpha_min}")
        if alpha in self._cache:
            return self._cache[alpha]
        try:
            value = self._fn(alpha)
        except ZeroDivisionError as exc:
            raise EvalError(str(exc), alpha) from exc
        self._cache[alpha] = value
        return value

    def __truediv__(self, other: "Sequence") -> "Sequence":
        return Sequence(
            lambda alpha: self.eval(alpha) / other.eval(alpha),
            max(self.alpha_min, other.alpha_min),
            f"({self.text}) / ({other.text})" if self.text and other.text else None,
        )

    def is_constant_on(self, window: Seq[int]) -> bool:
        values = {self.eval(alpha) for alpha in window}
        return len(values) == 1

    def __repr__(self) -> str:
        return f"Sequence({self.text!r})" if self.text else "Sequence(<fn>)"


@dataclass(frozen=True)
class PointSequence:
    coords: tuple[Sequence, ...]

    @classmethod
    def from_texts(cls, texts: Iterable[str], alpha_min: int = 0) -> "PointSequence":
        return cls(tuple(Sequence.from_text(s, alpha_min) for s in texts))

    @property
    def m(self) -> int:
        return len(self.coords) - 1

    def eval_point(self, alpha: int) -> ProjPoint:
        values = tuple(c.eval(alpha) for c in self.coords)
        if not any(values):
            raise EvalError("all point coordinates vanish", alpha)
        return ProjPoint(values)


@dataclass(frozen=True)
class MovingHyperplaneFamily:
    rows: tuple[tuple[Sequence, ...], ...]  # q rows of M+1 coefficient sequences

    @classmethod
    def from_texts(cls, rows: Iterable[Iterable[str]], alpha_min: int = 0) -> "MovingHyperplaneFamily":
        return cls(tuple(tuple(Sequence.from_text(s, alpha_min) for s in row) for row in rows))

    @property
    def q(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return len(self.rows[0]) - 1

    def eval_form(self, j: int, alpha: int) -> LinearForm:
        return LinearForm(tuple(c.eval(alpha) for c in self.rows[j]))


@dataclass(frozen=True)
class NormalizedFamily:
    """Rows rescaled so the pivot coefficient is identically 1."""

    rows: tuple[tuple[Sequence, ...], ...]
    pivots: tuple[int, ...]
    exceptions: tuple[frozenset[int], ...]  # per-row window indices where the pivot vanishes

    @property
    def q(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return len(self.rows[0]) - 1

    def eval_form(self, j: int, alpha: int) -> LinearForm:
        return LinearForm(tuple(c.eval(alpha) for c in self.rows[j]))

    def all_exceptions(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for e in self.exceptions:
            out |= e
        return out


@dataclass(frozen=True)
class WindowVerdict:
    window: tuple[int, ...]
    holds: bool
    exceptions: tuple[int, ...]
    statistic: Optional[Fraction]


def normalize_xi(
    family: MovingHyperplaneFamily,
    window: Seq[int],
    max_exceptions: int = 0,
) -> NormalizedFamily:
    """Divide each row by its first coefficient that is nonzero on the window.

    A coefficient qualifies as pivot if it vanishes at no more than
    max_exceptions window indices; those indices are reported per row.
    """
    rows = []
    pivots = []
    exceptions = []
    for j, row in enumerate(family.rows):
        chosen = None
        for l, coeff in enumerate(row):
            zeros = set()
            ok = True
            for alpha in window:
                try:
                    value = coeff.eval(alpha)
                except EvalError:
                    ok = False
                    break
                if value.is_zero():
                    zeros.add(alpha)
                    if len(zeros) > max_exceptions:
                        ok = False
                        break
            if ok:
                chosen = (l, zeros)
                break
        if chosen is None:
            raise ValueError(
                f"row {j}: no coefficient is nonzero on the window "
                f"(allowing {max_exceptions} exception(s))"
            )
        l, zeros = chosen
        pivot_seq = row[l]
        xi_row = tuple(
            Sequence.constant(1) if k == l else coeff / pivot_seq
            for k, coeff in enumerate(row)
        )
        rows.append(xi_row)
        pivots.append(l)
        exceptions.append(frozenset(zeros))
    return NormalizedFamily(tuple(rows), tuple(pivots), tuple(exceptions))


def general_position_check(family, alpha: int) -> bool:
    """True iff every (M+1)-subset of rows is independent over Q(t) at alpha."""
    q, m = family.q, family.m
    if q < m + 1:
        raise ValueError("need at least M+1 hyperplanes")
    forms = [family.eval_form(j, alpha) for j in range(q)]
    for subset in combinations(range(q), m + 1):
        mat = [list(forms[j].coeffs) for j in subset]
        if linalg.det(mat) == 0:
            return False
    return True


def evaluate_forms(
    family, window: Seq[int]
) -> tuple[dict[int, tuple[LinearForm, ...]], dict[int, str]]:
    """The evaluated forms (H_1(alpha), ..., H_q(alpha)) at each window index,
    and apart from them the indices where a coefficient fails to evaluate,
    with the error. Every run mode excludes such an index with that note, as
    it does an index where the point fails."""
    forms: dict[int, tuple[LinearForm, ...]] = {}
    failed: dict[int, str] = {}
    for alpha in window:
        try:
            forms[alpha] = tuple(family.eval_form(j, alpha) for j in range(family.q))
        except EvalError as exc:
            failed[alpha] = str(exc)
    return forms, failed


def smallness_report(
    family,
    xs: PointSequence,
    window: Seq[int],
    delta: Fraction,
    forms: Optional[dict[int, tuple[LinearForm, ...]]] = None,
) -> WindowVerdict:
    """Per-alpha statistic max_j h(H_j(alpha)) / h(x(alpha)).

    Holds iff the statistic is non-increasing across the quarter checkpoints
    beyond the window midpoint and is below delta at the window end. An index
    where the point or a hyperplane fails to evaluate, or h(x) = 0, is an
    exception. `forms` are the family's evaluated forms per index, as
    `evaluate_forms` returns them, when the caller has them already. The
    maximum is taken once per distinct evaluated family.
    """
    window = tuple(window)
    if forms is None:
        forms, _ = evaluate_forms(family, window)
    hmax: dict[tuple[LinearForm, ...], int] = {}
    ratios: dict[int, Fraction] = {}
    exceptions = []
    for alpha in window:
        try:
            hx = height_point(xs.eval_point(alpha))
        except EvalError:
            hx = None
        if not hx or alpha not in forms:
            exceptions.append(alpha)
            continue
        at = forms[alpha]
        if at not in hmax:
            hmax[at] = max(height_form(form) for form in at)
        ratios[alpha] = Fraction(hmax[at], hx)
    usable = [alpha for alpha in window if alpha in ratios]
    if len(usable) < max(2, len(window) // 2):
        raise ValueError("h(x(alpha)) vanishes (or fails) on most of the window")
    mid = usable[len(usable) // 2]
    three_q = usable[3 * len(usable) // 4]
    end = usable[-1]
    monotone = ratios[three_q] <= ratios[mid] and ratios[end] <= ratios[three_q]
    holds = monotone and ratios[end] < delta
    return WindowVerdict(
        window=window,
        holds=holds,
        exceptions=tuple(exceptions),
        statistic=ratios[end],
    )


def sequence_rank_over_q(
    seqs: Seq[Sequence], window: Seq[int]
) -> tuple[int, list[int]]:
    """Rank over Q of a family of K-valued sequences on the window, plus the
    greedy first-independent prefix indices in the given order.

    No run path calls it: `steinmetz` ranks monomials from cleared integer
    numerators, and the tests keep this as the reference for those ranks."""
    values_per_alpha = [[s.eval(alpha) for s in seqs] for alpha in window]
    vectors = linalg.rational_vectors(values_per_alpha)
    greedy = linalg.GreedyBasis()
    for vec in vectors:
        greedy.offer(vec)
    return greedy.rank, greedy.accepted


def nondegeneracy_probe(xs: PointSequence, window: Seq[int]) -> WindowVerdict:
    """Necessary check: no relation sum_i c_i x_i(alpha) = 0 with constant
    coefficients c_i in Q(t) holds at every usable window index."""
    window = tuple(window)
    if len(window) < xs.m + 1:
        raise ValueError("window shorter than the number of coordinates")
    rows = []
    exceptions = []
    for alpha in window:
        try:
            rows.append([c.eval(alpha) for c in xs.coords])
        except EvalError:
            exceptions.append(alpha)
    rk = linalg.rank(rows) if rows else 0
    holds = rk == xs.m + 1
    return WindowVerdict(
        window=window,
        holds=holds,
        exceptions=tuple(exceptions),
        statistic=Fraction(rk, xs.m + 1),
    )

