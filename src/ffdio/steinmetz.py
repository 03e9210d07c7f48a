"""Monomial spaces over normalized coefficient sequences: dimensions, the
(1+delta) degree selection, and nested basis extension.

The space of degree s is spanned over Q by all monomials of total degree s in
the given sequences; its dimension is the Q-rank of the monomial value
sequences on the evaluation window.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence as Seq

from .linalg import GreedyBasis, rational_vectors
from .moving import Sequence, sequence_rank_over_q
from .ratfunc import RatFunc


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


@dataclass(frozen=True)
class MonomialSpace:
    s: int
    generators: tuple[tuple[int, ...], ...]
    window: tuple[int, ...]
    basis: tuple[int, ...]  # indices into generators, greedy independent prefix
    dim: int
    xis: tuple[Sequence, ...]


def dim_L(xis: Seq[Sequence], s: int, window: Seq[int]) -> MonomialSpace:
    """Evaluate all degree-s monomials on the window and take their Q-rank.

    The basis is the greedy first-independent prefix in graded-lex generator
    order, which makes it a prefix-stable choice across degrees.
    """
    window = tuple(window)
    if not window:
        raise ValueError("window must be nonempty")
    gens = monomials(len(xis), s)
    seqs = [monomial_sequence(xis, g) for g in gens]
    rank, accepted = sequence_rank_over_q(seqs, window)
    return MonomialSpace(
        s=s,
        generators=tuple(gens),
        window=window,
        basis=tuple(accepted),
        dim=rank,
        xis=tuple(xis),
    )


def choose_s(
    xis: Seq[Sequence],
    delta: Fraction,
    window: Seq[int],
    s_max: int,
) -> tuple[MonomialSpace, MonomialSpace]:
    """The spaces of degrees s and s+1 for the smallest s <= s_max with
    l(s+1) <= (1+delta) * l(s) on the window."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    bound = 1 + Fraction(delta)
    prev = dim_L(xis, 0, window)
    for s in range(s_max + 1):
        nxt = dim_L(xis, s + 1, window)
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
    the list is completed greedily from the degree-(s+1) generators.
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

    candidates = lifted + [g for g in space_s1.generators if g not in set(lifted)]
    seqs = [monomial_sequence(xis, g) for g in candidates]
    values_per_alpha = [[s.eval(alpha) for s in seqs] for alpha in window]
    vectors = rational_vectors(values_per_alpha)

    greedy = GreedyBasis()
    chosen: list[tuple[int, ...]] = []
    for g, vec in zip(candidates, vectors):
        if greedy.offer(vec):
            chosen.append(g)
        elif len(chosen) < len(lifted):
            raise AssertionError("lifted basis monomials must stay independent")
        if len(chosen) == space_s1.dim:
            break
    if len(chosen) != space_s1.dim:
        raise AssertionError("basis extension failed to reach the full dimension")
    return chosen
