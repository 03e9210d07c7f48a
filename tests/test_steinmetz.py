import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from ffdio import ratfunc, steinmetz
from ffdio.linalg import rational_vectors
from ffdio.moving import Sequence, sequence_rank_over_q, window_range
from ffdio.parser import EvalError
from ffdio.ratfunc import RatFunc
from ffdio.steinmetz import choose_s, dim_L, extend_basis, monomial_sequence, monomials


def xis_one_t():
    return [Sequence.constant(1), Sequence.from_text("t^a")]


class TestMonomials:
    def test_count(self):
        for n in (1, 2, 3):
            for s in range(5):
                assert len(monomials(n, s)) == comb(n + s - 1, s)

    def test_degree_and_order(self):
        gens = monomials(3, 2)
        assert all(sum(g) == 2 for g in gens)
        assert gens[0] == (2, 0, 0)
        assert gens == sorted(gens, reverse=True)

    def test_monomial_sequence(self):
        xis = xis_one_t()
        seq = monomial_sequence(xis, (1, 2))
        assert seq.eval(3) == Sequence.from_text("t^(2*a)").eval(3)


class TestDimL:
    def test_powers_dimension(self):
        # Degree-s monomials in {1, t^a} evaluate to {1, t^a, ..., t^(s*a)}.
        xis = xis_one_t()
        window = window_range(1, 40)
        for s in range(0, 13):
            space = dim_L(xis, s, window)
            assert space.dim == s + 1
            assert len(space.basis) == s + 1

    def test_constant_generator(self):
        for s in (5, 5000):  # degree 5000 alone is a chain of 5000 products
            space = dim_L([Sequence.constant(1)], s, window_range(1, 10))
            assert space.dim == 1

    def test_ladder_of_other_generators(self):
        window = window_range(1, 10)
        other = dim_L([Sequence.constant(1)], 0, window)
        with pytest.raises(ValueError, match="ladder"):
            dim_L(xis_one_t(), 1, window, ladder=other.ladder)

    def test_dependent_generators(self):
        xis = [Sequence.constant(1), Sequence.from_text("t^a"), Sequence.from_text("3 * t^a")]
        assert dim_L(xis, 1, window_range(1, 20)).dim == 2


class TestChooseS:
    def test_growth_family(self):
        space_s, space_s1 = choose_s(xis_one_t(), Fraction(1, 10), window_range(1, 40), 12)
        assert space_s.s == 9
        # The spaces returned are the two whose dimensions met the bound.
        assert (space_s1.s, space_s.dim, space_s1.dim) == (10, 10, 11)

    def test_constant_family(self):
        for delta in (Fraction(1), Fraction(1, 2), Fraction(1, 10)):
            assert choose_s([Sequence.constant(1)], delta, window_range(1, 10), 12)[0].s == 0

    def test_exhaustion_error(self):
        with pytest.raises(ValueError):
            choose_s(xis_one_t(), Fraction(1, 100), window_range(1, 40), 3)

    def test_delta_positive_required(self):
        with pytest.raises(ValueError):
            choose_s(xis_one_t(), Fraction(0), window_range(1, 10), 5)


class TestExtendBasis:
    def test_nested_extension(self):
        xis = xis_one_t()
        window = window_range(1, 30)
        for s in range(0, 4):
            space_s = dim_L(xis, s, window)
            space_s1 = dim_L(xis, s + 1, window)
            chosen = extend_basis(space_s, space_s1)
            assert len(chosen) == space_s1.dim
            # The lifted degree-s basis comes first: each original basis
            # monomial appears with the constant generator bumped by one.
            for i, gi in enumerate(space_s.basis):
                vec = list(space_s.generators[gi])
                vec[0] += 1
                assert chosen[i] == tuple(vec)

    def test_requires_unit_generator(self):
        xis = [Sequence.from_text("t^a"), Sequence.from_text("t^(2*a)")]
        window = window_range(1, 20)
        with pytest.raises(ValueError):
            extend_basis(dim_L(xis, 1, window), dim_L(xis, 2, window))

    def test_mismatched_spaces(self):
        xis = xis_one_t()
        window = window_range(1, 20)
        with pytest.raises(ValueError):
            extend_basis(dim_L(xis, 1, window), dim_L(xis, 3, window))


class TestMonomialCap:
    def test_dim_L_refuses_before_building(self, no_huge_monomial_lists):
        xis = [Sequence.from_text(f"t^{k}") for k in range(20)]
        assert comb(20 + 30, 30) > steinmetz.MAX_MONOMIALS
        with pytest.raises(ValueError, match="exceed the cap"):
            dim_L(xis, 30, window_range(1, 3))

    def test_choose_s_refuses_the_first_degree_over_the_cap(self, monkeypatch):
        monkeypatch.setattr(steinmetz, "MAX_MONOMIALS", 4)
        degrees = []
        original = steinmetz.monomials

        def recording(xi_count, s):
            degrees.append(s)
            return original(xi_count, s)

        monkeypatch.setattr(steinmetz, "monomials", recording)
        xis = [Sequence.from_text(x) for x in ("1", "t^a", "t^(a*a)")]
        # l(0) = 1 and l(1) = 3 grow too fast for delta = 1/10. Degree 1 keeps
        # C(4, 1) = 4 monomials of degree <= 1; degree 2 would keep C(5, 2) =
        # 10 > 4 and is refused before it is listed.
        with pytest.raises(ValueError, match="10 monomials of degree at most 2 in 3 generators"):
            choose_s(xis, Fraction(1, 10), window_range(1, 10), 12)
        assert degrees == [0, 1]

    def test_negative_s_max(self):
        with pytest.raises(ValueError, match="s_max: must be a nonnegative integer"):
            choose_s(xis_one_t(), Fraction(1, 2), window_range(1, 5), -1)


@pytest.mark.parametrize(
    "texts",
    [
        ["1", "t^ilog2(a)", "t+3"],
        # one shared nonconstant denominator
        ["1/(t-2)", "t/(t-2)", "(t^2+a)/(t-2)"],
    ],
)
def test_spaces_take_no_gcd_and_no_ratfunc_product(monkeypatch, texts):
    """Q-ranks of monomial spaces come from cleared integer numerators: with
    one common denominator no gcd is taken, and no RatFunc is multiplied."""
    xis = [Sequence.from_text(x) for x in texts]
    window = window_range(8, 40)
    for seq in xis:  # the parser's own arithmetic is not counted
        for alpha in window:
            seq.eval(alpha)
    calls = []
    original_gcd = ratfunc.poly_gcd
    original_mul = RatFunc.__mul__

    def counting_gcd(a, b):
        calls.append("poly_gcd")
        return original_gcd(a, b)

    def counting_mul(self, other):
        calls.append("RatFunc.__mul__")
        return original_mul(self, other)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ffdio" and getattr(module, "poly_gcd", None) is original_gcd:
            monkeypatch.setattr(module, "poly_gcd", counting_gcd)
    monkeypatch.setattr(RatFunc, "__mul__", counting_mul)
    monkeypatch.setattr(RatFunc, "__rmul__", counting_mul)
    for s in range(4):
        dim_L(xis, s, window)
    space_s, space_s1 = choose_s(xis, Fraction(1, 2), window, 12)
    if texts[0] == "1":
        extend_basis(space_s, space_s1)
    assert calls == []


# Generators for the differential test: a rational constant times a t-part
# over a denominator. The denominators repeat across generators (equal) or
# not (distinct); "a" makes the index a constant of the field, so a cleared
# generator's content depends on the index.
_T_PARTS = ("1", "t", "t^2 + 1", "t^a", "t^ilog2(a)", "a", "a*t", "t - a")
_DENOMINATORS = ("", "/(t - 2)", "/(t + 1)", "/(t^2 + 1)", "/(a + 1)", "/(t - a)")


@st.composite
def _generator_texts(draw):
    kind = draw(st.sampled_from(("zero", "constant", "general", "general")))
    if kind == "zero":
        return "0"
    num = draw(st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4)))
    den = draw(st.sampled_from((1, 2, 3, 6)))
    if kind == "constant":
        return f"({num}/{den})"
    t_part = draw(st.sampled_from(_T_PARTS))
    return f"({num}/{den})*({t_part}){draw(st.sampled_from(_DENOMINATORS))}"


@st.composite
def _families(draw):
    """One to three generators, the unit first or not, and at times one more
    that is a sum or a product of two of them: a Q-linear relation at degree 1
    or, with the unit, at degree 2, which only exact values keep."""
    texts = (["1"] if draw(st.booleans()) else []) + draw(
        st.lists(_generator_texts(), min_size=1, max_size=2)
    )
    derived = draw(st.sampled_from(("none", "sum", "product")))
    if derived != "none" and len(texts) >= 2:
        i, j = draw(st.sampled_from([(i, j) for i in range(len(texts)) for j in range(i)]))
        c = draw(st.sampled_from(("1", "-2", "1/3")))
        op = f"+ ({c})*" if derived == "sum" else "*"
        texts.append(f"({texts[i]}) {op}({texts[j]})")
    return texts


def _reference(xis, gens, window):
    """Today's Q-rank path: every monomial a RatFunc sequence, every index's
    values over one denominator lcm."""
    return sequence_rank_over_q([monomial_sequence(xis, g) for g in gens], window)


def _sympy_rank(xis, gens, window) -> int:
    values = [[monomial_sequence(xis, g).eval(alpha) for g in gens] for alpha in window]
    vectors = rational_vectors(values)
    width = 1 + max((c for vec in vectors for c in vec), default=0)
    rows = [[QQ(vec.get(c, 0).numerator, vec.get(c, 0).denominator) for c in range(width)]
            for vec in vectors]
    return DomainMatrix(rows, (len(rows), width), QQ).rank()


def _greedy_completion(space_s, space_s1):
    """The degree-s basis carried up by the unit generator, then completed
    greedily by the reference path."""
    xis, window = space_s.xis, space_s.window
    one = next(i for i, seq in enumerate(xis) if all(seq.eval(a) == 1 for a in window))
    lifted = []
    for gi in space_s.basis:
        vec = list(space_s.generators[gi])
        vec[one] += 1
        lifted.append(tuple(vec))
    candidates = lifted + [g for g in space_s1.generators if g not in lifted]
    _, accepted = _reference(xis, candidates, window)
    return [candidates[i] for i in accepted]


@settings(max_examples=60, deadline=None)
@given(
    texts=_families(),
    s=st.integers(0, 4),
    lo=st.integers(1, 4),
    length=st.integers(1, 6),
)
@example(texts=["1", "a"], s=2, lo=1, length=4)
@example(texts=["t", "a*t"], s=2, lo=1, length=4)
@example(texts=["1", "t", "a*t"], s=3, lo=2, length=5)
@example(texts=["0", "1", "(1/2)*(t^a)/(t - 2)"], s=2, lo=1, length=3)
@example(texts=["1", "1/(t - 2)", "1/(t + 1)", "(2*t - 1)/((t - 2)*(t + 1))"], s=1, lo=1, length=3)
@example(texts=["1", "a/(t - 2)", "1/(t^2 + 1)", "a/((t - 2)*(t^2 + 1))"], s=2, lo=1, length=6)
def test_spaces_match_the_reference_and_sympy(texts, s, lo, length):
    window = window_range(lo, lo + length - 1)
    xis = [Sequence.from_text(x) for x in texts]
    try:
        for seq in xis:
            for alpha in window:
                seq.eval(alpha)
    except EvalError:  # a denominator vanishes in the window
        return
    gens = monomials(len(xis), s)
    space = dim_L(xis, s, window)
    rank, accepted = _reference(xis, gens, window)
    assert (space.dim, list(space.basis)) == (rank, accepted)
    assert space.dim == _sympy_rank(xis, gens, window)
    space_s1 = dim_L(xis, s + 1, window)
    if texts[0] == "1":
        assert extend_basis(space, space_s1) == _greedy_completion(space, space_s1)
