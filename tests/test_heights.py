import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffdio import ratfunc
from ffdio.heights import (
    LinearForm,
    PlaceSet,
    ProjPoint,
    e_form,
    e_point,
    height_form,
    height_point,
    proximity,
    weil,
    weil_total,
)
from ffdio.parser import parse_ratfunc
from ffdio.places import INFINITY, PrimeDivisor, divisor_of, ord_at, parse_prime
from ffdio.ratfunc import Poly, RatFunc

from conftest import fractions, polys, ratfuncs

T_PLACE = PrimeDivisor(Poly([0, 1]))


def point(*texts):
    return ProjPoint(tuple(parse_ratfunc(s) for s in texts))


def form(*texts):
    return LinearForm(tuple(parse_ratfunc(s) for s in texts))


points3 = st.lists(ratfuncs(max_degree=3), min_size=3, max_size=3).filter(
    lambda cs: any(cs)
)


class TestHeights:
    @pytest.mark.parametrize(
        "coords, expected",
        [
            (("1", "t^7"), 7),
            (("1", "t", "t^2"), 2),
            (("t^3", "t^3"), 0),
            (("1/t", "t"), 2),
            (("1", "1/2"), 0),
        ],
    )
    def test_examples(self, coords, expected):
        assert height_point(point(*coords)) == expected

    @given(points3, ratfuncs(max_degree=2, nonzero=True))
    @settings(max_examples=50, deadline=None)
    def test_scaling_invariance(self, coords, c):
        x = ProjPoint(tuple(coords))
        scaled = ProjPoint(tuple(v * c for v in coords))
        assert height_point(x) == height_point(scaled)

    def test_nonnegative_and_zero_for_constants(self):
        assert height_point(point("3", "1/2")) == 0

    def test_zero_point_rejected(self):
        with pytest.raises(ValueError):
            ProjPoint((RatFunc(Poly()), RatFunc(Poly())))


def height_by_support(values):
    """The definition: -sum of min_i ord_p(f_i) * deg p over the places p in the
    support of the nonzero coordinates, and infinity. Factors every one."""
    nonzero = [v for v in values if not v.is_zero()]
    support = {INFINITY}
    for v in nonzero:
        support.update(p for p, _ in divisor_of(v).support)
    return -sum(min(ord_at(v, p) for v in nonzero) * p.degree for p in support)


# t, t + 1 and the degree-2 places t^2 + 1 and t^2 - 2.
PLACE_POLYS = [Poly([0, 1]), Poly([1, 1]), Poly([1, 0, 1]), Poly([-2, 0, 1])]


def _product(factors):
    acc = Poly([1])
    for f in factors:
        acc = acc * f
    return acc


place_products = st.lists(st.sampled_from(PLACE_POLYS), max_size=3).map(_product)

# Zero, a nonzero constant, or c * A * f / B with A, B products of places.
coordinates = st.one_of(
    st.just(RatFunc.constant(0)),
    fractions().filter(bool).map(RatFunc.constant),
    st.builds(
        lambda c, a, f, b: RatFunc(a * f * c, b),
        fractions().filter(bool),
        place_products,
        polys(max_degree=2, nonzero=True),
        place_products,
    ),
)


def projective(min_size=1, max_size=4):
    """The coordinates times one shared factor A / B, so that they share
    polynomial factors and denominators."""
    return st.builds(
        lambda cs, a, b: tuple(v * RatFunc(a, b) for v in cs),
        st.lists(coordinates, min_size=min_size, max_size=max_size),
        place_products,
        place_products,
    ).filter(any)


# A point and a form of one dimension, each with shared and repeated factors.
point_form_pairs = st.integers(1, 3).flatmap(
    lambda n: st.tuples(projective(n, n), projective(n, n))
)


class TestHeightByGcd:
    @pytest.mark.parametrize(
        "coords, expected",
        [
            (("t*(t+1)", "t^2"), 1),
            (("0", "t^3", "0"), 0),
            (("1/(t^2+1)", "t/(t^2+1)"), 1),
            (("(t^2+1)/t", "(t^2+1)*(t+1)/(t^2-2)"), 2),
            (("2", "t^2+1", "0"), 2),
            (("1/2*t^3", "3/4*t^2*(t+1)"), 1),
        ],
    )
    def test_examples(self, coords, expected):
        values = tuple(parse_ratfunc(s) for s in coords)
        assert height_point(ProjPoint(values)) == expected
        assert height_form(LinearForm(values)) == expected
        assert height_by_support(values) == expected

    @given(projective())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_support_definition(self, values):
        expected = height_by_support(values)
        assert height_point(ProjPoint(values)) == expected
        assert height_form(LinearForm(values)) == expected


class TestWeil:
    def test_example(self):
        # x = [1 : t^5], L = X_0 - X_1, at the place t: L(x) = 1 - t^5, ord 0.
        x = point("1", "t^5")
        L = form("1", "-1")
        assert weil(x, L, T_PLACE) == 0
        assert weil(x, L, INFINITY) == 0
        assert weil(x, form("0", "1"), T_PLACE) == 5

    def test_on_hyperplane_rejected(self):
        with pytest.raises(ValueError):
            weil(point("1", "1"), form("1", "-1"), T_PLACE)

    @given(points3)
    @settings(max_examples=50, deadline=None)
    def test_first_main_theorem(self, coords):
        x = ProjPoint(tuple(coords))
        L = form("1", "t", "t^2 - 1")
        if L.apply(x).is_zero():
            return
        assert weil_total(x, L) == height_point(x) + height_form(L)

    @given(points3, ratfuncs(max_degree=2, nonzero=True))
    @settings(max_examples=50, deadline=None)
    def test_scaling_invariance(self, coords, c):
        x = ProjPoint(tuple(coords))
        L = form("1", "2", "t")
        if L.apply(x).is_zero():
            return
        scaled_x = ProjPoint(tuple(v * c for v in coords))
        scaled_L = LinearForm(tuple(v * c for v in L.coeffs))
        for p in (T_PLACE, INFINITY, parse_prime("t^2+1")):
            lam = weil(x, L, p)
            assert lam >= 0
            assert weil(scaled_x, L, p) == lam
            assert weil(x, scaled_L, p) == lam


def weil_total_by_support(x, L):
    """The definition: the Weil function summed over infinity and every place
    in the support of a coordinate of x or L or of L(x). Factors every one."""
    support = {INFINITY}
    for v in (*x.coords, *L.coeffs, L.apply(x)):
        if not v.is_zero():
            support.update(p for p, _ in divisor_of(v).support)
    return sum(weil(x, L, p) for p in support)


class TestWeilTotal:
    @pytest.mark.parametrize(
        "coords, coeffs",
        [
            # One squarefree part t(t - 1), with the places t and t - 1 of
            # different orders in each coordinate.
            (("t^2*(t-1)", "t*(t-1)^2"), ("1", "1")),
            (("t^2*(t-1)", "t*(t-1)^2"), ("(t-1)/t^3", "1/(t^2+1)")),
            (("1/(t^2*(t-1))", "(t^2+1)^2", "t-1"), ("t^2+1", "t*(t-1)", "(t+1)^3")),
            (("1", "t^5"), ("1", "-1")),
            (("3", "1/2"), ("2", "7")),
        ],
    )
    def test_examples(self, coords, coeffs):
        x, L = point(*coords), form(*coeffs)
        assert weil_total(x, L) == weil_total_by_support(x, L)
        assert weil_total(x, L) == height_point(x) + height_form(L)

    @given(point_form_pairs)
    @settings(max_examples=150, deadline=None)
    def test_matches_the_support_sum(self, pair):
        x, L = ProjPoint(pair[0]), LinearForm(pair[1])
        if L.apply(x).is_zero():
            return
        total = weil_total(x, L)
        assert total == weil_total_by_support(x, L)
        assert total == height_point(x) + height_form(L)

    def test_factors_nothing(self, monkeypatch):
        """weil_total, height_point and height_form reach `factorize` nowhere,
        also at places of degree 2 and with repeated factors."""
        calls = []
        original = ratfunc.factorize

        def counting(p):
            calls.append(p)
            return original(p)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "ffdio" and getattr(module, "factorize", None) is original:
                monkeypatch.setattr(module, "factorize", counting)
        x = point("(t^2+1)^2/(t^2-2)", "t^3*(t^2-2)", "(t+1)/(t^2+t+1)")
        L = form("t^2 - 2", "(t^2+1)/t^2", "1/(t^3-2)^2")
        assert weil_total(x, L) == height_point(x) + height_form(L)
        assert calls == []


class TestProximity:
    def test_bounded_by_total(self):
        x = point("1", "t^4 + 1")
        L = form("1", "-1")
        S = PlaceSet.of([T_PLACE, INFINITY])
        assert 0 <= proximity(x, L, S) <= weil_total(x, L)

    def test_e_values(self):
        x = point("1/t", "t")
        assert e_point(x, T_PLACE) == -1
        assert e_point(x, INFINITY) == -1
        assert e_form(form("2", "t^3"), INFINITY) == -3
