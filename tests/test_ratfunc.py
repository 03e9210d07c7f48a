from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ffdio.ratfunc import ONE, T, ZERO, Poly, RatFunc, coprime_base, factorize, multiplicity, poly_gcd

from conftest import fractions, polys, ratfuncs


class TestPoly:
    def test_normalization(self):
        assert Poly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
        assert Poly([0, 0]).degree == -1
        assert Poly().is_zero()

    def test_str(self):
        assert str(Poly([0, -1, 3])) == "3*t^2 - t"
        assert str(Poly([Fraction(1, 2)])) == "1/2"
        assert str(ZERO) == "0"

    @given(polys(), polys(), polys())
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * ONE == a and a + ZERO == a

    @given(polys(), polys(nonzero=True))
    def test_divmod(self, a, b):
        q, r = divmod(a, b)
        assert a == q * b + r
        assert r.degree < b.degree or r.is_zero()

    @given(polys(), st.integers(0, 3, ), st.integers(-5, 5))
    def test_pow_matches_evaluation(self, p, n, x):
        # Evaluation at a rational is a ring homomorphism.
        assert (p ** n).evaluate(x) == p.evaluate(x) ** n

    @given(polys(nonzero=True), polys(nonzero=True))
    def test_gcd_divides_both(self, a, b):
        g = poly_gcd(a, b)
        assert (a % g).is_zero() and (b % g).is_zero()
        assert g.leading() == 1


class TestMultiplicity:
    @given(polys(max_degree=3, nonzero=True), st.integers(0, 4))
    def test_against_construction(self, f, m):
        p = Poly([1, 1])  # t + 1, irreducible
        g = f * p ** m
        assert multiplicity(g, p) == m + multiplicity(f, p)

    @given(st.integers(0, 30))
    def test_t_fast_path(self, m):
        f = (T ** m) * Poly([1, 1])
        assert multiplicity(f, T) == m

    @given(
        polys(max_degree=3, nonzero=True, coeffs=fractions()),
        polys(max_degree=2, coeffs=fractions()).filter(lambda p: p.degree >= 1),
        st.integers(0, 4),
        fractions().filter(bool),
    )
    @settings(max_examples=150, deadline=None)
    def test_against_sympy_division(self, f, p, m, c):
        """Non-monic, rational and non-primitive p: the integer trial division
        agrees with repeated division over QQ."""
        g = f * p ** m
        for q in (p, p * c, p.monic()):
            assert multiplicity(g, q) == multiplicity_by_sympy(g, q)


def multiplicity_by_sympy(f: Poly, p: Poly) -> int:
    F = sympy.Poly(_sym(f), SYM_T, domain=sympy.QQ)
    P = sympy.Poly(_sym(p), SYM_T, domain=sympy.QQ)
    m = 0
    while True:
        q, r = sympy.div(F, P)
        if not r.is_zero:
            return m
        F, m = q, m + 1


def _derivative(p: Poly) -> Poly:
    return Poly([i * c for i, c in enumerate(p.coeffs)][1:])


def _product(fs):
    acc = ONE
    for f in fs:
        acc = acc * f
    return acc


# Places that the inputs share with several multiplicities, so that one
# squarefree part holds places of different orders.
SHARED = [Poly([0, 1]), Poly([-1, 1]), Poly([1, 1]), Poly([1, 0, 1]), Poly([3, 2]), Poly([-2, 0, 1])]

sharing_polys = st.builds(
    lambda c, fs, g: Poly.constant(c) * g * _product(fs),
    fractions().filter(bool),
    st.lists(st.sampled_from(SHARED), max_size=5),
    polys(max_degree=2, nonzero=True),
)


class TestCoprimeBase:
    def test_example(self):
        # t^2 (t - 1) and t (t - 1)^2 have the same squarefree part, but t and
        # t - 1 have different orders in each, so they stay apart.
        a = T ** 2 * Poly([-1, 1])
        b = T * Poly([-1, 1]) ** 2
        assert coprime_base([a, b]) == [Poly([-1, 1]), T]
        assert coprime_base([a * b, Poly([1, 0, 1]) * 3]) == [T * Poly([-1, 1]), Poly([1, 0, 1])]
        assert coprime_base([ZERO, Poly([5])]) == []

    @given(st.lists(sharing_polys, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_properties(self, fs):
        base = coprime_base(fs)
        for i, b in enumerate(base):
            assert b.degree >= 1 and b.leading() == 1
            assert poly_gcd(b, _derivative(b)).degree == 0
            for other in base[i + 1:]:
                assert poly_gcd(b, other).degree == 0
        places = {q for f in fs if f.degree >= 1 for q, _ in factorize(f).factors}
        assert {q for b in base for q, _ in factorize(b).factors} == places
        for q in places:
            assert sum((b % q).is_zero() for b in base) == 1
        for b in base:
            for f in fs:
                if not f.is_zero():
                    assert len({multiplicity(f, q) for q, _ in factorize(b).factors}) == 1


class TestFactorize:
    def test_known(self):
        fact = factorize(Poly([-1, 0, 1]))  # t^2 - 1
        assert fact.unit == 1
        assert [str(f) for f, _ in fact.factors] == ["t - 1", "t + 1"]

    def test_irreducible_quadratic(self):
        fact = factorize(Poly([1, 0, 1]))  # t^2 + 1
        assert len(fact.factors) == 1 and fact.factors[0][1] == 1

    def test_unit_and_multiplicity(self):
        # 6(t-1)^2
        fact = factorize(Poly([6, -12, 6]))
        assert fact.unit == 6
        assert fact.factors == ((Poly([-1, 1]), 2),)

    def test_rational_coefficients(self):
        fact = factorize(Poly([Fraction(1, 2), Fraction(1, 2)]))
        assert fact.unit == Fraction(1, 2)
        assert fact.expand() == Poly([Fraction(1, 2), Fraction(1, 2)])

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(ZERO)

    @given(polys(max_degree=5, nonzero=True))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_and_irreducibility(self, p):
        fact = factorize(p)
        assert fact.expand() == p
        for f, _ in fact.factors:
            assert f.leading() == 1
            # Irreducibility witness: factoring a factor returns itself.
            inner = factorize(f)
            assert inner.factors == ((f, 1),)


class TestRatFunc:
    def test_invariants(self):
        r = RatFunc(Poly([0, 2]), Poly([0, 0, 4]))  # 2t / 4t^2 = (1/2)/t
        assert r.den.leading() == 1
        assert str(r) == "(1/2)/(t)"
        assert poly_gcd(r.num, r.den).degree == 0

    def test_zero_canonical(self):
        assert RatFunc(ZERO, Poly([3, 1])) == RatFunc(ZERO)

    def test_negative_pow(self):
        r = RatFunc(T) ** -3
        assert r == RatFunc(ONE, T ** 3)

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(ONE) / RatFunc(ZERO)
        with pytest.raises(ZeroDivisionError):
            RatFunc(ONE, ZERO)

    @given(
        st.one_of(ratfuncs(2), st.builds(RatFunc.constant, fractions()), st.just(RatFunc(ZERO))),
        st.one_of(st.integers(-3, 3), fractions()),
    )
    @settings(max_examples=200)
    def test_comparison_with_a_constant(self, r, c):
        """r == c and p == c compare directly, as against the built constant."""
        assert (r == c) == (r == RatFunc.constant(c))
        assert (r != c) == (r != RatFunc.constant(c))
        assert (r.num == c) == (r.num == Poly.constant(c))
        assert (RatFunc.constant(c) == c) and (Poly.constant(c) == c)

    @given(ratfuncs(), ratfuncs(), ratfuncs())
    @settings(max_examples=60)
    def test_field_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a

    @given(ratfuncs(nonzero=True))
    def test_inverse(self, a):
        assert a * a.inverse() == 1

    @given(ratfuncs(max_degree=3), fractions())
    @settings(max_examples=60)
    def test_evaluation_homomorphism(self, r, x):
        # Where the denominator does not vanish, num/den evaluates consistently.
        if r.den.evaluate(x) == 0:
            return
        s = r * r + r
        # s.den divides r.den^2, so it does not vanish at x either.
        assert s.den.evaluate(x) != 0
        val = r.num.evaluate(x) / r.den.evaluate(x)
        assert s.num.evaluate(x) / s.den.evaluate(x) == val * val + val


SYM_T = sympy.Symbol("t")


def _sym(p: Poly):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * SYM_T**i for i, c in enumerate(p.coeffs)),
        sympy.Integer(0),
    )


def _coeffs(p: sympy.Poly) -> tuple:
    """Fraction coefficients from t^0 up; () for zero."""
    if p.is_zero:
        return ()
    return tuple(Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs()))


def _expected(expr) -> tuple:
    """(num, den) coefficients of sympy's reduced form, with den monic."""
    num, den = sympy.fraction(sympy.cancel(expr))
    num = sympy.Poly(num, SYM_T, domain=sympy.QQ)
    den = sympy.Poly(den, SYM_T, domain=sympy.QQ)
    lc = den.LC()
    return _coeffs(num.quo_ground(lc)), _coeffs(den.quo_ground(lc))


def _check(r: RatFunc, expr) -> None:
    """r is in canonical form and equals the sympy expression."""
    for p in (r.num, r.den):
        assert all(type(c) is Fraction for c in p.coeffs)
        assert not p.coeffs or p.coeffs[-1] != 0
    assert r.den.leading() == 1
    if r.is_zero():
        assert r.den == ONE
    else:
        num, den = (sympy.Poly(_sym(p), SYM_T, domain=sympy.QQ) for p in (r.num, r.den))
        assert num.gcd(den).degree() == 0
    assert (r.num.coeffs, r.den.coeffs) == _expected(expr)


class TestFastPathsAgainstSympy:
    """The shortcuts for constant factors, denominator one and negation give
    the same canonical element as sympy's cancel over QQ."""

    @given(fractions(), polys(4, coeffs=fractions()))
    @settings(max_examples=80, deadline=None)
    def test_constant_times_poly(self, c, p):
        k = Poly.constant(c)
        expected = sympy.Rational(c.numerator, c.denominator) * _sym(p)
        for prod in (k * p, p * k, c * p, p * c):
            _check(RatFunc(prod), expected)
        _check(RatFunc.constant(c) * RatFunc(p), expected)

    @given(polys(4, coeffs=fractions()), polys(4, coeffs=fractions()))
    @settings(max_examples=80, deadline=None)
    def test_denominator_one(self, p, q):
        a, b = RatFunc(p), RatFunc(q)
        _check(a + b, _sym(p) + _sym(q))
        _check(a - b, _sym(p) - _sym(q))
        _check(a * b, _sym(p) * _sym(q))
        _check(-a, -_sym(p))

    @given(ratfuncs(3, coeffs=fractions()), ratfuncs(3, coeffs=fractions()))
    @settings(max_examples=60, deadline=None)
    def test_general_and_negation(self, r, s):
        er = _sym(r.num) / _sym(r.den)
        es = _sym(s.num) / _sym(s.den)
        _check(r, er)
        _check(-r, -er)
        _check(r + s, er + es)
        _check(r * s, er * es)
        _check(r - s, er - es)

    @given(ratfuncs(3, coeffs=fractions()), polys(4, coeffs=fractions()))
    @settings(max_examples=60, deadline=None)
    def test_cancel_to_zero(self, r, p):
        _check(r + (-r), sympy.Integer(0))
        _check(r - r, sympy.Integer(0))
        _check(RatFunc(p) - RatFunc(p), sympy.Integer(0))
        _check(r * 0, sympy.Integer(0))
        assert (p * ZERO).is_zero() and (ZERO * p).is_zero()

    @given(polys(3, coeffs=fractions()), st.integers(0, 6))
    @settings(max_examples=80, deadline=None)
    def test_pow_against_repeated_multiplication(self, p, n):
        acc = ONE
        for _ in range(n):
            acc = acc * p
        assert p ** n == acc
        _check(RatFunc(p ** n), _sym(p) ** n)
        _check(RatFunc(p) ** n, _sym(p) ** n)

    @given(ratfuncs(3, coeffs=fractions()), st.integers(-4, 6))
    @settings(max_examples=80, deadline=None)
    def test_ratfunc_pow(self, r, n):
        """r ** n builds its reduced result with no gcd, for every sign of n."""
        if r.is_zero() and n < 0:
            with pytest.raises(ZeroDivisionError):
                r ** n
            return
        _check(r ** n, (_sym(r.num) / _sym(r.den)) ** n)

    @given(fractions().filter(bool), fractions())
    @settings(max_examples=80, deadline=None)
    def test_factorize_degree_one(self, a, b):
        p = Poly([b, a])  # a*t + b
        coeff, factors = sympy.factor_list(_sym(p), SYM_T, domain=sympy.QQ)
        unit = Fraction(int(coeff.p), int(coeff.q))
        expected = []
        for f, m in factors:
            f = sympy.Poly(f, SYM_T, domain=sympy.QQ)
            lc = f.LC()
            unit *= Fraction(int(lc.p), int(lc.q)) ** m
            expected.append((_coeffs(f.monic()), m))
        fact = factorize(p)
        assert fact.unit == unit and type(fact.unit) is Fraction
        assert [(f.coeffs, m) for f, m in fact.factors] == expected
        assert fact.expand() == p
