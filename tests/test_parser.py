from fractions import Fraction

import pytest
from hypothesis import given, settings

from ffdio.parser import (
    MAX_POWER_BITS,
    MAX_POWER_DEGREE,
    EvalError,
    ParseError,
    evaluate,
    parse_expression,
    parse_ratfunc,
)
from ffdio.ratfunc import Poly, RatFunc

from conftest import ratfuncs


class TestRatFuncParsing:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("t", RatFunc(Poly([0, 1]))),
            ("t^2 - 1", RatFunc(Poly([-1, 0, 1]))),
            ("(t+1)/(t-1)", RatFunc(Poly([1, 1]), Poly([-1, 1]))),
            ("1/2 * t", RatFunc(Poly([0, Fraction(1, 2)]))),
            ("-t^3", RatFunc(Poly([0, 0, 0, -1]))),
            ("2^10", RatFunc.constant(1024)),
            ("(t+1)^2", RatFunc(Poly([1, 2, 1]))),
        ],
    )
    def test_examples(self, text, expected):
        assert parse_ratfunc(text) == expected

    def test_precedence(self):
        assert parse_ratfunc("1 + 2 * t^2") == RatFunc(Poly([1, 0, 2]))
        assert parse_ratfunc("-t^2") == RatFunc(Poly([0, 0, -1]))

    @given(ratfuncs())
    @settings(max_examples=80)
    def test_roundtrip(self, r):
        assert parse_ratfunc(str(r)) == r

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as exc:
            parse_ratfunc("t + * 2")
        assert exc.value.pos is not None
        with pytest.raises(ParseError):
            parse_ratfunc("t +")
        with pytest.raises(ParseError):
            parse_ratfunc("(t")
        with pytest.raises(ParseError):
            parse_ratfunc("t $ 2")

    def test_index_variable_rejected_outside_index_mode(self):
        with pytest.raises(ParseError):
            parse_ratfunc("t^a")


class TestIndexExpressions:
    def eval_text(self, text, alpha):
        return evaluate(parse_expression(text, index=True), alpha)

    def test_power_of_index(self):
        assert self.eval_text("t^a", 5) == RatFunc(Poly([0, 1])) ** 5

    def test_ilog2(self):
        for alpha, expected in [(1, 0), (2, 1), (3, 1), (4, 2), (255, 7), (256, 8)]:
            assert self.eval_text("t^ilog2(a)", alpha) == RatFunc(Poly([0, 1])) ** expected

    def test_floor_div(self):
        assert self.eval_text("t^floor_div(a, 3)", 10) == RatFunc(Poly([0, 1])) ** 3

    def test_arithmetic_in_exponent(self):
        assert self.eval_text("t^(2*a + 1)", 3) == RatFunc(Poly([0, 1])) ** 7

    def test_non_integer_exponent_fails(self):
        with pytest.raises(EvalError):
            self.eval_text("t^(a/2)", 3)

    def test_negative_index_power(self):
        assert self.eval_text("t^(-a)", 2) == RatFunc(Poly([1]), Poly([0, 0, 1]))


class TestPowerCaps:
    @pytest.mark.parametrize(
        "text, what",
        [
            ("t^1000000000", "degree"),
            ("t^(10^9)", "degree"),
            ("(t+1)^(-1000000000)", "degree"),
            ("1/(t^2+1)^600000000", "degree"),
            ("2^(10^9)", "bits"),
            ("(1/3)^(10^9)", "bits"),
            ("(-7)^(-1000000000)", "bits"),
        ],
    )
    def test_huge_power_refused_before_it_is_built(self, no_huge_powers, text, what):
        with pytest.raises(EvalError, match=what):
            parse_ratfunc(text)

    def test_index_power_refused_with_its_index(self, no_huge_powers):
        with pytest.raises(EvalError, match="at index 3"):
            evaluate(parse_expression("t^(a*10^9)", index=True), 3)

    def test_caps_are_inclusive(self):
        assert parse_ratfunc(f"t^{MAX_POWER_DEGREE}").num.degree == MAX_POWER_DEGREE
        with pytest.raises(EvalError):
            parse_ratfunc(f"t^{MAX_POWER_DEGREE + 1}")
        assert parse_ratfunc(f"2^{MAX_POWER_BITS // 2}") == RatFunc.constant(2 ** (MAX_POWER_BITS // 2))
        with pytest.raises(EvalError):
            parse_ratfunc(f"2^{MAX_POWER_BITS // 2 + 1}")

    def test_units_and_zero_have_no_size(self):
        assert parse_ratfunc("1^(10^9)") == RatFunc.constant(1)
        assert parse_ratfunc("(-1)^(10^9 + 1)") == RatFunc.constant(-1)
        assert parse_ratfunc("0^(10^9)") == RatFunc.constant(0)
