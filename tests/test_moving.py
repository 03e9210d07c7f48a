from fractions import Fraction

import pytest

from ffdio import moving
from ffdio.moving import (
    MovingHyperplaneFamily,
    PointSequence,
    Sequence,
    general_position_check,
    nondegeneracy_probe,
    normalize_xi,
    sequence_rank_over_q,
    smallness_report,
    window_range,
)
from ffdio.parser import EvalError, parse_ratfunc
from ffdio.ratfunc import RatFunc


def test_window_range():
    assert window_range(3, 6) == (3, 4, 5, 6)
    with pytest.raises(ValueError):
        window_range(5, 4)


class TestSequence:
    def test_eval_and_memoization(self):
        calls = []

        def fn(alpha):
            calls.append(alpha)
            return RatFunc.constant(alpha)

        seq = Sequence(fn, alpha_min=2)
        assert seq.eval(3) == 3
        assert seq.eval(3) == 3
        assert calls == [3]
        with pytest.raises(ValueError):
            seq.eval(1)

    def test_from_text(self):
        seq = Sequence.from_text("t^(2*a)")
        assert seq.eval(3) == parse_ratfunc("t^6")

    def test_arithmetic(self):
        a = Sequence.from_text("t^a")
        b = Sequence.constant(parse_ratfunc("t"))
        assert (a / b).eval(3) == parse_ratfunc("t^2")
        assert (a / b).text == "(t^a) / (t)"

    def test_is_constant_on(self):
        assert Sequence.from_text("t^ilog2(a)").is_constant_on(range(4, 8))
        assert not Sequence.from_text("t^a").is_constant_on(range(1, 5))


class TestPointSequence:
    def test_eval_point(self):
        xs = PointSequence.from_texts(["1", "t^a"])
        assert str(xs.eval_point(2)) == "[1 : t^2]"

    def test_all_zero_rejected(self):
        xs = PointSequence.from_texts(["a - 3", "0"])
        with pytest.raises(EvalError):
            xs.eval_point(3)


class TestNormalize:
    def family(self):
        return MovingHyperplaneFamily.from_texts(
            [["t^a", "1"], ["0", "t"], ["1", "1"]]
        )

    def test_pivots_and_rescaling(self):
        window = window_range(1, 5)
        norm = normalize_xi(self.family(), window)
        assert norm.pivots == (0, 1, 0)
        assert norm.rows[0][0].eval(3) == 1
        assert norm.rows[0][1].eval(3) == parse_ratfunc("1/t^3")
        assert norm.rows[1][1].eval(2) == 1
        assert norm.all_exceptions() == frozenset()

    def test_pivot_exceptions(self):
        fam = MovingHyperplaneFamily.from_texts([["a - 3", "1"], ["0", "1"]])
        # With no exceptions allowed, the vanishing-at-3 coefficient is skipped.
        strict = normalize_xi(fam, window_range(1, 5), max_exceptions=0)
        assert strict.pivots == (1, 1)
        # Allowing one exception makes the earlier coefficient eligible.
        norm = normalize_xi(fam, window_range(1, 5), max_exceptions=1)
        assert norm.pivots == (0, 1)
        assert norm.exceptions[0] == frozenset({3})
        # A row with no usable coefficient is rejected.
        dead = MovingHyperplaneFamily.from_texts([["a - 3", "0"], ["0", "1"]])
        with pytest.raises(ValueError):
            normalize_xi(dead, window_range(1, 5), max_exceptions=0)


class TestProbes:
    def test_general_position(self):
        fam = MovingHyperplaneFamily.from_texts([["1", "0"], ["0", "1"], ["1", "t^a"]])
        assert general_position_check(fam, 1)
        bad = MovingHyperplaneFamily.from_texts([["1", "1"], ["2", "2"], ["0", "1"]])
        assert not general_position_check(bad, 1)

    def test_smallness(self):
        fam = MovingHyperplaneFamily.from_texts(
            [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "t^ilog2(a)", "2"]]
        )
        xs = PointSequence.from_texts(["1", "t^a", "t^(2*a)"])
        verdict = smallness_report(fam, xs, window_range(8, 64), Fraction(1, 10))
        assert verdict.holds
        assert verdict.statistic == Fraction(6, 128)

    def test_smallness_takes_each_family_once(self, monkeypatch):
        """On 8..64 the family takes three values (ilog2(a) = 3, 4, 5) and one
        more at a = 64, so the four forms' heights are taken 4 * 4 times."""
        fam = MovingHyperplaneFamily.from_texts(
            [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "t^ilog2(a)", "2"]]
        )
        xs = PointSequence.from_texts(["1", "t^a", "t^(2*a)"])
        calls = []
        original = moving.height_form

        def counting(form):
            calls.append(form)
            return original(form)

        monkeypatch.setattr(moving, "height_form", counting)
        verdict = smallness_report(fam, xs, window_range(8, 64), Fraction(1, 10))
        assert verdict.statistic == Fraction(6, 128)
        assert len(calls) == 4 * 4

    def test_smallness_fails_for_fast_targets(self):
        fam = MovingHyperplaneFamily.from_texts([["1", "0"], ["0", "1"], ["1", "t^a"]])
        xs = PointSequence.from_texts(["1", "t^a"])
        verdict = smallness_report(fam, xs, window_range(2, 30), Fraction(1, 10))
        assert not verdict.holds

    def test_nondegeneracy(self):
        xs = PointSequence.from_texts(["1", "t^a"])
        assert nondegeneracy_probe(xs, window_range(1, 10)).holds
        dep = PointSequence.from_texts(["t^a", "2 * t^a"])
        assert not nondegeneracy_probe(dep, window_range(1, 10)).holds


class TestRankOverQ:
    def test_powers_of_t(self):
        seqs = [Sequence.constant(1), Sequence.from_text("t^a"), Sequence.from_text("2 * t^a")]
        rank, accepted = sequence_rank_over_q(seqs, window_range(1, 10))
        assert rank == 2
        assert accepted == [0, 1]
