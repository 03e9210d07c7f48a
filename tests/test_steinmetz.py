from fractions import Fraction
from math import comb

import pytest

from ffdio.moving import Sequence, window_range
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
        space = dim_L([Sequence.constant(1)], 5, window_range(1, 10))
        assert space.dim == 1

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
