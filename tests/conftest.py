from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import strategies as st

from ffdio.parser import MAX_POWER_DEGREE
from ffdio.ratfunc import Poly, RatFunc

small_ints = st.integers(-9, 9)


def polys(max_degree: int = 6, nonzero: bool = False, coeffs=small_ints):
    strat = st.lists(coeffs, min_size=1, max_size=max_degree + 1).map(Poly)
    if nonzero:
        strat = strat.filter(lambda p: not p.is_zero())
    return strat


def ratfuncs(max_degree: int = 5, nonzero: bool = False, coeffs=small_ints):
    num = polys(max_degree, nonzero=nonzero, coeffs=coeffs)
    den = polys(max_degree, nonzero=True, coeffs=coeffs)
    return st.builds(RatFunc, num, den).filter(
        lambda r: not (nonzero and r.is_zero())
    )


def fractions():
    return st.builds(Fraction, small_ints, st.integers(1, 9))


def det_cofactor(rows):
    """Leibniz-formula determinant: a slow, independent oracle for elimination."""
    n = len(rows)
    total = None
    for perm in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        if inv % 2:
            term = -term
        total = term if total is None else total + term
    return total


@pytest.fixture
def no_huge_powers(monkeypatch):
    """Fail the test if anything asks Poly.__pow__ for an exponent above the
    degree cap: a power that large must be refused before it is built."""
    original = Poly.__pow__

    def guarded(self, n):
        if n > MAX_POWER_DEGREE:
            pytest.fail(f"Poly.__pow__ called with exponent {n}")
        return original(self, n)

    monkeypatch.setattr(Poly, "__pow__", guarded)


@pytest.fixture
def no_huge_monomial_lists(monkeypatch):
    """Fail the test if anything asks `steinmetz.monomials` for a degree s
    whose monomials of degree <= s outnumber the cap: such a degree must be
    refused before its monomials are listed."""
    from math import comb

    from ffdio import steinmetz

    original = steinmetz.monomials

    def guarded(xi_count, s):
        if comb(xi_count + s, s) > steinmetz.MAX_MONOMIALS:
            pytest.fail(f"monomials({xi_count}, {s}) called")
        return original(xi_count, s)

    monkeypatch.setattr(steinmetz, "monomials", guarded)


@pytest.fixture
def no_long_windows(monkeypatch):
    """Fail the test if anything builds a window longer than the cap: such a
    window must be refused while the config or the flag is read."""
    import sys

    from ffdio import harness, moving

    original = moving.window_range

    def guarded(lo, hi):
        if hi - lo + 1 > harness.MAX_WINDOW:
            pytest.fail(f"window_range({lo}, {hi}) called")
        return original(lo, hi)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ffdio" and getattr(module, "window_range", None) is original:
            monkeypatch.setattr(module, "window_range", guarded)
