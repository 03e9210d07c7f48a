from fractions import Fraction
from itertools import permutations

from hypothesis import strategies as st

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
