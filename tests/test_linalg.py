from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from ffdio import linalg
from ffdio.ratfunc import Poly, RatFunc

from conftest import det_cofactor, fractions

ONE = Fraction(1)


def frac_matrix(n, m=None):
    m = m or n
    return st.lists(
        st.lists(fractions(), min_size=m, max_size=m), min_size=n, max_size=n
    )


class TestDeterminant:
    @given(frac_matrix(3))
    @settings(max_examples=80)
    def test_matches_cofactor_oracle(self, rows):
        assert linalg.det(rows) == det_cofactor(rows)

    @given(frac_matrix(4))
    @settings(max_examples=40)
    def test_matches_cofactor_oracle_4x4(self, rows):
        assert linalg.det(rows) == det_cofactor(rows)

    def test_over_ratfunc(self):
        t = RatFunc(Poly([0, 1]))
        one = RatFunc.constant(1)
        rows = [[one, t], [t, t * t]]
        assert linalg.det(rows) == 0
        rows = [[one, t], [t, one]]
        assert linalg.det(rows) == one - t * t


class TestRrefRankSolve:
    @given(frac_matrix(3, 4))
    @settings(max_examples=60)
    def test_rref_idempotent(self, rows):
        reduced, pivots = linalg.rref(rows)
        again, pivots2 = linalg.rref(reduced)
        assert again == reduced and pivots2 == pivots
        assert linalg.rank(rows) == len(pivots)

    @given(frac_matrix(2, 4), st.lists(fractions(), min_size=2, max_size=2))
    @settings(max_examples=60)
    def test_solve_particular(self, rows, rhs):
        if linalg.rank(rows) < 2:
            return
        x = linalg.solve(rows, [[v] for v in rhs])
        assert len(x) == 4 and all(len(r) == 1 for r in x)
        for row, b in zip(rows, rhs):
            assert sum(c * v[0] for c, v in zip(row, x)) == b

    @given(frac_matrix(3, 3), frac_matrix(3, 4))
    @settings(max_examples=60)
    def test_solve_matches_sympy(self, rows, rhs):
        """Several right-hand sides over Q against sympy's exact rref."""
        a, b = sympy.Matrix(rows), sympy.Matrix(rhs)
        reduced, pivots = a.row_join(b).rref()
        if any(pc >= 3 for pc in pivots):
            with pytest.raises(linalg.InconsistentSystem):
                linalg.solve(rows, rhs)
            return
        want = sympy.zeros(3, 4)
        for r, pc in enumerate(pivots):
            want[pc, :] = reduced[r, 3:]
        x = linalg.solve(rows, rhs)
        assert sympy.Matrix(x) == want
        assert a * sympy.Matrix(x) == b

    @given(frac_matrix(4, 2), frac_matrix(4, 3))
    @settings(max_examples=60)
    def test_columns_solve_alone(self, rows, rhs):
        """Each column of a several-column solve is its one-column solve."""
        def solve_or_none(b):
            try:
                return linalg.solve(rows, b)
            except linalg.InconsistentSystem:
                return None

        x = solve_or_none(rhs)
        alone = [solve_or_none([[r[c]] for r in rhs]) for c in range(3)]
        assert (x is None) == any(a is None for a in alone)
        if x is not None:
            for c, a in enumerate(alone):
                assert [r[c] for r in x] == [r[0] for r in a]

    def test_inconsistent(self):
        with pytest.raises(linalg.InconsistentSystem):
            linalg.solve([[ONE, ONE], [ONE, ONE]], [[ONE, ONE], [ONE, ONE + ONE]])

    def test_over_ratfunc(self):
        t = RatFunc(Poly([0, 1]))
        one = RatFunc.constant(1)
        x = linalg.solve([[one, t], [t, one]], [[one + t], [one + t]])
        assert x == [[one], [one]]

    @given(frac_matrix(3))
    @settings(max_examples=40)
    def test_inverse(self, rows):
        identity = [[ONE if i == j else 0 * ONE for j in range(3)] for i in range(3)]
        if linalg.det(rows) == 0:
            with pytest.raises(linalg.InconsistentSystem):
                linalg.solve(rows, identity)
            return
        inv = linalg.solve(rows, identity)
        assert sympy.Matrix(inv) == sympy.Matrix(rows).inv()
        for i in range(3):
            for j in range(3):
                acc = sum(inv[i][k] * rows[k][j] for k in range(3))
                assert acc == (1 if i == j else 0)


class TestGreedyBasis:
    @given(st.lists(st.lists(fractions(), min_size=3, max_size=3), min_size=1, max_size=8))
    @settings(max_examples=60)
    def test_rank_matches_and_prefix_independent(self, vectors):
        greedy = linalg.GreedyBasis()
        for vec in vectors:
            greedy.offer(vec)
        assert greedy.rank == linalg.rank(vectors)
        accepted_rows = [vectors[i] for i in greedy.accepted]
        assert linalg.rank(accepted_rows) == len(accepted_rows)
        # Greedy choice: each rejected vector depends on the accepted ones before it.
        for i, vec in enumerate(vectors):
            if i in greedy.accepted:
                continue
            before = [vectors[j] for j in greedy.accepted if j < i]
            assert linalg.rank(before + [vec]) == len(before)


def qq_rank(vectors, n):
    """Rank over QQ by sympy's DomainMatrix, an elimination independent of ffdio."""
    rows = [[sympy.QQ(Fraction(v).numerator, Fraction(v).denominator) for v in vec] for vec in vectors]
    return DomainMatrix(rows, (len(rows), n), sympy.QQ).rank()


def dense(vec, n):
    return [vec.get(c, 0) for c in range(n)] if isinstance(vec, dict) else list(vec)


big_entries = st.one_of(
    st.integers(-(10**30), 10**30).filter(bool),
    st.builds(Fraction, st.integers(-(10**12), 10**12).filter(bool), st.integers(1, 10**6)),
)


@st.composite
def sparse_families(draw):
    """Long, mostly-zero Q-vectors, with repeated, scaled and combined rows
    among them, each given sparse ({column: value}) or dense."""
    n = draw(st.integers(1, 80))
    vectors = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["new", "repeat", "scale", "combine"])) if vectors else "new"
        if kind == "new":
            cols = draw(st.sets(st.integers(0, n - 1), max_size=min(n, 8)))
            vec = {c: draw(big_entries) for c in cols}
        else:
            a = dense(draw(st.sampled_from(vectors)), n)
            if kind == "repeat":
                vec = a
            elif kind == "scale":
                k = draw(big_entries)
                vec = [k * v for v in a]
            else:
                b = dense(draw(st.sampled_from(vectors)), n)
                k = draw(big_entries)
                vec = [x + k * y for x, y in zip(a, b)]
            vec = {c: v for c, v in enumerate(vec) if v}
        vectors.append(vec if draw(st.booleans()) else dense(vec, n))
    return n, vectors


class TestGreedyBasisSparse:
    @given(sparse_families())
    @settings(max_examples=80, deadline=None)
    def test_against_sympy_and_the_greedy_rule(self, family):
        n, vectors = family
        greedy = linalg.GreedyBasis()
        results = [greedy.offer(vec) for vec in vectors]
        rows = [dense(vec, n) for vec in vectors]
        assert greedy.count == len(vectors)
        assert greedy.rank == qq_rank(rows, n)
        assert greedy.accepted == [i for i, ok in enumerate(results) if ok]
        assert qq_rank([rows[i] for i in greedy.accepted], n) == greedy.rank
        for i, vec in enumerate(rows):
            before = [rows[j] for j in greedy.accepted if j < i]
            assert (i in greedy.accepted) == (qq_rank(before + [vec], n) > len(before))

    @given(sparse_families())
    @settings(max_examples=60, deadline=None)
    def test_stored_rows_are_primitive_integer_rows(self, family):
        _, vectors = family
        greedy = linalg.GreedyBasis()
        for vec in vectors:
            greedy.offer(vec)
        pivots = [pc for pc, _ in greedy.reduced]
        assert pivots == sorted(set(pivots))
        for pc, red in greedy.reduced:
            assert red and all(type(v) is int and v for v in red.values())
            assert gcd(*red.values()) == 1
            assert pc == min(red)
            # Zero at every other row's pivot that comes before it.
            assert all(red.get(other, 0) == 0 for other in pivots if other < pc)

    def test_sparse_and_dense_agree(self):
        greedy = linalg.GreedyBasis()
        assert greedy.offer({3: Fraction(1, 2), 7: 4})
        assert not greedy.offer([0, 0, 0, 3, 0, 0, 0, 24])
        assert not greedy.offer({})
        assert greedy.offer([0, 0, 0, 0, 0, 0, 0, Fraction(-5, 3)])
        assert greedy.accepted == [0, 3] and greedy.rank == 2 and greedy.count == 4
        assert greedy.reduced == [(3, {3: 1, 7: 8}), (7, {7: -1})]

    def test_rational_vectors_are_sparse_with_the_same_offsets(self):
        t = RatFunc(Poly([0, 1]))
        one = RatFunc.constant(1)
        values = [[one, t * t / 2, t / (t + 1)], [t, one * 0, one]]
        vectors = linalg.rational_vectors(values)
        # The first index clears the denominator t + 1, so its block has width
        # 4 (t^2/2 * (t + 1) has degree 3); the second block starts at 4.
        assert vectors == [
            {0: 1, 1: 1, 5: 1},
            {2: Fraction(1, 2), 3: Fraction(1, 2)},
            {1: 1, 4: 1},
        ]
