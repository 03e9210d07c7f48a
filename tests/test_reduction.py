from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffdio import linalg, reduction
from ffdio.heights import LinearForm
from ffdio.moving import (
    MovingHyperplaneFamily,
    PointSequence,
    Sequence,
    normalize_xi,
    window_range,
)
from ffdio.places import INFINITY, PrimeDivisor
from ffdio.ratfunc import Poly, RatFunc
from ffdio.steinmetz import choose_s, extend_basis, monomial_sequence

from conftest import ratfuncs

T_PLACE = PrimeDivisor(Poly([0, 1]))
WINDOW = window_range(1, 20)


def fermat_fixture():
    fam = MovingHyperplaneFamily.from_texts([["1", "0"], ["0", "1"], ["1", "-1"]])
    xs = PointSequence.from_texts(["1", "t^a"])
    forms = normalize_xi(fam, WINDOW)
    return forms, xs


def fermat_table():
    forms, xs = fermat_fixture()
    return forms, xs, reduction.index_values(forms, xs, WINDOW)


def fermat_basis(forms):
    xis = [Sequence.constant(1), Sequence.constant(-1)]
    space_s, space_s1 = choose_s(xis, Fraction(1), WINDOW, 12)
    assert space_s.s == 0
    b = [monomial_sequence(xis, v) for v in extend_basis(space_s, space_s1)]
    return b, space_s.dim, space_s1.dim


class TestSelection:
    def test_select_J_at_t(self):
        forms, xs, table = fermat_table()
        # ord_t of the three form values at [1 : t^5]: (0, 5, 0) -> row 1 first,
        # then the tie at order 0 broken by the smaller index.
        loc = reduction.select_J(T_PLACE, table[5], forms.m)
        assert loc.J == (1, 0)
        assert loc.ords == (0, 5, 0)

    def test_select_J_at_infinity(self):
        forms, xs, table = fermat_table()
        assert reduction.select_J(INFINITY, table[5], forms.m).J == (0, 1)

    def test_index_values_skip_points_on_a_hyperplane(self):
        # The third hyperplane passes through [1 : t^5] at alpha = 5 only.
        fam = MovingHyperplaneFamily.from_texts([["1", "0"], ["0", "1"], ["t^5", "-1"]])
        xs = PointSequence.from_texts(["1", "t^a"])
        forms = normalize_xi(fam, WINDOW)
        table = reduction.index_values(forms, xs, WINDOW)
        assert sorted(table) == [a for a in WINDOW if a != 5]
        x = xs.eval_point(3)
        assert table[3].values == tuple(forms.eval_form(j, 3).apply(x) for j in range(3))

    def test_stabilize(self):
        forms, xs, table = fermat_table()
        sel = reduction.stabilize_J(T_PLACE, table, forms.m)
        assert sel.J == (1, 0)
        assert sel.stable_subset == WINDOW
        assert [loc.alpha for loc in sel.local] == list(WINDOW)
        assert all(loc.J == sel.J for loc in sel.local)

    def test_invert_forms_identity(self):
        forms, xs, table = fermat_table()
        loc = reduction.select_J(T_PLACE, table[3], forms.m)
        inv = reduction.invert_forms(loc, forms)
        mat = [list(forms.eval_form(j, 3).coeffs) for j in loc.J]
        one = RatFunc.constant(1)
        for i in range(2):
            for j in range(2):
                acc = sum((inv[i][k] * mat[k][j] for k in range(2)), RatFunc.constant(0))
                assert acc == (one if i == j else RatFunc.constant(0))

    def test_singular_selection_raises(self):
        forms, xs = fermat_fixture()
        loc = reduction.LocalSelection(T_PLACE, 4, (0, 4, 0), (0, 0))
        with pytest.raises(ValueError, match="selected rows are singular at index 4"):
            reduction.invert_forms(loc, forms)


class TestLocalInequality:
    def test_exact_values(self):
        forms, xs, table = fermat_table()
        loc = reduction.select_J(T_PLACE, table[7], forms.m)
        inv = reduction.invert_forms(loc, forms)
        res = reduction.check_local_inequality(loc, forms, xs.eval_point(7), inv)
        assert res.lhs == -7 and res.rhs == -7

    def test_wrong_selection_raises(self):
        # Rows 0 and 2 have order 0 at t where row 1 has order 7: the bound
        # over that J reads -7 >= 0, which fails.
        forms, xs = fermat_fixture()
        loc = reduction.LocalSelection(T_PLACE, 7, (0, 7, 0), (0, 2))
        inv = reduction.invert_forms(loc, forms)
        with pytest.raises(reduction.ExactIdentityError, match="place t, index 7"):
            reduction.check_local_inequality(loc, forms, xs.eval_point(7), inv)

    def test_holds_everywhere(self):
        forms, xs, table = fermat_table()
        for p in (T_PLACE, INFINITY):
            sel = reduction.stabilize_J(p, table, forms.m)
            for loc in sel.local:
                inv = reduction.invert_forms(loc, forms)
                res = reduction.check_local_inequality(loc, forms, xs.eval_point(loc.alpha), inv)
                assert res.lhs >= res.rhs


class TestTransfer:
    def test_fermat_pipeline(self):
        forms, xs, table = fermat_table()
        b, ls, ls1 = fermat_basis(forms)
        assert (ls, ls1) == (1, 1)
        for p in (T_PLACE, INFINITY):
            sel = reduction.stabilize_J(p, table, forms.m)
            C = reduction.build_transfer(sel, b, ls, table, xs, WINDOW)
            assert reduction.derive_and_pad(C) == ()
            for alpha in sel.stable_subset:
                site = reduction.transfer_site(p, table[alpha], sel, b, forms)
                reduction.check_transfer(site, C)
                for l in range(2):
                    form = C.row_form(l, 0)
                    reduction.weil_transfer_check(site, l, 0, form, form.apply(site.P))

    def test_transfer_rows_express_selected_forms(self):
        forms, xs, table = fermat_table()
        b, ls, _ = fermat_basis(forms)
        sel = reduction.stabilize_J(T_PLACE, table, forms.m)
        C = reduction.build_transfer(sel, b, ls, table, xs, WINDOW)
        # h_{J[0]} = x_1 and h_{J[1]} = x_0 in the product coordinates (x_0, x_1).
        assert [str(c) for c in C.row_form(0, 0).coeffs] == ["0", "1"]
        assert [str(c) for c in C.row_form(1, 0).coeffs] == ["1", "0"]

    def test_tampered_table_value_makes_the_system_inconsistent(self):
        # h_{J[1]} = L_0(x) = x_0 = 1; 2 at one stable index fits no constant row.
        forms, xs, table = fermat_table()
        b, ls, _ = fermat_basis(forms)
        sel = reduction.stabilize_J(T_PLACE, table, forms.m)
        iv = table[7]
        table[7] = replace(iv, values=(iv.values[0] + 1,) + iv.values[1:])
        with pytest.raises(
            ValueError, match=r"^transfer system inconsistent on the stable subset; enlarge the window$"
        ):
            reduction.build_transfer(sel, b, ls, table, xs, WINDOW)

    def test_tampered_transfer_detected(self):
        forms, xs, table = fermat_table()
        b, ls, ls1 = fermat_basis(forms)
        sel = reduction.stabilize_J(T_PLACE, table, forms.m)
        one, zero = RatFunc.constant(1), RatFunc.constant(0)
        rows = ((one, one), (one, zero))
        bad = reduction.TransferMatrix(sel=sel, rows=rows, ls=ls, ls1=ls1, m=1)
        site = reduction.transfer_site(T_PLACE, table[4], sel, b, forms)
        with pytest.raises(reduction.ExactIdentityError, match=r"transfer identity .* row \(0, 0\)"):
            reduction.check_transfer(site, bad)

    def test_dependent_row_is_refused(self):
        # Row 1 is twice row 0, so the derived forms cannot be completed.
        forms, xs, table = fermat_table()
        sel = reduction.stabilize_J(T_PLACE, table, forms.m)
        one, two, zero = RatFunc.constant(1), RatFunc.constant(2), RatFunc.constant(0)
        bad = reduction.TransferMatrix(sel=sel, rows=((one, zero), (two, zero)), ls=1, ls1=1, m=1)
        with pytest.raises(ValueError, match=r"^transfer row 1 is dependent over Q\(t\)$"):
            reduction.derive_and_pad(bad)

    def test_padding_follows_the_greedy_rule_over_qt(self):
        # e_0 extends the rows; e_1 = ((1, t, 0, 0) - e_0) / t then does not.
        forms, xs, table = fermat_table()
        sel = reduction.stabilize_J(T_PLACE, table, forms.m)
        t, one, zero = RatFunc(Poly([0, 1])), RatFunc.constant(1), RatFunc.constant(0)
        rows = ((one, t, zero, zero), (zero, zero, t, one))
        C = reduction.TransferMatrix(sel=sel, rows=rows, ls=1, ls1=2, m=1)
        assert reduction.derive_and_pad(C) == (0, 2)

    @given(st.lists(st.lists(ratfuncs(2), min_size=4, max_size=4), min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_padding_matches_greedy_rank_tests(self, rows):
        """derive_and_pad against a greedy completion by rank tests alone."""
        forms, xs, table = fermat_table()
        sel = reduction.stabilize_J(T_PLACE, table, forms.m)
        C = reduction.TransferMatrix(sel=sel, rows=tuple(map(tuple, rows)), ls=1, ls1=2, m=1)
        one, zero = RatFunc.constant(1), RatFunc.constant(0)
        family = []
        for idx, row in enumerate(rows):
            if linalg.rank(family + [row]) == len(family):
                with pytest.raises(ValueError, match=rf"^transfer row {idx} is dependent over Q\(t\)$"):
                    reduction.derive_and_pad(C)
                return
            family.append(row)
        padding = []
        for coord in range(4):
            unit = [one if i == coord else zero for i in range(4)]
            if linalg.rank(family + [unit]) > len(family):
                family.append(unit)
                padding.append(coord)
        assert reduction.derive_and_pad(C) == tuple(padding)

    def test_rank_is_rechecked_apart_from_the_greedy_basis(self, monkeypatch):
        forms, xs, table = fermat_table()
        b, ls, _ = fermat_basis(forms)
        sel = reduction.stabilize_J(T_PLACE, table, forms.m)
        C = reduction.build_transfer(sel, b, ls, table, xs, WINDOW)
        monkeypatch.setattr(reduction.linalg, "rank", lambda rows: 0)
        with pytest.raises(reduction.ExactIdentityError, match="derived family degenerates for place t"):
            reduction.derive_and_pad(C)

    def test_tampered_row_fails_the_weil_check(self):
        # Row (0, 0) should be x_1; x_0 + x_1 = 1 + t^4 has order 0 at t, not 4.
        forms, xs, table = fermat_table()
        b, _, _ = fermat_basis(forms)
        sel = reduction.stabilize_J(T_PLACE, table, forms.m)
        site = reduction.transfer_site(T_PLACE, table[4], sel, b, forms)
        one = RatFunc.constant(1)
        derived = LinearForm((one, one))
        with pytest.raises(reduction.ExactIdentityError, match=r"Weil transfer fails .*: 0 != 4 \+ 0"):
            reduction.weil_transfer_check(site, 0, 0, derived, derived.apply(site.P))

    def test_tampered_inverse_detected(self):
        forms, xs, table = fermat_table()
        loc = reduction.select_J(T_PLACE, table[4], forms.m)
        inv = reduction.invert_forms(loc, forms)
        reduction.check_inverse(loc, forms, inv)
        bad = [row[:] for row in inv]
        bad[0][0] = bad[0][0] + 1
        with pytest.raises(reduction.ExactIdentityError, match="place t, index 4"):
            reduction.check_inverse(loc, forms, bad)


class TestHeights:
    def test_height_decomposition(self):
        forms, xs = fermat_fixture()
        b, _, _ = fermat_basis(forms)
        for alpha in (1, 5, 12):
            split = reduction.height_P_decomposition(b, xs, alpha)
            assert split.h_product == alpha
            assert split.h_point == alpha
            assert split.h_basis == 0

    def test_moving_basis_decomposition(self):
        # b = (1, t^ilog2(a)) against x = [1 : t^a].
        xs = PointSequence.from_texts(["1", "t^a"])
        b = [Sequence.constant(1), Sequence.from_text("t^ilog2(a)")]
        for alpha in (4, 9, 16):
            split = reduction.height_P_decomposition(b, xs, alpha)
            assert split.h_point == alpha
            assert split.h_basis == alpha.bit_length() - 1
            assert split.h_product == split.h_point + split.h_basis
