"""Constructive core of the moving-to-fixed reduction.

Per-place index selection by local orders, exact inversion of the selected
linear system, the exact local counting inequality, transfer of basis-times-
coordinate products, derived hyperplanes with padding, and product points in
the enlarged projective space. Every identity here is exact; a violation is a
bug, not a numerical event.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence as Seq

from . import linalg
from .heights import LinearForm, ProjPoint, e_form, e_point, height_point, weil
from .moving import NormalizedFamily, PointSequence, Sequence
from .parser import EvalError
from .places import PrimeDivisor, ord_at
from .ratfunc import RatFunc


class ExactIdentityError(AssertionError):
    """An identity that must hold exactly failed; indicates a bug upstream."""


@dataclass(frozen=True)
class PlaceSelection:
    place: PrimeDivisor
    J: tuple[int, ...]  # M+1 row indices (0-based), decreasing local order
    stable_subset: tuple[int, ...]


@dataclass(frozen=True)
class TransferMatrix:
    """Rows express basis-times-selected-form products in the product basis.

    Row (l, j) -> index l * ls + j; column (mu, nu) -> nu * ls1 + mu, matching
    the coordinate order of product points.
    """

    sel: PlaceSelection
    rows: tuple[tuple[Sequence, ...], ...]
    ls: int
    ls1: int
    m: int

    @property
    def n_rows(self) -> int:
        return (self.m + 1) * self.ls

    @property
    def n_cols(self) -> int:
        return (self.m + 1) * self.ls1

    def row_form(self, l: int, j: int, alpha: int) -> LinearForm:
        return LinearForm(tuple(c.eval(alpha) for c in self.rows[l * self.ls + j]))


@dataclass(frozen=True)
class DerivedFamily:
    transfer: TransferMatrix
    padding: tuple[int, ...]  # coordinate indices used as unit-vector forms


def _form_value(forms: NormalizedFamily, j: int, x: ProjPoint, alpha: int) -> RatFunc:
    value = forms.eval_form(j, alpha).apply(x)
    if value.is_zero():
        raise ValueError(f"point lies on hyperplane {j} at index {alpha}")
    return value


def select_J(
    p: PrimeDivisor, alpha: int, forms: NormalizedFamily, x: ProjPoint
) -> tuple[int, ...]:
    """The M+1 row indices with largest ord_p of the form value at x, ordered
    by decreasing order; ties broken by smaller row index."""
    ords = [
        (ord_at(_form_value(forms, j, x, alpha), p), j) for j in range(forms.q)
    ]
    ords.sort(key=lambda oj: (-oj[0], oj[1]))
    return tuple(j for _, j in ords[: forms.m + 1])


def stabilize_J(
    p: PrimeDivisor,
    window: Seq[int],
    forms: NormalizedFamily,
    xs: PointSequence,
) -> PlaceSelection:
    """Group window indices by their selection outcome; keep the largest group
    (ties: lexicographically smallest index tuple)."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for alpha in window:
        try:
            J = select_J(p, alpha, forms, xs.eval_point(alpha))
        except (ValueError, EvalError):
            continue
        groups.setdefault(J, []).append(alpha)
    if not groups:
        raise ValueError("no window index admits a selection")
    best = min(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    return PlaceSelection(place=p, J=best[0], stable_subset=tuple(sorted(best[1])))


def invert_forms(
    sel: PlaceSelection, alpha: int, forms: NormalizedFamily
) -> list[list[RatFunc]]:
    """Exact inverse over Q(t) of the coefficient matrix of the selected rows."""
    mat = [list(forms.eval_form(j, alpha).coeffs) for j in sel.J]
    try:
        inv = linalg.inverse(mat, RatFunc.constant(1))
    except ValueError as exc:
        raise ValueError(
            f"selected rows are singular at index {alpha} (general position fails)"
        ) from exc
    return inv


def check_inverse(
    sel: PlaceSelection, alpha: int, forms: NormalizedFamily, inv: list[list[RatFunc]]
) -> None:
    """Re-verify inv * (selected coefficient matrix) == identity exactly."""
    mat = [list(forms.eval_form(j, alpha).coeffs) for j in sel.J]
    n = len(mat)
    one = RatFunc.constant(1)
    zero = RatFunc.constant(0)
    for i in range(n):
        for j in range(n):
            acc = zero
            for k in range(n):
                acc = acc + inv[i][k] * mat[k][j]
            if acc != (one if i == j else zero):
                raise ExactIdentityError(
                    f"inverse identity fails at place {sel.place}, index {alpha}"
                )


@dataclass(frozen=True)
class LocalInequality:
    holds: bool
    lhs: int
    rhs: int


def check_local_inequality(
    p: PrimeDivisor,
    alpha: int,
    sel: PlaceSelection,
    forms: NormalizedFamily,
    x: ProjPoint,
) -> LocalInequality:
    """Exact local counting bound at (p, alpha).

    sum over all rows of (e_p(x) - ord_p L_j(x)) is at least the same sum over
    the selected rows plus (q - M - 1) times the minimum order of the inverse
    matrix entries. Always holds when sel matches the order ranking at alpha.
    """
    e = e_point(x, p)
    ords = [ord_at(_form_value(forms, j, x, alpha), p) for j in range(forms.q)]
    lhs = sum(e - o for o in ords)
    inv = invert_forms(sel, alpha, forms)
    inv_ords = [ord_at(v, p) for row in inv for v in row if not v.is_zero()]
    min_inv = min(inv_ords)
    rhs = sum(e - ords[j] for j in sel.J) + (forms.q - forms.m - 1) * min_inv
    return LocalInequality(holds=lhs >= rhs, lhs=lhs, rhs=rhs)


def product_point(b: Seq[Sequence], xs: PointSequence, alpha: int) -> ProjPoint:
    """[b_1 x_0 : ... : b_ls1 x_0 : b_1 x_1 : ... : b_ls1 x_M] at alpha."""
    bvals = [seq.eval(alpha) for seq in b]
    xvals = [c.eval(alpha) for c in xs.coords]
    coords = [bvals[mu] * xvals[nu] for nu in range(len(xvals)) for mu in range(len(bvals))]
    return ProjPoint(tuple(coords))


def h_sequence(forms: NormalizedFamily, j: int, xs: PointSequence) -> Sequence:
    """alpha -> value of the normalized row j at the point: sum_l xi_{j,l} x_l."""
    def fn(alpha: int) -> RatFunc:
        return forms.eval_form(j, alpha).apply(xs.eval_point(alpha))

    return Sequence(fn, max(c.alpha_min for c in xs.coords), f"h_{j}")


def build_transfer(
    sel: PlaceSelection,
    b: Seq[Sequence],
    ls: int,
    forms: NormalizedFamily,
    xs: PointSequence,
    window: Seq[int],
) -> TransferMatrix:
    """Solve exactly for constant rows expressing b_j * h_{J[l]} in the
    products b_mu * x_nu, then re-verify the identity at every stable index.

    Requires the products to be independent over Q(t) on the window with
    constant coefficients (the operational nondegeneracy hypothesis).
    """
    ls1 = len(b)
    m = xs.m
    n_cols = (m + 1) * ls1

    usable = [alpha for alpha in window if alpha not in _bad_indices(forms, xs, window)]
    value_rows = {alpha: product_point(b, xs, alpha).coords for alpha in usable}

    # Independence of the product sequences over the rational base field; the
    # stronger per-place row independence is re-verified in derive_and_pad.
    vectors = linalg.rational_vectors([value_rows[a] for a in usable])
    greedy = linalg.GreedyBasis()
    for vec in vectors:
        greedy.offer(vec)
    if greedy.rank < n_cols:
        raise ValueError(
            "the products b_mu * x_nu are dependent over the base field on the "
            "window (nondegeneracy failure)"
        )

    solve_on = list(sel.stable_subset)
    rows: list[tuple[Sequence, ...]] = []
    for l in range(m + 1):
        h = h_sequence(forms, sel.J[l], xs)
        for j in range(ls):
            targets = [b[j].eval(alpha) * h.eval(alpha) for alpha in solve_on]
            mat = [value_rows[alpha] for alpha in solve_on]
            try:
                coeffs = linalg.solve_particular(mat, targets)
            except linalg.InconsistentSystem as exc:
                raise ValueError(
                    "transfer system inconsistent on the stable subset; "
                    "enlarge the window"
                ) from exc
            rows.append(tuple(Sequence.constant(c) for c in coeffs))

    matrix = TransferMatrix(sel=sel, rows=tuple(rows), ls=ls, ls1=ls1, m=m)
    for alpha in sel.stable_subset:
        _verify_transfer_identity(matrix, b, forms, xs, alpha)
    return matrix


def _bad_indices(forms: NormalizedFamily, xs: PointSequence, window: Seq[int]) -> set[int]:
    bad = set(forms.all_exceptions())
    for alpha in window:
        try:
            xs.eval_point(alpha)
        except EvalError:
            bad.add(alpha)
    return bad


def _verify_transfer_identity(
    C: TransferMatrix,
    b: Seq[Sequence],
    forms: NormalizedFamily,
    xs: PointSequence,
    alpha: int,
) -> None:
    P = product_point(b, xs, alpha)
    for l in range(C.m + 1):
        h_val = forms.eval_form(C.sel.J[l], alpha).apply(xs.eval_point(alpha))
        for j in range(C.ls):
            lhs = C.row_form(l, j, alpha).apply(P)
            rhs = b[j].eval(alpha) * h_val
            if lhs != rhs:
                raise ExactIdentityError(
                    f"transfer identity fails at place {C.sel.place}, index {alpha}, "
                    f"row ({l}, {j})"
                )


def derive_and_pad(C: TransferMatrix) -> DerivedFamily:
    """Complete the derived forms to a full independent family by greedily
    appending coordinate forms in product-coordinate order."""
    if not C.sel.stable_subset:
        raise ValueError("empty stable subset")
    alpha0 = C.sel.stable_subset[0]
    n = C.n_cols
    greedy = linalg.GreedyBasis()
    for idx, row in enumerate(C.rows):
        vec = [c.eval(alpha0) for c in row]
        if not greedy.offer(vec):
            raise ValueError(f"transfer row {idx} is dependent over Q(t)")
    padding = []
    one = RatFunc.constant(1)
    zero = RatFunc.constant(0)
    for coord in range(n):
        if greedy.rank == n:
            break
        vec = [one if i == coord else zero for i in range(n)]
        if greedy.offer(vec):
            padding.append(coord)
    assert greedy.rank == n, "independent rows must extend to a full basis"

    family = DerivedFamily(transfer=C, padding=tuple(padding))
    for alpha in C.sel.stable_subset:
        mat = [[c.eval(alpha) for c in row] for row in C.rows]
        for coord in padding:
            mat.append([one if i == coord else zero for i in range(n)])
        if linalg.rank(mat) != n:
            raise ExactIdentityError(
                f"derived family degenerates at index {alpha} for place {C.sel.place}"
            )
    return family


@dataclass(frozen=True)
class HeightSplit:
    h_product: int
    h_point: int
    h_basis: int


def height_P_decomposition(
    b: Seq[Sequence], xs: PointSequence, alpha: int
) -> HeightSplit:
    """h(product point) = h(x) + h(basis point), exactly."""
    h_p = height_point(product_point(b, xs, alpha))
    h_x = height_point(xs.eval_point(alpha))
    h_b = height_point(ProjPoint(tuple(seq.eval(alpha) for seq in b)))
    if h_p != h_x + h_b:
        raise ExactIdentityError(
            f"height decomposition fails at index {alpha}: {h_p} != {h_x} + {h_b}"
        )
    return HeightSplit(h_product=h_p, h_point=h_x, h_basis=h_b)


@dataclass(frozen=True)
class WeilTransfer:
    holds: bool
    lam_derived: int
    lam_base: int
    delta: int


def weil_transfer_check(
    p: PrimeDivisor,
    alpha: int,
    l: int,
    j: int,
    C: TransferMatrix,
    b: Seq[Sequence],
    forms: NormalizedFamily,
    xs: PointSequence,
) -> WeilTransfer:
    """The Weil function of the product point against a derived form equals
    the base Weil function plus an explicit exact correction term."""
    P = product_point(b, xs, alpha)
    derived_form = C.row_form(l, j, alpha)
    lam_derived = weil(P, derived_form, p)

    x = xs.eval_point(alpha)
    base_form = forms.eval_form(C.sel.J[l], alpha)
    lam_base = weil(x, base_form, p)

    b_ords = [ord_at(seq.eval(alpha), p) for seq in b if not seq.eval(alpha).is_zero()]
    b_j_val = b[j].eval(alpha)
    if b_j_val.is_zero():
        raise ValueError(f"basis element {j} vanishes at index {alpha}")
    delta = (
        e_form(base_form, p)
        + ord_at(b_j_val, p)
        - min(b_ords)
        - e_form(derived_form, p)
    ) * p.degree

    holds = lam_derived == lam_base + delta
    if not holds:
        raise ExactIdentityError(
            f"Weil transfer fails at place {p}, index {alpha}, row ({l}, {j}): "
            f"{lam_derived} != {lam_base} + {delta}"
        )
    return WeilTransfer(holds=holds, lam_derived=lam_derived, lam_base=lam_base, delta=delta)
