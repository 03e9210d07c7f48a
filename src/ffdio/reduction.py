"""Constructive core of the moving-to-fixed reduction.

Per-place index selection by local orders, exact inversion of the selected
linear system, the exact local counting inequality, transfer of basis-times-
coordinate products, derived hyperplanes with padding, and product points in
the enlarged projective space. Every identity here is exact; a violation is a
bug, not a numerical event.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence as Seq

from . import linalg
from .heights import LinearForm, ProjPoint, e_form, e_point, height_point, weil_at
from .moving import NormalizedFamily, PointSequence, Sequence
from .places import PrimeDivisor, ord_at
from .ratfunc import RatFunc


class ExactIdentityError(AssertionError):
    """An identity that must hold exactly failed; indicates a bug upstream."""


@dataclass(frozen=True)
class IndexValues:
    """The point x(alpha) and the value L_j(x(alpha)) of every normalized
    row j at one usable index where none of those values vanishes."""

    alpha: int
    x: ProjPoint
    values: tuple[RatFunc, ...]


def index_values(
    forms: NormalizedFamily, xs: PointSequence, usable: Seq[int]
) -> dict[int, IndexValues]:
    """The value table of a run: every form applied once per usable index.
    Indices where the point lies on a hyperplane are left out."""
    table = {}
    for alpha in usable:
        x = xs.eval_point(alpha)
        values = tuple(forms.eval_form(j, alpha).apply(x) for j in range(forms.q))
        if not any(v.is_zero() for v in values):
            table[alpha] = IndexValues(alpha, x, values)
    return table


@dataclass(frozen=True)
class LocalSelection:
    """The orders at one (place, index): ord_p of every form value at the
    point, and the M+1 rows J of largest order, by decreasing order (ties
    broken by the smaller row index)."""

    place: PrimeDivisor
    alpha: int
    ords: tuple[int, ...]
    J: tuple[int, ...]


@dataclass(frozen=True)
class PlaceSelection:
    place: PrimeDivisor
    J: tuple[int, ...]  # M+1 row indices (0-based), decreasing local order
    stable_subset: tuple[int, ...]
    local: tuple[LocalSelection, ...]  # every index of the value table


@dataclass(frozen=True)
class TransferMatrix:
    """Rows express basis-times-selected-form products in the product basis.
    Their entries are constants of Q(t): the same at every index.

    Row (l, j) -> index l * ls + j; column (mu, nu) -> nu * ls1 + mu, matching
    the coordinate order of product points.
    """

    sel: PlaceSelection
    rows: tuple[tuple[RatFunc, ...], ...]
    ls: int
    ls1: int
    m: int

    @property
    def n_cols(self) -> int:
        return (self.m + 1) * self.ls1

    def row_form(self, l: int, j: int) -> LinearForm:
        return LinearForm(self.rows[l * self.ls + j])


def select_J(p: PrimeDivisor, iv: IndexValues, m: int) -> LocalSelection:
    """The form orders at (p, iv.alpha) and the M+1 rows J they select."""
    ords = tuple(ord_at(v, p) for v in iv.values)
    ranked = sorted(range(len(ords)), key=lambda j: (-ords[j], j))
    return LocalSelection(p, iv.alpha, ords, tuple(ranked[: m + 1]))


def stabilize_J(p: PrimeDivisor, table: dict[int, IndexValues], m: int) -> PlaceSelection:
    """Group the indices of the value table by their selection outcome; keep
    the largest group (ties: lexicographically smallest index tuple)."""
    local = [select_J(p, iv, m) for iv in table.values()]
    groups: dict[tuple[int, ...], list[int]] = {}
    for loc in local:
        groups.setdefault(loc.J, []).append(loc.alpha)
    if not groups:
        raise ValueError("no window index admits a selection")
    best = min(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    return PlaceSelection(p, best[0], tuple(sorted(best[1])), tuple(local))


def selected_matrix(loc: LocalSelection, forms: NormalizedFamily) -> tuple[tuple[RatFunc, ...], ...]:
    """The coefficient rows of the selected forms at loc.alpha, in J order."""
    return tuple(forms.eval_form(j, loc.alpha).coeffs for j in loc.J)


def invert_forms(loc: LocalSelection, forms: NormalizedFamily) -> list[list[RatFunc]]:
    """Exact inverse over Q(t) of the coefficient matrix of the selected rows."""
    mat = selected_matrix(loc, forms)
    n = len(mat)
    identity = [[RatFunc.constant(int(i == k)) for k in range(n)] for i in range(n)]
    try:
        return linalg.solve(mat, identity)
    except linalg.InconsistentSystem as exc:
        raise ValueError(
            f"selected rows are singular at index {loc.alpha} (general position fails)"
        ) from exc


def check_inverse(
    loc: LocalSelection, forms: NormalizedFamily, inv: list[list[RatFunc]]
) -> None:
    """Re-verify inv * (selected coefficient matrix) == identity exactly."""
    mat = selected_matrix(loc, forms)
    n = len(mat)
    for i in range(n):
        for j in range(n):
            acc = inv[i][0] * mat[0][j]
            for k in range(1, n):
                acc = acc + inv[i][k] * mat[k][j]
            if acc != int(i == j):
                raise ExactIdentityError(
                    f"inverse identity fails at place {loc.place}, index {loc.alpha}"
                )


@dataclass(frozen=True)
class LocalInequality:
    lhs: int
    rhs: int


def check_local_inequality(
    loc: LocalSelection, forms: NormalizedFamily, x: ProjPoint, inv: list[list[RatFunc]]
) -> LocalInequality:
    """Exact local counting bound at (p, alpha) = (loc.place, loc.alpha).

    sum over all rows of (e_p(x) - ord_p L_j(x)) is at least the same sum over
    the selected rows plus (q - M - 1) times the minimum order of the entries
    of inv, the inverse of the selected matrix (`invert_forms`). The inverse
    is re-verified here by `check_inverse` before its orders are used, so one
    inverse may serve every index with the same selected matrix. Always
    holds, since loc.J is the order ranking at alpha; raises
    ExactIdentityError if it does not.
    """
    p = loc.place
    e = e_point(x, p)
    lhs = sum(e - o for o in loc.ords)
    check_inverse(loc, forms, inv)
    min_inv = min(ord_at(v, p) for row in inv for v in row if not v.is_zero())
    rhs = sum(e - loc.ords[j] for j in loc.J) + (forms.q - forms.m - 1) * min_inv
    if lhs < rhs:
        raise ExactIdentityError(
            f"local counting inequality fails at place {p}, index {loc.alpha}"
        )
    return LocalInequality(lhs=lhs, rhs=rhs)


def product_point(b: Seq[Sequence], x: ProjPoint, alpha: int) -> ProjPoint:
    """[b_1 x_0 : ... : b_ls1 x_0 : b_1 x_1 : ... : b_ls1 x_M] at alpha."""
    bvals = [seq.eval(alpha) for seq in b]
    return ProjPoint(tuple(bv * xv for xv in x.coords for bv in bvals))


def build_transfer(
    sel: PlaceSelection,
    b: Seq[Sequence],
    ls: int,
    table: dict[int, IndexValues],
    xs: PointSequence,
    window: Seq[int],
) -> TransferMatrix:
    """Solve exactly for constant rows expressing b_j * h_{J[l]} in the
    products b_mu * x_nu, where h_k = L_k(x) is the value of normalized row k,
    read from the run's value table.

    `window` holds the usable indices: every point evaluates and no row has a
    normalisation exception there. The stable system is solved once with all
    (M+1) * l(s) right-hand sides, column l * ls + j for row (l, j); the solve
    row-reduces a subset of the stable rows that spans the others.
    `check_transfer` re-verifies the identities at each stable index.
    Requires the products to be independent over Q(t) on the window with
    constant coefficients (the operational nondegeneracy hypothesis).
    """
    ls1 = len(b)
    m = xs.m
    n_cols = (m + 1) * ls1

    value_rows = {alpha: product_point(b, xs.eval_point(alpha), alpha).coords for alpha in window}

    # Independence of the product sequences over the rational base field; the
    # stronger per-place row independence is re-verified in derive_and_pad.
    vectors = linalg.rational_vectors([value_rows[a] for a in window])
    greedy = linalg.GreedyBasis()
    for vec in vectors:
        greedy.offer(vec)
    if greedy.rank < n_cols:
        raise ValueError(
            "the products b_mu * x_nu are dependent over the base field on the "
            "window (nondegeneracy failure)"
        )

    targets = []
    for alpha in sel.stable_subset:
        h = [table[alpha].values[k] for k in sel.J]
        targets.append([b[j].eval(alpha) * h[l] for l in range(m + 1) for j in range(ls)])
    try:
        coeffs = linalg.solve([value_rows[a] for a in sel.stable_subset], targets)
    except linalg.InconsistentSystem as exc:
        raise ValueError(
            "transfer system inconsistent on the stable subset; enlarge the window"
        ) from exc
    rows = tuple(tuple(row[c] for row in coeffs) for c in range((m + 1) * ls))
    return TransferMatrix(sel=sel, rows=rows, ls=ls, ls1=ls1, m=m)


@dataclass(frozen=True)
class TransferSite:
    """What the transfer identities read at one (place, index), computed once
    for all rows (l, j): the product point P and e_p(P), the basis values and
    their orders at p (None where a value vanishes), and per selected row l
    the value h_l = L_{J[l]}(x), e_p(L_{J[l]}) and the Weil value of x at it."""

    place: PrimeDivisor
    alpha: int
    P: ProjPoint
    e_P: int
    b_values: tuple[RatFunc, ...]
    b_ords: tuple[Optional[int], ...]
    base_values: tuple[RatFunc, ...]
    base_e: tuple[int, ...]
    base_lams: tuple[int, ...]


def transfer_site(
    p: PrimeDivisor,
    iv: IndexValues,
    sel: PlaceSelection,
    b: Seq[Sequence],
    forms: NormalizedFamily,
) -> TransferSite:
    """The TransferSite of (p, iv.alpha) for the selection sel and the basis b."""
    alpha = iv.alpha
    e_x = e_point(iv.x, p)
    P = product_point(b, iv.x, alpha)
    b_values = tuple(seq.eval(alpha) for seq in b)
    b_ords = tuple(None if v.is_zero() else ord_at(v, p) for v in b_values)
    values = tuple(iv.values[k] for k in sel.J)
    base_e = tuple(e_form(forms.eval_form(k, alpha), p) for k in sel.J)
    lams = tuple(weil_at(v, e_x, e, p) for v, e in zip(values, base_e))
    return TransferSite(p, alpha, P, e_point(P, p), b_values, b_ords, values, base_e, lams)


def check_transfer(site: TransferSite, C: TransferMatrix) -> None:
    """Re-verify both transfer identities at one (place, index) for every row
    (l, j): C_{l,j}(P) = b_j * h_l exactly, then the Weil transfer."""
    for l in range(C.m + 1):
        for j in range(C.ls):
            derived = C.row_form(l, j)
            value = derived.apply(site.P)
            if value != site.b_values[j] * site.base_values[l]:
                raise ExactIdentityError(
                    f"transfer identity fails at place {site.place}, index {site.alpha}, "
                    f"row ({l}, {j})"
                )
            weil_transfer_check(site, l, j, derived, value)


def derive_and_pad(C: TransferMatrix) -> tuple[int, ...]:
    """Complete the derived forms to a full independent family by greedily
    appending coordinate forms in product-coordinate order; returns the
    coordinates used as padding.

    The pivot columns of the transposed family [rows; unit vectors] are its
    greedy first-independent choice. The rows are constant, so one
    independent rank check of [rows; padding] covers every stable index."""
    n = C.n_cols
    k = len(C.rows)
    one = RatFunc.constant(1)
    zero = RatFunc.constant(0)
    units = [[one if i == coord else zero for i in range(n)] for coord in range(n)]
    family = list(C.rows) + units
    _, pivots = linalg.rref([[vec[i] for vec in family] for i in range(n)])
    dependent = next((idx for idx in range(k) if idx not in pivots), None)
    if dependent is not None:
        raise ValueError(f"transfer row {dependent} is dependent over Q(t)")
    padding = tuple(pc - k for pc in pivots[k:])
    assert len(pivots) == n, "independent rows must extend to a full basis"
    if linalg.rank(list(C.rows) + [units[c] for c in padding]) != n:
        raise ExactIdentityError(f"derived family degenerates for place {C.sel.place}")
    return padding


@dataclass(frozen=True)
class HeightSplit:
    h_product: int
    h_point: int
    h_basis: int


def height_P_decomposition(
    b: Seq[Sequence], xs: PointSequence, alpha: int
) -> HeightSplit:
    """h(product point) = h(x) + h(basis point), exactly."""
    x = xs.eval_point(alpha)
    h_p = height_point(product_point(b, x, alpha))
    h_x = height_point(x)
    h_b = height_point(ProjPoint(tuple(seq.eval(alpha) for seq in b)))
    if h_p != h_x + h_b:
        raise ExactIdentityError(
            f"height decomposition fails at index {alpha}: {h_p} != {h_x} + {h_b}"
        )
    return HeightSplit(h_product=h_p, h_point=h_x, h_basis=h_b)


def weil_transfer_check(
    site: TransferSite, l: int, j: int, derived: LinearForm, value: RatFunc
) -> None:
    """The Weil function of the product point against the derived form of row
    (l, j) equals the base Weil function plus an explicit exact correction
    term. `value` is derived(P), computed once by the caller."""
    p = site.place
    if site.b_ords[j] is None:
        raise ValueError(f"basis element {j} vanishes at index {site.alpha}")
    e_derived = e_form(derived, p)
    lam_derived = weil_at(value, site.e_P, e_derived, p)
    lam_base = site.base_lams[l]
    b_min = min(o for o in site.b_ords if o is not None)
    delta = (site.base_e[l] + site.b_ords[j] - b_min - e_derived) * p.degree
    if lam_derived != lam_base + delta:
        raise ExactIdentityError(
            f"Weil transfer fails at place {p}, index {site.alpha}, row ({l}, {j}): "
            f"{lam_derived} != {lam_base} + {delta}"
        )
