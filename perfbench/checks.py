"""Checks of each operation's output against the oracle and against
properties that hold by construction. Runs in the parent process, after the
timed passes; `check_all` gives, per operation, None or a message naming
what is wrong.
"""
from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction

import oracle


class CheckError(Exception):
    pass


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def check_all(ops: list[dict], outputs: list[dict]) -> list[str | None]:
    """One entry per operation: None if its output passed every check."""
    by_name = {op["name"]: (op, out) for op, out in zip(ops, outputs)}
    problems = []
    for op, out in zip(ops, outputs):
        if "error" in out:
            problems.append(None)  # already counted as a failed operation
            continue
        try:
            _check(op, out, by_name)
            problems.append(None)
        except CheckError as exc:
            problems.append(f"{op['name']}: {exc}")
    return problems


def _check(op: dict, out: dict, by_name: dict) -> None:
    check = op["check"]
    if check.get("field"):
        _check_field(op, out)
    elif check.get("spaces"):
        _check_spaces(op, out)
    elif check.get("reduce"):
        _check_reduce(op, out)
    else:
        _check_run(op, out, by_name)


# --- shared --------------------------------------------------------------


class Instance:
    """The config's point and forms at each index, evaluated by the oracle."""

    def __init__(self, config: dict):
        self.config = config
        self.m = config["M"]
        self.places = [oracle.place(s) for s in config["S"]]
        lo, hi = config["window"]
        self.window = list(range(lo, hi + 1))
        self._points: dict = {}
        self._forms: dict = {}

    def point(self, alpha: int):
        if alpha not in self._points:
            self._points[alpha] = [oracle.value(s, alpha) for s in self.config["points"]]
        return self._points[alpha]

    def forms(self, alpha: int):
        if alpha not in self._forms:
            self._forms[alpha] = [
                [oracle.value(s, alpha) for s in row] for row in self.config["hyperplanes"]
            ]
        return self._forms[alpha]

    def proximity(self, alpha: int, j: int) -> int:
        x, form = self.point(alpha), self.forms(alpha)[j]
        return sum(oracle.weil(x, form, p) for p in self.places)


def _rows(op: dict, out: dict) -> dict:
    """alpha -> {'h_x', 'lhs', 'lam', 'excluded', 'ratio'} from a JSON or CSV report."""
    text = out["stdout"]
    if "csv" not in op["argv"]:
        return {r["alpha"]: r for r in json.loads(text)["rows"]}
    rows = {}
    for rec in csv.DictReader(io.StringIO(text)):
        lams = [rec[k] for k in rec if k.startswith("lam_")]
        rows[int(rec["alpha"])] = {
            "h_x": int(rec["h_x"]) if rec["h_x"] else None,
            "lhs": int(rec["lhs"]) if rec["lhs"] else None,
            "lam": [int(v) if v else None for v in lams],
            "excluded": rec["excluded"] == "1",
            "ratio": rec["ratio"] or None,
        }
    return rows


# --- verify-wide ---------------------------------------------------------


def _check_run(op: dict, out: dict, by_name: dict) -> None:
    check = op["check"]
    inst = Instance(op["config"])
    rows = _rows(op, out)
    _expect(sorted(rows) == inst.window, "report rows do not cover the window")
    m = inst.m
    for alpha, row in rows.items():
        if row["excluded"]:
            continue
        expected = m * alpha if check["height"] == "ma" else 2 * alpha
        _expect(row["h_x"] == expected, f"h_x = {row['h_x']} at {alpha}, expected {expected}")
    if check.get("sharp"):
        report = json.loads(out["stdout"])
        _expect(report["fitted_constant"] == "0", "fitted constant is not 0")
        for alpha, row in rows.items():
            _expect(not row["excluded"], f"index {alpha} excluded")
            _expect(Fraction(row["ratio"]) == m + 1, f"ratio {row['ratio']} at {alpha}")
    for alpha in check["lam_at"]:
        row = rows[alpha]
        _expect(not row["excluded"], f"sampled index {alpha} excluded")
        for j, lam in enumerate(row["lam"]):
            want = inst.proximity(alpha, j)
            _expect(lam == want, f"lam_{j + 1} = {lam} at {alpha}, oracle {want}")
    if "bounded_by" in check:
        other_op, other_out = by_name[check["bounded_by"]]
        _expect("error" not in other_out, "the paired verify run failed")
        other = _rows(other_op, other_out)
        for alpha, row in rows.items():
            if row["excluded"]:
                continue
            _expect(row["lhs"] <= other[alpha]["lhs"],
                    f"wang lhs {row['lhs']} exceeds verify lhs at {alpha}")


# --- reduce-batch --------------------------------------------------------


def _usable(inst: Instance) -> tuple[list[int], list[int]]:
    """Window indices run_reduction keeps, and each row's pivot column.

    An index is kept when general position holds there and no row's pivot
    vanishes; a row's pivot is its first coefficient that is nonzero on all
    but a tenth of the window."""
    window = inst.window
    max_exceptions = max(1, len(window) // 10)
    q = len(inst.config["hyperplanes"])
    excluded = {a for a in window if not oracle.general_position(inst.forms(a))}
    pivots = []
    for j in range(q):
        for l in range(inst.m + 1):
            zeros = {a for a in window if not inst.forms(a)[j][l]}
            if len(zeros) <= max_exceptions:
                pivots.append(l)
                excluded |= zeros
                break
        else:
            raise CheckError(f"row {j} has no pivot on the window")
    return [a for a in window if a not in excluded], pivots


def _normalized_xis(inst: Instance, usable: list[int], pivots: list[int]):
    """Row entries divided by the row's pivot, with zero and repeated
    sequences dropped, as values on the usable indices."""
    seen, gens = set(), []
    for j, row in enumerate(inst.config["hyperplanes"]):
        for l in range(len(row)):
            values = tuple(inst.forms(a)[j][l] / inst.forms(a)[j][pivots[j]] for a in usable)
            if not any(values) or values in seen:
                continue
            seen.add(values)
            gens.append(list(values))
    return gens


def _check_reduce(op: dict, out: dict) -> None:
    report = json.loads(out["stdout"])
    extra = report["extra"]
    inst = Instance(op["config"])
    usable, pivots = _usable(inst)
    clear = [
        a for a in usable
        if all(
            sum((c * x for c, x in zip(form, inst.point(a))), oracle.K.zero)
            for form in inst.forms(a)
        )
    ]
    want = len(inst.places) * len(clear)
    _expect(extra["local_inequality_checks"] == want,
            f"local_inequality_checks = {extra['local_inequality_checks']}, oracle {want}")
    s = extra["s"]
    if "s_at_least" in op["check"]:
        _expect(s >= op["check"]["s_at_least"], f"s = {s}")
    values = oracle.MonomialValues(_normalized_xis(inst, usable, pivots))
    for key, degree in (("l_s", s), ("l_s1", s + 1)):
        want = values.dim(degree)
        _expect(extra[key] == want, f"{key} = {extra[key]}, oracle {want}")
    for row in report["rows"]:
        if row["excluded"]:
            continue
        want = oracle.height(inst.point(row["alpha"]))
        _expect(row["h_x"] == want, f"h_x = {row['h_x']} at {row['alpha']}, oracle {want}")


# --- monomial-spaces -----------------------------------------------------


def _check_spaces(op: dict, out: dict) -> None:
    check, direct = op["check"], out["direct"]
    lo, hi = op["direct"]["window"]
    window = range(lo, hi + 1)
    gens = [[oracle.value(x, a) for a in window] for x in op["direct"]["xis"]]
    values = oracle.MonomialValues(gens)
    s = int(out["stdout"].strip())
    dims = [values.dim(d) for d in range(s + 2)]
    _expect(oracle.choose_s(dims, Fraction(check["delta"])) == s,
            f"choose_s = {s}, oracle dims {dims}")
    _expect(direct["l_s"] == dims[s], f"l(s) = {direct['l_s']}, oracle {dims[s]}")
    _expect(direct["l_s1"] == dims[s + 1], f"l(s+1) = {direct['l_s1']}, oracle {dims[s + 1]}")
    if check.get("l_is_s_plus_1"):
        _expect(dims[s] == s + 1, f"l({s}) = {dims[s]}, expected {s + 1}")
    basis = direct["basis_s"]
    _expect(len(basis) == dims[s] and values.rank(basis) == dims[s],
            "the degree-s basis is not independent of full size")
    extended = direct["extended"]
    _expect(all(sum(e) == s + 1 for e in extended), "extend_basis left degree s+1")
    _expect(len(extended) == dims[s + 1] and values.rank(extended) == dims[s + 1],
            "the extended basis is not independent of full size")


# --- field-kernels -------------------------------------------------------

_TERM = re.compile(r"(-?\d+)\*\(([^()]*)\)")


def _check_field(op: dict, out: dict) -> None:
    f = oracle.value(op["argv"][1])
    text = out["stdout"].strip()
    printed = {}
    degree_sum = 0
    for mult, place_text in _TERM.findall(text):
        p = oracle.place(place_text)
        printed[oracle.place_key(place_text)] = int(mult)
        degree_sum += int(mult) * oracle.place_degree(p)
    _expect(degree_sum == 0, f"sum formula gives {degree_sum}")
    _expect(printed == oracle.divisor(f), "divisor differs from sympy's factor_list")

    direct = op["direct"]
    xs = [oracle.value(s) for s in direct["x"]]
    form = [oracle.value(s) for s in direct["form"]]
    got = out["direct"]
    want_num, want_den = oracle.reduced_coeffs(xs[0] * xs[1] + xs[0] - xs[1])
    got_num, got_den = ([Fraction(c) for c in cs] for cs in got["arith"])
    _expect((got_num, got_den) == (want_num, want_den), "x*y + x - y differs from cancel")
    h_x, h_form = oracle.height(xs), oracle.height(form)
    _expect(got["h_x"] == h_x, f"h(x) = {got['h_x']}, oracle {h_x}")
    _expect(got["h_form"] == h_form, f"h(L) = {got['h_form']}, oracle {h_form}")
    _expect(got["weil_total"] == h_x + h_form,
            f"weil_total = {got['weil_total']}, oracle h(x) + h(L) = {h_x + h_form}")
