"""Experiment configuration, instance generators, end-to-end verification runs
and CSV/JSON report emission.

A run is deterministic: identical configs (including seeds) produce
byte-identical reports. Verdicts are PASS/FAIL on the window tail; the fitted
additive constant is estimated from the window head and never asserted to be
anything but an empirical fit.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable, Optional

from . import linalg
from .heights import LinearForm, e_form, e_point, height_point, weil_at
from .moving import (
    MovingHyperplaneFamily,
    PointSequence,
    Sequence,
    WindowVerdict,
    evaluate_forms,
    general_position_check,
    nondegeneracy_probe,
    normalize_xi,
    smallness_report,
    window_range,
)
from .parser import EvalError, ParseError, parse_expression
from .places import PrimeDivisor, parse_prime
from .reduction import (
    PlaceSelection,
    build_transfer,
    check_local_inequality,
    check_transfer,
    derive_and_pad,
    height_P_decomposition,
    index_values,
    stabilize_J,
    transfer_site,
)
from .steinmetz import choose_s, extend_basis, monomial_sequence

MAX_Q = 12
MAX_M = 4
# The values, report rows and monomial spaces of a run are kept for every
# index of its window, so the window length bounds their memory.
MAX_WINDOW = 10_000


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field path."""


class ProbeRefusal(RuntimeError):
    """A hypothesis probe failed; the run is refused rather than reported."""

    def __init__(self, message: str, probes: dict):
        super().__init__(message)
        self.probes = probes


def _parse_fraction(text, path: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{path}: not a rational number: {text!r}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    m: int
    q: int
    s_places: tuple[str, ...]
    points: tuple[str, ...]  # M+1 index expressions
    hyperplanes: tuple[tuple[str, ...], ...]  # q rows of M+1 index expressions
    window: tuple[int, int]
    epsilon: Fraction
    delta: Fraction
    s_max: int
    tail_fraction: Fraction
    smallness_delta: Fraction
    infinite_subset: Optional[Fraction] = None
    seed: Optional[int] = None
    profile: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "M": self.m,
            "q": self.q,
            "S": list(self.s_places),
            "points": list(self.points),
            "hyperplanes": [list(row) for row in self.hyperplanes],
            "window": list(self.window),
            "epsilon": str(self.epsilon),
            "delta": str(self.delta),
            "s_max": self.s_max,
            "thresholds": {
                "tail_fraction": str(self.tail_fraction),
                "smallness_delta": str(self.smallness_delta),
            },
            "infinite_subset": None if self.infinite_subset is None else str(self.infinite_subset),
            "seed": self.seed,
            "profile": self.profile,
        }

    def window_indices(self) -> tuple[int, ...]:
        return window_range(*self.window)

    def places(self) -> list[PrimeDivisor]:
        return [parse_prime(s) for s in self.s_places]

    def point_sequence(self) -> PointSequence:
        return PointSequence.from_texts(self.points, alpha_min=self.window[0])

    def hyperplane_family(self) -> MovingHyperplaneFamily:
        return MovingHyperplaneFamily.from_texts(self.hyperplanes, alpha_min=self.window[0])


def _is_int(v) -> bool:
    """A JSON integer: `true` and `false` are not, though Python's bool is an int."""
    return isinstance(v, int) and not isinstance(v, bool)


def check_window_length(lo: int, hi: int) -> None:
    """Refuse a window [lo, hi] of more than MAX_WINDOW indices, before it is built."""
    if hi - lo + 1 > MAX_WINDOW:
        raise ConfigError(f"window: {hi - lo + 1} indices, more than the cap of {MAX_WINDOW}")


def _check_shape(m, q) -> None:
    if not _is_int(m) or not (1 <= m <= MAX_M):
        raise ConfigError(f"M: must be an integer in [1, {MAX_M}]")
    if not _is_int(q) or not (m + 1 <= q <= MAX_Q):
        raise ConfigError(f"q: must be an integer in [M+1, {MAX_Q}]")


def parse_config(data: dict, mode: Optional[str] = None) -> ExperimentConfig:
    """Validate a raw config dict; error messages carry the offending field path."""
    if not isinstance(data, dict):
        raise ConfigError("config: expected a JSON object")

    def need(key):
        if key not in data:
            raise ConfigError(f"{key}: missing")
        return data[key]

    m = need("M")
    q = need("q")
    _check_shape(m, q)

    s_places = need("S")
    if not isinstance(s_places, list) or not s_places:
        raise ConfigError("S: must be a nonempty list of place strings")
    seen: list[PrimeDivisor] = []
    for i, s in enumerate(s_places):
        try:
            place = parse_prime(s)
        except (ValueError, ParseError) as exc:
            raise ConfigError(f"S[{i}]: {exc}") from exc
        if place in seen:
            raise ConfigError(f"S[{i}]: duplicate place {place}")
        seen.append(place)

    points = need("points")
    if not isinstance(points, list) or len(points) != m + 1:
        raise ConfigError(f"points: must be a list of M+1 = {m + 1} expressions")
    for i, s in enumerate(points):
        try:
            parse_expression(s, index=True)
        except ParseError as exc:
            raise ConfigError(f"points[{i}]: {exc}") from exc

    hyperplanes = need("hyperplanes")
    if not isinstance(hyperplanes, list) or len(hyperplanes) != q:
        raise ConfigError(f"hyperplanes: must be a list of q = {q} rows")
    for j, row in enumerate(hyperplanes):
        if not isinstance(row, list) or len(row) != m + 1:
            raise ConfigError(f"hyperplanes[{j}]: must be a list of M+1 = {m + 1} expressions")
        for l, s in enumerate(row):
            try:
                parse_expression(s, index=True)
            except ParseError as exc:
                raise ConfigError(f"hyperplanes[{j}][{l}]: {exc}") from exc

    window = need("window")
    if (
        not isinstance(window, list)
        or len(window) != 2
        or not all(_is_int(v) for v in window)
        or window[1] < window[0]
    ):
        raise ConfigError("window: must be [lo, hi] with lo <= hi")
    check_window_length(*window)

    epsilon = _parse_fraction(need("epsilon"), "epsilon")
    if epsilon <= 0:
        raise ConfigError("epsilon: must be positive")
    delta = _parse_fraction(data.get("delta", "1"), "delta")
    if delta <= 0:
        raise ConfigError("delta: must be positive")
    s_max = data.get("s_max", 12)
    if not _is_int(s_max) or s_max < 0:
        raise ConfigError("s_max: must be a nonnegative integer")

    thresholds = data.get("thresholds", {})
    tail_fraction = _parse_fraction(thresholds.get("tail_fraction", "1/4"), "thresholds.tail_fraction")
    if not (0 <= tail_fraction < 1):
        raise ConfigError("thresholds.tail_fraction: must be in [0, 1)")
    smallness_delta = _parse_fraction(
        thresholds.get("smallness_delta", "1/10"), "thresholds.smallness_delta"
    )
    if smallness_delta <= 0:
        raise ConfigError("thresholds.smallness_delta: must be positive")

    infinite_subset = data.get("infinite_subset")
    if infinite_subset is not None:
        infinite_subset = _parse_fraction(infinite_subset, "infinite_subset")
        if not (0 < infinite_subset <= 1):
            raise ConfigError("infinite_subset: must be in (0, 1]")

    cfg = ExperimentConfig(
        m=m,
        q=q,
        s_places=tuple(s_places),
        points=tuple(points),
        hyperplanes=tuple(tuple(row) for row in hyperplanes),
        window=(window[0], window[1]),
        epsilon=epsilon,
        delta=delta,
        s_max=s_max,
        tail_fraction=tail_fraction,
        smallness_delta=smallness_delta,
        infinite_subset=infinite_subset,
        seed=data.get("seed"),
        profile=data.get("profile"),
    )

    if mode in ("verify", "reduce") and q <= m + 1:
        raise ConfigError(f"q: moving-target {mode} runs need q > M+1, got q={q}, M={m}")

    # Spot-check general position on three window points.
    fam = cfg.hyperplane_family()
    lo, hi = cfg.window
    for alpha in {lo, (lo + hi) // 2, hi}:
        try:
            if not general_position_check(fam, alpha):
                raise ConfigError(f"hyperplanes: not in general position at index {alpha}")
        except EvalError as exc:
            raise ConfigError(f"hyperplanes: evaluation failed at index {alpha}: {exc}") from exc
    return cfg


def load_experiment(
    path, mode: Optional[str] = None, overrides: Optional[dict] = None
) -> ExperimentConfig:
    """Read a JSON config; `overrides` replace top-level entries before the
    whole config is validated, so they get the same checks as the file."""
    raw = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON: {exc}") from exc
    if overrides and isinstance(data, dict):
        data = {**data, **overrides}
    return parse_config(data, mode)


@dataclass(frozen=True)
class ReportRow:
    alpha: int
    h_x: Optional[int]
    lam: tuple[Optional[int], ...]
    lhs: Optional[int]
    rhs: Optional[Fraction]
    ratio: Optional[Fraction]
    excluded: bool
    note: str = ""


def _excluded(alpha: int, q: int, note: str, h_x: Optional[int] = None) -> ReportRow:
    return ReportRow(alpha, h_x, (None,) * q, None, None, None, True, note)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


@dataclass
class VerificationReport:
    mode: str
    config: ExperimentConfig
    rows: list[ReportRow]
    verdict: str  # "PASS" or "FAIL"
    verdict_no_constant: str
    fitted_constant: Fraction
    probes: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return 0 if self.verdict == "PASS" else 2

    def to_csv(self) -> str:
        q = self.config.q
        header = ["alpha", "h_x", "lhs", "rhs", "ratio", "excluded"]
        header += [f"lam_{j + 1}" for j in range(q)]
        lines = [",".join(header)]
        for row in self.rows:
            cells = [
                _fmt(row.alpha),
                _fmt(row.h_x),
                _fmt(row.lhs),
                _fmt(row.rhs),
                _fmt(row.ratio),
                _fmt(row.excluded),
            ]
            cells += [_fmt(v) for v in row.lam]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "mode": self.mode,
            "verdict": self.verdict,
            "verdict_no_constant": self.verdict_no_constant,
            "fitted_constant": str(self.fitted_constant),
            "probes": self.probes,
            "extra": self.extra,
            "config": self.config.to_dict(),
            "rows": [
                {
                    "alpha": row.alpha,
                    "h_x": row.h_x,
                    "lhs": row.lhs,
                    "rhs": None if row.rhs is None else str(row.rhs),
                    "ratio": None if row.ratio is None else str(row.ratio),
                    "excluded": row.excluded,
                    "lam": list(row.lam),
                    "note": row.note,
                }
                for row in self.rows
            ],
        }
        return json.dumps(payload, indent=2) + "\n"


def _probe_summary(verdict: WindowVerdict) -> dict:
    return {
        "holds": verdict.holds,
        "exceptions": list(verdict.exceptions),
        "statistic": None if verdict.statistic is None else str(verdict.statistic),
    }


def _run_probes(
    cfg: ExperimentConfig,
    fam,
    xs,
    strict_gp: bool,
    forms: dict[int, tuple[LinearForm, ...]],
) -> tuple[dict, list[int]]:
    """Run the hypothesis probes. Returns (summaries, gp-failing indices).

    `forms` holds the evaluated forms at each index where they evaluate;
    general position is not probed at the others. A probe's answer depends
    only on the evaluated family, so general position is checked once per
    distinct family, at its first index. With strict_gp, any
    general-position failure refuses the run; otherwise the failing indices
    are reported for per-index exclusion.
    """
    window = cfg.window_indices()
    in_gp: dict[tuple[LinearForm, ...], bool] = {}
    for alpha, family in forms.items():
        if family not in in_gp:
            in_gp[family] = general_position_check(fam, alpha)
    gp_bad = [alpha for alpha, family in forms.items() if not in_gp[family]]
    small = smallness_report(fam, xs, window, cfg.smallness_delta, forms)
    nondeg = nondegeneracy_probe(xs, window)
    probes = {
        "general_position": {"holds": not gp_bad, "failing_indices": gp_bad},
        "smallness": _probe_summary(small),
        "nondegeneracy": _probe_summary(nondeg),
    }
    problems = []
    if gp_bad and strict_gp:
        problems.append(f"general position fails at {gp_bad[:5]}")
    if not small.holds:
        problems.append(f"smallness probe fails (end statistic {small.statistic})")
    if not nondeg.holds:
        problems.append("nondegeneracy probe fails")
    if problems:
        raise ProbeRefusal("; ".join(problems), probes)
    return probes, gp_bad


def _apply_bound(
    rows: list[ReportRow], slope: Fraction, constant: Fraction, height: Callable
) -> list[ReportRow]:
    out = []
    for r in rows:
        if r.excluded:
            out.append(r)
            continue
        rhs = slope * height(r) + constant
        ratio = Fraction(r.lhs, r.h_x) if r.h_x else None
        out.append(
            ReportRow(r.alpha, r.h_x, r.lam, r.lhs, rhs, ratio, False, r.note)
        )
    return out


def _verdict(cfg: ExperimentConfig, rows: list[ReportRow]) -> str:
    included = [r for r in rows if not r.excluded]
    if not included:
        raise ProbeRefusal("all window indices are excluded", {})
    if cfg.infinite_subset is not None:
        good = sum(1 for r in included if r.lhs <= r.rhs)
        total = len(cfg.window_indices())
        return "PASS" if Fraction(good, total) >= cfg.infinite_subset else "FAIL"
    lo, hi = cfg.window
    tail = [r for r in included if r.alpha >= lo + cfg.tail_fraction * (hi - lo)]
    if not tail:
        return "FAIL"
    return "PASS" if all(r.lhs <= r.rhs for r in tail) else "FAIL"


def _conclude(
    mode: str,
    cfg: ExperimentConfig,
    rows: list[ReportRow],
    slope: Fraction,
    probes: dict,
    extra: dict,
    height: Callable[[ReportRow], int] = lambda r: r.h_x,
) -> VerificationReport:
    """The tail every run mode ends in.

    Fits the additive constant C = max(0, max of LHS - slope * height) on the
    head quarter of the included rows, bounds every included row by
    slope * height + C, and takes the verdict with C and with C = 0. The
    bound is taken in `height` of a row; its ratio is always LHS / h(x).
    """
    included = [r for r in rows if not r.excluded]
    constant = Fraction(0)
    for r in included[: max(1, len(included) // 4)]:
        constant = max(constant, r.lhs - slope * height(r))
    rows = _apply_bound(rows, slope, constant, height)
    verdict = _verdict(cfg, rows)
    no_c = _verdict(cfg, _apply_bound(rows, slope, Fraction(0), height))
    return VerificationReport(
        mode=mode,
        config=cfg,
        rows=rows,
        verdict=verdict,
        verdict_no_constant=no_c,
        fitted_constant=constant,
        probes=probes,
        extra=extra,
    )


def run_verify(cfg: ExperimentConfig) -> VerificationReport:
    """Check the moving-target proximity bound on the window."""
    if cfg.q <= cfg.m + 1:
        raise ConfigError(f"q: verify runs need q > M+1, got q={cfg.q}, M={cfg.m}")
    fam = cfg.hyperplane_family()
    xs = cfg.point_sequence()
    places = cfg.places()
    window = cfg.window_indices()
    forms, failed = evaluate_forms(fam, window)
    probes, _ = _run_probes(cfg, fam, xs, strict_gp=True, forms=forms)

    def per_alpha(alpha: int) -> ReportRow:
        try:
            x = xs.eval_point(alpha)
        except EvalError as exc:
            return _excluded(alpha, cfg.q, str(exc))
        if alpha in failed:
            return _excluded(alpha, cfg.q, failed[alpha])
        hx = height_point(x)
        e_x = {p: e_point(x, p) for p in places}
        lams = []
        for j, form in enumerate(forms[alpha]):
            value = form.apply(x)
            if value.is_zero():
                return _excluded(alpha, cfg.q, f"point on hyperplane {j}", hx)
            lams.append(sum(weil_at(value, e_x[p], e_form(form, p), p) for p in places))
        if hx == 0:
            return ReportRow(alpha, hx, tuple(lams), sum(lams), None, None, True, "h(x)=0")
        return ReportRow(alpha, hx, tuple(lams), sum(lams), None, None, False)

    rows = [per_alpha(alpha) for alpha in window]
    slope = cfg.m + 1 + cfg.epsilon
    return _conclude("verify", cfg, rows, slope, probes, {"slope": str(slope)})


def admissible_subsets(forms: list[LinearForm], m: int) -> list[tuple[int, ...]]:
    """All index subsets of size <= M+1 whose forms are independent over Q(t)."""
    out = []
    for size in range(1, m + 2):
        for subset in combinations(range(len(forms)), size):
            mat = [list(forms[j].coeffs) for j in subset]
            if linalg.rank(mat) == size:
                out.append(subset)
    return out


def run_wang_check(cfg: ExperimentConfig) -> VerificationReport:
    """Check the fixed-target bound with the max over independent subsets."""
    fam = cfg.hyperplane_family()
    xs = cfg.point_sequence()
    window = cfg.window_indices()
    evaluated, failed = evaluate_forms(fam, window)
    evaluable = list(evaluated)
    for j in range(cfg.q):
        for l in range(cfg.m + 1):
            if not fam.rows[j][l].is_constant_on(evaluable):
                raise ConfigError(
                    f"hyperplanes[{j}][{l}]: fixed-target checks need constant coefficients"
                )
    probes, _ = _run_probes(cfg, fam, xs, strict_gp=True, forms=evaluated)

    forms = list(evaluated[evaluable[0]])
    subsets = admissible_subsets(forms, cfg.m)
    places = cfg.places()

    def per_alpha(alpha: int) -> ReportRow:
        try:
            x = xs.eval_point(alpha)
        except EvalError as exc:
            return _excluded(alpha, cfg.q, str(exc))
        if alpha in failed:
            return _excluded(alpha, cfg.q, failed[alpha])
        hx = height_point(x)
        values = [form.apply(x) for form in forms]
        for j, value in enumerate(values):
            if value.is_zero():
                return _excluded(alpha, cfg.q, f"point on hyperplane {j}", hx)
        e_x = {p: e_point(x, p) for p in places}
        local = {
            (j, p): weil_at(values[j], e_x[p], e_form(forms[j], p), p)
            for j in range(cfg.q)
            for p in places
        }
        lhs = sum(
            max(sum(local[(j, p)] for j in subset) for subset in subsets) for p in places
        )
        lams = tuple(sum(local[(j, p)] for p in places) for j in range(cfg.q))
        if hx == 0:
            return ReportRow(alpha, hx, lams, lhs, None, None, True, "h(x)=0")
        return ReportRow(alpha, hx, lams, lhs, None, None, False)

    rows = [per_alpha(alpha) for alpha in window]
    slope = cfg.m + 1 + cfg.epsilon
    extra = {"slope": str(slope), "admissible_subsets": len(subsets)}
    return _conclude("wang", cfg, rows, slope, probes, extra)


def _dedup_sequences(seqs: list[Sequence], window) -> list[Sequence]:
    """Drop zero-valued and exactly duplicated sequences (by window values)."""
    seen = set()
    out = []
    for seq in seqs:
        values = tuple(seq.eval(alpha) for alpha in window)
        if not any(values) or values in seen:
            continue
        seen.add(values)
        out.append(seq)
    return out


def run_reduction(cfg: ExperimentConfig) -> VerificationReport:
    """Run the full moving-to-fixed pipeline and check every exact identity
    plus the assembled product-space inequality."""
    if cfg.q <= cfg.m + 1:
        raise ConfigError(f"q: reduce runs need q > M+1, got q={cfg.q}, M={cfg.m}")
    fam = cfg.hyperplane_family()
    xs = cfg.point_sequence()
    window = cfg.window_indices()
    evaluated, failed = evaluate_forms(fam, window)
    probes, gp_bad = _run_probes(cfg, fam, xs, strict_gp=False, forms=evaluated)

    evaluable = list(evaluated)
    forms = normalize_xi(fam, evaluable, max_exceptions=max(1, len(window) // 10))
    eval_errors = dict(failed)
    for alpha in window:
        try:
            xs.eval_point(alpha)
        except EvalError as exc:
            eval_errors[alpha] = str(exc)
    excluded = set(gp_bad) | set(forms.all_exceptions()) | set(eval_errors)
    usable = [alpha for alpha in window if alpha not in excluded]
    if not usable:
        raise ProbeRefusal("all window indices are excluded", probes)

    xis = _dedup_sequences([seq for row in forms.rows for seq in row], usable)
    space_s, space_s1 = choose_s(xis, cfg.delta, usable, cfg.s_max)
    b_vectors = extend_basis(space_s, space_s1)
    b = [monomial_sequence(xis, vec) for vec in b_vectors]
    ls, ls1 = space_s.dim, space_s1.dim

    places = cfg.places()
    table = index_values(forms, xs, usable)
    selections: dict[PrimeDivisor, PlaceSelection] = {}
    lam_sel: dict[int, int] = {}  # sum over places and l of lambda_p(x, L_{J[l]})
    local_checks = 0
    for p in places:
        sel = stabilize_J(p, table, cfg.m)
        C = build_transfer(sel, b, ls, forms, xs, usable)
        for alpha in sel.stable_subset:
            site = transfer_site(p, table[alpha], sel, b, forms)
            check_transfer(site, C)
            lam_sel[alpha] = lam_sel.get(alpha, 0) + sum(site.base_lams)
        derive_and_pad(C)
        for loc in sel.local:
            check_local_inequality(loc, forms, table[loc.alpha].x)
            local_checks += 1
        selections[p] = sel

    stable_common = set(usable).intersection(*(sel.stable_subset for sel in selections.values()))

    rows: list[ReportRow] = []
    h_product: dict[int, int] = {}  # the bound is taken in h(P) = h(x) + h(b)
    for alpha in window:
        if alpha not in stable_common:
            note = eval_errors.get(alpha, "outside the common stable subset")
            rows.append(_excluded(alpha, cfg.q, note))
            continue
        iv = table[alpha]
        e_x = {p: e_point(iv.x, p) for p in places}
        split = height_P_decomposition(b, xs, alpha)
        lams = tuple(
            sum(weil_at(value, e_x[p], e_form(forms.eval_form(j, alpha), p), p) for p in places)
            for j, value in enumerate(iv.values)
        )
        h_product[alpha] = split.h_product
        rows.append(ReportRow(alpha, split.h_point, lams, ls * lam_sel[alpha], None, None, False))

    slope = (cfg.m + 1) * ls1 + cfg.delta
    extra = {
        "s": space_s.s,
        "l_s": ls,
        "l_s1": ls1,
        "slope": str(slope),
        "selections": {str(p): list(selections[p].J) for p in places},
        "stable_indices": sorted(stable_common),
        "local_inequality_checks": local_checks,
    }
    return _conclude(
        "reduce", cfg, rows, slope, probes, extra, height=lambda r: h_product[r.alpha]
    )


def generate(profile: str, **params) -> ExperimentConfig:
    """Bundled instance generators whose hypotheses hold by construction."""
    if profile == "fixed-fermat":
        return _generate_fixed_fermat(**params)
    if profile == "slow-coeff":
        return _generate_slow_coeff(**params)
    if profile == "random-gp":
        return _generate_random_gp(**params)
    raise ConfigError(f"profile: unknown profile {profile!r}")


def _generate_fixed_fermat(m: int = 1, window=(1, 200), epsilon="1/2", seed=None) -> ExperimentConfig:
    rows = []
    for i in range(m + 1):
        rows.append(["1" if l == i else "0" for l in range(m + 1)])
    rows.append(["1"] + ["-1"] * m)
    points = [f"t^({i}*a)" if i else "1" for i in range(m + 1)]
    return parse_config(
        {
            "M": m,
            "q": m + 2,
            "S": ["t", "inf"],
            "points": points,
            "hyperplanes": rows,
            "window": list(window),
            "epsilon": str(epsilon),
            "profile": "fixed-fermat",
            "seed": seed,
        }
    )


def _generate_slow_coeff(m: int = 2, q: int = 5, window=(8, 256), epsilon="1/2", seed=None) -> ExperimentConfig:
    if m != 2 or q != 5:
        raise ConfigError("profile: slow-coeff is defined for M=2, q=5")
    rows = [
        ["1", "0", "0"],
        ["0", "1", "0"],
        ["0", "0", "1"],
        ["1", "1", "1"],
        ["1", "t^ilog2(a)", "2"],
    ]
    points = ["1", "t^a", "t^(2*a)"]
    return parse_config(
        {
            "M": 2,
            "q": 5,
            "S": ["t", "inf"],
            "points": points,
            "hyperplanes": rows,
            "window": list(window),
            "epsilon": str(epsilon),
            "profile": "slow-coeff",
            "seed": seed,
        }
    )


def _generate_random_gp(
    m: int = 1, q: Optional[int] = None, seed: int = 0, window=(1, 60), epsilon="1/2"
) -> ExperimentConfig:
    q = q if q is not None else m + 2
    _check_shape(m, q)  # before the draw, which never ends for M < 0
    rng = random.Random(seed)
    while True:
        rows = [
            [rng.randint(-3, 3) for _ in range(m + 1)] for _ in range(q)
        ]
        if all(any(row) for row in rows) and general_position_check(
            MovingHyperplaneFamily.from_texts([[str(c) for c in row] for row in rows]), 0
        ):
            break
    points = [f"t^({i}*a)" if i else "1" for i in range(m + 1)]
    return parse_config(
        {
            "M": m,
            "q": q,
            "S": ["t", "inf"],
            "points": points,
            "hyperplanes": [[str(c) for c in row] for row in rows],
            "window": list(window),
            "epsilon": str(epsilon),
            "profile": "random-gp",
            "seed": seed,
        }
    )


def run(mode: str, cfg: ExperimentConfig) -> VerificationReport:
    if mode == "verify":
        return run_verify(cfg)
    if mode == "wang":
        return run_wang_check(cfg)
    if mode == "reduce":
        return run_reduction(cfg)
    raise ValueError(f"unknown mode {mode!r}")
