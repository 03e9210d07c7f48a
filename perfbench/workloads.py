"""Seeded workload definitions for the benchmark.

This module imports neither ffdio nor sympy: the worker process uses it to
build the inputs it hands to the program, and the parent process uses it to
know what the program was asked, so that the oracle can recompute every
answer on its own.

An operation is a dict:

- ``name``: a label, unique within the workload;
- ``argv``: the arguments of exactly one ``ffdio.cli.main`` call, where the
  string ``CONFIG`` stands for the path of the operation's config file;
- ``config``: the experiment config written before timing, or ``None``;
- ``mode``: the run mode the config is validated for, or ``None``;
- ``direct``: public-function calls the CLI does not reach, or ``None``;
- ``check``: what the parent checks in the output.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

WORKLOADS = ("verify-wide", "reduce-batch", "monomial-spaces", "field-kernels")

CONFIG = "CONFIG"

# Every config uses the bundled profiles' defaults for these fields.
EPSILON = "1/2"


def build(workload: str, seed: int) -> list[dict]:
    """The operations of one pass of `workload`; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-wide":
        return _verify_wide(rng)
    if workload == "reduce-batch":
        return _reduce_batch(rng)
    if workload == "monomial-spaces":
        return _monomial_spaces(rng)
    if workload == "field-kernels":
        return _field_kernels(rng)
    raise ValueError(f"unknown workload {workload!r}")


# --- configs -------------------------------------------------------------


def _det(rows: list[list[int]]) -> Fraction:
    m = [[Fraction(c) for c in row] for row in rows]
    n = len(m)
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            result = -result
        result *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return result


def _gp_rows(rng: random.Random, m: int, q: int) -> list[list[int]]:
    """q constant rows in general position with entries in +-{1, 2, 3}.

    Zero entries are left out: they move the pivot of a normalised row and
    change the cost of a reduction by up to a factor of two from one seed to
    the next, which would show as run-to-run spread.
    """
    while True:
        rows = [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(m + 1)] for _ in range(q)]
        if all(_det([rows[j] for j in sub]) != 0 for sub in combinations(range(q), m + 1)):
            return rows


def _powers_point(m: int) -> list[str]:
    return [f"t^({i}*a)" if i else "1" for i in range(m + 1)]


def _config(m, q, places, points, rows, window, profile, **extra) -> dict:
    cfg = {
        "M": m,
        "q": q,
        "S": list(places),
        "points": list(points),
        "hyperplanes": [[str(c) for c in row] for row in rows],
        "window": list(window),
        "epsilon": EPSILON,
        "profile": profile,
    }
    cfg.update(extra)
    return cfg


def fixed_fermat(m: int, window) -> dict:
    rows = [["1" if l == i else "0" for l in range(m + 1)] for i in range(m + 1)]
    rows.append(["1"] + ["-1"] * m)
    return _config(m, m + 2, ["t", "inf"], _powers_point(m), rows, window, "fixed-fermat")


def slow_coeff(window) -> dict:
    rows = [
        ["1", "0", "0"],
        ["0", "1", "0"],
        ["0", "0", "1"],
        ["1", "1", "1"],
        ["1", "t^ilog2(a)", "2"],
    ]
    return _config(2, 5, ["t", "inf"], _powers_point(2), rows, window, "slow-coeff")


def random_gp(rng, m: int, q: int, places, window) -> dict:
    return _config(m, q, places, _powers_point(m), _gp_rows(rng, m, q), window, "random-gp")


def ilog_family(c1: int, c2: int, places, window, **extra) -> dict:
    """The moving family with the coefficient c1*t^ilog2(a) of acceptance 5."""
    rows = [["1", "0"], ["0", "1"], ["1", f"{c1}*t^ilog2(a)"], ["1", f"-{c2}"]]
    return _config(1, 4, places, ["1", "t^a"], rows, window, "ilog2", **extra)


# --- workloads -----------------------------------------------------------


def _run_op(name, mode, config, check, fmt="json") -> dict:
    argv = [mode, CONFIG]
    if fmt != "json":
        argv += ["--format", fmt]
    return {
        "name": name,
        "argv": argv,
        "config": config,
        "mode": mode,
        "direct": None,
        "check": check,
    }


def _sample(rng, window, k: int) -> list[int]:
    lo, hi = window
    return sorted(rng.sample(range(lo, hi + 1), k))


def _verify_wide(rng) -> list[dict]:
    """Long windows whose coordinates reach high degree.

    Fixed-target (``wang``) runs are written as CSV so the report writer's
    CSV path is measured too; each pairs with the ``verify`` run of the same
    config, whose proximity sum bounds it row by row.
    """
    ops = []
    slow = slow_coeff((8, 64))
    ops.append(_run_op("verify:slow-coeff", "verify", slow,
                       {"height": "2a", "lam_at": _sample(rng, slow["window"], 2)}))
    for m, window in ((1, (1, 100)), (2, (1, 50))):
        cfg = fixed_fermat(m, window)
        tag = f"fixed-fermat-m{m}"
        ops.append(_run_op(f"verify:{tag}", "verify", cfg,
                           {"height": "ma", "sharp": True, "lam_at": _sample(rng, window, 2)}))
        if m == 1:
            ops.append(_run_op(f"wang:{tag}", "wang", cfg,
                               {"height": "ma", "bounded_by": f"verify:{tag}",
                                "lam_at": _sample(rng, window, 2)}, fmt="csv"))
    gp = random_gp(rng, 2, 5, ["t", "inf"], (1, 30))
    ops.append(_run_op("verify:random-gp", "verify", gp,
                       {"height": "ma", "lam_at": _sample(rng, gp["window"], 2)}))
    ops.append(_run_op("wang:random-gp", "wang", gp,
                       {"height": "ma", "bounded_by": "verify:random-gp",
                        "lam_at": _sample(rng, gp["window"], 2)}, fmt="csv"))
    return ops


def _reduce_batch(rng) -> list[dict]:
    """A seeded subset of the acceptance-5 mix, plus one instance with delta < 1.

    Each slot keeps its M, q and place set from seed to seed; the seed draws
    the hyperplane coefficients. The delta = 1/2 instance uses a shorter
    window than acceptance 5 and a smallness threshold of 1/4 so that it
    passes the smallness probe on that window; it gives s = 1.
    """
    check = {"reduce": True}
    ops = [
        _run_op("reduce:random-gp-m1q3", "reduce",
                random_gp(rng, 1, 3, ["t", "inf"], (1, 32)), check),
        _run_op("reduce:random-gp-m1q4", "reduce",
                random_gp(rng, 1, 4, ["t^2 + 1", "inf"], (1, 32)), check),
        _run_op("reduce:random-gp-m2q4", "reduce",
                random_gp(rng, 2, 4, ["t", "inf"], (1, 24)), check),
        _run_op("reduce:slow-coeff", "reduce", slow_coeff((8, 24)), check),
        _run_op("reduce:ilog2-delta", "reduce",
                ilog_family(rng.randint(1, 3), rng.randint(1, 3), ["t", "inf"], (8, 31),
                            delta="1/2", thresholds={"smallness_delta": "1/4"}),
                dict(check, s_at_least=1)),
    ]
    return ops


def _spaces_op(name, xis, delta, window, **check) -> dict:
    lo, hi = window
    text = "; ".join(xis)
    return {
        "name": name,
        "argv": ["choose-s", "--xis", text, "--delta", delta, "--window", f"{lo}..{hi}"],
        "config": None,
        "mode": None,
        "direct": {"kind": "spaces", "xis": list(xis), "window": [lo, hi]},
        "check": dict(check, delta=delta, spaces=True),
    }


def _monomial_spaces(rng) -> list[dict]:
    """Coefficient families whose l(s) keeps growing.

    The seed draws the constants of each family; the shape of every family,
    and hence s and l(s), is the same for every seed.
    """
    c = rng.randint(2, 9)
    d = rng.randint(1, 5)
    e = rng.randint(1, 5)
    return [
        _spaces_op("spaces:power", ["1", f"{c}*t^a"], "1/8", (1, 30), l_is_s_plus_1=True),
        _spaces_op("spaces:ilog2-linear", ["1", "t^ilog2(a)", f"t+{d}"], "1/2", (8, 40)),
        _spaces_op("spaces:ilog2-moebius", ["1", "t^ilog2(a)", f"(t+{d})/(t-{e})"], "1/2",
                   (8, 40)),
    ]


def _poly_text(coeffs: list[int]) -> str:
    """coeffs[i] is the coefficient of t^i; the result parses in ffdio and sympy."""
    terms = [f"{c}*t^{i}" if i else str(c) for i, c in enumerate(coeffs) if c]
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def _dense_poly(rng, degree: int) -> list[int]:
    coeffs = [rng.randint(-9, 9) for _ in range(degree)]
    coeffs.append(rng.choice((-9, -5, -2, -1, 1, 2, 5, 9)))
    if coeffs[0] == 0:
        coeffs[0] = 1  # keep t out of every factorisation's content
    return coeffs


def _ratfunc_text(rng, num_degree: int, den_degree: int) -> str:
    num = _poly_text(_dense_poly(rng, num_degree))
    den = _poly_text(_dense_poly(rng, den_degree))
    return f"({num})/({den})"


FIELD_SAMPLES = 32


def _field_kernels(rng) -> list[dict]:
    """Dense random elements of fixed degrees, fresh coefficients per seed.

    Each operation factors one rational function of degree 20 through
    ``ffdio divisor``, then calls the public arithmetic, height and Weil
    functions on a random point and form in P^2.
    """
    ops = []
    for k in range(FIELD_SAMPLES):
        f = _ratfunc_text(rng, 20 - k % 4, 20 - (k + 2) % 4)
        x = [_ratfunc_text(rng, 4, 3) for _ in range(3)]
        form = [_ratfunc_text(rng, 3, 2) for _ in range(3)]
        ops.append({
            "name": f"field:{k}",
            "argv": ["divisor", f],
            "config": None,
            "mode": None,
            "direct": {"kind": "field", "x": x, "form": form},
            "check": {"field": True},
        })
    return ops
