"""Command-line interface.

Exit codes for experiment runs: 0 = PASS, 2 = FAIL, 3 = probe refusal,
1 = usage or configuration error, 4 = an exact identity of the checker
itself failed (a bug, not a verdict).
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .harness import ConfigError, ProbeRefusal, check_window_length, generate, load_experiment, run
from .heights import LinearForm, ProjPoint, height_point, weil
from .moving import Sequence, window_range
from .parser import EvalError, ParseError, parse_ratfunc
from .places import divisor_of, ord_at, parse_prime
from .ratfunc import RatFunc
from .reduction import ExactIdentityError
from .steinmetz import choose_s, dim_L


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise ConfigError(f"window: expected A..B, got {text!r}") from exc
    if hi < lo:
        raise ConfigError(f"window: empty range {text!r}")
    check_window_length(lo, hi)
    return lo, hi


def _parse_values(text: str) -> list[RatFunc]:
    return [parse_ratfunc(part.strip()) for part in text.split(",")]


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ffdio",
        description="Exact-arithmetic Diophantine approximation over Q(t).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ord", help="order of a rational function at a place")
    p.add_argument("ratfunc")
    p.add_argument("prime", help="monic irreducible polynomial or 'inf'")

    p = sub.add_parser("divisor", help="divisor of a rational function")
    p.add_argument("ratfunc")

    p = sub.add_parser("height", help="height of a point or form (comma-separated entries)")
    p.add_argument("values")

    p = sub.add_parser("weil", help="local Weil function at a place")
    p.add_argument("point", help="comma-separated coordinates")
    p.add_argument("form", help="comma-separated coefficients")
    p.add_argument("prime")

    p = sub.add_parser("lspace", help="dimension and basis of a monomial space")
    p.add_argument("--xis", required=True, help="semicolon-separated index expressions")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--window", required=True, help="A..B")

    p = sub.add_parser("choose-s", help="smallest s with l(s+1) <= (1+delta) l(s)")
    p.add_argument("--xis", required=True, help="semicolon-separated index expressions")
    p.add_argument("--delta", required=True, help="rational p/q")
    p.add_argument("--window", required=True, help="A..B")
    p.add_argument("--s-max", type=int, default=12)

    for name, help_text in (
        ("verify", "moving-target proximity bound on a window"),
        ("wang", "fixed-target bound with max over independent subsets"),
        ("reduce", "full moving-to-fixed reduction pipeline"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="experiment config JSON file")
        _add_run_flags(p)

    p = sub.add_parser("generate", help="emit a bundled profile config as JSON")
    p.add_argument("profile", choices=["fixed-fermat", "slow-coeff", "random-gp"])
    p.add_argument("--m", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--window", help="A..B")
    p.add_argument("--epsilon", help="rational p/q")
    return ap


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window", help="override config window, A..B")
    p.add_argument("--epsilon", help="override epsilon, rational p/q")
    p.add_argument("--delta", help="override delta, rational p/q")
    p.add_argument("--format", choices=["csv", "json"], default="json")
    p.add_argument("--infinite-subset", help="pass if this fraction of the window satisfies the bound")
    p.add_argument("-o", "--output", help="write the report to a file instead of stdout")


def _overrides(args) -> dict:
    """The run flags as config entries, validated together with the file."""
    raw = {}
    if args.window is not None:
        raw["window"] = list(_parse_window(args.window))
    for key in ("epsilon", "delta", "infinite_subset"):
        if getattr(args, key) is not None:
            raw[key] = getattr(args, key)
    return raw


def _run_experiment(args, mode: str) -> int:
    cfg = load_experiment(args.config, mode, _overrides(args))
    try:
        report = run(mode, cfg)
    except ProbeRefusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        print(json.dumps({"refused": str(exc), "probes": exc.probes}, indent=2), file=sys.stderr)
        return 3
    text = report.to_csv() if args.format == "csv" else report.to_json()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return report.exit_code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "ord":
            value = parse_ratfunc(args.ratfunc)
            print(ord_at(value, parse_prime(args.prime)))
            return 0
        if args.command == "divisor":
            print(divisor_of(parse_ratfunc(args.ratfunc)))
            return 0
        if args.command == "height":
            print(height_point(ProjPoint(tuple(_parse_values(args.values)))))
            return 0
        if args.command == "weil":
            x = ProjPoint(tuple(_parse_values(args.point)))
            form = LinearForm(tuple(_parse_values(args.form)))
            print(weil(x, form, parse_prime(args.prime)))
            return 0
        if args.command == "lspace":
            window = window_range(*_parse_window(args.window))
            xis = [Sequence.from_text(s.strip()) for s in args.xis.split(";")]
            space = dim_L(xis, args.s, window)
            print(f"l({args.s}) = {space.dim}")
            for i in space.basis:
                print(" ".join(str(e) for e in space.generators[i]))
            return 0
        if args.command == "choose-s":
            window = window_range(*_parse_window(args.window))
            xis = [Sequence.from_text(s.strip()) for s in args.xis.split(";")]
            print(choose_s(xis, Fraction(args.delta), window, args.s_max)[0].s)
            return 0
        if args.command in ("verify", "wang", "reduce"):
            return _run_experiment(args, args.command)
        if args.command == "generate":
            params = {}
            if args.m is not None:
                params["m"] = args.m
            if args.q is not None:
                params["q"] = args.q
            if args.seed is not None:
                params["seed"] = args.seed
            if args.window:
                params["window"] = _parse_window(args.window)
            if args.epsilon:
                params["epsilon"] = args.epsilon
            cfg = generate(args.profile, **params)
            print(json.dumps(cfg.to_dict(), indent=2))
            return 0
    except (ConfigError, EvalError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ExactIdentityError as exc:
        print(f"identity violated: {exc}", file=sys.stderr)
        return 4
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
