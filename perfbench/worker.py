"""One workload process: set up, time whole passes, report as JSON.

Usage (normally started by run.py):
    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
        --out FILE [--setup-only]

Set-up is everything before the first timed operation: importing ffdio,
writing and validating the configs, and building the seeded inputs. With
--setup-only the process reports the moment set-up ended and exits. Otherwise
it runs whole passes over the workload's operations for as long as another
one is expected to end within --seconds (one traced pass with --trace 1),
and writes the outputs of the first pass for the parent to check.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _load_program(trace: bool):
    """Import ffdio, wrap it for tracing if asked, and return what the
    benchmark calls. Names are looked up after wrapping so that the
    benchmark's own calls go through the wrappers too."""
    # Importing the package loads every ffdio module, and sympy.
    from ffdio import cli, harness, heights, moving, parser, ratfunc, steinmetz

    factorize = ratfunc.factorize  # the cache object itself, before any wrapping
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    api = SimpleNamespace(
        main=cli.main,
        load_experiment=harness.load_experiment,
        parse_ratfunc=parser.parse_ratfunc,
        Sequence=moving.Sequence,
        window_range=moving.window_range,
        dim_L=steinmetz.dim_L,
        extend_basis=steinmetz.extend_basis,
        ProjPoint=heights.ProjPoint,
        LinearForm=heights.LinearForm,
        weil_total=heights.weil_total,
        height_point=heights.height_point,
        height_form=heights.height_form,
        factorize=factorize,
    )
    return api, tracer


def _setup(api, ops: list[dict], workdir: Path) -> list[dict]:
    """Write and validate the configs; return the ops with concrete argv."""
    workdir.mkdir(parents=True, exist_ok=True)
    ready = []
    for i, op in enumerate(ops):
        argv = list(op["argv"])
        if op["config"] is not None:
            path = workdir / f"{i}.json"
            path.write_text(json.dumps(op["config"], indent=2) + "\n", encoding="utf-8")
            api.load_experiment(path, op["mode"])
            argv = [str(path) if a == workloads.CONFIG else a for a in argv]
        ready.append(dict(op, argv=argv))
    return ready


def _coeffs(value) -> list[list[str]]:
    return [[str(c) for c in value.num.coeffs], [str(c) for c in value.den.coeffs]]


def _direct(api, direct: dict, stdout: str) -> dict:
    """Public-function calls on the operation's inputs that the CLI does not reach."""
    if direct["kind"] == "spaces":
        s = int(stdout.strip())
        xis = [api.Sequence.from_text(text) for text in direct["xis"]]
        window = api.window_range(*direct["window"])
        space_s = api.dim_L(xis, s, window)
        space_s1 = api.dim_L(xis, s + 1, window)
        extended = api.extend_basis(space_s, space_s1)
        return {
            "l_s": space_s.dim,
            "l_s1": space_s1.dim,
            "basis_s": [list(space_s.generators[i]) for i in space_s.basis],
            "extended": [list(g) for g in extended],
        }
    if direct["kind"] == "field":
        xs = [api.parse_ratfunc(text) for text in direct["x"]]
        form = [api.parse_ratfunc(text) for text in direct["form"]]
        arith = xs[0] * xs[1] + xs[0] - xs[1]
        point = api.ProjPoint(tuple(xs))
        linear = api.LinearForm(tuple(form))
        return {
            "arith": _coeffs(arith),
            "weil_total": api.weil_total(point, linear),
            "h_x": api.height_point(point),
            "h_form": api.height_form(linear),
        }
    raise ValueError(f"unknown direct call {direct['kind']!r}")


def _run_op(api, op: dict) -> dict:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = api.main(op["argv"])
            direct = None
            if op["direct"] is not None and rc == 0:
                direct = _direct(api, op["direct"], out.getvalue())
    except Exception as exc:  # an operation that raises counts as failed
        return {"error": f"{type(exc).__name__}: {exc}"}
    if rc != 0:
        return {"error": f"exit code {rc}: {err.getvalue().strip()[:300]}"}
    return {"stdout": out.getvalue(), "direct": direct}


def _pass(api, ops: list[dict]) -> tuple[float, list[float], list[dict], int]:
    """Run every operation once: (wall time, op times, outputs, factorize misses)."""
    op_times, outputs, misses = [], [], 0
    clock = time.perf_counter
    start = clock()
    for op in ops:
        api.factorize.cache_clear()
        t0 = clock()
        outputs.append(_run_op(api, op))
        op_times.append(clock() - t0)
        misses += api.factorize.cache_info().misses
    return clock() - start, op_times, outputs, misses


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    api, tracer = _load_program(bool(args.trace))
    workdir = Path(args.out).with_suffix(".work")
    ops = _setup(api, workloads.build(args.workload, args.seed), workdir)
    ready = time.monotonic()
    result: dict = {"ready": ready}
    if args.setup_only:
        shutil.rmtree(workdir, ignore_errors=True)
        Path(args.out).write_text(json.dumps(result), encoding="utf-8")
        return 0

    misses = 0
    pass_times, op_times, errors, mismatches = [], [], [0] * len(ops), [0] * len(ops)
    first = None
    start = time.perf_counter()
    while True:
        elapsed, times, outputs, pass_misses = _pass(api, ops)
        misses += pass_misses
        pass_times.append(elapsed)
        op_times.append(times)
        if first is None:
            first = outputs
        for i, out in enumerate(outputs):
            if "error" in out:
                errors[i] += 1
            elif out != first[i]:
                mismatches[i] += 1  # a later pass must repeat the first byte for byte
        # Start another pass only if one more is expected to end within --seconds.
        spent = time.perf_counter() - start
        if tracer is not None or spent + statistics.median(pass_times) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result.update(
        passes=len(pass_times),
        pass_times=pass_times,
        op_times=op_times,
        op_names=[op["name"] for op in ops],
        outputs=first,
        errors=errors,
        mismatches=mismatches,
        peak_rss_mb=peak_rss_mb,
    )
    if tracer is not None:
        result["trace"] = tracer.metrics(misses)
    shutil.rmtree(workdir, ignore_errors=True)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
