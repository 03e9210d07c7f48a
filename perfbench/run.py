#!/usr/bin/env python3
"""The ffdio benchmark: one workload per call, in fresh worker processes.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: verify-wide, reduce-batch, monomial-spaces, field-kernels (see
README.md). With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics setup_s, total_s and peak_rss_mb; with --trace 1 it holds
the per-layer metrics of one traced pass instead. Every output is checked
against an oracle computed with sympy alone, after the timed passes.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

RESULTS = HERE / "results"

# Cold starts per run for setup_s; the median of this many repeats within a
# tenth on this benchmark's machine (README.md).
SETUP_STARTS = 7

# Every worker of a run must end within this many seconds of the run's start.
RUN_DEADLINE_S = 170


class WorkerFailed(RuntimeError):
    pass


def _worker(args, out: Path, deadline: float, *extra: str) -> tuple[float, dict]:
    """Start one worker, wait for it, and return (launch time, its report)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(out), *extra,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    out.unlink(missing_ok=True)
    launched = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - launched))
    if proc.returncode != 0 or not out.exists():
        raise WorkerFailed(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    return launched, report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = RESULTS / f"{tag}.worker.json"
    deadline = time.monotonic() + RUN_DEADLINE_S
    setup_samples = []
    try:
        if not args.trace:
            for _ in range(SETUP_STARTS - 1):
                launched, report = _worker(args, out, deadline, "--setup-only")
                setup_samples.append(report["ready"] - launched)
        launched, report = _worker(args, out, deadline)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setup_samples.append(report["ready"] - launched)

    ops = workloads.build(args.workload, args.seed)
    problems = checks.check_all(ops, report["outputs"])
    passes = report["passes"]
    failed = 0
    for i, problem in enumerate(problems):
        clean = passes - report["errors"][i] - report["mismatches"][i]
        failed += report["errors"][i] + report["mismatches"][i] + (clean if problem else 0)
    correct = not any(problems) and not any(report["mismatches"])

    if args.trace:
        metrics = dict(report["trace"])
        metrics["traced.total_s"] = {"value": report["pass_times"][0], "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "total_s": {"value": statistics.median(report["pass_times"]), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_samples": setup_samples,
        "pass_times": report["pass_times"],
        "op_names": report["op_names"],
        "op_times": report["op_times"],
        "errors": [o.get("error") for o in report["outputs"]],
        "problems": problems,
        "metrics": metrics,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(details, indent=2) + "\n", encoding="utf-8")
    for line in filter(None, problems + details["errors"]):
        print(f"FAILED {line}", file=sys.stderr)

    print(json.dumps({
        "correct": correct,
        "attempted": len(ops) * passes,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
