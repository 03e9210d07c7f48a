#!/usr/bin/env python3
"""Machine-noise probe: how much the time of a fixed pure-Python loop moves.

Usage: python3 perfbench/noise.py [seconds]

Repeats one fixed loop (about 40 ms) for `seconds` (default 120) and prints
the range of its CPU time, how far CPU time falls behind wall time in one
repeat, and the spread of the mean loop time over windows of 6, 12 and 24 s
(the length of one benchmark run's timed passes). The README's noise figures
come from it.
"""
import statistics
import sys
import time


def loop() -> int:
    acc = 0
    for i in range(500_000):
        acc += i * i % 7
    return acc


def main() -> int:
    seconds = float(sys.argv[1]) if len(sys.argv) > 1 else 120.0
    samples = []  # (start, cpu, wall)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        w0, c0 = time.perf_counter(), time.process_time()
        loop()
        samples.append((w0 - start, time.process_time() - c0, time.perf_counter() - w0))
    cpu = [c for _, c, _ in samples]
    gaps = [abs(w - c) / w for _, c, w in samples]
    print(f"{len(samples)} repeats; cpu min {min(cpu) * 1e3:.1f} ms, max {max(cpu) * 1e3:.1f} ms, "
          f"median {statistics.median(cpu) * 1e3:.1f} ms")
    print(f"cpu/wall gap of one repeat: median {statistics.median(gaps):.1%}, "
          f"above 5% in {sum(g > 0.05 for g in gaps)} repeats")
    for window in (6, 12, 24):
        means = []
        for k in range(int(seconds // window)):
            inside = [w for t, _, w in samples if k * window <= t < (k + 1) * window]
            means.append(statistics.fmean(inside))
        if len(means) < 4:
            continue
        q1, _, q3 = statistics.quantiles(means, n=4)
        mid = statistics.median(means)
        print(f"{window:>2} s windows: {len(means)}, mean loop {min(means) * 1e3:.1f}.."
              f"{max(means) * 1e3:.1f} ms, IQR/median {(q3 - q1) / mid:.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
