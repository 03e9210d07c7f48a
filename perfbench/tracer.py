"""Call counts and self times of ffdio's public functions, taken from outside.

`install` replaces each traced function with a wrapper in every ffdio module
namespace that binds it (``from .heights import weil`` binds ``weil`` in
``harness`` and ``reduction`` too), and each traced method on its class. The
program itself is not edited. A function's self time is the time inside it
minus the time inside the traced functions it called.
"""
from __future__ import annotations

import importlib
import sys
import time

# (module, attribute path, statistics reported). Underscore-prefixed helpers
# are not traced.
TARGETS = (
    ("ratfunc", "RatFunc.__init__", ("calls", "self_s")),
    ("ratfunc", "poly_gcd", ("calls", "self_s", "trivial_calls")),
    ("ratfunc", "multiplicity", ("calls", "self_s")),
    ("ratfunc", "factorize", ("calls", "self_s", "misses")),
    ("parser", "evaluate", ("calls", "self_s")),
    ("places", "ord_at", ("calls", "self_s")),
    ("places", "divisor_of", ("calls", "self_s")),
    ("heights", "LinearForm.apply", ("calls", "self_s")),
    ("heights", "weil", ("calls", "self_s")),
    ("heights", "height_point", ("calls", "self_s")),
    ("linalg", "rref", ("calls", "self_s")),
    ("linalg", "det", ("calls", "self_s")),
    ("linalg", "GreedyBasis.offer", ("calls", "self_s")),
    ("moving", "general_position_check", ("calls", "self_s")),
    ("moving", "smallness_report", ("self_s",)),
    ("moving", "nondegeneracy_probe", ("self_s",)),
    ("moving", "normalize_xi", ("self_s",)),
    ("moving", "Sequence.eval", ("calls",)),
    ("moving", "sequence_rank_over_q", ("calls", "self_s")),
    ("steinmetz", "choose_s", ("self_s",)),
    ("steinmetz", "dim_L", ("calls", "self_s")),
    ("steinmetz", "extend_basis", ("self_s",)),
    ("reduction", "stabilize_J", ("self_s",)),
    ("reduction", "build_transfer", ("self_s",)),
    ("reduction", "derive_and_pad", ("self_s",)),
    ("reduction", "select_J", ("calls", "self_s")),
    ("reduction", "invert_forms", ("calls", "self_s")),
    ("reduction", "check_local_inequality", ("calls", "self_s")),
    ("reduction", "weil_transfer_check", ("calls", "self_s")),
    ("reduction", "height_P_decomposition", ("calls", "self_s")),
    ("harness", "parse_config", ("self_s",)),
    ("harness", "run_verify", ("self_s",)),
    ("harness", "run_wang_check", ("self_s",)),
    ("harness", "run_reduction", ("self_s",)),
    ("harness", "VerificationReport.to_json", ("self_s",)),
    ("harness", "VerificationReport.to_csv", ("self_s",)),
    ("cli", "main", ("calls",)),
)

UNITS = {"calls": "count", "trivial_calls": "count", "misses": "count", "self_s": "s"}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in table order."""
    return [
        (f"{module}.{path}.{stat}", UNITS[stat])
        for module, path, stats in TARGETS
        for stat in stats
    ]


def _trivial_gcd(a, b) -> bool:
    return a.degree <= 0 or b.degree <= 0


class Tracer:
    """Per-function [calls, self seconds, flagged calls], kept in memory."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self._stack: list[list[float]] = []

    def wrap(self, name: str, fn, flag=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if flag is not None and flag(*args):
                stats[2] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded ffdio module that binds it."""
        modules = [m for n, m in sys.modules.items() if n == "ffdio" or n.startswith("ffdio.")]
        for module_name, path, _ in TARGETS:
            module = importlib.import_module(f"ffdio.{module_name}")
            name = f"{module_name}.{path}"
            flag = _trivial_gcd if name == "ratfunc.poly_gcd" else None
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth], flag))
                continue
            original = getattr(module, path)
            wrapper = self.wrap(name, original, flag)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def metrics(self, factorize_misses: int) -> dict:
        out = {}
        for module_name, path, stats in TARGETS:
            name = f"{module_name}.{path}"
            calls, self_s, flagged = self.stats.get(name, (0, 0.0, 0))
            values = {"calls": calls, "self_s": self_s, "trivial_calls": flagged,
                      "misses": factorize_misses}
            for stat in stats:
                out[f"{name}.{stat}"] = {"value": values[stat], "unit": UNITS[stat]}
        return out
