"""Tests of the benchmark's oracle on closed forms, and of its bookkeeping.

Run with: python3 -m pytest -q perfbench/test_perfbench.py
"""
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

T = oracle.T
INF = oracle.place("inf")
AT_T = oracle.place("t")


def test_value_evaluates_index_expressions():
    assert oracle.value("t^ilog2(a)", 9) == T ** 3
    assert oracle.value("t^(2*a)", 5) == T ** 10
    assert oracle.value("(t^2 - 1)/(t - 1)") == T + 1


def test_orders_at_t_and_infinity():
    f = oracle.value("t^3/(t - 1)")
    assert oracle.order(f, AT_T) == 3
    assert oracle.order(f, oracle.place("t - 1")) == -1
    assert oracle.order(f, INF) == -2
    assert oracle.order(oracle.value("(t^2 + 1)^4 * t"), oracle.place("t^2 + 1")) == 4


def test_height_of_power_points():
    for n in (0, 1, 7, 40):
        assert oracle.height([oracle.value("1"), T ** n]) == n
        assert oracle.height([oracle.value("1"), T ** n, T ** (2 * n)]) == 2 * n
    # Scaling by a common rational function leaves the height unchanged.
    c = oracle.value("(t + 3)/(t^2 - 2)")
    assert oracle.height([c, c * T ** 5, c * (T + 1)]) == 5


def test_weil_closed_forms():
    x = [oracle.value("1"), T ** 5]
    form = [oracle.value("0"), oracle.value("1")]
    assert oracle.weil(x, form, AT_T) == 5
    assert oracle.weil(x, form, INF) == 0
    # [1 : t^n] against x_0 - x_1 is close to the point at infinity only.
    diff = [oracle.value("1"), oracle.value("-1")]
    assert oracle.weil([oracle.value("1"), T ** 4], diff, INF) == 0
    assert oracle.weil([oracle.value("1"), T ** 4], diff, oracle.place("t - 1")) == 1


def test_divisor_and_sum_formula():
    div = oracle.divisor(oracle.value("(t^2 - 1)/t^3"))
    assert div == {
        oracle.place_key("t"): -3,
        oracle.place_key("t - 1"): 1,
        oracle.place_key("t + 1"): 1,
        "inf": 1,
    }
    assert sum(m * (1 if k == "inf" else len(k) - 1) for k, m in div.items()) == 0


def test_reduced_coeffs_are_monic_in_the_denominator():
    num, den = oracle.reduced_coeffs(oracle.value("(2*t + 4)/(3*t^2 + 6*t)"))
    assert num == [Fraction(2, 3)]
    assert den == [Fraction(0), Fraction(1)]


def test_monomial_dims_of_the_power_family():
    # l(s) = s + 1 for [1, t^a]: the degree-s monomials t^(k a) are independent.
    window = range(1, 21)
    gens = [[oracle.value(x, a) for a in window] for x in ("1", "t^a")]
    values = oracle.MonomialValues(gens)
    dims = [values.dim(s) for s in range(8)]
    assert dims == [s + 1 for s in range(8)]
    assert oracle.choose_s(dims, Fraction(1, 6)) == 5


def test_q_rank_sees_rational_relations():
    window = range(2, 6)
    seqs = [
        [oracle.num_den(oracle.value(x, a)) for a in window]
        for x in ("t^a", "2*t^a", "1/(t - 1)", "t^a + 1/(t - 1)")
    ]
    assert oracle.q_rank(seqs) == 2
    assert oracle.q_rank([]) == 0


def test_general_position():
    one, zero = oracle.value("1"), oracle.value("0")
    assert oracle.general_position([[one, zero], [zero, one], [one, one]])
    assert not oracle.general_position([[one, zero], [one + one, zero], [one, one]])


def test_workloads_repeat_per_seed():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 3) == workloads.build(name, 3)
        assert workloads.build(name, 3) != workloads.build(name, 4)


def test_benchmark_json_lists_what_the_runs_print():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    traced = tracer.metric_names() + [("traced.total_s", "s")]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == traced
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "total_s", "peak_rss_mb"}
