"""Acceptance suite: nine criteria, each emitting one PASS/FAIL line.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines live).
All arithmetic checks are exact; the timed criteria assert their budgets.
"""
import dataclasses
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from ffdio.harness import admissible_subsets, generate, parse_config, run_reduction, run_verify, run_wang_check
from ffdio.heights import LinearForm, ProjPoint, height_form, height_point, weil, weil_total
from ffdio.moving import Sequence, window_range
from ffdio.places import INFINITY, PrimeDivisor, check_sum_formula
from ffdio.ratfunc import Poly, RatFunc
from ffdio.steinmetz import choose_s, dim_L

from conftest import det_cofactor


@contextmanager
def acceptance(n: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {n}: PASS - {description}")


def random_poly(rng, max_degree, nonzero=True):
    while True:
        degree = rng.randint(0, max_degree)
        coeffs = [rng.randint(-9, 9) for _ in range(degree + 1)]
        p = Poly(coeffs)
        if not (nonzero and p.is_zero()):
            return p


def random_ratfunc(rng, max_degree, nonzero=True):
    num = random_poly(rng, max_degree, nonzero=nonzero)
    den = random_poly(rng, max_degree, nonzero=True)
    return RatFunc(num, den)


def test_acceptance_1_sum_formula():
    with acceptance(1, "sum formula exact on 1000 seeded rational functions, < 10 s"):
        rng = random.Random(20260825)
        start = time.monotonic()
        for _ in range(1000):
            x = random_ratfunc(rng, 20)
            assert check_sum_formula(x) == 0
        elapsed = time.monotonic() - start
        assert elapsed < 10, f"took {elapsed:.1f} s"


def test_acceptance_2_first_main_theorem():
    with acceptance(2, "weil_total = h(x) + h(L) exact on 500 seeded pairs in P^2, < 30 s"):
        rng = random.Random(31415)
        start = time.monotonic()
        checked = 0
        while checked < 500:
            x = ProjPoint(tuple(random_ratfunc(rng, 3, nonzero=False) for _ in range(3)))
            L = LinearForm(tuple(random_ratfunc(rng, 2, nonzero=False) for _ in range(3)))
            if L.apply(x).is_zero():
                continue
            assert weil_total(x, L) == height_point(x) + height_form(L)
            checked += 1
        elapsed = time.monotonic() - start
        assert elapsed < 30, f"took {elapsed:.1f} s"


def test_acceptance_3_weil_nonnegativity_and_scaling():
    with acceptance(3, "Weil nonnegativity and scaling invariance, 500 seeded samples, zero violations"):
        rng = random.Random(2718)
        places = [
            PrimeDivisor(Poly([0, 1])),
            PrimeDivisor(Poly([-1, 1])),
            PrimeDivisor(Poly([1, 0, 1])),
            INFINITY,
        ]
        for _ in range(500):
            x = ProjPoint(tuple(random_ratfunc(rng, 3, nonzero=False) for _ in range(3)))
            L = LinearForm(tuple(random_ratfunc(rng, 2, nonzero=False) for _ in range(3)))
            if L.apply(x).is_zero():
                continue
            c = random_ratfunc(rng, 2)
            p = rng.choice(places)
            lam = weil(x, L, p)
            assert lam >= 0
            scaled_x = ProjPoint(tuple(v * c for v in x.coords))
            scaled_L = LinearForm(tuple(v * c for v in L.coeffs))
            assert weil(scaled_x, L, p) == lam
            assert weil(x, scaled_L, p) == lam


def test_acceptance_4_steinmetz():
    with acceptance(4, "l(s) = s+1 for s <= 12; choose_s(1/10) = 9; constant family gives 0"):
        xis = [Sequence.constant(1), Sequence.from_text("t^a")]
        window = window_range(1, 40)
        for s in range(13):
            assert dim_L(xis, s, window).dim == s + 1
        assert choose_s(xis, Fraction(1, 10), window, 12)[0].s == 9
        for delta in (Fraction(1), Fraction(1, 2), Fraction(1, 10)):
            assert choose_s([Sequence.constant(1)], delta, window_range(1, 10), 12)[0].s == 0


def _reduction_instances():
    """50 seeded instances: M <= 2, q <= 6, |S| <= 3, window length >= 30."""
    place_pools = (["t", "inf"], ["t", "t - 1", "inf"], ["t^2 + 1", "inf"])
    configs = []
    for i in range(35):
        m = 1 + i % 2
        q = m + 2 + (i // 2) % 2
        cfg = generate("random-gp", m=m, q=q, seed=100 + i, window=(1, 32))
        configs.append(dataclasses.replace(cfg, s_places=tuple(place_pools[i % 3])))
    for i in range(10):
        configs.append(
            parse_config(
                {
                    "M": 1,
                    "q": 4,
                    "S": place_pools[i % 3],
                    "points": ["1", "t^a"],
                    "hyperplanes": [["1", "0"], ["0", "1"], ["1", "t^ilog2(a)"], ["1", "-1"]],
                    "window": [8 + i, 70 + i],
                    "epsilon": "1/2",
                },
                "reduce",
            )
        )
    for i in range(5):
        configs.append(generate("slow-coeff", window=(8 + i, 64 + i)))
    return configs


def test_acceptance_5_reduction_exactness():
    with acceptance(5, "reduction identities and local inequality exact on 50 seeded instances, < 5 min"):
        start = time.monotonic()
        configs = _reduction_instances()
        assert len(configs) == 50
        for cfg in configs:
            assert cfg.m <= 2 and cfg.q <= 6 and len(cfg.s_places) <= 3
            assert cfg.window[1] - cfg.window[0] + 1 >= 30
            # run_reduction re-verifies the inverse, transfer, height-split and
            # Weil-transfer identities at every stable index and the local
            # counting inequality at every (place, index); any violation raises.
            report = run_reduction(cfg)
            assert report.extra["local_inequality_checks"] > 0
        elapsed = time.monotonic() - start
        assert elapsed < 300, f"took {elapsed:.1f} s"


def test_acceptance_6_sharpness_witness():
    with acceptance(6, "fermat witness: LHS/h = 2 = M+1 at every index of 1..200, fitted C = 0, < 30 s"):
        start = time.monotonic()
        cfg = generate("fixed-fermat", window=(1, 200))
        report = run_verify(cfg)
        assert report.verdict == "PASS"
        assert report.verdict_no_constant == "PASS"
        assert report.fitted_constant == 0
        assert len(report.rows) == 200
        for row in report.rows:
            assert not row.excluded
            assert row.ratio == 2
        elapsed = time.monotonic() - start
        assert elapsed < 30, f"took {elapsed:.1f} s"


def test_acceptance_7_moving_target_verification():
    with acceptance(7, "slow-coeff profile passes on 8..256 with end smallness < 0.1, < 5 min"):
        start = time.monotonic()
        cfg = generate("slow-coeff")
        assert cfg.window == (8, 256) and cfg.epsilon == Fraction(1, 2)
        report = run_verify(cfg)
        assert report.verdict == "PASS"
        statistic = Fraction(report.probes["smallness"]["statistic"])
        assert statistic < Fraction(1, 10)
        elapsed = time.monotonic() - start
        assert elapsed < 300, f"took {elapsed:.1f} s"


def test_acceptance_8_wang_cross_check():
    with acceptance(8, "fixed-target cross-check agrees with verify; subset scan matches minor oracle"):
        for cfg in (
            generate("fixed-fermat", window=(1, 60)),
            generate("random-gp", m=1, q=3, seed=42, window=(1, 40)),
        ):
            wang = run_wang_check(cfg)
            verify = run_verify(cfg)
            assert wang.verdict == "PASS"
            # The maximum over admissible subsets never exceeds the plain sum.
            for wr, vr in zip(wang.rows, verify.rows):
                assert wr.lhs <= vr.lhs
            if all(wr.lhs == vr.lhs for wr, vr in zip(wang.rows, verify.rows)):
                assert wang.fitted_constant == verify.fitted_constant
        # Subset enumeration against a brute-force minor scan for q <= 8.
        rng = random.Random(7)
        for m in (1, 2):
            for q in (m + 2, 8):
                rows = [
                    [RatFunc.constant(rng.randint(-3, 3)) for _ in range(m + 1)]
                    for _ in range(q)
                ]
                forms = [
                    LinearForm(tuple(row)) for row in rows if any(row)
                ]
                assert admissible_subsets(forms, m) == _minor_oracle(forms, m)


def _minor_oracle(forms, m):
    out = []
    ncols = len(forms[0].coeffs)
    for size in range(1, m + 2):
        for subset in combinations(range(len(forms)), size):
            mat = [list(forms[j].coeffs) for j in subset]
            if any(
                det_cofactor([[row[c] for c in cols] for row in mat]) != 0
                for cols in combinations(range(ncols), size)
            ):
                out.append(subset)
    return out


def test_acceptance_9_determinism():
    with acceptance(9, "identical seeds give byte-identical CSV and JSON reports"):
        for mode_run, profile, kwargs in (
            (run_verify, "fixed-fermat", {"window": (1, 30)}),
            (run_wang_check, "random-gp", {"m": 1, "q": 4, "seed": 9, "window": (1, 30)}),
            (run_reduction, "fixed-fermat", {"window": (1, 30)}),
        ):
            first = mode_run(generate(profile, **kwargs))
            second = mode_run(generate(profile, **kwargs))
            assert first.to_csv().encode() == second.to_csv().encode()
            assert first.to_json().encode() == second.to_json().encode()
