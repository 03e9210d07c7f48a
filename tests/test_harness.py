import json
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from ffdio import harness, places
from ffdio.harness import (
    ConfigError,
    ProbeRefusal,
    admissible_subsets,
    generate,
    load_experiment,
    parse_config,
    run_reduction,
    run_verify,
    run_wang_check,
)

from conftest import det_cofactor
from test_report_digests import PARTIAL_GP


def base_config(**overrides):
    data = {
        "M": 1,
        "q": 3,
        "S": ["t", "inf"],
        "points": ["1", "t^a"],
        "hyperplanes": [["1", "0"], ["0", "1"], ["1", "-1"]],
        "window": [1, 20],
        "epsilon": "1/2",
    }
    data.update(overrides)
    return data


class TestConfigValidation:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config()))
        cfg = load_experiment(path, "verify")
        assert cfg.m == 1 and cfg.q == 3
        assert cfg.epsilon == Fraction(1, 2)
        assert cfg.window == (1, 20)

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"M": 0}, "M"),
            ({"q": 13}, "q"),
            ({"S": []}, "S"),
            ({"S": ["t^2 - 1"]}, "S[0]"),
            ({"points": ["1"]}, "points"),
            ({"points": ["1", "t^"]}, "points[1]"),
            ({"hyperplanes": [["1", "0"]]}, "hyperplanes"),
            ({"hyperplanes": [["1"], ["0", "1"], ["1", "-1"]]}, "hyperplanes[0]"),
            ({"window": [5, 1]}, "window"),
            ({"epsilon": "0"}, "epsilon"),
            ({"epsilon": "x"}, "epsilon"),
            ({"thresholds": {"tail_fraction": "2"}}, "thresholds.tail_fraction"),
            ({"infinite_subset": "0"}, "infinite_subset"),
            ({"window": [True, 5]}, "window"),
            ({"window": [1, 10_001]}, "window"),
            ({"window": [-10_000, 0]}, "window"),
            ({"M": True}, "M"),
            ({"q": True}, "q"),
            ({"s_max": False}, "s_max"),
        ],
    )
    def test_field_errors(self, overrides, field, no_long_windows):
        with pytest.raises(ConfigError) as exc:
            parse_config(base_config(**overrides))
        assert str(exc.value).startswith(field)

    def test_window_cap(self, no_long_windows):
        cap = harness.MAX_WINDOW
        assert parse_config(base_config(window=[5, 4 + cap])).window == (5, 4 + cap)
        with pytest.raises(ConfigError, match=f"window: {cap + 1} indices, more than the cap of {cap}"):
            parse_config(base_config(window=[5, 5 + cap]))

    def test_q_constraint_is_mode_specific(self):
        cfg = base_config(q=2, hyperplanes=[["1", "0"], ["0", "1"]])
        parse_config(cfg)  # fine without a mode
        parse_config(cfg, "wang")  # fixed-target runs allow q = M+1
        with pytest.raises(ConfigError, match="q"):
            parse_config(cfg, "verify")
        with pytest.raises(ConfigError, match="q"):
            parse_config(cfg, "reduce")

    def test_general_position_spot_check(self):
        bad = base_config(hyperplanes=[["1", "0"], ["2", "0"], ["0", "1"]])
        with pytest.raises(ConfigError, match="general position"):
            parse_config(bad)

    def test_huge_power_in_a_hyperplane(self, no_huge_powers):
        huge = base_config(hyperplanes=[["1", "0"], ["0", "1"], ["1", "t^(10^9)"]])
        with pytest.raises(ConfigError, match="hyperplanes: evaluation failed at index 1"):
            parse_config(huge)


class TestGenerate:
    def test_fixed_fermat(self):
        cfg = generate("fixed-fermat", window=(1, 30))
        assert cfg.m == 1 and cfg.q == 3
        assert cfg.hyperplanes == (("1", "0"), ("0", "1"), ("1", "-1"))

    def test_slow_coeff(self):
        cfg = generate("slow-coeff")
        assert (cfg.m, cfg.q) == (2, 5)
        assert cfg.window == (8, 256)

    def test_random_gp_deterministic(self):
        a = generate("random-gp", m=2, q=5, seed=11)
        b = generate("random-gp", m=2, q=5, seed=11)
        assert a == b
        c = generate("random-gp", m=2, q=5, seed=12)
        assert a.hyperplanes != c.hyperplanes

    def test_unknown_profile(self):
        with pytest.raises(ConfigError):
            generate("nope")


class TestRunVerify:
    def test_fermat_sharpness(self):
        cfg = generate("fixed-fermat", window=(1, 40))
        report = run_verify(cfg)
        assert report.verdict == "PASS"
        assert report.fitted_constant == 0
        for row in report.rows:
            assert not row.excluded
            assert row.ratio == 2

    def test_excluded_indices_listed(self):
        # The third hyperplane passes through the point exactly at alpha = 5.
        cfg = parse_config(
            base_config(
                hyperplanes=[["1", "0"], ["0", "1"], ["t^5", "-1"]],
                window=[1, 12],
                thresholds={"smallness_delta": "3/4"},
            ),
            "verify",
        )
        report = run_verify(cfg)
        excluded = [r.alpha for r in report.rows if r.excluded]
        assert excluded == [5]
        assert "hyperplane 2" in next(r.note for r in report.rows if r.excluded)

    def test_infinite_subset_mode(self):
        cfg = parse_config(
            base_config(
                hyperplanes=[["1", "0"], ["0", "1"], ["t^5", "-1"]],
                window=[1, 12],
                thresholds={"smallness_delta": "3/4"},
                infinite_subset="1",
            ),
            "verify",
        )
        report = run_verify(cfg)
        # One excluded index means not all of the window can satisfy the bound.
        assert report.verdict == "FAIL"
        assert report.exit_code == 2

    def test_probe_refusal_on_fast_targets(self):
        cfg = parse_config(
            base_config(
                q=4,
                hyperplanes=[["1", "0"], ["0", "1"], ["1", "t^a"], ["1", "-1"]],
                window=[2, 30],
            )
        )
        with pytest.raises(ProbeRefusal) as exc:
            run_verify(cfg)
        assert "smallness" in str(exc.value)
        assert not exc.value.probes["smallness"]["holds"]


class TestRunWang:
    def test_rejects_moving_coefficients(self):
        cfg = parse_config(
            base_config(
                q=4,
                hyperplanes=[["1", "0"], ["0", "1"], ["1", "t^ilog2(a)"], ["1", "-1"]],
                window=[4, 40],
            )
        )
        with pytest.raises(ConfigError, match="constant"):
            run_wang_check(cfg)

    def test_matches_verify_on_fermat(self):
        cfg = generate("fixed-fermat", window=(1, 40))
        wang = run_wang_check(cfg)
        verify = run_verify(cfg)
        assert wang.verdict == "PASS"
        assert wang.fitted_constant == verify.fitted_constant == 0
        # On this instance the subset maximum equals the plain sum.
        for wr, vr in zip(wang.rows, verify.rows):
            assert wr.lhs == vr.lhs

    def test_admissible_subsets_against_minor_oracle(self):
        cfg = generate("random-gp", m=2, q=6, seed=5)
        forms = [
            cfg.hyperplane_family().eval_form(j, cfg.window[0]) for j in range(cfg.q)
        ]
        subsets = admissible_subsets(forms, cfg.m)
        oracle = _bruteforce_subsets(forms, cfg.m)
        assert subsets == oracle


def _bruteforce_subsets(forms, m):
    """Independent subsets detected by scanning square minors with the
    Leibniz-formula determinant."""
    out = []
    ncols = len(forms[0].coeffs)
    for size in range(1, m + 2):
        for subset in combinations(range(len(forms)), size):
            mat = [list(forms[j].coeffs) for j in subset]
            independent = False
            for cols in combinations(range(ncols), size):
                minor = [[row[c] for c in cols] for row in mat]
                if det_cofactor(minor) != 0:
                    independent = True
                    break
            if independent:
                out.append(subset)
    return out


class TestRunReduction:
    def test_fermat(self):
        cfg = generate("fixed-fermat", window=(1, 25))
        report = run_reduction(cfg)
        assert report.verdict == "PASS"
        assert report.extra["s"] == 0
        assert report.extra["l_s"] == 1 and report.extra["l_s1"] == 1
        assert report.extra["local_inequality_checks"] == 2 * 25
        assert report.extra["selections"] == {"t": [1, 0], "inf": [0, 1]}

    def test_moving_instance(self):
        cfg = parse_config(
            base_config(
                q=4,
                hyperplanes=[["1", "0"], ["0", "1"], ["1", "t^ilog2(a)"], ["1", "-1"]],
                window=[8, 80],
            ),
            "reduce",
        )
        report = run_reduction(cfg)
        assert report.verdict == "PASS"
        assert report.extra["l_s1"] == 2  # basis {1, t^ilog2(a)}
        # The bound is taken in h(P) = h(x) + h(b) with h(b) = ilog2(alpha);
        # the ratio stays LHS / h(x).
        slope = Fraction(report.extra["slope"])
        included = [r for r in report.rows if not r.excluded]
        assert included
        for r in included:
            h_b = r.alpha.bit_length() - 1
            assert r.rhs == slope * (r.h_x + h_b) + report.fitted_constant
            assert r.ratio == Fraction(r.lhs, r.h_x)

    def test_index_that_fails_to_evaluate_is_excluded(self):
        cfg = parse_config(
            base_config(
                q=4,
                points=["1", "t^a/(a-50)"],
                hyperplanes=[["1", "0"], ["0", "1"], ["1", "t^ilog2(a)"], ["1", "-1"]],
                window=[40, 60],
            ),
            "reduce",
        )
        report = run_reduction(cfg)
        row = next(r for r in report.rows if r.alpha == 50)
        assert row.excluded and "index 50" in row.note
        assert 50 not in report.extra["stable_indices"]
        assert report.verdict == run_verify(cfg).verdict == "PASS"


class TestReports:
    def test_csv_shape(self):
        cfg = generate("fixed-fermat", window=(1, 10))
        report = run_verify(cfg)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "alpha,h_x,lhs,rhs,ratio,excluded,lam_1,lam_2,lam_3"
        assert len(lines) == 11
        assert lines[1].split(",")[:6] == ["1", "1", "2", "5/2", "2", "0"]

    def test_json_mirror(self):
        cfg = generate("fixed-fermat", window=(1, 10))
        report = run_verify(cfg)
        payload = json.loads(report.to_json())
        assert payload["verdict"] == "PASS"
        assert payload["fitted_constant"] == "0"
        assert payload["config"]["M"] == 1
        assert payload["probes"]["general_position"]["holds"] is True
        assert len(payload["rows"]) == 10

    def test_determinism(self):
        a = run_verify(generate("fixed-fermat", window=(1, 15)))
        b = run_verify(generate("fixed-fermat", window=(1, 15)))
        assert a.to_csv() == b.to_csv()
        assert a.to_json() == b.to_json()


class TestProbes:
    def test_partial_general_position_failure_refuses_verify(self):
        with pytest.raises(ProbeRefusal) as exc:
            run_verify(parse_config(PARTIAL_GP, "verify"))
        assert "general position fails at [4, 5]" in str(exc.value)
        assert exc.value.probes["general_position"] == {
            "holds": False,
            "failing_indices": [4, 5],
        }

    @pytest.mark.parametrize(
        "config, checked_at, failing",
        [
            # slow-coeff's fifth hyperplane is [1 : t^ilog2(a) : 2], so its
            # family on 8..24 takes one value on 8..15 and one on 16..24.
            (lambda: generate("slow-coeff", window=(8, 24)), [8, 16], []),
            # [1 : a-5] differs at every index.
            (lambda: parse_config(PARTIAL_GP, "reduce"), list(range(1, 31)), [4, 5]),
        ],
        ids=["slow-coeff", "partial-gp"],
    )
    def test_general_position_once_per_distinct_family(
        self, monkeypatch, config, checked_at, failing
    ):
        cfg = config()
        calls = []
        original = harness.general_position_check

        def counting(family, alpha):
            calls.append(alpha)
            return original(family, alpha)

        monkeypatch.setattr(harness, "general_position_check", counting)
        report = run_reduction(cfg)
        assert calls == checked_at
        assert report.probes["general_position"]["failing_indices"] == failing
        assert [r.alpha for r in report.rows if r.excluded] == failing


@pytest.mark.parametrize("mode", ["verify", "wang", "reduce"])
def test_runs_factor_nothing_for_heights(monkeypatch, mode):
    """Heights take an lcm and a gcd, so a run calls `divisor_of` nowhere; it
    reaches `factorize` only through `parse_prime`."""
    cfg = generate("fixed-fermat", m=1, window=(1, 40))
    calls = []
    original = places.divisor_of

    def counting(x):
        calls.append(x)
        return original(x)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ffdio" and getattr(module, "divisor_of", None) is original:
            monkeypatch.setattr(module, "divisor_of", counting)
    harness.run(mode, cfg)
    assert calls == []
