import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ffdio
from ffdio import harness
from ffdio.cli import main
from ffdio.harness import generate
from ffdio.reduction import ExactIdentityError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScalarCommands:
    def test_ord(self, capsys):
        code, out, _ = run_cli(capsys, "ord", "t^3/(t-1)", "t")
        assert code == 0 and out.strip() == "3"
        code, out, _ = run_cli(capsys, "ord", "t^3/(t-1)", "inf")
        assert out.strip() == "-2"

    def test_divisor(self, capsys):
        code, out, _ = run_cli(capsys, "divisor", "(t^2-1)/t^3")
        assert code == 0
        assert out.strip() == "1*(t - 1) + -3*(t) + 1*(t + 1) + 1*(inf)"

    def test_height(self, capsys):
        code, out, _ = run_cli(capsys, "height", "1, t, t^2")
        assert code == 0 and out.strip() == "2"

    def test_weil(self, capsys):
        code, out, _ = run_cli(capsys, "weil", "1, t^5", "0, 1", "t")
        assert code == 0 and out.strip() == "5"

    def test_invalid_input_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "ord", "t^", "t")
        assert code == 1 and "error" in err
        code, _, err = run_cli(capsys, "ord", "t", "t^2-1")
        assert code == 1 and "irreducible" in err

    def test_evaluation_error_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "ord", "1/0", "t")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "division by zero" in err
        code, _, err = run_cli(capsys, "height", "1,1/(t-t)")
        assert code == 1 and err.startswith("error: ")

    def test_huge_power_exits_1(self, capsys, no_huge_powers):
        code, out, err = run_cli(capsys, "height", "1, t^1000000000")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1


class TestSpaceCommands:
    def test_lspace(self, capsys):
        code, out, _ = run_cli(capsys, "lspace", "--xis", "1; t^a", "--s", "2", "--window", "1..20")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "l(2) = 3"
        assert lines[1:] == ["2 0", "1 1", "0 2"]

    def test_choose_s(self, capsys):
        code, out, _ = run_cli(
            capsys, "choose-s", "--xis", "1; t^a", "--delta", "1/10", "--window", "1..40"
        )
        assert code == 0 and out.strip() == "9"

    # The three family shapes of the benchmark's monomial-spaces workload, at
    # two draws of their constants each. The constants do not move l(s), so
    # the draws of one shape share a digest.
    POWER_DIGEST = "ebae9595d3a1fd95594df14ca52c83a4e9a705676c6afe5bda7fdf2b678b5f89"
    ILOG2_DIGEST = "75b364c1e7bd22bbe33420a7cf5c3ca9635aa7f1669f262885c471b6b9c4d02d"
    SPACE_FAMILIES = {
        "power-3": ("1; 3*t^a", "1/8", "1..30", POWER_DIGEST),
        "power-7": ("1; 7*t^a", "1/8", "1..30", POWER_DIGEST),
        "ilog2-linear-2": ("1; t^ilog2(a); t+2", "1/2", "8..40", ILOG2_DIGEST),
        "ilog2-linear-5": ("1; t^ilog2(a); t+5", "1/2", "8..40", ILOG2_DIGEST),
        "ilog2-moebius-1-3": ("1; t^ilog2(a); (t+1)/(t-3)", "1/2", "8..40", ILOG2_DIGEST),
        "ilog2-moebius-4-2": ("1; t^ilog2(a); (t+4)/(t-2)", "1/2", "8..40", ILOG2_DIGEST),
    }

    @pytest.mark.parametrize("name", sorted(SPACE_FAMILIES))
    def test_spaces_output_digest(self, capsys, name):
        """sha256 of the stdout of `choose-s`, then `lspace` at s and at s+1."""
        xis, delta, window, digest = self.SPACE_FAMILIES[name]
        code, chosen, _ = run_cli(
            capsys, "choose-s", "--xis", xis, "--delta", delta, "--window", window
        )
        assert code == 0
        s = int(chosen)
        text = chosen
        for degree in (s, s + 1):
            code, out, _ = run_cli(
                capsys, "lspace", "--xis", xis, "--s", str(degree), "--window", window
            )
            assert code == 0
            text += out
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_degree_0_evaluates_no_generator(self, capsys):
        code, out, err = run_cli(
            capsys, "lspace", "--xis", "1/(a-3); t", "--s", "0", "--window", "1..5"
        )
        assert (code, out, err) == (0, "l(0) = 1\n0 0\n", "")

    @pytest.mark.parametrize(
        "argv",
        [
            ["lspace", "--xis", "1/(a-3); t", "--s", "1", "--window", "1..5"],
            ["lspace", "--xis", "t; 1/(a-3)", "--s", "2", "--window", "1..5"],
            ["choose-s", "--xis", "1; 1/(a-3)", "--delta", "1/2", "--window", "1..5"],
        ],
    )
    def test_unevaluable_generator_exits_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", "error: at index 3: division by zero\n")

    def test_negative_s_max_exits_1(self, capsys):
        code, out, err = run_cli(
            capsys, "choose-s", "--xis", "1; t^a", "--delta", "1/2", "--window", "1..5", "--s-max", "-1"
        )
        assert (code, out, err) == (1, "", "error: s_max: must be a nonnegative integer\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["lspace", "--xis", "1; t^a", "--s", "1", "--window", "1..10001"],
            ["choose-s", "--xis", "1; t^a", "--delta", "1/2", "--window", "0..10000"],
            ["generate", "fixed-fermat", "--window", "1..10001"],
        ],
    )
    def test_window_cap_exits_1(self, capsys, no_long_windows, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", "error: window: 10001 indices, more than the cap of 10000\n")

    def test_monomial_cap_exits_1(self, capsys, no_huge_monomial_lists):
        xis = "; ".join(f"t^{k}" for k in range(20))
        code, out, err = run_cli(capsys, "lspace", "--xis", xis, "--s", "30", "--window", "1..3")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "exceed the cap" in err


class TestExperimentCommands:
    @pytest.fixture
    def fermat_config(self, tmp_path):
        cfg = generate("fixed-fermat", window=(1, 15))
        path = tmp_path / "fermat.json"
        path.write_text(json.dumps(cfg.to_dict()))
        return str(path)

    def test_generate(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "fixed-fermat", "--window", "1..9")
        assert code == 0
        payload = json.loads(out)
        assert payload["M"] == 1 and payload["window"] == [1, 9]

    def test_verify_pass_csv(self, capsys, fermat_config):
        code, out, _ = run_cli(capsys, "verify", fermat_config, "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("alpha,h_x,lhs,rhs,ratio,excluded")
        assert len(lines) == 16

    def test_verify_json_and_window_override(self, capsys, fermat_config):
        code, out, _ = run_cli(
            capsys, "verify", fermat_config, "--format", "json", "--window", "1..5"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "PASS"
        assert len(payload["rows"]) == 5

    def test_window_override_over_the_cap(self, capsys, fermat_config, no_long_windows):
        code, out, err = run_cli(capsys, "verify", fermat_config, "--window", "1..10001")
        assert (code, out, err) == (1, "", "error: window: 10001 indices, more than the cap of 10000\n")

    def test_reduce_and_wang(self, capsys, fermat_config):
        code, out, _ = run_cli(capsys, "reduce", fermat_config)
        assert code == 0 and json.loads(out)["mode"] == "reduce"
        code, out, _ = run_cli(capsys, "wang", fermat_config)
        assert code == 0 and json.loads(out)["mode"] == "wang"

    def test_output_file(self, capsys, fermat_config, tmp_path):
        target = tmp_path / "report.csv"
        code, out, _ = run_cli(
            capsys, "verify", fermat_config, "--format", "csv", "-o", str(target)
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("alpha,")

    def test_fail_exit_2(self, capsys, tmp_path):
        data = {
            "M": 1,
            "q": 3,
            "S": ["t", "inf"],
            "points": ["1", "t^a"],
            "hyperplanes": [["1", "0"], ["0", "1"], ["t^5", "-1"]],
            "window": [1, 12],
            "epsilon": "1/2",
            "thresholds": {"smallness_delta": "3/4"},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        code, _, _ = run_cli(capsys, "verify", str(path), "--infinite-subset", "1")
        assert code == 2

    def test_refusal_exit_3(self, capsys, tmp_path):
        data = {
            "M": 1,
            "q": 4,
            "S": ["t", "inf"],
            "points": ["1", "t^a"],
            "hyperplanes": [["1", "0"], ["0", "1"], ["1", "t^a"], ["1", "-1"]],
            "window": [2, 30],
            "epsilon": "1/2",
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 3
        assert "refused" in err and "smallness" in err

    def test_overrides_are_validated(self, capsys, fermat_config):
        code, out, err = run_cli(capsys, "verify", fermat_config, "--epsilon", "-5")
        assert code == 1 and out == ""
        assert "epsilon: must be positive" in err
        code, out, err = run_cli(capsys, "verify", fermat_config, "--infinite-subset", "2")
        assert code == 1 and out == ""
        assert "infinite_subset" in err

    @pytest.mark.parametrize("mode", ["verify", "wang", "reduce"])
    @pytest.mark.parametrize("second", ["t", "2*t"])
    def test_duplicate_place_exit_1(self, capsys, tmp_path, mode, second):
        data = generate("fixed-fermat", window=(1, 20)).to_dict()
        data["S"] = ["t", second, "inf"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, mode, str(path))
        assert code == 1 and out == ""
        assert err == "error: S[1]: duplicate place t\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--m", "-1"], "M: must be an integer in [1, 4]"),
            (["--m", "7"], "M: must be an integer in [1, 4]"),
            (["--m", "1", "--q", "99"], "q: must be an integer in [M+1, 12]"),
        ],
    )
    def test_random_gp_rejects_its_shape_before_drawing(self, argv, message):
        # In a subprocess with a timeout, so that a generator that never
        # returns fails the test instead of hanging the suite.
        src = str(Path(ffdio.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys; from ffdio.cli import main; sys.exit(main(sys.argv[1:]))"
        done = subprocess.run(
            [sys.executable, "-c", code, "generate", "random-gp", *argv],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr == f"error: {message}\n"

    @pytest.mark.parametrize(
        "mode, coeff",
        [("verify", "1/(a-7)"), ("reduce", "1/(a-7)"), ("wang", "(a-7)/(a-7)")],
    )
    def test_unevaluable_hyperplane_index_is_excluded(self, capsys, tmp_path, mode, coeff):
        data = {
            "M": 1,
            "q": 3,
            "S": ["t", "inf"],
            "points": ["1", "t^a"],
            "hyperplanes": [["1", "0"], ["0", "1"], ["1", coeff]],
            "window": [1, 20],
            "epsilon": "1/2",
            "thresholds": {"smallness_delta": "3/4"},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, mode, str(path))
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["verdict"] == "PASS"
        excluded = {r["alpha"]: r["note"] for r in report["rows"] if r["excluded"]}
        assert excluded[7] == "at index 7: division by zero"
        assert report["probes"]["general_position"]["failing_indices"] == []
        assert 7 in report["probes"]["smallness"]["exceptions"]

    def test_seed_is_not_a_run_flag(self, capsys, fermat_config):
        with pytest.raises(SystemExit) as exc:
            main(["verify", fermat_config, "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    def test_config_error_exit_1(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{\"M\": 1}")
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 1 and "error" in err

    def test_identity_violation_exit_4(self, capsys, fermat_config, monkeypatch):
        def broken_check(site, C):
            raise ExactIdentityError(
                f"transfer identity fails at place {site.place}, index {site.alpha}, row (0, 0)"
            )

        # run_reduction calls reduction.check_transfer by the name harness imported.
        monkeypatch.setattr(harness, "check_transfer", broken_check)
        code, out, err = run_cli(capsys, "reduce", fermat_config)
        assert code == 4 and out == ""
        assert err.startswith("identity violated: transfer identity fails at place ")
        assert ", index " in err and "Traceback" not in err
        assert len(err.splitlines()) == 1
