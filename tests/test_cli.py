"""End-to-end runs of the command-line front end via subprocess."""

import json
import subprocess
import sys

import pytest


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "expasym.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)


class TestMoments:
    def test_text_table(self):
        proc = run_cli("moments", "--family", "bernstein", "--s-max", "4")
        assert proc.returncode == 0
        assert proc.stdout == (
            "mu[0] = 1\n"
            "mu[1] = 0\n"
            "mu[2] = (1/n)*x + (-1/n)*x^2\n"
            "mu[3] = (1/n^2)*x + (-3/n^2)*x^2 + (2/n^2)*x^3\n"
            "mu[4] = (1/n^3)*x + ((-7 + 3*n)/n^3)*x^2"
            " + ((12 - 6*n)/n^3)*x^3 + ((-6 + 3*n)/n^3)*x^4\n"
        )

    def test_json_expansion_terms(self):
        proc = run_cli("moments", "--family", "bernstein", "--s-max", "2", "--format", "json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload[2] == {
            "family": "bernstein",
            "s": 2,
            "moment": "(1/n)*x + (-1/n)*x^2",
            "terms": [{"j": 1, "g": "x - x^2"}],
        }

    def test_csv_header(self):
        proc = run_cli("moments", "--family", "szasz", "--s-max", "3", "--format", "csv")
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "s,j,g"
        assert "2,1,x" in lines

    def test_negative_s_max_rejected(self):
        proc = run_cli("moments", "--family", "szasz", "--s-max", "-1")
        assert proc.returncode == 2
        assert "s-max" in proc.stderr


class TestEvaluate:
    def test_second_monomial_shift(self):
        proc = run_cli("evaluate", "--family", "szasz", "--f", "poly:0,0,1", "--x", "1", "--n", "10")
        assert proc.returncode == 0
        assert proc.stdout == "1.1\n"

    def test_exact_rational_output(self):
        proc = run_cli("evaluate", "--family", "bernstein", "--f", "poly:0,0,1", "--x", "1/2", "--n", "4")
        assert proc.returncode == 0
        assert proc.stdout == "5/16\n"

    def test_constant_exponential_prints_exact(self):
        # exp:0 is the constant 1, so the direct sum is exact like the expansion side
        for side in ([], ["--side", "expansion", "--q", "2"]):
            proc = run_cli(
                "evaluate", "--family", "bernstein", "--f", "exp:0",
                "--x", "1/2", "--n", "64", *side,
            )
            assert proc.returncode == 0
            assert proc.stdout == "1\n"

    def test_json_carries_settings(self):
        proc = run_cli(
            "evaluate", "--family", "bernstein", "--f", "poly:0,0,1",
            "--x", "1/2", "--n", "4", "--format", "json",
        )
        payload = json.loads(proc.stdout)
        assert payload["value"] == "5/16"
        assert payload["precision_bits"] == 256
        assert payload["quad_order"] == 64
        assert payload["tol"].startswith("1/1")

    def test_truncated_side(self):
        proc = run_cli(
            "evaluate", "--family", "bernstein", "--f", "poly:0,0,1",
            "--x", "1/2", "--n", "4", "--side", "truncated", "--q", "1",
        )
        assert proc.returncode == 0
        assert proc.stdout == "5/16\n"

    def test_truncated_with_derivative_rejected(self):
        proc = run_cli(
            "evaluate", "--family", "bernstein", "--f", "poly:0,0,1",
            "--x", "1/2", "--n", "4", "--side", "truncated", "--q", "1", "--r", "1",
        )
        assert proc.returncode == 2
        assert "--r 0" in proc.stderr

    def test_outside_domain_is_usage_error(self):
        proc = run_cli("evaluate", "--family", "bernstein", "--f", "poly:1", "--x", "3", "--n", "4")
        assert proc.returncode == 2
        assert "outside" in proc.stderr

    def test_growth_rejection_is_usage_error(self):
        proc = run_cli("evaluate", "--family", "baskakov", "--f", "exp:8", "--x", "1", "--n", "8")
        assert proc.returncode == 2
        assert "GrowthBoundViolated" in proc.stderr

    def test_negative_point_as_separate_token(self):
        common = ("evaluate", "--family", "gauss_weierstrass", "--f", "exp:1", "--n", "64")
        spaced = run_cli(*common, "--x", "-5/64")
        joined = run_cli(*common, "--x=-5/64")
        assert spaced.returncode == 0, spaced.stderr
        assert spaced.stdout == joined.stdout


class TestExpansion:
    def test_first_coefficient(self):
        proc = run_cli("expansion", "--family", "bernstein", "--q", "1", "--format", "json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload[0]["terms"] == [{"s": 0, "poly": "1"}]
        assert payload[1] == {
            "family": "bernstein",
            "k": 1,
            "terms": [{"s": 2, "poly": "1/2*x - 1/2*x^2"}],
        }

    def test_text_form(self):
        proc = run_cli("expansion", "--family", "szasz", "--q", "2")
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "a[0] = s=0: 1"
        assert lines[1] == "a[1] = s=2: 1/2*x"


class TestVerify:
    def test_residual_decay_passes(self):
        proc = run_cli(
            "verify", "--family", "bernstein", "--f", "exp:1",
            "--x", "2/5", "--r", "2", "--q", "1", "--grid", "64:6",
            "--format", "json",
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["pass"] is True
        assert payload["fitted_order"] <= -1.75
        assert payload["r_squared"] >= 0.98

    def test_csv_is_plot_ready(self):
        proc = run_cli(
            "verify", "--family", "bernstein", "--f", "poly:0,0,0,0,1",
            "--x", "1/2", "--q", "1", "--grid", "8:4", "--format", "csv",
        )
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "n,value,prediction,residual,ratio"
        assert len(lines) == 5

    def test_missing_q_is_usage_error(self):
        proc = run_cli(
            "verify", "--family", "bernstein", "--f", "exp:1",
            "--x", "2/5", "--grid", "64:3",
        )
        assert proc.returncode == 2


class TestVoronovskaja:
    def test_limit_defect_study(self):
        proc = run_cli(
            "voronovskaja", "--family", "bernstein", "--f", "poly:0,0,0,1",
            "--x", "1/3", "--r", "1", "--grid", "8:5", "--format", "json",
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["pass"] is True
        assert payload["predictions"] == ["1"] * 5


class TestExtrapolate:
    def test_ladder_text(self):
        proc = run_cli(
            "extrapolate", "--family", "bernstein", "--f", "poly:0,0,0,1",
            "--x", "1/3", "--grid", "8:3", "--orders", "1",
        )
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")
        assert lines[0].startswith("level 0:")
        assert lines[1].startswith("level 1:")

    def test_ladder_too_long(self):
        proc = run_cli(
            "extrapolate", "--family", "bernstein", "--f", "poly:0,0,0,1",
            "--x", "1/3", "--grid", "8:2", "--orders", "1,2",
        )
        assert proc.returncode == 2
        assert "orders" in proc.stderr


class TestIdentities:
    def test_polynomial_identities_pass(self):
        proc = run_cli(
            "identities", "--family", "bernstein", "--f", "poly:0,0,1",
            "--x", "1/2", "--n", "8", "--m-max", "2",
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().endswith("pass: true")
        assert "ode: defect = 0" in proc.stdout

    def test_low_precision_fails_tight_tol(self):
        proc = run_cli(
            "identities", "--family", "szasz", "--f", "poly:0,0,1",
            "--x", "1", "--n", "32", "--precision-bits", "64", "--tol", "1e-30",
        )
        # the inner tol 1e-30/(32*34) is below 2^-64: refused, not summed
        # and failed; the message names the user's tol and that factor
        assert proc.returncode == 2
        assert "PrecisionTooLow" in proc.stderr
        assert "below the threshold 2^-64" in proc.stderr
        assert "identity tol 1.0e-30 becomes tol/(32*(32 + 2)) = 9.19e-34" in proc.stderr

    def test_transcendental_f_rejected(self):
        proc = run_cli(
            "identities", "--family", "bernstein", "--f", "exp:1",
            "--x", "1/2", "--n", "8",
        )
        assert proc.returncode == 2
        assert "polynomial" in proc.stderr


class TestConfigSurface:
    def test_env_precision_below_minimum(self):
        import os

        env = dict(os.environ, EXPASYM_PRECISION_BITS="32")
        proc = run_cli(
            "evaluate", "--family", "szasz", "--f", "poly:0,0,1",
            "--x", "1", "--n", "10", env=env,
        )
        assert proc.returncode == 2
        assert "below minimum" in proc.stderr

    def test_flag_overrides_env(self):
        import os

        env = dict(os.environ, EXPASYM_PRECISION_BITS="32")
        proc = run_cli(
            "evaluate", "--family", "szasz", "--f", "poly:0,0,1",
            "--x", "1", "--n", "10", "--precision-bits", "128", env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout == "1.1\n"

    def test_bad_function_spec(self):
        proc = run_cli("evaluate", "--family", "szasz", "--f", "poly:a,b", "--x", "1", "--n", "10")
        assert proc.returncode == 2

    def test_bad_grid_spec(self):
        proc = run_cli(
            "verify", "--family", "bernstein", "--f", "exp:1",
            "--x", "2/5", "--q", "1", "--grid", "64",
        )
        assert proc.returncode == 2
        assert "n0:levels" in proc.stderr

    def test_output_file(self, tmp_path):
        target = tmp_path / "table.csv"
        proc = run_cli(
            "moments", "--family", "szasz", "--s-max", "2",
            "--format", "csv", "--output", str(target),
        )
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert target.read_text().startswith("s,j,g\n")

    @pytest.mark.parametrize(
        "args",
        [
            ("moments", "--family", "baskakov", "--s-max", "6", "--format", "json"),
            (
                "verify", "--family", "bernstein", "--f", "poly:0,0,0,0,1",
                "--x", "1/2", "--q", "1", "--grid", "8:4", "--format", "json",
            ),
        ],
    )
    def test_byte_identical_reruns(self, args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


class TestImports:
    """A cold symbolic subcommand loads neither mpmath nor the float side."""

    PROBE = (
        "import sys\n"
        "from expasym.cli import main\n"
        "status = main(sys.argv[1:])\n"
        "heavy = ('mpmath', 'expasym.operators', 'expasym.functions', 'expasym.verify')\n"
        "print(status, [m for m in heavy if m in sys.modules], file=sys.stderr)\n"
    )

    @pytest.mark.parametrize(
        "args",
        [
            ("moments", "--family", "bernstein", "--s-max", "8", "--format", "json"),
            ("expansion", "--family", "szasz", "--q", "4"),
        ],
    )
    def test_symbolic_subcommands_load_no_float_code(self, args):
        cmd = [sys.executable, "-c", self.PROBE, *args]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        assert proc.stderr == "0 []\n"
        assert proc.stdout
