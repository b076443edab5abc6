"""Byte-for-byte CLI output, float and exact, against recorded stdout.

Each case runs in-process through ``cli.main`` in every output format and
must reproduce ``tests/golden/<case>.<format>`` exactly, with the recorded
exit status.  The cases are the README commands, three float-heavy
runs (a series identity defect, a quadrature value and a sinusoid
limit-defect study), one large-n exact Bernstein sum, one deeper moment
table and three Bernstein float runs (a large-n value, a sinusoid
derivative defect study and a deep residual study at a tight --tol), and
two studies whose residuals stay above the noise floor but are too few
to fit an order, so a change to number formatting, precision handling, summation order, tail
cuts or moment-table normalisation shows up here as a diff.
"""

from pathlib import Path

import pytest

from expasym import cli

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("text", "json", "csv")

# case name -> (argv, exit status)
CASES = {
    "moments_bernstein": (["moments", "--family", "bernstein", "--s-max", "4"], 0),
    "moments_baskakov_s12": (["moments", "--family", "baskakov", "--s-max", "12"], 0),
    "evaluate_szasz_poly": (
        ["evaluate", "--family", "szasz", "--f", "poly:0,0,1", "--x", "1", "--n", "10"],
        0,
    ),
    "verify_bernstein_exp": (
        ["verify", "--family", "bernstein", "--f", "exp:1", "--x", "2/5",
         "--r", "2", "--q", "1", "--grid", "64:6"],
        0,
    ),
    "voronovskaja_baskakov_exp": (
        ["voronovskaja", "--family", "baskakov", "--f", "exp:1", "--x", "1", "--grid", "64:5"],
        0,
    ),
    "extrapolate_bernstein_exp": (
        ["extrapolate", "--family", "bernstein", "--f", "exp:1", "--x", "2/5",
         "--grid", "64:6", "--orders", "1,2"],
        0,
    ),
    "identities_bernstein_poly": (
        ["identities", "--family", "bernstein", "--f", "poly:0,0,1", "--x", "1/2", "--n", "8"],
        0,
    ),
    "identities_szasz_poly": (
        ["identities", "--family", "szasz", "--f", "poly:0,0,1", "--x", "1", "--n", "32"],
        0,
    ),
    "evaluate_gauss_exp": (
        ["evaluate", "--family", "gauss_weierstrass", "--f", "exp:1", "--x", "1", "--n", "64"],
        0,
    ),
    "voronovskaja_szasz_sin": (
        ["voronovskaja", "--family", "szasz", "--f", "sin:1,0", "--x", "1",
         "--r", "1", "--grid", "64:4"],
        0,
    ),
    "evaluate_bernstein_poly_large_n": (
        ["evaluate", "--family", "bernstein", "--f", "poly:1/8,-3/4,5/8,-1/2,3/8",
         "--x", "7/16", "--n", "4096", "--r", "2"],
        0,
    ),
    "evaluate_bernstein_exp_large_n": (
        ["evaluate", "--family", "bernstein", "--f", "exp:1", "--x", "2/5",
         "--n", "4096", "--r", "2"],
        0,
    ),
    "voronovskaja_bernstein_sin": (
        ["voronovskaja", "--family", "bernstein", "--f", "sin:1,0", "--x", "1/3",
         "--r", "1", "--grid", "64:4"],
        0,
    ),
    # --tol must reach the sum, and the residual floor must scale with it
    "verify_bernstein_exp_tight_tol": (
        ["verify", "--family", "bernstein", "--f", "exp:1", "--x", "2/5",
         "--r", "0", "--q", "6", "--grid", "2048:3", "--tol", "1e-60"],
        0,
    ),
    # studies with residuals above the noise floor but too few to fit
    "verify_bernstein_exp_not_fitted": (
        ["verify", "--family", "bernstein", "--f", "exp:1", "--x", "2/5",
         "--r", "0", "--q", "6", "--grid", "512:3"],
        0,
    ),
    "voronovskaja_szasz_exp_not_fitted": (
        ["voronovskaja", "--family", "szasz", "--f", "exp:1", "--x", "1", "--grid", "64:2"],
        0,
    ),
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, fmt, capsys, monkeypatch):
    monkeypatch.delenv(cli.PRECISION_ENV, raising=False)
    argv, status = CASES[case]
    assert cli.main([*argv, "--format", fmt]) == status
    expected = (GOLDEN / f"{case}.{fmt}").read_text()
    assert capsys.readouterr().out == expected
