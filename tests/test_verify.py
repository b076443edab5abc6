import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from expasym import verify
from expasym.exactalg import MomentPoly
from expasym.functions import SmoothFunction, to_mpf
from expasym.moments import central_moments
from expasym.families import (
    BASKAKOV,
    BERNSTEIN,
    FAMILIES,
    GAUSS_WEIERSTRASS,
    SZASZ,
)
from expasym.numeric import DEFAULT_TOL
from expasym.operators import PrecisionTooLow, bernstein_eval
from expasym.verify import (
    AllResidualsZero,
    GridNotDyadic,
    PhiVanishes,
    RATIO_BAND,
    fit_order,
    ode_identity_check,
    psi_m_derivative_identity_check,
    residual_study,
    richardson,
    voronovskaja_study,
)

E2 = SmoothFunction.monomial(2)
E3 = SmoothFunction.monomial(3)
E4 = SmoothFunction.monomial(4)


@pytest.fixture(autouse=True)
def _wide_ambient_precision():
    with mp.workprec(320):
        yield


class TestFitOrder:
    def test_recovers_exact_power_law(self):
        grid = (8, 16, 32, 64, 128)
        residuals = [F(3, n**2) for n in grid]
        slope, r_squared = fit_order(grid, residuals)
        assert abs(slope + 2) < 1e-9
        assert r_squared == 1.0

    def test_floor_excludes_noise_points(self):
        grid = (8, 16, 32, 64)
        residuals = [F(1, 8), F(1, 32), F(1, 128), F(1, 10**41)]
        slope, _ = fit_order(grid, residuals, floor=F(1, 10**30))
        # the floored last point would otherwise wreck the fit
        assert abs(slope + 2) < 1e-9

    def test_all_floored_raises(self):
        with pytest.raises(AllResidualsZero):
            fit_order((8, 16, 32), [F(0), F(0), F(0)], floor=F(1, 100))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fit_order((8, 16), [F(1)])

    def test_too_few_surviving_points(self):
        with pytest.raises(ValueError):
            fit_order((8, 16), [F(1, 8), F(1, 16)])


class TestResidualStudy:
    def test_bernstein_polynomial_exactness(self):
        # degree <= 2q: the expansion terminates, residuals vanish exactly
        report = residual_study(BERNSTEIN, E2, F(2, 5), 0, 1, (4, 8, 16, 32))
        assert report.passed
        assert report.fitted_order is None
        assert report.r_squared is None
        assert all(res == 0 for res in report.residuals)
        assert all(t is None for t in report.ratio_track)

    def test_bernstein_quartic_decays_one_order_past_q(self):
        report = residual_study(BERNSTEIN, E4, F(2, 5), 0, 1, (16, 32, 64, 128, 256))
        assert report.passed
        assert report.fitted_order <= -1.75
        assert report.r_squared >= 0.98

    def test_derivative_study(self):
        report = residual_study(BERNSTEIN, E4, F(1, 3), 2, 1, (16, 32, 64, 128, 256))
        assert report.passed
        assert report.fitted_order <= -1.75

    def test_szasz_sinusoid(self):
        f = SmoothFunction.sinusoid(1, 0)
        report = residual_study(SZASZ, f, F(1), 1, 1, (64, 128, 256, 512))
        assert report.passed
        assert report.fitted_order <= -1.75
        assert report.r_squared >= 0.98

    @pytest.mark.parametrize(
        "grid, tol, order",
        [
            ((2048, 4096, 8192), DEFAULT_TOL, None),
            ((2048, 4096, 8192), F(1, 10**60), -7),
            ((256, 512, 1024, 2048), DEFAULT_TOL, -7),
            ((256, 512, 1024), DEFAULT_TOL, -7),
            ((512, 1024, 2048), DEFAULT_TOL, None),
        ],
    )
    def test_noise_floor_scales_with_tol(self, grid, tol, order):
        # the q = 6 residuals (~3.4e-26 at n = 256 down to ~1.0e-36) sink
        # below 16 tol from n = 1024 at the default tol, where the sum is
        # only that accurate; a finer tol resolves them and the fit recovers
        # order -(q + 1).  With one or two left above the floor there is too
        # little to fit: two give their slope, one gives no order
        f = SmoothFunction.exponential(1)
        report = residual_study(BERNSTEIN, f, F(2, 5), 0, 6, grid, tol=tol)
        assert report.passed
        if order is None:
            assert report.fitted_order is None
        else:
            assert abs(report.fitted_order - order) < 0.05

    def test_exact_residuals_are_not_floored(self):
        # t^15 / 10^20 with q = 7: the exact residuals (~1e-38) sit far
        # below 16 tol but carry no evaluator error, so they are fitted
        f = SmoothFunction.polynomial([0] * 15 + [F(1, 10**20)])
        report = residual_study(BERNSTEIN, f, F(2, 5), 0, 7, (256, 512, 1024))
        assert all(0 < abs(res) < 16 * DEFAULT_TOL for res in report.residuals)
        assert report.passed
        assert abs(report.fitted_order + 8) < 0.05

    def test_q_zero_rejected(self):
        with pytest.raises(ValueError):
            residual_study(BERNSTEIN, E2, F(1, 2), 0, 0, (8, 16))

    def test_endpoint_rejected(self):
        with pytest.raises(ValueError, match="interior"):
            residual_study(BERNSTEIN, E2, F(0), 0, 1, (8, 16))

    def test_decreasing_grid_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            residual_study(BERNSTEIN, E2, F(1, 2), 0, 1, (16, 8))

    def test_values_minus_predictions_equals_residuals(self):
        report = residual_study(BERNSTEIN, E4, F(1, 2), 0, 1, (8, 16, 32, 64))
        for v, p, res in zip(report.values, report.predictions, report.residuals):
            assert v - p == res


class TestVoronovskajaStudy:
    def test_bernstein_cube_halving_ratios(self):
        report = voronovskaja_study(BERNSTEIN, E3, F(1, 3), 1, (8, 16, 32, 64, 128))
        assert report.passed
        assert report.predictions == tuple([F(1)] * 5)
        upper = report.ratio_track[len(report.ratio_track) // 2 :]
        assert all(t == 0.5 for t in upper)

    def test_linear_function_trivial_pass(self):
        f = SmoothFunction.polynomial([3, -2])
        report = voronovskaja_study(SZASZ, f, F(1), 0, (8, 16, 32, 64))
        assert report.passed
        assert all(abs(to_mpf(F(d)) if isinstance(d, F) else d) < 1 for d in report.residuals)
        assert report.fitted_order is None

    def test_szasz_exponential(self):
        f = SmoothFunction.exponential(1)
        report = voronovskaja_study(SZASZ, f, F(1), 0, (64, 128, 256, 512, 1024))
        assert report.passed
        want = mp.exp(1) / 2
        assert abs(report.predictions[0] - want) < mp.mpf(2) ** -200

    def test_gauss_weierstrass(self):
        report = voronovskaja_study(
            GAUSS_WEIERSTRASS, E4, F(1, 2), 0, (8, 16, 32, 64, 128)
        )
        assert report.passed

    def test_band_constants_are_sane(self):
        lo, hi = RATIO_BAND
        assert 0 < lo < 0.5 < hi < 1

    def test_endpoint_rejected(self):
        with pytest.raises(ValueError, match="interior"):
            voronovskaja_study(BERNSTEIN, E3, F(1), 1, (8, 16))


poly_f = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    min_size=1,
    max_size=5,
).map(SmoothFunction.polynomial)


class TestOdeIdentity:
    @given(
        poly_f,
        st.integers(min_value=2, max_value=20),
        st.fractions(min_value=F(1, 8), max_value=F(7, 8), max_denominator=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_bernstein_defect_is_exactly_zero(self, f, n, x):
        defect = ode_identity_check(BERNSTEIN, f, n, x)
        assert isinstance(defect, F)
        assert defect == 0

    def test_szasz_defect_below_bound(self):
        defect = ode_identity_check(SZASZ, E3, 16, F(3, 4))
        assert abs(defect) < 10 * to_mpf(DEFAULT_TOL)

    def test_baskakov_defect_below_bound(self):
        defect = ode_identity_check(BASKAKOV, E2, 12, F(1, 2))
        assert abs(defect) < 10 * to_mpf(DEFAULT_TOL)

    def test_phi_zero_rejected(self):
        with pytest.raises(PhiVanishes):
            ode_identity_check(SZASZ, E2, 8, F(0))

    def test_non_polynomial_rejected(self):
        with pytest.raises(ValueError, match="polynomial"):
            ode_identity_check(BERNSTEIN, SmoothFunction.exponential(1), 8, F(1, 2))


def reference_psi_m_left_side(family, f, m, n, x):
    """d/dx S_n(psi_x^m f)(x) by rebuilding sum_j mu_{n,m+j} f^{(j)}/j! as
    one MomentPoly and differentiating it."""
    degree = max(f.poly.degree, 0)
    table = central_moments(family, m + degree + 1)
    symbolic = MomentPoly()
    for j in range(degree + 1):
        taylor_coeff = f.derivative_poly(j) * F(1, math.factorial(j))
        symbolic = symbolic + table.moment(m + j) * taylor_coeff
    return symbolic.dx().eval(n, x)


class TestPsiMIdentity:
    @pytest.mark.parametrize("family_id", sorted(FAMILIES))
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_left_side_equals_the_rebuilt_moment_poly(self, monkeypatch, family_id, m):
        # with every operator value 0, the defect is the left side alone
        monkeypatch.setattr(verify, "operator_eval", lambda *args, **kwargs: F(0))
        family = FAMILIES[family_id]
        points = {"bernstein": (F(1, 3), F(5, 8)), "gauss_weierstrass": (F(-2), F(3, 7))}
        for degree in range(6):
            f = SmoothFunction.polynomial([F((-1) ** i * (i + 2), i + 1) for i in range(degree + 1)])
            for n in (3, 17, 64):
                for x in points.get(family_id, (F(1, 3), F(5, 2))):
                    got = psi_m_derivative_identity_check(family, f, m, n, x)
                    want = reference_psi_m_left_side(family, f, m, n, x)
                    assert type(got) is F and got == want

    @pytest.mark.parametrize("family", [BERNSTEIN, SZASZ, BASKAKOV], ids=lambda fam: fam.id)
    @pytest.mark.parametrize("m", [1, 2])
    def test_defects_across_degrees(self, family, m):
        for degree in range(5):
            f = SmoothFunction.polynomial([F(i - 2, 3) for i in range(degree)] + [1])
            defect = psi_m_derivative_identity_check(family, f, m, 12, F(2, 5))
            if family is BERNSTEIN:
                assert type(defect) is F and defect == 0
            else:
                assert abs(defect) < 10 * to_mpf(DEFAULT_TOL)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_bernstein_exact_zero(self, m):
        defect = psi_m_derivative_identity_check(BERNSTEIN, E2, m, 9, F(1, 3))
        assert isinstance(defect, F)
        assert defect == 0

    def test_gauss_weierstrass_constant(self):
        one = SmoothFunction.polynomial([1])
        defect = psi_m_derivative_identity_check(GAUSS_WEIERSTRASS, one, 2, 8, F(1, 2))
        assert abs(defect) < 10 * to_mpf(DEFAULT_TOL)

    def test_szasz_below_bound(self):
        defect = psi_m_derivative_identity_check(SZASZ, E2, 2, 16, F(1, 2))
        assert abs(defect) < 10 * to_mpf(DEFAULT_TOL)

    def test_baskakov_below_bound(self):
        defect = psi_m_derivative_identity_check(BASKAKOV, E2, 1, 8, F(1))
        assert abs(defect) < 10 * to_mpf(DEFAULT_TOL)

    def test_m_zero_rejected(self):
        with pytest.raises(ValueError, match="m = 0"):
            psi_m_derivative_identity_check(BERNSTEIN, E2, 0, 8, F(1, 2))

    def test_phi_zero_rejected(self):
        with pytest.raises(PhiVanishes):
            psi_m_derivative_identity_check(BERNSTEIN, E2, 1, 8, F(1))

    def test_precision_refusal_names_the_callers_tol(self):
        # m = 2: 1e-30/(32*(32 + 4)) per operator value is beyond 64 bits
        want = r"^identity tol 1\.0e-30 becomes tol/\(32\*\(32 \+ 4\)\) = 8\.68e-34 per"
        with pytest.raises(PrecisionTooLow, match=want) as info:
            psi_m_derivative_identity_check(
                SZASZ, E2, 2, 32, F(1), tol=F(1, 10**30), prec=64
            )
        assert isinstance(info.value.__cause__, PrecisionTooLow)


class TestRichardson:
    def test_single_level_removes_first_order(self):
        grid = (8, 16)
        values = [1 - F(1, n) for n in grid]
        levels = richardson(grid, values, (1,))
        assert levels[0] == values
        assert levels[1] == [F(1)]

    def test_two_levels_remove_both_orders(self):
        grid = (4, 8, 16)
        values = [1 + F(1, n) + F(3, n**2) for n in grid]
        levels = richardson(grid, values, (1, 2))
        assert levels[1] == [1 - F(3, 2 * n**2) for n in (4, 8)]
        assert levels[2] == [F(1)]

    def test_float_branch_agrees_with_exact(self):
        grid = (4, 8, 16)
        exact = [1 + F(1, n) + F(3, n**2) for n in grid]
        inexact = [to_mpf(v) for v in exact]
        levels = richardson(grid, inexact, (1, 2), prec=256)
        assert abs(levels[2][0] - 1) < mp.mpf(2) ** -230

    def test_non_dyadic_rejected(self):
        with pytest.raises(GridNotDyadic):
            richardson((8, 17), [F(1), F(1)], (1,))

    def test_too_many_orders_rejected(self):
        with pytest.raises(ValueError, match="too many"):
            richardson((8, 16), [F(1), F(1)], (1, 2))

    def test_nonpositive_order_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            richardson((8, 16, 32), [F(1)] * 3, (0,))

    def test_short_grid_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            richardson((8,), [F(1)], ())


class TestReports:
    def _sample(self):
        return residual_study(BERNSTEIN, E4, F(1, 2), 0, 1, (8, 16, 32, 64))

    def test_json_keys(self):
        payload = self._sample().to_json_dict()
        assert set(payload) == {
            "family",
            "f",
            "x",
            "r",
            "q",
            "grid",
            "values",
            "predictions",
            "residuals",
            "fitted_order",
            "r_squared",
            "ratio_track",
            "pass",
        }
        assert payload["family"] == "bernstein"
        assert payload["x"] == "1/2"
        json.dumps(payload)  # must be serialisable as-is

    def test_csv_shape(self):
        text = self._sample().to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "n,value,prediction,residual,ratio"
        assert len(lines) == 5
        first_row = lines[1].split(",")
        assert first_row[0] == "8"
        assert first_row[-1] == ""  # no ratio on the first point

    def test_text_renders_verdict(self):
        text = self._sample().to_text()
        assert "pass: true" in text

    def test_deterministic(self):
        a = json.dumps(self._sample().to_json_dict(), sort_keys=True)
        b = json.dumps(self._sample().to_json_dict(), sort_keys=True)
        assert a == b

    def test_unfitted_order_labels(self):
        # every residual at or below the floor reads as exact; residuals
        # above it that are too few to fit read as not fitted
        linear = SmoothFunction.polynomial([3, -2])
        exp1 = SmoothFunction.exponential(1)
        exact = voronovskaja_study(SZASZ, linear, F(1), 0, (8, 16, 32))
        assert "fitted order: exact  r^2: -" in exact.to_text()
        short = voronovskaja_study(SZASZ, exp1, F(1), 0, (64, 128))
        assert short.fitted_order is None and short.passed
        assert "fitted order: not fitted  r^2: -" in short.to_text()
        one_left = residual_study(BERNSTEIN, exp1, F(2, 5), 0, 6, (512, 1024, 2048))
        assert one_left.fitted_order is None
        assert "fitted order: not fitted  r^2: -" in one_left.to_text()

    def test_exact_values_render_as_rationals(self):
        payload = self._sample().to_json_dict()
        got = payload["values"][0]
        want = bernstein_eval(E4, 8, F(1, 2))
        assert got == f"{want.numerator}/{want.denominator}"
