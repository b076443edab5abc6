from fractions import Fraction as F

import math

import pytest
from hypothesis import given, strategies as st
from mpmath import mp

from expasym.exactalg import Poly, format_rat
from expasym.functions import (
    SmoothFunction,
    parse_function,
    to_mpf,
)
from expasym.numeric import dot, from_fixed

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def mpf_close(a, b, eps):
    return abs(a - b) < eps


class TestConstruction:
    def test_polynomial_accepts_sequences(self):
        f = SmoothFunction.polynomial([1, 0, F(1, 2)])
        assert f.poly == Poly((1, 0, F(1, 2)))

    def test_monomial(self):
        assert SmoothFunction.monomial(3).poly == Poly((0, 0, 0, 1))
        with pytest.raises(ValueError):
            SmoothFunction.monomial(-1)

    def test_describe(self):
        assert SmoothFunction.exponential(1).describe() == "exp(1*t)"
        assert SmoothFunction.sinusoid(1, 0).describe() == "sin(1*t + 0)"
        assert SmoothFunction.monomial(2).describe() == "poly(t^2)"


class TestExactEvaluation:
    def test_polynomial_derivatives(self):
        f = SmoothFunction.polynomial([0, 0, 0, 1])  # t^3
        assert f.eval_exact(F(1, 2), 0) == F(1, 8)
        assert f.eval_exact(F(1, 2), 1) == F(3, 4)
        assert f.eval_exact(F(1, 2), 2) == 3
        assert f.eval_exact(F(1, 2), 4) == 0

    def test_transcendental_values_are_inexact(self):
        assert SmoothFunction.exponential(1).eval_exact(1) is None
        assert SmoothFunction.sinusoid(1, 0).eval_exact(F(1, 3)) is None

    def test_constant_exponential_is_exact(self):
        f = SmoothFunction.exponential(0)
        assert f.eval_exact(F(7, 3), 0) == 1
        assert f.eval_exact(F(7, 3), 5) == 0

    def test_as_poly(self):
        assert SmoothFunction.polynomial([1, 0, 2]).as_poly() == Poly((1, 0, 2))
        assert SmoothFunction.exponential(0).as_poly() == Poly.const(1)
        assert SmoothFunction.exponential(1).as_poly() is None
        assert SmoothFunction.sinusoid(1, 0).as_poly() is None


def reference_eval_exact(f: SmoothFunction, t, k: int) -> F:
    """The k-th derivative by the Poly.derivative chain, then Fraction
    Horner; eval_exact must give the same Fraction."""
    p = f.as_poly()
    for _ in range(k):
        p = p.derivative()
    return p(F(t))


class TestIntegerEvaluation:
    """eval_exact and the exact dot run on ints and reduce once; each must
    equal the Fraction computation it replaced."""

    @given(
        st.lists(rationals, max_size=7),
        rationals,
        st.integers(min_value=0, max_value=8),
    )
    def test_eval_exact_matches_reference(self, coeffs, t, k):
        f = SmoothFunction.polynomial(coeffs)
        got = f.eval_exact(t, k)
        assert got == reference_eval_exact(f, t, k)
        assert type(got) is F

    @pytest.mark.parametrize("t", [0, 3, -2, F(-4097, 16), F(5, 7)])
    @pytest.mark.parametrize("k", range(7))
    def test_eval_exact_cases(self, t, k):
        # degree 4 with mixed denominators; k = 5, 6 pass the degree
        f = SmoothFunction.polynomial([F(-3, 8), 5, 0, F(7, 6), F(-1, 4)])
        got = f.eval_exact(t, k)
        assert got == reference_eval_exact(f, t, k)
        assert type(got) is F

    @pytest.mark.parametrize("k", range(3))
    def test_zero_polynomial_and_constant_exponential(self, k):
        cases = (
            (SmoothFunction.polynomial([]), 0),
            (SmoothFunction.exponential(0), int(k == 0)),
        )
        for f, want in cases:
            got = f.eval_exact(F(-5, 3), k)
            assert got == want and type(got) is F

    @given(
        st.lists(
            st.tuples(rationals | st.integers(-9, 9), rationals | st.integers(-9, 9)),
            max_size=8,
        )
    )
    def test_exact_dot_matches_reference(self, pairs):
        weights = [w for w, _v in pairs]
        values = [v for _w, v in pairs]
        got = dot(weights, values, None)
        assert got == sum((F(w) * F(v) for w, v in pairs), F(0))
        assert type(got) is F

    def test_dot_with_an_mpf_value_stays_on_mpf(self):
        got = dot([1, F(1, 2)], [F(1, 3), mp.mpf(2)], 64)
        assert isinstance(got, mp.mpf)
        with mp.workprec(128):
            assert mpf_close(got, mp.mpf(4) / 3, mp.mpf(2) ** -90)


class TestMpfEvaluation:
    def test_exp_derivative_scaling(self):
        f = SmoothFunction.exponential(F(1, 2))
        with mp.workprec(128):
            got = f.eval_mpf(F(2), 3)
            want = to_mpf(F(1, 8)) * mp.exp(1)
            assert mpf_close(got, want, mp.mpf(2) ** -100)

    def test_sin_cycle(self):
        f = SmoothFunction.sinusoid(1, 0)
        with mp.workprec(128):
            t = to_mpf(F(3, 7))
            eps = mp.mpf(2) ** -100
            assert mpf_close(f.eval_mpf(t, 1), mp.cos(t), eps)
            assert mpf_close(f.eval_mpf(t, 2), -mp.sin(t), eps)
            assert mpf_close(f.eval_mpf(t, 3), -mp.cos(t), eps)
            assert mpf_close(f.eval_mpf(t, 4), mp.sin(t), eps)

    def test_sin_rate_powers(self):
        f = SmoothFunction.sinusoid(2, F(1, 3))
        with mp.workprec(128):
            t = to_mpf(F(1, 5))
            got = f.eval_mpf(t, 2)
            want = -4 * mp.sin(2 * t + to_mpf(F(1, 3)))
            assert mpf_close(got, want, mp.mpf(2) ** -100)


class TestValuesIter:
    """values_iter yields floor(f(j step) 2^bits) as ints, bits = mp.prec."""

    @given(
        st.sampled_from(["poly", "exp", "sin"]),
        st.integers(min_value=2, max_value=40),
    )
    def test_stream_matches_pointwise(self, kind, denom):
        if kind == "poly":
            f = SmoothFunction.polynomial([1, -2, F(1, 3)])
        elif kind == "exp":
            f = SmoothFunction.exponential(F(1, 2))
        else:
            f = SmoothFunction.sinusoid(1, F(1, 4))
        step = F(1, denom)
        with mp.workprec(192):
            stream = f.values_iter(step)
            eps = mp.mpf(2) ** -150
            for j in range(64):
                assert mpf_close(from_fixed(next(stream), 192), f.eval_mpf(j * step), eps)

    def test_exp_stream_long_range_drift(self):
        # the running product must stay accurate over thousands of steps
        f = SmoothFunction.exponential(1)
        with mp.workprec(288):
            stream = f.values_iter(F(1, 512))
            for _ in range(4096):
                last = next(stream)
            want = mp.exp(to_mpf(F(4095, 512)))
            assert mpf_close(from_fixed(last, 288), want, mp.mpf(2) ** -250)

    @pytest.mark.parametrize("bits", [64, 96, 288])
    @pytest.mark.parametrize("step", [F(1, 7), F(-1, 4096), F(5, 3), F(-22, 9)])
    @pytest.mark.parametrize(
        "coeffs",
        [
            [F(0)],
            [F(-7, 3)],
            [1, -2, F(1, 3)],
            [F(1, 8), F(-3, 4), F(5, 8), F(-1, 2), F(3, 8), F(2, 7), F(-9, 11), F(1, 5), F(-4, 3)],
            [F(j - 6, j + 1) for j in range(13)],
        ],
    )
    def test_polynomial_stream_is_exact_floor(self, coeffs, step, bits):
        f = SmoothFunction.polynomial(coeffs)
        p = f.poly
        with mp.workprec(bits):
            stream = f.values_iter(step)
            for j in range(200):
                assert next(stream) == math.floor(p(j * step) * 2**bits)


class TestShifted:
    @given(st.sampled_from(["poly", "exp", "sin"]), rationals, rationals)
    def test_factor_times_shifted_is_translate(self, kind, h, t):
        if kind == "poly":
            f = SmoothFunction.polynomial([1, -2, F(1, 3), F(5, 7)])
        elif kind == "exp":
            f = SmoothFunction.exponential(F(3, 2))
        else:
            f = SmoothFunction.sinusoid(F(5, 4), F(1, 3))
        with mp.workprec(192):
            factor, g = f.shifted(h)
            assert mpf_close(factor * g.eval_mpf(t), f.eval_mpf(t + h), mp.mpf(2) ** -150)

    def test_polynomial_shift_is_exact(self):
        f = SmoothFunction.polynomial([1, -2, F(1, 3)])
        _, g = f.shifted(F(5, 2))
        for t in (F(0), F(1, 3), F(-7, 2)):
            assert g.eval_exact(t) == f.eval_exact(t + F(5, 2))


class TestMajorant:
    @given(st.lists(rationals, min_size=1, max_size=5), st.integers(0, 64))
    def test_polynomial_bound_holds(self, coeffs, tnum):
        f = SmoothFunction.polynomial(coeffs)
        C, d, a = f.halfline_majorant()
        assert a == 0
        t = F(tnum, 7)
        assert abs(f.eval_exact(t)) <= C * (1 + t) ** d

    def test_exponential_rate(self):
        assert SmoothFunction.exponential(3).halfline_majorant() == (1, 0, 3)
        assert SmoothFunction.exponential(-2).halfline_majorant() == (1, 0, 0)

    def test_sin_is_unit_bounded(self):
        assert SmoothFunction.sinusoid(5, 1).halfline_majorant() == (1, 0, 0)

    def test_zero_polynomial_keeps_positive_constant(self):
        C, d, a = SmoothFunction.polynomial([0]).halfline_majorant()
        assert C > 0


class TestParse:
    def test_poly_round_trip(self):
        f = parse_function("poly:1,-1/2,3")
        assert f.poly == Poly((1, F(-1, 2), 3))
        assert f == SmoothFunction.polynomial([1, F(-1, 2), 3])

    def test_exp_round_trip(self):
        f = parse_function("exp:-3/2")
        assert f.a == F(-3, 2)
        assert f == SmoothFunction.exponential(F(-3, 2))

    def test_sin_round_trip(self):
        f = parse_function("sin:2,1/3")
        assert (f.a, f.b) == (2, F(1, 3))
        assert f == SmoothFunction.sinusoid(2, F(1, 3))

    @pytest.mark.parametrize(
        "bad",
        ["", "poly", "poly:", "exp:1,2", "sin:1", "cosh:1", "poly:a,b", "exp:1/0"],
    )
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_function(bad)

    @given(st.lists(rationals, min_size=1, max_size=4))
    def test_spec_text_round_trips_polynomials(self, coeffs):
        f = SmoothFunction.polynomial(coeffs)
        spec = "poly:" + ",".join(format_rat(c) for c in coeffs)
        assert parse_function(spec).poly == f.poly
