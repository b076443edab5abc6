import ast
import itertools
import math
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from expasym.exactalg import Poly, RatFuncN
from expasym.functions import SmoothFunction, parse_function, to_mpf
from expasym.families import (
    BASKAKOV,
    BERNSTEIN,
    FAMILIES,
    GAUSS_WEIERSTRASS,
    SZASZ,
    Interval,
    get_family,
    make_family,
)
from expasym.numeric import DEFAULT_TOL, working
from expasym.operators import (
    DerivativeOrderExceedsDegree,
    GrowthBoundViolated,
    PrecisionTooLow,
    QuadratureNotConverged,
    _bernstein_integer_sum,
    _growth_stretch,
    baskakov_eval,
    bernstein_eval,
    central_moment_direct,
    check_growth,
    forward_difference,
    gauss_weierstrass_eval,
    operator_eval,
    szasz_eval,
)

E2 = SmoothFunction.monomial(2)
E3 = SmoothFunction.monomial(3)
EXP1 = SmoothFunction.exponential(1)
TOL = DEFAULT_TOL


@pytest.fixture(autouse=True)
def _wide_ambient_precision():
    # comparisons happen at ambient precision; keep it above the evaluators'
    with mp.workprec(320):
        yield


def tol_mpf():
    return to_mpf(TOL)


class TestForwardDifference:
    def test_exact_on_polynomials(self):
        # second difference of t^2 with step h is exactly 2 h^2
        got = forward_difference(E2, F(1, 3), F(1, 7), 2)
        assert got == F(2, 49)

    def test_order_zero_is_evaluation(self):
        assert forward_difference(E3, F(1, 2), F(1, 5), 0) == F(1, 8)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            forward_difference(E2, F(0), F(1, 4), -1)

    def test_transcendental_difference(self):
        with mp.workprec(192):
            got = forward_difference(EXP1, F(0), F(1, 4), 1, prec=192)
            want = mp.exp(to_mpf(F(1, 4))) - 1
            assert abs(got - want) < mp.mpf(2) ** -150


def _stirling2_row(j):
    """S(j, 0..j), Stirling numbers of the second kind."""
    row = [1]
    for _ in range(j):
        nxt = [0] * (len(row) + 1)
        for i, value in enumerate(row):
            nxt[i] += i * value
            nxt[i + 1] += value
        row = nxt
    return row


def _bernstein_closed_form(coeffs, n, x, r):
    """(B_n f)^{(r)}(x) from B_n t^j = sum_i S(j,i) (n)_i x^i / n^j, the
    image as a polynomial in x differentiated r times, without any sum
    over the binomial weights."""
    image = [F(0)] * len(coeffs)
    for j, c in enumerate(coeffs):
        for i, stirling in enumerate(_stirling2_row(j)):
            image[i] += c * stirling * math.perm(n, i) / F(n**j)
    for _ in range(r):
        image = [i * c for i, c in enumerate(image)][1:]
    value = F(0)
    for c in reversed(image):
        value = value * x + c
    return value


def reference_bernstein_sum(p, n, r, x):
    """The integer Bernstein sum as one loop: the weight
    C(m,k) a^k (b-a)^(m-k) stepped by one exact division per k."""
    a, b = x.numerator, x.denominator
    degree = max(p.degree, 0)
    scale = math.lcm(*(c.denominator for c in p.coeffs))
    coeffs = [
        c.numerator * (scale // c.denominator) * n ** (degree - j)
        for j, c in enumerate(p.coeffs)
    ]
    coeffs.reverse()
    values = []
    for k in range(n + 1 if a else r + 1):
        acc = 0
        for c in coeffs:
            acc = acc * k + c
        values.append(acc)
    for _ in range(r):
        values = [v - u for u, v in zip(values, values[1:])]
    m = n - r
    rest = b - a
    weight = rest**m
    total = 0
    for k, value in enumerate(values):
        total += weight * value
        weight = weight * (m - k) * a // ((k + 1) * rest)  # 0 after k = m
    return F(total, b**m * scale * n**degree)


@st.composite
def bernstein_sums(draw):
    """(p, n, r, x): degree 0..8, n <= 300, r <= n, x = a/b in [0, 1)."""
    coefficient = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    coeffs = draw(st.lists(coefficient, min_size=1, max_size=9))
    n = draw(st.integers(min_value=1, max_value=300))
    r = draw(st.integers(min_value=0, max_value=n))
    b = draw(st.integers(min_value=1, max_value=10**6))
    a = draw(st.integers(min_value=0, max_value=b - 1))
    return Poly(tuple(coeffs)), n, r, F(a, b)


class TestBernsteinIntegerSum:
    """The binary-splitting sum against the weight loop it replaced."""

    @given(bernstein_sums())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_weight_loop(self, case):
        got, want = _bernstein_integer_sum(*case), reference_bernstein_sum(*case)
        assert type(got) is F and got == want

    QUARTIC = Poly((F(1, 8), F(-3, 4), F(5, 8), F(-1, 2), F(3, 8)))

    @pytest.mark.parametrize(
        "p, n, r, x",
        [
            (QUARTIC, 40, 2, F(0)),  # only the first term
            (QUARTIC, 40, 0, F(0)),
            (QUARTIC, 97, 2, F(996, 997)),  # a = b - 1, so b - a = 1
            (QUARTIC, 9, 9, F(2, 7)),  # r = n: m = 0, one term
            (Poly((F(1, 2), 3, -1, F(2, 9), 1, 0, -5)), 6, 6, F(1, 3)),
            (QUARTIC, 9, 8, F(2, 7)),  # r = n - 1: two terms
            (QUARTIC, 1, 0, F(5, 6)),  # n = 1
            (Poly((F(-5, 3),)), 33, 0, F(4, 11)),  # constant
            (Poly((F(-5, 3),)), 33, 3, F(4, 11)),
            (Poly(), 33, 0, F(4, 11)),  # zero polynomial
            (Poly(), 33, 33, F(4, 11)),
        ],
    )
    def test_edge_cases(self, p, n, r, x):
        got = _bernstein_integer_sum(p, n, r, x)
        assert type(got) is F and got == reference_bernstein_sum(p, n, r, x)

    def test_32_digit_denominator_at_large_n(self):
        # against the closed form only: the weight loop takes seconds here
        x = F(10**31 + 7, 3 * 10**31 + 11)
        got = bernstein_eval(SmoothFunction.polynomial(self.QUARTIC), 4096, x, 2)
        assert got == _bernstein_closed_form(list(self.QUARTIC.coeffs), 4096, x, 2)


class TestBernstein:
    def test_e2_frozen_value(self):
        assert bernstein_eval(E2, 2, F(1, 2)) == F(3, 8)

    def test_e2_derivative_frozen_value(self):
        assert bernstein_eval(E2, 4, F(1, 4), 1) == F(5, 8)

    def test_reproduces_second_moment_identity(self):
        # B_n e2 = e2 + x(1-x)/n, exact rationals throughout
        for n in (2, 5, 16):
            for x in (F(0), F(1, 3), F(2, 3), F(1)):
                want = x * x + x * (1 - x) / n
                assert bernstein_eval(E2, n, x) == want

    def test_constants_exact(self):
        one = SmoothFunction.polynomial([1])
        assert bernstein_eval(one, 7, F(2, 7)) == 1

    def test_endpoint_values(self):
        assert bernstein_eval(E3, 6, F(0)) == 0
        assert bernstein_eval(E3, 6, F(1)) == 1
        # (B_n f)'(0) = n (f(1/n) - f(0))
        assert bernstein_eval(E3, 5, F(0), 1) == 5 * F(1, 125)

    def test_derivative_order_above_n_rejected(self):
        with pytest.raises(DerivativeOrderExceedsDegree):
            bernstein_eval(E2, 3, F(1, 2), 4)

    def test_outside_interval_rejected(self):
        with pytest.raises(ValueError):
            bernstein_eval(E2, 3, F(3, 2))

    def test_float_points_rejected(self):
        with pytest.raises(TypeError):
            bernstein_eval(E2, 3, 0.5)

    def test_exponential_closed_form(self):
        # B_n(e^{at})(x) = (1-x+x e^{a/n})^n, r-th derivative adds
        # n!/(n-r)! (e^{a/n}-1)^r and drops the outer power to n-r
        n, x = 24, F(2, 5)
        with mp.workprec(300):
            g = mp.expm1(mp.mpf(1) / n)
            base = 1 - to_mpf(x) + to_mpf(x) * mp.exp(mp.mpf(1) / n)
            for r in (0, 1, 2):
                got = bernstein_eval(EXP1, n, x, r, prec=256)
                want = math.perm(n, r) * g**r * base ** (n - r)
                assert abs(got - want) < mp.mpf(2) ** -230

    def test_sin_path_against_direct_sum(self):
        f = SmoothFunction.sinusoid(1, 0)
        n, x = 12, F(1, 3)
        with mp.workprec(300):
            got = bernstein_eval(f, n, x, 0, prec=256)
            want = mp.mpf(0)
            for k in range(n + 1):
                w = math.comb(n, k) * x**k * (1 - x) ** (n - k)
                want += to_mpf(w) * mp.sin(mp.mpf(k) / n)
            assert abs(got - want) < mp.mpf(2) ** -230

    # the exact integer sum against the Stirling-number closed form of B_n
    QUARTIC = [F(1, 8), F(-3, 4), F(5, 8), F(-1, 2), F(3, 8)]

    @pytest.mark.parametrize("x", [F(7, 16), F(5, 41)])
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_quartic_at_large_n(self, x, r):
        n = 4096
        got = bernstein_eval(SmoothFunction.polynomial(self.QUARTIC), n, x, r)
        assert isinstance(got, F)
        assert got == _bernstein_closed_form(self.QUARTIC, n, x, r)

    @pytest.mark.parametrize(
        "coeffs, n, x, r",
        [
            ([0], 9, F(2, 7), 0),  # zero polynomial
            ([0], 9, F(2, 7), 3),
            ([F(5, 3)], 7, F(3, 11), 0),  # constant
            ([F(5, 3)], 7, F(3, 11), 2),
            ([1, -2, F(1, 3), 0, 4, F(-7, 5), 2, 1], 3, F(4, 9), 1),  # degree > n
            ([F(1, 2), 3, -1, F(2, 9), 1, 0, -5], 5, F(1, 3), 5),  # r = n
            ([F(2, 3), -1, F(1, 7), 5], 50, F(10**31 + 7, 3 * 10**31 + 11), 2),
        ],
    )
    def test_edge_cases(self, coeffs, n, x, r):
        got = bernstein_eval(SmoothFunction.polynomial(coeffs), n, x, r)
        assert got == _bernstein_closed_form(coeffs, n, x, r)

    def test_constant_exponential_is_exact(self):
        got = bernstein_eval(SmoothFunction.exponential(0), 64, F(1, 2))
        assert isinstance(got, F) and got == 1
        assert bernstein_eval(SmoothFunction.exponential(0), 64, F(1, 3), 2) == 0


class TestSzasz:
    def test_e2_frozen_value(self):
        got = szasz_eval(E2, 10, F(1))
        assert abs(got - to_mpf(F(11, 10))) <= tol_mpf()

    def test_e3_frozen_value(self):
        got = szasz_eval(E3, 10, F(1))
        assert abs(got - to_mpf(F(131, 100))) <= tol_mpf()

    def test_derivative_of_e2(self):
        # (S_n e2)'(x) = 2x + 1/n
        got = szasz_eval(E2, 10, F(1), 1)
        assert abs(got - to_mpf(F(21, 10))) <= tol_mpf()

    def test_origin_is_exact(self):
        got = szasz_eval(E2, 10, F(0), 1)
        assert isinstance(got, F) and got == F(1, 10)

    def test_exponential_closed_form(self):
        # S_n(e^{at})(x) = exp(nx(e^{a/n}-1)); each derivative multiplies
        # by n(e^{a/n}-1)
        with mp.workprec(300):
            for n in (16, 512):
                g = mp.expm1(mp.mpf(1) / n)
                for r in (0, 1, 2):
                    got = szasz_eval(EXP1, n, F(1), r)
                    want = (n * g) ** r * mp.exp(n * g)
                    assert abs(got - want) < 4 * tol_mpf(), (n, r)

    def test_steep_exponential_still_sums(self):
        with mp.workprec(300):
            got = szasz_eval(SmoothFunction.exponential(8), 8, F(1, 2))
            want = mp.exp(8 * mp.mpf(0.5) * mp.expm1(mp.mpf(1)))
            assert abs(got - want) < 4 * tol_mpf()

    def test_sin_against_reference_sum(self):
        f = SmoothFunction.sinusoid(1, 0)
        n, x = 9, F(2, 3)
        with mp.workprec(340):
            rate = to_mpf(n * x)
            want = mp.mpf(0)
            weight = mp.exp(-rate)
            for k in range(600):
                want += weight * mp.sin(mp.mpf(k) / n)
                weight = weight * rate / (k + 1)
            got = szasz_eval(f, n, x, 0)
            assert abs(got - want) < 4 * tol_mpf()


class TestBaskakov:
    def test_e2_frozen_value(self):
        got = baskakov_eval(E2, 10, F(1))
        assert abs(got - to_mpf(F(6, 5))) <= tol_mpf()

    def test_derivative_frozen_value(self):
        got = baskakov_eval(E2, 10, F(1), 1)
        assert abs(got - to_mpf(F(23, 10))) <= tol_mpf()

    def test_second_moment_identity(self):
        # V_n e2 = e2 + x(1+x)/n
        for n in (6, 20):
            for x in (F(1, 2), F(3)):
                want = to_mpf(x * x + x * (1 + x) / n)
                assert abs(baskakov_eval(E2, n, x) - want) <= tol_mpf()

    def test_origin_is_exact(self):
        got = baskakov_eval(E3, 7, F(0), 1)
        assert isinstance(got, F) and got == F(1, 49)

    def test_exponential_closed_form(self):
        # V_n(e^{at})(x) = (1+x-x e^{a/n})^{-n}; the r-th derivative gains
        # n(n+1)...(n+r-1) (e^{a/n}-1)^r and deepens the power to -(n+r)
        with mp.workprec(300):
            for n in (16, 512):
                g = mp.expm1(mp.mpf(1) / n)
                base = 1 + to_mpf(F(1)) - to_mpf(F(1)) * mp.exp(mp.mpf(1) / n)
                for r in (0, 1, 2):
                    got = baskakov_eval(EXP1, n, F(1), r)
                    rising = math.prod(range(n, n + r)) if r else 1
                    want = rising * g**r * base ** (-(n + r))
                    assert abs(got - want) < 4 * tol_mpf(), (n, r)

    def test_divergent_exponential_rejected(self):
        with pytest.raises(GrowthBoundViolated):
            baskakov_eval(SmoothFunction.exponential(8), 8, F(1))

    def test_check_growth_matches_evaluator(self):
        hot = SmoothFunction.exponential(8)
        with pytest.raises(GrowthBoundViolated):
            check_growth(BASKAKOV, hot, 8, F(1))
        check_growth(SZASZ, hot, 8, F(1))
        check_growth(BASKAKOV, EXP1, 512, F(1))
        check_growth(BASKAKOV, hot, None, None)  # nothing to check yet


@pytest.mark.parametrize("z", [F(1, 2), F(1), F(5, 2), F(37, 8), F(40)])
def test_growth_stretch_is_a_tight_exponential_bound(z):
    # (193/71)^floor(z) times a Taylor sum with its remainder: above e^z,
    # and above it by about 1.04e-5 per unit of z
    with mp.workprec(200):
        bound, exact = to_mpf(_growth_stretch(z, 1)), mp.exp(to_mpf(z))
        assert bound >= exact
        assert bound - exact <= mp.mpf("1e-4") * to_mpf(z) * exact
    assert _growth_stretch(4 * z, 4) == _growth_stretch(z, 1)


def _szasz_closed_form(n, x, r, rate):
    # S_n(e^{ct})^{(r)}(x) = (n(e^{c/n}-1))^r exp(nx(e^{c/n}-1)); rate may be complex
    z = mp.exp(rate / n) - 1
    return (n * z) ** r * mp.exp(n * to_mpf(x) * z)


def _baskakov_closed_form(n, x, r, rate):
    # V_n(e^{ct})^{(r)}(x) = (n)_r (e^{c/n}-1)^r (1+x-x e^{c/n})^{-(n+r)}
    e = mp.exp(rate / n)
    return math.prod(range(n, n + r)) * (e - 1) ** r * (1 + to_mpf(x) - to_mpf(x) * e) ** (-(n + r))


def _bernstein_exp_closed_form(n, x, r, rate):
    # B_n(e^{ct})^{(r)}(x) = n!/(n-r)! (e^{c/n}-1)^r (1-x+x e^{c/n})^{n-r}
    e = mp.exp(rate / n)
    return math.perm(n, r) * (e - 1) ** r * (1 - to_mpf(x) + to_mpf(x) * e) ** (n - r)


@pytest.fixture
def values_pulled(monkeypatch):
    """One-element list counting the values SmoothFunction.values_iter yields."""
    pulled = [0]
    original = SmoothFunction.values_iter

    def counting(self, step):
        for value in original(self, step):
            pulled[0] += 1
            yield value

    monkeypatch.setattr(SmoothFunction, "values_iter", counting)
    return pulled


class TestSeriesWindow:
    """The bernstein/szasz/baskakov sums start at the mode and cut both
    tails under certified bounds; far from k = 0 they still meet the closed
    forms."""

    N, X = 2**14, F(3)
    SIN = SmoothFunction.sinusoid(F(3, 2), F(1, 3))

    @pytest.mark.parametrize("r", [0, 1, 2])
    @pytest.mark.parametrize(
        "evaluate, closed_form",
        [(szasz_eval, _szasz_closed_form), (baskakov_eval, _baskakov_closed_form)],
    )
    def test_exponential_far_from_origin(self, evaluate, closed_form, r):
        with mp.workprec(320):
            got = evaluate(EXP1, self.N, self.X, r)
            want = closed_form(self.N, self.X, r, mp.mpf(1))
            assert abs(got - want) <= tol_mpf()

    @pytest.mark.parametrize("r", [0, 1, 2])
    @pytest.mark.parametrize(
        "evaluate, closed_form",
        [(szasz_eval, _szasz_closed_form), (baskakov_eval, _baskakov_closed_form)],
    )
    def test_sinusoid_far_from_origin(self, evaluate, closed_form, r):
        # sin(at + b) = Im(e^{ib} e^{iat}): the closed form at rate i a
        with mp.workprec(320):
            got = evaluate(self.SIN, self.N, self.X, r)
            a, b = to_mpf(self.SIN.a), to_mpf(self.SIN.b)
            want = (mp.expj(b) * closed_form(self.N, self.X, r, mp.mpc(0, a))).imag
            assert abs(got - want) <= tol_mpf()

    @pytest.mark.parametrize("n, x", [(4, F(1, 8)), (3, F(1, 3)), (7, F(5, 2))])
    def test_mode_at_or_near_origin(self, n, x):
        with mp.workprec(320):
            for evaluate, closed_form in (
                (szasz_eval, _szasz_closed_form),
                (baskakov_eval, _baskakov_closed_form),
            ):
                for r in (0, 2):
                    got = evaluate(EXP1, n, x, r)
                    want = closed_form(n, x, r, mp.mpf(1))
                    assert abs(got - want) <= tol_mpf(), (evaluate.__name__, r)

    def test_window_grows_like_sqrt_nx(self, values_pulled):
        # the weights hold everything above tol within ~12 sqrt(nx) of the
        # mode; a sum from k = 0 would pull more than 4 n x = 16384 values
        szasz_eval(EXP1, 4096, F(1))
        assert 0 < values_pulled[0] <= 2000

    @pytest.mark.parametrize("r", [0, 1, 2])
    @pytest.mark.parametrize("x", [F(2, 5), F(1, 1000), F(999, 1000)])
    def test_bernstein_closed_forms_at_large_n(self, x, r):
        with mp.workprec(320):
            got = bernstein_eval(EXP1, self.N, x, r)
            want = _bernstein_exp_closed_form(self.N, x, r, mp.mpf(1))
            assert abs(got - want) <= tol_mpf()
            got = bernstein_eval(self.SIN, self.N, x, r)
            a, b = to_mpf(self.SIN.a), to_mpf(self.SIN.b)
            want = (mp.expj(b) * _bernstein_exp_closed_form(self.N, x, r, mp.mpc(0, a))).imag
            assert abs(got - want) <= tol_mpf()

    @pytest.mark.parametrize("n, x", [(3, F(1, 3)), (4, F(7, 8))])
    def test_bernstein_mode_at_an_edge(self, n, x):
        # n = 3, x = 1/3, r = 2 puts the mode at k = 0; n = 4, x = 7/8,
        # r = 0 puts it at k = m = n
        with mp.workprec(320):
            for r in range(n + 1):
                got = bernstein_eval(EXP1, n, x, r)
                want = _bernstein_exp_closed_form(n, x, r, mp.mpf(1))
                assert abs(got - want) <= tol_mpf(), r

    def test_bernstein_window_grows_like_sqrt_n(self, values_pulled):
        # all n + 1 = 4097 binomial terms would pull 4097 values
        bernstein_eval(EXP1, 4096, F(1, 2), 2)
        assert 0 < values_pulled[0] <= 1200

    @pytest.mark.parametrize(
        "evaluate, closed_form, n, x, r, tol",
        [
            (szasz_eval, _szasz_closed_form, 1, F(5, 2), 2, F(1, 10**12)),
            (szasz_eval, _szasz_closed_form, 3, F(5), 0, F(1, 10**30)),
        ],
    )
    def test_fast_growth_along_the_window(self, evaluate, closed_form, n, x, r, tol):
        # e^{5t/2} grows by 2^200 or more across these windows, so the far
        # weights, tiny against values that large, need bits beyond 2^-P
        f = SmoothFunction.exponential(F(5, 2))
        with mp.workprec(400):
            got = evaluate(f, n, x, r, tol=tol)
            assert abs(got - closed_form(n, x, r, mp.mpf(5) / 2)) <= to_mpf(tol)

    def test_tight_majorant_accepts_what_the_precision_resolves(self):
        # S_1 e^{5t/2} at x = 13/8 is about 9.7e9: 256 bits resolve 1e-60,
        # which the 3^ceil(z) majorant (27 for e^{5/2} = 12.2) refused; at
        # x = 37/8 the result is about 3.6e24 and needs about 281 bits
        f, tol = SmoothFunction.exponential(F(5, 2)), F(1, 10**60)
        with mp.workprec(400):
            got = szasz_eval(f, 1, F(13, 8), 2, tol=tol)
            assert abs(got - _szasz_closed_form(1, F(13, 8), 2, mp.mpf(5) / 2)) <= to_mpf(tol)
        with pytest.raises(PrecisionTooLow, match="term bound"):
            szasz_eval(f, 1, F(37, 8), 2, tol=tol)

    def test_term_beyond_precision_refused(self):
        # S_1 e^{6t} at x = 20 is about e^8048: no 256-bit sum meets 1e-30
        with pytest.raises(PrecisionTooLow, match="term bound"):
            szasz_eval(SmoothFunction.exponential(6), 1, F(20))

    def test_bernstein_dispatch_honours_tol(self, values_pulled):
        n, x, r, tol = 4096, F(1, 2), 1, F(1, 10**12)
        with mp.workprec(320):
            want = _bernstein_exp_closed_form(n, x, r, mp.mpf(1))
            coarse = operator_eval(BERNSTEIN, EXP1, n, x, r, tol=tol)
            coarse_pulled, values_pulled[0] = values_pulled[0], 0
            assert abs(coarse - want) <= to_mpf(tol)
            operator_eval(BERNSTEIN, EXP1, n, x, r)
            assert coarse_pulled < values_pulled[0]


# (family, f, n, x, r, tol, values pulled): the windows [L, U] the series cut
# for these cases, recorded with an mpf walk; any summation kernel must cut
# the same ones
WINDOW_PIN = [
    ("bernstein", "exp:1", 7, F(11, 16), 3, "1e-12", 8),
    ("szasz", "exp:-2", 64, F(13, 8), 3, "1e-30", 257),
    ("baskakov", "poly:1,-2,1/3,5/7", 64, F(31, 8), 2, "1e-60", 1397),
    ("bernstein", "sin:3/2,1/3", 1000, F(1, 4), 2, "1e-12", 249),
    ("szasz", "exp:1", 1000, F(17, 4), 1, "1e-30", 1643),
    ("baskakov", "sin:3/2,1/3", 64, F(2, 1), 1, "1e-60", 725),
    ("bernstein", "exp:-2", 1000, F(5, 8), 1, "1e-12", 251),
    ("szasz", "poly:1,-2,1/3,5/7", 64, F(5, 2), 2, "1e-30", 323),
    ("baskakov", "exp:1", 1000, F(13, 4), 1, "1e-60", 4083),
    ("bernstein", "exp:-2", 4096, F(9, 16), 2, "1e-12", 597),
    ("szasz", "exp:-2", 1000, F(39, 8), 2, "1e-30", 1793),
    ("baskakov", "exp:1", 1000, F(31, 8), 1, "1e-60", 4790),
    ("bernstein", "sin:3/2,1/3", 64, F(1, 4), 1, "1e-12", 47),
    ("szasz", "poly:1,-2,1/3,5/7", 64, F(27, 8), 3, "1e-30", 390),
    ("baskakov", "exp:1", 64, F(19, 4), 2, "1e-60", 1798),
    ("bernstein", "exp:-2", 1000, F(13, 16), 3, "1e-12", 244),
    ("szasz", "exp:1", 4096, F(5, 4), 3, "1e-30", 1979),
    ("baskakov", "sin:3/2,1/3", 4096, F(3, 4), 1, "1e-60", 2500),
    ("bernstein", "exp:-2", 7, F(9, 16), 2, "1e-12", 8),
    ("szasz", "sin:3/2,1/3", 4096, F(19, 4), 0, "1e-30", 3232),
    ("baskakov", "sin:3/2,1/3", 7, F(31, 8), 3, "1e-60", 792),
    ("bernstein", "sin:3/2,1/3", 64, F(7, 16), 3, "1e-12", 63),
    ("szasz", "sin:3/2,1/3", 1000, F(13, 4), 2, "1e-30", 1464),
    ("baskakov", "sin:3/2,1/3", 1000, F(11, 4), 2, "1e-60", 3563),
    ("bernstein", "exp:1", 4096, F(3, 4), 0, "1e-12", 407),
    ("szasz", "poly:1,-2,1/3,5/7", 64, F(11, 8), 3, "1e-30", 243),
    ("baskakov", "exp:1", 16384, F(9, 2), 3, "1e-60", 23628),
    ("bernstein", "exp:-2", 7, F(1, 16), 2, "1e-12", 8),
    ("szasz", "poly:1,-2,1/3,5/7", 4096, F(31, 8), 3, "1e-30", 3571),
    ("baskakov", "poly:1,-2,1/3,5/7", 64, F(15, 8), 1, "1e-60", 712),
    ("bernstein", "exp:1", 1000, F(3, 4), 2, "1e-30", 350),
    ("szasz", "exp:1", 7, F(23, 8), 1, "1e-60", 146),
    ("baskakov", "sin:3/2,1/3", 64, F(17, 8), 0, "1e-12", 304),
]
PIN_TOLS = {"1e-12": F(1, 10**12), "1e-30": F(1, 10**30), "1e-60": F(1, 10**60)}


@pytest.mark.parametrize("family, spec, n, x, r, tol, pulled", WINDOW_PIN)
def test_series_window_is_pinned(values_pulled, family, spec, n, x, r, tol, pulled):
    operator_eval(FAMILIES[family], parse_function(spec), n, x, r, tol=PIN_TOLS[tol])
    assert values_pulled[0] == pulled


class TestGaussWeierstrass:
    def test_e2_frozen_value(self):
        got = gauss_weierstrass_eval(E2, 8, F(0))
        assert abs(got - to_mpf(F(1, 8))) <= tol_mpf()

    def test_e4_frozen_value(self):
        # fourth raw moment at the origin: 3/n^2
        got = gauss_weierstrass_eval(SmoothFunction.monomial(4), 8, F(0))
        assert abs(got - to_mpf(F(3, 64))) <= tol_mpf()

    def test_derivative_of_e2(self):
        got = gauss_weierstrass_eval(E2, 8, F(1, 2), 1)
        assert abs(got - 1) <= tol_mpf()

    def test_negative_axis_points_allowed(self):
        got = gauss_weierstrass_eval(E2, 4, F(-2))
        assert abs(got - to_mpf(4 + F(1, 4))) <= tol_mpf()

    def test_exponential_closed_form(self):
        # W_n(e^{at})(x) = e^{ax + a^2/(2n)}
        with mp.workprec(300):
            got = gauss_weierstrass_eval(EXP1, 32, F(3, 2))
            want = mp.exp(mp.mpf(1.5) + mp.mpf(1) / 64)
            assert abs(got - want) <= tol_mpf()

    @pytest.mark.parametrize("tol, bits", [(F(1, 10**30), 256), (F(1, 10**60), 320)])
    @pytest.mark.parametrize("n", [1, 64, 4096])
    def test_closed_forms_within_tol(self, tol, bits, n):
        # W_n e^{at}(x)^{(r)} = a^r e^{ax + a^2/(2n)} and
        # W_n sin(at + b)^{(r)}(x) = a^r e^{-a^2/(2n)} sin(ax + b + r pi/2)
        exp_f = SmoothFunction.exponential(F(3, 2))
        sin_f = SmoothFunction.sinusoid(2, F(1, 3))
        with mp.workprec(bits + 64):
            for x in (F(-2), F(0), F(3, 2)):
                xm = to_mpf(x)
                for r in range(4):
                    got = gauss_weierstrass_eval(exp_f, n, x, r, tol=tol, prec=bits)
                    a = mp.mpf(3) / 2
                    want = a**r * mp.exp(a * xm + a * a / (2 * n))
                    assert abs(got - want) <= to_mpf(tol)
                    got = gauss_weierstrass_eval(sin_f, n, x, r, tol=tol, prec=bits)
                    a, b = mp.mpf(2), mp.mpf(1) / 3
                    want = a**r * mp.exp(-a * a / (2 * n)) * mp.sin(a * xm + b + r * mp.pi / 2)
                    assert abs(got - want) <= to_mpf(tol)

    @pytest.mark.parametrize("x", [F(-2), F(2)])
    @pytest.mark.parametrize("n", [1, 64, 4096])
    def test_degree_8_central_moment(self, x, n):
        # (s-1)!!/n^{s/2} for s = 8
        got = central_moment_direct(GAUSS_WEIERSTRASS, n, x, 8)
        assert abs(got - to_mpf(F(105, n**4))) <= tol_mpf()

    @pytest.mark.parametrize("x", [F(-2), F(3)])
    def test_decaying_exponential_far_across_the_nodes(self, x):
        # e^{-7t} falls by e^-280 from the first node to the last; the
        # values stay within 2^-P of f, not of f at the first node
        f = SmoothFunction.exponential(-7)
        tol = F(1, 10**60)
        with mp.workprec(600):
            got = gauss_weierstrass_eval(f, 1, x, 0, tol=tol, prec=320)
            want = mp.exp(-7 * to_mpf(x) + mp.mpf(49) / 2)
            assert abs(got - want) <= to_mpf(tol)

    def test_unresolvable_oscillation_raises(self):
        # phase keeps the integrand from being odd, which symmetric nodes
        # would integrate to an exact (and misleading) zero
        wild = SmoothFunction.sinusoid(50, 1)
        with pytest.raises(QuadratureNotConverged) as refusal:
            gauss_weierstrass_eval(wild, 1, F(0), quad_order=16)
        message = str(refusal.value)
        assert "tail bound" in message and "tol 1.0e-30" in message

    def test_quad_order_caps_the_node_count(self, values_pulled):
        # the same oscillation needs about 235 nodes: 3 * 128 allows them
        wild = SmoothFunction.sinusoid(50, 1)
        with pytest.raises(QuadratureNotConverged):
            gauss_weierstrass_eval(wild, 1, F(0))
        values_pulled[0] = 0
        got = gauss_weierstrass_eval(wild, 1, F(0), quad_order=128)
        assert 3 * 64 < values_pulled[0] <= 3 * 128
        want = mp.exp(-1250) * mp.sin(1)  # a^2/(2n) = 1250
        assert abs(got - want) <= tol_mpf()

    def test_nodes_at_default_tol(self, values_pulled):
        # one sum, sized from tol: well under the 3 * 64 cap
        gauss_weierstrass_eval(EXP1, 64, F(1), 2)
        assert 0 < values_pulled[0] <= 80

    def test_sum_beyond_precision_refused(self):
        # the value, about 5.25e16, needs 29 significant digits for tol
        # 1e-12; 64 bits hold 19, and the sum missed by 19.6 tol
        f = SmoothFunction.exponential(-7)
        with pytest.raises(PrecisionTooLow, match=r"term sum bound 5\.25e\+16"):
            gauss_weierstrass_eval(f, 1, F(-2), 0, tol=F(1, 10**12), prec=64)

    def test_exponentials_refused_or_within_tol(self):
        # W_n e^{at}(x)^{(r)} = a^r e^{ax + a^2/(2n)}
        outcomes = []
        for a in (F(-7), F(3, 2), F(10)):
            f = SmoothFunction.exponential(a)
            for n, x, r in itertools.product((1, 2, 64), (F(-2), F(3, 2)), (0, 2)):
                for tol, bits in ((F(1, 10**12), 64), (F(1, 10**30), 128)):
                    try:
                        got = gauss_weierstrass_eval(f, n, x, r, tol=tol, prec=bits)
                    except PrecisionTooLow:
                        outcomes.append("refused")
                        continue
                    am = to_mpf(a)
                    want = am**r * mp.exp(am * to_mpf(x) + am * am / (2 * n))
                    outcomes.append(abs(got - want) <= to_mpf(tol))
        assert set(outcomes) == {True, "refused"}

    def test_zero_polynomial(self):
        # no strip bound to size the rule from: the value is 0 outright
        assert gauss_weierstrass_eval(SmoothFunction.polynomial([0]), 4, F(1), 2) == 0

    def test_small_quad_order_rejected(self):
        with pytest.raises(ValueError):
            gauss_weierstrass_eval(E2, 4, F(0), quad_order=8)


class TestDerivativeFormulaValidation:
    # the closed-form derivative rules against a central difference of the
    # next-lower order, step 2^-40 at 192+ bits
    STEP = F(1, 2**40)

    @pytest.mark.parametrize("family_id", ["bernstein", "szasz", "baskakov", "gauss_weierstrass"])
    @pytest.mark.parametrize("r", [1, 2])
    def test_derivative_matches_central_difference(self, family_id, r):
        family = FAMILIES[family_id]
        f = E3
        n = 13
        x = F(2, 5)
        h = self.STEP
        with mp.workprec(320):
            direct = to_mpf(operator_eval(family, f, n, x, r, prec=288))
            hi = operator_eval(family, f, n, x + h, r - 1, prec=288)
            lo = operator_eval(family, f, n, x - h, r - 1, prec=288)
            fd = (to_mpf(hi) - to_mpf(lo)) / (2 * to_mpf(h))
            rel = abs(fd - direct) / max(abs(direct), mp.mpf(1))
            assert rel < mp.mpf(10) ** -12


class TestDispatch:
    def test_get_family(self):
        assert get_family("szasz") is SZASZ
        with pytest.raises(ValueError, match="unknown family"):
            get_family("bernstien")

    def test_operator_eval_matches_direct(self):
        assert operator_eval(BERNSTEIN, E2, 8, F(1, 4)) == bernstein_eval(
            E2, 8, F(1, 4)
        )

    def test_family_without_evaluator_rejected(self):
        bare = make_family("bare", Interval(F(0), F(1)), Poly((0, 1, -1)))
        with pytest.raises(ValueError, match="no direct evaluator"):
            operator_eval(bare, E2, 4, F(1, 2))

    def test_point_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            operator_eval(SZASZ, E2, 4, F(-1))

    def test_cross_precision_consistency(self):
        lo = szasz_eval(E3, 12, F(1, 2), 0, tol=F(1, 10**25), prec=96)
        hi = szasz_eval(E3, 12, F(1, 2), 0, prec=256)
        assert abs(to_mpf(lo) - to_mpf(hi)) < mp.mpf(10) ** -25

    @pytest.mark.parametrize("family", ["bernstein", "szasz", "baskakov", "gauss_weierstrass"])
    def test_default_tol_refused_at_64_bits(self, family):
        # tol/(4 prefactor) = 2.5e-31 (tol/(8 scale) for the trapezoid) is
        # below 2^-64
        with pytest.raises(PrecisionTooLow, match=r"2\^-64"):
            operator_eval(FAMILIES[family], EXP1, 64, F(1, 2), prec=64)


class TestCentralMomentDirect:
    def test_bernstein_exact(self):
        assert central_moment_direct(BERNSTEIN, 8, F(1, 2), 6) == F(23, 65536)

    def test_szasz_matches_symbolic(self):
        from expasym.moments import central_moments

        mu4 = central_moments(SZASZ, 4).moment(4)
        got = central_moment_direct(SZASZ, 12, F(2, 3), 4)
        assert abs(got - to_mpf(mu4.eval(12, F(2, 3)))) < 4 * tol_mpf()

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            central_moment_direct(BERNSTEIN, 4, F(1, 2), -1)


class TestOracleDuality:
    # symbolic moment table vs direct evaluation, swept over every family
    POINTS = {
        "bernstein": [F(1, 6), F(1, 3), F(1, 2), F(2, 3), F(5, 6)],
        "szasz": [F(1, 4), F(1, 2), F(1), F(3, 2), F(3)],
        "baskakov": [F(1, 4), F(1, 2), F(1), F(3, 2), F(3)],
        "gauss_weierstrass": [F(-2), F(-1, 2), F(0), F(1, 2), F(2)],
    }

    @pytest.mark.parametrize("family_id", sorted(FAMILIES))
    def test_direct_matches_symbolic(self, family_id):
        from expasym.moments import central_moments

        family = FAMILIES[family_id]
        table = central_moments(family, 8)
        bound = 4 * tol_mpf()
        for s in range(9):
            mu = table.moment(s)
            for n in (8, 32, 128):
                for x in self.POINTS[family_id]:
                    want = mu.eval(n, x)
                    got = central_moment_direct(family, n, x, s)
                    if family_id == "bernstein":
                        assert got == want, (s, n, x)
                    else:
                        assert abs(got - to_mpf(want)) <= bound, (s, n, x)


class TestMakeFamily:
    def test_zero_phi_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            make_family("z", Interval(F(0), F(1)), Poly(()))

    def test_cubic_phi_rejected(self):
        with pytest.raises(ValueError, match="degree above 2"):
            make_family("c", Interval(F(0), F(1)), Poly((0, 0, 0, 1)))

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="empty interval"):
            make_family("e", Interval(F(1), F(0)), Poly((0, 1)))

    def test_interior_phi_root_rejected(self):
        # x(1-x) vanishes at 1, interior to [0, 2]
        with pytest.raises(ValueError, match="vanishes inside"):
            make_family("r", Interval(F(0), F(2)), Poly((0, 1, -1)))

    def test_boundary_phi_roots_allowed(self):
        fam = make_family("ok", Interval(F(0), F(1)), Poly((0, 1, -1)))
        assert fam.phi == Poly((0, 1, -1))

    def test_sublinear_index_rejected(self):
        with pytest.raises(ValueError, match="positive multiple of n"):
            make_family(
                "s", Interval(F(0), F(1)), Poly((0, 1, -1)),
                lambda_n=RatFuncN.const(3),
            )

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="positive multiple of n"):
            make_family(
                "m", Interval(F(0), F(1)), Poly((0, 1, -1)),
                lambda_n=RatFuncN(Poly((0, -1)), Poly.const(1)),
            )

    def test_unknown_evaluator_rejected(self):
        with pytest.raises(ValueError, match="unknown evaluator"):
            make_family(
                "u", Interval(F(0), F(1)), Poly((0, 1, -1)), evaluator="lagrange"
            )

    def test_pure_exponential_flag(self):
        assert BERNSTEIN.is_pure_exponential
        shifted = make_family(
            "sh", Interval(F(0), F(1)), Poly((0, 1, -1)),
            lambda_n=RatFuncN(Poly((1, 1)), Poly.const(1)),
        )
        assert not shifted.is_pure_exponential

    def test_require_point_interior(self):
        with pytest.raises(ValueError, match="not interior"):
            BERNSTEIN.require_point(F(0), interior=True)
        BERNSTEIN.require_point(F(0))
        GAUSS_WEIERSTRASS.require_point(F(-5), interior=True)


class TestOracleIndependence:
    """operators.py is the oracle: it may share no code with the symbolic
    side it checks."""

    ALLOWED_FROM_EXACTALG = {"Poly", "Rat", "Scalar", "_as_rat", "format_rat"}
    SYMBOLIC = {"moments", "expansion", "verify"}
    SOURCE = Path(__file__).parent.parent / "src" / "expasym"

    def test_imports(self):
        tree = ast.parse((self.SOURCE / "operators.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = {alias.name.split(".")[-1] for alias in node.names}
                assert not modules & (self.SYMBOLIC | {"exactalg"}), ast.unparse(node)
            elif isinstance(node, ast.ImportFrom):
                module = (node.module or "").split(".")[-1]
                names = {alias.name for alias in node.names}
                assert module not in self.SYMBOLIC, ast.unparse(node)
                if not node.module:  # from . import name
                    assert not names & (self.SYMBOLIC | {"exactalg"}), ast.unparse(node)
                if module == "exactalg":
                    assert names <= self.ALLOWED_FROM_EXACTALG, ast.unparse(node)

    def test_symbolic_side_imports_neither_oracle_nor_studies(self):
        # package modules each file imports, at any depth (TYPE_CHECKING
        # blocks and function bodies included)
        for name in ("exactalg", "families", "moments", "expansion"):
            tree = ast.parse((self.SOURCE / f"{name}.py").read_text())
            imported = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level:
                    imported |= {node.module} if node.module else {a.name for a in node.names}
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    modules = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
                    imported |= {m.split(".")[1] for m in modules if m.startswith("expasym.")}
            assert not imported & {"operators", "verify"}, (name, imported)
            if name == "families":
                assert imported == {"exactalg"}, imported
