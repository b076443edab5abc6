from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from expasym.exactalg import (
    DenominatorZero,
    IntegerForm,
    MomentPoly,
    Poly,
    RatFuncN,
    format_rat,
    laurent_at_infinity,
    poly_gcd,
)

# {p/q : 1 <= q <= 6, |p/q| <= 4}, drawn without filters or rounding; 0
# comes first, so examples shrink towards it
RATIONAL_VALUES = sorted(
    {F(p, q) for q in range(1, 7) for p in range(-4 * q, 4 * q + 1)},
    key=lambda v: (v.denominator, abs(v), v < 0),
)
rationals = st.sampled_from(RATIONAL_VALUES)
nonzero_rationals = st.sampled_from(RATIONAL_VALUES[1:])
small_polys = st.lists(rationals, min_size=0, max_size=5).map(
    lambda c: Poly(tuple(c))
)
# degree 0..4: up to four coefficients, then a nonzero leading one
nonzero_polys = st.builds(
    lambda low, lead: Poly((*low, lead)),
    st.lists(rationals, max_size=4),
    nonzero_rationals,
)
ratfuncs = st.builds(RatFuncN, small_polys, nonzero_polys)
moment_polys = st.dictionaries(
    st.integers(min_value=0, max_value=4), ratfuncs, max_size=4
).map(MomentPoly.from_mapping)


class TestFormatRat:
    def test_integer_collapses(self):
        assert format_rat(F(6, 3)) == "2"

    def test_fraction(self):
        assert format_rat(F(-3, 4)) == "-3/4"

    def test_zero(self):
        assert format_rat(F(0)) == "0"


class TestPoly:
    def test_trailing_zeros_stripped(self):
        assert Poly((1, 2, 0, 0)) == Poly((1, 2))
        assert Poly((0, 0)).is_zero

    def test_zero_degree_is_minus_one(self):
        assert Poly(()).degree == -1

    def test_call(self):
        p = Poly((1, -2, 3))  # 1 - 2x + 3x^2
        assert p(F(1, 2)) == F(3, 4)

    def test_pow_matches_repeated_mul(self):
        p = Poly((F(1, 2), 1))
        assert p**3 == p * p * p
        assert p**0 == Poly.const(1)

    def test_derivative(self):
        assert Poly((5, 0, 3)).derivative() == Poly((0, 6))
        assert Poly.const(7).derivative().is_zero

    def test_text(self):
        assert Poly((0, 3, 0, -1)).text() == "3*x - x^3"
        assert Poly(()).text() == "0"

    @given(small_polys, small_polys, small_polys)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a

    @given(small_polys, nonzero_polys)
    def test_divmod_invariant(self, a, b):
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree

    @given(small_polys, small_polys)
    def test_derivative_product_rule(self, a, b):
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()

    @given(nonzero_polys, nonzero_polys)
    def test_gcd_divides_both(self, a, b):
        g = poly_gcd(a, b)
        assert divmod(a, g)[1].is_zero
        assert divmod(b, g)[1].is_zero


def reference_reduction(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """The reduction over the rationals: monic gcd, Fraction long division,
    then scaling to a monic denominator.  Any faster RatFuncN reduction must
    give the same num and den."""
    if num.is_zero:
        return Poly(), Poly.const(1)
    common = poly_gcd(num, den)
    num, den = divmod(num, common)[0], divmod(den, common)[0]
    scale = 1 / den.lead
    return num * scale, den * scale


def reference_ratfunc_eval(r: RatFuncN, n) -> F:
    """The evaluation one Fraction operation at a time: Horner on num and
    den, then one division.  RatFuncN.eval must give the same Fraction."""
    n = F(n)
    den = r.den(n)
    if den == 0:
        raise DenominatorZero(f"denominator vanishes at n = {format_rat(n)}")
    return r.num(n) / den


def reference_momentpoly_eval(m: MomentPoly, n, x) -> F:
    """The Fraction sum of coefficient(n) x^power over the terms;
    MomentPoly.eval must give the same Fraction."""
    total = F(0)
    for power, coeff in m.items():
        total += reference_ratfunc_eval(coeff, n) * F(x) ** power
    return total


def outcome(evaluate, *args):
    """evaluate(*args), or the DenominatorZero message it raised."""
    try:
        return evaluate(*args)
    except DenominatorZero as exc:
        return f"DenominatorZero: {exc}"


class TestRatFuncN:
    def test_reduction(self):
        r = RatFuncN(Poly((-1, 0, 1)), Poly((-1, 1)))  # (n^2-1)/(n-1)
        assert r == RatFuncN(Poly((1, 1)), Poly.const(1))

    def test_denominator_made_monic(self):
        r = RatFuncN(Poly.const(1), Poly((0, 2)))
        assert r.den == Poly((0, 1))
        assert r.num == Poly.const(F(1, 2))

    def test_zero_denominator_raises(self):
        with pytest.raises(DenominatorZero):
            RatFuncN(Poly.const(1), Poly(()))

    @pytest.mark.parametrize(
        "num, den, want_num, want_den",
        [
            # 6(n+1)(n+2) / (4(n+1)(n-3)): the gcd has integer content 2
            (Poly((12, 18, 6)), Poly((-12, -8, 4)), Poly((3, F(3, 2))), Poly((-3, 1))),
            # negative leading coefficient in the denominator
            (Poly((1, 1)), Poly((F(1, 2), 0, -2)), Poly((F(-1, 2), F(-1, 2))), Poly((F(-1, 4), 0, 1))),
            # denominator of degree 0
            (Poly((6, 3)), Poly.const(-3), Poly((-2, -1)), Poly.const(1)),
            # zero numerator
            (Poly(), Poly((F(2, 3), 5)), Poly(), Poly.const(1)),
        ],
    )
    def test_reduction_cases(self, num, den, want_num, want_den):
        r = RatFuncN(num, den)
        assert (r.num, r.den) == (want_num, want_den)
        assert (r.num, r.den) == reference_reduction(num, den)

    @given(nonzero_polys, nonzero_polys, nonzero_polys)
    def test_reduction_matches_reference(self, num, den, common):
        for a, b in ((num, den), (num * common, den * common)):
            r = RatFuncN(a, b)
            want_num, want_den = reference_reduction(a, b)
            assert r.num.coeffs == want_num.coeffs
            assert r.den.coeffs == want_den.coeffs
        assert RatFuncN(num * common, den * common) == RatFuncN(num, den)

    def test_order_at_infinity(self):
        n = RatFuncN.index()
        assert (1 / n).order_at_infinity == 1
        assert n.order_at_infinity == -1
        assert RatFuncN(Poly((1, 1)), Poly((0, 0, 1))).order_at_infinity == 1
        with pytest.raises(ValueError):
            RatFuncN.const(0).order_at_infinity

    def test_eval(self):
        r = RatFuncN(Poly((1, 1)), Poly((0, 0, 1)))
        assert r.eval(4) == F(5, 16)

    @pytest.mark.parametrize(
        "r, n, want",
        [
            # (1 + n)/n^2 at an int, a negative int and a negative rational
            (RatFuncN(Poly((1, 1)), Poly((0, 0, 1))), 4, F(5, 16)),
            (RatFuncN(Poly((1, 1)), Poly((0, 0, 1))), -3, F(-2, 9)),
            (RatFuncN(Poly((1, 1)), Poly((0, 0, 1))), F(-7, 2), F(-10, 49)),
            # (n/2 - 1/3)/(n^2 + 1/4) at n = 5/6: the denominators differ
            (RatFuncN(Poly((F(-1, 3), F(1, 2))), Poly((F(1, 4), 0, 1))), F(5, 6), F(3, 34)),
            (RatFuncN(), 7, F(0)),
            (RatFuncN.const(F(-2, 3)), F(9, 4), F(-2, 3)),
        ],
    )
    def test_eval_cases(self, r, n, want):
        got = r.eval(n)
        assert got == want == reference_ratfunc_eval(r, n)
        assert type(got) is F

    @pytest.mark.parametrize(
        "den, n, where",
        [(Poly((-4, 1)), 4, "4"), (Poly((F(1, 2), 1)), F(-1, 2), "-1/2"), (Poly((F(-9, 4), 0, 1)), F(3, 2), "3/2")],
    )
    def test_eval_at_a_root_of_den_raises(self, den, n, where):
        r = RatFuncN(Poly((1, 1)), den)
        with pytest.raises(DenominatorZero) as info:
            r.eval(n)
        assert str(info.value) == f"denominator vanishes at n = {where}"
        assert outcome(r.eval, n) == outcome(reference_ratfunc_eval, r, n)

    @given(ratfuncs, rationals)
    def test_eval_matches_reference(self, r, n):
        got = outcome(r.eval, n)
        assert got == outcome(reference_ratfunc_eval, r, n)
        assert type(got) in (F, str)

    def test_text(self):
        r = RatFuncN(Poly((1, 1)), Poly((0, 0, 1)))
        assert r.text() == "(1 + n)/n^2"

    @given(ratfuncs, ratfuncs)
    def test_field_laws_by_evaluation(self, a, b):
        # evaluate at an index no small random denominator vanishes at
        n = 97
        assert (a + b).eval(n) == a.eval(n) + b.eval(n)
        assert (a * b).eval(n) == a.eval(n) * b.eval(n)
        assert (a - b).eval(n) == a.eval(n) - b.eval(n)

    @given(ratfuncs)
    def test_division_roundtrip(self, a):
        if a.is_zero:
            return
        assert (a / a) == RatFuncN.const(1)
        with pytest.raises(DenominatorZero):
            a / RatFuncN.const(0)


class TestMomentPoly:
    def test_from_poly_round_trip(self):
        p = Poly((0, 1, -1))
        m = MomentPoly.from_poly(p)
        assert m.coefficient(1) == RatFuncN.const(1)
        assert m.coefficient(2) == RatFuncN.const(-1)
        assert m.terms[-1][0] == 2

    def test_zero_coefficients_dropped(self):
        m = MomentPoly.from_mapping({0: 1, 3: 0})
        assert m.terms[-1][0] == 0
        assert list(m.items()) == [(0, RatFuncN.const(1))]

    def test_dx(self):
        m = MomentPoly.from_mapping({2: RatFuncN.index()})
        assert m.dx() == MomentPoly.from_mapping({1: 2 * RatFuncN.index()})
        assert MomentPoly.const(5).dx().is_zero

    def test_eval(self):
        m = MomentPoly.from_mapping({1: 1 / RatFuncN.index()})  # x/n
        assert m.eval(8, F(1, 2)) == F(1, 16)

    @pytest.mark.parametrize(
        "n, x",
        [(8, 2), (-5, F(-3, 4)), (F(7, 3), 0), (F(-9, 2), -1), (4096, F(11, 16))],
    )
    def test_eval_cases(self, n, x):
        # 1/n - (n + 1)/(n^2 - 1/4) x^2 + (2/3) x^5: int, negative and
        # zero arguments, gaps in the x-powers
        m = MomentPoly.from_mapping({
            0: 1 / RatFuncN.index(),
            2: RatFuncN(Poly((-1, -1)), Poly((F(-1, 4), 0, 1))),
            5: F(2, 3),
        })
        got = m.eval(n, x)
        n, x = F(n), F(x)
        assert got == 1 / n - (n + 1) / (n**2 - F(1, 4)) * x**2 + F(2, 3) * x**5
        assert got == reference_momentpoly_eval(m, n, x)
        assert type(got) is F

    def test_zero_evaluates_to_fraction_zero(self):
        got = MomentPoly().eval(3, F(1, 2))
        assert got == 0 and type(got) is F

    def test_eval_at_a_root_of_a_denominator_raises(self):
        m = MomentPoly.from_mapping({0: 1, 1: RatFuncN(Poly.const(1), Poly((-3, 1)))})
        with pytest.raises(DenominatorZero, match="^denominator vanishes at n = 3$"):
            m.eval(3, F(1, 2))

    @given(moment_polys, rationals, rationals)
    def test_eval_matches_reference(self, m, n, x):
        got = outcome(m.eval, n, x)
        assert got == outcome(reference_momentpoly_eval, m, n, x)
        assert type(got) in (F, str)

    def test_convolution(self):
        x = MomentPoly.from_mapping({1: 1})
        assert x * x == MomentPoly.from_mapping({2: 1})
        lhs = (x + 1) * (x - 1)
        assert lhs == MomentPoly.from_mapping({0: -1, 2: 1})

    def test_text(self):
        m = MomentPoly.from_mapping({1: 1 / RatFuncN.index(), 2: -1 / RatFuncN.index()})
        assert m.text() == "(1/n)*x + (-1/n)*x^2"
        assert MomentPoly().text() == "0"

    @given(moment_polys, moment_polys)
    def test_product_evaluates_pointwise(self, a, b):
        n, x = 97, F(3, 7)
        assert (a * b).eval(n, x) == a.eval(n, x) * b.eval(n, x)
        assert (a + b).eval(n, x) == a.eval(n, x) + b.eval(n, x)

    @given(moment_polys, moment_polys)
    def test_dx_product_rule(self, a, b):
        assert (a * b).dx() == a.dx() * b + a * b.dx()

    @given(moment_polys, rationals)
    @settings(max_examples=30)
    def test_rational_scaling_and_dx_skip_no_normalisation(self, a, c):
        # both build their coefficients without a gcd; renormalising them
        # must change nothing
        scaled = a * c
        for m in (scaled, a.dx()):
            for _power, coeff in m.items():
                assert RatFuncN(coeff.num, coeff.den) == coeff
        assert scaled == MomentPoly(
            tuple((p, coeff * RatFuncN.const(c)) for p, coeff in a.items())
        )

    @given(moment_polys)
    def test_dx_drops_degree(self, a):
        if a.is_zero or a.terms[-1][0] == 0:
            assert a.dx().is_zero
        else:
            assert a.dx().terms[-1][0] == a.terms[-1][0] - 1


class TestIntegerForm:
    """IntegerForm against MomentPoly.eval, coefficient by coefficient."""

    @given(
        st.lists(moment_polys, max_size=3),
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        rationals,
        rationals,
    )
    @settings(max_examples=60)
    def test_matches_eval(self, polys, weights, n, x):
        form = IntegerForm.build(polys)
        want = outcome(lambda: [m.eval(n, x) for m in polys])
        got = outcome(form.values, n, x)
        assert got == want
        if not isinstance(want, str):
            assert all(type(v) is F for v in got)
            num, den = form.pair(weights[: len(polys)], n, x)
            assert F(num, den) == sum((w * v for w, v in zip(weights, want)), F(0))

    def test_denominators_split_off_their_powers_of_n(self):
        # 1/n and (n + 1)/(n^3 + n^2/2) x^2 share R = 1 after n^k comes off
        # (j = -1, 0, -2); 1/(n + 1/2) is a second group, R = 2n + 1
        polys = [
            MomentPoly.from_mapping({0: 1 / RatFuncN.index(), 2: RatFuncN(Poly((1, 1)), Poly((0, 0, F(1, 2), 1)))}),
            MomentPoly.from_mapping({1: RatFuncN(Poly.const(F(2, 3)), Poly((F(1, 2), 1)))}),
        ]
        form = IntegerForm.build(polys)
        assert [group.den for group in form.groups] == [(1,), (1, 2)]
        assert (form.low, form.high, form.top) == (-2, 0, 2)
        n, x = F(5, 3), F(-7, 4)
        assert form.values(n, x) == [m.eval(n, x) for m in polys]
        with pytest.raises(DenominatorZero, match="^denominator vanishes at n = 0$"):
            form.values(0, x)
        with pytest.raises(DenominatorZero, match="^denominator vanishes at n = -1/2$"):
            form.values(F(-1, 2), x)

    def test_no_polynomials(self):
        form = IntegerForm.build([])
        assert form.values(3, F(1, 2)) == []
        assert form.pair([], 3, F(1, 2)) == (0, 1)


class TestLaurent:
    def test_simple_expansion(self):
        # n/(n+1) = 1 - 1/n + 1/n^2 - ...
        r = RatFuncN(Poly((0, 1)), Poly((1, 1)))
        assert laurent_at_infinity(r, 2) == {0: F(1), 1: F(-1), 2: F(1)}

    def test_zero_function(self):
        assert laurent_at_infinity(RatFuncN.const(0), 3) == {}

    def test_deep_leading_order_returns_empty(self):
        r = RatFuncN(Poly.const(1), Poly((0, 0, 0, 1)))  # n^-3
        assert laurent_at_infinity(r, 2) == {}
        assert laurent_at_infinity(r, 3) == {3: F(1)}

    def test_gapped_denominator(self):
        # 1/(n^3 + 5n^2 + 2) = u^3 / (1 + 5u + 2u^3) with u = 1/n, and
        # 1/(1 + 5u + 2u^3) = sum c_k u^k with c_k = -5 c_{k-1} - 2 c_{k-3}
        r = RatFuncN(Poly.const(1), Poly((2, 0, 5, 1)))
        assert laurent_at_infinity(r, 9) == {
            3: F(1), 4: F(-5), 5: F(25), 6: F(-127),
            7: F(645), 8: F(-3275), 9: F(16629),
        }

    @given(ratfuncs, st.integers(min_value=0, max_value=6))
    def test_truncation_error_order(self, r, J):
        # subtracting the exact resummation must push the remainder past J
        if r.is_zero or r.order_at_infinity < 0:
            return
        series = laurent_at_infinity(r, J)
        n_var = RatFuncN.index()
        truncation = RatFuncN.const(0)
        for j, c in series.items():
            truncation = truncation + RatFuncN.const(c) / n_var**j
        remainder = r - truncation
        assert remainder.is_zero or remainder.order_at_infinity > J

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=6),
            nonzero_rationals,
            max_size=5,
        )
    )
    def test_terminating_expansions_invert_exactly(self, coeffs):
        # sums of c * n^-j round-trip through the expansion untouched
        n_var = RatFuncN.index()
        r = RatFuncN.const(0)
        for j, c in coeffs.items():
            r = r + RatFuncN.const(c) / n_var**j
        J = max(coeffs, default=0)
        series = laurent_at_infinity(r, J)
        assert series == coeffs
        if not r.is_zero:
            assert sum(c * F(7) ** -j for j, c in series.items()) == r.eval(7)
