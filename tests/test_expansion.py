from fractions import Fraction as F

import gc
import math

import pytest
from mpmath import mp

from expasym import expansion
from expasym.exactalg import IntegerForm, MomentPoly, Poly
from expasym.expansion import (
    ExpansionTerm,
    NotPureExponentialIndex,
    complete_coeffs,
    derivative_terms,
    evaluate_derivative_expansion,
    truncated_sum,
    voronovskaja_limit,
)
from expasym.functions import SmoothFunction, parse_function, to_mpf
from expasym.moments import central_moments
from expasym.numeric import dot
from expasym.families import (
    BASKAKOV,
    BERNSTEIN,
    GAUSS_WEIERSTRASS,
    SZASZ,
    Interval,
    make_family,
)

from test_moments import synthetic_family


class TestCompleteCoeffs:
    def test_a0_is_the_function_itself(self):
        a0 = complete_coeffs(BERNSTEIN, 2)[0]
        assert a0.orders() == (0,)
        assert a0.term(0) == Poly.const(1)

    def test_a1_is_half_phi_times_second_derivative(self):
        for family in (BERNSTEIN, SZASZ, BASKAKOV, GAUSS_WEIERSTRASS):
            a1 = complete_coeffs(family, 1)[1]
            assert a1.orders() == (2,)
            assert a1.term(2) == family.phi * F(1, 2)

    def test_szasz_a2(self):
        # mu3 = x/n^2 and mu4 = 3x^2/n^2 + x/n^3 feed s in {3, 4} at k = 2
        a2 = complete_coeffs(SZASZ, 2)[2]
        assert a2.orders() == (3, 4)
        assert a2.term(3) == Poly((0, F(1, 6)))
        assert a2.term(4) == Poly((0, 0, F(1, 8)))

    def test_band_invariant(self):
        # only derivative orders k..2k can appear in a_k
        for family in (BERNSTEIN, SZASZ, BASKAKOV):
            for k, coeff in enumerate(complete_coeffs(family, 4)):
                assert coeff.k == k
                for s in coeff.orders():
                    assert k <= s <= 2 * k

    @pytest.mark.parametrize(
        "family",
        [
            synthetic_family(),
            # lambda_n = n but mu_1 = 1/2: a_0 is the whole series f(x + 1/2)
            make_family(
                "s", Interval(F(0), None), Poly((0, 1)), mu1=MomentPoly.const(F(1, 2))
            ),
        ],
        ids=["shifted_index", "constant_mu1"],
    )
    def test_non_pure_family_rejected(self, family):
        with pytest.raises(NotPureExponentialIndex):
            complete_coeffs(family, 1)

    def test_negative_q_rejected(self):
        with pytest.raises(ValueError):
            complete_coeffs(BERNSTEIN, -1)


class TestTruncatedSum:
    def test_polynomial_exact(self):
        # B_n reproduces polynomials of degree <= 2q through the moment sum
        f = SmoothFunction.polynomial([0, -1, 2, F(1, 3)])
        x, n = F(2, 5), 7
        got = truncated_sum(BERNSTEIN, f, x, n, 2)
        table = central_moments(BERNSTEIN, 4)
        want = sum(
            (
                table.moment(s).eval(n, x)
                * f.eval_exact(x, s)
                / math.factorial(s)
                for s in range(5)
            ),
            F(0),
        )
        assert got == want

    def test_q_zero_is_f_itself(self):
        f = SmoothFunction.polynomial([1, 1])
        assert truncated_sum(SZASZ, f, F(3), 9, 0) == 4

    def test_synthetic_family_still_sums(self):
        # truncated sums need no expansion, so a shifted index is fine;
        # by hand: mu2 = phi'^2/(4(n+1)^2) + phi n/(n+1)^2, zero + 5/242 here
        f = SmoothFunction.monomial(2)
        got = truncated_sum(synthetic_family(), f, F(1, 2), 10, 1)
        assert got == F(1, 4) + F(5, 242)

    def test_transcendental_path(self):
        f = SmoothFunction.exponential(1)
        with mp.workprec(256):
            got = truncated_sum(SZASZ, f, F(1), 50, 1, prec=256)
            want = mp.exp(1) * (1 + to_mpf(F(1, 100)))
            assert abs(got - want) < mp.mpf(2) ** -200

    @pytest.mark.parametrize("spec", ["poly:1,-2,1/3,5,-7/8", "exp:0", "sin:2,1/3"])
    def test_is_the_r_zero_derivative_expansion(self, spec):
        f = parse_function(spec)
        for q in range(3):
            got = truncated_sum(BASKAKOV, f, F(2, 3), 17, q, prec=128)
            want = evaluate_derivative_expansion(BASKAKOV, f, F(2, 3), 17, q, 0, prec=128)
            assert got == want and type(got) is type(want)


class TestDerivativeTerms:
    def test_r_zero_collapses_to_moment_sum(self):
        terms = derivative_terms(BERNSTEIN, 1, 0)
        assert [(t.s_source, t.i, t.s) for t in terms] == [(0, 0, 0), (2, 0, 2)]

    @pytest.mark.parametrize("r", [0, 1, 3])
    def test_q_zero_is_the_r_th_derivative(self, r):
        assert derivative_terms(SZASZ, 0, r) == [ExpansionTerm(0, 0, r, MomentPoly.const(1))]
        f = SmoothFunction.polynomial([1, 2, 3, 4])
        assert evaluate_derivative_expansion(SZASZ, f, F(1, 3), 9, 0, r) == f.eval_exact(F(1, 3), r)

    def test_negative_orders_rejected(self):
        with pytest.raises(ValueError, match="q must be >= 0"):
            derivative_terms(BERNSTEIN, -1, 0)
        with pytest.raises(ValueError, match="r must be >= 0"):
            derivative_terms(BERNSTEIN, 1, -1)

    def test_term_bookkeeping(self):
        for term in derivative_terms(SZASZ, 2, 2):
            assert term.s == term.s_source + 2 - term.i
            assert not term.coefficient.is_zero

    def test_expansion_matches_symbolic_derivative(self):
        # differentiating the truncated sum symbolically must agree with
        # the assembled Leibniz terms for polynomial f
        f = SmoothFunction.polynomial([0, 1, -1, F(2, 7)])
        q, r, n, x = 2, 1, 11, F(3, 8)
        table = central_moments(BERNSTEIN, 2 * q)
        symbolic = Poly(())
        fp = f.poly
        for s in range(2 * q + 1):
            mu = table.moment(s)
            piece = Poly(())
            for power, rf in mu.items():
                piece = piece + (Poly.variable() ** power) * rf.eval(n)
            symbolic = symbolic + piece * fp * F(1, math.factorial(s))
            fp = fp.derivative()
        want = symbolic.derivative()(x)
        got = evaluate_derivative_expansion(BERNSTEIN, f, x, n, q, r)
        assert got == want

    @pytest.mark.parametrize("family", [BERNSTEIN, SZASZ, BASKAKOV])
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_derivative_expansion_evaluates_consistently(self, family, r):
        # the same check swept across families and derivative orders
        f = SmoothFunction.polynomial([1, 0, -2, 1])
        q, n, x = 1, 9, F(1, 3)
        table = central_moments(family, 2 * q)
        symbolic = Poly(())
        fp = f.poly
        for s in range(2 * q + 1):
            mu = table.moment(s)
            piece = Poly(())
            for power, rf in mu.items():
                piece = piece + (Poly.variable() ** power) * rf.eval(n)
            symbolic = symbolic + piece * fp * F(1, math.factorial(s))
            fp = fp.derivative()
        for _ in range(r):
            symbolic = symbolic.derivative()
        assert evaluate_derivative_expansion(family, f, x, n, q, r) == symbolic(x)


def reference_prediction(family, f, x, n, q, r, prec):
    """The Leibniz sum one coefficient at a time: MomentPoly.eval of each
    term, zero weights dropped, the rest through numeric.dot."""
    weighted = [(term.coefficient.eval(n, x), term.s) for term in derivative_terms(family, q, r)]
    weighted = [(w, s) for w, s in weighted if w]
    return dot([w for w, _s in weighted], [f.eval_number(x, s, prec) for _w, s in weighted], prec)


# n and x with 20-digit denominators, and points where a coefficient
# vanishes: phi = 0 at x = 0 (bernstein, szasz, baskakov) and at x = 1
# (bernstein); the synthetic mu_1 at x = 1/2 and its mu_2 coefficient
# (n - 1)/(2(n + 1)^2) at n = 1
FORM_POINTS = [
    (F(7), F(2, 5)),
    (F(1), F(1, 2)),
    (F(4096), F(1)),
    (F(64), F(0)),
    (F(3 * 10**19 + 1, 10**19 + 7), F(10**19 - 3, 3 * 10**19 + 11)),
]


class TestIntegerFormPrediction:
    """evaluate_derivative_expansion through the memo entry's IntegerForm
    against reference_prediction: exact results ==, mpf ones bit for bit."""

    @pytest.mark.parametrize("spec", ["poly:1,-2,1/3,5,-7/8", "exp:0", "exp:1", "sin:2,1/3"])
    @pytest.mark.parametrize(
        "family", [BERNSTEIN, SZASZ, BASKAKOV, GAUSS_WEIERSTRASS, synthetic_family()],
        ids=lambda family: family.id,
    )
    def test_matches_the_reference_sum(self, family, spec):
        f = parse_function(spec)
        for q in range(4):
            for r in range(4):
                for n, x in FORM_POINTS:
                    got = evaluate_derivative_expansion(family, f, x, n, q, r, prec=256)
                    want = reference_prediction(family, f, x, n, q, r, 256)
                    assert type(got) is type(want)
                    assert got == want, (q, r, n, x)

    def test_points_include_vanishing_coefficients(self):
        for family, n, x in ((BERNSTEIN, F(4096), F(1)), (synthetic_family(), F(1), F(1, 2))):
            assert (n, x) in FORM_POINTS
            terms = derivative_terms(family, 2, 1)
            assert any(term.coefficient.eval(n, x) == 0 for term in terms)

    def test_erased_memo_rebuilds_the_form(self):
        f, x, n = SmoothFunction.polynomial([1, -2, F(1, 3)]), F(1, 3), F(9)
        expansion._TERMS.pop(BASKAKOV, None)
        terms = derivative_terms(BASKAKOV, 2, 1)
        entry = expansion._TERMS[BASKAKOV][2, 1]
        assert entry.form is None  # derivative_terms builds no form
        first = evaluate_derivative_expansion(BASKAKOV, f, x, n, 2, 1)
        built = entry.form
        assert built == IntegerForm.build([term.coefficient for term in terms])
        evaluate_derivative_expansion(BASKAKOV, f, x, n, 2, 1)
        assert entry.form is built
        expansion._TERMS.pop(BASKAKOV)
        assert evaluate_derivative_expansion(BASKAKOV, f, x, n, 2, 1) == first
        rebuilt = expansion._TERMS[BASKAKOV][2, 1].form
        assert rebuilt is not built and rebuilt == built


class TestDerivativeTermsMemo:
    def test_repeated_calls_equal_but_fresh(self):
        first = derivative_terms(BASKAKOV, 2, 1)
        second = derivative_terms(BASKAKOV, 2, 1)
        assert first == second
        assert first is not second

    def test_mutation_does_not_leak(self):
        terms = derivative_terms(SZASZ, 2, 2)
        want = list(terms)
        terms.clear()
        assert derivative_terms(SZASZ, 2, 2) == want

    def test_distinct_keys_distinct_terms(self):
        assert derivative_terms(BERNSTEIN, 1, 1) != derivative_terms(BERNSTEIN, 2, 1)
        assert derivative_terms(BERNSTEIN, 2, 1) != derivative_terms(BERNSTEIN, 2, 2)

    def test_dropped_family_leaves_no_entry(self):
        gc.collect()
        before = len(expansion._TERMS)
        family = make_family("transient", Interval(F(0), F(1)), Poly((0, 1, -1)))
        derivative_terms(family, 1, 1)
        assert len(expansion._TERMS) == before + 1
        del family
        gc.collect()
        assert len(expansion._TERMS) == before


class TestVoronovskajaLimit:
    def test_bernstein_cube_r1(self):
        f = SmoothFunction.monomial(3)
        # (phi f'')^{(1)} / 2 at x = 1/3 with phi = x(1-x): value 1
        assert voronovskaja_limit(BERNSTEIN, f, F(1, 3), 1) == 1

    def test_r0_is_half_phi_f2(self):
        f = SmoothFunction.monomial(3)
        x = F(1, 2)
        assert voronovskaja_limit(BERNSTEIN, f, x, 0) == F(3, 8)

    def test_linear_functions_have_zero_limit(self):
        f = SmoothFunction.polynomial([4, -2])
        for family in (BERNSTEIN, SZASZ, BASKAKOV, GAUSS_WEIERSTRASS):
            assert voronovskaja_limit(family, f, F(1, 2), 2) == 0

    def test_gauss_weierstrass_r1(self):
        # phi = 1: the limit is f'''(x)/2
        f = SmoothFunction.monomial(3)
        assert voronovskaja_limit(GAUSS_WEIERSTRASS, f, F(2), 1) == 3

    def test_transcendental_limit(self):
        f = SmoothFunction.exponential(1)
        with mp.workprec(192):
            got = voronovskaja_limit(SZASZ, f, F(1), 1, prec=192)
            # (x f'')' / 2 = (f'' + x f''') / 2 = e at x = 1
            assert abs(got - mp.exp(1)) < mp.mpf(2) ** -150

    def test_shifted_index_rejected(self):
        with pytest.raises(NotPureExponentialIndex):
            voronovskaja_limit(synthetic_family(), SmoothFunction.monomial(2), F(1, 2), 0)
