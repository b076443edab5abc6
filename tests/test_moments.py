import gc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from expasym import moments
from expasym.exactalg import MomentPoly, Poly, RatFuncN
from expasym.moments import (
    MAX_MOMENT_ORDER,
    OrderTooLarge,
    ZeroMoment,
    central_moments,
    leading_term_closed_form,
    moment_expansion,
    vanishing_order,
)
from expasym.families import (
    BASKAKOV,
    BERNSTEIN,
    FAMILIES,
    GAUSS_WEIERSTRASS,
    SZASZ,
    Interval,
    make_family,
)
from expasym.operators import central_moment_direct

from jetring import jet_value, moment_jets

# hand-expanded low-order moments in the derivation ring, frozen before the
# recursion existed; keys are (power of 1/n, exponents of phi, phi', ...)
MU3 = {(2, (1, 1)): F(1)}
MU4 = {(2, (2,)): F(3), (3, (1, 2)): F(1), (3, (2, 0, 1)): F(1)}
MU5 = {
    (3, (2, 1)): F(10),
    (4, (1, 3)): F(1),
    (4, (2, 1, 1)): F(4),
    (4, (3, 0, 0, 1)): F(1),
}
MU6 = {
    (3, (3,)): F(15),
    (4, (2, 2)): F(25),
    (4, (3, 0, 1)): F(15),
    (5, (1, 4)): F(1),
    (5, (2, 2, 1)): F(11),
    (5, (3, 0, 2)): F(4),
    (5, (3, 1, 0, 1)): F(7),
    (5, (4, 0, 0, 0, 1)): F(1),
}

# phi and its derivative jets at sample points, per family; padded with
# zeros since every builtin phi is a quadratic
_PAD = [F(0)] * 8
PHI_JETS = {
    "bernstein": lambda x: [x * (1 - x), 1 - 2 * x, F(-2)] + _PAD,
    "szasz": lambda x: [x, F(1), F(0)] + _PAD,
    "baskakov": lambda x: [x * (1 + x), 1 + 2 * x, F(2)] + _PAD,
    "gauss_weierstrass": lambda x: [F(1), F(0), F(0)] + _PAD,
}


def synthetic_family():
    """Shifted-index generalization: lambda_n = n+1 with a matching
    first-moment correction, no direct evaluator."""
    lam = RatFuncN(Poly((1, 1)), Poly.const(1))
    phi = Poly((0, 1, -1))
    mu1 = MomentPoly.from_mapping({0: F(1, 2) / lam, 1: F(-1) / lam})
    return make_family("synthetic", Interval(F(0), F(1)), phi, lam, mu1)


def reference_moments(family, s_max):
    """The MomentPoly recursion the integer kernel replaced, every
    operation normalised."""
    known = [MomentPoly.const(1), family.mu1]
    phi_over_lambda = MomentPoly.from_poly(family.phi) * (
        RatFuncN.const(1) / family.lambda_n
    )
    while len(known) <= s_max:
        s = len(known) - 1
        known.append(
            family.mu1 * known[s]
            + phi_over_lambda * (s * known[s - 1] + known[s].dx())
        )
    return known[: s_max + 1]


def general_families():
    return {
        "shifted_index": synthetic_family(),
        # (3n^2/2 + 2n + 1/3) / (2n + 10): rational coefficients, the
        # denominator given non-monic
        "rational_index": make_family(
            "rational_index",
            Interval(F(0), F(1)),
            Poly((0, 1, -1)),
            RatFuncN(Poly((F(1, 3), 2, F(3, 2))), Poly((10, 2))),
        ),
        # mu_1 = 1/(n+2) + x^2/(3n^2 + 3)
        "quadratic_mu1": make_family(
            "quadratic_mu1",
            Interval(F(0), None),
            Poly((0, 1, 1)),
            mu1=MomentPoly.from_mapping(
                {
                    0: RatFuncN(Poly.const(1), Poly((2, 1))),
                    2: RatFuncN(Poly.const(F(1, 3)), Poly((1, 0, 1))),
                }
            ),
        ),
        # mu_1 = n/3 + x grows with n, so its numerators outgrow the
        # n^(ts) of the integer denominator
        "growing_mu1": make_family(
            "growing_mu1",
            Interval(F(0), F(1)),
            Poly((0, 1, -1)),
            mu1=MomentPoly.from_mapping(
                {0: RatFuncN(Poly((0, F(1, 3))), Poly.const(1)), 1: 1}
            ),
        ),
        "scaled_phi": make_family(
            "scaled_phi", BASKAKOV.interval, BASKAKOV.phi * F(13, 17)
        ),
    }


class TestRecursionAgainstJetRing:
    def test_low_orders_match_frozen_jets(self):
        jets = moment_jets(6)
        assert jets[3] == MU3
        assert jets[4] == MU4
        assert jets[5] == MU5
        assert jets[6] == MU6

    @pytest.mark.parametrize("family_id", sorted(FAMILIES))
    @pytest.mark.parametrize("x", [F(1, 4), F(1, 2), F(5, 7)])
    def test_package_moments_match_ring_substitution(self, family_id, x):
        family = FAMILIES[family_id]
        table = central_moments(family, 8)
        jets = moment_jets(8)
        derivs = PHI_JETS[family_id](x)
        for n in (5, 16):
            for s in range(9):
                assert table.moment(s).eval(n, x) == jet_value(jets[s], n, derivs)

    def test_first_moments_vanish_for_builtins(self):
        for family in FAMILIES.values():
            assert central_moments(family, 1).moment(1).is_zero

    def test_normalization(self):
        for family in FAMILIES.values():
            assert central_moments(family, 0).moment(0) == MomentPoly.const(1)


class TestDirectSummationOracle:
    def test_bernstein_recursion_matches_direct_sums(self):
        # the symbolic recursion against literal weighted power sums
        from expasym.operators import central_moment_direct

        table = central_moments(BERNSTEIN, 8)
        points = [F(0), F(1, 4), F(1, 3), F(1, 2), F(1)]
        for s in range(9):
            mu = table.moment(s)
            for n in range(2, 33):
                for x in points:
                    assert mu.eval(n, x) == central_moment_direct(
                        BERNSTEIN, n, x, s
                    )


class TestIntegerKernel:
    @pytest.mark.parametrize("name", sorted(general_families()))
    def test_matches_momentpoly_recursion(self, name):
        family = general_families()[name]
        want = reference_moments(family, 10)
        got = central_moments(family, 10).moments
        assert got == tuple(want)
        assert [mu.text() for mu in got] == [mu.text() for mu in want]

    def test_dropped_family_leaves_no_cache_entry(self):
        gc.collect()
        before = len(moments._CACHE)
        family = make_family("transient", Interval(F(0), F(1)), Poly((0, 1, -1)))
        central_moments(family, 6)
        assert len(moments._CACHE) == before + 1
        del family
        gc.collect()
        assert len(moments._CACHE) == before


class TestMomentCap:
    @pytest.mark.parametrize("s", [MAX_MOMENT_ORDER - 1, MAX_MOMENT_ORDER])
    def test_bernstein_matches_direct_sums_at_cap(self, s):
        mu = central_moments(BERNSTEIN, MAX_MOMENT_ORDER).moment(s)
        for n in (64, 70):
            for x in (F(1, 3), F(1, 2)):
                assert mu.eval(n, x) == central_moment_direct(BERNSTEIN, n, x, s)

    @pytest.mark.parametrize("family_id", sorted(FAMILIES))
    @pytest.mark.parametrize("s", [MAX_MOMENT_ORDER - 1, MAX_MOMENT_ORDER])
    def test_closed_forms_at_cap(self, family_id, s):
        family = FAMILIES[family_id]
        mu = central_moments(family, MAX_MOMENT_ORDER).moment(s)
        want = leading_term_closed_form(s, family.phi)
        if want.is_zero:
            # gauss_weierstrass: phi' = 0 kills every odd moment
            assert mu.is_zero
            return
        lead = (s + 1) // 2
        assert vanishing_order(mu) == lead
        expansion = moment_expansion(mu)
        assert min(expansion) == lead
        assert expansion[lead] == want


class TestMomentTable:
    def test_s_max_and_bounds(self):
        table = central_moments(BERNSTEIN, 4)
        assert table.s_max == 4
        with pytest.raises(ValueError):
            table.moment(5)
        with pytest.raises(ValueError):
            table.moment(-1)

    def test_cache_extension_is_consistent(self):
        short = central_moments(SZASZ, 3)
        longer = central_moments(SZASZ, 6)
        for s in range(4):
            assert short.moment(s) == longer.moment(s)

    def test_order_cap(self):
        with pytest.raises(OrderTooLarge):
            central_moments(BERNSTEIN, MAX_MOMENT_ORDER + 1)

    @pytest.mark.parametrize("family", [BERNSTEIN, SZASZ, BASKAKOV])
    def test_expansion_coefficients_have_degree_at_most_s(self, family):
        table = central_moments(family, 8)
        for s in range(9):
            for g in moment_expansion(table.moment(s)).values():
                assert g.degree <= s


class TestClosedForms:
    @pytest.mark.parametrize(
        "family", [BERNSTEIN, SZASZ, BASKAKOV, GAUSS_WEIERSTRASS]
    )
    @pytest.mark.parametrize("order", range(0, 11))
    def test_leading_coefficient_matches_closed_form(self, family, order):
        mu = central_moments(family, order).moment(order)
        want = leading_term_closed_form(order, family.phi)
        if mu.is_zero:
            assert want.is_zero
            return
        expansion = moment_expansion(mu)
        lead = min(expansion)
        assert lead == (order + 1) // 2
        assert expansion[lead] == want

    def test_even_orders(self):
        # (2s)! / (2^s s!) phi^s
        assert leading_term_closed_form(4, Poly((0, 1))) == Poly((0, 0, 3))
        assert leading_term_closed_form(6, Poly((0, 1))) == Poly((0, 0, 0, 15))

    def test_odd_orders(self):
        # s (2s+1)! / (3 * 2^s s!) phi^s phi'
        phi = Poly((0, 1, -1))
        want = (phi**2) * phi.derivative() * F(2 * 120, 3 * 4 * 2)
        assert leading_term_closed_form(5, phi) == want

    def test_order_zero_and_one(self):
        phi = Poly((0, 1))
        assert leading_term_closed_form(0, phi) == Poly.const(1)
        assert leading_term_closed_form(1, phi).is_zero


class TestVanishingOrder:
    @pytest.mark.parametrize(
        "family", [BERNSTEIN, SZASZ, BASKAKOV, GAUSS_WEIERSTRASS]
    )
    def test_builtin_law(self, family):
        table = central_moments(family, 12)
        for s in range(2, 13):
            try:
                assert vanishing_order(table.moment(s)) == (s + 1) // 2
            except ZeroMoment:
                # identically-zero moments exceed every finite order
                assert family is GAUSS_WEIERSTRASS and s % 2 == 1

    def test_synthetic_family_keeps_the_law(self):
        table = central_moments(synthetic_family(), 8)
        for s in range(2, 9):
            assert vanishing_order(table.moment(s)) == (s + 1) // 2

    def test_zero_moment_raises(self):
        with pytest.raises(ZeroMoment):
            vanishing_order(MomentPoly())


class TestExpansion:
    def test_szasz_second_moment(self):
        mu = central_moments(SZASZ, 2).moment(2)
        assert moment_expansion(mu) == {1: Poly((0, 1))}

    def test_bernstein_fourth_moment(self):
        mu = central_moments(BERNSTEIN, 4).moment(4)
        phi = BERNSTEIN.phi
        expansion = moment_expansion(mu)
        assert expansion[2] == phi * phi * 3
        assert expansion[3] == phi * Poly((1, -4, 4)) - phi * phi * 2

    def test_infinite_expansion_needs_explicit_order(self):
        mu = central_moments(synthetic_family(), 2).moment(2)
        with pytest.raises(ValueError, match="truncation order"):
            moment_expansion(mu)
        truncated = moment_expansion(mu, J=3)
        assert max(truncated) <= 3
        assert truncated[1] == Poly((0, 1, -1))

    def test_truncation_drops_deeper_terms(self):
        mu = central_moments(BERNSTEIN, 4).moment(4)
        assert set(moment_expansion(mu, J=2)) == {2}

    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=2, max_value=9))
    @settings(max_examples=20, deadline=None)
    def test_expansion_resummation_is_exact(self, n, s):
        # the exact finite expansion resums to the moment itself
        mu = central_moments(BASKAKOV, s).moment(s)
        x = F(2, 7)
        expansion = moment_expansion(mu)
        total = sum(
            (g(x) * F(1, n**j) for j, g in expansion.items()), F(0)
        )
        assert total == mu.eval(n, x)
