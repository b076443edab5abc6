"""Acceptance suite: nine standalone criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py`; the verdict lines appear in a
terminal-summary section once capture is torn down (immediately with -s).
Tolerances are pinned here and nowhere else: series tolerance 10^-30 at
256-bit precision, duality slack 4x tolerance, identity slack 10x,
ratio band [0.35, 0.65], decay margin 0.75 past the truncation order,
fit quality r^2 >= 0.98, extrapolation gain >= 0.8 orders.
"""

import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest
from mpmath import mp

from expasym.exactalg import Poly
from expasym.functions import SmoothFunction, to_mpf
from expasym.moments import (
    ZeroMoment,
    central_moments,
    leading_term_closed_form,
    moment_expansion,
    vanishing_order,
)
from expasym.families import (
    BASKAKOV,
    BERNSTEIN,
    GAUSS_WEIERSTRASS,
    SZASZ,
    Interval,
    make_family,
)
from expasym.numeric import DEFAULT_TOL
from expasym.operators import central_moment_direct, operator_eval
from expasym.expansion import evaluate_derivative_expansion, voronovskaja_limit
from expasym.verify import (
    fit_order,
    ode_identity_check,
    psi_m_derivative_identity_check,
    residual_study,
    richardson,
)
from expasym.exactalg import RatFuncN
from expasym.exactalg import MomentPoly

BUILTINS = (BERNSTEIN, SZASZ, BASKAKOV, GAUSS_WEIERSTRASS)
DISCRETE = (BERNSTEIN, SZASZ, BASKAKOV)
TOL = DEFAULT_TOL  # 10^-30 series tolerance at 256-bit working precision

VERDICTS: list[str] = []  # rendered by conftest's terminal-summary hook


@contextmanager
def criterion(number: int, label: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        _announce(number, label, "FAIL", start)
        raise
    _announce(number, label, "PASS", start)


def _announce(number: int, label: str, verdict: str, start: float) -> None:
    elapsed = time.monotonic() - start
    line = f"CRITERION {number} {verdict} ({elapsed:.2f}s): {label}"
    VERDICTS.append(line)
    print(line, flush=True)


@pytest.fixture(autouse=True)
def _wide_ambient_precision():
    with mp.workprec(320):
        yield


# Hand-derived reference jets, frozen before the recursion existed.  Keys
# are (power of 1/n, exponents over (phi, phi', phi'', ...)); every built-in
# weight function is quadratic, so derivatives past phi'' contribute nothing.
REF_JETS = {
    3: {(2, (1, 1)): F(1)},
    4: {(2, (2,)): F(3), (3, (1, 2)): F(1), (3, (2, 0, 1)): F(1)},
    5: {
        (3, (2, 1)): F(10),
        (4, (1, 3)): F(1),
        (4, (2, 1, 1)): F(4),
        (4, (3, 0, 0, 1)): F(1),
    },
}
MU6_SHALLOW = {(3, (3,)): F(15)}
# The 1/n^4 weight of mu_6 is pinned to the recursion output; hand tables
# circulate with the phi^2 phi'^2 coefficient misprinted as 1.  The direct
# summation check below settles it at 25.
MU6_MIDDLE = {(4, (2, 2)): F(25), (4, (3, 0, 1)): F(15)}
MU6_DEEP = {
    (5, (1, 4)): F(1),
    (5, (2, 2, 1)): F(11),
    (5, (3, 0, 2)): F(4),
    (5, (3, 1, 0, 1)): F(7),
    (5, (4, 0, 0, 0, 1)): F(1),
}


def _phi_derivs(phi: Poly) -> list[Poly]:
    derivs = [phi]
    for _ in range(6):
        derivs.append(derivs[-1].derivative())
    return derivs


def _jet_poly(jet: dict, j: int, derivs: list[Poly]) -> Poly:
    total = Poly.const(F(0))
    for (npow, mono), coeff in jet.items():
        if npow != j:
            continue
        term = Poly.const(coeff)
        for idx, exponent in enumerate(mono):
            if exponent:
                term = term * derivs[idx] ** exponent
        total = total + term
    return total


def _jet_expansion(jet: dict, derivs: list[Poly]) -> dict[int, Poly]:
    out = {}
    for j in sorted({npow for npow, _mono in jet}):
        poly = _jet_poly(jet, j, derivs)
        if not poly.is_zero:
            out[j] = poly
    return out


def _synthetic_family():
    lam = RatFuncN(Poly((1, 1)), Poly.const(1))
    phi = Poly((0, 1, -1))
    mu1 = MomentPoly.from_mapping({0: F(1, 2) / lam, 1: F(-1) / lam})
    return make_family("synthetic", Interval(F(0), F(1)), phi, lam, mu1)


def test_criterion_1_low_order_moment_tables():
    with criterion(1, "moment tables match hand-derived references to order six"):
        start = time.monotonic()
        for family in BUILTINS:
            table = central_moments(family, 6)
            derivs = _phi_derivs(family.phi)
            for s in (3, 4, 5):
                assert moment_expansion(table.moment(s)) == _jet_expansion(
                    REF_JETS[s], derivs
                )
            six = moment_expansion(table.moment(6))
            for jet in (MU6_SHALLOW, MU6_MIDDLE, MU6_DEEP):
                for j in {npow for npow, _m in jet}:
                    assert six.get(j, Poly.const(F(0))) == _jet_poly(jet, j, derivs)
        # the contested middle coefficient, cross-checked by direct summation
        table = central_moments(BERNSTEIN, 6)
        derivs = _phi_derivs(BERNSTEIN.phi)
        for n in (8, 16):
            for x in (F(1, 4), F(1, 2)):
                want = sum(
                    _jet_poly(jet, j, derivs)(x) * F(1, n**j)
                    for jet in (MU6_SHALLOW, MU6_MIDDLE, MU6_DEEP)
                    for j in {npow for npow, _m in jet}
                )
                assert table.moment(6).eval(n, x) == want
                assert central_moment_direct(BERNSTEIN, n, x, 6) == want
        assert time.monotonic() - start < 1.0


def test_criterion_2_closed_form_leading_terms():
    with criterion(2, "leading expansion terms match the closed form to order 16"):
        start = time.monotonic()
        for family in DISCRETE:
            table = central_moments(family, 16)
            for order in range(17):
                mu = table.moment(order)
                want = leading_term_closed_form(order, family.phi)
                if mu.is_zero:
                    assert want.is_zero
                    continue
                expansion = moment_expansion(mu)
                lead = min(expansion)
                assert lead == (order + 1) // 2
                assert expansion[lead] == want
        assert time.monotonic() - start < 5.0


def test_criterion_3_vanishing_order_law():
    with criterion(3, "moment vanishing orders follow floor((s+1)/2)"):
        for family in BUILTINS:
            table = central_moments(family, 12)
            for s in range(13):
                mu = table.moment(s)
                if mu.is_zero:
                    with pytest.raises(ZeroMoment):
                        vanishing_order(mu)
                else:
                    assert vanishing_order(mu) == (s + 1) // 2
        table = central_moments(_synthetic_family(), 8)
        for s in range(9):
            assert vanishing_order(table.moment(s)) == (s + 1) // 2


def test_criterion_4_symbolic_direct_duality():
    with criterion(4, "symbolic moments agree with direct summation"):
        table = central_moments(BERNSTEIN, 8)
        for n in range(1, 33):
            for x in (F(1, 6), F(1, 3), F(1, 2), F(2, 3), F(5, 6)):
                for s in range(9):
                    assert table.moment(s).eval(n, x) == central_moment_direct(
                        BERNSTEIN, n, x, s
                    )
        slack = 4 * to_mpf(TOL)
        for family in (SZASZ, BASKAKOV):
            table = central_moments(family, 6)
            for n in (8, 32, 128):
                for x in (F(1, 4), F(1, 2), F(1), F(3, 2), F(3)):
                    for s in range(7):
                        direct = central_moment_direct(family, n, x, s)
                        symbolic = to_mpf(table.moment(s).eval(n, x))
                        assert abs(to_mpf(direct) - symbolic) <= slack


def test_criterion_5_dyadic_defect_halving():
    with criterion(5, "scaled derivative defects halve along the dyadic grid"):
        start = time.monotonic()
        f = SmoothFunction.exponential(1)
        grid = (512, 1024, 2048, 4096, 8192)
        cases = (
            (BERNSTEIN, F(1, 4)),
            (BERNSTEIN, F(1, 2)),
            (SZASZ, F(1)),
            (BASKAKOV, F(1)),
        )
        for family, x in cases:
            for r in range(3):
                limit = voronovskaja_limit(family, f, x, r, prec=256)
                defects = []
                for n in grid:
                    value = operator_eval(family, f, n, x, r)
                    defects.append(n * (value - f.eval_mpf(x, r)) - limit)
                for a, b in zip(defects, defects[1:]):
                    ratio = abs(b / a)
                    assert 0.35 <= ratio <= 0.65
        assert time.monotonic() - start < 60.0


def test_criterion_6_residual_decay_order():
    with criterion(6, "residuals decay a full order past the truncation"):
        grid = tuple(64 * 2**j for j in range(6))
        triples = (
            (BERNSTEIN, SmoothFunction.exponential(1), F(2, 5)),
            (SZASZ, SmoothFunction.sinusoid(1, 0), F(1)),
            (BASKAKOV, SmoothFunction.exponential(-1), F(1)),
        )
        for family, f, x in triples:
            for r in (1, 2):
                for q in (1, 2):
                    report = residual_study(family, f, x, r, q, grid)
                    assert report.passed
                    if report.fitted_order is not None:
                        assert report.fitted_order <= -(q + 0.75)
                        assert report.r_squared >= 0.98


def test_criterion_7_polynomial_exactness():
    with criterion(7, "the derivative expansion is exact on low-degree polynomials"):
        pool = (F(1), F(-2), F(3, 2), F(-1, 3), F(1, 4))
        for q in (1, 2):
            for degree in range(2 * q + 1):
                f = SmoothFunction.polynomial(pool[: degree + 1])
                for n in range(1, 65):
                    for x in (F(1, 3), F(1, 2), F(5, 7)):
                        for r in range(min(2, n) + 1):
                            direct = operator_eval(BERNSTEIN, f, n, x, r)
                            predicted = evaluate_derivative_expansion(
                                BERNSTEIN, f, x, n, q, r
                            )
                            assert direct - predicted == 0


def test_criterion_8_defining_identities():
    with criterion(8, "defining identities hold exactly or to ten tolerances"):
        polys = (
            SmoothFunction.monomial(2),
            SmoothFunction.monomial(3),
            SmoothFunction.polynomial([F(1), F(-2), F(3, 2)]),
        )
        for f in polys:
            for n in (6, 16):
                for x in (F(1, 4), F(2, 3)):
                    assert ode_identity_check(BERNSTEIN, f, n, x) == 0
                    for m in (1, 2):
                        assert (
                            psi_m_derivative_identity_check(BERNSTEIN, f, m, n, x)
                            == 0
                        )
        bound = 10 * to_mpf(TOL)
        for family in (SZASZ, BASKAKOV):
            for f in (SmoothFunction.monomial(2), SmoothFunction.monomial(3)):
                for n in (8, 32):
                    for x in (F(1, 2), F(2)):
                        assert abs(ode_identity_check(family, f, n, x)) < bound
                        for m in (1, 2):
                            defect = psi_m_derivative_identity_check(
                                family, f, m, n, x
                            )
                            assert abs(defect) < bound


def test_criterion_9_extrapolation_gain():
    with criterion(9, "one extrapolation level gains at least 0.8 orders"):
        f = SmoothFunction.exponential(1)
        x = F(2, 5)
        grid = tuple(64 * 2**j for j in range(6))
        limit = voronovskaja_limit(BERNSTEIN, f, x, 0, prec=256)
        values = [
            n * (operator_eval(BERNSTEIN, f, n, x, 0) - f.eval_mpf(x, 0))
            for n in grid
        ]
        levels = richardson(grid, values, (1,), prec=256)
        base_slope, _ = fit_order(grid, [abs(v - limit) for v in values])
        accelerated = [abs(v - limit) for v in levels[1]]
        acc_slope, _ = fit_order(grid[: len(accelerated)], accelerated)
        assert base_slope - acc_slope >= 0.8
