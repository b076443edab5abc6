"""The three in-process workloads: seeded job lists and their checks.

A job is one unit of user work: ``run()`` calls the package and returns
what it produced, ``check(result)`` compares that with ``oracle`` and
returns a list of problems (empty when the output is right).  Only
``run()`` is timed.  Inputs come from ``random.Random(seed)``; parameters
that set a job's cost (moment orders, grids, derivative orders, families)
are fixed, so every seed does the same amount of work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import expasym as E
from expasym import MomentPoly, Poly, RatFuncN

import oracle as O

TOL = Fraction(1, 10**30)
PREC_BITS = 256
PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
DYADIC_GRID = tuple(64 * 2**j for j in range(7))  # 64 .. 4096


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list]


def _point(rng, shape):
    """A seeded rational point inside the family's open interval."""
    if shape == "bernstein":
        return Fraction(rng.randint(1, 15), 16)
    if shape == "gauss_weierstrass":
        return Fraction(rng.randint(-20, 20), 8)
    return Fraction(rng.randint(1, 40), 8)


def _prime_ratio(rng):
    """p/q with distinct two-digit primes: never reduces, so every seed
    gives numbers of the same size."""
    p, q = rng.sample(PRIMES, 2)
    return Fraction(p, q)


def _poly_value(poly, x):
    return poly(x) if poly is not None else Fraction(0)


def _monomial_derivative(m, s, x):
    """(d/dx)^s x^m at x."""
    if s > m:
        return Fraction(0)
    return math.perm(m, s) * Fraction(x) ** (m - s)


def _check_derivative_terms(terms, n, x, raw_poly, r, m, label):
    """sum over Leibniz terms of coefficient(n, x) * (x^m)^{(s)} must equal
    (S_n t^m)^{(r)}(x), since the Taylor sum is exact for degree m <= 2q."""
    got = sum(
        (t.coefficient.eval(n, x) * _monomial_derivative(m, t.s, x) for t in terms),
        Fraction(0),
    )
    want = O.p_eval(O.p_deriv(raw_poly, r), x)
    return [] if got == want else [f"{label}: derivative_terms sum {got} != {want}"]


# --- symbolic_cold ----------------------------------------------------------


class SymbolicCold:
    """Cold moment tables of families no earlier job used.

    Each pass builds, for every built-in phi shape, the family c * phi with a
    fresh seeded rational c (tables to order 12, complete_coeffs(6),
    derivative_terms(6, 2)), and the generalised family with index n + 1 and
    first moment (beta - x)/(n + 1) for a fresh beta (tables to order 8,
    truncated expansions, derivative_terms(4, 1))."""

    name = "symbolic_cold"
    PURE_S, PURE_R = 12, 2
    GEN_S, GEN_R = 8, 1

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def warm_up(self):
        for job in (self._pure("szasz", 4, 0), self._general("szasz", 4, 0)):
            problems = job.check(job.run())
            if problems:
                raise RuntimeError(f"warm-up job {job.name} failed: {problems[0]}")

    def pass_jobs(self):
        jobs = [self._pure(shape, self.PURE_S, self.PURE_R) for shape in O.SHAPES]
        jobs += [self._general(shape, self.GEN_S, self.GEN_R) for shape in O.SHAPES]
        return jobs

    def _checkpoint(self, shape):
        rng = self.rng
        return Fraction(rng.randint(20, 200), rng.randint(1, 7)), _point(rng, shape)

    def _pure(self, shape, s_max, r):
        rng = self.rng
        c = _prime_ratio(rng)
        n, x = self._checkpoint(shape)
        q = s_max // 2
        base = E.FAMILIES[shape]

        def run():
            family = E.make_family(f"{shape}*{c}", base.interval, base.phi * c)
            table = E.central_moments(family, s_max)
            expansions = [E.moment_expansion(table.moment(s)) for s in range(s_max + 1)]
            coeffs = E.complete_coeffs(family, q)
            terms = E.derivative_terms(family, q, r)
            return table, expansions, coeffs, terms

        def check(result):
            table, expansions, coeffs, terms = result
            label = f"{shape}*{c}"
            problems = []
            phi = O.scaled_phi(shape, c)
            series = [O.central_moment_expansion(shape, s, x, s, c=c) for s in range(s_max + 1)]
            for s in range(s_max + 1):
                mu = table.moment(s)
                if mu.eval(n, x) != O.central_moment(shape, s, n, x, c=c):
                    problems.append(f"{label}: mu_{s}({n}, {x}) differs from the factorial-moment oracle")
                got = [_poly_value(expansions[s].get(j), x) for j in range(s + 1)]
                if got != series[s] or any(j > s for j in expansions[s]):
                    problems.append(f"{label}: expansion of mu_{s} differs at x = {x}")
                closed = O.leading_coefficient(s, phi)
                if mu.is_zero or not closed:
                    if mu.is_zero != (not closed):
                        problems.append(f"{label}: mu_{s} is zero exactly when its closed form is not")
                    continue
                order = (s + 1) // 2
                if E.vanishing_order(mu) != order or min(expansions[s]) != order:
                    problems.append(f"{label}: vanishing order of mu_{s} is not {order}")
                elif list(expansions[s][order].coeffs) != closed:
                    problems.append(f"{label}: leading coefficient of mu_{s} is not the closed form")
            for k, coeff in enumerate(coeffs):
                for s in range(2 * q + 1):
                    want = series[s][k] if k <= s else 0
                    if coeff.term(s)(x) * math.factorial(s) != want:
                        problems.append(f"{label}: a_{k} slot f^({s}) differs at x = {x}")
            if len(coeffs) != q + 1 or list(coeffs[1].term(2).coeffs) != O.p_scale(phi, Fraction(1, 2)):
                problems.append(f"{label}: a_1 does not carry phi/2 in the f'' slot")
            raw = O.raw_moment_poly(shape, 2 * q, n, c=c)
            problems += _check_derivative_terms(terms, n, x, raw, r, 2 * q, label)
            return problems

        return Job(f"pure:{shape}", run, check)

    def _general(self, shape, s_max, r):
        rng = self.rng
        beta = _prime_ratio(rng)
        n, x = self._checkpoint(shape)
        q = s_max // 2
        base = E.FAMILIES[shape]

        def run():
            lam = RatFuncN(Poly((1, 1)), Poly.const(1))
            mu1 = MomentPoly.from_mapping({0: beta / lam, 1: Fraction(-1) / lam})
            family = E.make_family(f"{shape}+{beta}", base.interval, base.phi, lam, mu1)
            table = E.central_moments(family, s_max)
            expansions = [E.moment_expansion(table.moment(s), s_max) for s in range(s_max + 1)]
            terms = E.derivative_terms(family, q, r)
            return table, expansions, terms

        def check(result):
            table, expansions, terms = result
            label = f"{shape}+{beta}"
            problems = []
            for s in range(s_max + 1):
                mu = table.moment(s)
                if mu.eval(n, x) != O.central_moment(shape, s, n, x, alpha=1, beta=beta):
                    problems.append(f"{label}: mu_{s}({n}, {x}) differs from the factorial-moment oracle")
                want = O.central_moment_expansion(shape, s, x, s_max, alpha=1, beta=beta)
                got = [_poly_value(expansions[s].get(j), x) for j in range(s_max + 1)]
                if got != want:
                    problems.append(f"{label}: truncated expansion of mu_{s} differs at x = {x}")
                if E.vanishing_order(mu) != (s + 1) // 2:
                    problems.append(f"{label}: vanishing order of mu_{s} is not {(s + 1) // 2}")
            raw = O.raw_moment_poly(shape, 2 * q, n, alpha=1, beta=beta)
            problems += _check_derivative_terms(terms, n, x, raw, r, 2 * q, label)
            return problems

        return Job(f"general:{shape}", run, check)


# --- float_studies ----------------------------------------------------------

# (family, study, input kind, q, r); q is None for voronovskaja studies.
FLOAT_LAYOUT = (
    ("bernstein", "residual", "exp", 2, 2),
    ("bernstein", "voronovskaja", "sin", None, 0),
    ("szasz", "residual", "sin", 1, 1),
    ("szasz", "voronovskaja", "exp", None, 2),
    ("baskakov", "residual", "exp", 1, 0),
    ("baskakov", "voronovskaja", "sin", None, 1),
    ("gauss_weierstrass", "residual", "sin", 2, 1),
    ("gauss_weierstrass", "voronovskaja", "exp", None, 2),
)


def _float_point(rng, shape):
    """x where the cost of the series varies little between seeds (it grows
    with n x) and every exp:a input stays summable."""
    if shape == "bernstein":
        return Fraction(rng.randint(24, 40), 64)
    if shape == "gauss_weierstrass":
        return Fraction(rng.randint(-32, 32), 64)
    return Fraction(rng.randint(248, 264), 256)


def _float_input(rng, kind):
    if kind == "exp":
        return O.ExpInput("exp", Fraction(rng.randint(32, 96), 64))
    return O.ExpInput("sin", Fraction(rng.randint(64, 128), 64), Fraction(rng.randint(0, 64), 64))


class FloatStudies:
    """Residual and Voronovskaja studies on exp:a and sin:a,b inputs.

    The fixed job list is FLOAT_LAYOUT on the grid 64..4096 at tol 1e-30 and
    256 bits; x, a and b are seeded.  A drawn input is kept only when the
    closed-form values show that the study's pass rule holds with margin,
    so a correct package passes every job.  The closed-form values are
    computed once here and every pass is checked against them."""

    name = "float_studies"

    def __init__(self, seed):
        rng = random.Random(seed)
        self.jobs = [self._job(rng, *spec) for spec in FLOAT_LAYOUT]

    def warm_up(self):
        f = E.parse_function("exp:1")
        E.operator_eval(E.GAUSS_WEIERSTRASS, f, 64, Fraction(0), tol=TOL, prec=PREC_BITS)
        for family in E.FAMILIES.values():
            E.central_moments(family, 4)

    def pass_jobs(self):
        return self.jobs

    def _job(self, rng, shape, study, kind, q, r):
        for _attempt in range(100):
            x, fin = _float_point(rng, shape), _float_input(rng, kind)
            ref = O.study_reference(shape, study, fin, x, q, r, DYADIC_GRID)
            if ref is not None:
                break
        else:
            raise RuntimeError(f"no {shape} {study} input passes the screen")
        family = E.FAMILIES[shape]
        label = f"{shape} {study} {fin.spec} x={x} r={r}" + (f" q={q}" if q else "")

        def run():
            f = E.parse_function(fin.spec)
            if study == "residual":
                return E.residual_study(family, f, x, r, q, DYADIC_GRID, tol=TOL, prec=PREC_BITS)
            return E.voronovskaja_study(family, f, x, r, DYADIC_GRID, tol=TOL, prec=PREC_BITS)

        def check(report):
            return _check_report(report, ref, label)

        return Job(f"{study}:{shape}", run, check)


def _check_report(report, ref, label):
    """A ConvergenceReport against its oracle reference."""
    problems = [] if report.passed else [f"{label}: report did not pass"]
    columns = (report.values, report.predictions, report.residuals)
    return problems + O.entry_problems(columns, report.grid, ref, TOL, O.float_bound, label)


# --- exact_studies ----------------------------------------------------------


def _exact_point(rng):
    """x in (0, 1) with denominator exactly 16, so Fraction sizes in the
    bernstein sums do not depend on the seed."""
    return Fraction(rng.choice((5, 7, 9, 11)), 16)


def _exact_poly(rng, degree=4):
    coeffs = [Fraction(rng.randint(-40, 40), 8) for _ in range(degree)]
    coeffs.append(Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), 8))
    return coeffs


class ExactStudies:
    """Polynomials of degree 4 = 2q (q = 2) through the exact paths.

    Per pass: for each family a prediction sweep (evaluate_derivative_expansion
    for r = 0..2 and truncated_sum at 3 points x and n = 64..4096); one bernstein
    Fraction evaluation of the second derivative at n near 4096 with its
    prediction; the ODE and psi^m (m = 1, 2) identity defects on bernstein;
    one bernstein voronovskaja_study on the grid 64..2048.  Every value must
    equal the raw-moment oracle exactly and every identity defect is 0."""

    name = "exact_studies"
    Q = 2
    SWEEP_POINTS = 3
    VORONOVSKAJA_GRID = DYADIC_GRID[:-1]

    def __init__(self, seed):
        rng = random.Random(seed)
        self.jobs = [self._sweep(rng, shape) for shape in O.SHAPES]
        self.jobs.append(self._bernstein_direct(rng))
        self.jobs.append(self._identities(rng))
        self.jobs.append(self._voronovskaja(rng))

    def warm_up(self):
        for family in E.FAMILIES.values():
            E.central_moments(family, 8)

    def pass_jobs(self):
        return self.jobs

    def _sweep(self, rng, shape):
        coeffs = _exact_poly(rng)
        points = [_point(rng, shape) for _ in range(self.SWEEP_POINTS)]
        family, q = E.FAMILIES[shape], self.Q
        wants = {
            (n, x, r): O.operator_exact(shape, coeffs, n, x, r)
            for n in DYADIC_GRID for x in points for r in range(3)
        }

        def run():
            f = E.SmoothFunction.polynomial(coeffs)
            out = {}
            for n in DYADIC_GRID:
                for x in points:
                    for r in range(3):
                        out[n, x, r] = E.evaluate_derivative_expansion(family, f, x, n, q, r)
                    out[n, x, "truncated"] = E.truncated_sum(family, f, x, n, q)
            return out

        def check(out):
            problems = []
            for (n, x, r), value in out.items():
                want = wants[n, x, 0 if r == "truncated" else r]
                if not O.exact_equal(value, want):
                    problems.append(f"{shape} sweep: {r} at n = {n}, x = {x} is {value}, oracle {want}")
            return problems

        return Job(f"sweep:{shape}", run, check)

    def _bernstein_direct(self, rng):
        coeffs, x = _exact_poly(rng), _exact_point(rng)
        n, r = 4096 - rng.randint(0, 32), 2
        want = O.operator_exact("bernstein", coeffs, n, x, r)

        def run():
            f = E.SmoothFunction.polynomial(coeffs)
            direct = E.operator_eval(E.BERNSTEIN, f, n, x, r)
            predicted = E.evaluate_derivative_expansion(E.BERNSTEIN, f, x, n, self.Q, r)
            return direct, predicted

        def check(result):
            direct, predicted = result
            if O.exact_equal(direct, want) and O.exact_equal(predicted, want):
                return []
            return [f"bernstein n={n} x={x}: direct {direct}, predicted {predicted}, oracle {want}"]

        return Job("direct:bernstein", run, check)

    def _identities(self, rng):
        coeffs, x = _exact_poly(rng), _exact_point(rng)
        n = rng.randint(48, 80)

        def run():
            f = E.SmoothFunction.polynomial(coeffs)
            defects = [E.ode_identity_check(E.BERNSTEIN, f, n, x)]
            defects += [E.psi_m_derivative_identity_check(E.BERNSTEIN, f, m, n, x) for m in (1, 2)]
            return defects

        def check(defects):
            if all(O.exact_equal(d, 0) for d in defects):
                return []
            return [f"bernstein identities n={n} x={x}: defects {defects}"]

        return Job("identities:bernstein", run, check)

    def _voronovskaja(self, rng):
        grid = self.VORONOVSKAJA_GRID
        for _attempt in range(100):
            coeffs, x, r = _exact_poly(rng), _exact_point(rng), 1
            target = O.p_eval(O.p_deriv(coeffs, r), x)
            limit = O.limit_exact("bernstein", coeffs, x, r)
            scaled = [n * (O.operator_exact("bernstein", coeffs, n, x, r) - target) for n in grid]
            residuals = [v - limit for v in scaled]
            if O.defect_sequence_passes(residuals):
                break
        else:
            raise RuntimeError("no bernstein voronovskaja input passes the screen")
        ref = (scaled, [limit] * len(grid), residuals, None)
        label = f"bernstein voronovskaja poly x={x} r={r}"

        def run():
            f = E.SmoothFunction.polynomial(coeffs)
            return E.voronovskaja_study(E.BERNSTEIN, f, x, r, grid)

        def check(report):
            return _check_report(report, ref, label)

        return Job("voronovskaja:bernstein", run, check)


WORKLOADS = {cls.name: cls for cls in (SymbolicCold, FloatStudies, ExactStudies)}
