"""Tests of the benchmark's oracle and checks.

Run from the checkout root:  python3 -m pytest -q perfbench
(or  python3 -m unittest discover -s perfbench).

The oracle is checked against hand values and against direct summation;
every check is shown to reject an output moved by twice its allowed
tolerance, and exact checks to reject any nonzero change.
"""

import json
import math
import os
import subprocess
import sys
import unittest
from decimal import Decimal
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle as O  # noqa: E402

TOL = F(1, 10**30)
TINY = F(1, 10**40)


def _dec(q):
    with O.high_precision():
        return O.to_dec(q)


class HandValues(unittest.TestCase):
    def test_second_and_fourth_moments(self):
        n, x = F(37, 3), F(2, 7)
        for shape in O.SHAPES:
            for c in (F(1), F(7, 5)):
                phi = O.scaled_phi(shape, c)
                p0, p1, p2 = (O.p_eval(O.p_deriv(phi, k), x) for k in range(3))
                mu2 = p0 / n
                mu4 = 3 * p0**2 / n**2 + (p0 * p1**2 + p0**2 * p2) / n**3
                self.assertEqual(O.central_moment(shape, 2, n, x, c=c), mu2)
                self.assertEqual(O.central_moment(shape, 4, n, x, c=c), mu4)
                self.assertEqual(O.p_eval(O.central_moment_poly(shape, 4, n, c=c), x), mu4)
                series = O.central_moment_expansion(shape, 4, x, 4, c=c)
                self.assertEqual(sum(g / n**j for j, g in enumerate(series)), mu4)

    def test_gaussian_moments(self):
        n, c = F(9), F(3, 2)
        for s in range(9):
            want = 0 if s % 2 else O.double_factorial_odd(s) * (c / n) ** (s // 2)
            self.assertEqual(O.central_moment("gauss_weierstrass", s, n, F(1, 3), c=c), want)

    def test_generalised_first_two_moments(self):
        n, x, beta = F(11), F(1, 4), F(3, 7)
        for shape in O.SHAPES:
            phi = O.p_eval(list(O.PHI[shape]), x)
            self.assertEqual(O.central_moment(shape, 1, n, x, alpha=1, beta=beta), (beta - x) / (n + 1))
            want = (n * phi + (beta - x) ** 2) / (n + 1) ** 2
            self.assertEqual(O.central_moment(shape, 2, n, x, alpha=1, beta=beta), want)

    def test_leading_coefficients(self):
        phi = list(O.PHI["baskakov"])
        dphi = O.p_deriv(phi)
        self.assertEqual(O.leading_coefficient(3, phi), O.p_mul(phi, dphi))
        self.assertEqual(O.leading_coefficient(4, phi), O.p_scale(O.p_pow(phi, 2), 3))
        self.assertEqual(O.leading_coefficient(5, phi), O.p_scale(O.p_mul(O.p_pow(phi, 2), dphi), 10))
        self.assertEqual(O.leading_coefficient(6, phi), O.p_scale(O.p_pow(phi, 3), 15))

    def test_bernstein_exact_against_direct_sum(self):
        f = [F(1), F(-2), F(3, 2), F(1, 3)]
        n, x = 7, F(2, 9)
        for r in range(3):
            values = [O.p_eval(f, F(k, n)) for k in range(n + 1)]
            for _ in range(r):
                values = [b - a for a, b in zip(values, values[1:])]
            m = n - r
            direct = math.perm(n, r) * sum(
                values[k] * math.comb(m, k) * x**k * (1 - x) ** (m - k) for k in range(m + 1)
            )
            self.assertEqual(O.operator_exact("bernstein", f, n, x, r), direct)

    def test_szasz_and_baskakov_exact_against_series(self):
        f = [F(1), F(0), F(-1, 2), F(2)]
        n, x = 5, F(1, 3)
        for shape in ("szasz", "baskakov"):
            with O.high_precision():
                total, k = Decimal(0), 0
                while k < 400:
                    if shape == "szasz":
                        w = (-_dec(n * x)).exp() * _dec(n * x) ** k / math.factorial(k)
                    else:
                        w = math.comb(n + k - 1, k) * _dec(x) ** k * _dec(1 + x) ** (-n - k)
                    total += w * _dec(O.p_eval(f, F(k, n)))
                    k += 1
                want = _dec(O.operator_exact(shape, f, n, x, 0))
                self.assertLess(abs(total - want), Decimal(10) ** -40)


class ClosedForms(unittest.TestCase):
    INPUTS = (O.ExpInput("exp", F(3, 4)), O.ExpInput("sin", F(3, 2), F(1, 5)))

    def test_sincos(self):
        for theta in ("0.1", "-2.5", "7.25", "31"):
            with O.high_precision():
                s, c = O._sincos(Decimal(theta))
                self.assertLess(abs(s * s + c * c - 1), Decimal(10) ** -100)
                self.assertAlmostEqual(float(s), math.sin(float(theta)), places=12)
                self.assertAlmostEqual(float(c), math.cos(float(theta)), places=12)

    def test_undifferentiated_values_by_direct_summation(self):
        n, x = 6, F(2, 5)
        for fin in self.INPUTS:
            with O.high_precision():
                f = [fin.deriv(F(k, n), 0) for k in range(200)]
                bern = sum(math.comb(n, k) * _dec(x) ** k * _dec(1 - x) ** (n - k) * f[k] for k in range(n + 1))
                szasz = sum((-_dec(n * x)).exp() * _dec(n * x) ** k / math.factorial(k) * f[k] for k in range(200))
                bask = sum(math.comb(n + k - 1, k) * _dec(x) ** k * _dec(1 + x) ** (-n - k) * f[k] for k in range(200))
                for shape, want in (("bernstein", bern), ("szasz", szasz), ("baskakov", bask)):
                    self.assertLess(abs(fin.operator(shape, n, x, 0) - want), Decimal(10) ** -80, shape)
        gauss = O.ExpInput("sin", F(2), F(1, 3)).operator("gauss_weierstrass", 8, F(1, 2), 0)
        with O.high_precision():
            s, _c = O._sincos(_dec(F(1) + F(1, 3)))
            want = (-_dec(F(4, 16))).exp() * s
            self.assertLess(abs(gauss - want), Decimal(10) ** -90)

    def test_x_derivatives_by_central_differences(self):
        n, x, h = 12, F(3, 7), F(1, 10**30)
        with O.high_precision():
            self._central_differences(n, x, h)

    def _central_differences(self, n, x, h):
        for fin in self.INPUTS:
            for shape in O.SHAPES:
                for r in range(2):
                    up = fin.operator(shape, n, x + h, r)
                    down = fin.operator(shape, n, x - h, r)
                    slope = (up - down) / _dec(2 * h)
                    self.assertLess(abs(slope - fin.operator(shape, n, x, r + 1)), Decimal(10) ** -40, (shape, r))
            up, down = fin.deriv(x + h, 0), fin.deriv(x - h, 0)
            self.assertLess(abs((up - down) / _dec(2 * h) - fin.deriv(x, 1)), Decimal(10) ** -40)


class ChecksReject(unittest.TestCase):
    def test_float_bound_rejects_twice_tol(self):
        ref = Decimal("2.718281828459045235360287471352662497757")
        for scale in (1, 4096):
            bound = O.float_bound(TOL, ref, scale)
            self.assertTrue(O.within(ref, ref, bound))
            for sign in (1, -1):
                moved = O.as_fraction(ref) + sign * 2 * TOL * scale
                self.assertFalse(O.within(moved, ref, bound))

    def test_printed_bound_rejects_twice_tol(self):
        ref = Decimal("-1.1234567890123456789012345678901234567890")
        printed = "-1.12345678901234567890123"
        self.assertTrue(O.within(printed, ref, O.printed_bound(TOL, ref)))
        moved = O.as_fraction(ref) + 2 * (TOL + O.PRINT_REL * abs(O.as_fraction(ref)))
        self.assertFalse(O.within(moved, ref, O.printed_bound(TOL, ref)))

    def test_exact_rejects_any_change(self):
        ref = F(355, 113)
        self.assertTrue(O.exact_equal(ref, ref))
        self.assertTrue(O.exact_equal("355/113", ref))
        self.assertFalse(O.exact_equal(ref + TINY, ref))
        self.assertFalse(O.exact_equal("3.14159292035398230088495575", ref))
        self.assertFalse(O.exact_equal(0.0, 0))

    def test_mpf_read_exactly(self):
        import mpmath

        self.assertEqual(O.as_fraction(mpmath.mpf("-1.5")), F(-3, 2))
        with mpmath.mp.workprec(300):
            v = -mpmath.mpf(1) / 3
            exact = O.as_fraction(v)
            self.assertLess(abs(exact + F(1, 3)), F(1, 2**299))
            self.assertEqual(mpmath.mpf(exact.numerator) / exact.denominator, v)

    def test_study_entries_reject_twice_tol(self):
        fin, grid = O.ExpInput("exp", F(1)), (64, 128, 256, 512)
        for study, q, r in (("residual", 1, 1), ("voronovskaja", None, 2)):
            ref = O.study_reference("szasz", study, fin, F(1), q, r, grid)
            self.assertIsNotNone(ref)
            self.assertEqual(O.entry_problems(ref[:3], grid, ref, TOL, O.float_bound, "t"), [])
            for column in range(3):
                for i in range(len(grid)):
                    cols = [list(c) for c in ref[:3]]
                    step = 2 * TOL * ref[3][i][column]
                    cols[column][i] = O.as_fraction(cols[column][i]) + step
                    self.assertEqual(len(O.entry_problems(cols, grid, ref, TOL, O.float_bound, "t")), 1)

    def test_exact_study_entries_reject_any_change(self):
        values = [F(1, 3), F(1, 6), F(1, 12)]
        ref = (values, values, values, None)
        cols = [list(values), list(values), list(values)]
        cols[2][1] += TINY
        self.assertEqual(len(O.entry_problems(cols, (1, 2, 4), ref, TOL, O.float_bound, "t")), 1)


class WorkloadChecksReject(unittest.TestCase):
    """The workloads' job checks on real outputs, then on perturbed ones."""

    @classmethod
    def setUpClass(cls):
        import workloads

        cls.W = workloads

    def test_symbolic_jobs(self):
        wl = self.W.SymbolicCold(seed=5)
        for job in (wl._pure("baskakov", 6, 2), wl._general("bernstein", 5, 1)):
            result = job.run()
            self.assertEqual(job.check(result), [])
            table = result[0]
            for s in (2, 5):
                moved = _ShiftedTable(table, s, TINY)
                self.assertNotEqual(job.check((moved,) + tuple(result[1:])), [], (job.name, s))
            terms = result[-1]
            moved_terms = list(terms[:-1]) + [_ShiftedTerm(terms[-1], TINY)]
            self.assertNotEqual(job.check(tuple(result[:-1]) + (moved_terms,)), [])

    def test_exact_jobs(self):
        jobs = {job.name: job for job in self.W.ExactStudies(seed=3).jobs}
        sweep = jobs["sweep:szasz"]
        out = sweep.run()
        self.assertEqual(sweep.check(out), [])
        key = next(iter(out))
        self.assertNotEqual(sweep.check({**out, key: out[key] + TINY}), [])
        identities = jobs["identities:bernstein"]
        defects = identities.run()
        self.assertEqual(identities.check(defects), [])
        self.assertNotEqual(identities.check([TINY] + defects[1:]), [])

    def test_float_report_check(self):
        fin, grid = O.ExpInput("exp", F(1)), (64, 128, 256, 512)
        ref = O.study_reference("szasz", "residual", fin, F(1), 1, 1, grid)
        report = _Report(grid, *ref[:3])
        self.assertEqual(self.W._check_report(report, ref, "t"), [])
        moved = _Report(grid, [O.as_fraction(ref[0][0]) + 2 * TOL] + list(ref[0][1:]), ref[1], ref[2])
        self.assertNotEqual(self.W._check_report(moved, ref, "t"), [])
        self.assertNotEqual(self.W._check_report(_Report(grid, *ref[:3], passed=False), ref, "t"), [])


class CliChecksReject(unittest.TestCase):
    def test_cli_jobs(self):
        import cli_workload as C

        root = os.path.dirname(HERE)
        wl = C.CliCold(seed=4, root=root)
        for job in wl.jobs:
            proc = job.run()
            self.assertEqual(job.check(proc), [], job.args)
            payload = json.loads(proc.stdout)
            for moved in _perturbed_payloads(payload):
                fake = subprocess.CompletedProcess(job.args, 0, json.dumps(moved), "")
                self.assertNotEqual(job.check(fake), [], (job.name, moved))


def _perturbed_payloads(payload):
    """Copies of a CLI payload with one printed number moved: exact forms by
    1e-40, floats by twice tol plus twice the printing rounding."""

    def move(text):
        if any(ch in text for ch in ".eE"):
            value = O.as_fraction(text)
            return str(_dec(value + 2 * (TOL * 4096 * 9 + O.PRINT_REL * abs(value))))
        return O.rat_text(F(text) + TINY)

    if isinstance(payload, dict) and "value" in payload:
        yield {**payload, "value": move(payload["value"])}
    if isinstance(payload, dict) and "values" in payload:
        yield {**payload, "values": [move(payload["values"][0])] + payload["values"][1:]}
    if isinstance(payload, dict) and "levels" in payload:
        levels = [list(row) for row in payload["levels"]]
        levels[-1][0] = move(levels[-1][0])
        yield {**payload, "levels": levels}
    if isinstance(payload, dict) and "checks" in payload:
        checks = [dict(c) for c in payload["checks"]]
        checks[0]["defect"] = move(checks[0]["defect"])
        yield {**payload, "checks": checks}
    if isinstance(payload, list):
        entries = json.loads(json.dumps(payload))
        terms = entries[-1]["terms"]
        key = "g" if "g" in terms[0] else "poly"
        terms[0][key] = terms[0][key] + " + 1/10000000000000000000000000000000000000000*x^20"
        yield entries


class _ShiftedMoment:
    def __init__(self, mu, delta):
        self.mu, self.delta = mu, delta
        self.is_zero = mu.is_zero

    def eval(self, n, x):
        return self.mu.eval(n, x) + self.delta

    def __getattr__(self, name):
        return getattr(self.mu, name)


class _ShiftedTable:
    def __init__(self, table, s, delta):
        self.table, self.s, self.delta = table, s, delta

    def moment(self, s):
        mu = self.table.moment(s)
        return _ShiftedMoment(mu, self.delta) if s == self.s else mu


class _ShiftedTerm:
    def __init__(self, term, delta):
        self.s = term.s
        self.coefficient = _ShiftedMoment(term.coefficient, delta)


class _Report:
    def __init__(self, grid, values, predictions, residuals, passed=True):
        self.grid, self.values, self.predictions, self.residuals = grid, values, predictions, residuals
        self.passed = passed


if __name__ == "__main__":
    unittest.main()
