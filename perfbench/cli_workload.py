"""The cli_cold workload: one ``python -m expasym.cli`` process per job.

The job list follows the README's command examples, one process per
subcommand plus a gauss_weierstrass evaluate, each with seeded parameters
and ``--format json``.  A job is timed from process start to exit; its JSON
output is then checked against ``oracle``.  This module does not import
the package: only the child processes do.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import oracle as O

TOL = Fraction(1, 10**30)
JOB_TIMEOUT_S = 120
MOMENTS_S_MAX = 8
EXPANSION_Q = 4


def parse_poly_text(text, var="x"):
    """Coefficients of the package's polynomial text, e.g. "x - 2/3*x^2"."""
    if text == "0":
        return []
    pieces = re.split(r" ([+-]) ", text)
    terms = [("+", pieces[0])] + list(zip(pieces[1::2], pieces[2::2]))
    coeffs = {}
    for sign, body in terms:
        value = Fraction(-1 if sign == "-" else 1)
        if body.startswith("-"):
            value, body = -value, body[1:]
        if var in body:
            coeff_text, _, head = body.rpartition("*")
            power = int(head.partition("^")[2] or 1)
            value *= Fraction(coeff_text or 1)
        else:
            power = 0
            value *= Fraction(body)
        coeffs[power] = coeffs.get(power, Fraction(0)) + value
    return O.p_trim([coeffs.get(i, Fraction(0)) for i in range(max(coeffs) + 1)])


def _x_point(rng, shape):
    if shape == "bernstein":
        return Fraction(rng.randint(24, 40), 64)
    return Fraction(rng.randint(248, 264), 256)


def _exp_input(rng):
    return O.ExpInput("exp", Fraction(rng.randint(32, 96), 64))


class CliJob:
    def __init__(self, subcommand, args, check):
        self.name = subcommand
        self.args = [subcommand, *args, "--format", "json"]
        self.check_output = check
        self.run = None  # set by CliCold

    def check(self, proc):
        if proc.returncode != 0:
            return [f"{self.name}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        try:
            payload = json.loads(proc.stdout)
        except json.JSONDecodeError as exc:
            return [f"{self.name}: output is not JSON ({exc})"]
        return self.check_output(payload)


def _study_check(label, ref, grid):
    def check(payload):
        problems = [] if payload.get("pass") is True else [f"{label}: pass is not true"]
        columns = (payload["values"], payload["predictions"], payload["residuals"])
        return problems + O.entry_problems(columns, grid, ref, TOL, O.printed_bound, label)

    return check


class CliCold:
    """Fixed list of eight CLI invocations; parameters are seeded once."""

    name = "cli_cold"

    def __init__(self, seed, root, trace_dir=None):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.trace_dir = trace_dir
        self.trace_files = []  # (totals json, spans jsonl) per traced process
        rng = random.Random(seed)
        self.jobs = [
            self._moments(rng),
            self._expansion(rng),
            self._evaluate_szasz(rng),
            self._evaluate_gauss(rng),
            self._verify(rng),
            self._voronovskaja(rng),
            self._extrapolate(rng),
            self._identities(rng),
        ]
        for job in self.jobs:
            job.run = self._runner(job)

    def _runner(self, job):
        def run():
            argv = [sys.executable, "-m", "expasym.cli", *job.args]
            if self.trace_dir is not None:
                k = len(self.trace_files)
                files = (os.path.join(self.trace_dir, f"cli-{k}.json"), os.path.join(self.trace_dir, f"cli-{k}.jsonl"))
                self.trace_files.append(files)
                launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "trace_cli.py")
                argv = [sys.executable, launcher, *files, *job.args]
            return self._call(argv)

        return run

    def _call(self, argv):
        return subprocess.run(
            argv, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=JOB_TIMEOUT_S
        )

    def warm_up(self):
        """One untraced process per job, so each subcommand has run once."""
        for job in self.jobs:
            self._call([sys.executable, "-m", "expasym.cli", *job.args])

    def pass_jobs(self):
        return self.jobs

    # -- jobs --

    def _moments(self, rng):
        shape = rng.choice(("bernstein", "baskakov"))
        self._other = "baskakov" if shape == "bernstein" else "bernstein"
        x = Fraction(rng.randint(1, 15), 16)
        s_max = MOMENTS_S_MAX

        def check(payload):
            label = f"moments {shape}"
            if [entry["s"] for entry in payload] != list(range(s_max + 1)):
                return [f"{label}: orders {[e['s'] for e in payload]}"]
            problems = []
            for entry in payload:
                s = entry["s"]
                got = {term["j"]: parse_poly_text(term["g"]) for term in entry["terms"]}
                want = O.central_moment_expansion(shape, s, x, s)
                if [O.p_eval(got.get(j, []), x) for j in range(s + 1)] != want or any(j > s for j in got):
                    problems.append(f"{label}: expansion of mu_{s} differs at x = {x}")
                closed = O.leading_coefficient(s, list(O.PHI[shape]))
                if got.get((s + 1) // 2, []) != closed:
                    problems.append(f"{label}: leading coefficient of mu_{s} is not the closed form")
            return problems

        return CliJob("moments", ["--family", shape, "--s-max", str(s_max)], check)

    def _expansion(self, rng):
        shape, q = self._other, EXPANSION_Q
        x = Fraction(rng.randint(1, 15), 16)

        def check(payload):
            label = f"expansion {shape}"
            if [entry["k"] for entry in payload] != list(range(q + 1)):
                return [f"{label}: coefficients {[e['k'] for e in payload]}"]
            problems = []
            series = [O.central_moment_expansion(shape, s, x, s) for s in range(2 * q + 1)]
            for entry in payload:
                k = entry["k"]
                slots = {term["s"]: parse_poly_text(term["poly"]) for term in entry["terms"]}
                for s in range(2 * q + 1):
                    want = series[s][k] if k <= s else 0
                    if O.p_eval(slots.get(s, []), x) * math.factorial(s) != want:
                        problems.append(f"{label}: a_{k} slot f^({s}) differs at x = {x}")
            a1 = {term["s"]: term["poly"] for term in payload[1]["terms"]}
            if parse_poly_text(a1.get(2, "0")) != O.p_scale(list(O.PHI[shape]), Fraction(1, 2)):
                problems.append(f"{label}: a_1 does not carry phi/2 in the f'' slot")
            return problems

        return CliJob("expansion", ["--family", shape, "--q", str(q)], check)

    def _evaluate_szasz(self, rng):
        coeffs = [Fraction(rng.randint(-40, 40), 8) for _ in range(3)]
        x, n = Fraction(rng.randint(4, 12), 8), rng.randint(32, 64)
        want = O.operator_exact("szasz", coeffs, n, x, 0)
        spec = "poly:" + ",".join(O.rat_text(c) for c in coeffs)

        def check(payload):
            if O.within(payload["value"], want, O.printed_bound(TOL, want)):
                return []
            return [f"evaluate szasz {spec} n={n} x={x}: {payload['value']}, oracle {want}"]

        return CliJob("evaluate", ["--family", "szasz", "--f", spec, f"--x={O.rat_text(x)}", "--n", str(n)], check)

    def _evaluate_gauss(self, rng):
        fin = _exp_input(rng)
        x, n, r = Fraction(rng.randint(-32, 32), 64), rng.randint(32, 128), 1
        want = fin.operator("gauss_weierstrass", n, x, r)

        def check(payload):
            if O.within(payload["value"], want, O.printed_bound(TOL, want)):
                return []
            return [f"evaluate gauss {fin.spec} n={n} x={x}: {payload['value']}, oracle {want}"]

        args = ["--family", "gauss_weierstrass", "--f", fin.spec, f"--x={O.rat_text(x)}", "--n", str(n), "--r", str(r)]
        return CliJob("evaluate", args, check)

    def _screened(self, rng, shape, study, q, r, grid):
        for _attempt in range(100):
            fin, x = _exp_input(rng), _x_point(rng, shape)
            ref = O.study_reference(shape, study, fin, x, q, r, grid)
            if ref is not None:
                return fin, x, ref
        raise RuntimeError(f"no {shape} {study} input passes the screen")

    def _verify(self, rng):
        grid = tuple(64 * 2**j for j in range(6))
        fin, x, ref = self._screened(rng, "bernstein", "residual", 1, 2, grid)
        args = ["--family", "bernstein", "--f", fin.spec, f"--x={O.rat_text(x)}", "--r", "2", "--q", "1", "--grid", "64:6"]
        return CliJob("verify", args, _study_check(f"verify bernstein {fin.spec} x={x}", ref, grid))

    def _voronovskaja(self, rng):
        grid = tuple(64 * 2**j for j in range(5))
        fin, x, ref = self._screened(rng, "baskakov", "voronovskaja", None, 0, grid)
        args = ["--family", "baskakov", "--f", fin.spec, f"--x={O.rat_text(x)}", "--grid", "64:5"]
        return CliJob("voronovskaja", args, _study_check(f"voronovskaja baskakov {fin.spec} x={x}", ref, grid))

    def _extrapolate(self, rng):
        grid, orders = tuple(64 * 2**j for j in range(6)), (1, 2)
        fin, x = _exp_input(rng), _x_point(rng, "bernstein")
        with O.high_precision():
            target = fin.deriv(x, 0)
            levels = [[n * (fin.operator("bernstein", n, x, 0) - target) for n in grid]]
            for p in orders:
                w = 2**p
                levels.append([(w * b - a) / (w - 1) for a, b in zip(levels[-1], levels[-1][1:])])

        def check(payload):
            label = f"extrapolate bernstein {fin.spec} x={x}"
            got = payload["levels"]
            if [len(row) for row in got] != [len(row) for row in levels]:
                return [f"{label}: level shape {[len(row) for row in got]}"]
            problems = []
            for m, (have_row, want_row) in enumerate(zip(got, levels)):
                for have, want in zip(have_row, want_row):
                    if not O.within(have, want, O.printed_bound(TOL, want, 3**m * max(grid))):
                        problems.append(f"{label}: level {m} entry {have}, oracle {want}")
            return problems

        args = ["--family", "bernstein", "--f", fin.spec, f"--x={O.rat_text(x)}", "--grid", "64:6", "--orders", "1,2"]
        return CliJob("extrapolate", args, check)

    def _identities(self, rng):
        coeffs = [Fraction(rng.randint(-40, 40), 8) for _ in range(3)] + [Fraction(rng.randint(1, 40), 8)]
        x, n = Fraction(rng.randint(1, 15), 16), rng.randint(12, 32)
        spec = "poly:" + ",".join(O.rat_text(c) for c in coeffs)

        def check(payload):
            label = f"identities bernstein {spec} n={n} x={x}"
            problems = [] if payload.get("pass") is True else [f"{label}: pass is not true"]
            names = [c["name"] for c in payload["checks"]]
            if names != ["ode", "psi^1", "psi^2"]:
                problems.append(f"{label}: checks {names}")
            for entry in payload["checks"]:
                if not (O.exact_equal(entry["defect"], 0) and entry["pass"] is True):
                    problems.append(f"{label}: {entry['name']} defect {entry['defect']}")
            return problems

        args = ["--family", "bernstein", "--f", spec, f"--x={O.rat_text(x)}", "--n", str(n)]
        return CliJob("identities", args, check)
