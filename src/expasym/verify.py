"""Numerical verification harness.

Turns asymptotic statements into measurable pass/fail artifacts:

  residual_study       operator value minus expansion prediction across a
                       dyadic n-grid, with the decay order fitted by least
                       squares on (log n, log |residual|);
  voronovskaja_study   the defect d_n = n[(S_n f)^{(r)} - f^{(r)}] minus
                       the limit, tracked for c/n behaviour via doubling
                       ratios;
  identity checks      the first-order ODE and its psi^m generalisation,
                       left side computed symbolically, right side by the
                       direct evaluators, reported as a defect;
  richardson           dyadic extrapolation against a known exponent ladder.

Exact zeros (polynomial cases) never enter a log fit; float residuals below
the evaluator noise floor 16 tol (every float rule is only tol-accurate)
are classified as exact, since fitting them would measure evaluator error,
not truncation order.  Every exact-or-float decision (subtraction, comparison,
magnitude, rendering) is made by expasym.numeric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from mpmath import mp

from .exactalg import Poly, Rat, Scalar, _as_rat, format_rat
from .expansion import evaluate_derivative_expansion, voronovskaja_limit
from .families import OperatorFamily
from .functions import SmoothFunction
from .moments import central_moments
from .numeric import (
    DEFAULT_TOL,
    Number,
    abs_le,
    combine,
    format_number,
    is_exact,
    magnitude,
    subtract,
    to_mpf,
)
from .operators import PrecisionTooLow, operator_eval

RATIO_BAND = (0.35, 0.65)
SLOPE_SLACK = 0.75


class AllResidualsZero(Exception):
    """Every residual is exactly zero (or below the noise floor): the
    identity holds exactly, which is a pass, not a fit."""


class GridNotDyadic(ValueError):
    """Extrapolation needs n, 2n, 4n, ..."""


class PhiVanishes(ValueError):
    """The identity being checked divides by phi(x)."""


@dataclass(frozen=True)
class ConvergenceReport:
    """One study's complete artifact; serialisable, deterministic."""

    family_id: str
    f: str
    x: Rat
    r: int
    q: int
    grid: tuple[int, ...]
    values: tuple[Number, ...]
    predictions: tuple[Number, ...]
    residuals: tuple[Number, ...]
    fitted_order: float | None
    r_squared: float | None
    ratio_track: tuple[float | None, ...]
    passed: bool
    noise_floor: Rat  # residuals at or below it read as exact; text output only

    def to_json_dict(self) -> dict:
        return {
            "family": self.family_id,
            "f": self.f,
            "x": format_rat(self.x),
            "r": self.r,
            "q": self.q,
            "grid": list(self.grid),
            "values": [format_number(v) for v in self.values],
            "predictions": [format_number(v) for v in self.predictions],
            "residuals": [format_number(v) for v in self.residuals],
            "fitted_order": self.fitted_order,
            "r_squared": self.r_squared,
            "ratio_track": list(self.ratio_track),
            "pass": self.passed,
        }

    def to_csv_text(self) -> str:
        lines = ["n,value,prediction,residual,ratio"]
        for i, n in enumerate(self.grid):
            ratio = ""
            if i >= 1 and self.ratio_track[i - 1] is not None:
                ratio = repr(self.ratio_track[i - 1])
            lines.append(
                f"{n},{format_number(self.values[i])},"
                f"{format_number(self.predictions[i])},"
                f"{format_number(self.residuals[i])},{ratio}"
            )
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [
            f"family: {self.family_id}  f: {self.f}  x: {format_rat(self.x)}"
            f"  r: {self.r}  q: {self.q}"
        ]
        for i, n in enumerate(self.grid):
            lines.append(
                f"  n={n}  residual={format_number(self.residuals[i])}"
            )
        if self.fitted_order is not None:
            order = f"{self.fitted_order:.4f}"
        elif all(abs_le(res, self.noise_floor) for res in self.residuals):
            order = "exact"
        else:
            order = "not fitted"
        rsq = "-" if self.r_squared is None else f"{self.r_squared:.6f}"
        lines.append(f"fitted order: {order}  r^2: {rsq}")
        lines.append(f"pass: {str(self.passed).lower()}")
        return "\n".join(lines) + "\n"


def fit_order(
    grid: Sequence[int],
    residuals: Sequence[Number],
    floor: Rat = Fraction(0),
) -> tuple[float, float]:
    """Least-squares slope and r^2 of log|residual| against log n.
    Residuals with |residual| <= floor are excluded; if none survive the
    data is an exact identity and AllResidualsZero is raised."""
    if len(grid) != len(residuals):
        raise ValueError("grid and residuals must have equal length")
    points = []
    with mp.workprec(64):
        for n, res in zip(grid, residuals):
            if abs_le(res, floor):
                continue
            points.append((math.log(n), float(mp.log(magnitude(res)))))
    if not points:
        raise AllResidualsZero("all residuals at or below the floor")
    if len(points) < 3:
        raise ValueError("need at least 3 residuals above the floor to fit")
    count = len(points)
    mean_x = sum(p[0] for p in points) / count
    mean_y = sum(p[1] for p in points) / count
    sxx = sum((p[0] - mean_x) ** 2 for p in points)
    sxy = sum((p[0] - mean_x) * (p[1] - mean_y) for p in points)
    syy = sum((p[1] - mean_y) ** 2 for p in points)
    slope = sxy / sxx
    r_squared = 1.0 if syy == 0 else (sxy * sxy) / (sxx * syy)
    return slope, r_squared


def _validate_grid(grid: Sequence[int]) -> tuple[int, ...]:
    grid = tuple(int(n) for n in grid)
    if len(grid) < 2:
        raise ValueError("grid needs at least 2 points")
    if any(n <= 0 for n in grid):
        raise ValueError("grid entries must be positive")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    return grid


def _ratio_track(
    residuals: Sequence[Number], floor: Rat
) -> tuple[float | None, ...]:
    track: list[float | None] = []
    with mp.workprec(64):
        for a, b in zip(residuals, residuals[1:]):
            if abs_le(a, floor) or abs_le(b, floor):
                track.append(None)
                continue
            track.append(float(magnitude(b) / magnitude(a)))
    return tuple(track)


def residual_study(
    family: OperatorFamily,
    f: SmoothFunction,
    x: Scalar,
    r: int,
    q: int,
    grid: Sequence[int],
    tol: Rat = DEFAULT_TOL,
    prec: int | None = None,
    quad_order: int = 64,
) -> ConvergenceReport:
    """Decay study of (S_n f)^{(r)}(x) minus the order-q expansion.  The
    next expansion term exists for the shipped f, so the residual decays
    one full order faster: pass means fitted order <= -(q + 0.75).  With
    fewer than three residuals above the floor, the fitted order is the
    slope between the two (None with one or none), and no residual may
    rise above the floor after one sank below it."""
    x = _as_rat(x)
    if q < 1:
        raise ValueError("q must be >= 1")
    family.require_point(x, interior=True)
    grid = _validate_grid(grid)
    values = []
    predictions = []
    residuals = []
    for n in grid:
        value = operator_eval(
            family, f, n, x, r, tol=tol, prec=prec, quad_order=quad_order
        )
        prediction = evaluate_derivative_expansion(family, f, x, n, q, r, prec=prec)
        values.append(value)
        predictions.append(prediction)
        residuals.append(subtract(value, prediction, prec))
    # exact residuals carry no evaluator error; float ones are tol-accurate
    floor = Fraction(0) if all(map(is_exact, residuals)) else 16 * tol
    bound = -(q + SLOPE_SLACK)
    above = [i for i, res in enumerate(residuals) if not abs_le(res, floor)]
    fitted: float | None = None
    rsq: float | None = None
    if len(above) >= 3:
        fitted, rsq = fit_order(grid, residuals, floor=floor)
        passed = fitted <= bound
    else:
        # too few residuals above the floor to fit: they must lead the grid
        # (the rest sank below it) and a pair must fall like n^bound
        passed = above == list(range(len(above)))
        if len(above) == 2:
            with mp.workprec(64):
                drop = mp.log(magnitude(residuals[1]) / magnitude(residuals[0]))
            fitted = float(drop) / math.log(grid[1] / grid[0])
            passed = passed and fitted <= bound
    return ConvergenceReport(
        family_id=family.id,
        f=f.describe(),
        x=x,
        r=r,
        q=q,
        grid=grid,
        values=tuple(values),
        predictions=tuple(predictions),
        residuals=tuple(residuals),
        fitted_order=fitted,
        r_squared=rsq,
        ratio_track=_ratio_track(residuals, floor),
        passed=passed,
        noise_floor=floor,
    )


def scaled_defects(
    family: OperatorFamily,
    f: SmoothFunction,
    x: Scalar,
    r: int,
    grid: Sequence[int],
    tol: Rat,
    prec: int | None,
    quad_order: int,
) -> list[Number]:
    """n[(S_n f)^{(r)}(x) - f^{(r)}(x)] for each n in grid; exact when the
    operator values and f^{(r)}(x) are."""
    x = _as_rat(x)
    target = f.eval_number(x, r, prec)
    out = []
    for n in grid:
        value = operator_eval(
            family, f, n, x, r, tol=tol, prec=prec, quad_order=quad_order
        )
        out.append(combine(lambda v, t: n * (v - t), value, target, prec=prec))
    return out


def voronovskaja_study(
    family: OperatorFamily,
    f: SmoothFunction,
    x: Scalar,
    r: int,
    grid: Sequence[int],
    tol: Rat = DEFAULT_TOL,
    prec: int | None = None,
    quad_order: int = 64,
) -> ConvergenceReport:
    """Tracks d_n = n[(S_n f)^{(r)}(x) - f^{(r)}(x)] - (phi f'')^{(r)}(x)/2.
    Since d_n ~ c/n, passing means |d_n| decreasing with doubling ratios
    inside RATIO_BAND on the upper half of the grid (or d_n exactly 0).  The
    order is fitted only when at least three d_n lie above the noise floor
    16 tol max(grid)."""
    x = _as_rat(x)
    family.require_point(x, interior=True)
    grid = _validate_grid(grid)
    limit = voronovskaja_limit(family, f, x, r, prec=prec)
    values = scaled_defects(family, f, x, r, grid, tol, prec, quad_order)
    residuals = [subtract(d, limit, prec) for d in values]
    floor = 16 * tol * max(grid)
    track = _ratio_track(residuals, floor)
    if all(abs_le(d, floor) for d in residuals):
        passed = True
    else:
        with mp.workprec(64):
            magnitudes = [magnitude(d) for d in residuals]
        decreasing = all(b < a for a, b in zip(magnitudes, magnitudes[1:]))
        upper = track[len(track) // 2 :]
        in_band = all(
            RATIO_BAND[0] <= t <= RATIO_BAND[1]
            for t in upper
            if t is not None
        )
        passed = decreasing and in_band
    fitted: float | None = None
    rsq: float | None = None
    if sum(not abs_le(d, floor) for d in residuals) >= 3:
        fitted, rsq = fit_order(grid, residuals, floor=floor)
    return ConvergenceReport(
        family_id=family.id,
        f=f.describe(),
        x=x,
        r=r,
        q=1,
        grid=grid,
        values=tuple(values),
        predictions=tuple(limit for _ in grid),
        residuals=tuple(residuals),
        fitted_order=fitted,
        r_squared=rsq,
        ratio_track=track,
        passed=passed,
        noise_floor=floor,
    )


def _require_interior(family: OperatorFamily, x: Rat) -> None:
    family.require_point(x)
    if family.phi(x) == 0:
        raise PhiVanishes(
            f"phi({format_rat(x)}) = 0 for family {family.id!r}"
        )


def _right_side(
    family: OperatorFamily, f: SmoothFunction, m: int, n: int, x: Rat,
    cases: Sequence[tuple[int, int]], tol: Rat, prec: int | None, quad_order: int,
) -> tuple[Rat, list[Number]]:
    """lambda_n(n)/phi(x) and the direct values of the psi^m identity (m = 0:
    the first-order one), (S_n(psi_x^p f))^{(r)}(x) for each (p, r) in cases
    in order, then S_n(psi_x)(x), each to tol/(32 (n + m + 2)); a
    PrecisionTooLow raised there is raised again naming tol and that factor."""
    inner = tol / (32 * (n + m + 2))
    kwargs = dict(tol=inner, prec=prec, quad_order=quad_order)
    psi = Poly((-x, Fraction(1)))
    try:
        values = [
            operator_eval(family, SmoothFunction.polynomial(psi**p * f.poly), n, x, r, **kwargs)
            for p, r in cases
        ]
        values.append(operator_eval(family, SmoothFunction.polynomial(psi), n, x, 0, **kwargs))
    except PrecisionTooLow as exc:
        raise PrecisionTooLow(
            f"identity tol {mp.nstr(to_mpf(tol), 3)} becomes"
            f" tol/(32*({n} + {m + 2})) = {mp.nstr(to_mpf(inner), 3)}"
            f" per operator value: {exc}"
        ) from exc
    return family.lambda_n.eval(n) / family.phi(x), values


def ode_identity_check(
    family: OperatorFamily,
    f: SmoothFunction,
    n: int,
    x: Scalar,
    tol: Rat = DEFAULT_TOL,
    prec: int | None = None,
    quad_order: int = 64,
) -> Number:
    """Defect of the first-order identity
    (S_n f)'(x) = (lambda_n/phi(x)) [S_n(psi_x f)(x) - S_n(psi_x)(x) S_n f(x)].
    Polynomial f only, so both sides are evaluable in closed form; exact
    families give an exactly zero defect."""
    x = _as_rat(x)
    if not f.is_polynomial:
        raise ValueError("identity checks need polynomial f")
    _require_interior(family, x)
    # the left side (S_n f)'(x) is a direct value too, taken first
    scale, (lhs, s_f, s_psi_f, s_psi) = _right_side(
        family, f, 0, n, x, ((0, 1), (0, 0), (1, 0)), tol, prec, quad_order
    )
    return combine(
        lambda lhs, scale, s_psi_f, s_psi, s_f: lhs - scale * (s_psi_f - s_psi * s_f),
        lhs, scale, s_psi_f, s_psi, s_f, prec=prec,
    )


def psi_m_derivative_identity_check(
    family: OperatorFamily,
    f: SmoothFunction,
    m: int,
    n: int,
    x: Scalar,
    tol: Rat = DEFAULT_TOL,
    prec: int | None = None,
    quad_order: int = 64,
) -> Number:
    """Defect of d/dx [S_n(psi_x^m f)(x)] =
    (lambda_n/phi)(S_n(psi^{m+1} f)(x) - S_n(psi)(x) S_n f(x))
    - m S_n(psi^{m-1} f)(x).

    The left side differentiates a map where x enters both the weight and
    the argument.  Expanding f around x gives S_n(psi_x^m f)(x) =
    sum_j mu_{n,m+j}(x) f^{(j)}(x)/j!, so by the product rule it is
    sum_j [mu_{n,m+j}'(x) f^{(j)}(x) + mu_{n,m+j}(x) f^{(j+1)}(x)]/j!,
    each central moment and its x-derivative evaluated exactly at (n, x).
    The right side uses the direct evaluators, making this a cross-check of
    the moment recursion against the concrete operator rules."""
    x = _as_rat(x)
    if m < 1:
        raise ValueError("m must be >= 1; m = 0 is the plain first-order identity")
    if not f.is_polynomial:
        raise ValueError("identity checks need polynomial f")
    _require_interior(family, x)
    degree = max(f.poly.degree, 0)
    table = central_moments(family, m + degree + 1)
    lhs = Fraction(0)
    for j in range(degree + 1):
        moment = table.moment(m + j)
        lhs += (
            moment.dx().eval(n, x) * f.eval_exact(x, j)
            + moment.eval(n, x) * f.eval_exact(x, j + 1)
        ) / math.factorial(j)
    scale, (s_up, s_down, s_f, s_psi) = _right_side(
        family, f, m, n, x, ((m + 1, 0), (m - 1, 0), (0, 0)), tol, prec, quad_order
    )
    return combine(
        lambda lhs, scale, s_up, s_psi, s_f, s_down: (
            lhs - (scale * (s_up - s_psi * s_f) - m * s_down)
        ),
        lhs, scale, s_up, s_psi, s_f, s_down, prec=prec,
    )


def richardson(
    grid: Sequence[int],
    values: Sequence[Number],
    orders: Sequence[int],
    prec: int | None = None,
) -> list[list[Number]]:
    """Richardson ladder on a dyadic grid.  Level m+1 eliminates the
    n^{-p_m} term: T_j <- (2^{p_m} T_{j+1} - T_j)/(2^{p_m} - 1).  Returns
    all levels, level 0 being the input; exact inputs stay exact."""
    grid = tuple(int(n) for n in grid)
    if len(grid) != len(values):
        raise ValueError("grid and values must have equal length")
    if len(grid) < 2:
        raise ValueError("need at least 2 values")
    if any(b != 2 * a for a, b in zip(grid, grid[1:])):
        raise GridNotDyadic(f"grid {list(grid)} is not n, 2n, 4n, ...")
    if len(orders) >= len(values):
        raise ValueError("each level consumes one value; too many orders")
    if any(int(p) < 1 for p in orders):
        raise ValueError("orders must be positive integers")
    levels: list[list[Number]] = [list(values)]
    for p in orders:
        weight = 2 ** int(p)
        row = levels[-1]
        levels.append([
            combine(lambda a, b: (weight * b - a) / (weight - 1), a, b, prec=prec)
            for a, b in zip(row, row[1:])
        ])
    return levels
