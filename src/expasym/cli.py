"""Command-line front end.

One executable, seven subcommands:

  moments       symbolic central-moment table of a built-in family
  expansion     expansion coefficients a_k with symbolic f-slots
  evaluate      one operator / expansion / truncated-sum evaluation
  verify        residual decay study across a dyadic grid
  voronovskaja  limit-defect study across a dyadic grid
  extrapolate   Richardson ladder on the limit-defect sequence
  identities    ODE and psi^m derivative identity defects

Exit status: 0 = computed (and passed, where a pass criterion exists),
1 = computed but failed, 2 = unusable config or a computation error.
Identical configs produce byte-identical output; every emitted report
carries the settings that produced it.  Each subcommand imports the
modules it uses when it runs, so moments and expansion start without
mpmath.
"""

from __future__ import annotations

import argparse
import decimal
import json
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .exactalg import format_rat
from .families import OperatorFamily, get_family
from .numeric import DEFAULT_PRECISION_BITS, DEFAULT_TOL, abs_le, format_number, resolve_precision

if TYPE_CHECKING:
    from .functions import SmoothFunction
    from .verify import ConvergenceReport

PRECISION_ENV = "EXPASYM_PRECISION_BITS"
FORMATS = ("text", "json", "csv")
SIDES = ("operator", "expansion", "truncated")


@dataclass(frozen=True)
class RunConfig:
    """Everything one run depends on, already validated."""

    subcommand: str
    family: OperatorFamily | None = None
    f: SmoothFunction | None = None
    x: Fraction | None = None
    n: int | None = None
    r: int = 0
    q: int | None = None
    s_max: int | None = None
    m_max: int | None = None
    grid: tuple[int, ...] | None = None
    orders: tuple[int, ...] | None = None
    side: str = "operator"
    tol: Fraction = DEFAULT_TOL
    precision_bits: int = DEFAULT_PRECISION_BITS
    quad_order: int = 64
    fmt: str = "text"
    output: str | None = None


def parse_rational(text: str) -> Fraction:
    """Rational from 'p/q', integer, or decimal (including exponent)."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    try:
        return Fraction(decimal.Decimal(text))
    except (decimal.InvalidOperation, ValueError):
        raise ValueError(f"cannot parse {text!r} as a rational") from None


def parse_grid(spec: str) -> tuple[int, ...]:
    """'n0:levels' -> (n0, 2 n0, ..., n0 2^(levels-1))."""
    try:
        start_text, levels_text = spec.split(":")
        start, levels = int(start_text), int(levels_text)
    except ValueError:
        raise ValueError(f"grid spec {spec!r} is not 'n0:levels'") from None
    if start < 1 or levels < 2:
        raise ValueError("grid needs n0 >= 1 and at least 2 levels")
    return tuple(start * 2**j for j in range(levels))


def parse_orders(spec: str) -> tuple[int, ...]:
    try:
        orders = tuple(int(p) for p in spec.split(","))
    except ValueError:
        raise ValueError(f"orders spec {spec!r} is not like '1,2'") from None
    if not orders or any(p < 1 for p in orders):
        raise ValueError("orders must be positive integers")
    return orders


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expasym",
        description="symbolic moment tables and convergence studies for "
        "exponential-type approximation operators",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, *names: str) -> None:
        if "family" in names:
            p.add_argument("--family", required=True, help="bernstein | szasz | baskakov | gauss_weierstrass")
        if "f" in names:
            p.add_argument("--f", required=True, help="poly:c0,c1,... | exp:a | sin:a,b")
        if "x" in names:
            p.add_argument("--x", required=True, help="rational evaluation point, e.g. 2/5")
        if "n" in names:
            p.add_argument("--n", required=True, type=int, help="operator index")
        if "r" in names:
            p.add_argument("--r", type=int, default=0, help="derivative order (default 0)")
        if "grid" in names:
            p.add_argument("--grid", required=True, help="dyadic grid 'n0:levels', e.g. 64:6")
        p.add_argument("--tol", default=None, help="series tolerance (rational or decimal)")
        p.add_argument("--precision-bits", type=int, default=None)
        p.add_argument("--quad-order", type=int, default=64)
        p.add_argument("--format", choices=FORMATS, default="text")
        p.add_argument("--output", default=None, help="write to file instead of stdout")

    p = sub.add_parser("moments", help="symbolic central-moment table")
    p.add_argument("--s-max", type=int, required=True)
    add_common(p, "family")

    p = sub.add_parser("expansion", help="expansion coefficients a_0..a_q")
    p.add_argument("--q", type=int, required=True)
    add_common(p, "family")

    p = sub.add_parser("evaluate", help="one evaluation at (n, x)")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--side", choices=SIDES, default="operator")
    add_common(p, "family", "f", "x", "n", "r")

    p = sub.add_parser("verify", help="residual decay study")
    p.add_argument("--q", type=int, required=True)
    add_common(p, "family", "f", "x", "r", "grid")

    p = sub.add_parser("voronovskaja", help="limit-defect study")
    add_common(p, "family", "f", "x", "r", "grid")

    p = sub.add_parser("extrapolate", help="Richardson ladder on the limit-defect sequence")
    p.add_argument("--orders", default="1", help="exponent ladder, e.g. 1,2")
    add_common(p, "family", "f", "x", "r", "grid")

    p = sub.add_parser("identities", help="ODE and psi^m identity defects")
    p.add_argument("--m-max", type=int, default=2)
    add_common(p, "family", "f", "x", "n")

    return parser


def _resolve_precision_bits(flag: int | None) -> int:
    env = os.environ.get(PRECISION_ENV) or None
    return resolve_precision(env if flag is None else flag)


def _config_from(ns: argparse.Namespace) -> RunConfig:
    get = lambda name, default=None: getattr(ns, name, default)
    family = get_family(ns.family) if get("family") else None
    f = None
    if get("f"):
        from .functions import parse_function

        f = parse_function(ns.f)
    x = parse_rational(ns.x) if get("x") else None
    tol = parse_rational(ns.tol) if get("tol") else DEFAULT_TOL
    if tol <= 0:
        raise ValueError("tol must be positive")
    grid = parse_grid(ns.grid) if get("grid") else None
    orders = parse_orders(ns.orders) if get("orders") else None
    quad_order = get("quad_order", 64)
    config = RunConfig(
        subcommand=ns.subcommand,
        family=family,
        f=f,
        x=x,
        n=get("n"),
        r=get("r", 0) or 0,
        q=get("q"),
        s_max=get("s_max"),
        m_max=get("m_max"),
        grid=grid,
        orders=orders,
        side=get("side", "operator"),
        tol=tol,
        precision_bits=_resolve_precision_bits(get("precision_bits")),
        quad_order=quad_order,
        fmt=ns.format if get("format") else "text",
        output=get("output"),
    )
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    """Preconditions the library does not check before its expensive work;
    main maps every error the library raises to exit 2."""
    c = config
    # --side expansion would otherwise evaluate the expansion at n <= 0
    if c.n is not None and c.n < 1:
        raise ValueError("n must be >= 1")
    # central_moments rejects s < 0 too, but its message does not name --s-max
    if c.subcommand == "moments" and c.s_max < 0:
        raise ValueError("s-max must be >= 0")
    # complete_coeffs accepts q = 0
    if c.subcommand == "expansion" and c.q < 1:
        raise ValueError("q must be >= 1")
    # with m-max < 1 no psi^m identity runs and the ode check alone would pass
    if c.subcommand == "identities" and c.m_max < 1:
        raise ValueError("m-max must be >= 1")
    # a missing --q would reach the library as None
    if c.subcommand == "evaluate" and c.side != "operator":
        minimum = 0 if c.side == "truncated" else 1
        if c.q is None or c.q < minimum:
            raise ValueError(f"side {c.side!r} needs --q >= {minimum}")
    # only gauss_weierstrass_eval checks it; other families would accept any value
    if c.quad_order < 16:
        raise ValueError("quad-order must be >= 16")
    # the expansion sides never check the point, and extrapolate needs it interior
    if c.x is not None and c.family is not None:
        interior = c.subcommand in ("verify", "voronovskaja", "extrapolate", "identities")
        c.family.require_point(c.x, interior=interior)
    # Baskakov cannot sum fast-growing f; refuse it on the expansion sides too
    if c.f is not None and c.family is not None:
        from .operators import check_growth

        n_low = c.n if c.n is not None else (min(c.grid) if c.grid else None)
        check_growth(c.family, c.f, n_low, c.x)
    # truncated_sum has no derivative order and would ignore --r
    if c.subcommand == "evaluate" and c.side == "truncated" and c.r != 0:
        raise ValueError("truncated sums are undifferentiated; use --r 0")
    # richardson raises only after the whole defect sequence is computed
    if c.subcommand == "extrapolate" and len(c.orders) >= len(c.grid):
        raise ValueError("orders ladder too long for the grid")
    # only bernstein_eval rejects r > n, and the expansion sides never call it
    if c.family is not None and c.family.evaluator == "bernstein" and c.n is not None:
        if c.r > c.n:
            raise ValueError(f"r = {c.r} above n = {c.n}")


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", newline="") as handle:
            handle.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _settings(config: RunConfig) -> dict:
    return {
        "tol": format_rat(config.tol),
        "precision_bits": config.precision_bits,
        "quad_order": config.quad_order,
    }


def _run_moments(c: RunConfig) -> tuple[str, bool]:
    from .moments import central_moments, moment_expansion

    table = central_moments(c.family, c.s_max)
    if c.fmt == "text":
        lines = [
            f"mu[{s}] = {table.moment(s).text()}" for s in range(c.s_max + 1)
        ]
        return "\n".join(lines) + "\n", True
    expansions = [moment_expansion(table.moment(s)) for s in range(c.s_max + 1)]
    if c.fmt == "json":
        payload = [
            {
                "family": c.family.id,
                "s": s,
                "moment": table.moment(s).text(),
                "terms": [
                    {"j": j, "g": g.text()} for j, g in expansions[s].items()
                ],
            }
            for s in range(c.s_max + 1)
        ]
        return _json_text(payload), True
    lines = ["s,j,g"]
    for s in range(c.s_max + 1):
        for j, g in expansions[s].items():
            lines.append(f"{s},{j},{g.text()}")
    return "\n".join(lines) + "\n", True


def _run_expansion(c: RunConfig) -> tuple[str, bool]:
    from .expansion import complete_coeffs

    coeffs = complete_coeffs(c.family, c.q)
    if c.fmt == "text":
        lines = []
        for coeff in coeffs:
            body = "; ".join(f"s={s}: {p.text()}" for s, p in coeff.terms) or "0"
            lines.append(f"a[{coeff.k}] = {body}")
        return "\n".join(lines) + "\n", True
    if c.fmt == "json":
        payload = [
            {
                "family": c.family.id,
                "k": coeff.k,
                "terms": [{"s": s, "poly": p.text()} for s, p in coeff.terms],
            }
            for coeff in coeffs
        ]
        return _json_text(payload), True
    lines = ["k,s,poly"]
    for coeff in coeffs:
        for s, p in coeff.terms:
            lines.append(f"{coeff.k},{s},{p.text()}")
    return "\n".join(lines) + "\n", True


def _run_evaluate(c: RunConfig) -> tuple[str, bool]:
    from .expansion import evaluate_derivative_expansion, truncated_sum
    from .operators import operator_eval

    if c.side == "operator":
        value = operator_eval(
            c.family, c.f, c.n, c.x, c.r,
            tol=c.tol, prec=c.precision_bits, quad_order=c.quad_order,
        )
    elif c.side == "expansion":
        value = evaluate_derivative_expansion(
            c.family, c.f, c.x, c.n, c.q, c.r, prec=c.precision_bits
        )
    else:
        value = truncated_sum(c.family, c.f, c.x, c.n, c.q, prec=c.precision_bits)
    rendered = format_number(value)
    if c.fmt == "text":
        return rendered + "\n", True
    if c.fmt == "json":
        payload = {
            "family": c.family.id,
            "f": c.f.describe(),
            "x": format_rat(c.x),
            "n": c.n,
            "r": c.r,
            "q": c.q,
            "side": c.side,
            "value": rendered,
            **_settings(c),
        }
        return _json_text(payload), True
    return f"n,value\n{c.n},{rendered}\n", True


def _report_output(c: RunConfig, report: ConvergenceReport) -> str:
    if c.fmt == "json":
        payload = report.to_json_dict()
        payload.update(_settings(c))
        return _json_text(payload)
    if c.fmt == "csv":
        return report.to_csv_text()
    return report.to_text()


def _run_verify(c: RunConfig) -> tuple[str, bool]:
    from .verify import residual_study

    report = residual_study(
        c.family, c.f, c.x, c.r, c.q, c.grid,
        tol=c.tol, prec=c.precision_bits, quad_order=c.quad_order,
    )
    return _report_output(c, report), report.passed


def _run_voronovskaja(c: RunConfig) -> tuple[str, bool]:
    from .verify import voronovskaja_study

    report = voronovskaja_study(
        c.family, c.f, c.x, c.r, c.grid,
        tol=c.tol, prec=c.precision_bits, quad_order=c.quad_order,
    )
    return _report_output(c, report), report.passed


def _run_extrapolate(c: RunConfig) -> tuple[str, bool]:
    from .verify import richardson, scaled_defects

    values = scaled_defects(
        c.family, c.f, c.x, c.r, c.grid, c.tol, c.precision_bits, c.quad_order
    )
    levels = richardson(c.grid, values, c.orders, prec=c.precision_bits)
    if c.fmt == "json":
        payload = {
            "family": c.family.id,
            "f": c.f.describe(),
            "x": format_rat(c.x),
            "r": c.r,
            "grid": list(c.grid),
            "orders": list(c.orders),
            "levels": [[format_number(v) for v in row] for row in levels],
            **_settings(c),
        }
        return _json_text(payload), True
    if c.fmt == "csv":
        lines = ["n,value" + "".join(f",level{m}" for m in range(1, len(levels)))]
        for i, n in enumerate(c.grid):
            cells = [str(n), format_number(levels[0][i])]
            for row in levels[1:]:
                cells.append(format_number(row[i]) if i < len(row) else "")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n", True
    lines = []
    for m, row in enumerate(levels):
        body = "  ".join(format_number(v) for v in row)
        lines.append(f"level {m}: {body}")
    return "\n".join(lines) + "\n", True


def _run_identities(c: RunConfig) -> tuple[str, bool]:
    from .verify import ode_identity_check, psi_m_derivative_identity_check

    checks = []
    defect = ode_identity_check(
        c.family, c.f, c.n, c.x,
        tol=c.tol, prec=c.precision_bits, quad_order=c.quad_order,
    )
    checks.append(("ode", defect))
    for m in range(1, c.m_max + 1):
        defect = psi_m_derivative_identity_check(
            c.family, c.f, m, c.n, c.x,
            tol=c.tol, prec=c.precision_bits, quad_order=c.quad_order,
        )
        checks.append((f"psi^{m}", defect))
    bound = 10 * c.tol
    results = [(name, defect, abs_le(defect, bound)) for name, defect in checks]
    passed = all(ok for _name, _defect, ok in results)
    if c.fmt == "json":
        payload = {
            "family": c.family.id,
            "f": c.f.describe(),
            "n": c.n,
            "x": format_rat(c.x),
            "checks": [
                {"name": name, "defect": format_number(d), "pass": ok}
                for name, d, ok in results
            ],
            "pass": passed,
            **_settings(c),
        }
        return _json_text(payload), passed
    if c.fmt == "csv":
        lines = ["check,defect,pass"]
        for name, d, ok in results:
            lines.append(f"{name},{format_number(d)},{str(ok).lower()}")
        return "\n".join(lines) + "\n", passed
    lines = [
        f"{name}: defect = {format_number(d)}  pass: {str(ok).lower()}"
        for name, d, ok in results
    ]
    lines.append(f"pass: {str(passed).lower()}")
    return "\n".join(lines) + "\n", passed


_RUNNERS = {
    "moments": _run_moments,
    "expansion": _run_expansion,
    "evaluate": _run_evaluate,
    "verify": _run_verify,
    "voronovskaja": _run_voronovskaja,
    "extrapolate": _run_extrapolate,
    "identities": _run_identities,
}


def _join_negative_points(argv: list[str]) -> list[str]:
    """Rewrite '--x -5/64' as '--x=-5/64': argparse takes a token that
    starts with '-' and is not a plain decimal for an option."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--x" and re.match(r"-\.?\d", token):
            out[-1] = f"--x={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(_join_negative_points(sys.argv[1:] if argv is None else argv))
    try:
        config = _config_from(ns)
        text, passed = _RUNNERS[config.subcommand](config)
    except Exception as exc:  # every library error carries its own name
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    _emit(text, config.output)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
