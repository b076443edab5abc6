#!/usr/bin/env python3
"""Richardson ladder on the scaled defect sequence v_n = n(S_n f - f)(x).
v_n converges to (phi f'')(x)/2 at first order; each ladder level strips
one more known power of 1/n.  Prints the levels and the fitted empirical
order before and after acceleration."""

import argparse
from fractions import Fraction

from mpmath import mp

from expasym.expansion import voronovskaja_limit
from expasym.families import FAMILIES
from expasym.functions import parse_function
from expasym.numeric import DEFAULT_TOL, subtract
from expasym.verify import AllResidualsZero, fit_order, richardson, scaled_defects

PREC = 256


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", choices=sorted(FAMILIES), default="bernstein")
    parser.add_argument("--f", default="exp:1")
    parser.add_argument("--x", default="2/5")
    parser.add_argument("--n0", type=int, default=64)
    parser.add_argument("--levels", type=int, default=6)
    parser.add_argument("--orders", default="1,2", help="powers to strip, e.g. 1,2")
    args = parser.parse_args()
    family = FAMILIES[args.family]
    f = parse_function(args.f)
    x = Fraction(args.x)
    orders = tuple(int(p) for p in args.orders.split(","))
    grid = tuple(args.n0 * 2**j for j in range(args.levels))
    limit = voronovskaja_limit(family, f, x, 0, prec=PREC)
    values = scaled_defects(family, f, x, 0, grid, DEFAULT_TOL, PREC, 64)
    levels = richardson(grid, values, orders, prec=PREC)
    print(f"{args.family}  f = {f.describe()}  x = {x}")
    print(f"limit = {mp.nstr(limit, 12)}")
    for m, row in enumerate(levels):
        rendered = "  ".join(mp.nstr(v, 10) for v in row)
        print(f"level {m}: {rendered}")
    for m, row in enumerate(levels):
        residuals = [subtract(v, limit, PREC) for v in row]
        if len(residuals) < 3:
            print(f"level {m}: too short to fit")
            continue
        try:
            slope, r_squared = fit_order(grid[: len(row)], residuals)
        except AllResidualsZero:
            print(f"level {m}: exact")
            continue
        print(
            f"level {m}: empirical order {slope:+.3f}  (r^2 = {r_squared:.4f})"
        )

if __name__ == "__main__":
    main()
