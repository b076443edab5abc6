"""Asymptotic expansions of (S_n f)^{(r)}(x) in powers of 1/n.

Three views of the same Taylor-plus-moments bookkeeping:

  truncated_sum        sum_{s<=2q} mu_{n,s}(x) f^{(s)}(x)/s!, the finitely
                       evaluable part of the expansion at fixed n;
  complete_coeffs      regrouped by powers of 1/n (index sequence exactly n
                       required, since only then is each mu_{n,s} a finite
                       Laurent series): a_k(x) = sum_s f^{(s)} g_{s,k}/s!;
  derivative_terms     d^r/dx^r of the truncated sum via the Leibniz rule,
                       one term per surviving (source order, Leibniz split),
                       memoised per (family, q, r).

voronovskaja_limit is the r-times differentiated second-order limit
lim n [(S_n f)^{(r)} - f^{(r)}] = (phi f'')^{(r)} / 2, valid for families
with index sequence n and vanishing first moment.

Every evaluated form is a weighted sum of derivatives of f at x with
rational weights; _derivative_sum computes it, exact or mpf as decided in
expasym.numeric.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction

from .exactalg import MomentPoly, Poly, Rat, Scalar, _as_rat
from .functions import DerivativeCapExceeded, SmoothFunction
from .moments import MomentTable, central_moments, moment_expansion
from .numeric import Number, dot
from .operators import OperatorFamily

__all__ = [
    "DerivativeCapExceeded",
    "ExpansionCoefficient",
    "ExpansionTerm",
    "NotPureExponentialIndex",
    "SmoothFunction",
    "complete_coeffs",
    "derivative_terms",
    "evaluate_derivative_expansion",
    "truncated_sum",
    "voronovskaja_limit",
]


class NotPureExponentialIndex(ValueError):
    """The requested regrouping needs index sequence exactly n."""


def _require_pure(family: OperatorFamily) -> None:
    if not family.is_pure_exponential:
        raise NotPureExponentialIndex(
            f"family {family.id!r} has index sequence "
            f"{family.lambda_n.text()} and first moment "
            f"{family.mu1.text()}; need lambda_n = n and mu_1 = 0"
        )


@dataclass(frozen=True)
class ExpansionTerm:
    """One Leibniz term of (d/dx)^r applied to the truncated sum: the
    source moment order s_source, the split index i, the derivative order
    s = s_source + r - i that hits f, and the x-coefficient
    C(r, i) (d/dx)^i mu_{n,s_source} / s_source!."""

    s_source: int
    i: int
    s: int
    coefficient: MomentPoly


@dataclass(frozen=True)
class ExpansionCoefficient:
    """Coefficient of n^{-k}: a_k = sum over stored (s, poly) pairs of
    f^{(s)}(x) poly(x), where poly = g_{s,k}/s!."""

    k: int
    terms: tuple[tuple[int, Poly], ...]

    def term(self, s: int) -> Poly:
        for order, poly in self.terms:
            if order == s:
                return poly
        return Poly()

    def orders(self) -> tuple[int, ...]:
        return tuple(order for order, _poly in self.terms)


def truncated_sum(
    family: OperatorFamily,
    f: SmoothFunction,
    x: Scalar,
    n: Scalar,
    q: int,
    prec: int | None = None,
) -> Number:
    """sum_{s=0}^{2q} mu_{n,s}(x) f^{(s)}(x) / s!; exact for polynomial f
    and rational n, x."""
    if q < 0:
        raise ValueError("q must be >= 0")
    f.require_order(2 * q)
    table = central_moments(family, 2 * q)
    return _derivative_sum(
        f, x,
        [
            (table.moment(s).eval(n, x) * Fraction(1, math.factorial(s)), s)
            for s in range(2 * q + 1)
        ],
        prec,
    )


def complete_coeffs(family: OperatorFamily, q: int) -> list[ExpansionCoefficient]:
    """Expansion coefficients a_0..a_q with the f-derivative slots kept
    symbolic; only s in [k, 2k] can contribute to a_k."""
    if q < 0:
        raise ValueError("q must be >= 0")
    _require_pure(family)
    table = central_moments(family, 2 * q)
    per_order = [moment_expansion(table.moment(s)) for s in range(2 * q + 1)]
    out = []
    for k in range(q + 1):
        terms = []
        for s in range(2 * q + 1):
            g = per_order[s].get(k)
            if g is None:
                continue
            terms.append((s, g * Fraction(1, math.factorial(s))))
        out.append(ExpansionCoefficient(k, tuple(terms)))
    return out


# family -> (q, r) -> Leibniz terms; an entry goes when its family does
_TERMS: "weakref.WeakKeyDictionary[OperatorFamily, dict]" = weakref.WeakKeyDictionary()


def derivative_terms(
    family: OperatorFamily, q: int, r: int
) -> list[ExpansionTerm]:
    """All Leibniz terms of (d/dx)^r sum_{s<=2q} mu_{n,s} f^{(s)}/s!,
    ordered by (s_source, i), identically-zero coefficients dropped.

    Memoised per (family, q, r); each call returns a fresh list."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if r < 0:
        raise ValueError("r must be >= 0")
    known = _TERMS.setdefault(family, {})
    if (q, r) not in known:
        table = central_moments(family, 2 * q)
        out = []
        for s_source in range(2 * q + 1):
            current = table.moment(s_source) * Fraction(1, math.factorial(s_source))
            for i in range(r + 1):
                coefficient = current * math.comb(r, i)
                if not coefficient.is_zero:
                    out.append(
                        ExpansionTerm(s_source, i, s_source + r - i, coefficient)
                    )
                current = current.dx()
        known[(q, r)] = tuple(out)
    return list(known[(q, r)])


def evaluate_derivative_expansion(
    family: OperatorFamily,
    f: SmoothFunction,
    x: Scalar,
    n: Scalar,
    q: int,
    r: int,
    prec: int | None = None,
) -> Number:
    """The derivative expansion evaluated at rational (n, x); the
    prediction that operator evaluations are compared against."""
    f.require_order(2 * q + r)
    terms = derivative_terms(family, q, r)
    return _derivative_sum(
        f, x, [(term.coefficient.eval(n, x), term.s) for term in terms], prec
    )


def voronovskaja_limit(
    family: OperatorFamily,
    f: SmoothFunction,
    x: Scalar,
    r: int,
    prec: int | None = None,
) -> Number:
    """lim_n n [(S_n f)^{(r)}(x) - f^{(r)}(x)] = (phi f'')^{(r)}(x) / 2,
    expanded by Leibniz since phi has degree at most 2."""
    if r < 0:
        raise ValueError("r must be >= 0")
    _require_pure(family)
    f.require_order(r + 2)
    x = _as_rat(x)
    phi_derivs = [family.phi]
    while not phi_derivs[-1].is_zero:
        phi_derivs.append(phi_derivs[-1].derivative())
    splits = [
        (Fraction(math.comb(r, i), 2) * phi_derivs[i](x), 2 + r - i)
        for i in range(min(r, len(phi_derivs) - 1) + 1)
    ]
    return _derivative_sum(f, x, splits, prec)


def _derivative_sum(
    f: SmoothFunction,
    x: Scalar,
    weighted: list[tuple[Rat, int]],
    prec: int | None,
) -> Number:
    """sum of w f^{(s)}(x) over the (w, s) pairs with w != 0; exact when
    those derivatives of f at x are rational."""
    weighted = [(w, s) for w, s in weighted if w]
    return dot(
        [w for w, _s in weighted],
        [f.eval_number(x, s, prec) for _w, s in weighted],
        prec,
    )
