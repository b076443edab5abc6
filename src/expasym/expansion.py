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
with index sequence n and vanishing first moment, read off the memoised
order-1 derivative terms.

Every evaluated form is a weighted sum of derivatives of f at x with
rational weights; _derivative_sum computes it, exact or mpf as decided in
expasym.numeric.  truncated_sum is the r = 0 case of the derivative
expansion, and both evaluate a memo entry through its IntegerForm, built on
the entry's first evaluation: when f is a polynomial the weighted sum is one
integer sum over the form's tables.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .exactalg import IntegerForm, MomentPoly, Poly, Rat, Scalar, _as_rat, horner_pair
from .families import OperatorFamily
from .moments import central_moments, moment_expansion
from .numeric import Number, dot

if TYPE_CHECKING:
    from .functions import SmoothFunction

__all__ = [
    "ExpansionCoefficient",
    "ExpansionTerm",
    "NotPureExponentialIndex",
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
    return _prediction(family, f, x, n, q, 0, prec)


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


@dataclass
class _Entry:
    """A memoised (family, q, r): its Leibniz terms and, from the first
    evaluation on, their coefficients' IntegerForm."""

    terms: tuple[ExpansionTerm, ...]
    form: IntegerForm | None = None


# family -> (q, r) -> _Entry; an entry goes when its family does
_TERMS: "weakref.WeakKeyDictionary[OperatorFamily, dict]" = weakref.WeakKeyDictionary()


def _entry(family: OperatorFamily, q: int, r: int) -> _Entry:
    if q < 0:
        raise ValueError("q must be >= 0")
    if r < 0:
        raise ValueError("r must be >= 0")
    known = _TERMS.setdefault(family, {})
    entry = known.get((q, r))
    if entry is None:
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
        entry = known[(q, r)] = _Entry(tuple(out))
    return entry


def derivative_terms(
    family: OperatorFamily, q: int, r: int
) -> list[ExpansionTerm]:
    """All Leibniz terms of (d/dx)^r sum_{s<=2q} mu_{n,s} f^{(s)}/s!,
    ordered by (s_source, i), identically-zero coefficients dropped; at
    q = 0 the only term is f^{(r)}.

    Memoised per (family, q, r); each call returns a fresh list."""
    return list(_entry(family, q, r).terms)


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
    return _prediction(family, f, x, n, q, r, prec)


def _prediction(
    family: OperatorFamily,
    f: SmoothFunction,
    x: Scalar,
    n: Scalar,
    q: int,
    r: int,
    prec: int | None,
) -> Number:
    """The terms of derivative_terms(family, q, r) summed against f at
    (n, x).  For a polynomial f = P/L (P integral, degree e) and x = c/d,
    f^{(s)}(x) = u_s / (L d^e) with u_s an integer, so the whole sum is
    the form's integer pair for the weights u_s over L d^e: one Fraction.
    Otherwise each term's weight, == its coefficient.eval(n, x), goes to
    _derivative_sum."""
    entry = _entry(family, q, r)
    if entry.form is None:
        entry.form = IntegerForm.build([term.coefficient for term in entry.terms])
    x, n = _as_rat(x), _as_rat(n)
    poly = f.as_poly()
    if poly is None:
        weights = entry.form.values(n, x)
        return _derivative_sum(f, x, [(w, term.s) for w, term in zip(weights, entry.terms)], prec)
    scale = math.lcm(*(coeff.denominator for coeff in poly.coeffs))
    coeffs = [coeff.numerator * (scale // coeff.denominator) for coeff in poly.coeffs]
    c, d = x.numerator, x.denominator
    numerators = {s: horner_pair(coeffs, c, d, s)[0] * d**s for s in {term.s for term in entry.terms}}
    num, den = entry.form.pair([numerators[term.s] for term in entry.terms], n, x)
    return Fraction(num, den * scale * d ** max(poly.degree, 0))


def voronovskaja_limit(
    family: OperatorFamily,
    f: SmoothFunction,
    x: Scalar,
    r: int,
    prec: int | None = None,
) -> Number:
    """lim_n n [(S_n f)^{(r)}(x) - f^{(r)}(x)] = (phi f'')^{(r)}(x) / 2.

    With lambda_n = n and mu_1 = 0 the order-1 truncated sum is exactly
    f + phi f''/(2n), so the limit is its Leibniz terms past s_source = 0
    weighted at n = 1."""
    if r < 0:
        raise ValueError("r must be >= 0")
    _require_pure(family)
    x = _as_rat(x)
    weighted = [
        (term.coefficient.eval(1, x), term.s)
        for term in _entry(family, 1, r).terms
        if term.s_source
    ]
    return _derivative_sum(f, x, weighted, prec)


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
