"""Exact-or-float numbers.

Every value the package computes is a ``Number``: an exact rational
(``Fraction`` or ``int``) when every ingredient was rational, otherwise an
mpf at the working precision.  This module owns that split: the working
precision, coercion to it, arithmetic that stays exact when its inputs are,
comparison with a rational bound, magnitudes and rendering.

Precision: all floating work uses mpmath at a configurable bit count
(default 256, minimum 64) plus GUARD_BITS; BigFloat is the mpf type.  The
long sums of the direct evaluators run in fixed point instead: a value v
is the Python int floor(v 2^bits) (to_fixed), and only their final total
comes back to an mpf (from_fixed), in one rounding.  mpmath is imported by
the functions that use it, so the exact paths and the precision rule load
without it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Sequence, Union

from .exactalg import Rat, format_rat

if TYPE_CHECKING:
    from mpmath import mpf as BigFloat

DEFAULT_PRECISION_BITS = 256
MIN_PRECISION_BITS = 64
GUARD_BITS = 32
DEFAULT_TOL = Fraction(1, 10**30)

Number = Union[Rat, "BigFloat"]


def resolve_precision(prec: int | None) -> int:
    bits = DEFAULT_PRECISION_BITS if prec is None else int(prec)
    if bits < MIN_PRECISION_BITS:
        raise ValueError(f"precision {bits} below minimum {MIN_PRECISION_BITS} bits")
    return bits


def working(prec: int | None):
    """Precision context for evaluator internals (guard bits included)."""
    from mpmath import mp

    return mp.workprec(resolve_precision(prec) + GUARD_BITS)


def to_mpf(value):
    """Convert Rat/int/float/mpf to mpf at the ambient precision."""
    from mpmath import mp

    if isinstance(value, Fraction):
        return mp.mpf(value.numerator) / mp.mpf(value.denominator)
    return mp.mpf(value)


def to_fixed(value: BigFloat, bits: int) -> int:
    """floor(value * 2^bits) for a finite mpf, exactly: an mpf is a dyadic
    rational."""
    sign, man, exp, _ = value._mpf_
    man, shift = -man if sign else man, exp + bits
    return man << shift if shift >= 0 else man >> -shift


def from_fixed(total: int, bits: int) -> BigFloat:
    """total / 2^bits as an mpf at the ambient precision, rounded once."""
    from mpmath import mp

    return mp.ldexp(mp.mpf(total), -bits)


def is_exact(value: Number) -> bool:
    return isinstance(value, (Fraction, int))


def to_working(value: Number) -> BigFloat:
    """value as an mpf at the ambient precision; mpf values pass unrounded."""
    return to_mpf(value) if is_exact(value) else value


def combine(fn: Callable[..., Number], *values: Number, prec: int | None) -> Number:
    """fn(*values) in exact arithmetic when every value is exact, else on
    their to_working forms at the working precision."""
    if all(is_exact(v) for v in values):
        return fn(*(Fraction(v) for v in values))
    with working(prec):
        return fn(*(to_working(v) for v in values))


def subtract(a: Number, b: Number, prec: int | None) -> Number:
    return combine(lambda u, v: u - v, a, b, prec=prec)


def dot(weights: Sequence[Rat], values: Sequence[Number], prec: int | None) -> Number:
    """sum_i weights[i] * values[i], exact when every value is: then the
    products are summed over one integer numerator and denominator and
    reduced once."""
    if all(map(is_exact, weights)) and all(map(is_exact, values)):
        num, den = 0, 1
        for w, v in zip(weights, values):
            scale = w.denominator * v.denominator
            num = num * scale + w.numerator * v.numerator * den
            den *= scale
        return Fraction(num, den)
    k = len(weights)
    return combine(
        lambda *a: sum((w * v for w, v in zip(a[:k], a[k:])), Fraction(0)),
        *weights, *values, prec=prec,
    )


def abs_le(value: Number, bound: Rat) -> bool:
    """|value| <= bound, decided exactly: an mpf is a dyadic rational."""
    if is_exact(value):
        return abs(Fraction(value)) <= bound
    from mpmath import mp

    if not mp.isfinite(value):
        return False
    man, exp = value.man_exp
    dyadic = Fraction(man * 2**exp) if exp >= 0 else Fraction(man, 2**-exp)
    return abs(dyadic) <= bound


def magnitude(value: Number) -> BigFloat:
    """|value| as an mpf at the ambient precision."""
    return abs(to_working(value))


def format_number(value: Number) -> str:
    """Exact values as reduced rationals, mpf values to 24 digits."""
    if is_exact(value):
        return format_rat(Fraction(value))
    if value == 0:
        return "0"
    from mpmath import mp

    return mp.nstr(value, 24)
