"""Closed-form smooth test functions.

Three variants cover everything the package evaluates operators against:
polynomials (exact rational arithmetic end to end), exponentials e^{a t}, and
sinusoids sin(a t + b).  Each variant knows every derivative in closed form,
so "numerical differentiation of f" never happens anywhere downstream; the
only approximate step in the package is operator evaluation itself.

Derivatives: polynomial by coefficient shift; (e^{a t})^{(k)} = a^k e^{a t};
sin(a t + b)^{(k)} = a^k sin(a t + b + k*pi/2), realised via the 4-cycle
sin, cos, -sin, -cos so no pi arithmetic enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from mpmath import mp

from .exactalg import Poly, Rat, Scalar, format_rat, horner_pair, _as_rat
from .numeric import Number, is_exact, to_fixed, to_mpf, working

POLY = "poly"
EXP = "exp"
SIN = "sin"

# extra bits the exp and sin streams of values_iter carry internally
_STREAM_GUARD_BITS = 32


@dataclass(frozen=True)
class SmoothFunction:
    """Tagged closed-form function with exact derivative data; every
    variant is infinitely smooth."""

    kind: str
    poly: Poly | None = None
    a: Rat = Fraction(0)
    b: Rat = Fraction(0)

    @classmethod
    def polynomial(cls, p: Poly | Sequence[Scalar]) -> SmoothFunction:
        if not isinstance(p, Poly):
            p = Poly(tuple(_as_rat(c) for c in p))
        return cls(POLY, poly=p)

    @classmethod
    def monomial(cls, r: int) -> SmoothFunction:
        if r < 0:
            raise ValueError("monomial degree must be >= 0")
        return cls(POLY, poly=Poly.variable() ** r)

    @classmethod
    def exponential(cls, a: Scalar) -> SmoothFunction:
        return cls(EXP, a=_as_rat(a))

    @classmethod
    def sinusoid(cls, a: Scalar, b: Scalar) -> SmoothFunction:
        return cls(SIN, a=_as_rat(a), b=_as_rat(b))

    @property
    def is_polynomial(self) -> bool:
        return self.kind == POLY

    def as_poly(self) -> Poly | None:
        """The polynomial f equals, or None: poly gives its own, exp:0 the
        constant 1.  eval_exact and the exact Bernstein sum key on this."""
        if self.kind == POLY:
            return self.poly
        if self.kind == EXP and self.a == 0:
            return Poly.const(1)
        return None

    def derivative_poly(self, k: int = 0) -> Poly:
        p = self.as_poly()
        if p is None:
            raise ValueError("closed-form polynomial requested of a non-polynomial")
        for _ in range(k):
            p = p.derivative()
        return p

    def eval_exact(self, t: Scalar, k: int = 0) -> Rat | None:
        """Exact rational value of the k-th derivative, or None when the
        value is irrational."""
        t = _as_rat(t)
        p = self.as_poly()
        if p is None:
            return None
        return Fraction(*horner_pair(p.coeffs, t.numerator, t.denominator, k))

    def eval_number(self, t: Scalar, k: int, prec: int | None) -> Number:
        """k-th derivative at t: exact when rational, else mpf at working precision."""
        exact = self.eval_exact(t, k)
        if exact is not None:
            return exact
        with working(prec):
            return self.eval_mpf(t, k)

    def eval_mpf(self, t, k: int = 0):
        """k-th derivative at t, computed at the ambient mpmath precision."""
        exact = self.eval_exact(t, k) if is_exact(t) else None
        if exact is not None:
            return to_mpf(exact)
        tm = to_mpf(t)
        if self.kind == POLY:
            return self.derivative_poly(k)(tm)
        if self.kind == EXP:
            return to_mpf(self.a**k) * mp.exp(to_mpf(self.a) * tm)
        theta = to_mpf(self.a) * tm + to_mpf(self.b)
        cycle = k % 4
        if cycle == 0:
            base = mp.sin(theta)
        elif cycle == 1:
            base = mp.cos(theta)
        elif cycle == 2:
            base = -mp.sin(theta)
        else:
            base = -mp.cos(theta)
        return to_mpf(self.a**k) * base

    def values_iter(self, step: Rat):
        """Yield floor(f(j*step) * 2^bits) for j = 0, 1, 2, ... as ints, with
        bits = mp.prec when the first value is pulled.

        Polynomials are exact: with step = a/b, D the lcm of the coefficient
        denominators and d = deg f, q(j) = D b^d f(j a/b) is an integer
        polynomial in j, stepped by its forward-difference table (d integer
        additions per value) and floor-divided by D b^d.  exp is a running
        product by e^(a step), sin a rotation by a step; both carry
        _STREAM_GUARD_BITS extra bits and round down once per step there,
        so after j steps a value is off from the floor by one unit plus a
        small multiple of j 2^-_STREAM_GUARD_BITS max(1, |f|) units."""
        step = _as_rat(step)
        bits = mp.prec
        if self.kind == POLY:
            coeffs = self.poly.coeffs
            a, b = step.numerator, step.denominator
            d = max(len(coeffs) - 1, 0)
            lcd = math.lcm(*(c.denominator for c in coeffs))
            q = [c.numerator * (lcd // c.denominator) * a**i * b ** (d - i) for i, c in enumerate(coeffs)]
            table = [sum(c * j**i for i, c in enumerate(q)) for j in range(d + 1)]
            for i in range(1, d + 1):  # table[i] = Delta^i q(0)
                for j in range(d, i - 1, -1):
                    table[j] -= table[j - 1]
            den = lcd * b**d
            while True:
                yield (table[0] << bits) // den
                for i in range(d):
                    table[i] += table[i + 1]
        inner = bits + _STREAM_GUARD_BITS
        with mp.workprec(inner):
            delta = to_mpf(self.a * step)
            if self.kind == EXP:
                mult = to_fixed(mp.exp(delta), inner)
            else:
                sin_d, cos_d = to_fixed(mp.sin(delta), inner), to_fixed(mp.cos(delta), inner)
                s, c = to_fixed(mp.sin(to_mpf(self.b)), inner), to_fixed(mp.cos(to_mpf(self.b)), inner)
        if self.kind == EXP:
            value = 1 << inner
            while True:
                yield value >> _STREAM_GUARD_BITS
                value = value * mult >> inner
        while True:
            yield s >> _STREAM_GUARD_BITS
            s, c = (s * cos_d + c * sin_d) >> inner, (c * cos_d - s * sin_d) >> inner

    def shifted(self, h: Scalar):
        """(factor, g) with f(t + h) = factor * g(t) for every t.

        Lets a caller stream f from t = h through g.values_iter.  The shift
        is exact for polynomials (Taylor shift) and sinusoids (phase
        b + a h, factor 1); for exponentials g = f and factor = e^(a h), an
        mpf at the ambient precision."""
        h = _as_rat(h)
        if self.kind == POLY:
            g = Poly()
            for c in reversed(self.poly.coeffs):
                g = g * Poly((h, Fraction(1))) + c
            return mp.mpf(1), replace(self, poly=g)
        if self.kind == EXP:
            return mp.exp(to_mpf(self.a * h)), self
        return mp.mpf(1), replace(self, b=self.b + self.a * h)

    def halfline_majorant(self) -> tuple[Rat, int, Rat]:
        """(C, d, a) with |f(t)| <= C*(1+t)^d * e^(a*t) for t >= 0, a >= 0."""
        if self.kind == POLY:
            bound = sum((abs(c) for c in self.poly.coeffs), Fraction(0))
            if not bound:
                bound = Fraction(1)
            return (bound, max(self.poly.degree, 0), Fraction(0))
        if self.kind == EXP:
            return (Fraction(1), 0, max(self.a, Fraction(0)))
        return (Fraction(1), 0, Fraction(0))

    def describe(self) -> str:
        if self.kind == POLY:
            return f"poly({self.poly.text('t')})"
        if self.kind == EXP:
            return f"exp({format_rat(self.a)}*t)"
        return f"sin({format_rat(self.a)}*t + {format_rat(self.b)})"


def parse_function(spec: str) -> SmoothFunction:
    """Parse the mini-grammar poly:c0,c1,... | exp:a | sin:a,b."""
    kind, sep, body = spec.partition(":")
    if not sep:
        raise ValueError(f"malformed function spec {spec!r}: missing ':'")
    try:
        parts = [Fraction(item.strip()) for item in body.split(",")] if body else []
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed function spec {spec!r}: {exc}") from None
    if kind == POLY:
        if not parts:
            raise ValueError("poly spec needs at least one coefficient")
        return SmoothFunction.polynomial(Poly(tuple(parts)))
    if kind == EXP:
        if len(parts) != 1:
            raise ValueError("exp spec takes exactly one rate")
        return SmoothFunction.exponential(parts[0])
    if kind == SIN:
        if len(parts) != 2:
            raise ValueError("sin spec takes frequency and phase")
        return SmoothFunction.sinusoid(parts[0], parts[1])
    raise ValueError(f"unknown function kind {kind!r}")
