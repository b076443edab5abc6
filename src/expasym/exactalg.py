"""Exact arithmetic kernel: rationals, polynomials, rational functions of the
index n, moment polynomials, and Laurent expansions at n = infinity.

Representation conventions used everywhere downstream:

* ``Rat`` is ``fractions.Fraction``: gcd-reduced, positive denominator,
  canonical zero.  Every exact scalar in the package is a Rat.
* ``Poly`` stores ascending coefficients ``(c0, c1, ...)`` with no trailing
  zeros; the zero polynomial is the empty tuple and has degree -1.
* ``RatFuncN`` is a quotient of polynomials in the index n, kept coprime with
  a monic denominator, so equal values compare equal structurally.
* ``MomentPoly`` is a polynomial in x whose coefficients are RatFuncN.  That
  is exactly the shape of a central moment mu_{n,s}(x) and of everything the
  expansion machinery manipulates.
* A truncated expansion  sum_j c_j n^{-j}  is the dict ``{j: c_j}`` of its
  nonzero coefficients.  Negative j means a positive power of n, so index
  sequences like lambda_n = n live at j = -1.

Evaluation at a rational point (``horner_pair``, ``RatFuncN.eval``,
``MomentPoly.eval``) runs on Python ints over one unreduced numerator and
denominator and builds a single Rat at the end, so only one gcd is taken.

Canonical text forms (used by snapshot tests and the CLI): rationals print as
``p/q`` (bare integer when q = 1); polynomials print ascending with ``*`` and
``^`` and a sign dance, e.g. ``3*x^2 - 6*x^3 + 3*x^4``; rational functions in
n print as ``num/den`` with multi-term sides parenthesized; MomentPoly prints
as ``(ratfunc)*x^k`` terms joined by `` + ``.

All values here are immutable and hashable; operations return new values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

Rat = Fraction

Scalar = Union[Rat, int]


class DenominatorZero(ArithmeticError):
    """Raised when a rational function is built over, or evaluated at, a
    vanishing denominator."""


def _as_rat(value: Scalar) -> Rat:
    # the exact type test first: isinstance against the numbers ABCs is slow
    if type(value) is Fraction or isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact scalar, got {type(value).__name__}")


def format_rat(value: Rat) -> str:
    value = _as_rat(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _format_terms(terms: Iterable[tuple[int, Rat]], var: str) -> str:
    """Sign-danced ascending rendering shared by Poly.text."""
    parts: list[str] = []
    for power, coeff in terms:
        mag = abs(coeff)
        if power == 0:
            body = format_rat(mag)
        else:
            head = var if power == 1 else f"{var}^{power}"
            body = head if mag == 1 else f"{format_rat(mag)}*{head}"
        if not parts:
            parts.append(f"-{body}" if coeff < 0 else body)
        else:
            parts.append(f" - {body}" if coeff < 0 else f" + {body}")
    return "".join(parts) if parts else "0"


@dataclass(frozen=True)
class Poly:
    """Univariate polynomial over Rat, ascending coefficients, no trailing
    zeros."""

    coeffs: tuple[Rat, ...] = ()

    def __post_init__(self) -> None:
        coeffs = tuple(_as_rat(c) for c in self.coeffs)
        end = len(coeffs)
        while end > 0 and coeffs[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", coeffs[:end])

    @classmethod
    def const(cls, value: Scalar) -> Poly:
        return cls((_as_rat(value),))

    @classmethod
    def variable(cls) -> Poly:
        return cls((Fraction(0), Fraction(1)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> Rat:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, power: int) -> Rat:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def __add__(self, other: Poly | Scalar) -> Poly:
        other = _as_poly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(tuple(out))

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: Poly | Scalar) -> Poly:
        return self + (-_as_poly(other))

    def __rsub__(self, other: Poly | Scalar) -> Poly:
        return _as_poly(other) - self

    def __mul__(self, other: Poly | Scalar) -> Poly:
        if isinstance(other, (Fraction, int)):
            factor = _as_rat(other)
            return Poly(tuple(c * factor for c in self.coeffs))
        other = _as_poly(other)
        if self.is_zero or other.is_zero:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Poly:
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = Poly.const(1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quot = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        dlead = other.lead
        dlen = len(other.coeffs)
        while len(rem) >= dlen:
            factor = rem[-1] / dlead
            shift = len(rem) - dlen
            quot[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= factor * c
            while rem and rem[-1] == 0:
                rem.pop()
            if not rem:
                break
        return Poly(tuple(quot)), Poly(tuple(rem))

    def __call__(self, point):
        """Horner evaluation; works for Rat and for mpf-like points."""
        result = None
        for c in reversed(self.coeffs):
            result = c if result is None else result * point + c
        if result is None:
            return Fraction(0) if isinstance(point, (Fraction, int)) else point * 0
        return result

    def derivative(self) -> Poly:
        return Poly(tuple(c * i for i, c in enumerate(self.coeffs) if i >= 1))

    def text(self, var: str = "x") -> str:
        return _format_terms(
            ((i, c) for i, c in enumerate(self.coeffs) if c != 0), var
        )

    def __str__(self) -> str:
        return self.text()


def _as_poly(value: Poly | Scalar) -> Poly:
    if isinstance(value, Poly):
        return value
    return Poly.const(_as_rat(value))


def _integer_coeffs(p: Poly) -> list[int]:
    """Coefficients of p times the lcm of their denominators."""
    scale = math.lcm(*(c.denominator for c in p.coeffs))
    return [c.numerator * (scale // c.denominator) for c in p.coeffs]


def horner_pair(coeffs: Sequence[Rat], a: int, b: int, k: int = 0) -> tuple[int, int]:
    """(N, D) with N/D the k-th derivative of sum_i coeffs[i] t^i at
    t = a/b (b >= 1), unreduced; (0, 1) when k exceeds the degree.

    Coefficient i of the k-th derivative is coeffs[i+k] (i+k)!/i!.  Horner
    runs on Python ints: a step S -> S t + p/q takes N/D to
    (N a q + p D b)/(D b q), so no gcd is taken and the caller reduces
    once."""
    top = len(coeffs) - 1
    if top < k:
        return 0, 1
    c = coeffs[top]
    num, den = c.numerator * math.perm(top, k), c.denominator
    for i in range(top - 1, k - 1, -1):
        c = coeffs[i]
        q = c.denominator
        num = num * a * q + c.numerator * math.perm(i, k) * den * b
        den *= b * q
    return num, den


class FormGroup(NamedTuple):
    """The cells of an IntegerForm over one denominator R."""

    den: tuple[int, ...]  # R's integer coefficients, constant first
    cells: tuple[tuple[int, int], ...]  # the (p, j) with some N_i[p, j] != 0
    columns: tuple[tuple[int, ...], ...]  # per cell, N_i[p, j] for every c_i


@dataclass(frozen=True)
class IntegerForm:
    """MomentPolys c_0..c_{K-1} on Python ints, for evaluation at rational
    (n, x) without a RatFuncN.

    Each coefficient's monic denominator splits as n^k R(n) with R(0) != 0,
    and each distinct R is one group: R scaled to integer coefficients and
    an integer table N_i[p, j] per c_i, so that
    c_i(n, x) = sum over groups of sum_{p,j} N_i[p, j] n^j x^p / (scale R(n)),
    with j < 0 where n^k divides the denominator.  Building takes no
    polynomial gcd and no division.  At n = a/b, x = c/d all groups share
    one power list a^(j-low) b^(high-j) and one c^p d^(top-p), so a group
    sum is an integer over a^(-low) b^high d^top."""

    count: int  # K
    scale: int
    low: int  # least n-power, <= 0
    high: int  # greatest n-power, >= 0
    top: int  # greatest x-power
    groups: tuple[FormGroup, ...]

    @classmethod
    def build(cls, polys: Sequence[MomentPoly]) -> IntegerForm:
        count = len(polys)
        tables: dict[tuple[Rat, ...], dict[tuple[int, int], list[Rat]]] = {}
        for i, poly in enumerate(polys):
            for p, coeff in poly.terms:
                den = coeff.den.coeffs
                k = 0
                while not den[k]:
                    k += 1
                cells = tables.setdefault(den[k:], {})
                for j, c in enumerate(coeff.num.coeffs):
                    if c:
                        cells.setdefault((p, j - k), [Fraction(0)] * count)[i] = c
        # R times the lcm L of its coefficients' denominators is integral;
        # its numerators are multiplied by L too, then put over one scale
        scaled = []
        for key, cells in tables.items():
            lcd = math.lcm(*(c.denominator for c in key))
            rows = [[c * lcd for c in row] for row in cells.values()]
            scaled.append((tuple(int(c * lcd) for c in key), tuple(cells), rows))
        scale = math.lcm(1, *(c.denominator for _den, _cells, rows in scaled for row in rows for c in row))
        groups = tuple(
            FormGroup(den, cells, tuple(tuple(int(c * scale) for c in row) for row in rows))
            for den, cells, rows in scaled
        )
        powers = [j for cells in tables.values() for _p, j in cells]
        x_powers = [p for cells in tables.values() for p, _j in cells]
        return cls(count, scale, min([0, *powers]), max([0, *powers]), max([0, *x_powers]), groups)

    def _at(self, n: Rat, x: Rat):
        """Per group (the n^j x^p products of its cells, R(n) as an
        unreduced pair), and the common denominator, all ints."""
        a, b = n.numerator, n.denominator
        c, d = x.numerator, x.denominator
        if a == 0 and self.low < 0:
            raise DenominatorZero(f"denominator vanishes at n = {format_rat(n)}")
        low, span, top = self.low, self.high - self.low, self.top
        a_pow, b_pow, c_pow, d_pow = [1], [1], [1], [1]
        for _ in range(span):
            a_pow.append(a_pow[-1] * a)
            b_pow.append(b_pow[-1] * b)
        for _ in range(top):
            c_pow.append(c_pow[-1] * c)
            d_pow.append(d_pow[-1] * d)
        n_pow = [a_pow[i] * b_pow[span - i] for i in range(span + 1)]
        x_pow = [c_pow[p] * d_pow[top - p] for p in range(top + 1)]
        parts = []
        for den, cells, columns in self.groups:
            r_num, r_den = horner_pair(den, a, b)
            if r_num == 0:
                raise DenominatorZero(f"denominator vanishes at n = {format_rat(n)}")
            products = [n_pow[j - low] * x_pow[p] for p, j in cells]
            parts.append((products, columns, r_num, r_den))
        return parts, self.scale * a_pow[-low] * b_pow[self.high] * d_pow[top]

    def pair(self, weights: Sequence[int], n: Scalar, x: Scalar) -> tuple[int, int]:
        """(N, D) with N/D = sum_i weights[i] c_i(n, x) for integer
        weights, unreduced: the weights merge the tables first, so each
        cell is multiplied by its power product once."""
        parts, base = self._at(_as_rat(n), _as_rat(x))
        num, den = 0, 1
        for products, columns, r_num, r_den in parts:
            total = sum(sum(map(mul, weights, column)) * product for column, product in zip(columns, products))
            num, den = num * r_num + total * r_den * den, den * r_num
        return num, den * base

    def values(self, n: Scalar, x: Scalar) -> list[Rat]:
        """[c_0(n, x), ..., c_{K-1}(n, x)], one reduction each."""
        parts, base = self._at(_as_rat(n), _as_rat(x))
        nums, dens = [0] * self.count, [1] * self.count
        for products, columns, r_num, r_den in parts:
            for i, row in enumerate(zip(*columns)):
                total = sum(map(mul, row, products))
                nums[i], dens[i] = nums[i] * r_num + total * r_den * dens[i], dens[i] * r_num
        return [Fraction(u, v * base) for u, v in zip(nums, dens)]


def _primitive(coeffs: list[int]) -> list[int]:
    content = math.gcd(*coeffs)
    return [c // content for c in coeffs]


def _primitive_gcd(a: list[int], b: list[int]) -> list[int]:
    """Gcd of nonzero integer polynomials, up to a constant, by the
    primitive remainder sequence: integer pseudo-division, content removed
    after every remainder, so coefficients stay small."""
    u, v = _primitive(a), _primitive(b)
    while v:
        while len(u) >= len(v):
            common = math.gcd(u[-1], v[-1])
            lead, top = v[-1] // common, u[-1] // common
            shift = len(u) - len(v)
            u = [c * lead for c in u]
            for i, c in enumerate(v):
                u[shift + i] -= top * c
            while u and u[-1] == 0:
                u.pop()
        u, v = v, (_primitive(u) if u else u)
    return u


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the rationals; gcd(0, 0) = 0.

    Denominators are cleared and the gcd is taken over the integers by the
    primitive remainder sequence, whose coefficients stay far smaller than
    those of Euclid over Fraction.  The monic gcd is unique, so the method
    does not show in the result."""
    if a.is_zero or b.is_zero:
        rest = b if a.is_zero else a
        return rest if rest.is_zero else rest * (1 / rest.lead)
    common = _primitive_gcd(_integer_coeffs(a), _integer_coeffs(b))
    return Poly(tuple(Fraction(c, common[-1]) for c in common))


@dataclass(frozen=True)
class RatFuncN:
    """Rational function of the index n: coprime num/den with monic den."""

    num: Poly = Poly()
    den: Poly = Poly((Fraction(1),))

    def __post_init__(self) -> None:
        num, den = self.num, self.den
        if not isinstance(num, Poly):
            num = _as_poly(num)
        if not isinstance(den, Poly):
            den = _as_poly(den)
        if den.is_zero:
            raise DenominatorZero("rational function with zero denominator")
        if num.is_zero:
            num, den = Poly(), Poly.const(1)
        else:
            common = poly_gcd(num, den)
            if common.degree > 0:
                num = divmod(num, common)[0]
                den = divmod(den, common)[0]
            scale = 1 / den.lead
            num, den = num * scale, den * scale
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _trusted(cls, num: Poly, den: Poly) -> RatFuncN:
        """num/den that the caller knows to be normalised already (coprime,
        den monic, den = 1 when num = 0): stored without taking a gcd."""
        out = object.__new__(cls)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    @classmethod
    def const(cls, value: Scalar) -> RatFuncN:
        return cls(Poly.const(value), Poly.const(1))

    @classmethod
    def index(cls) -> RatFuncN:
        """The identity index map n."""
        return cls(Poly.variable(), Poly.const(1))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def order_at_infinity(self) -> int:
        """Exponent j of the leading n^{-j} behaviour; raises on zero."""
        if self.is_zero:
            raise ValueError("zero rational function has no leading order")
        return self.den.degree - self.num.degree

    def __add__(self, other: RatFuncN | Scalar) -> RatFuncN:
        other = _as_ratfunc(other)
        return RatFuncN(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> RatFuncN:
        return RatFuncN(-self.num, self.den)

    def __sub__(self, other: RatFuncN | Scalar) -> RatFuncN:
        return self + (-_as_ratfunc(other))

    def __rsub__(self, other: RatFuncN | Scalar) -> RatFuncN:
        return _as_ratfunc(other) - self

    def __mul__(self, other: RatFuncN | Scalar) -> RatFuncN:
        other = _as_ratfunc(other)
        return RatFuncN(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: RatFuncN | Scalar) -> RatFuncN:
        other = _as_ratfunc(other)
        if other.is_zero:
            raise DenominatorZero("division by the zero rational function")
        return RatFuncN(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: RatFuncN | Scalar) -> RatFuncN:
        return _as_ratfunc(other) / self

    def __pow__(self, exponent: int) -> RatFuncN:
        if exponent < 0:
            return RatFuncN(self.den, self.num) ** -exponent
        return RatFuncN(self.num**exponent, self.den**exponent)

    def eval(self, n: Scalar) -> Rat:
        return Fraction(*self._eval_pair(_as_rat(n)))

    def _eval_pair(self, n: Rat) -> tuple[int, int]:
        """(N, D) with N/D the value at n, unreduced, D != 0."""
        a, b = n.numerator, n.denominator
        den, den_scale = horner_pair(self.den.coeffs, a, b)
        if den == 0:
            raise DenominatorZero(f"denominator vanishes at n = {format_rat(n)}")
        num, num_scale = horner_pair(self.num.coeffs, a, b)
        return num * den_scale, num_scale * den

    def text(self) -> str:
        num_s = self.num.text("n")
        if self.den == Poly.const(1):
            return num_s
        den_s = self.den.text("n")
        if sum(1 for c in self.num.coeffs if c != 0) > 1 or "/" in num_s:
            num_s = f"({num_s})"
        if sum(1 for c in self.den.coeffs if c != 0) > 1 or "/" in den_s:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __str__(self) -> str:
        return self.text()


def _as_ratfunc(value: RatFuncN | Poly | Scalar) -> RatFuncN:
    if isinstance(value, RatFuncN):
        return value
    if isinstance(value, Poly):
        return RatFuncN(value, Poly.const(1))
    return RatFuncN.const(_as_rat(value))


@dataclass(frozen=True)
class MomentPoly:
    """Polynomial in x with RatFuncN coefficients, stored as sorted
    (x-power, coefficient) pairs with zero coefficients dropped."""

    terms: tuple[tuple[int, RatFuncN], ...] = ()

    def __post_init__(self) -> None:
        acc: dict[int, RatFuncN] = {}
        for power, coeff in self.terms:
            if power < 0:
                raise ValueError("negative x-power in MomentPoly")
            coeff = _as_ratfunc(coeff)
            if power in acc:
                acc[power] = acc[power] + coeff
            else:
                acc[power] = coeff
        cleaned = tuple(
            (p, c) for p, c in sorted(acc.items()) if not c.is_zero
        )
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, RatFuncN | Poly | Scalar]) -> MomentPoly:
        return cls(tuple((p, _as_ratfunc(c)) for p, c in mapping.items()))

    @classmethod
    def from_poly(cls, p: Poly) -> MomentPoly:
        return cls(
            tuple(
                (i, RatFuncN.const(c))
                for i, c in enumerate(p.coeffs)
                if c != 0
            )
        )

    @classmethod
    def const(cls, value: Scalar) -> MomentPoly:
        return cls(((0, RatFuncN.const(value)),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, power: int) -> RatFuncN:
        for p, c in self.terms:
            if p == power:
                return c
        return RatFuncN()

    def items(self) -> Iterator[tuple[int, RatFuncN]]:
        return iter(self.terms)

    def __add__(self, other: MomentPoly | Scalar) -> MomentPoly:
        other = _as_momentpoly(other)
        return MomentPoly(self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self) -> MomentPoly:
        return MomentPoly(tuple((p, -c) for p, c in self.terms))

    def __sub__(self, other: MomentPoly | Scalar) -> MomentPoly:
        return self + (-_as_momentpoly(other))

    def __mul__(self, other: MomentPoly | RatFuncN | Poly | Scalar) -> MomentPoly:
        if isinstance(other, MomentPoly):
            out: list[tuple[int, RatFuncN]] = []
            for p, a in self.terms:
                for q, b in other.terms:
                    out.append((p + q, a * b))
            return MomentPoly(tuple(out))
        if isinstance(other, Poly):
            return self * MomentPoly.from_poly(other)
        if isinstance(other, (Fraction, int)):
            # a nonzero rational on each numerator keeps it coprime to its
            # monic denominator, so no gcd is taken
            if other == 0:
                return MomentPoly()
            factor = _as_rat(other)
            return MomentPoly(
                tuple(
                    (p, RatFuncN._trusted(c.num * factor, c.den))
                    for p, c in self.terms
                )
            )
        factor = _as_ratfunc(other)
        return MomentPoly(tuple((p, c * factor) for p, c in self.terms))

    __rmul__ = __mul__

    def dx(self) -> MomentPoly:
        return MomentPoly(
            tuple(
                (p - 1, RatFuncN._trusted(c.num * p, c.den))
                for p, c in self.terms
                if p >= 1
            )
        )

    def eval(self, n: Scalar, x: Scalar) -> Rat:
        """Value at rational (n, x): with x = c/d and top the highest
        x-power, sum_p coeff_p(n) c^p d^(top-p) over one integer numerator
        and denominator, divided by d^top and reduced once."""
        n, x = _as_rat(n), _as_rat(x)
        c, d = x.numerator, x.denominator
        top = self.terms[-1][0] if self.terms else 0
        num, den = 0, 1
        for power, coeff in self.terms:
            u, v = coeff._eval_pair(n)
            num = num * v + u * c**power * d ** (top - power) * den
            den *= v
        return Fraction(num, den * d**top)

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for power, coeff in self.terms:
            if power == 0:
                parts.append(coeff.text())
            elif power == 1:
                parts.append(f"({coeff.text()})*x")
            else:
                parts.append(f"({coeff.text()})*x^{power}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.text()


def _as_momentpoly(value) -> MomentPoly:
    if isinstance(value, MomentPoly):
        return value
    if isinstance(value, Poly):
        return MomentPoly.from_poly(value)
    return MomentPoly.const(_as_rat(value))


def laurent_at_infinity(r: RatFuncN, J: int) -> dict[int, Rat]:
    """Expansion of r(n) in powers of 1/n, exact through n^{-J}: the
    nonzero coefficients c_j of n^{-j} for j <= J, as {j: c_j}.

    Computed by reversing coefficients (substituting n = 1/u) and dividing
    power series at u = 0; the remainder beyond order J is O(n^{-(J+1)})."""
    if r.is_zero:
        return {}
    lead = r.order_at_infinity
    if lead > J:
        return {}
    # num(1/u) * u^deg and den(1/u) * u^deg have nonzero constant terms.
    # Only the nonzero coefficients of the reversed denominator enter the
    # division, so den = d*n^t makes each output a scaled input.
    num_rev = list(reversed(r.num.coeffs))
    den_rev = list(reversed(r.den.coeffs))
    den_terms = [(i, c) for i, c in enumerate(den_rev) if i and c]
    length = J - lead + 1
    out: list[Rat] = []
    for k in range(length):
        value = num_rev[k] if k < len(num_rev) else Fraction(0)
        for i, c in den_terms:
            if i > k:
                break
            value -= c * out[k - i]
        out.append(value / den_rev[0])
    return {lead + k: c for k, c in enumerate(out) if c}
