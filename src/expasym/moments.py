"""Symbolic central moments mu_{n,s}(x) = (S_n psi_x^s)(x).

The whole table is generated from three seeds and one recursion.  Seeds:
mu_{n,0} = 1, mu_{n,1} = the family's declared first moment (zero for the
pure exponential-type built-ins).  Recursion, valid for every family whose
derivative identity has index sequence lambda_n:

    mu_{n,s+1} = mu_{n,1} * mu_{n,s}
                 + (phi / lambda_n) * (s * mu_{n,s-1} + d/dx mu_{n,s})

The recursion runs over integers (_Recursion): mu_{n,s} is kept as an
integer polynomial N_s(n, x) over the known denominator k^s E(n)^s, where
E collects lambda_n's numerator and mu_1's denominators, so no step takes
a gcd and the table is exact.  Each entry is normalised once, when it is
first built as a MomentPoly: for E = d n^t (every built-in and every
c*phi family) by stripping the common power of n and dividing by d^s,
otherwise by one RatFuncN reduction per coefficient against (kE)^s, which
is kept from one order to the next.

For lambda_n = n the expansion of mu_{n,s} in powers of 1/n is finite
with polynomial coefficients g_{s,j} (moment_expansion), the deepest
coefficient has the closed form

    g_{2s,2s}   = (2s)!/(2^s s!) * phi^s
    g_{2s+1,2s+1} = s (2s+1)!/(3 * 2^s s!) * phi^s * phi'

(leading_term_closed_form), and the shallowest nonzero exponent is
floor((s+1)/2) (vanishing_order).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction

from .exactalg import (
    LaurentSeries,
    MomentPoly,
    Poly,
    RatFuncN,
    laurent_at_infinity,
    poly_gcd,
)
from .families import OperatorFamily

MAX_MOMENT_ORDER = 64


class ZeroMoment(ValueError):
    """The moment is identically zero, so it has no vanishing order; callers
    treat this as order +infinity."""


class OrderTooLarge(ValueError):
    """A moment order beyond the supported window was requested."""


@dataclass(frozen=True)
class MomentTable:
    """Central moments of one family for s = 0..s_max."""

    family_id: str
    moments: tuple[MomentPoly, ...]

    @property
    def s_max(self) -> int:
        return len(self.moments) - 1

    def moment(self, s: int) -> MomentPoly:
        if not 0 <= s <= self.s_max:
            raise OrderTooLarge(f"moment order {s} outside table (0..{self.s_max})")
        return self.moments[s]


# {(x-power, n-power): coefficient}, an integer polynomial in x and n
_Bivariate = dict[tuple[int, int], int]


def _bmul(a: _Bivariate, b: _Bivariate) -> _Bivariate:
    out: _Bivariate = {}
    for (i, j), u in a.items():
        for (p, q), v in b.items():
            key = (i + p, j + q)
            out[key] = out.get(key, 0) + u * v
    return out


def _badd(a: _Bivariate, b: _Bivariate, factor: int = 1) -> _Bivariate:
    """a + factor * b."""
    out = dict(a)
    for key, v in b.items():
        out[key] = out.get(key, 0) + factor * v
    return out


def _bivariate(terms: list[tuple[int, Poly]], k: int) -> _Bivariate:
    """k * sum_p x^p c_p(n), for a k that clears every denominator."""
    return {
        (p, j): int(value * k)
        for p, c in terms
        for j, value in enumerate(c.coeffs)
        if value
    }


class _Recursion:
    """The integer state behind one family's moment table.

    With lambda_n = L_num/L_den, mu_1 = M(n,x)/B(n) (B the monic lcm of
    mu_1's coefficient denominators), E = L_num B, A = M L_num,
    C = phi L_den B and k the lcm of the coefficient denominators of A, C
    and E, the moments are mu_s = N_s / (k^s E^s) with N_0 = 1, N_1 = kA and

        N_{s+1} = kA N_s + kC (s kE N_{s-1} + d/dx N_s)

    over Python ints, with no gcd taken.  Holds N_{s-1}, N_s, (kE)^s and
    the MomentPolys built so far, but not the family, so the weak cache
    entry that owns it goes with the family."""

    def __init__(self, family: OperatorFamily) -> None:
        lam, mu1 = family.lambda_n, family.mu1
        B = Poly.const(1)
        for _p, c in mu1.items():  # monic lcm
            B = divmod(B * c.den, poly_gcd(B, c.den))[0]
        E = lam.num * B
        A = [(p, divmod(B, c.den)[0] * c.num * lam.num) for p, c in mu1.items()]
        C = [(p, lam.den * B * c) for p, c in enumerate(family.phi.coeffs) if c]
        k = math.lcm(
            *(v.denominator for _p, c in [*A, *C, (0, E)] for v in c.coeffs)
        )
        kE = _bivariate([(0, E)], k)
        self.kA = _bivariate(A, k)
        self.kC = _bivariate(C, k)
        self.kCkE = _bmul(self.kC, kE)
        self.kE = E * k
        # (t, d) when kE = d n^t, which puts every entry over d^s n^(ts)
        e_terms = [(j, d) for (_i, j), d in kE.items()]
        self.monomial = e_terms[0] if len(e_terms) == 1 else None
        self.kE_power = Poly.const(1)  # (kE)^s of the last entry built
        self.previous: _Bivariate = {}
        self.current: _Bivariate = {(0, 0): 1}
        self.moments: list[MomentPoly] = [MomentPoly.const(1)]

    def extend(self, s_max: int) -> None:
        while len(self.moments) <= s_max:
            s = len(self.moments) - 1
            deriv = {(i - 1, j): i * v for (i, j), v in self.current.items() if i}
            nxt = _badd(_bmul(self.kA, self.current), _bmul(self.kC, deriv))
            nxt = _badd(nxt, _bmul(self.kCkE, self.previous), s)
            self.previous = self.current
            self.current = {key: v for key, v in nxt.items() if v}
            self.moments.append(self._moment(s + 1))

    def _moment(self, s: int) -> MomentPoly:
        """N_s / (k^s E^s) as a MomentPoly, one normalisation per entry.

        Called once per order, in order, so (kE)^s takes one multiplication
        by kE; each coefficient of a general family is then one RatFuncN
        reduction."""
        by_power: dict[int, dict[int, int]] = {}
        for (i, j), v in self.current.items():
            by_power.setdefault(i, {})[j] = v
        terms = []
        if self.monomial is None:
            den = self.kE_power = self.kE_power * self.kE
            for i, c in by_power.items():
                num = Poly(tuple(c.get(j, 0) for j in range(max(c) + 1)))
                terms.append((i, RatFuncN(num, den)))
            return MomentPoly(tuple(terms))
        # strip the common power of n and divide by d^s: that leaves num
        # coprime to a monic den, so no gcd is needed
        t, d = self.monomial
        scale, depth = d**s, t * s
        dens: dict[int, Poly] = {}
        for i, c in by_power.items():
            low = min(min(c), depth)
            num = Poly(
                tuple(Fraction(c.get(j, 0), scale) for j in range(low, max(c) + 1))
            )
            m = depth - low
            if m not in dens:
                dens[m] = Poly((Fraction(0),) * m + (Fraction(1),))
            terms.append((i, RatFuncN._trusted(num, dens[m])))
        return MomentPoly(tuple(terms))


_CACHE: "weakref.WeakKeyDictionary[OperatorFamily, _Recursion]" = (
    weakref.WeakKeyDictionary()
)


def central_moments(family: OperatorFamily, s_max: int) -> MomentTable:
    """Moment table for s = 0..s_max, memoised per family."""
    if s_max < 0:
        raise ValueError("s_max must be >= 0")
    if s_max > MAX_MOMENT_ORDER:
        raise OrderTooLarge(f"moment order {s_max} above cap {MAX_MOMENT_ORDER}")
    recursion = _CACHE.get(family)
    if recursion is None:
        recursion = _CACHE[family] = _Recursion(family)
    recursion.extend(s_max)
    return MomentTable(family.id, tuple(recursion.moments[: s_max + 1]))


def _monomial_exponent(den: Poly) -> int | None:
    """Degree k when den = n^k, else None (den is monic by construction)."""
    nonzero = [i for i, c in enumerate(den.coeffs) if c != 0]
    if len(nonzero) == 1:
        return nonzero[0]
    return None


def moment_expansion(mu: MomentPoly, J: int | None = None) -> dict[int, Poly]:
    """Coefficients of n^{-j}: mu = sum_j g_j(x) n^{-j} + O(n^{-(J+1)}).

    J = None demands the finite exact case (every coefficient denominator a
    pure power of n) and returns all of it; otherwise the expansion is
    truncated at J exactly."""
    if J is None:
        deepest = 0
        for _power, coeff in mu.items():
            k = _monomial_exponent(coeff.den)
            if k is None:
                raise ValueError(
                    "expansion is infinite; pass an explicit truncation order J"
                )
            lowest = next(i for i, c in enumerate(coeff.num.coeffs) if c != 0)
            deepest = max(deepest, k - lowest)
        J = deepest
    out: dict[int, dict[int, Fraction]] = {}
    for power, coeff in mu.items():
        series = laurent_at_infinity(coeff, J)
        for j, value in series.nonzero().items():
            out.setdefault(j, {})[power] = value
    result: dict[int, Poly] = {}
    for j in sorted(out):
        coeffs = out[j]
        top = max(coeffs)
        poly = Poly(tuple(coeffs.get(i, Fraction(0)) for i in range(top + 1)))
        if not poly.is_zero:
            result[j] = poly
    return result


def leading_term_closed_form(order: int, phi: Poly) -> Poly:
    """The deepest expansion coefficient g_{order,order} in closed form."""
    if order < 0:
        raise ValueError("moment order must be >= 0")
    half, odd = divmod(order, 2)
    base = Fraction(math.factorial(order), 2**half * math.factorial(half))
    if not odd:
        return (phi**half) * base
    return (phi**half) * phi.derivative() * (base * Fraction(half, 3))


def vanishing_order(mu: MomentPoly) -> int:
    """Smallest j with a nonzero n^{-j} coefficient, computed exactly from
    the leading behaviour of each rational-function coefficient."""
    if mu.is_zero:
        raise ZeroMoment("moment is identically zero")
    return min(coeff.order_at_infinity for _power, coeff in mu.items())
