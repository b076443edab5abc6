"""Direct rules of the exponential-type operator families.

This module is the ground-truth side of the package and holds only the
direct rules: each evaluates (S_n f)^{(r)}(x) by its own summation or
quadrature rule, sharing no code with the symbolic moment/expansion
machinery it is checked against.  The family descriptors it dispatches on
live in expasym.families.

Families and rules:

* bernstein on [0, 1], phi = x(1-x):
      (B_n f)^{(r)}(x) = n!/(n-r)! * sum_{k=0}^{n-r} Delta^r_{1/n} f(k/n)
                         * C(n-r,k) x^k (1-x)^{n-r-k}
  evaluated exactly for polynomial f and rational x, as one integer sum
  over the common denominator with a single reduction at the end; other f
  go through the windowed sum below, like the series.
* szasz on [0, oo), phi = x:
      (S_n f)^{(r)}(x) = n^r e^{-nx} sum_k (nx)^k/k! * Delta^r_{1/n} f(k/n)
* baskakov on [0, oo), phi = x(1+x):
      (V_n f)^{(r)}(x) = n(n+1)...(n+r-1) * sum_k Delta^r_{1/n} f(k/n)
                         * C(n+r+k-1,k) x^k (1+x)^{-n-r-k}
* gauss_weierstrass on (-oo, oo), phi = 1:
      (W_n f)^{(r)}(x) = (n/2)^{r/2} pi^{-1/2}
                         * integral f(x + u sqrt(2/n)) H_r(u) e^{-u^2} du
  by the trapezoidal rule, its step from a certified strip bound and its
  cut-off from a certified tail bound, both sized from tol.

Float bernstein sums and the infinite series are summed over a window
around the mode m of the weights (m = floor((n-r+1) x) for bernstein,
floor(n x) for szasz, floor((n+r-1) x) for baskakov): w_m comes from
log-gamma, and the sum walks left and right from m until each side's tail
is below a certified geometric bound, built from the weight ratios and
the declared growth bound of f.  The window holds O(sqrt(n x)) terms, and
the reported value is within tol of the full sum.  The walk, the values of
f and the sum run in fixed point on Python ints (weights stepped by their
exact rational ratios, values from SmoothFunction.values_iter), and so
does the trapezoidal sum; a tol finer than the precision can resolve
raises PrecisionTooLow.

Evaluators return exact Fractions whenever every ingredient is rational,
else mpf values at the working precision of expasym.numeric.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import accumulate, islice

from mpmath import mp, mpf as BigFloat

from .exactalg import Poly, Rat, Scalar, _as_rat, format_rat
from .families import OperatorFamily
from .functions import EXP, SmoothFunction
from .numeric import DEFAULT_TOL, GUARD_BITS, Number, dot, from_fixed, resolve_precision, to_fixed, to_mpf, working


class DerivativeOrderExceedsDegree(ValueError):
    """Bernstein derivative order r exceeds the polynomial degree n."""


class GrowthBoundViolated(ValueError):
    """f grows too fast for a series on an unbounded interval."""


class QuadratureNotConverged(ArithmeticError):
    """The trapezoidal rule needs more nodes than quad_order allows to
    certify tol."""


class PrecisionTooLow(ValueError):
    """tol asks for a stop threshold finer than the working precision."""


def _precision_too_low(tol: Rat, share: str, value, bits: int) -> PrecisionTooLow:
    def short(v):
        return mp.nstr(to_mpf(v), 3)

    return PrecisionTooLow(
        f"tol {short(tol)} is beyond {bits}-bit precision: {share} = {short(value)}"
        f" is below the threshold 2^-{bits} = {short(Fraction(1, 2**bits))}"
    )


_E_ABOVE = Fraction(193, 71)  # e < 193/71 < e (1 + 1.04e-5)


def _growth_stretch(rate: Rat, n: int) -> Rat:
    """Exact rational upper bound for e^(rate/n), rate >= 0.

    Uses e^z <= 1/(1-z) on z < 1/2 (tight for the small steps the series
    sees).  Otherwise e^z = e^w e^t with w = floor(z), t = z - w in [0, 1):
    e^w <= (193/71)^w, and e^t is at most its degree-10 Taylor sum plus the
    Lagrange remainder e^u t^11/11! <= 3 t^11/11! (u < 1), so the bound
    exceeds e^z by a relative 1.04e-5 per unit of z."""
    z = Fraction(rate, 1) / n
    if z == 0:
        return Fraction(1)
    if z < Fraction(1, 2):
        return 1 / (1 - z)
    whole = math.floor(z)
    t = z - whole
    term = total = Fraction(1)
    for i in range(1, 11):
        term = term * t / i
        total += term
    return _E_ABOVE**whole * (total + 3 * term * t / 11)


def check_growth(
    family: OperatorFamily,
    f: SmoothFunction,
    n: int | None = None,
    x: Scalar | None = None,
) -> None:
    """Reject (f, n, x) the family's series provably cannot sum.

    Only the baskakov weights lose to exponential growth: their ratio tends
    to x/(1+x) > 0, so the certified per-step factor q * e^(a/n) must stay
    below 1.  The bound is conservative (it uses the rational stretch in
    place of e^(a/n)); everything it accepts is summed rigorously."""
    if family.evaluator != "baskakov" or n is None or x is None:
        return
    _, _, rate = f.halfline_majorant()
    if rate == 0:
        return
    x = _as_rat(x)
    if x <= 0:
        return
    q = x / (1 + x)
    if q * _growth_stretch(rate, n) >= 1:
        raise GrowthBoundViolated(
            f"{f.describe()} outruns the {family.id} weights at "
            f"x = {format_rat(x)}, n = {n}"
        )


def forward_difference(f: SmoothFunction, t0: Scalar, h: Scalar, r: int, prec: int | None = None) -> Number:
    """Delta^r_h f(t0) = sum_i (-1)^(r-i) C(r,i) f(t0 + i h); exact whenever
    f is rational-valued at the nodes."""
    if r < 0:
        raise ValueError("difference order must be >= 0")
    t0, h = _as_rat(t0), _as_rat(h)
    values = [f.eval_number(t0 + i * h, 0, prec) for i in range(r + 1)]
    signs = [(-1) ** (r - i) * math.comb(r, i) for i in range(r + 1)]
    return dot(signs, values, prec)


def bernstein_eval(
    f: SmoothFunction,
    n: int,
    x: Scalar,
    r: int = 0,
    tol: Rat = DEFAULT_TOL,
    prec: int | None = None,
) -> Number:
    """(B_n f)^{(r)}(x), within tol; exact rational when f equals a
    polynomial (SmoothFunction.as_poly) and x is rational."""
    x = _as_rat(x)
    if r < 0:
        raise ValueError("derivative order must be >= 0")
    if n < 1:
        raise ValueError("index n must be >= 1")
    if r > n:
        raise DerivativeOrderExceedsDegree(f"derivative order {r} exceeds n = {n}")
    if not (0 <= x <= 1):
        raise ValueError(f"x = {format_rat(x)} outside [0, 1]")
    m = n - r
    perm = math.perm(n, r)
    if x == 1:
        return perm * forward_difference(f, Fraction(m, n), Fraction(1, n), r, prec)
    poly = f.as_poly()
    if poly is not None:
        return perm * _bernstein_integer_sum(poly, n, r, x)

    def log_weight(k: int) -> BigFloat:
        # w_k = C(m, k) x^k (1-x)^(m-k)
        return (
            mp.loggamma(m + 1)
            - mp.loggamma(k + 1)
            - mp.loggamma(m - k + 1)
            + k * mp.log(to_mpf(x))
            + (m - k) * mp.log(to_mpf(1 - x))
        )

    return _series_eval(f, n, x, r, tol, prec, log_weight, x / (1 - x), m, -1, perm)


_SPLIT_LEAF = 8  # terms a leaf of the binary splitting sums in a plain loop


def _bernstein_integer_sum(p: Poly, n: int, r: int, x: Rat) -> Fraction:
    """sum_{k<=m} C(m,k) x^k (1-x)^(m-k) Delta^r_{1/n} p(k/n), m = n - r,
    for 0 <= x < 1, summed over Python ints and reduced once at the end.

    With x = a/b, D the lcm of p's coefficient denominators and d = deg p,
    g(k) = D n^d p(k/n) is an integer polynomial in k, and v_k = Delta^r g(k)
    one of degree e = d - r (zero for d < r): its first e + 1 values come
    from Horner and r differencing passes, the rest from stepping its
    forward-difference table, e nested running sums.  The weights
    c_k = C(m,k) a^k (b-a)^(m-k) start at c_0 = (b-a)^m with the term ratio
    c_{k+1}/c_k = p(k)/q(k), p(k) = (m-k) a, q(k) = (k+1)(b-a), so
    S = sum_k c_k v_k is summed by binary splitting (Haible & Papanikolaou,
    "Fast multiprecision evaluation of series of rational numbers", ANTS
    1998): over lo <= k < hi, P = prod p(k), Q = prod q(k) and T with
    T/Q = sum_k v_k prod_{lo<=i<k} p(i)/q(i); a leaf is (p(k), q(k),
    v_k q(k)), and two halves combine as (P1 P2, Q1 Q2, T1 Q2 + P1 T2).
    Then S = (b-a)^m T/Q, an integer, and the result is S / (b^m D n^d)."""
    a, b = x.numerator, x.denominator
    degree = max(p.degree, 0)
    scale = math.lcm(*(c.denominator for c in p.coeffs))
    coeffs = [
        c.numerator * (scale // c.denominator) * n ** (degree - j)
        for j, c in enumerate(p.coeffs)
    ]
    coeffs.reverse()
    m = n - r
    count = m + 1 if a else 1  # at x = 0 only w_0 is nonzero
    e = max(degree - r, 0)
    values = []
    for k in range(min(count, e + 1) + r):
        acc = 0
        for c in coeffs:
            acc = acc * k + c
        values.append(acc)
    for _ in range(r):
        values = [v - u for u, v in zip(values, values[1:])]
    if count > e + 1:
        for i in range(1, e + 1):  # values[i] = Delta^i v_0
            for j in range(e, i - 1, -1):
                values[j] -= values[j - 1]
        steps = [values[e]] * (count - e)
        for i in range(e - 1, -1, -1):
            steps = accumulate(steps, initial=values[i])
        values = list(steps)
    rest = b - a

    def split(lo: int, hi: int) -> tuple[int, int, int]:
        if hi - lo <= _SPLIT_LEAF:
            P, Q, T = 1, 1, 0
            for k in range(lo, hi):
                q = (k + 1) * rest
                T = (T + P * values[k]) * q
                P *= (m - k) * a
                Q *= q
            return P, Q, T
        mid = (lo + hi) // 2
        P1, Q1, T1 = split(lo, mid)
        P2, Q2, T2 = split(mid, hi)
        return P1 * P2, Q1 * Q2, T1 * Q2 + P1 * T2

    _, Q, T = split(0, len(values))
    # Q holds (b-a)^m, so dividing it out first keeps both divisions small
    total = T // (Q // rest**m)
    return Fraction(total, b**m * scale * n**degree)


def _power_up(num: int, den: int, e: int, bits: int) -> int:
    """An int R with (num/den)^e <= R / 2^bits, above it by a relative
    error of about (e + 2 log2(e)) 2^-bits: square-and-multiply with every
    product rounded up."""
    base = -((-num << bits) // den)
    result = 1 << bits
    while e:
        if e & 1:
            result = -(-result * base >> bits)
        e >>= 1
        if e:
            base = -(-base * base >> bits)
    return result


def _stream(factor: BigFloat, g: SmoothFunction, step: Rat, count: int, bits: int) -> tuple[list[int], int]:
    """The first count values of g.values_iter(step), for f = factor * g,
    and their scale: bits plus the bits of factor, so that factor times a
    value is within 2^-bits of f however f was split."""
    value_bits = bits + max(mp.mag(factor), 0)
    with mp.workprec(value_bits):
        return list(islice(g.values_iter(step), count)), value_bits


def _series_eval(
    f: SmoothFunction,
    n: int,
    x: Rat,
    r: int,
    tol: Rat,
    prec: int | None,
    log_weight,
    scale: Rat,
    offset: int,
    slope: int,
    prefactor: int,
) -> Number:
    """Shared windowed summation for bernstein/szasz/baskakov.

    The weights w_k (k >= 0) satisfy w_{k+1}/w_k = scale (offset + slope k)
    / (k + 1), which is non-increasing in k, so w_k increases up to the
    mode m and decreases after it; log_weight(k) is log w_k in closed form.
    With slope = -1 (bernstein) the ratio reaches 0 at k = offset and the
    weights vanish beyond it, so the right walk stops there by itself.  At
    x = 0 only w_0 is nonzero and the sum is the point mass
    prefactor * Delta^r_{1/n} f(0), exact whenever f(0), ..., f(r/n) are.

    |Delta^r_{1/n} f(k/n)| is majorised by
    M_k = C 2^r (1 + (k+r)/n)^d E^(k+r), non-decreasing in k, with E the
    rational stretch covering e^(a/n); the series converges iff
    scale * slope * E < 1.

    The sum runs in fixed point.  With P = prec + GUARD_BITS, each weight
    is an int W_k ~ w_k 2^Q, Q = P + extra: W_m is the floor of
    w_m = exp(log_weight(m)), computed with extra bits that absorb the
    cancellation among its log terms, and the walk steps both ways by the
    exact rational weight ratios, W <- W num // den:

    * right, the terms beyond U are below w_{U+1} M_{U+1} / (1 - rho) with
      rho = (w_{U+2}/w_{U+1}) (1 + 1/(n+U+1+r))^d E, which bounds every
      later term ratio;
    * left, the terms below L are below w_{L-1} M_m / (1 - w_{L-2}/w_{L-1}),
      the weight ratio w_{k-1}/w_k increasing in k and M_k <= M_m.

    Each side stops once its bound, with W_k / 2^Q for w_k, is under the
    side tolerance tol / (4 * prefactor), decided exactly over the
    integers: E^(k+r) is bounded above by _power_up at the mode and
    stepped by products rounded up, and the rest of M_k and rho is exact.
    So the two tails stay within tol / (2 * prefactor); the other half of
    tol is the rounding margin.  extra is the bit length of M_{U+1} (16
    more at the first try; a walk that needs more is done again), so
    W_k M_k keeps P bits where f grows along the window.

    PrecisionTooLow is raised when the side tolerance is below 2^-prec,
    where the stop threshold would come within 2^GUARD_BITS units of the
    rounding of the weights, or below 2^-prec times a term bound w_k M_k
    met on the walk, which prec bits cannot resolve to tol.

    Rounding: each step floors once and every ratio is at most 1 going
    away from the mode, so W_k is within |k - m| + 2 units of w_k 2^Q
    beyond the relative error of w_m.  The values f((L + j)/n) are one
    values_iter stream of f shifted by L/n, to 2^-P of f, each within one
    unit for polynomials and a few for exp and sin.  Their r-th
    differences and the dot product are exact ints, so the total is off
    by at most sum_k (2^r W_k e_V + (|k - m| + 2) |Delta^r V_k|) units,
    e_V the value error, and becomes an mpf once, at the end.  No running
    bound on this is kept."""
    bits = resolve_precision(prec)
    side_tol = Fraction(tol) / (4 * prefactor)
    if side_tol < Fraction(1, 2**bits):
        raise _precision_too_low(tol, f"tol/(4*{prefactor})", side_tol, bits)
    if x == 0:
        return prefactor * forward_difference(f, Fraction(0), Fraction(1, n), r, prec)
    growth_const, growth_deg, growth_rate = f.halfline_majorant()
    stretch = _growth_stretch(growth_rate, n)
    if scale * slope * stretch >= 1:
        raise GrowthBoundViolated(
            f"{f.describe()} outruns the series weights at x = {format_rat(x)},"
            f" n = {n}"
        )
    mode = math.floor(scale * (offset - slope) / (1 - scale * slope))
    # the log-gamma terms of log w_m are below (m + offset + 2) log2(m + offset + 2)
    log_size = (mode + offset + 2) * (mode + offset + 2).bit_length()
    a, b = scale.numerator, scale.denominator
    sp, sq = stretch.numerator, stretch.denominator
    d = growth_deg
    c = Fraction(growth_const) * 2**r
    # 2^room <= side_tol 2^prec: a term bound w_k M_k above 2^room is refused
    room = ((side_tol.numerator << bits) // side_tol.denominator).bit_length() - 1
    P = bits + GUARD_BITS
    B = P + (mode + r).bit_length() + 8
    mode_power = _power_up(sp, sq, mode + r, B)  # E^(m+r) <= mode_power / 2^B
    stretch_up = -((-sp << B) // sq)
    c_num, c_den, tol_num, tol_den = c.numerator, c.denominator, side_tol.numerator, side_tol.denominator
    unit = c_den * n**d << B  # M_k = growth_k / unit, growth_k = c_num (n+k+r)^d power

    def refuse(term, k, Q):
        return _precision_too_low(
            tol, f"tol/(4*{prefactor}) over the term bound at t = {format_rat(Fraction(k, n))}",
            side_tol * (unit << Q) / term, bits,
        )

    def walk(Q):
        """(L, [W_L, ..., W_U] at scale 2^Q, the bits of M_{U+1})."""
        # a side stops once W_k M_k / 2^Q < side_tol (1 - num/den), num/den
        # its ratio, that is W_k growth_k tol_den den < rhs (den - num); a
        # term bound W_k growth_k at cap or above is refused
        rhs = tol_num * c_den * n**d << (Q + B)
        cap = unit << (Q + room)
        w_m = to_fixed(w_mode, Q)
        top = c_num * (n + mode + r) ** d * mode_power
        if w_m * top >= cap:
            raise refuse(w_m * top, mode, Q)
        top *= tol_den
        left = []
        weight, low = w_m, mode
        while low > 0:
            weight = weight * low * b // (a * (offset + slope * (low - 1)))  # W_{low-1}
            k = low - 1
            sn, sd = (k * b, a * (offset + slope * (k - 1))) if k else (0, 1)  # w_{k-1}/w_k
            if weight * top * sd < rhs * (sd - sn):
                break
            left.append(weight)
            low -= 1
        left.reverse()

        right = []
        weight, high, power = w_m, mode, mode_power
        while True:
            weight = weight * a * (offset + slope * high) // (b * (high + 1))  # W_{high+1}
            power = -(-power * stretch_up >> B)  # E^(high+1+r) <= power / 2^B
            k = high + 1
            poly_growth = (n + k + r) ** d
            growth = c_num * poly_growth * power
            term = weight * growth
            if term >= cap:
                raise refuse(term, k, Q)
            rn = a * (offset + slope * k) * sp * (n + k + 1 + r) ** d  # rho = rn / rd
            rd = b * (k + 1) * sq * poly_growth
            if rn < rd and term * tol_den * rd < rhs * (rd - rn):
                break
            right.append(weight)
            high += 1
        return low, left + [w_m] + right, (growth // unit).bit_length()

    with working(prec):
        with mp.extraprec(log_size.bit_length() + 4):
            w_mode = mp.exp(log_weight(mode))
        # the weights carry `extra` bits beyond P, the bits of the largest
        # majorant in the window and a margin, so that where f grows along
        # it each W_k M_k still holds P bits; a walk that ends with a larger
        # M_{U+1} is done again with more
        extra = (c_num * (n + mode + r) ** d * mode_power // unit).bit_length() + 16
        while True:
            low, weights, need = walk(P + extra)
            if need <= extra:
                break
            extra = need
        factor, g = f.shifted(Fraction(low, n))
        values, value_bits = _stream(factor, g, Fraction(1, n), len(weights) + r, P)
        for _ in range(r):
            values = [v - u for u, v in zip(values, values[1:])]
        total = sum(map(operator.mul, weights, values))
        return prefactor * factor * from_fixed(total, P + extra + value_bits)


def szasz_eval(
    f: SmoothFunction,
    n: int,
    x: Scalar,
    r: int = 0,
    tol: Rat = DEFAULT_TOL,
    prec: int | None = None,
) -> Number:
    """(S_n f)^{(r)}(x) for the Szasz-Mirakjan family, within tol."""
    x = _as_rat(x)
    if r < 0 or n < 1:
        raise ValueError("need n >= 1 and r >= 0")
    if x < 0:
        raise ValueError(f"x = {format_rat(x)} outside [0, oo)")
    rate = n * x

    def log_weight(k: int) -> BigFloat:
        # w_k = e^{-nx} (nx)^k / k!
        rate_m = to_mpf(rate)
        return -rate_m + k * mp.log(rate_m) - mp.loggamma(k + 1)

    return _series_eval(f, n, x, r, tol, prec, log_weight, rate, 1, 0, n**r)


def baskakov_eval(
    f: SmoothFunction,
    n: int,
    x: Scalar,
    r: int = 0,
    tol: Rat = DEFAULT_TOL,
    prec: int | None = None,
) -> Number:
    """(V_n f)^{(r)}(x) for the Baskakov family, within tol."""
    x = _as_rat(x)
    if r < 0 or n < 1:
        raise ValueError("need n >= 1 and r >= 0")
    if x < 0:
        raise ValueError(f"x = {format_rat(x)} outside [0, oo)")
    rising = math.prod(range(n, n + r)) if r else 1
    q = x / (1 + x)

    def log_weight(k: int) -> BigFloat:
        # w_k = C(n+r+k-1, k) q^k (1+x)^{-(n+r)}
        return (
            mp.loggamma(n + r + k)
            - mp.loggamma(k + 1)
            - mp.loggamma(n + r)
            + k * mp.log(to_mpf(q))
            - (n + r) * mp.log(to_mpf(1 + x))
        )

    return _series_eval(f, n, x, r, tol, prec, log_weight, q, n + r, 1, rising)


def gauss_weierstrass_eval(
    f: SmoothFunction,
    n: int,
    x: Scalar,
    r: int = 0,
    quad_order: int = 64,
    tol: Rat = DEFAULT_TOL,
    prec: int | None = None,
) -> BigFloat:
    """(W_n f)^{(r)}(x) by the trapezoidal rule, within tol.

    With t = x + u s, s = sqrt(2/n), the value is (n/2)^{r/2} pi^{-1/2}
    times the integral of g(u) = f(x + u s) H_r(u) e^{-u^2}, summed as
    h sum_{|j| < J} g(j h).  g is entire, so the sum is off by at most
    2M/(e^{2 pi a/h} - 1) if M bounds the integral of |g| along every line
    of the strip |Im u| < a (Trefethen & Weideman, "The exponentially
    convergent trapezoidal rule", SIAM Review 56(3), 2014, Thm 5.1).  As
    |e^{-(v+iy)^2}| = e^{y^2 - v^2}, M <= e^{a^2 + k} times the integral of
    Q(|w| + c) e^{-w^2}, which is sum_j [Q(. + c)]_j Gamma((j+1)/2), where
    Q has the absolute coefficients of H_r and
      poly: times the absolute Taylor polynomial of f at x, its j-th
            coefficient times s^j; k = 0, c = a;
      exp:b: |f| = e^{b(x + v s)}, and completing the square gives
            k = b x + (b s)^2/4, c = a + |b| s/2;
      sin:b,_: |f| <= cosh(b y s), so k = |b| s a, c = a.
    a is iterated towards sqrt(log(M e^{-a^2 - |b| s a}/tol)), where h is
    largest, and h puts the strip bound at tol/4.  On the real line |g(u)|
    <= e^{k0 + k1 |u|} Q(|u|) e^{-u^2} (k0 = b x, k1 = |b| s for exp, else
    0), and from index J on these bounds shrink at least by the factor
    rho = (1 + 1/J)^(deg Q) e^{k1 h - (2J + 1) h^2} per step, so each tail
    is under the J-th bound over 1 - rho; J is the first index where that
    is under tol/8, leaving half of tol as the rounding margin.  h s is
    rounded down to 7 significant bits, a rational, so f comes from one
    values_iter stream.  More than 3 quad_order nodes is refused, and so is
    tol/(8 scale) below 2^-prec (PrecisionTooLow).  The J weights are
    computed in mpf, then floored once to ints at 2^-P over the largest
    |f| on the nodes; the values are ints to 2^-P of f, and the dot
    product is exact.  The mpf steps err relative to the terms, so the sum
    is refused too when scale times the sum of its |terms| exceeds
    tol 2^prec / 8, the rule the series apply to their term bounds."""
    x = _as_rat(x)
    if r < 0 or n < 1:
        raise ValueError("need n >= 1 and r >= 0")
    if quad_order < 16:
        raise ValueError("quad_order must be >= 16")
    poly = f.as_poly()
    if poly is not None and poly.is_zero:
        return mp.mpf(0)
    hermite = [0] * (r + 1)  # H_r, lowest power first
    for m in range(r // 2 + 1):
        hermite[r - 2 * m] = (-1) ** m * 2 ** (r - 2 * m) * math.perm(r, 2 * m) // math.factorial(m)
    bits = resolve_precision(prec)
    with working(prec):
        s = mp.sqrt(mp.mpf(2) / n)
        scale = mp.sqrt(mp.mpf(n) / 2) ** r / mp.sqrt(mp.pi)
        if to_mpf(tol) / (8 * scale) < mp.ldexp(1, -bits):
            raise _precision_too_low(tol, "tol/(8*scale)", to_mpf(tol) / (8 * scale), bits)
        log_budget = mp.log(8 * scale / to_mpf(tol))  # budget/8 = tol/(8 scale)
        majorant = [abs(c) for c in hermite]
        k0 = k1 = shift = spread = 0
        if poly is not None:
            taylor = [abs(f.eval_exact(x, j)) / math.factorial(j) * s**j for j in range(poly.degree + 1)]
            majorant = [
                mp.fsum(q * taylor[k - i] for i, q in enumerate(majorant) if 0 <= k - i < len(taylor))
                for k in range(len(majorant) + len(taylor) - 1)
            ]
        elif f.kind == EXP:
            k0, k1 = to_mpf(f.a * x), abs(to_mpf(f.a)) * s
            shift = k1 / 2
        else:
            spread = abs(to_mpf(f.a)) * s
        gammas = [mp.gamma(mp.mpf(j + 1) / 2) for j in range(len(majorant))]

        def log_strip(a):
            # log of the bound on M for the strip |Im u| < a
            total = mp.fsum(
                q * math.comb(k, j) * (a + shift) ** (k - j) * gammas[j]
                for k, q in enumerate(majorant) for j in range(k + 1)
            )
            return a * a + k0 + shift**2 + spread * a + mp.log(total)

        a = start = mp.sqrt(max(log_budget, 1))
        for _ in range(2):
            a = mp.sqrt(max(log_strip(a) - a * a - spread * a + log_budget, 1))
        h = 2 * mp.pi * a / mp.log(1 + mp.exp(log_strip(a) + log_budget))
        mantissa, exponent = mp.frexp(h * s)
        step = Fraction(int(mantissa * 128), 128) * Fraction(2) ** exponent
        h = to_mpf(step) / s

        def tail(J):
            # bound on sum_{j >= J} h |g(j h)|, and on the same sum over -j
            rho = (1 + mp.mpf(1) / J) ** (len(majorant) - 1) * mp.exp(k1 * h - (2 * J + 1) * h * h)
            u = J * h
            bound = h * mp.exp(k0 + k1 * u - u * u) * mp.polyval(majorant[::-1], u)
            return bound / (1 - rho) if rho < 1 else mp.inf

        last = (3 * quad_order + 1) // 2  # the largest J with 2J - 1 <= 3 quad_order
        J = max(1, int(start / h))
        while J <= last and tail(J) > mp.exp(-log_budget):
            J += 1
        if J > last:
            raise QuadratureNotConverged(
                f"tol {mp.nstr(to_mpf(tol), 3)} needs more than 3*quad_order = {3 * quad_order}"
                f" nodes: at h = {mp.nstr(h, 3)}, the tail bound beyond |u| = "
                f"{mp.nstr(last * h, 3)} is {mp.nstr(2 * scale * tail(last), 3)}"
            )
        weights, decay, shrink, ratio = [], h, mp.exp(-h * h), mp.exp(-2 * h * h)
        for j in range(J):  # h H_r(j h) e^{-(j h)^2}, stepping e^{-(2j + 1) h^2}
            weights.append(mp.polyval(hermite[::-1], j * h) * decay)
            decay, shrink = decay * shrink, shrink * ratio
        P = mp.prec
        factor, g = f.shifted(x - (J - 1) * step)
        values, value_bits = _stream(factor, g, step, 2 * J - 1, P)
        # weights to 2^-P over the largest |f| on the nodes
        largest = max(map(abs, values)).bit_length() - value_bits + mp.mag(factor)
        weight_bits = P + max(largest, 0)
        weights = [to_fixed(w, weight_bits) for w in weights]
        weights = [(-1) ** r * w for w in weights[:0:-1]] + weights
        terms = list(map(operator.mul, weights, values))
        # the mpf weights, scale and factor err relative to the terms
        size = scale * abs(factor) * from_fixed(sum(map(abs, terms)), weight_bits + value_bits)
        if to_mpf(tol) / 8 < size * mp.ldexp(1, -bits):
            share = f"tol/8 over the term sum bound {mp.nstr(size, 3)}"
            raise _precision_too_low(tol, share, to_mpf(tol) / (8 * size), bits)
        return scale * factor * from_fixed(sum(terms), weight_bits + value_bits)


def operator_eval(
    family: OperatorFamily,
    f: SmoothFunction,
    n: int,
    x: Scalar,
    r: int = 0,
    tol: Rat = DEFAULT_TOL,
    prec: int | None = None,
    quad_order: int = 64,
) -> Number:
    """Uniform dispatch to the family's direct rule."""
    if family.evaluator is None:
        raise ValueError(f"family {family.id!r} has no direct evaluator")
    family.require_point(_as_rat(x))
    # module globals, not a table of function objects, so that rebinding a
    # module attribute (as perfbench/tracer.py does) reaches these calls
    if family.evaluator == "bernstein":
        return bernstein_eval(f, n, x, r, tol=tol, prec=prec)
    if family.evaluator == "szasz":
        return szasz_eval(f, n, x, r, tol=tol, prec=prec)
    if family.evaluator == "baskakov":
        return baskakov_eval(f, n, x, r, tol=tol, prec=prec)
    return gauss_weierstrass_eval(f, n, x, r, quad_order=quad_order, tol=tol, prec=prec)


def central_moment_direct(
    family: OperatorFamily,
    n: int,
    x: Scalar,
    s: int,
    tol: Rat = DEFAULT_TOL,
    prec: int | None = None,
    quad_order: int = 64,
) -> Number:
    """S_n applied to psi_x^s = (t - x)^s, evaluated at x by the family's
    direct rule; the independent oracle for the symbolic moment table."""
    x = _as_rat(x)
    if s < 0:
        raise ValueError("moment order must be >= 0")
    psi_power = SmoothFunction.polynomial(Poly((-x, Fraction(1))) ** s)
    return operator_eval(
        family, psi_power, n, x, 0, tol=tol, prec=prec, quad_order=quad_order
    )
