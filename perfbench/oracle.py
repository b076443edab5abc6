"""Reference values computed without the package under test.

Every check in the benchmark compares the package's output with a value
from this module.  Nothing here imports ``expasym``: moments come from the
probabilistic model behind each family, operator values on exponential
inputs from their closed forms.

Model.  For the built-in shapes the operator is f -> E f(t) with
t = (K + beta) / (n' + alpha) and n' = n / c, where K is

* binomial(n', x)                  for phi = x - x^2  (bernstein),
* Poisson(n' x)                    for phi = x        (szasz),
* negative binomial, E K = n' x    for phi = x + x^2  (baskakov),
* normal with mean n' x, var n'    for phi = 1        (gauss_weierstrass).

alpha = beta = 0 gives the family with characteristic polynomial c * phi
and index sequence n; alpha = 1, c = 1 gives the generalised family with
index sequence n + 1 and first moment (beta - x) / (n + 1).  The factorial
moments E[K (K-1) ... (K-i+1)] are n'(n'-1)...(n'-i+1) x^i, (n' x)^i and
n'(n'+1)...(n'+i-1) x^i; raw moments follow through Stirling numbers of the
second kind.

Float references use ``decimal`` at ``PREC_DIGITS`` significant digits,
far beyond the 256-bit default of the package, so the oracle's own rounding
is negligible against any tolerance the package is asked for.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

SHAPES = ("bernstein", "szasz", "baskakov", "gauss_weierstrass")
PHI = {
    "bernstein": (Fraction(0), Fraction(1), Fraction(-1)),
    "szasz": (Fraction(0), Fraction(1)),
    "baskakov": (Fraction(0), Fraction(1), Fraction(1)),
    "gauss_weierstrass": (Fraction(1),),
}

PREC_DIGITS = 110
ORACLE_SLACK = Fraction(1, 10**90)
PRINT_REL = Fraction(1, 10**23)


# --- polynomials: ascending coefficient lists over Fraction ---------------


def p_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def p_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return p_trim(out)


def p_scale(p, k):
    return p_trim([c * k for c in p])


def p_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return p_trim(out)


def p_pow(p, k):
    out = [Fraction(1)]
    for _ in range(k):
        out = p_mul(out, p)
    return out


def p_deriv(p, k=1):
    for _ in range(k):
        p = [i * c for i, c in enumerate(p)][1:]
    return p_trim(p)


def p_eval(p, x):
    total = Fraction(0)
    for c in reversed(p):
        total = total * x + c
    return total


# --- exact moments ----------------------------------------------------------


@lru_cache(maxsize=None)
def stirling2(j, i):
    """Stirling number of the second kind S(j, i)."""
    if j == i:
        return 1
    if i == 0 or i > j:
        return 0
    return i * stirling2(j - 1, i) + stirling2(j - 1, i - 1)


def double_factorial_odd(j):
    """(j - 1)!! for even j >= 0: the j-th moment of a standard normal."""
    return math.prod(range(j - 1, 0, -2))


def _factorial_poly(shape, i):
    """E[(K)_i] / x^i as a polynomial in N = n'."""
    out = [Fraction(1)]
    for k in range(i):
        if shape == "bernstein":
            factor = [Fraction(-k), Fraction(1)]
        elif shape == "szasz":
            factor = [Fraction(0), Fraction(1)]
        else:
            factor = [Fraction(k), Fraction(1)]
        out = p_mul(out, factor)
    return out


def _shifted_power_in_N(shape, s, x, gamma):
    """E[(K - N x + gamma)^s] as a polynomial in N, for fixed x."""
    if shape == "gauss_weierstrass":
        out = []
        for j in range(0, s + 1, 2):
            mono = [Fraction(0)] * (j // 2) + [Fraction(1)]
            weight = math.comb(s, j) * double_factorial_odd(j) * gamma ** (s - j)
            out = p_add(out, p_scale(mono, weight))
        return out
    out = []
    for l in range(s + 1):
        raw = []
        for i in range(l + 1):
            raw = p_add(raw, p_scale(_factorial_poly(shape, i), stirling2(l, i) * x**i))
        shift = p_pow([Fraction(gamma), -Fraction(x)], s - l)
        out = p_add(out, p_scale(p_mul(raw, shift), math.comb(s, l)))
    return out


def central_moment(shape, s, n, x, c=1, alpha=0, beta=0):
    """E[(t - x)^s] exactly, at rational (n, x)."""
    n, x, c = Fraction(n), Fraction(x), Fraction(c)
    N = n / c
    gamma = Fraction(beta) - alpha * x
    return p_eval(_shifted_power_in_N(shape, s, x, gamma), N) / (N + alpha) ** s


def central_moment_expansion(shape, s, x, J, c=1, alpha=0, beta=0):
    """Values at x of g_j in mu_s = sum_j g_j n^{-j}, for j = 0..J.

    With v = 1/n' = c/n: mu_s = sum_k p_k v^{s-k} (1 + alpha v)^{-s}, where
    p_k are the coefficients of E[(K - N x + gamma)^s] in N."""
    x, c = Fraction(x), Fraction(c)
    gamma = Fraction(beta) - alpha * x
    p = _shifted_power_in_N(shape, s, x, gamma)
    out = []
    for j in range(J + 1):
        total = Fraction(0)
        for m in range(j + 1):
            k = s - j + m
            if 0 <= k < len(p):
                binom = math.comb(s + m - 1, m) if m else 1
                total += p[k] * binom * Fraction(-alpha) ** m
        out.append(total * c**j)
    return out


def _raw_k_poly_x(shape, l, N):
    """E[K^l] as a polynomial in x, at fixed N."""
    out = [Fraction(0)] * (l + 1)
    if shape == "gauss_weierstrass":
        for j in range(0, l + 1, 2):
            out[l - j] += math.comb(l, j) * double_factorial_odd(j) * N ** (j // 2) * N ** (l - j)
        return p_trim(out)
    for i in range(l + 1):
        out[i] += stirling2(l, i) * p_eval(_factorial_poly(shape, i), N)
    return p_trim(out)


def raw_moment_poly(shape, m, n, c=1, alpha=0, beta=0):
    """E[t^m] as a polynomial in x, at fixed rational n."""
    N = Fraction(n) / Fraction(c)
    beta = Fraction(beta)
    out = []
    for l in range(m + 1):
        out = p_add(out, p_scale(_raw_k_poly_x(shape, l, N), math.comb(m, l) * beta ** (m - l)))
    return p_scale(out, 1 / (N + alpha) ** m)


def central_moment_poly(shape, s, n, c=1, alpha=0, beta=0):
    """mu_s(n, x) as a polynomial in x, at fixed rational n."""
    out = []
    for j in range(s + 1):
        shift = p_pow([Fraction(0), Fraction(-1)], s - j)
        raw = raw_moment_poly(shape, j, n, c, alpha, beta)
        out = p_add(out, p_scale(p_mul(shift, raw), math.comb(s, j)))
    return out


def operator_poly(shape, f_coeffs, n):
    """(S_n f)(x) as a polynomial in x for polynomial f."""
    out = []
    for m, coeff in enumerate(f_coeffs):
        if coeff:
            out = p_add(out, p_scale(raw_moment_poly(shape, m, n), coeff))
    return out


def operator_exact(shape, f_coeffs, n, x, r):
    """(S_n f)^{(r)}(x) exactly for polynomial f."""
    return p_eval(p_deriv(operator_poly(shape, f_coeffs, n), r), Fraction(x))


def scaled_phi(shape, c=1):
    return p_scale(list(PHI[shape]), Fraction(c))


def leading_coefficient(s, phi):
    """Closed form of the shallowest expansion coefficient of mu_s:
    (2k)!/(2^k k!) phi^k for s = 2k, k (2k+1)!/(3 2^k k!) phi^k phi' for
    s = 2k + 1."""
    k, odd = divmod(s, 2)
    if not odd:
        return p_scale(p_pow(phi, k), Fraction(math.factorial(2 * k), 2**k * math.factorial(k)))
    weight = Fraction(k * math.factorial(2 * k + 1), 3 * 2**k * math.factorial(k))
    return p_scale(p_mul(p_pow(phi, k), p_deriv(phi)), weight)


def limit_exact(shape, f_coeffs, x, r):
    """(phi f'')^{(r)}(x) / 2 for polynomial f."""
    prod = p_mul(list(PHI[shape]), p_deriv(list(f_coeffs), 2))
    return p_eval(p_deriv(prod, r), Fraction(x)) / 2


# --- float references -------------------------------------------------------


def high_precision():
    """Decimal context for arithmetic on oracle floats."""
    return localcontext(Context(prec=PREC_DIGITS + 20))


def to_dec(q):
    q = Fraction(q)
    return Decimal(q.numerator) / Decimal(q.denominator)


def _sincos(theta):
    """(sin, cos) of a Decimal by halving to |theta| < 1/4, Taylor, then
    doubling back."""
    halvings = 0
    while abs(theta) > Decimal("0.25"):
        theta /= 2
        halvings += 1
    sin, cos = Decimal(0), Decimal(0)
    term = Decimal(1)
    eps = Decimal(10) ** (-(PREC_DIGITS + 25))
    k = 0
    while True:
        if k % 2 == 0:
            cos += term if k % 4 == 0 else -term
        else:
            sin += term if k % 4 == 1 else -term
        k += 1
        term = term * theta / k
        if abs(term) < eps:
            break
    for _ in range(halvings):
        sin, cos = 2 * sin * cos, cos * cos - sin * sin
    return sin, cos


class Cx:
    """Complex number over Decimal, just enough for the closed forms."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=Decimal(0)):
        self.re, self.im = Decimal(re), Decimal(im)

    def __add__(self, o):
        o = _cx(o)
        return Cx(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, o):
        o = _cx(o)
        return Cx(self.re - o.re, self.im - o.im)

    def __rsub__(self, o):
        return _cx(o) - self

    def __mul__(self, o):
        o = _cx(o)
        return Cx(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = _cx(o)
        den = o.re * o.re + o.im * o.im
        return Cx((self.re * o.re + self.im * o.im) / den, (self.im * o.re - self.re * o.im) / den)

    def __pow__(self, k):
        if k < 0:
            return Cx(1) / (self**-k)
        out, base = Cx(1), self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def exp(self):
        sin, cos = _sincos(self.im)
        mag = self.re.exp()
        return Cx(mag * cos, mag * sin)


def _cx(v):
    if isinstance(v, Cx):
        return v
    if isinstance(v, Fraction):
        return Cx(to_dec(v))
    return Cx(v)


class ExpInput:
    """f(t) = Re or Im of e^{i b} e^{z t}: exp:a is z = a, b = 0 (real part);
    sin:a,b is z = i a (imaginary part)."""

    def __init__(self, kind, a, b=Fraction(0)):
        self.kind, self.a, self.b = kind, Fraction(a), Fraction(b)

    @property
    def spec(self):
        if self.kind == "exp":
            return f"exp:{rat_text(self.a)}"
        return f"sin:{rat_text(self.a)},{rat_text(self.b)}"

    def _rate(self):
        a = to_dec(self.a)
        return Cx(a) if self.kind == "exp" else Cx(0, a)

    def _part(self, value):
        if self.kind == "exp":
            return value.re
        return (value * Cx(0, to_dec(self.b)).exp()).im

    def deriv(self, x, k):
        with high_precision():
            z = self._rate()
            return +self._part(z**k * (z * _cx(Fraction(x))).exp())

    def operator(self, shape, n, x, r):
        """(S_n f)^{(r)}(x) from the closed form of S_n e^{z t}."""
        with high_precision():
            z = self._rate()
            x = _cx(Fraction(x))
            if shape == "gauss_weierstrass":
                value = z**r * (z * x + z * z / (2 * n)).exp()
                return +self._part(value)
            E = (z / n).exp()
            if shape == "bernstein":
                value = math.perm(n, r) * (E - 1) ** r * (1 - x + x * E) ** (n - r)
            elif shape == "szasz":
                value = (n * (E - 1)) ** r * (n * x * (E - 1)).exp()
            else:
                rising = math.prod(range(n, n + r))
                value = rising * (E - 1) ** r * (1 + x - x * E) ** (-(n + r))
            return +self._part(value)

    def limit(self, shape, x, r):
        """(phi f'')^{(r)}(x) / 2."""
        with high_precision():
            phi = list(PHI[shape])
            total = Decimal(0)
            for i in range(min(r, 2) + 1):
                weight = math.comb(r, i) * p_eval(p_deriv(phi, i), Fraction(x)) / 2
                if weight:
                    total += to_dec(weight) * self.deriv(x, 2 + r - i)
            return +total

    def prediction(self, shape, n, x, q, r):
        """The order-q derivative expansion at (n, x):
        sum_{s<=2q} sum_i C(r,i) (d/dx)^i mu_s(x) f^{(s+r-i)}(x) / s!."""
        with high_precision():
            total = Decimal(0)
            for s in range(2 * q + 1):
                mu = central_moment_poly(shape, s, n)
                for i in range(r + 1):
                    weight = math.comb(r, i) * p_eval(p_deriv(mu, i), Fraction(x)) / math.factorial(s)
                    if weight:
                        total += to_dec(weight) * self.deriv(x, s + r - i)
            return +total


def rat_text(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# --- study references -----------------------------------------------------


def log_slope(grid, magnitudes):
    """Least-squares slope of log|value| against log n."""
    xs = [math.log(n) for n in grid]
    ys = [float(Decimal(m).ln()) for m in magnitudes]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((a - mx) ** 2 for a in xs)
    return sum((a - mx) * (b - my) for a, b in zip(xs, ys)) / sxx


def defect_sequence_passes(defects):
    """Whether |d_n| falls at every doubling with every ratio in
    [0.42, 0.58]: the voronovskaja pass rule (decreasing, upper-half ratios
    in [0.35, 0.65]) with margin."""
    with high_precision():
        mags = [abs(to_dec(d)) if isinstance(d, Fraction) else abs(d) for d in defects]
        if any(m == 0 for m in mags):
            return False
        ratios = [b / a for a, b in zip(mags, mags[1:])]
        return all(Decimal("0.42") <= t <= Decimal("0.58") for t in ratios)


def study_reference(shape, study, fin, x, q, r, grid):
    """Expected (values, predictions, residuals, tolerance multiples) of a
    residual or voronovskaja study of the ExpInput fin, or None when the
    study's pass rule would not hold with margin at this input: residual
    slopes must reach -(q + 0.9) against the rule's -(q + 0.75)."""
    with high_precision():
        ops = [fin.operator(shape, n, x, r) for n in grid]
        if study == "residual":
            preds = [fin.prediction(shape, n, x, q, r) for n in grid]
            residuals = [a - b for a, b in zip(ops, preds)]
            if any(abs(v) < Decimal(10) ** -20 for v in residuals):
                return None
            if log_slope(grid, [abs(v) for v in residuals]) > -(q + 0.9):
                return None
            return ops, preds, residuals, [(1, 1, 2)] * len(grid)
        target = fin.deriv(x, r)
        limit = fin.limit(shape, x, r)
        scaled = [n * (v - target) for n, v in zip(grid, ops)]
        residuals = [v - limit for v in scaled]
        if not defect_sequence_passes(residuals):
            return None
        return scaled, [limit] * len(grid), residuals, [(n, 1, n + 1) for n in grid]


# --- comparisons --------------------------------------------------------------


def as_fraction(value):
    """Exact rational value of a package output: int, Fraction, mpmath mpf,
    Decimal, or the package's printed form ("p/q" or a decimal string)."""
    if isinstance(value, (int, Fraction, Decimal)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value) if "/" in value else Fraction(Decimal(value))
    raw = getattr(value, "_mpf_", None)  # mpmath: (sign, mantissa, exponent, bits)
    if raw is None or (raw[1] == 0 and raw[2] != 0):
        raise TypeError(f"cannot read {value!r} exactly")
    sign, man, exp, _bits = raw
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def float_bound(tol, ref, scale=1):
    """Allowed distance from an oracle float: the package's tolerance times
    scale, plus the oracle's own rounding."""
    return Fraction(tol) * scale + ORACLE_SLACK * (1 + abs(as_fraction(ref)))


def printed_bound(tol, ref, scale=1):
    """float_bound plus the rounding of a 24-significant-digit rendering."""
    return float_bound(tol, ref, scale) + PRINT_REL * abs(as_fraction(ref))


def within(value, ref, bound):
    return abs(as_fraction(value) - as_fraction(ref)) <= bound


def exact_equal(value, ref):
    """An exact output (int, Fraction, or printed "p/q") equal to ref."""
    if isinstance(value, str):
        if any(ch in value for ch in ".eE"):
            return False
        value = Fraction(value)
    return isinstance(value, (int, Fraction)) and Fraction(value) == Fraction(ref)


def entry_problems(columns, grid, ref, tol, bound, label):
    """Compare (values, predictions, residuals) of a study with the oracle
    reference from study_reference.  Float entries may sit within their
    multiple of tol (via ``bound``); exact (Fraction) entries must match
    exactly."""
    problems = []
    names = ("value", "prediction", "residual")
    for column, (name, have_all, want_all) in enumerate(zip(names, columns, ref[:3])):
        if len(have_all) != len(want_all):
            problems.append(f"{label}: {len(have_all)} {name}s, expected {len(want_all)}")
            continue
        for i, (have, want) in enumerate(zip(have_all, want_all)):
            if isinstance(want, Fraction):
                ok = exact_equal(have, want)
            else:
                ok = within(have, want, bound(tol, want, ref[3][i][column]))
            if not ok:
                problems.append(f"{label}: {name} at n = {grid[i]} is {have}, oracle {want}")
    return problems
