"""Operator family descriptors.

A family is the data both sides of the package read: the interval, the
characteristic polynomial phi (degree at most two, zero-free inside the
interval), the index sequence lambda_n, the first moment mu1 and the name
of its direct rule.  The symbolic side (moments, expansion) builds its
tables from these fields; operators dispatches on the evaluator name.
This module imports only the exact kernel, so neither side loads the
other's code through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactalg import MomentPoly, Poly, Rat, RatFuncN, _as_rat, format_rat


@dataclass(frozen=True)
class Interval:
    """Rational-endpoint interval; None means the side is infinite."""

    lower: Rat | None
    upper: Rat | None
    lower_closed: bool = True
    upper_closed: bool = True

    def contains(self, x: Rat) -> bool:
        if self.lower is not None:
            if x < self.lower or (x == self.lower and not self.lower_closed):
                return False
        if self.upper is not None:
            if x > self.upper or (x == self.upper and not self.upper_closed):
                return False
        return True

    def is_interior(self, x: Rat) -> bool:
        if self.lower is not None and x <= self.lower:
            return False
        if self.upper is not None and x >= self.upper:
            return False
        return True

    def text(self) -> str:
        left = "(-oo" if self.lower is None else ("[" if self.lower_closed else "(") + format_rat(self.lower)
        right = "oo)" if self.upper is None else format_rat(self.upper) + ("]" if self.upper_closed else ")")
        return f"{left}, {right}"


def _sign(v: Rat) -> int:
    return (v > 0) - (v < 0)


def _sign_affine_sqrt(p: Rat, q: Rat, disc: Rat) -> int:
    """Sign of p + q*sqrt(disc) for disc > 0, exactly."""
    if q == 0:
        return _sign(p)
    if p == 0:
        return _sign(q)
    if _sign(p) == _sign(q):
        return _sign(p)
    lhs, rhs = p * p, q * q * disc
    if lhs == rhs:
        return 0
    return _sign(p) if lhs > rhs else _sign(q)


def _phi_has_root_in_open(phi: Poly, interval: Interval) -> bool:
    """Exact root location for deg <= 2 over the open interval."""

    def inside(root: Rat) -> bool:
        if interval.lower is not None and root <= interval.lower:
            return False
        if interval.upper is not None and root >= interval.upper:
            return False
        return True

    if phi.degree <= 0:
        return False
    if phi.degree == 1:
        return inside(-phi.coeff(0) / phi.coeff(1))
    a, b, c = phi.coeff(2), phi.coeff(1), phi.coeff(0)
    disc = b * b - 4 * a * c
    if disc < 0:
        return False
    if disc == 0:
        return inside(-b / (2 * a))
    for sigma in (1, -1):
        ok = True
        if interval.lower is not None:
            # sign of root - lower = sign((-b - 2a*lower) + sigma*sqrt(disc)) * sign(a)
            if _sign_affine_sqrt(-b - 2 * a * interval.lower, Fraction(sigma), disc) * _sign(a) <= 0:
                ok = False
        if ok and interval.upper is not None:
            if _sign_affine_sqrt(-b - 2 * a * interval.upper, Fraction(sigma), disc) * _sign(a) >= 0:
                ok = False
        if ok:
            return True
    return False


@dataclass(frozen=True, eq=False)
class OperatorFamily:
    """Descriptor of one positive linear operator family.

    lambda_n is the index sequence of the defining derivative identity
    (S_n f)'(x) = (lambda_n/phi(x)) ((S_n(psi_x f))(x) - mu1(x)(S_n f)(x));
    the built-ins all have lambda_n = n and mu1 = 0.  evaluator names the
    direct rule operator_eval calls, or is None for purely symbolic
    families."""

    id: str
    interval: Interval
    phi: Poly
    lambda_n: RatFuncN
    mu1: MomentPoly
    evaluator: str | None

    @property
    def is_pure_exponential(self) -> bool:
        return self.lambda_n == RatFuncN.index() and self.mu1.is_zero

    def require_point(self, x: Rat, interior: bool = False) -> None:
        x = _as_rat(x)
        if interior:
            if not self.interval.is_interior(x):
                raise ValueError(
                    f"x = {format_rat(x)} is not interior to {self.interval.text()}"
                )
        elif not self.interval.contains(x):
            raise ValueError(
                f"x = {format_rat(x)} outside {self.interval.text()}"
            )


_EVALUATOR_NAMES = frozenset({"bernstein", "szasz", "baskakov", "gauss"})


def make_family(
    family_id: str,
    interval: Interval,
    phi: Poly,
    lambda_n: RatFuncN | None = None,
    mu1: MomentPoly | None = None,
    evaluator: str | None = None,
) -> OperatorFamily:
    """Validated constructor: phi quadratic at most and zero-free on the
    open interval; lambda_n ~ alpha*n with alpha > 0."""
    if phi.is_zero:
        raise ValueError("characteristic polynomial must be nonzero")
    if phi.degree > 2:
        raise ValueError("characteristic polynomial degree above 2 unsupported")
    if (
        interval.lower is not None
        and interval.upper is not None
        and interval.lower >= interval.upper
    ):
        raise ValueError("empty interval")
    if _phi_has_root_in_open(phi, interval):
        raise ValueError("characteristic polynomial vanishes inside the interval")
    lambda_n = RatFuncN.index() if lambda_n is None else lambda_n
    if lambda_n.is_zero or lambda_n.order_at_infinity != -1:
        raise ValueError("index sequence must grow like a positive multiple of n")
    alpha = lambda_n.num.lead / lambda_n.den.lead
    if alpha <= 0:
        raise ValueError("index sequence must grow like a positive multiple of n")
    mu1 = MomentPoly() if mu1 is None else mu1
    if evaluator is not None and evaluator not in _EVALUATOR_NAMES:
        raise ValueError(f"unknown evaluator {evaluator!r}")
    return OperatorFamily(family_id, interval, phi, lambda_n, mu1, evaluator)


BERNSTEIN = make_family(
    "bernstein",
    Interval(Fraction(0), Fraction(1)),
    Poly((Fraction(0), Fraction(1), Fraction(-1))),
    evaluator="bernstein",
)

SZASZ = make_family(
    "szasz",
    Interval(Fraction(0), None),
    Poly((Fraction(0), Fraction(1))),
    evaluator="szasz",
)

BASKAKOV = make_family(
    "baskakov",
    Interval(Fraction(0), None),
    Poly((Fraction(0), Fraction(1), Fraction(1))),
    evaluator="baskakov",
)

GAUSS_WEIERSTRASS = make_family(
    "gauss_weierstrass",
    Interval(None, None),
    Poly((Fraction(1),)),
    evaluator="gauss",
)

FAMILIES: dict[str, OperatorFamily] = {
    fam.id: fam
    for fam in (BERNSTEIN, SZASZ, BASKAKOV, GAUSS_WEIERSTRASS)
}


def get_family(family_id: str) -> OperatorFamily:
    try:
        return FAMILIES[family_id]
    except KeyError:
        known = ", ".join(sorted(FAMILIES))
        raise ValueError(f"unknown family {family_id!r} (known: {known})") from None
