"""Exact asymptotic expansions for exponential-type approximation operators.

Symbolic layer: central moments mu_{n,s}(x) as polynomials in x with
rational-function-of-n coefficients, their 1/n expansions, and the
derivative expansions of (S_n f)^{(r)}(x).  Numeric layer: direct
arbitrary-precision evaluators for the Bernstein, Szasz-Mirakyan,
Baskakov, and Gauss-Weierstrass families, plus a verification harness
that measures convergence orders and identity defects.
"""

from .exactalg import (
    DenominatorZero,
    LaurentSeries,
    MomentPoly,
    Poly,
    Rat,
    RatFuncN,
    format_rat,
    laurent_at_infinity,
)
from .expansion import (
    ExpansionCoefficient,
    ExpansionTerm,
    NotPureExponentialIndex,
    complete_coeffs,
    derivative_terms,
    evaluate_derivative_expansion,
    truncated_sum,
    voronovskaja_limit,
)
from .functions import SmoothFunction, parse_function
from .moments import (
    MomentTable,
    OrderTooLarge,
    ZeroMoment,
    central_moments,
    leading_term_closed_form,
    moment_expansion,
    vanishing_order,
)
from .numeric import DEFAULT_PRECISION_BITS
from .operators import (
    BASKAKOV,
    BERNSTEIN,
    DEFAULT_TOL,
    FAMILIES,
    GAUSS_WEIERSTRASS,
    SZASZ,
    DerivativeOrderExceedsDegree,
    GrowthBoundViolated,
    Interval,
    OperatorFamily,
    PrecisionTooLow,
    QuadratureNotConverged,
    central_moment_direct,
    get_family,
    make_family,
    operator_eval,
)
from .verify import (
    AllResidualsZero,
    ConvergenceReport,
    GridNotDyadic,
    PhiVanishes,
    fit_order,
    ode_identity_check,
    psi_m_derivative_identity_check,
    residual_study,
    richardson,
    voronovskaja_study,
)

__version__ = "0.1.0"

__all__ = [
    "AllResidualsZero",
    "BASKAKOV",
    "BERNSTEIN",
    "ConvergenceReport",
    "DEFAULT_PRECISION_BITS",
    "DEFAULT_TOL",
    "DenominatorZero",
    "DerivativeOrderExceedsDegree",
    "ExpansionCoefficient",
    "ExpansionTerm",
    "FAMILIES",
    "GAUSS_WEIERSTRASS",
    "GridNotDyadic",
    "GrowthBoundViolated",
    "Interval",
    "LaurentSeries",
    "MomentPoly",
    "MomentTable",
    "NotPureExponentialIndex",
    "OperatorFamily",
    "OrderTooLarge",
    "PhiVanishes",
    "Poly",
    "PrecisionTooLow",
    "QuadratureNotConverged",
    "Rat",
    "RatFuncN",
    "SZASZ",
    "SmoothFunction",
    "ZeroMoment",
    "central_moment_direct",
    "central_moments",
    "complete_coeffs",
    "derivative_terms",
    "evaluate_derivative_expansion",
    "fit_order",
    "format_rat",
    "get_family",
    "laurent_at_infinity",
    "leading_term_closed_form",
    "make_family",
    "moment_expansion",
    "ode_identity_check",
    "operator_eval",
    "parse_function",
    "psi_m_derivative_identity_check",
    "residual_study",
    "richardson",
    "truncated_sum",
    "vanishing_order",
    "voronovskaja_limit",
    "voronovskaja_study",
]
