"""Exact asymptotic expansions for exponential-type approximation operators.

Symbolic layer: central moments mu_{n,s}(x) as polynomials in x with
rational-function-of-n coefficients, their 1/n expansions, and the
derivative expansions of (S_n f)^{(r)}(x).  Numeric layer: direct
arbitrary-precision evaluators for the Bernstein, Szasz-Mirakyan,
Baskakov, and Gauss-Weierstrass families, plus a verification harness
that measures convergence orders and identity defects.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it; each is imported on first use
# (PEP 562), so importing one module of the package loads only what that
# module needs
_SOURCES = {
    "AllResidualsZero": "verify",
    "BASKAKOV": "families",
    "BERNSTEIN": "families",
    "ConvergenceReport": "verify",
    "DEFAULT_PRECISION_BITS": "numeric",
    "DEFAULT_TOL": "numeric",
    "DenominatorZero": "exactalg",
    "DerivativeOrderExceedsDegree": "operators",
    "ExpansionCoefficient": "expansion",
    "ExpansionTerm": "expansion",
    "FAMILIES": "families",
    "GAUSS_WEIERSTRASS": "families",
    "GridNotDyadic": "verify",
    "GrowthBoundViolated": "operators",
    "Interval": "families",
    "LaurentSeries": "exactalg",
    "MomentPoly": "exactalg",
    "MomentTable": "moments",
    "NotPureExponentialIndex": "expansion",
    "OperatorFamily": "families",
    "OrderTooLarge": "moments",
    "PhiVanishes": "verify",
    "Poly": "exactalg",
    "PrecisionTooLow": "operators",
    "QuadratureNotConverged": "operators",
    "Rat": "exactalg",
    "RatFuncN": "exactalg",
    "SZASZ": "families",
    "SmoothFunction": "functions",
    "ZeroMoment": "moments",
    "central_moment_direct": "operators",
    "central_moments": "moments",
    "complete_coeffs": "expansion",
    "derivative_terms": "expansion",
    "evaluate_derivative_expansion": "expansion",
    "fit_order": "verify",
    "format_rat": "exactalg",
    "get_family": "families",
    "laurent_at_infinity": "exactalg",
    "leading_term_closed_form": "moments",
    "make_family": "families",
    "moment_expansion": "moments",
    "ode_identity_check": "verify",
    "operator_eval": "operators",
    "parse_function": "functions",
    "psi_m_derivative_identity_check": "verify",
    "residual_study": "verify",
    "richardson": "verify",
    "truncated_sum": "expansion",
    "vanishing_order": "moments",
    "voronovskaja_limit": "expansion",
    "voronovskaja_study": "verify",
}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value
