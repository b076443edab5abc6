"""The package's public names, which expasym.__getattr__ imports on first
use from the module that defines each."""

import ast
import importlib
import inspect

import pytest

import expasym

# expasym.__all__: every public name, each defined in the module _SOURCES names
PUBLIC = (
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
)


def test_every_public_name_resolves_to_its_defining_module():
    assert sorted(expasym.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        module = importlib.import_module(f"expasym.{expasym._SOURCES[name]}")
        assert getattr(expasym, name) is getattr(module, name), name
        # defined there, not imported from elsewhere
        tree = ast.parse(inspect.getsource(module))
        imported = {
            alias.asname or alias.name
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        assert name not in imported, (name, module.__name__)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from expasym import *", namespace)
    assert set(PUBLIC) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        expasym.no_such_name
