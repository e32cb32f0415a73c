"""Lifted linear equations for powers of second-order ODE solutions.

Given y'' = p(x) y' + q(x) y, every product f^i g^j of two solutions with
i + j = m satisfies one monic linear equation of order m+1 whose
coefficients are universal polynomials in p, q and their derivatives.
This package derives that equation exactly, checks it against bundled
reference tables, and validates it numerically along integrated
trajectories.
"""

from .diffring import (
    STYLES,
    DiffPoly,
    DiffSymbol,
    MissingSymbolError,
    Monomial,
    P,
    PolyParseError,
    Q,
    format_poly,
    parse_poly,
)
from .exprparse import (
    Expr,
    ExprDomainError,
    ExprSyntaxError,
    eval_expr,
    format_expr,
    parse_expr,
)
from .lifting import (
    FIXTURE_ORDERS,
    CoefficientCheck,
    FixtureFormatError,
    FixtureReport,
    LiftedODE,
    check_against_fixture,
    derive_lifted_ode,
    load_fixture,
)
from .verify import (
    BasisReport,
    ConfigError,
    MonomialResidual,
    NumericConfig,
    basis_check,
    fundamental_matrix,
    monomial_label,
    product_derivatives,
    symbol_values,
)

__version__ = "0.1.0"

__all__ = [
    "BasisReport",
    "CoefficientCheck",
    "ConfigError",
    "DiffPoly",
    "DiffSymbol",
    "Expr",
    "ExprDomainError",
    "ExprSyntaxError",
    "FIXTURE_ORDERS",
    "FixtureFormatError",
    "FixtureReport",
    "LiftedODE",
    "MissingSymbolError",
    "MonomialResidual",
    "Monomial",
    "NumericConfig",
    "P",
    "PolyParseError",
    "Q",
    "STYLES",
    "basis_check",
    "check_against_fixture",
    "derive_lifted_ode",
    "eval_expr",
    "format_expr",
    "format_poly",
    "fundamental_matrix",
    "load_fixture",
    "monomial_label",
    "parse_expr",
    "parse_poly",
    "product_derivatives",
    "symbol_values",
]
