"""Lifted linear equations for powers of second-order ODE solutions.

Given y'' = p(x) y' + q(x) y, every product f^i g^j of two solutions with
i + j = m satisfies one monic linear equation of order m+1 whose
coefficients are universal polynomials in p, q and their derivatives.
This package derives that equation exactly, checks it against bundled
reference tables, and validates it numerically along integrated
trajectories.
"""

from importlib import import_module

#: The submodule that defines each public name.  A name is read from its
#: submodule on first use, and a submodule read as an attribute is imported
#: then (PEP 562), so `import odelift` imports no submodule and each command
#: only the ones it runs.
_DEFINED_IN = {
    name: module
    for module, names in {
        "diffring": "STYLES DiffPoly DiffSymbol MissingSymbolError Monomial P "
                    "PolyParseError Q format_poly parse_poly",
        "exprparse": "Expr ExprDomainError ExprSyntaxError eval_expr format_expr parse_expr",
        "lifting": "FIXTURE_ORDERS CoefficientCheck FixtureFormatError FixtureReport "
                   "LiftedODE check_against_fixture derive_lifted_ode load_fixture",
        "verify": "BasisReport ConfigError MonomialResidual NumericConfig basis_check "
                  "fundamental_matrix monomial_label symbol_values",
    }.items()
    for name in names.split()
}
_SUBMODULES = ("cli", "diffring", "exprparse", "lifting", "verify")

__version__ = "0.1.0"

__all__ = sorted(_DEFINED_IN)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _DEFINED_IN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_DEFINED_IN[name]}"), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *_DEFINED_IN, *_SUBMODULES})
