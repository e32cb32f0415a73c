"""End-to-end gate: one test and one printed pass/fail line per claim.

Run with `pytest -s tests/test_acceptance.py` to see every line; under
plain pytest the prints surface only on failure.
"""

import contextlib
import io
import math
import shutil
from pathlib import Path

from odelift.cli import main
from odelift.diffring import DiffPoly
from odelift.exprparse import parse_expr
from odelift.lifting import (
    FIXTURE_ORDERS,
    LiftedODE,
    check_against_fixture,
    derive_lifted_ode,
    load_fixture,
)
from odelift.verify import (
    RESIDUAL_TOL,
    WRONSKIAN_TOL,
    NumericConfig,
    basis_check,
    fundamental_matrix,
)
from oracles import derivative_tower, falling_factorial

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "src" / "odelift" / "fixtures"

COEFFICIENT_PAIRS = (
    ("0", "-1"),
    ("sin(x)", "x"),
    ("1/(x+2)", "exp(-x)"),
    ("x^2", "ln(x+2)"),
)


def _report(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_fixture_tables():
    ok = all(
        check_against_fixture(m, load_fixture(m)).passed for m in FIXTURE_ORDERS
    )
    _report(1, "exact reproduction of the bundled coefficient tables", ok)


def test_criterion_2_triangular_tower():
    ok = True
    for m in range(1, 11):
        for k, vec in enumerate(derivative_tower(m)):
            ok = ok and all(vec.coords[j].is_zero() for j in range(k + 1, m + 1))
            if k <= m:
                ok = ok and vec.coords[k] == DiffPoly.const(falling_factorial(m, k))
    _report(2, "triangular tower with falling-factorial diagonal", ok)


def test_criterion_3_order_bound_and_integrality():
    ok = True
    for m in range(2, 9):
        ode = derive_lifted_ode(m)
        ok = ok and max(c.max_order() for c in ode.coeffs) <= m - 1
        ok = ok and all(
            coeff.denominator == 1 for c in ode.coeffs for coeff in c.terms.values()
        )
    _report(3, "derivative-order bound and integer coefficients", ok)


def test_criterion_4_sixteen_numerical_suites():
    cfg = NumericConfig(interval=(0.0, 1.0), step=1e-3)
    # the thresholds the criterion is judged by are fixed in odelift.verify
    ok = RESIDUAL_TOL == 1024.0 and WRONSKIAN_TOL == 1e-8
    for m in (2, 3, 4, 5):
        ode = derive_lifted_ode(m)
        for p_text, q_text in COEFFICIENT_PAIRS:
            report = basis_check(ode, parse_expr(p_text), parse_expr(q_text), cfg)
            ok = ok and report.passed
    _report(4, "residuals and Wronskians across 16 suites", ok)


def test_criterion_5_falsification_control(tmp_path):
    # On p = 0, q = -1 the order-zero coefficient of the m=2 equation
    # evaluates to zero, so flipping its sign cannot move the residual
    # (test_verify pins that down).  The probe flips c_1, the lowest
    # coefficient that participates on this suite.
    ode = derive_lifted_ode(2)
    flipped = LiftedODE(2, (ode.coeffs[0], -ode.coeffs[1], ode.coeffs[2]))
    report = basis_check(
        flipped,
        parse_expr("0"),
        parse_expr("-1"),
        NumericConfig(interval=(0.0, 1.0), step=1e-3),
    )
    residual_detected = max(r.max_residual for r in report.residuals) > 1e-2

    for src in FIXTURE_DIR.glob("order_m*.txt"):
        shutil.copy(src, tmp_path / src.name)
    path = tmp_path / "order_m2.txt"
    lines = path.read_text().splitlines()
    lines[0] = f"-({lines[0]})"
    path.write_text("\n".join(lines) + "\n")
    with contextlib.redirect_stdout(io.StringIO()):
        exit_code = main(["check-paper", "--all", "--fixtures", str(tmp_path)])
    table_detected = exit_code == 1

    _report(5, "corrupted coefficients and tables are detected",
            residual_detected and table_detected)


def test_criterion_6_integrator_convergence_order():
    zero, minus_one = parse_expr("0"), parse_expr("-1")
    errors = []
    for step in (0.05, 0.025):
        cfg = NumericConfig(interval=(0.0, 1.0), step=step)
        _, phi = fundamental_matrix(zero, minus_one, cfg)
        errors.append(abs(float(phi[0, -1]) - math.cos(1.0)))  # f from (1, 0) is phi00
    ratio = errors[0] / errors[1]
    _report(6, "fourth-order integrator convergence", 12.0 <= ratio <= 20.0)


def test_criterion_7_basis_verdict_at_high_order():
    # The verdict must not depend on m: genuine bases pass and dependent
    # initial conditions (g = f/4) fail at every order.
    genuine = NumericConfig(interval=(0.0, 1.0), step=1e-3)
    dependent = NumericConfig(
        interval=(0.0, 1.0), step=1e-3, ic_f=(1.5, 0.25), ic_g=(0.375, 0.0625)
    )
    ok = True
    for m in range(6, 11):
        ode = derive_lifted_ode(m)
        for p_text, q_text in COEFFICIENT_PAIRS:
            p, q = parse_expr(p_text), parse_expr(q_text)
            ok = ok and basis_check(ode, p, q, genuine).passed
            ok = ok and not basis_check(ode, p, q, dependent).passed
    _report(7, "basis verdicts for m = 6..10 on four suites", ok)
