"""Closed-form anchors at every m: Euler's equation and constant coefficients.

y'' = (a/x) y' + (b/x^2) y with a = r1 + r2 - 1 and b = -r1 r2 has the
basis x^r1, x^r2, and its lifted equation is an Euler operator with
c_k = e_k x^(k-m-1) (tests/oracles.py states the algebra).  Constant
p = r1 + r2 and q = -r1 r2 lift to prod_j (d - lam_j).  These pin the
derived coefficients, the recurrence rows `verify` reads, the integrator
and the CLI against formulas that hold at any m.  The Euler pair stays out
of the acceptance suites of criteria 4 and 7, which keep their four pairs.
"""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from odelift import verify
from odelift.cli import main
from odelift.diffring import DiffPoly
from odelift.exprparse import parse_expr
from odelift.lifting import derive_lifted_ode
from odelift.verify import NumericConfig, fundamental_matrix, product_derivatives, symbol_values
from oracles import (
    constant_coefficients,
    constant_symbol_values,
    euler_coefficients,
    euler_product_block,
    euler_symbol_values,
    eval_exact,
)

#: (r1, r2, x): two exact points, one with rational roots of either sign
EULER_POINTS = ((3, Fraction(1, 2), 2), (Fraction(-2, 3), Fraction(5, 7), Fraction(3, 2)))

#: r1 = 3 and r2 = 1/2 in floats: f = x^3 from (1, 3) and g = x^(1/2) from (1, 1/2) at x = 1
EULER_P, EULER_Q = "2.5/x", "-1.5/x^2"


def euler_targets(m: int) -> list:
    """(symbol values, the c_k values e_k x^(k-m-1)) at each Euler point."""
    targets = []
    for r1, r2, x in EULER_POINTS:
        e = euler_coefficients(m, r1, r2)
        assert e[m + 1] == 1
        want = [e[k] * Fraction(x) ** (k - m - 1) for k in range(m + 1)]
        targets.append((euler_symbol_values(m, r1, r2, x), want))
    return targets


@pytest.mark.parametrize(
    "m", [*range(1, 17), pytest.param(24, marks=pytest.mark.large(seconds=120))]
)
def test_derived_coefficients_on_euler_equations_are_the_closed_form(m):
    coeffs = derive_lifted_ode(m).coeffs
    for values, want in euler_targets(m):
        assert [eval_exact(c, values) for c in coeffs] == want


@pytest.mark.parametrize("m", range(1, 17))
def test_derived_coefficients_at_constant_p_and_q_are_the_closed_form(m):
    coeffs = derive_lifted_ode(m).coeffs
    for r1, r2, _ in EULER_POINTS:
        want = constant_coefficients(m, r1, r2)
        assert want[m + 1] == 1
        values = constant_symbol_values(m, r1, r2)
        assert [eval_exact(c, values) for c in coeffs] == want[: m + 1]


def test_one_term_perturbations_miss_the_euler_closed_form():
    # +1 on one term's coefficient, for 5 seeded terms of each c_k (all of
    # them where c_k has fewer); one point alone can miss a change that
    # keeps the weighted sum, so either point may catch it
    changes = 0
    for m in (4, 8, 12):
        rng = random.Random(m)
        targets = euler_targets(m)
        for k, c in enumerate(derive_lifted_ode(m).coeffs):
            for mono in rng.sample(list(c.terms), min(5, len(c.terms))):
                bad = DiffPoly({**c.terms, mono: c.terms[mono] + 1})
                assert any(eval_exact(bad, values) != want[k] for values, want in targets), (
                    m, k, mono)
                changes += 1
    assert changes == 117


@pytest.mark.parametrize("m", [4, 12, 20, 28, 40, 60, 100])
def test_recurrence_rows_on_euler_equation_are_the_closed_form(m):
    # measured worst gap 1.4e-16 (m=4) to 8.0e-16 (m=60) of a row's largest
    # value; the bound is stated per row
    grid = np.linspace(1.0, 2.0, 11)
    syms = symbol_values(parse_expr(EULER_P), parse_expr(EULER_Q), m - 1, grid)
    rows = verify._recurrence_values(m, syms)
    e = euler_coefficients(m, 3, Fraction(1, 2))
    for k, row in enumerate(rows):
        want = float(e[k]) * grid ** (k - m - 1)
        gap = np.max(np.abs(row - want))
        assert gap <= 1e-14 * np.max(np.abs(want)), (k, gap)


@pytest.mark.parametrize(
    "m,a,b,points",
    [(m, 1.0, 2.0, 11) for m in (*range(1, 29), 40, 60)]
    + [(m, 0.25, 4.0, 16) for m in (4, 12, 28)],
)
def test_euler_product_block_is_within_its_majorant_of_the_closed_form(m, a, b, points):
    # f = x^3 and g = x^(1/2) from their exact slopes; column j is x^lam with
    # lam = 3(m-j) + j/2.  The majorant is the same block on absolute values
    # (running error analysis, Higham 2nd ed. 3.3).  Measured worst
    # |block - closed| / (u major): 2.2 at m=1, 7.4 at m=8, 22.8 at m=28 and
    # 47.9 at m=60, at most 0.79 (m+2) on both grids; the bound is 2 (m+2).
    # Against each product's largest exact derivative the same error reads
    # 8.1e-12 at m=8, 0.48 at m=20 and 3.7e7 at m=28: cancellation where the
    # closed form is 0, which no fixed per-m bound can tell from a fault.
    grid = np.linspace(a, b, points)
    f_pt, g_pt = (grid**3, 3.0 * grid**2), (np.sqrt(grid), 0.5 / np.sqrt(grid))
    syms = symbol_values(parse_expr(EULER_P), parse_expr(EULER_Q), m - 1, grid)
    block = product_derivatives(f_pt, g_pt, m, syms)
    major = product_derivatives(np.abs(f_pt), np.abs(g_pt), m, np.abs(syms))
    assert np.isfinite(major).all()
    gap = np.abs(block - euler_product_block(m, 3, Fraction(1, 2), grid))
    assert (gap <= 2 * (m + 2) * 2.0**-53 * major).all(), np.max(gap / major) / 2.0**-53


def test_fundamental_matrix_converges_to_the_euler_basis_at_fourth_order():
    # worst relative errors measured 2.6e-9, 1.6e-10, 1.0e-11 and 6.5e-13:
    # ratios 16.0, 16.0 and 15.8; criterion 6 bounds each ratio to [12, 20].
    # A Taylor step of order 4 is exact on a cubic, so f = x^3 is met to
    # rounding at every step (measured 6.8e-15 at most), at step 0.05 too
    p, q = parse_expr(EULER_P), parse_expr(EULER_Q)
    errors = []
    for step in (0.05, 1e-2, 5e-3, 2.5e-3, 1.25e-3):
        x, phi = fundamental_matrix(p, q, NumericConfig((1.0, 2.0), step))
        f, fp = phi[0] + 3.0 * phi[1], phi[2] + 3.0 * phi[3]  # from (1, 3)
        g, gp = phi[0] + 0.5 * phi[1], phi[2] + 0.5 * phi[3]  # from (1, 1/2)
        exact = ((f, x**3), (fp, 3.0 * x**2), (g, x**0.5), (gp, 0.5 * x**-0.5))
        for got, want in exact[:2]:
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13, step
        errors.append(max(np.max(np.abs(got - want) / np.abs(want)) for got, want in exact))
    ratios = [a / b for a, b in zip(errors[1:], errors[2:])]  # from step 1e-2
    assert all(12.0 <= r <= 20.0 for r in ratios), (errors, ratios)


@pytest.mark.parametrize("p_text,q_text", [("0", "-1"), ("3.5", "-1.5")])
@pytest.mark.parametrize("step", [0.05, 1e-2, 1e-3])
def test_fundamental_matrix_at_constant_coefficients_is_the_power_of_one_taylor_step(
    p_text, q_text, step
):
    # y' = A y with A = [[0, 1], [q, p]]: every step is T = sum_{j<=4} (hA)^j/j!,
    # RK4's step matrix, so Phi_k = T^k to rounding; measured at most 0.74 n u
    # of |T^k|'s largest entry after n steps
    cfg = NumericConfig((0.0, 1.0), step)
    x, phi = fundamental_matrix(parse_expr(p_text), parse_expr(q_text), cfg)
    ha = cfg.h * np.array([[0.0, 1.0], [float(q_text), float(p_text)]])
    step_matrix = sum(np.linalg.matrix_power(ha, j) / math.factorial(j) for j in range(5))
    power = np.eye(2)
    for k in range(len(x)):
        gap = np.max(np.abs(phi[:, k].reshape(2, 2) - power))
        assert gap <= 4 * cfg.steps * 2.0**-53 * np.max(np.abs(power)), (k, gap)
        power = step_matrix @ power


@pytest.mark.parametrize("m", [4, 12, 20, 28])
def test_verify_passes_the_euler_basis(m, capsys):
    argv = ["verify", "-m", str(m), "--p", EULER_P, f"--q={EULER_Q}", "--interval", "1", "2",
            "--ic-f", "1", "3", "--ic-g", "1", "0.5", "--json"]
    code = main(argv)
    assert code == 0 and json.loads(capsys.readouterr().out)["pass"] is True
