"""Integration, jet evaluation, residuals, and the basis report."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from odelift import verify
from odelift.diffring import DiffPoly, P, Q
from odelift.exprparse import ExprDomainError, diff_expr, eval_expr, parse_expr
from odelift.lifting import LiftedODE, derive_lifted_ode
from odelift.verify import (
    MAX_BLOCK_FLOATS,
    ConfigError,
    NumericConfig,
    Trajectory,
    basis_check,
    integrate_base,
    monomial_label,
    product_derivatives,
    residual,
    symbol_values,
)
from test_acceptance import COEFFICIENT_PAIRS
from test_exprparse import random_tree

ZERO = parse_expr("0")
ONE = parse_expr("1")
MINUS_ONE = parse_expr("-1")

# y'' = -y with these initial conditions integrates cos and sin
COS_CFG = NumericConfig(interval=(0.0, 1.0), step=1e-3)


def cos_suite(m, **kwargs):
    return basis_check(derive_lifted_ode(m), ZERO, MINUS_ONE, COS_CFG, **kwargs)


def block_at(f_pt, g_pt, m, p, q, x):
    """product_derivatives of f^(m-j) g^j at x, with the symbols it needs."""
    return product_derivatives(f_pt, g_pt, m, symbol_values(p, q, max(0, m - 1), x))


# -- configuration and trajectory containers -----------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        NumericConfig(interval=(1.0, 0.0), step=1e-3)
    with pytest.raises(ConfigError):
        NumericConfig(interval=(0.0, 1.0), step=-1e-3)
    with pytest.raises(ConfigError):
        NumericConfig(interval=(0.0, 1.0), step=float("nan"))
    with pytest.raises(ConfigError):
        NumericConfig(interval=(0.0, 1.0), step=0.2)
    with pytest.raises(ConfigError):
        NumericConfig(interval=(0.0, 1.0), step=1e-3, ic_f=(1.0, 0.0, 0.0))
    inf, nan = float("inf"), float("nan")
    with pytest.raises(ConfigError, match="finite"):
        NumericConfig(interval=(0.0, inf), step=1e-3)
    with pytest.raises(ConfigError, match="finite"):
        NumericConfig(interval=(-inf, 1.0), step=1e-3)
    with pytest.raises(ConfigError, match="finite"):
        NumericConfig(interval=(0.0, nan), step=1e-3)
    with pytest.raises(ConfigError, match="finite"):
        NumericConfig(interval=(0.0, 1.0), step=1e-3, ic_f=(inf, 0.0))
    with pytest.raises(ConfigError, match="finite"):
        NumericConfig(interval=(0.0, 1.0), step=1e-3, ic_g=(0.0, nan))
    with pytest.raises(ConfigError, match="too many points"):
        NumericConfig(interval=(0.0, 1e12), step=1e-300)
    with pytest.raises(ConfigError, match="too many points"):
        NumericConfig(interval=(-1e308, 1e308), step=1.0)
    for bad in (inf, nan, -1.0, 0.0):
        with pytest.raises(ConfigError, match="residual tolerance"):
            cos_suite(2, residual_tol=bad)
    for bad in (nan, 1.0, inf, 0.0, -1e-8):
        with pytest.raises(ConfigError, match="Wronskian tolerance"):
            cos_suite(2, wronskian_tol=bad)


def test_config_steps_and_independence():
    cfg = NumericConfig(interval=(0.0, 1.0), step=1e-3)
    assert cfg.steps == 1000
    assert cfg.ic_independent
    dependent = NumericConfig(
        interval=(0.0, 1.0), step=1e-3, ic_f=(1.0, 0.0), ic_g=(2.0, 0.0)
    )
    assert not dependent.ic_independent
    assert NumericConfig(interval=(0.0, 1.0), step=0.1).steps == 10


def test_trajectory_validation():
    grid = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        Trajectory(grid, np.zeros(10), np.zeros(11))
    with pytest.raises(ValueError):
        Trajectory([0.0], [1.0], [0.0])
    with pytest.raises(ValueError):
        Trajectory([0.0, 0.1, 0.3], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        Trajectory([1.0, 0.5, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
    traj = Trajectory(grid, np.ones(11), np.zeros(11))
    assert len(traj) == 11
    assert traj.point(3) == (pytest.approx(0.3), 1.0, 0.0)


@pytest.mark.parametrize("interval,step", [((0.0, 1.0), 1e-4), ((10.0, 11.0), 1e-3)])
def test_fine_and_offset_grids_are_uniform(interval, step):
    # linspace rounding is about one ulp of max |x|, above 1e-12 of the gap
    cfg = NumericConfig(interval=interval, step=step)
    traj = integrate_base(ZERO, MINUS_ONE, cfg)
    assert float(np.max(np.abs(traj.f_vals - np.cos(traj.grid - interval[0])))) < 1e-10


# -- base integration ------------------------------------------------------------


def test_integrator_reproduces_cosine():
    traj = integrate_base(ZERO, MINUS_ONE, COS_CFG)
    assert float(np.max(np.abs(traj.f_vals - np.cos(traj.grid)))) < 1e-10
    assert float(np.max(np.abs(traj.fp_vals + np.sin(traj.grid)))) < 1e-10


def test_integrator_reproduces_exponential():
    cfg = NumericConfig(interval=(0.0, 1.0), step=1e-3, ic_f=(1.0, 1.0))
    traj = integrate_base(ZERO, ONE, cfg)
    assert float(np.max(np.abs(traj.f_vals - np.exp(traj.grid)))) < 1e-9


def test_integrator_ic_override():
    traj = integrate_base(ZERO, MINUS_ONE, COS_CFG, ic=(0.0, 1.0))
    assert float(np.max(np.abs(traj.f_vals - np.sin(traj.grid)))) < 1e-10


def rk4_reference(p, q, cfg, ic):
    """Scalar RK4 loop, one step at a time: the reference for integrate_base."""
    a, b = cfg.interval
    n = cfg.steps
    dt = (b - a) / n
    xs = np.linspace(a, b, n + 1)
    mids = xs[:-1] + 0.5 * dt
    on_grid, on_mids = symbol_values(p, q, 0, xs), symbol_values(p, q, 0, mids)
    p_xs, q_xs = on_grid[P(0)], on_grid[Q(0)]
    p_mid, q_mid = on_mids[P(0)], on_mids[Q(0)]

    u, v = ic
    f_vals, fp_vals = [u], [v]
    for idx in range(n):
        p0, q0 = p_xs[idx], q_xs[idx]
        pm, qm = p_mid[idx], q_mid[idx]
        p1, q1 = p_xs[idx + 1], q_xs[idx + 1]
        k1u = v
        k1v = p0 * v + q0 * u
        u2, v2 = u + 0.5 * dt * k1u, v + 0.5 * dt * k1v
        k2u = v2
        k2v = pm * v2 + qm * u2
        u3, v3 = u + 0.5 * dt * k2u, v + 0.5 * dt * k2v
        k3u = v3
        k3v = pm * v3 + qm * u3
        u4, v4 = u + dt * k3u, v + dt * k3v
        k4u = v4
        k4v = p1 * v4 + q1 * u4
        u += dt / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v += dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        f_vals.append(u)
        fp_vals.append(v)
    return np.array(f_vals), np.array(fp_vals)


@pytest.mark.parametrize("n", [10, 11, 1000, 1023, 1024, 1025, 4000])
@pytest.mark.parametrize("p_text,q_text", COEFFICIENT_PAIRS)
def test_transfer_matrix_scan_matches_scalar_rk4(p_text, q_text, n):
    # n straddles the powers of two where the scan gains a round
    p, q = parse_expr(p_text), parse_expr(q_text)
    cfg = NumericConfig(interval=(0.0, 1.0), step=1.0 / n)
    assert cfg.steps == n
    for ic in ((1.0, 0.0), (0.0, 1.0), (1.5, 0.25)):
        traj = integrate_base(p, q, cfg, ic)
        for got, want in zip((traj.f_vals, traj.fp_vals), rk4_reference(p, q, cfg, ic)):
            assert len(got) == n + 1
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_integrator_surfaces_domain_errors():
    cfg = NumericConfig(interval=(0.0, 1.0), step=1e-2)
    with pytest.raises(ExprDomainError, match="division by zero"):
        integrate_base(parse_expr("1/x"), ONE, cfg)
    cfg2 = NumericConfig(interval=(-1.0, 1.0), step=1e-2)
    with pytest.raises(ExprDomainError, match="not positive"):
        integrate_base(ZERO, parse_expr("ln(x)"), cfg2)


# -- symbol values ----------------------------------------------------------------


def test_symbol_values_scalar_and_grid_agree():
    p = parse_expr("sin(x)")
    q = parse_expr("x^2 + 1")
    xs = np.linspace(0.0, 2.0, 9)
    grid_vals = symbol_values(p, q, 2, xs)
    assert len(grid_vals) == 6
    for idx, x in enumerate(xs):
        point_vals = symbol_values(p, q, 2, float(x))
        for sym, arr in grid_vals.items():
            assert arr[idx] == pytest.approx(point_vals[sym], rel=1e-15, abs=1e-300)


def test_jets_match_symbolic_derivatives():
    # diff_expr is the reference: derivatives k <= 4 of random trees,
    # on a grid and at single points, to 1e-9 relative (floored at unit
    # scale for values that cancel to zero)
    rng = random.Random(20261017)
    xs = np.linspace(0.25, 1.75, 7)
    checked = 0
    for _ in range(300):
        tree = random_tree(rng, rng.randint(1, 3), ("sin", "cos", "exp", "ln"))
        chain = [tree]
        for _ in range(4):
            chain.append(diff_expr(chain[-1]))
        try:
            want = np.array([[eval_expr(d, float(x)) for x in xs] for d in chain])
            grid_vals = symbol_values(tree, tree, 4, xs)
        except ExprDomainError:
            continue
        if not np.isfinite(want).all():
            continue
        got = np.array([grid_vals[P(k)] for k in range(5)])
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)
        for idx in (0, 3, 6):
            point_vals = symbol_values(tree, tree, 4, float(xs[idx]))
            got = np.array([point_vals[P(k)] for k in range(5)])
            np.testing.assert_allclose(got, want[:, idx], rtol=1e-9, atol=1e-9)
        checked += 1
    assert checked >= 150


# -- derivative jets at points -------------------------------------------------------


def test_integer_power_jets_by_square_and_multiply(monkeypatch):
    # u^n takes O(log n) Leibniz products, so huge exponents are cheap
    products = []
    plain_leibniz = verify._leibniz

    def counting_leibniz(u, v):
        products.append(1)
        return plain_leibniz(u, v)

    monkeypatch.setattr(verify, "_leibniz", counting_leibniz)
    symbol_values(parse_expr("x^1000"), ZERO, 2, 0.5)
    assert len(products) <= 2 * (1000).bit_length()
    vals = symbol_values(parse_expr("x^1000000"), ZERO, 2, 1.0)
    assert [vals[P(k)] for k in range(3)] == [1.0, 1e6, 1e6 * (1e6 - 1)]
    vals = symbol_values(parse_expr("x^99999999999999999999"), ZERO, 1, 0.5)
    assert [vals[P(0)], vals[P(1)]] == [0.0, 0.0]
    # small exponents, negative ones included, against the diff_expr chain
    xs = np.linspace(0.25, 1.75, 7)
    for base in ("x", "sin(x) + 2", "1/(x+1)"):
        for n in (-5, -2, -1, 0, 1, 2, 3, 5, 8, 13):
            chain = [parse_expr(f"({base})^{n}")]
            for _ in range(4):
                chain.append(diff_expr(chain[-1]))
            want = np.array([[eval_expr(d, float(x)) for x in xs] for d in chain])
            got = symbol_values(chain[0], ZERO, 4, xs)
            got = np.array([got[P(k)] for k in range(5)])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_power_values_m1_is_the_base_equation():
    rng = random.Random(5)
    p = parse_expr("sin(x)")
    q = parse_expr("x")
    for _ in range(20):
        x, f, fp = rng.uniform(0, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)
        y = block_at((f, fp), (0.0, 1.0), 1, p, q, x)[:, 0]
        assert y[0] == f and y[1] == fp
        assert y[2] == pytest.approx(math.sin(x) * fp + x * f, rel=1e-14, abs=1e-15)


def test_power_values_m2_point():
    y = block_at((1.0, 0.0), (0.0, 1.0), 2, ZERO, MINUS_ONE, 0.0)[:, 0]
    assert list(y) == [1.0, 0.0, -2.0, 0.0]


def test_power_value_order_zero_is_the_power():
    rng = random.Random(11)
    p = parse_expr("x")
    q = parse_expr("2*x^2 + 2")
    for m in range(1, 6):
        x, f, fp = rng.uniform(0, 1), rng.uniform(0.5, 2), rng.uniform(-1, 1)
        g, gp = rng.uniform(0.5, 2), rng.uniform(-1, 1)
        y = block_at((f, fp), (g, gp), m, p, q, x)
        assert list(y[0]) == [f ** (m - j) * g**j for j in range(m + 1)]


def test_monomial_values_cos_sin_point():
    w = block_at((1.0, 0.0), (0.0, 1.0), 2, ZERO, MINUS_ONE, 0.0)[:, 1]
    assert list(w) == [0.0, 1.0, 0.0, -4.0]


def test_monomial_argument_validation():
    args = ((1.0, 0.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        block_at(*args, 0, ZERO, MINUS_ONE, 0.0)
    with pytest.raises(ValueError):
        block_at(*args, -1, ZERO, MINUS_ONE, 0.0)


def test_pure_power_monomial_matches_power_evaluator():
    # column 0, f^m, must not depend on g; with f and g swapped it is column m
    rng = random.Random(42)
    p = parse_expr("sin(x)")
    q = parse_expr("1/(x+2)")
    for m in range(1, 6):
        x = rng.uniform(0.0, 1.0)
        f, fp = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
        g, gp = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
        a = block_at((f, fp), (g, gp), m, p, q, x)[:, 0]
        assert list(a) == list(block_at((f, fp), (gp, g), m, p, q, x)[:, 0])
        b = block_at((g, gp), (f, fp), m, p, q, x)[:, m]
        scale = np.maximum(1.0, np.abs(a))
        assert float(np.max(np.abs(a - b) / scale)) <= 1e-12


def test_public_names():
    import odelift

    for names in (odelift.__all__, verify.__all__):
        assert "product_derivatives" in names
        assert "power_derivative_values" not in names
        assert "monomial_derivative_values" not in names


def test_product_block_shape_and_columns():
    # grid and scalar blocks agree; column j is the Leibniz product of f^(m-j), g^j
    p, q, m = parse_expr("sin(x)"), parse_expr("x"), 4
    traj_f = integrate_base(p, q, COS_CFG, (1.0, 0.0))
    traj_g = integrate_base(p, q, COS_CFG, (0.0, 1.0))
    f_pt, g_pt = (traj_f.f_vals, traj_f.fp_vals), (traj_g.f_vals, traj_g.fp_vals)
    block = block_at(f_pt, g_pt, m, p, q, traj_f.grid)
    assert block.shape == (m + 2, m + 1, len(traj_f))
    for idx in (0, 500, 1000):
        point = block_at(
            (f_pt[0][idx], f_pt[1][idx]), (g_pt[0][idx], g_pt[1][idx]), m, p, q,
            float(traj_f.grid[idx]),
        )
        assert point.shape == (m + 2, m + 1)
        np.testing.assert_allclose(block[..., idx], point, rtol=1e-14, atol=1e-14)
    f, g = f_pt[0], g_pt[0]
    for j in range(m + 1):
        np.testing.assert_allclose(block[0, j], f ** (m - j) * g**j, rtol=1e-14, atol=1e-300)


# -- residuals -------------------------------------------------------------------


def test_residual_shape_validation():
    ode = derive_lifted_ode(1)
    syms = symbol_values(ZERO, MINUS_ONE, 0, 0.3)
    with pytest.raises(ValueError):
        residual(ode, [1.0, 0.0], syms)


def test_residual_on_true_solution_is_rounding_level():
    traj = integrate_base(ZERO, MINUS_ONE, COS_CFG)
    syms = symbol_values(ZERO, MINUS_ONE, 1, traj.grid)
    for m in (1, 2):
        ode = derive_lifted_ode(m)
        derivs = product_derivatives(
            (traj.f_vals, traj.fp_vals), (traj.f_vals, traj.fp_vals), m, syms
        )
        res = residual(ode, derivs[:, 0], syms)
        assert res.shape == traj.grid.shape
        assert float(np.max(np.abs(res))) < 1e-9
        # the whole block at once: one residual row per product
        res = residual(ode, derivs, syms)
        assert res.shape == (m + 1, *traj.grid.shape)
        assert float(np.max(np.abs(res))) < 1e-9


def test_residual_scalar_point():
    ode = derive_lifted_ode(2)
    syms = symbol_values(ZERO, MINUS_ONE, 1, 0.0)
    derivs = product_derivatives((1.0, 0.0), (0.0, 1.0), 2, syms)
    assert abs(float(residual(ode, derivs[:, 0], syms))) < 1e-15
    assert np.max(np.abs(residual(ode, derivs, syms))) < 1e-15


# -- basis reports -----------------------------------------------------------------


def test_monomial_labels():
    assert monomial_label(1, 0) == "f"
    assert monomial_label(0, 3) == "g^3"
    assert monomial_label(2, 1) == "f^2*g"
    assert monomial_label(0, 0) == "1"


def test_basis_check_passes_on_variable_coefficients():
    cfg = NumericConfig(interval=(0.0, 1.0), step=1e-3)
    report = basis_check(derive_lifted_ode(3), parse_expr("sin(x)"), parse_expr("x"), cfg)
    assert report.passed and report.residuals_passed and report.wronskian_passed
    assert report.ic_independent
    assert [r.label for r in report.residuals] == ["f^3", "f^2*g", "f*g^2", "g^3"]
    assert report.wronskian_x == pytest.approx(0.5)
    assert "PASS" in report.summary()


@pytest.mark.parametrize("m", [6, 8, 10])
def test_residuals_pass_at_high_order(m):
    ode = derive_lifted_ode(m)
    cfg = NumericConfig(interval=(0.0, 1.0), step=1e-3)
    for p_text, q_text in COEFFICIENT_PAIRS:
        report = basis_check(ode, parse_expr(p_text), parse_expr(q_text), cfg)
        assert report.passed, (m, p_text, q_text)


def test_wronskian_of_squares_at_origin():
    # columns cos^2, cos*sin, sin^2; rows are derivative orders 0..2
    block = block_at((1.0, 0.0), (0.0, 1.0), 2, ZERO, MINUS_ONE, 0.0)
    det = float(np.linalg.det(block[:3]))
    assert det == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("m", range(2, 11))
def test_closed_form_wronskian_matches_determinant(m):
    # the (m+1)x(m+1) determinant of the product jets is the oracle for
    # (prod k!) W(f, g)^(m(m+1)/2)
    p, q = parse_expr("sin(x)"), parse_expr("x")
    cfg = NumericConfig(interval=(0.0, 1.0), step=1e-3)
    traj_f, traj_g = integrate_base(p, q, cfg, cfg.ic_f), integrate_base(p, q, cfg, cfg.ic_g)
    mid = len(traj_f) // 2
    x, f, fp = traj_f.point(mid)
    _, g, gp = traj_g.point(mid)
    det = float(np.linalg.det(block_at((f, fp), (g, gp), m, p, q, x)[: m + 1]))
    report = basis_check(derive_lifted_ode(m), p, q, cfg)
    assert report.wronskian_x == x
    assert report.wronskian == pytest.approx(det, rel=1e-9)
    assert abs(report.wronskian) <= report.wronskian_scale


@pytest.mark.parametrize("m", [1, 4, 9])
def test_basis_check_evaluates_each_coefficient_once(m, monkeypatch):
    calls = []
    plain_eval = DiffPoly.eval

    def counting_eval(self, assignment):
        calls.append(self)
        return plain_eval(self, assignment)

    monkeypatch.setattr(DiffPoly, "eval", counting_eval)
    ode = derive_lifted_ode(m)
    report = basis_check(ode, parse_expr("sin(x)"), parse_expr("x"), COS_CFG)
    assert report.passed
    assert len(calls) == m + 1
    assert {id(c) for c in calls} == {id(c) for c in ode.coeffs}


def test_oversized_check_is_refused_before_it_allocates(monkeypatch):
    # 10^15 grid points: the block alone would be 96 PB
    cfg = NumericConfig(interval=(0.0, 1e12), step=1e-3)
    with pytest.raises(ConfigError, match="floats"):
        basis_check(derive_lifted_ode(2), ZERO, MINUS_ONE, cfg)
    assert MAX_BLOCK_FLOATS == 10**7
    # the limit counts (m+2)(m+1) floats per grid point: 12 * 1001 at m=2
    monkeypatch.setattr(verify, "MAX_BLOCK_FLOATS", 12 * 1001)
    assert cos_suite(2).passed
    monkeypatch.setattr(verify, "MAX_BLOCK_FLOATS", 12 * 1001 - 1)
    with pytest.raises(ConfigError, match="floats"):
        cos_suite(2)


def test_dependent_initial_conditions_fail_only_the_wronskian():
    cfg = NumericConfig(
        interval=(0.0, 1.0), step=1e-3, ic_f=(1.0, 0.0), ic_g=(2.0, 0.0)
    )
    report = basis_check(derive_lifted_ode(2), ZERO, MINUS_ONE, cfg)
    assert report.residuals_passed
    assert not report.wronskian_passed
    assert not report.passed
    assert report.wronskian == 0.0
    assert not report.ic_independent
    assert "linearly dependent" in report.summary()
    assert "FAIL" in report.summary()


def test_perturbed_coefficients_are_detected():
    # a 1 percent error in any coefficient must blow the residual past 1e-4
    p, q = parse_expr("sin(x)"), parse_expr("x")
    cfg = NumericConfig(interval=(0.0, 1.0), step=1e-3)
    ode = derive_lifted_ode(2)
    for k in range(3):
        coeffs = list(ode.coeffs)
        coeffs[k] = coeffs[k] * Fraction(101, 100)
        report = basis_check(LiftedODE(2, tuple(coeffs)), p, q, cfg)
        assert not report.residuals_passed
        assert max(r.max_residual for r in report.residuals) > 1e-4


def test_sign_flip_of_lowest_coefficient_invisible_on_constant_suite():
    # on p = 0, q = -1 the order-zero coefficient of the m=2 equation
    # evaluates to zero, so flipping its sign changes nothing there; any
    # corruption probe on this suite has to touch c_1 instead
    ode = derive_lifted_ode(2)
    syms = symbol_values(ZERO, MINUS_ONE, 1, 0.37)
    assert ode.coeffs[0].eval(syms) == 0.0

    flipped_c0 = LiftedODE(2, (-ode.coeffs[0], ode.coeffs[1], ode.coeffs[2]))
    report = basis_check(flipped_c0, ZERO, MINUS_ONE, COS_CFG)
    assert report.residuals_passed
    assert max(r.max_residual for r in report.residuals) < 1e-9

    flipped_c1 = LiftedODE(2, (ode.coeffs[0], -ode.coeffs[1], ode.coeffs[2]))
    report = basis_check(flipped_c1, ZERO, MINUS_ONE, COS_CFG)
    assert max(r.max_residual for r in report.residuals) > 1e-2


def test_rk4_endpoint_error_scales_like_fourth_order():
    errors = []
    for step in (0.05, 0.025):
        cfg = NumericConfig(interval=(0.0, 1.0), step=step)
        traj = integrate_base(ZERO, MINUS_ONE, cfg)
        errors.append(abs(float(traj.f_vals[-1]) - math.cos(1.0)))
    ratio = errors[0] / errors[1]
    assert 12.0 <= ratio <= 20.0
