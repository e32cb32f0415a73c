"""Integration, jet evaluation, residuals, and the basis report."""

import inspect
import math
import random
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from odelift import verify
from odelift.diffring import DiffPoly, P, Q, parse_poly
from odelift.exprparse import Add, Call, ExprDomainError, Mul, Neg, Num, Var, _program
from odelift.exprparse import diff_expr, eval_expr, parse_expr
from odelift.lifting import LiftedODE, derive_lifted_ode
from odelift.verify import (
    MAX_BLOCK_FLOATS,
    MAX_TERM_POINTS,
    ConfigError,
    NumericConfig,
    basis_check,
    fundamental_matrix,
    monomial_label,
    product_derivatives,
    symbol_values,
)
import oracles
from oracles import eval_exact, majorised_check, modular_residuals, product_block
from oracles import reference_symbol_values, running_error_ratio
from test_acceptance import COEFFICIENT_PAIRS
from test_cli import run_fresh
from test_exprparse import random_tree

ZERO = parse_expr("0")
ONE = parse_expr("1")
MINUS_ONE = parse_expr("-1")
PERFBENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"

# y'' = -y with these initial conditions integrates cos and sin
COS_CFG = NumericConfig(interval=(0.0, 1.0), step=1e-3)


def cos_suite(m):
    return basis_check(derive_lifted_ode(m), ZERO, MINUS_ONE, COS_CFG)


def solve(p, q, cfg, ic):
    """Grid, y and y' from (y, y') = ic at the grid's start: the rows of Phi @ ic."""
    grid, phi = fundamental_matrix(p, q, cfg)
    return grid, *verify._solution(phi, ic)


def memos(module):
    """Every memo of module, found by inspection: each value with a callable
    cache_clear and cache_info."""
    return [
        value
        for value in vars(module).values()
        if callable(getattr(value, "cache_clear", None))
        and callable(getattr(value, "cache_info", None))
    ]


def clear_memos():
    """Empty every memo of odelift.verify."""
    for memo in memos(verify):
        memo.cache_clear()


def block_at(f_pt, g_pt, m, p, q, x):
    """product_derivatives of f^(m-j) g^j at x, with the symbols it needs."""
    return product_derivatives(f_pt, g_pt, m, symbol_values(p, q, max(0, m - 1), x))


# -- configuration -------------------------------------------------------------


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
    for interval in ((0, 1, 2), (0,)):
        with pytest.raises(ConfigError, match="interval must be a pair of bounds"):
            NumericConfig(interval, 0.01)
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


def test_config_steps_and_independence():
    # the config takes dependent initial conditions; the Wronskian ratio
    # of the report is what tells them apart
    cfg = NumericConfig(interval=(0.0, 1.0), step=1e-3)
    assert cfg.steps == 1000
    assert basis_check(1, ZERO, MINUS_ONE, cfg).wronskian_passed
    dependent = NumericConfig(
        interval=(0.0, 1.0), step=1e-3, ic_f=(1.0, 0.0), ic_g=(2.0, 0.0)
    )
    report = basis_check(1, ZERO, MINUS_ONE, dependent)
    assert not report.wronskian_passed and report.wronskian_ratio == 0.0
    assert NumericConfig(interval=(0.0, 1.0), step=0.1).steps == 10


@pytest.mark.parametrize("interval,step", [((0.0, 1.0), 1e-4), ((10.0, 11.0), 1e-3)])
def test_fine_and_offset_grids_are_uniform(interval, step):
    # linspace rounding is about one ulp of max |x|, above 1e-12 of the gap
    cfg = NumericConfig(interval=interval, step=step)
    grid, f, _ = solve(ZERO, MINUS_ONE, cfg, (1.0, 0.0))
    assert float(np.max(np.abs(f - np.cos(grid - interval[0])))) < 1e-10


# -- base integration ------------------------------------------------------------


def test_integrator_reproduces_cosine():
    grid, f, fp = solve(ZERO, MINUS_ONE, COS_CFG, (1.0, 0.0))
    assert float(np.max(np.abs(f - np.cos(grid)))) < 1e-10
    assert float(np.max(np.abs(fp + np.sin(grid)))) < 1e-10


def test_integrator_reproduces_exponential():
    cfg = NumericConfig(interval=(0.0, 1.0), step=1e-3, ic_f=(1.0, 1.0))
    grid, f, _ = solve(ZERO, ONE, cfg, cfg.ic_f)
    assert float(np.max(np.abs(f - np.exp(grid)))) < 1e-9


def test_integrator_ic_override():
    grid, g, _ = solve(ZERO, MINUS_ONE, COS_CFG, (0.0, 1.0))
    assert float(np.max(np.abs(g - np.sin(grid)))) < 1e-10


def taylor_reference(p, q, cfg, ic):
    """Scalar order-4 Taylor loop, one step at a time: the reference for
    fundamental_matrix.  Each step moves (y, y') by sum_{j<=4} h^j/j! times
    rows j and j+1 of the solution's jet at x_k, which is RK4's step when p
    and q are constant."""
    a, b = cfg.interval
    n = cfg.steps
    dt = (b - a) / n
    xs = np.linspace(a, b, n + 1)
    syms = symbol_values(p, q, 3, xs)
    weights = [dt**j / math.factorial(j) for j in range(5)]

    u, v = ic
    f_vals, fp_vals = [u], [v]
    for idx in range(n):
        jet = [u, v]
        for k in range(4):  # y^(k+2) = sum_j C(k,j) (p^(j) y^(k+1-j) + q^(j) y^(k-j))
            jet.append(sum(
                math.comb(k, j) * (syms[j, 0, idx] * jet[k + 1 - j] + syms[j, 1, idx] * jet[k - j])
                for j in range(k + 1)
            ))
        u = sum(w * row for w, row in zip(weights, jet))
        v = sum(w * row for w, row in zip(weights, jet[1:]))
        f_vals.append(u)
        fp_vals.append(v)
    return np.array(f_vals), np.array(fp_vals)


@pytest.mark.parametrize("n", [10, 11, 1000, 1023, 1024, 1025, 4000])
@pytest.mark.parametrize("p_text,q_text", COEFFICIENT_PAIRS)
def test_transfer_matrix_scan_matches_scalar_rk4(p_text, q_text, n):
    # n straddles the powers of two where the scan gains a round; the
    # reference is the order-4 Taylor step, RK4's own at constant p and q
    p, q = parse_expr(p_text), parse_expr(q_text)
    cfg = NumericConfig(interval=(0.0, 1.0), step=1.0 / n)
    assert cfg.steps == n
    for ic in ((1.0, 0.0), (0.0, 1.0), (1.5, 0.25)):
        _, f, fp = solve(p, q, cfg, ic)
        for got, want in zip((f, fp), taylor_reference(p, q, cfg, ic)):
            assert len(got) == n + 1
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_fundamental_matrix_determinant_follows_abel():
    # det Phi(x) = exp(int_0^x sin) = exp(1 - cos x); RK4 errors shrink ~16x per halving
    p, q = parse_expr("sin(x)"), parse_expr("x")
    worst = []
    for step in (1e-2, 5e-3, 2.5e-3):
        cfg = NumericConfig(interval=(0.0, 1.0), step=step)
        grid, phi = fundamental_matrix(p, q, cfg)
        assert phi.shape == (4, cfg.steps + 1)
        det = phi[0] * phi[3] - phi[1] * phi[2]
        worst.append(float(np.max(np.abs(det / np.exp(1.0 - np.cos(grid)) - 1.0))))
    assert all(coarse >= 12.0 * fine for coarse, fine in zip(worst, worst[1:])), worst


def test_integrator_surfaces_domain_errors():
    cfg = NumericConfig(interval=(0.0, 1.0), step=1e-2)
    with pytest.raises(ExprDomainError, match="division by zero"):
        fundamental_matrix(parse_expr("1/x"), ONE, cfg)
    cfg2 = NumericConfig(interval=(-1.0, 1.0), step=1e-2)
    with pytest.raises(ExprDomainError, match="not positive"):
        fundamental_matrix(ZERO, parse_expr("ln(x)"), cfg2)


# -- symbol values ----------------------------------------------------------------


def test_symbol_values_scalar_and_grid_agree():
    p = parse_expr("sin(x)")
    q = parse_expr("x^2 + 1")
    xs = np.linspace(0.0, 2.0, 9)
    grid_vals = symbol_values(p, q, 2, xs)
    assert grid_vals.shape == (3, 2, len(xs))  # (p^(k), q^(k)) for k = 0, 1, 2
    for idx, x in enumerate(xs):
        point_vals = symbol_values(p, q, 2, float(x))
        assert point_vals.shape == (3, 2)
        for k in range(3):
            for b in range(2):
                want = pytest.approx(point_vals[k, b], rel=1e-15, abs=1e-300)
                assert grid_vals[k, b, idx] == want


def test_symbol_values_refuse_a_non_expr():
    for p, q in (("x", parse_expr("x")), (parse_expr("x"), 1.0)):
        with pytest.raises(TypeError, match="not an Expr"):
            symbol_values(p, q, 1, 0.5)


#: (p, q) pairs whose symbol values are finite on [-1, 1]: every node kind,
#: -0.0 literals built by hand, exponents -5..13 and 0, nested ln, exp, sin
#: and cos, p and q that share subtrees or are one another's subtrees, and
#: the five templates of the benchmark's verify-cold workload.
SYMBOL_PAIRS = [
    ("exp(sin(x))/(x+2.25)", "cos(x)/(x+2.25)"),
    ("cos(x)/(x+2.5)", "ln(x+2.5)/(x+2.125)"),
    ("sin(2.375*x)", "x"),
    ("1/(x+2)", "exp(-2.75*x)"),
    ("x^2", "ln(x+2.625)"),
    ("0", "-2"),
    ("-0", "0*x"),
    (Num(-0.0), Mul(Num(-0.0), Var())),
    (Add(Num(-0.0), Neg(Num(0.0))), Mul(Num(-0.0), Call("sin", Var()))),
    ("(x+2)^-5", "(x+2)^-4"),
    ("(x+3)^-3", "(x-2)^-2"),
    ("(x+3)^-1", "x^0"),
    ("x^1", "x^2"),
    ("x^3", "x^4"),
    ("x^5 - x^6", "x^7"),
    ("(sin(x)+2)^8", "x^9"),
    ("x^10", "(1-x/4)^11"),
    ("x^12", "(x/2 + cos(x))^13"),
    ("ln(exp(sin(cos(x))))", "exp(ln(x+3)*cos(sin(x)))"),
    ("sin(sin(sin(x)))", "cos(cos(cos(x)))"),
    ("exp(exp(x/2))", "ln(ln(x+4))"),
    ("ln(x+2)^3 - exp(-x^2)", "cos(ln(x^2+1))*sin(exp(x))"),
    ("sin(x)*cos(x)", "cos(x) - sin(x)"),
    ("sin(x^2+1)", "cos(x^2+1)"),
    ("exp(sin(x))/(x+2)", "exp(sin(x))/(x+2)"),
    ("sin(x)^2 + cos(x)^2", "cos(x)"),
    ("x+2", "exp(x+2)/(x+2)"),
    ("-x + 2*x - x/3", "-(sin(x) - cos(x))*exp(-x)"),
    ("--x - -0.5", "(x - x) * (x + x) / (2 + x*x)"),
    ("0.0000001*x + 123456789", "-(-(-(x)))^2"),
    ("cos(x)*cos(x) - sin(x)*sin(x)", "sin(cos(x)) + cos(sin(x))"),
]

#: Pairs that raise: a domain error of p or q, a high derivative past the
#: double range, a tree that is not an Expr, and each of p and q first.
FAILING_SYMBOL_PAIRS = [
    ("ln(x-1)", "x"),
    ("x", "1/x"),
    ("x^-2", "x"),
    ("exp(700*x)", "x"),
    ("x", "exp(700*x)"),
    ("1/x", "ln(x-1)"),
    ("exp(sin(x))/x", "cos(x)/x"),
    (Add(Var(), "x"), "x"),
    ("x", Add(Var(), "x")),
]


def _symbol_outcome(func, p, q, order, x):
    """dtype, shape and bytes of func's symbol values, or its error's type
    and message."""
    try:
        got = func(p, q, order, x)
    except (TypeError, ValueError) as err:
        return type(err), str(err)
    return got.dtype, got.shape, got.tobytes()


def _tree(text):
    return parse_expr(text) if isinstance(text, str) else text


@pytest.mark.parametrize(
    "p, q, fails",
    [(p, q, False) for p, q in SYMBOL_PAIRS] + [(p, q, True) for p, q in FAILING_SYMBOL_PAIRS],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_symbol_values_are_the_recursive_jets_byte_for_byte(p, q, fails):
    # one run of the program of p and q against the tree-by-tree recursive
    # walk it replaced: the same bytes, dtype and shape, or the same error
    # type and message, on grids through x = 0 and at single points
    p, q = _tree(p), _tree(q)
    raised = []
    for x in (np.linspace(-1.0, 1.0, 1001), np.linspace(-1.0, 1.0, 11), 0.0, 0.5):
        for order in (0, 3, 7, 12):
            got = _symbol_outcome(symbol_values, p, q, order, x)
            assert got == _symbol_outcome(reference_symbol_values, p, q, order, x)
            raised.append(len(got) == 2)
    assert any(raised) if fails else not any(raised)


def test_one_program_shares_subtrees_and_sine_cosine_pairs(monkeypatch):
    # exp(sin(x))/(x+2) and cos(x)/(x+2) share x, x+2 and the (sin, cos)
    # pair of x: 8 entries, and one np.sin and one np.cos call, where the
    # recursive walk makes two of each
    p, q = parse_expr("exp(sin(x))/(x+2)"), parse_expr("cos(x)/(x+2)")
    entries, roots, keys = _program(p, q)
    assert len(entries) == len(keys) == 8 and roots == [5, 7]
    calls = []
    for name in ("sin", "cos"):
        plain = getattr(np, name)
        monkeypatch.setattr(np, name, lambda u, name=name, plain=plain: calls.append(name) or plain(u))
    xs = np.linspace(-1.0, 1.0, 11)
    got = symbol_values(p, q, 7, xs)
    assert sorted(calls) == ["cos", "sin"]
    calls.clear()
    assert got.tobytes() == reference_symbol_values(p, q, 7, xs).tobytes()
    assert sorted(calls) == ["cos", "cos", "sin", "sin"]


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
        got = grid_vals[:, 0]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)
        for idx in (0, 3, 6):
            got = symbol_values(tree, tree, 4, float(xs[idx]))[:, 0]
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
    assert list(vals[:, 0]) == [1.0, 1e6, 1e6 * (1e6 - 1)]
    vals = symbol_values(parse_expr("x^99999999999999999999"), ZERO, 1, 0.5)
    assert list(vals[:, 0]) == [0.0, 0.0]
    # small exponents, negative ones included, against the diff_expr chain
    xs = np.linspace(0.25, 1.75, 7)
    for base in ("x", "sin(x) + 2", "1/(x+1)"):
        for n in (-5, -2, -1, 0, 1, 2, 3, 5, 8, 13):
            chain = [parse_expr(f"({base})^{n}")]
            for _ in range(4):
                chain.append(diff_expr(chain[-1]))
            want = np.array([[eval_expr(d, float(x)) for x in xs] for d in chain])
            got = symbol_values(chain[0], ZERO, 4, xs)[:, 0]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_leibniz_rows_leave_out_known_zero_factors_bit_for_bit():
    # a plain float zero row (a known zero, as in a constant's jet) takes its
    # terms out of the sum; every row keeps the full sum's bytes, zero signs
    # included, and a row with no term left is the known zero itself
    rng = np.random.default_rng(20261019)

    def random_row():
        kind = rng.integers(6)
        if kind < 3:
            return [0.0, -0.0, 1.0][kind]
        if kind == 3:
            return np.float64(rng.choice([0.0, -0.0, 2.5]))
        return rng.standard_normal(5) * rng.choice([0.0, -0.0, 1.0, 1.0], 5)

    for _ in range(300):
        u, v = [random_row() for _ in range(5)], [random_row() for _ in range(5)]
        for first in (0, 1):
            for k in range(first, 5):
                got = verify._leibniz_row(u, v, k, first)
                want = sum(math.comb(k, j) * u[j] * v[k - j] for j in range(first, k + 1))
                assert np.broadcast_to(got, 5).tobytes() == np.broadcast_to(want, 5).tobytes()
    got = verify._leibniz_row([np.ones(3), 0.0, -0.0], [np.ones(3), 0.0, 0.0], 2, 1)
    assert type(got) is float and got == 0.0


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
        assert "fundamental_matrix" in names
        assert "power_derivative_values" not in names
        assert "monomial_derivative_values" not in names
        for gone in ("integrate_base", "Trajectory"):
            assert gone not in names
    for module in (odelift, verify):
        assert not hasattr(module, "integrate_base") and not hasattr(module, "Trajectory")


def test_product_block_shape_and_columns():
    # grid and scalar blocks agree; column j is the Leibniz product of f^(m-j), g^j
    p, q, m = parse_expr("sin(x)"), parse_expr("x"), 4
    grid, *f_pt = solve(p, q, COS_CFG, (1.0, 0.0))
    _, *g_pt = solve(p, q, COS_CFG, (0.0, 1.0))
    block = block_at(f_pt, g_pt, m, p, q, grid)
    assert block.shape == (m + 2, m + 1, len(grid))
    for idx in (0, 500, 1000):
        point = block_at(
            (f_pt[0][idx], f_pt[1][idx]), (g_pt[0][idx], g_pt[1][idx]), m, p, q,
            float(grid[idx]),
        )
        assert point.shape == (m + 2, m + 1)
        np.testing.assert_allclose(block[..., idx], point, rtol=1e-14, atol=1e-14)
    f, g = f_pt[0], g_pt[0]
    for j in range(m + 1):
        np.testing.assert_allclose(block[0, j], f ** (m - j) * g**j, rtol=1e-14, atol=1e-300)


@pytest.mark.parametrize("p_text,q_text", COEFFICIENT_PAIRS)
def test_product_block_matches_the_term_by_term_oracle(p_text, q_text):
    # every bit, on the grid and at a scalar point, m = 1..16, for the unit
    # initial conditions and for unequal, non-unit ones
    p, q = parse_expr(p_text), parse_expr(q_text)
    for ic_f, ic_g in (((1.0, 0.0), (0.0, 1.0)), ((1.5, -0.25), (0.5, 2.0))):
        grid, *f_pt = solve(p, q, COS_CFG, ic_f)
        _, *g_pt = solve(p, q, COS_CFG, ic_g)
        mid = len(grid) // 2
        f_mid, g_mid = [float(v[mid]) for v in f_pt], [float(v[mid]) for v in g_pt]
        for m in range(1, 17):
            syms = symbol_values(p, q, max(0, m - 1), grid)
            block = product_derivatives(f_pt, g_pt, m, syms)
            assert np.array_equal(block, product_block(f_pt, g_pt, m, syms))
            syms = symbol_values(p, q, max(0, m - 1), float(grid[mid]))
            point = product_derivatives(f_mid, g_mid, m, syms)
            assert point.shape == (m + 2, m + 1)
            assert np.array_equal(point, product_block(f_mid, g_mid, m, syms))


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_product_block_runs_the_leibniz_kernel_m_times(monkeypatch, m):
    # m - 1 steps of the stacked power chain plus one pass over all middle
    # columns; none at m = 1, where the solution jets are the block
    calls = []
    kernel = verify._leibniz_into

    def counting_kernel(*args):
        calls.append(args[0].shape)
        kernel(*args)

    monkeypatch.setattr(verify, "_leibniz_into", counting_kernel)
    p, q = parse_expr("sin(x)"), parse_expr("x")
    grid, *f_pt = solve(p, q, COS_CFG, (1.5, -0.25))
    _, *g_pt = solve(p, q, COS_CFG, (0.5, 2.0))
    block_at(f_pt, g_pt, m, p, q, grid)
    n = len(grid)
    assert calls == ([(m + 2, 2, n)] * (m - 1) + [(m + 2, m - 1, n)] if m >= 2 else [])


@pytest.mark.parametrize("p_text,q_text", COEFFICIENT_PAIRS)
def test_product_block_matches_the_oracle_when_the_powers_overflow(p_text, q_text):
    # At (f, f') = (1e200, 0) and (g, g') = (0, 1e200), f^m and g^m overflow
    # for m >= 2.  The oracle multiplies them by the constant-1 jet of g^0 or
    # f^0, and inf * 0 is NaN; the block copies them, so it keeps the inf (or
    # the finite row) there.  Every other entry agrees, NaN for NaN.
    p, q = parse_expr(p_text), parse_expr(q_text)
    cfg = NumericConfig(
        interval=(0.0, 1.0), step=1e-3, ic_f=(1e200, 0.0), ic_g=(0.0, 1e200)
    )
    grid, *f_pt = solve(p, q, cfg, cfg.ic_f)
    _, *g_pt = solve(p, q, cfg, cfg.ic_g)
    with np.errstate(all="ignore"):
        for m in range(1, 13):
            syms = symbol_values(p, q, max(0, m - 1), grid)
            block = product_derivatives(f_pt, g_pt, m, syms)
            oracle = product_block(f_pt, g_pt, m, syms)
            assert np.array_equal(block[:, 1:m], oracle[:, 1:m], equal_nan=True)
            kept = ~np.isnan(oracle)
            assert np.array_equal(block[kept], oracle[kept])
            assert kept.all() == (m == 1)
            # and byte for byte, which tells -0.0 from 0.0 and one NaN from another
            assert block[:, 1:m].tobytes() == oracle[:, 1:m].tobytes()
            assert block[kept].tobytes() == oracle[kept].tobytes()


@pytest.mark.parametrize("p_text,q_text", [("0", "-1"), ("-0", "-1"), ("-0", "-x")])
def test_product_block_matches_the_oracle_byte_for_byte_on_exact_zeros(p_text, q_text):
    # array_equal takes -0.0 for 0.0, tobytes does not.  At x = 0 the ICs
    # (1, 0) and (0, 1) make f' and g exact zeros, and with p = -0.0 the
    # first term of a solution-jet row can be -0.0, which the oracle's
    # sum() from 0 turns into +0.0
    p, q = parse_expr(p_text), parse_expr(q_text)
    grid, *f_pt = solve(p, q, COS_CFG, (1.0, 0.0))
    _, *g_pt = solve(p, q, COS_CFG, (0.0, 1.0))
    start = [float(v[0]) for v in f_pt], [float(v[0]) for v in g_pt]
    assert start == ([1.0, 0.0], [0.0, 1.0])
    for m in range(1, 13):
        syms = symbol_values(p, q, max(0, m - 1), grid)
        block = product_derivatives(f_pt, g_pt, m, syms)
        assert block.tobytes() == product_block(f_pt, g_pt, m, syms).tobytes()
        syms = symbol_values(p, q, max(0, m - 1), 0.0)
        point = product_derivatives(*start, m, syms)
        assert point.tobytes() == product_block(*start, m, syms).tobytes()


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
    assert report.wronskian_ratio > 0.5
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
    grid, f, fp = solve(p, q, cfg, cfg.ic_f)
    _, g, gp = solve(p, q, cfg, cfg.ic_g)
    mid = len(grid) // 2
    x, f, fp, g, gp = (float(v[mid]) for v in (grid, f, fp, g, gp))
    det = float(np.linalg.det(block_at((f, fp), (g, gp), m, p, q, x)[: m + 1]))
    report = basis_check(derive_lifted_ode(m), p, q, cfg)
    assert report.wronskian_x == x
    assert report.wronskian == pytest.approx(det, rel=1e-9)
    assert abs(report.wronskian) <= report.wronskian_scale


@pytest.mark.parametrize("m", [1, 4, 9])
def test_basis_check_evaluates_each_coefficient_once(m, monkeypatch):
    # a coefficient is evaluated only where it differs from the derived one,
    # so a genuine equation reads every c_k from the recurrence rows
    calls = []
    plain_eval = DiffPoly.eval

    def counting_eval(self, *args):
        calls.append(self)
        return plain_eval(self, *args)

    monkeypatch.setattr(DiffPoly, "eval", counting_eval)
    ode = derive_lifted_ode(m)
    clear_memos()
    report = basis_check(ode, parse_expr("sin(x)"), parse_expr("x"), COS_CFG)
    assert report.passed
    assert calls == []


def test_basis_check_integrates_once(monkeypatch):
    calls = []
    plain_integrate = verify._integrate

    def counting_integrate(*args):
        calls.append(args)
        return plain_integrate(*args)

    monkeypatch.setattr(verify, "_integrate", counting_integrate)
    clear_memos()  # an earlier check on the same p, q and grid would hit it
    assert basis_check(derive_lifted_ode(3), parse_expr("sin(x)"), parse_expr("x"), COS_CFG).passed
    assert len(calls) == 1


@pytest.mark.parametrize("m", [1, 3, 8])
def test_basis_check_evaluates_p_and_q_once_per_point_set(m, monkeypatch):
    # p and q on the grid only, to order max(3, m-1): the Taylor steps read
    # rows 0..3 and the product block rows 0..m-1 of the same jets; one run
    # of the program of p and q gives both
    calls = []

    def counting(p, q, order, x, plain=verify.symbol_values):
        calls.append((len(x), order))
        return plain(p, q, order, x)

    monkeypatch.setattr(verify, "symbol_values", counting)
    clear_memos()
    assert basis_check(derive_lifted_ode(m), parse_expr("sin(x)"), parse_expr("x"), COS_CFG).passed
    assert calls == [(1001, max(3, m - 1))]


@pytest.mark.parametrize("upto", [0, 2, 3, 5])
def test_integrate_holds_the_symbol_rows_to_order_upto_only(upto):
    # the Taylor steps read rows 0..3; the rows past upto are not kept, not
    # even as the base of a view
    p, q = parse_expr("sin(x)"), parse_expr("x")
    grid, phi, syms = verify._integrate(p, q, COS_CFG, upto)
    assert syms.shape == (upto + 1, 2, 1001) and syms.base is None
    assert np.array_equal(syms, symbol_values(p, q, upto, grid))
    assert np.array_equal(phi, fundamental_matrix(p, q, COS_CFG)[1])


@pytest.mark.parametrize("m", [1, 5, 10])
def test_basis_check_memory_stays_within_five_blocks(m):
    # the traced peak, integration included, against the bytes of the
    # (m+2)(m+1)-floats-per-point product block on a grid of ~10^6 block floats
    per_point = (m + 2) * (m + 1)
    points = 10**6 // per_point
    cfg = NumericConfig(interval=(0.0, 1.0), step=1.0 / (points - 1))
    assert cfg.steps + 1 == points
    ode, p, q = derive_lifted_ode(m), parse_expr("sin(x)"), parse_expr("x")
    tracemalloc.start()
    try:
        report = basis_check(ode, p, q, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 5 * 8 * per_point * points, peak / (8 * per_point * points)


@pytest.mark.parametrize("m", [1, 5])
def test_back_to_back_checks_keep_one_checks_arrays(m):
    # two large checks on different p: the second drops the first's arrays
    # before it builds its own, so its peak is that of a cold check; a small
    # check after them leaves only its own arrays held
    per_point = (m + 2) * (m + 1)
    points = 10**6 // per_point
    block_bytes = 8 * per_point * points
    cfg = NumericConfig(interval=(0.0, 1.0), step=1.0 / (points - 1))
    ode, q = derive_lifted_ode(m), parse_expr("x")
    clear_memos()
    tracemalloc.start()
    try:
        for p_text in ("sin(x)", "cos(x)"):
            assert basis_check(ode, parse_expr(p_text), q, cfg).passed
        peak = tracemalloc.get_traced_memory()[1]
        assert cos_suite(2).passed  # 1001 points, 21 floats per point held
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * block_bytes, peak / block_bytes
    assert held < 2 * 8 * 21 * 1001, held


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


def test_oversized_grid_is_refused_before_it_allocates(monkeypatch):
    # Phi alone holds 4 floats per grid point, so fundamental_matrix refuses a
    # grid whose Phi passes MAX_BLOCK_FLOATS; basis_check's limit is stricter
    huge = NumericConfig(interval=(0.0, 1.0), step=1e-9)  # 10^9 + 1 points
    edge = NumericConfig(interval=(0.0, 1.0), step=1 / 2_500_000)
    assert edge.steps + 1 == MAX_BLOCK_FLOATS // 4 + 1
    tracemalloc.start()
    try:
        for cfg in (huge, edge):
            start = time.perf_counter()
            with pytest.raises(ConfigError, match="Phi on .* grid points needs .* floats"):
                fundamental_matrix(parse_expr("sin(x)"), parse_expr("x"), cfg)
            assert time.perf_counter() - start < 1.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5, peak
    grid, phi = fundamental_matrix(ZERO, MINUS_ONE, NumericConfig((0.0, 1.0), 1e-6))
    assert phi.shape == (4, 10**6 + 1) and abs(phi[0, -1] - math.cos(1.0)) < 1e-9
    # the limit counts 4 floats per grid point: 4 * 1001 for COS_CFG
    monkeypatch.setattr(verify, "MAX_BLOCK_FLOATS", 4 * 1001)
    assert fundamental_matrix(ZERO, MINUS_ONE, COS_CFG)[1].shape == (4, 1001)
    monkeypatch.setattr(verify, "MAX_BLOCK_FLOATS", 4 * 1001 - 1)
    with pytest.raises(ConfigError, match="floats"):
        fundamental_matrix(ZERO, MINUS_ONE, COS_CFG)


def test_costly_coefficient_work_is_refused_before_it_integrates(monkeypatch):
    # every c_k of derive_lifted_ode(16) doubled, on 30 001 points: the
    # differences to the derived c_k are the c_k themselves, 8 172 terms at
    # every point, 2.45e8 in all, while the block, 306 floats a point, passes
    # its own guard
    calls = []
    monkeypatch.setattr(verify, "_integrate", lambda *args: calls.append(args))
    m = 16
    ode = LiftedODE(m, tuple(2 * c for c in derive_lifted_ode(m).coeffs))
    cfg = NumericConfig(interval=(0.0, 1.0), step=1 / 30000)
    assert (m + 2) * (m + 1) * (cfg.steps + 1) <= MAX_BLOCK_FLOATS
    clear_memos()
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="would evaluate 2.45e[+]08 coefficient terms"):
        basis_check(ode, parse_expr("sin(x)"), parse_expr("x"), cfg)
    assert time.perf_counter() - start < 1.0
    assert calls == [] and memo_info() == ((0, 0), (0, 0))
    assert MAX_TERM_POINTS == 2 * 10**8
    # the limit counts the terms of the differences times the grid points:
    # c_1 + 1/8 at m=2 differs in one term, 1 * 1001
    monkeypatch.undo()
    ode = perturbed(derive_lifted_ode(2), 1)
    assert len((ode.coeffs[1] - derive_lifted_ode(2).coeffs[1]).terms) == 1
    monkeypatch.setattr(verify, "MAX_TERM_POINTS", 1 * 1001)
    assert not basis_check(ode, ZERO, MINUS_ONE, COS_CFG).residuals_passed
    monkeypatch.setattr(verify, "MAX_TERM_POINTS", 1 * 1001 - 1)
    with pytest.raises(ConfigError, match="would evaluate 1e[+]03 coefficient terms"):
        basis_check(ode, ZERO, MINUS_ONE, COS_CFG)


@pytest.mark.large(seconds=60)
def test_doubled_equation_at_m_20_is_refused_and_the_genuine_one_passes():
    # every c_k of derive_lifted_ode(20) doubled, on 10 001 points: 34 209
    # terms at every point, 3.42e8 in all, over MAX_TERM_POINTS; the genuine
    # equation has no difference to evaluate, so on the same grid it runs
    # and passes
    cfg, ode = NumericConfig((0.0, 1.0), 1e-4), derive_lifted_ode(20)
    p, q = parse_expr("sin(x)"), parse_expr("x")
    clear_memos()
    with pytest.raises(ConfigError, match="would evaluate 3.42e[+]08 coefficient terms"):
        basis_check(LiftedODE(20, tuple(2 * c for c in ode.coeffs)), p, q, cfg)
    assert basis_check(ode, p, q, cfg).passed


@pytest.mark.parametrize(
    "m,k,extra,message",
    [
        (3, 0, DiffPoly.symbol(P(3)), "c_0 holds a derivative of order 3, past the order 2"),
        (3, 2, DiffPoly.symbol(Q(5)), "c_2 holds a derivative of order 5, past the order 2"),
        (1, 1, DiffPoly.symbol(P(1)), "c_1 holds a derivative of order 1, past the order 0"),
        (3, 0, 10**400, "c_0 has a coefficient past the double range"),
        (3, 1, Fraction(10**400, 3) * DiffPoly.symbol(P(0)), "c_1 has a coefficient past"),
    ],
)
def test_difference_it_cannot_evaluate_is_refused_before_it_integrates(m, k, extra, message):
    # the grid holds p and q to order max(0, m-1) only, and DiffPoly.eval takes
    # each coefficient as a float: both are refused, naming k, with the memos empty
    ode = perturbed(derive_lifted_ode(m), k, extra)
    clear_memos()
    with pytest.raises(ConfigError, match=message):
        basis_check(ode, parse_expr("sin(x)"), parse_expr("x"), COS_CFG)
    assert memo_info() == ((0, 0), (0, 0))
    # the highest order the grid holds, and a coefficient as large as a float,
    # are evaluated: the check runs and fails its residuals
    for extra in (DiffPoly.symbol(P(max(0, m - 1))), Fraction(10**300, 3)):
        assert not basis_check(perturbed(derive_lifted_ode(m), k, extra),
                               parse_expr("sin(x)"), parse_expr("x"), COS_CFG).residuals_passed


@pytest.mark.parametrize("m", [1, 4, 12, 20])
def test_genuine_equation_counts_no_coefficient_terms(m, monkeypatch):
    # its c_k all equal the derived ones, so it has no difference to evaluate
    # and passes a limit of 0 term-points with the report of the int m
    p, q = parse_expr("sin(x)"), parse_expr("x")
    monkeypatch.setattr(verify, "MAX_TERM_POINTS", 0)
    report = basis_check(derive_lifted_ode(m), p, q, COS_CFG)
    assert report.passed
    assert report == basis_check(m, p, q, COS_CFG)


def test_dependent_initial_conditions_fail_only_the_wronskian():
    cfg = NumericConfig(
        interval=(0.0, 1.0), step=1e-3, ic_f=(1.0, 0.0), ic_g=(2.0, 0.0)
    )
    report = basis_check(derive_lifted_ode(2), ZERO, MINUS_ONE, cfg)
    assert report.residuals_passed
    assert not report.wronskian_passed
    assert not report.passed
    assert report.wronskian == 0.0 and report.wronskian_ratio == 0.0
    summary = report.summary()
    assert "(|W(f,g)|/norms 0.000e+00, tol 1e-08)  FAIL" in summary
    assert summary.endswith("-> FAIL")
    assert "note:" not in summary


def wronskian_report(ic_f, ic_g):
    cfg = NumericConfig(interval=(0.0, 1.0), step=1e-3, ic_f=ic_f, ic_g=ic_g)
    return basis_check(derive_lifted_ode(1), ZERO, MINUS_ONE, cfg)


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e160, 1e-170])
def test_config_independence_at_any_scale(scale):
    # |det| and the product of the norms overflow or underflow here; their
    # ratio, taken from the unit vectors, does not.  At m = 1 no product
    # overflows, so only the Wronskian decides the verdict
    for ic_f, ic_g in (((scale, 0.0), (0.0, scale)), ((scale, scale), (scale, -scale))):
        report = wronskian_report(ic_f, ic_g)
        assert report.passed and report.wronskian_ratio == pytest.approx(1.0)
    for ic_f, ic_g in (((scale, 0.5 * scale), (2.0 * scale, scale)), ((scale, 0.0), (0.0, 0.0))):
        report = wronskian_report(ic_f, ic_g)
        assert report.residuals_passed and not report.passed
        assert not report.wronskian_passed and report.wronskian_ratio == 0.0


def test_zero_initial_conditions_beside_an_overflowing_solution_fail_the_wronskian():
    # (g, g') passes the double range by the midpoint and (f, f') is zero:
    # the angle between them has no value, so the ratio is nan and fails
    cfg = NumericConfig((0.0, 1.0), 1e-3, ic_f=(0.0, 0.0), ic_g=(1.7e308, 1.7e308))
    report = basis_check(1, ZERO, Num(1.0), cfg)
    assert math.isnan(report.wronskian_ratio) and not report.wronskian_passed


@pytest.mark.parametrize("scale", [1e160, 1e-160])
def test_wronskian_verdict_at_large_and_tiny_initial_conditions(scale):
    # W(f, g) and |(f, f')| |(g, g')| overflow or underflow at these scales;
    # at m = 1 no product overflows, so the basis must pass
    report = wronskian_report((scale, 0.0), (0.0, scale))
    assert report.passed and report.wronskian_passed
    assert report.wronskian_ratio == pytest.approx(1.0)
    assert "note:" not in report.summary()
    report = wronskian_report((scale, 0.0), (2.0 * scale, 0.0))
    assert report.residuals_passed and not report.passed
    assert not report.wronskian_passed and report.wronskian_ratio == 0.0


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_summary_names_a_wronskian_out_of_double_range(scale):
    # W = W(f, g) = scale^2 overflows to inf or underflows to 0 while the
    # ratio reads 1, so the summary prints no number for it
    cfg = NumericConfig(interval=(0.0, 1.0), step=1e-3, ic_f=(scale, 0.0), ic_g=(0.0, scale))
    report = basis_check(derive_lifted_ode(1), ZERO, MINUS_ONE, cfg)
    assert report.passed and report.wronskian in (math.inf, 0.0)
    assert "Wronskian at x=0.5: out of double range  (|W(f,g)|/norms 1.000e+00" in report.summary()
    # a Wronskian in range, and a zero one of dependent solutions, print as numbers
    assert "Wronskian at x=0.5: 1.000000e+00" in cos_suite(1).summary()
    dependent = NumericConfig(interval=(0.0, 1.0), step=1e-3, ic_g=(2.0, 0.0))
    report = basis_check(derive_lifted_ode(1), ZERO, MINUS_ONE, dependent)
    assert "Wronskian at x=0.5: 0.000000e+00" in report.summary()


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


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-10])
def test_sign_flip_fails_at_any_scale_of_the_initial_conditions(scale):
    # the products are formed from the solutions scaled at every grid point,
    # so small solutions do not hide the error under the residual's floor at 1
    ode = derive_lifted_ode(2)
    flipped_c1 = LiftedODE(2, (ode.coeffs[0], -ode.coeffs[1], ode.coeffs[2]))
    cfg = NumericConfig(interval=(0.0, 1.0), step=1e-3, ic_f=(scale, 0.0), ic_g=(0.0, scale))
    report = basis_check(flipped_c1, ZERO, MINUS_ONE, cfg)
    assert not report.residuals_passed
    assert max(r.max_residual for r in report.residuals) > 1e-2
    assert basis_check(ode, ZERO, MINUS_ONE, cfg).passed


def test_solutions_are_scaled_at_every_point():
    # max(|y|, |y'|) is 1 at every grid point, a zero vector stays zero, and
    # exactly proportional initial conditions give the same bits, even where
    # Phi @ ic itself would overflow (1.7e308 e^x on y'' = y)
    p, q = parse_expr("300*x^3"), parse_expr("x")
    phi = fundamental_matrix(p, q, COS_CFG)[1]
    for ic in ((1.5, -0.25), (0.0, 1.0), (-2e-300, 1e-300)):
        y, yp = verify._scaled_solution(phi, ic)
        assert (np.maximum(np.abs(y), np.abs(yp)) == 1.0).all()
    assert not any(row.any() for row in verify._scaled_solution(phi, (0.0, 0.0)))
    phi = fundamental_matrix(ZERO, ONE, COS_CFG)[1]
    for big, small in (((1.7e308, 1.7e308), (1.0, 1.0)), ((3e-300, -6e-300), (1.5, -3.0))):
        scaled = np.array(verify._scaled_solution(phi, big))
        assert np.array_equal(scaled, verify._scaled_solution(phi, small))
        assert np.isfinite(scaled).all()


def test_solutions_out_of_double_range_are_refused(monkeypatch):
    # det Phi = exp(int p) with p = exp(2x + 100) leaves the double range at
    # once: an error naming the first x where Phi is not finite, a ConfigError,
    # for fundamental_matrix and for both kinds of ode, before any block is built
    def no_block(*args):
        raise AssertionError("built a product block")

    cfg = NumericConfig(interval=(-1.0, 1.0), step=1e-3)
    p = parse_expr("exp(2*x+100)")
    grid = np.linspace(-1.0, 1.0, cfg.steps + 1)
    with np.errstate(all="ignore"):
        phi = verify._transfer(symbol_values(p, ONE, 3, grid), cfg.h)
    finite = np.isfinite(phi).all(axis=0)
    first = int(np.argmin(finite))
    assert finite[:first].all() and f"{grid[first]:g}" == "-0.998"
    message = r"^the solutions leave the double range at x=-0\.998; use a shorter interval$"
    with pytest.raises(verify.SolutionRangeError, match=message):
        fundamental_matrix(p, ONE, cfg)
    monkeypatch.setattr(verify, "product_derivatives", no_block)
    for ode in (4, derive_lifted_ode(4)):
        clear_memos()
        with pytest.raises(ConfigError, match=message):
            basis_check(ode, p, ONE, cfg)
        assert verify._base.cache_info().currsize == 0


# -- the derived equation of order m, from the recurrence on the grid -------------

RECURRENCE_PAIRS = (*COEFFICIENT_PAIRS, ("exp(sin(x))/(x+2)", "cos(x)/(x+2)"), ("0", "-25"))


@pytest.mark.parametrize("m", range(1, 21))
def test_recurrence_values_match_the_expanded_coefficients(m):
    # DiffPoly.eval of the derived c_k is the oracle for the rows the
    # recurrence gives, within 1e-11 of each row's largest value
    ode = derive_lifted_ode(m)
    grid = np.linspace(0.0, 1.0, 101)
    for p_text, q_text in RECURRENCE_PAIRS:
        syms = symbol_values(parse_expr(p_text), parse_expr(q_text), max(0, m - 1), grid)
        rows = verify._recurrence_values(m, syms)
        assert rows.shape == (m + 1, len(grid))
        for k, c in enumerate(ode.coeffs):
            want = np.broadcast_to(c.eval(syms), grid.shape)
            gap = np.max(np.abs(rows[k] - want))
            assert gap <= 1e-11 * np.max(np.abs(want)), (p_text, q_text, k, gap)


@pytest.mark.parametrize("m", range(1, 17))
def test_recurrence_rows_on_negated_magnitudes_are_the_absolute_coefficient_sums(m):
    # Every term of a derived c_k has the sign (-1)^degree, so at symbol values
    # -|s| row k is sum |coeff| prod |s|^e, and every operation of the
    # recurrence multiplies or adds non-negative numbers.  The symbol values
    # are dyadic, exact as floats, and eval_exact is exact, so only the
    # recurrence rounds: each row is its exact value times at most n factors
    # 1 + delta, |delta| <= u, and |row - exact| <= gamma_n exact with
    # gamma_n = n u / (1 - n u) (Higham, 2nd ed., 3.1).  Step i adds at most
    # 2(m-i) + 8 roundings to the deepest chain: 4 for an operand (the Taylor
    # row of p or q takes three, 1/j!, its weight and the symbol, and its
    # product one more; d takes one), 2 for the shift and the lone p or q
    # term, and 2(r+1) convolution subtracts into row r <= m-i of L_{i+1}.
    # So n = sum_{i=1}^{m} (2(m-i) + 8) = m^2 + 7m.  Measured worst: 0 for
    # m <= 7, 1.4 u at m = 10 and 3.0 u at m = 16.
    rng = random.Random(m)
    points = [{s(j): Fraction(rng.randint(1, 63), 32) for j in range(m) for s in (P, Q)}
              for _ in range(2)]
    syms = -np.array([[[float(v[s(j)]) for v in points] for s in (P, Q)] for j in range(m)])
    rows = verify._recurrence_values(m, syms)
    n = m * m + 7 * m
    gamma = Fraction(n, 2**53 - n)
    for k, c in enumerate(derive_lifted_ode(m).coeffs):
        magnitude = DiffPoly({mono: abs(v) for mono, v in c.terms.items()})
        for row, values in zip(rows[k], points):
            exact = eval_exact(magnitude, values)
            assert row >= 0 and abs(Fraction(row) - exact) <= gamma * exact, (k, row, exact)


@pytest.mark.parametrize("m", [pytest.param(24, marks=pytest.mark.large(seconds=120))])
def test_recurrence_rows_on_negated_magnitudes_are_within_gamma_of_diffpoly_eval(m):
    # The test above past its m <= 16, against DiffPoly.eval of |c_k| on three
    # points instead of the exact sum: every row is non-negative and within
    # gamma_(m^2+7m) of exact, and DiffPoly.eval adds its own
    # gamma_(terms+m+1): each term rounds its coefficient and, for each of at
    # most 8 symbols, a power (within 2u) and a product, 25 = m+1 roundings.
    # Measured 3.1 s on a 2-vCPU Xeon.
    u = 2.0**-53

    def gamma(n):
        return n * u / (1 - n * u)

    rng = random.Random(m)
    syms = -np.array([[[rng.randint(1, 63) / 32 for _ in range(3)] for _ in range(2)]
                      for _ in range(m)])
    rows = verify._recurrence_values(m, syms)
    for k, c in enumerate(derive_lifted_ode(m).coeffs):
        want = DiffPoly({mono: abs(v) for mono, v in c.terms.items()}).eval(-syms)
        a, b = gamma(m * m + 7 * m), gamma(len(c.terms) + m + 1)
        assert (rows[k] >= 0).all(), k
        assert (np.abs(rows[k] - want) <= (a + b) * want / (1 - b)).all(), k


#: m = 1..8, every fourth m to 20, and the CLI's 28: a product block costs ~m^3
RUNNING_ERROR_ORDERS = (*range(1, 9), 12, 16, 20, 28)

#: the true bases the floored r/s FAILs at m = 16 and 20, and Euler's x^3, x^(1/2)
RUNNING_ERROR_BASES = (
    *[(p, q, (1.0, 0.0), (0.0, 1.0), (0.0, 1.0)) for p, q in COEFFICIENT_PAIRS],
    ("0", "-25", (1.0, -1.0), (1.0, 1.0), (0.0, 1.0)),
    ("0", "-1", (1.0, -1.0), (1.0, 1.0), (0.0, 1.0)),
    ("2.5/x", "-1.5/x^2", (1.0, 3.0), (1.0, 0.5), (1.0, 2.0)),
)


@pytest.mark.parametrize("p_text,q_text,ic_f,ic_g,interval", RUNNING_ERROR_BASES)
def test_running_error_bound_separates_genuine_from_perturbed_equations(
    p_text, q_text, ic_f, ic_g, interval
):
    # The measure a verdict that does not depend on m can rest on: the worst
    # |r| / (u B) of running_error_ratio (tests/oracles.py), from today's
    # kernels.  A true basis has r = 0 exactly, so rounding alone puts it at
    # gamma B, and 64 is the candidate constant for that verdict.  Measured at
    # step 1e-2: at most 5.3 on every base at every m to 28 (x^2, ln(x+2) at
    # m = 24).  A (1 + 1e-6) scaling of any c_k that does not vanish on the
    # grid read at least 1.52e3, on 1/(x+2), exp(-x) at m = 20 (c_0); past
    # m = 20 some such scalings fall under 64, below double precision.
    cfg = NumericConfig(interval, 1e-2, ic_f, ic_g)
    p, q = parse_expr(p_text), parse_expr(q_text)
    for m in RUNNING_ERROR_ORDERS:
        rows, magnitudes, block, major = majorised_check(m, p, q, cfg)
        assert running_error_ratio(rows, magnitudes, block, major) <= 64, m
        if m > 20 or (p_text, q_text) not in COEFFICIENT_PAIRS:
            continue
        for k in range(m + 1):
            if rows[k].any():
                values = [*rows[:k], rows[k] * (1 + 1e-6), *rows[k + 1 :]]
                assert running_error_ratio(values, magnitudes, block, major) > 64, (m, k)


#: the four acceptance pairs, and p = 0, q = -25 from (1, -1) and (1, 1)
MODULAR_BASES = RUNNING_ERROR_BASES[:5]


@pytest.mark.parametrize("m,step", [
    *[(m, 1e-2) for m in range(1, 21)],
    *[pytest.param(m, 1e-3, marks=pytest.mark.large(seconds=60)) for m in (24, 28)],
])
def test_residual_of_a_true_basis_is_zero_modulo_two_primes(m, step):
    # ROADMAP item 21's exact pin: the doubles basis_check feeds its kernels,
    # carried modulo two primes by tests/oracles.py's modular carrier, give
    # r = y^(m+1) + sum c_k y^(k) = 0 for every product at every grid point.
    # About 3 s for m = 1..20 on 101 points, 8 s at m = 24 and 12 s at m = 28
    # on 1 001 points (2-vCPU Xeon)
    for p_text, q_text, ic_f, ic_g, interval in MODULAR_BASES:
        cfg = NumericConfig(interval, step, ic_f, ic_g)
        r = modular_residuals(m, parse_expr(p_text), parse_expr(q_text), cfg)
        assert r.shape == (m + 1, 2, cfg.steps + 1), r.shape
        assert not r.any(), (p_text, q_text)


def test_modular_pin_fails_for_a_changed_weight_or_a_dropped_leibniz_term(monkeypatch):
    # the pin is not empty: at m = 5 on sin(x), x it finds a nonzero residual
    # modulo each prime when one weight i (m-i+1) of the c_k recurrence reads
    # i (m-i), for each i, and when the Leibniz rule of the power chain and
    # the middle products drops its term u^(k) v from row k, for each k
    m, p, q = 5, parse_expr("sin(x)"), parse_expr("x")
    cfg = NumericConfig((0.0, 1.0), 1e-2)
    for i in range(1, m + 1):
        weights = [j * (m - j + 1) for j in range(1, m + 1)]
        weights[i - 1] = i * (m - i)
        assert modular_residuals(m, p, q, cfg, weights=weights).any(axis=(0, 2)).all(), i
    plain = oracles._leibniz_mod
    for k in range(1, m + 2):
        def dropped(u, v, k=k):
            out = plain(u, v)
            out[k] = (out[k] - u[k] * v[0] % oracles._MOD) % oracles._MOD
            return out

        monkeypatch.setattr(oracles, "_leibniz_mod", dropped)
        assert modular_residuals(m, p, q, cfg).any(axis=(0, 2)).all(), k


@pytest.mark.parametrize("m,error,message", [
    (0, ConfigError, "power m must be >= 1, got 0"),
    (-1, ConfigError, "power m must be >= 1, got -1"),
    (True, TypeError, "a LiftedODE or an int power m, got True"),  # a bool is an int to Python
    (2.0, TypeError, "a LiftedODE or an int power m, got 2.0"),
])
def test_basis_check_refuses_a_power_that_is_not_a_positive_int(m, error, message):
    clear_memos()
    with pytest.raises(error, match=message):
        basis_check(m, ZERO, MINUS_ONE, COS_CFG)
    assert memo_info() == ((0, 0), (0, 0))


@pytest.mark.parametrize("pair", COEFFICIENT_PAIRS)
def test_power_and_derived_equation_give_the_same_verdicts(pair):
    p, q = map(parse_expr, pair)
    configs = [
        COS_CFG,
        NumericConfig(interval=(0.0, 1.0), step=1e-3, ic_f=(1.5, -0.25), ic_g=(0.5, 2.0)),
        NumericConfig(interval=(0.0, 1.0), step=1e-3, ic_f=(1.0, 0.5), ic_g=(-2.0, -1.0)),
    ]
    for m in range(1, 9):
        ode = derive_lifted_ode(m)
        for cfg in configs:
            by_power, by_ode = basis_check(m, p, q, cfg), basis_check(ode, p, q, cfg)
            assert [r.passed for r in by_power.residuals] == [r.passed for r in by_ode.residuals]
            assert by_power.passed == by_ode.passed == (cfg is not configs[2])
            for a, b in zip(by_power.residuals, by_ode.residuals):
                assert a.max_residual < 1e-13 and b.max_residual < 1e-13
            # the Wronskian does not depend on the coefficients at all
            wronskian = ("wronskian", "wronskian_scale", "wronskian_ratio", "wronskian_x")
            assert [getattr(by_power, f) for f in wronskian] == [getattr(by_ode, f) for f in wronskian]


@pytest.mark.parametrize("pair", COEFFICIENT_PAIRS)
def test_derived_equation_gives_the_report_of_its_power(pair):
    # one source of c_k values: the genuine equation reads the rows the int m
    # reads, so the two reports are equal, with unit and with tilted ICs
    p, q = map(parse_expr, pair)
    tilted = NumericConfig(interval=(0.0, 1.0), step=1e-3, ic_f=(1.5, -0.25), ic_g=(0.5, 2.0))
    for m in range(1, 13):
        ode = derive_lifted_ode(m)
        for cfg in (COS_CFG, tilted):
            assert basis_check(ode, p, q, cfg) == basis_check(m, p, q, cfg), (m, cfg)


@pytest.mark.parametrize("m", range(2, 9))
def test_only_the_coefficients_that_differ_are_evaluated(m, monkeypatch):
    # c_0 + p*q and c_{m//2} + 1/8 add their differences, p*q and 1/8, each
    # evaluated with DiffPoly.eval, to the rows the int m reads; every other
    # c_k is its row
    p, q = parse_expr("sin(x)"), parse_expr("x")
    coeffs = list(derive_lifted_ode(m).coeffs)
    diffs = {0: parse_poly("p*q"), m // 2: DiffPoly.const(Fraction(1, 8))}
    for k, delta in diffs.items():
        coeffs[k] = coeffs[k] + delta
    seen, calls = [], []
    plain_relative, plain_eval = verify._relative, DiffPoly.eval

    def keep_values(values, block):
        seen.append(values)
        return plain_relative(values, block)

    def counting_eval(self, *args):
        calls.append(self)
        return plain_eval(self, *args)

    monkeypatch.setattr(verify, "_relative", keep_values)
    monkeypatch.setattr(DiffPoly, "eval", counting_eval)
    clear_memos()
    assert basis_check(m, p, q, COS_CFG).passed
    report = basis_check(LiftedODE(m, tuple(coeffs)), p, q, COS_CFG)
    assert not report.passed
    assert calls == list(diffs.values())
    rows, values = seen
    syms = symbol_values(p, q, m - 1, np.linspace(0.0, 1.0, COS_CFG.steps + 1))
    for k in range(m + 1):
        want = rows[k] + plain_eval(diffs[k], syms) if k in diffs else rows[k]
        assert np.asarray(values[k]).tobytes() == np.asarray(want).tobytes(), k


def test_lifted_ode_past_the_derive_limit_is_refused_before_it_integrates(monkeypatch):
    def no_integration(*args):
        raise AssertionError("integrated")

    monkeypatch.setattr(verify, "_integrate", no_integration)
    with pytest.raises(ConfigError, match="for m=29 pass the int m"):
        basis_check(LiftedODE(29, (DiffPoly(),) * 30), ZERO, MINUS_ONE, COS_CFG)


def test_coefficient_rows_out_of_double_range_are_refused(monkeypatch):
    # q = -1e40 on 11 points: the c_k rows overflow at m=16, and both kinds of
    # ode get a ConfigError naming m instead of nan residuals, before any
    # product block is built
    def no_block(*args):
        raise AssertionError("built a product block")

    cfg = NumericConfig(interval=(0.0, 1e-19), step=1e-20)
    q = parse_expr("-1" + "0" * 40)
    monkeypatch.setattr(verify, "product_derivatives", no_block)
    for ode in (16, derive_lifted_ode(16)):
        clear_memos()
        with pytest.raises(ConfigError, match="for m=16 leave the double range"):
            basis_check(ode, ZERO, q, cfg)
    monkeypatch.undo()
    # rows that stay finite at a large m still pass
    coarse = NumericConfig(interval=(0.0, 1.0), step=0.1)
    assert basis_check(60, parse_expr("sin(x)"), parse_expr("x"), coarse).passed


@pytest.mark.parametrize("m", [1, 5, 10, 28])
def test_power_check_memory_stays_within_five_blocks(m):
    # the recurrence's arrays, under a block size together, come on top of
    # the block the memo holds
    per_point = (m + 2) * (m + 1)
    points = 10**6 // per_point
    cfg = NumericConfig(interval=(0.0, 1.0), step=1.0 / (points - 1))
    clear_memos()
    tracemalloc.start()
    try:
        report = basis_check(m, parse_expr("sin(x)"), parse_expr("x"), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 5 * 8 * per_point * points, peak / (8 * per_point * points)


# -- the memo of operator-independent arrays ---------------------------------------


def memo_info():
    """(integration hits, misses), (product block hits, misses)."""
    return tuple(memo.cache_info()[:2] for memo in (verify._base, verify._products))


def perturbed(ode, k=1, delta=Fraction(1, 8)):
    coeffs = list(ode.coeffs)
    coeffs[k] = coeffs[k] + delta
    return LiftedODE(ode.m, tuple(coeffs))


def test_genuine_then_perturbed_check_integrates_once_and_builds_one_block(monkeypatch):
    calls = []
    for name in ("_integrate", "product_derivatives"):
        def counting(*args, plain=getattr(verify, name), name=name):
            calls.append(name)
            return plain(*args)

        monkeypatch.setattr(verify, name, counting)
    p, q, ode = parse_expr("sin(x)"), parse_expr("x"), derive_lifted_ode(3)
    clear_memos()
    assert basis_check(ode, p, q, COS_CFG).passed
    assert not basis_check(perturbed(ode), p, q, COS_CFG).residuals_passed
    assert calls == ["_integrate", "product_derivatives"]
    assert memo_info() == ((0, 1), (1, 1))

    # dependent initial conditions reuse Phi and rebuild the block
    dependent = NumericConfig(interval=(0.0, 1.0), step=1e-3, ic_f=(1.0, 0.5), ic_g=(2.0, 1.0))
    report = basis_check(ode, p, q, dependent)
    assert report.residuals_passed and not report.wronskian_passed
    assert calls[2:] == ["product_derivatives"]
    assert memo_info() == ((1, 1), (1, 2))


def test_dependent_check_reuses_the_symbol_values(monkeypatch):
    calls = []

    def counting(*args, plain=verify.symbol_values):
        calls.append(args[2])
        return plain(*args)

    monkeypatch.setattr(verify, "symbol_values", counting)
    p, q, ode = parse_expr("sin(x)"), parse_expr("x"), derive_lifted_ode(3)
    dependent = NumericConfig(interval=(0.0, 1.0), step=1e-3, ic_f=(1.0, 0.5), ic_g=(2.0, 1.0))
    clear_memos()
    assert basis_check(ode, p, q, COS_CFG).passed
    assert verify._base.cache_info()[:2] == (0, 1)  # basis_check reads syms from _products
    assert not basis_check(ode, p, q, dependent).wronskian_passed
    assert calls == [3]  # the grid only, to order max(3, m-1)
    assert verify._base.cache_info()[:2] == (1, 1)
    assert memo_info() == ((1, 1), (0, 2))
    # another m on the same base equation misses, and so does another p
    basis_check(derive_lifted_ode(2), p, q, COS_CFG)
    basis_check(ode, parse_expr("cos(x)"), q, COS_CFG)
    assert calls == [3, 3, 3]
    assert verify._base.cache_info() == (1, 3, 1, 1)


def test_each_coefficient_is_evaluated_once_per_base_equation(monkeypatch):
    # every c_k equal to the derived one is read from the recurrence rows: a
    # genuine check evaluates no coefficient, a perturbed c_{m//2} that one,
    # and the dependent check none, whether the three operators share their
    # c_k objects or hold equal copies
    calls = []
    plain_eval = DiffPoly.eval

    def counting_eval(self, *args):
        calls.append(self)
        return plain_eval(self, *args)

    def copy(ode):
        return LiftedODE(ode.m, tuple(DiffPoly(c.terms) for c in ode.coeffs))

    monkeypatch.setattr(DiffPoly, "eval", counting_eval)
    p, q = parse_expr("sin(x)"), parse_expr("x")
    dependent = NumericConfig(interval=(0.0, 1.0), step=1e-3, ic_f=(1.0, 0.5), ic_g=(2.0, 1.0))
    for m in range(1, 9):
        ode = derive_lifted_ode(m)
        for genuine, other, last in ((ode, ode, ode), (copy(ode), copy(ode), copy(ode))):
            clear_memos()
            counts = []
            checks = ((genuine, COS_CFG), (perturbed(other, m // 2), COS_CFG), (last, dependent))
            for check_ode, cfg in checks:
                calls.clear()
                basis_check(check_ode, p, q, cfg)
                counts.append(len(calls))
            assert counts == [0, 1, 0], m
            assert memo_info() == ((1, 1), (1, 2))
            assert verify._derived.cache_info()[:2] == (2, 1)


@pytest.mark.parametrize("m", [3, 16])
def test_lifted_ode_checks_at_one_m_derive_once(m, monkeypatch):
    # the equation a LiftedODE is compared with depends on m alone, so checks
    # on four base equations in a row derive it once
    calls = []

    def counting(m, plain=verify.derive_lifted_ode):
        calls.append(m)
        return plain(m)

    ode, q = derive_lifted_ode(m), parse_expr("x")
    clear_memos()
    monkeypatch.setattr(verify, "derive_lifted_ode", counting)
    for p_text in ("sin(x)", "cos(x)", "sin(2*x)", "exp(-x)"):
        assert basis_check(ode, parse_expr(p_text), q, COS_CFG).passed, p_text
    assert calls == [m]
    assert verify._derived.cache_info()[:2] == (3, 1)


def test_basis_check_hashes_no_polynomial(monkeypatch):
    # each c_k is compared with the derived one by ==, never by hash, which
    # would build a frozenset of every term of every c_k
    def no_hash(self):
        raise AssertionError("a DiffPoly was hashed")

    p, q = parse_expr("sin(x)"), parse_expr("x")
    dependent = NumericConfig(interval=(0.0, 1.0), step=1e-3, ic_f=(1.0, 0.5), ic_g=(2.0, 1.0))
    checks = [(m, derive_lifted_ode(m), perturbed(derive_lifted_ode(m), m // 2))
              for m in range(1, 9)]
    monkeypatch.setattr(DiffPoly, "__hash__", no_hash)
    for m, ode, bad in checks:
        clear_memos()
        verdicts = [basis_check(check_ode, p, q, cfg).passed
                    for check_ode, cfg in ((ode, COS_CFG), (bad, COS_CFG), (ode, dependent))]
        assert verdicts == [True, False, False], m


@pytest.mark.parametrize("m", [2, 5])
def test_clearing_the_base_memo_frees_the_coefficient_values(m):
    # after genuine, perturbed and dependent checks _base holds the grid,
    # Phi, the symbol array and the m+1 recurrence rows, and the perturbed
    # c_k is not kept; _products holds the block and the last two of _base's
    # arrays, so clearing _base frees only the grid and Phi, and clearing
    # both leaves no array
    points = 20001
    row = 8 * points
    cfg = NumericConfig(interval=(0.0, 1.0), step=1 / (points - 1))
    dependent = NumericConfig(interval=(0.0, 1.0), step=1 / (points - 1), ic_f=(1.0, 0.5),
                              ic_g=(2.0, 1.0))
    p, q, ode = parse_expr("sin(x)"), parse_expr("x"), derive_lifted_ode(m)
    checks = [(ode, cfg), (perturbed(ode, m // 2), cfg), (ode, dependent)]
    clear_memos()
    tracemalloc.start()
    try:
        for check_ode, check_cfg in checks:
            basis_check(check_ode, p, q, check_cfg)
        held = tracemalloc.get_traced_memory()[0]
        verify._base.cache_clear()
        products_only = tracemalloc.get_traced_memory()[0]
        verify._products.cache_clear()
        cleared = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    shared = (m + 2) * (m + 1) + 2 * m + m + 1  # block, symbols and c_k rows
    assert held < row * (shared + 1 + 4 + 1), held / row
    assert held - products_only >= row * (1 + 4)
    assert products_only - cleared >= row * shared
    assert products_only < row * (shared + 1), products_only / row
    assert cleared < row, cleared


@pytest.mark.parametrize("pair", COEFFICIENT_PAIRS)
def test_check_sequences_match_cold_checks(pair):
    # genuine, perturbed and dependent checks in a row on one base equation,
    # and the first two swapped, against the same checks each run with every
    # memo cleared
    p, q = map(parse_expr, pair)
    genuine = NumericConfig(interval=(0.0, 1.0), step=1 / 1000, ic_f=(1.0, 0.5), ic_g=(-0.5, 2.0))
    dependent = NumericConfig(interval=(0.0, 1.0), step=1 / 1000, ic_f=(1.0, 0.5),
                              ic_g=(-2.0, -1.0))
    for m in range(1, 9):
        ode = derive_lifted_ode(m)
        genuine_first = [(ode, genuine), (perturbed(ode, m // 2), genuine), (ode, dependent)]
        # perturbed first: the memo entries are built by a check that
        # evaluates a coefficient of its own
        perturbed_first = [genuine_first[1], genuine_first[0], genuine_first[2]]
        for checks in (genuine_first, perturbed_first):
            cold = []
            for check_ode, cfg in checks:
                clear_memos()
                cold.append(repr(basis_check(check_ode, p, q, cfg)))
            clear_memos()
            assert [repr(basis_check(check_ode, p, q, cfg)) for check_ode, cfg in checks] == cold
            assert memo_info() == ((1, 1), (1, 2))


def run_check(p, q, interval, step, ic_f, ic_g, m):
    cfg = NumericConfig(interval=interval, step=step, ic_f=ic_f, ic_g=ic_g)
    p, q = (parse_expr(e) if isinstance(e, str) else e for e in (p, q))
    return basis_check(derive_lifted_ode(m), p, q, cfg)


@pytest.mark.parametrize("field,value,integrates", [
    ("p", "cos(x)", True),
    ("q", "x + 1", True),
    ("interval", (0.5, 1.5), True),
    ("step", 5e-4, True),
    ("ic_f", (1.0, 0.25), False),
    ("ic_g", (0.0, 2.0), False),
    ("m", 3, True),
    # equal to the base as floats and as Expr trees, but not the same inputs
    ("interval", (-0.0, 1.0), True),
    ("q", Add(Var(), Num(-0.0)), True),
    ("ic_g", (-0.0, 1.0), False),
])
def test_changing_any_input_misses_the_memo(field, value, integrates):
    base = dict(p="sin(x)", q=Add(Var(), Num(0.0)), interval=(0.0, 1.0), step=1e-3,
                ic_f=(1.0, 0.0), ic_g=(0.0, 1.0), m=2)
    changed = dict(base, **{field: value})
    clear_memos()
    run_check(**base)
    run_check(**base)
    assert memo_info() == ((0, 1), (1, 1))
    warm = run_check(**changed)
    assert memo_info() == ((0, 2) if integrates else (1, 1), (1, 2))
    clear_memos()
    assert repr(warm) == repr(run_check(**changed))


@pytest.mark.parametrize("stage,m,p_text,q_text", [
    ("integration", 2, "1/(x-0.5)", "-1"),  # a pole on the grid
    ("jets", 3, "0", "exp(700*x)"),  # q'' overflows where q does not
])
def test_domain_error_caches_no_block(stage, m, p_text, q_text):
    p, q = parse_expr(p_text), parse_expr(q_text)
    clear_memos()
    assert cos_suite(2).passed
    for _ in range(2):
        with pytest.raises(ExprDomainError):
            basis_check(derive_lifted_ode(m), p, q, COS_CFG)
        assert verify._products.cache_info().currsize == 0
        assert verify._base.cache_info().currsize == 0
    # the retry integrates again
    assert memo_info() == ((0, 3), (0, 3))


def test_memo_arrays_are_read_only(monkeypatch):
    seen = {}
    plain_integrate, plain_relative = verify._integrate, verify._relative

    def keep_phi(*args):
        out = plain_integrate(*args)
        seen["grid"], seen["phi"], seen["syms"] = out
        return out

    def keep_block(values, block):
        seen["values"], seen["block"] = values, block
        return plain_relative(values, block)

    monkeypatch.setattr(verify, "_integrate", keep_phi)
    monkeypatch.setattr(verify, "_relative", keep_block)
    clear_memos()
    assert cos_suite(3).passed
    syms, values = seen["syms"], seen["values"]
    assert syms.shape == (3, 2, len(seen["grid"]))  # p, p', p'' beside q, q', q''
    assert len(values) == 4 and all(np.shape(c) == syms.shape[2:] for c in values)
    rows = [row for pair in syms for row in pair]  # the views DiffPoly.eval reads
    for a in [seen["grid"], seen["phi"], seen["block"], syms, *rows, *values]:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[..., 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        syms[0, 0] = syms[0, 1]
    # the public functions still hand out arrays of their own
    monkeypatch.undo()
    grid, phi = fundamental_matrix(ZERO, MINUS_ONE, COS_CFG)
    assert grid.flags.writeable and phi.flags.writeable
    assert not np.shares_memory(phi, seen["phi"])


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_reports_are_the_same_with_the_memo_cold_and_warm(m):
    # the verify-batch traffic: genuine, perturbed c_k and dependent ICs on one p, q
    p, q = parse_expr("1/(x+1.5)"), parse_expr("exp(-1.5*x)")
    genuine = NumericConfig(interval=(0.0, 1.0), step=1 / 4000, ic_f=(1.5, 0.0), ic_g=(0.0, 1.5))
    dependent = NumericConfig(interval=(0.0, 1.0), step=1 / 4000, ic_f=(1.5, -0.25),
                              ic_g=(2.25, -0.375))
    ode = derive_lifted_ode(m)
    checks = [(ode, genuine), (perturbed(ode, m // 2), genuine), (ode, dependent)]
    cold = []
    for check_ode, cfg in checks:
        clear_memos()
        cold.append(repr(basis_check(check_ode, p, q, cfg)))
    clear_memos()
    warm = [basis_check(check_ode, p, q, cfg) for check_ode, cfg in checks]
    assert list(map(repr, warm)) == cold
    assert memo_info() == ((1, 1), (1, 2))
    assert [r.passed for r in warm] == [True, False, False]
    assert not warm[1].residuals_passed and warm[2].residuals_passed


def test_threads_sharing_the_memo_get_their_own_reports():
    # every thread checks its own base equation against the memo the others
    # keep replacing; each report must be the one a cold call gives
    cfg = NumericConfig(interval=(0.0, 1.0), step=1e-2)
    ode = derive_lifted_ode(2)
    cases = [(parse_expr(f"sin({k}*x)"), parse_expr("x")) for k in range(1, 5)]
    want = []
    for p, q in cases:
        clear_memos()
        want.append(repr(basis_check(ode, p, q, cfg)))
    assert_threads_get(want, [lambda p=p, q=q: basis_check(ode, p, q, cfg) for p, q in cases])


def assert_threads_get(want, checks):
    """Run each check 150 times in a thread of its own, on a shortened switch
    interval; every report must be repr-equal to its entry in want."""
    wrong = []

    def worker(i):
        for _ in range(150):
            if repr(checks[i]()) != want[i]:
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(checks))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_threads_sharing_one_base_equation_get_their_own_reports():
    # every thread checks its own operator on one p, q and grid, so all of
    # them read one _base entry and one _derived entry
    cfg = NumericConfig(interval=(0.0, 1.0), step=1e-2)
    p, q, ode = parse_expr("sin(x)"), parse_expr("x"), derive_lifted_ode(3)
    odes = [ode] + [perturbed(ode, k) for k in range(4)]
    want = []
    for check_ode in odes:
        clear_memos()
        want.append(repr(basis_check(check_ode, p, q, cfg)))
    assert_threads_get(want, [lambda o=o: basis_check(o, p, q, cfg) for o in odes])
    assert verify._base.cache_info()[:2] == (0, 1)


# -- numpy, imported by the first numeric call -------------------------------------

#: Runs in a fresh interpreter with argv[1] the source of a rule that finds
#: memos: finds them before numpy is loaded, then runs one check, and prints
#: one JSON line: whether numpy was loaded before the rule ran, after it and
#: after the check, and the found memos by module and name.
_MEMOS_BEFORE_NUMPY = """
import json, sys
import odelift.verify as verify
from odelift import NumericConfig, basis_check, parse_expr
exec(sys.argv[1])
before = "numpy" in sys.modules
found = rule()
after_rule = "numpy" in sys.modules
names = sorted(f"{f.__module__}.{f.__name__}" for f in found)
report = basis_check(3, parse_expr("sin(x)"), parse_expr("x"), NumericConfig((0.0, 1.0), 1e-2))
print(json.dumps({"loaded": [before, after_rule, "numpy" in sys.modules],
                  "names": names, "count": len(found), "passed": report.passed}))
"""

VERIFY_MEMOS = ["odelift.verify._base", "odelift.verify._derived", "odelift.verify._products"]

#: The two rules with the memos each finds: this file's memos() on
#: odelift.verify, and perfbench/run.py's odelift_caches on the five modules
#: perfbench/workloads.py's load_program hands it, diffring's two
#: lru_caches among them.
MEMO_RULES = {
    "memos": (
        inspect.getsource(memos) + "rule = lambda: memos(verify)\n",
        VERIFY_MEMOS,
    ),
    "odelift_caches": (
        f"sys.path.insert(0, {str(PERFBENCH_DIR)!r})\nimport run, workloads\n"
        "rule = lambda: run.odelift_caches(workloads.load_program())\n",
        sorted(VERIFY_MEMOS + [
            "odelift.diffring._slot_order", "odelift.diffring._symbol",
        ]),
    ),
}


@pytest.mark.parametrize("rule", sorted(MEMO_RULES))
def test_memos_are_found_before_numpy_is_loaded(rule):
    source, names = MEMO_RULES[rule]
    assert run_fresh(_MEMOS_BEFORE_NUMPY, source) == {
        "loaded": [False, False, True],
        "names": names,
        "count": len(names),
        "passed": True,
    }
