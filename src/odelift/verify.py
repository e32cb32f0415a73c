"""Numerical validation of the lifted equations along real trajectories.

The symbolic side promises that the m+1 products f^(m-j) g^j form a basis
of the derived monic equation of order m+1 whenever f, g solve
y'' = p(x) y' + q(x) y.  This module integrates that base equation with
classical fixed-step RK4, takes the derivatives of p, q, f, g and each
product from Taylor-mode jets (never finite differences), and reports a
scale-invariant residual per product plus the products' midpoint
Wronskian, which follows from W(f, g) in closed form (Bronstein, Mulders
& Weil, ISSAC 1997): W(f^m, ..., g^m) = (prod_{k<=m} k!) W(f, g)^(m(m+1)/2).

Because the jets express every derivative exactly in terms of (f, f'),
(g, g') and the values of p, q and their derivatives, the residual is a
polynomial identity evaluated in floating point, and the Wronskian is
read off the same two vectors: neither judges how accurate the integrator
was.  Only the convergence-order test (acceptance criterion 6) does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb
from typing import Mapping, Optional

import numpy as np

from .diffring import DiffSymbol, P, Q
from .exprparse import (
    Add,
    Call,
    Div,
    Expr,
    ExprDomainError,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    Var,
    eval_expr,
)
from .lifting import LiftedODE

__all__ = [
    "ConfigError",
    "NumericConfig",
    "Trajectory",
    "integrate_base",
    "symbol_values",
    "product_derivatives",
    "residual",
    "MonomialResidual",
    "BasisReport",
    "basis_check",
    "monomial_label",
]


#: Largest product_derivatives block basis_check builds: (m+2)(m+1) floats per
#: grid point, 80 MB in all.  The jets and the residual hold a few more such.
MAX_BLOCK_FLOATS = 10**7


class ConfigError(ValueError):
    """Raised for unusable numeric configurations."""


@dataclass(frozen=True)
class NumericConfig:
    """Interval, step size, and initial conditions for the two base solutions.

    The grid must carry at least 10 points.  Linearly dependent initial
    conditions are allowed through on purpose: the Wronskian check exists
    to catch exactly that, and a report showing it fail is more useful
    than a constructor refusing to run.
    """

    interval: tuple[float, float]
    step: float
    ic_f: tuple[float, float] = (1.0, 0.0)
    ic_g: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self) -> None:
        a, b = (float(v) for v in self.interval)
        object.__setattr__(self, "interval", (a, b))
        object.__setattr__(self, "step", float(self.step))
        object.__setattr__(self, "ic_f", tuple(float(v) for v in self.ic_f))
        object.__setattr__(self, "ic_g", tuple(float(v) for v in self.ic_g))
        if len(self.ic_f) != 2 or len(self.ic_g) != 2:
            raise ConfigError("initial conditions must be (value, derivative) pairs")
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ConfigError(f"interval bounds must be finite, got [{a}, {b}]")
        if not all(math.isfinite(v) for v in self.ic_f + self.ic_g):
            raise ConfigError(
                f"initial conditions must be finite, got {self.ic_f} and {self.ic_g}"
            )
        if not (a < b):
            raise ConfigError(f"interval must satisfy a < b, got [{a}, {b}]")
        if not (self.step > 0.0) or not math.isfinite(self.step):
            raise ConfigError(f"step must be a positive real, got {self.step}")
        span = (b - a) / self.step
        if not math.isfinite(span):
            raise ConfigError(f"grid on [{a}, {b}] with step {self.step} has too many points")
        if span < 10.0:
            raise ConfigError(
                f"grid on [{a}, {b}] with step {self.step} has fewer than 10 points"
            )

    @property
    def steps(self) -> int:
        """Number of RK4 steps."""
        a, b = self.interval
        return max(10, round((b - a) / self.step))

    @property
    def h(self) -> float:
        """The step the grid uses, (b - a)/steps; step is only the one asked for."""
        a, b = self.interval
        return (b - a) / self.steps

    @property
    def ic_independent(self) -> bool:
        """Whether the two initial-condition vectors span the plane."""
        (f0, fp0), (g0, gp0) = self.ic_f, self.ic_g
        norms = math.hypot(f0, fp0) * math.hypot(g0, gp0)
        if norms == 0.0:
            return False
        return abs(f0 * gp0 - fp0 * g0) > 1e-12 * norms


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Samples of one base solution: grid, f values, f' values."""

    grid: np.ndarray
    f_vals: np.ndarray
    fp_vals: np.ndarray

    def __post_init__(self) -> None:
        for name in ("grid", "f_vals", "fp_vals"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (len(self.grid) == len(self.f_vals) == len(self.fp_vals)):
            raise ValueError("grid, f_vals, fp_vals must have equal lengths")
        if len(self.grid) < 2:
            raise ValueError("a trajectory needs at least two samples")
        gaps = np.diff(self.grid)
        mean = float(np.mean(gaps))
        # samples carry ~1 ulp of max |x| each: more than 1e-12 of a small gap
        tol = 1e-12 * abs(mean) + 8.0 * float(np.spacing(np.max(np.abs(self.grid))))
        if mean <= 0.0 or np.max(np.abs(gaps - mean)) > tol:
            raise ValueError("grid must ascend with uniform spacing")

    def __len__(self) -> int:
        return len(self.grid)

    def point(self, index: int) -> tuple[float, float, float]:
        """(x, f, f') at one grid index."""
        return (
            float(self.grid[index]),
            float(self.f_vals[index]),
            float(self.fp_vals[index]),
        )


# --------------------------------------------------------------------------
# Taylor-mode jets

# A jet is the list [u, u', ..., u^(K)] at a scalar x or over a whole grid.
# Rows hold derivatives, not Taylor coefficients u^(k)/k!, so products use
# binomial weights and small-integer inputs give exact small-integer rows.
# A row may be a plain float (a known zero) until a public function
# broadcasts the jet to the shape of its input.


def _const(value: float, order: int) -> list:
    """Jet of a constant; a numpy value row turns 1/0 into inf, not an exception."""
    return [np.float64(value)] + [0.0] * order


def _leibniz(u: list, v: list) -> list:
    """Jet of u*v: (uv)^(k) = sum_j C(k,j) u^(j) v^(k-j)."""
    return [
        sum(comb(k, j) * u[j] * v[k - j] for j in range(k + 1)) for k in range(len(u))
    ]


def _quotient(u: list, v: list) -> list:
    """Jet of h = u/v, solved row by row from u = h*v."""
    h: list = []
    for k in range(len(u)):
        known = sum(comb(k, j) * v[j] * h[k - j] for j in range(1, k + 1))
        h.append((u[k] - known) / v[0])
    return h


def _chain(a: list, u: list, k: int):
    """Row k of h where h' = a u': (a u')^(k-1)."""
    return sum(comb(k - 1, j) * a[j] * u[k - j] for j in range(k))


def _power(u: list, n: int) -> list:
    """Jet of u^n, n >= 0, by square-and-multiply: O(log n) products."""
    h = _const(1.0, len(u) - 1)
    for bit in bin(n)[2:]:
        h = _leibniz(h, h)
        if bit == "1":
            h = _leibniz(h, u)
    return h


def _powers(u: list, n: int) -> list:
    """Jets of u^0, u^1, ..., u^n; value rows are the plain powers u**k."""
    out = [_const(1.0, len(u) - 1)]
    for k in range(1, n + 1):
        nxt = _leibniz(out[-1], u)
        nxt[0] = u[0] ** k
        out.append(nxt)
    return out


def _jet(e: Expr, x: np.ndarray, order: int) -> list:
    if isinstance(e, Num):
        return _const(e.value, order)
    if isinstance(e, Var):
        return [x, 1.0, *[0.0] * order][: order + 1]
    if isinstance(e, Neg):
        return [-row for row in _jet(e.arg, x, order)]
    if isinstance(e, (Add, Sub, Mul, Div)):
        u, v = _jet(e.left, x, order), _jet(e.right, x, order)
        if isinstance(e, Add):
            return [a + b for a, b in zip(u, v)]
        if isinstance(e, Sub):
            return [a - b for a, b in zip(u, v)]
        return _leibniz(u, v) if isinstance(e, Mul) else _quotient(u, v)
    if isinstance(e, Pow):
        u = _jet(e.base, x, order)
        h = _power(u, abs(e.exponent))
        if e.exponent < 0:
            h = _quotient(_const(1.0, order), h)
        h[0] = u[0] ** e.exponent
        return h
    if isinstance(e, Call):
        u = _jet(e.arg, x, order)
        if e.func == "ln":  # (ln u)' = u'/u
            return [np.log(u[0])] + _quotient(u[1:], u[:-1])
        if e.func == "exp":
            h = [np.exp(u[0])]
            for k in range(1, order + 1):
                h.append(_chain(h, u, k))
            return h
        s, c = [np.sin(u[0])], [np.cos(u[0])]
        for k in range(1, order + 1):
            s.append(_chain(c, u, k))
            c.append(-_chain(s, u, k))
        return s if e.func == "sin" else c
    raise TypeError(f"not an Expr: {e!r}")


def _expr_jet(e: Expr, x: np.ndarray, order: int) -> np.ndarray:
    """Rows e, e', ..., e^(order) over x, warnings silenced.

    A non-finite entry is re-run through the scalar evaluator at the first
    offending x, so callers see the precise domain error.
    """
    with np.errstate(all="ignore"):  # rows broadcast against x and each other
        jet = np.array(np.broadcast_arrays(x, *_jet(e, x, order))[1:], dtype=float)
    finite = np.isfinite(jet).all(axis=0).reshape(-1)
    if not finite.all():
        x_bad = float(x.reshape(-1)[int(np.argmin(finite))])
        eval_expr(e, x_bad)
        raise ExprDomainError(e, x_bad, "non-finite value")
    return jet


def symbol_values(p: Expr, q: Expr, upto: int, x) -> dict[DiffSymbol, object]:
    """Values of p, p', ..., p^(upto) and likewise for q, at x.

    x may be a scalar or a grid array; values follow suit.  Derivatives
    come from the jets of p and q, never from finite differences.
    """
    xs = np.asarray(x, dtype=float)
    out: dict[DiffSymbol, object] = {}
    for make, expr in ((P, p), (Q, q)):
        for order, row in enumerate(_expr_jet(expr, xs, upto)):
            out[make(order)] = float(row) if xs.ndim == 0 else row
    return out


def _solution_jet(f, fp, syms: Mapping, order: int) -> list:
    """Jet of a base solution from its value and slope.

    Differentiating f'' = p f' + q f k times gives
    f^(k+2) = sum_j C(k,j) (p^(j) f^(k+1-j) + q^(j) f^(k-j)).
    """
    jet = [f, fp]
    for k in range(order - 1):
        jet.append(
            sum(
                comb(k, j) * (syms[P(j)] * jet[k + 1 - j] + syms[Q(j)] * jet[k - j])
                for j in range(k + 1)
            )
        )
    return jet


# --------------------------------------------------------------------------
# integration


def integrate_base(
    p: Expr,
    q: Expr,
    cfg: NumericConfig,
    ic: Optional[tuple[float, float]] = None,
) -> Trajectory:
    """Integrate y'' = p(x) y' + q(x) y with classical RK4.

    n = cfg.steps steps of h = cfg.h; initial conditions default to cfg.ic_f.
    The equation is linear, so step k is the 2x2 transfer matrix
    T_k = I + h/6 (K1 + 2 K2 + 2 K3 + K4), built from A(x) = [[0, 1], [q, p]]
    at x_k, the midpoint and x_{k+1}.  A Hillis-Steele scan over all T_k
    gives Phi_k = T_{k-1} ... T_0 in ceil(log2 n) rounds; the trajectory is
    Phi_k @ ic.  Domain errors of p or q surface with the offending x.
    """
    a, b = cfg.interval
    n, h = cfg.steps, cfg.h
    xs = np.linspace(a, b, n + 1)

    def system(x):  # A(x) = [[0, 1], [q(x), p(x)]], one matrix per point
        mat = np.zeros((len(x), 2, 2))
        mat[:, 0, 1], mat[:, 1, 1], mat[:, 1, 0] = 1.0, _expr_jet(p, x, 0)[0], _expr_jet(q, x, 0)[0]
        return mat

    a_xs, a_mid = system(xs), system(xs[:-1] + 0.5 * h)
    eye = np.eye(2)
    k1 = a_xs[:-1]
    k2 = a_mid @ (eye + 0.5 * h * k1)
    k3 = a_mid @ (eye + 0.5 * h * k2)
    phi = np.empty((n + 1, 2, 2))
    phi[0], phi[1:] = eye, eye + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + a_xs[1:] @ (eye + h * k3))
    s = 1
    while s < n:  # phi[k] = T_{k-1} ... T_{max(0, k-2s)}; phi[0] = I ends each product
        phi[s:] = phi[s:] @ phi[:-s]
        s *= 2
    f_vals, fp_vals = (phi @ np.asarray(ic if ic is not None else cfg.ic_f, dtype=float)).T
    return Trajectory(xs, f_vals, fp_vals)


# --------------------------------------------------------------------------
# product derivatives


def product_derivatives(f_pt, g_pt, m: int, syms: Mapping) -> np.ndarray:
    """Derivatives 0..m+1 of all m+1 products f^(m-j) g^j, as one block.

    f_pt and g_pt are (value, derivative) pairs of the two base solutions,
    scalars or grid arrays; syms holds p, q and their derivatives up to
    order m-1 at the same points (see symbol_values).  Entry [k, j] of the
    (m+2, m+1, *shape) block is the k-th derivative of f^(m-j) g^j; the top
    (m+1) x (m+1) square is the products' Wronskian matrix.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    f_pows = _powers(_solution_jet(*f_pt, syms, m + 1), m)
    g_pows = _powers(_solution_jet(*g_pt, syms, m + 1), m)
    shape = np.broadcast_shapes(*map(np.shape, (*f_pt, *g_pt, *syms.values())))
    block = np.empty((m + 2, m + 1, *shape))
    for j in range(m + 1):
        for k, row in enumerate(_leibniz(f_pows[m - j], g_pows[j])):
            block[k, j] = row
    return block


# --------------------------------------------------------------------------
# residual and basis report


def residual(ode: LiftedODE, derivs, sym_vals: Mapping) -> object:
    """Relative residual of the monic equation against given derivatives.

    derivs holds y, y', ..., y^(m+1) (scalars, grid arrays, or stacks of
    functions with the function axis ahead of the grid axes, such as the
    product_derivatives block: each c_k is evaluated once for all); returns
    r / s with r = y^(m+1) + sum c_k y^(k) and s the largest participating
    term magnitude, floored at 1, per row entry.
    """
    m = ode.m
    derivs = np.asarray(derivs, dtype=float)
    if derivs.shape[0] != m + 2:
        raise ValueError(f"expected {m + 2} derivative rows, got {derivs.shape[0]}")
    lead = derivs[m + 1]
    r = lead.copy()
    s = np.maximum(1.0, np.abs(lead))
    for k, c in enumerate(ode.coeffs):
        term = c.eval(sym_vals) * derivs[k]
        r = r + term
        s = np.maximum(s, np.abs(term))
    return r / s


def monomial_label(i: int, j: int) -> str:
    """Short name for f^i g^j, e.g. 'f^3*g'."""
    parts = []
    if i > 0:
        parts.append("f" if i == 1 else f"f^{i}")
    if j > 0:
        parts.append("g" if j == 1 else f"g^{j}")
    return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class MonomialResidual:
    i: int
    j: int
    max_residual: float
    passed: bool

    @property
    def label(self) -> str:
        return monomial_label(self.i, self.j)


@dataclass(frozen=True)
class BasisReport:
    """Outcome of basis_check: residual per monomial plus one Wronskian; step is cfg.h."""

    m: int
    interval: tuple[float, float]
    step: float
    residuals: tuple[MonomialResidual, ...]
    residual_tol: float
    wronskian: float
    wronskian_scale: float
    wronskian_ratio: float
    wronskian_tol: float
    wronskian_x: float
    ic_independent: bool

    @property
    def residuals_passed(self) -> bool:
        return all(r.passed for r in self.residuals)

    @property
    def wronskian_passed(self) -> bool:
        return self.wronskian_ratio > self.wronskian_tol

    @property
    def passed(self) -> bool:
        return self.residuals_passed and self.wronskian_passed

    def summary(self) -> str:
        a, b = self.interval
        lines = [f"m={self.m} on [{a:g}, {b:g}], step {self.step:g}"]
        if not self.ic_independent:
            lines.append("  note: initial conditions are linearly dependent")
        width = max(len(r.label) for r in self.residuals)
        for r in self.residuals:
            state = "ok" if r.passed else "FAIL"
            lines.append(
                f"  {r.label:<{width}}  max residual {r.max_residual:.3e}"
                f"  (tol {self.residual_tol:g})  {state}"
            )
        state = "ok" if self.wronskian_passed else "FAIL"
        lines.append(
            f"  Wronskian at x={self.wronskian_x:g}: {self.wronskian:.6e}"
            f"  (|W(f,g)|/norms {self.wronskian_ratio:.3e}, tol {self.wronskian_tol:g})  {state}"
        )
        lines.append(f"  -> {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def basis_check(
    ode: LiftedODE,
    p: Expr,
    q: Expr,
    cfg: NumericConfig,
    residual_tol: float = 1e-6,
    wronskian_tol: float = 1e-8,
) -> BasisReport:
    """Check every product f^(m-j) g^j against the lifted equation.

    Integrates the two base solutions from cfg's initial conditions,
    takes the product_derivatives block on the whole grid, evaluates each
    c_k once in a single residual call, and reports per-product max
    relative residuals plus the midpoint Wronskian of all m+1 products,
    (prod_{k<=m} k!) W^N with W = W(f, g) and N = m(m+1)/2; its scale,
    Hadamard's bound, puts n = |(f, f')| |(g, g')| in place of W.  The
    products pass when |W| / n, at most 1, exceeds wronskian_tol: the
    same test at every m.  Raises ConfigError unless 0 < residual_tol <
    inf and 0 < wronskian_tol < 1, and when the block would hold more
    than MAX_BLOCK_FLOATS floats.
    """
    if not 0.0 < residual_tol < math.inf:
        raise ConfigError(f"residual tolerance must be positive and finite, got {residual_tol}")
    if not 0.0 < wronskian_tol < 1.0:
        raise ConfigError(f"Wronskian tolerance must lie in (0, 1), got {wronskian_tol}")
    m, points = ode.m, cfg.steps + 1
    if (size := (m + 2) * (m + 1) * points) > MAX_BLOCK_FLOATS:
        raise ConfigError(f"m={m} on {points} grid points needs {size:.3g} floats, over "
                          f"the limit {MAX_BLOCK_FLOATS:.0e}; use a larger step")
    with np.errstate(all="ignore"):  # overflow to inf and nan fails the checks, silently
        traj_f = integrate_base(p, q, cfg, cfg.ic_f)
        traj_g = integrate_base(p, q, cfg, cfg.ic_g)
        syms = symbol_values(p, q, max(0, m - 1), traj_f.grid)
        block = product_derivatives(
            (traj_f.f_vals, traj_f.fp_vals), (traj_g.f_vals, traj_g.fp_vals), m, syms
        )
        worst = map(float, np.max(np.abs(residual(ode, block, syms)), axis=1))
        rows = [MonomialResidual(m - j, j, w, w < residual_tol) for j, w in enumerate(worst)]

        (x, f, fp), (_, g, gp) = traj_f.point(points // 2), traj_g.point(points // 2)
        w, norms = f * gp - fp * g, math.hypot(f, fp) * math.hypot(g, gp)
        ks = np.arange(1.0, m + 1.0)
        factorials = np.prod(ks ** (m + 1 - ks))  # k is a factor of k!, ..., m!
        value, scale = factorials * np.float64([w, norms]) ** (m * (m + 1) // 2)
    return BasisReport(
        m=m,
        interval=cfg.interval,
        step=cfg.h,
        residuals=tuple(rows),
        residual_tol=residual_tol,
        wronskian=float(value),
        wronskian_scale=float(scale),
        wronskian_ratio=abs(w) / norms if norms > 0.0 else 0.0,
        wronskian_tol=wronskian_tol,
        wronskian_x=x,
        ic_independent=cfg.ic_independent,
    )
