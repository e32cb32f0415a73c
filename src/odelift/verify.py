"""Numerical validation of the lifted equations along real trajectories.

The symbolic side promises that the m+1 products f^(m-j) g^j form a basis
of the derived monic equation of order m+1 whenever f, g solve
y'' = p(x) y' + q(x) y.  Every derivative it takes, of p, q, f, g and
each product, comes from Taylor-mode jets (never finite differences) in
one [order, member, points] layout: p with q as one array, f with g as
one pair through their power chains, and one Leibniz pass over the
stacked powers fills every middle product.  The same solution jet
integrates the base equation once, as the fundamental matrix Phi of the
fixed-step Taylor method of order 4.  That is the only integrator:
fundamental_matrix returns (grid, phi), and the solution from
(y, y') = ic at the start of the grid is Phi @ ic, that is
y = phi[0] y0 + phi[1] y0' and y' = phi[2] y0 + phi[3] y0', so f and g
share one integration.  basis_check reports a scale-invariant
residual per product plus the products' midpoint Wronskian, a closed
form in W(f, g) (Bronstein, Mulders & Weil, ISSAC 1997):
W(f^m, ..., g^m) = (prod_{k<=m} k!) W(f, g)^(m(m+1)/2).  Each verdict is
one fixed rule: a residual passes below RESIDUAL_TOL, and the Wronskian
when its ratio to Hadamard's bound exceeds WRONSKIAN_TOL.

Because the jets express every derivative exactly in terms of (f, f'),
(g, g') and the values of p, q and their derivatives, the residual is a
polynomial identity evaluated in floating point, and the Wronskian is
read off the same two vectors: neither judges how accurate the integrator
was.  Only the convergence-order test (acceptance criterion 6) and the
Abel test on det Phi in the test suite do.

Only the residual depends on the operator being checked, and the c_k
values have one source: the rows c_0, ..., c_m of the derived equation of
order m+1, from the symmetric-power recurrence of odelift.lifting run
numerically on the symbol values (_recurrence_values), so no term of any
c_k is formed.  The int m reads those rows; an explicit LiftedODE adds to
row k the difference of its c_k to the derived one, evaluated with
DiffPoly.eval, wherever the two differ, so DiffPoly.eval only ever sees
what the caller changed.  The products are formed from (f, f') and
(g, g') scaled at every grid point to max(|y|, |y'|) = 1, so neither the
scale of the initial conditions nor the growth of the solutions along the
interval overflows the block or hides a residual under its floor; the
Wronskian is taken at the raw initial conditions.  Solutions that leave the
double range, a Phi that is not finite, raise SolutionRangeError naming the
first such x.

basis_check keeps what does not depend on the operator in three one-entry
memos (_one_slot), each built whole and never written after:
  _base      grid, Phi, the symbol values and the rows, read-only, keyed by
             the trees p and q, the interval's repr, the step count and m
             (Expr == compares node for node and literals by repr, so
             -0.0 never aliases 0.0 in a key): one integration,
             which evaluates p and q once, on the grid, and one run of
             the recurrence per base equation;
  _products  the product block, read-only, and the midpoint values of f
             and g, keyed by _base's key plus the repr of ic_f and ic_g;
  _derived   the coefficients of derive_lifted_ode(m), keyed by m, that
             an explicit LiftedODE is compared with.
So a genuine equation, a perturbed one and dependent initial conditions on
one base equation integrate once, run the recurrence once and evaluate 0,
1 and 0 differences, and LiftedODE checks at one m derive once, whatever
the base equation.  Each memo drops its entry before it builds the next,
so at most one check's arrays are held: one product block of at most
MAX_BLOCK_FLOATS floats plus Phi, the grid, the symbol values and the m+1
rows.  cache_clear() on all three frees everything.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from math import comb
from typing import NamedTuple

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
from .lifting import MAX_DERIVE_M, LiftedODE, derive_lifted_ode

__all__ = [
    "ConfigError",
    "NumericConfig",
    "fundamental_matrix",
    "symbol_values",
    "product_derivatives",
    "MonomialResidual",
    "BasisReport",
    "basis_check",
    "monomial_label",
]


class _Numpy:
    """Stands in for numpy until the first numeric use, so that importing
    odelift (derive and check-paper among it) never loads numpy.  The first
    attribute read imports it and rebinds the global np to the module
    itself, so every kernel after it reads numpy directly."""

    def __getattr__(self, name):
        global np
        import numpy

        np = numpy
        return getattr(numpy, name)


np = _Numpy()


#: Largest product_derivatives block basis_check builds: (m+2)(m+1) floats per
#: grid point, 80 MB at the limit.  While it is built, the stacked jets of f^k
#: and g^k for k < m hold 2(m+2)(m-1) more, under two block sizes.  The whole
#: check, integration, jets and residual included, peaks under 5 block sizes,
#: and the memos' arrays hold under 3 between checks (2.50 at m = 1, with the
#: m+1 c_k rows; the derived coefficients _derived keeps are not arrays and
#: come on top); see
#: test_basis_check_memory_stays_within_five_blocks and
#: test_back_to_back_checks_keep_one_checks_arrays.
MAX_BLOCK_FLOATS = 10**7

#: The two verdict rules, fixed so that a PASS means the same at every call:
#: a threshold the caller could move would let a failing check be tuned until
#: it passes.  A product passes when its max relative residual (_relative) is
#: below RESIDUAL_TOL; the products' Wronskian passes when the sine of the
#: angle between (f, f') and (g, g') at the midpoint exceeds WRONSKIAN_TOL,
#: which is the one test for dependent solutions.
RESIDUAL_TOL = 1e-6
WRONSKIAN_TOL = 1e-8

#: Largest coefficient work basis_check takes on for an explicit LiftedODE:
#: the terms of its differences c_k - d_k to the derived coefficients d_k
#: times the grid points, counted before anything is integrated.
#: DiffPoly.eval forms every term of a difference at every point, at about
#: 6 ns a term-point (c_1 of m = 9, 115 terms, on 30 001 points in 0.020 to
#: 0.024 s on a 2-vCPU Xeon), so the limit is about a second of it: every
#: c_k of derive_lifted_ode(20) doubled on 10 001 points (34 209 terms,
#: 3.42e8) is refused.  An int m and a genuine LiftedODE evaluate no term,
#: and the block guard bounds their work.
MAX_TERM_POINTS = 2 * 10**8


class ConfigError(ValueError):
    """Raised for unusable numeric configurations."""


class SolutionRangeError(ConfigError):
    """Raised when the solutions of the base equation leave the double range
    on the grid; like a domain error of p or q, it names the first such x."""


def _guard(size: float, what: str) -> None:
    """Raise ConfigError when what needs more than MAX_BLOCK_FLOATS floats; size is a
    float, so the message formats at any size."""
    if size > MAX_BLOCK_FLOATS:
        raise ConfigError(f"{what} needs {size:.3g} floats, over the limit "
                          f"{MAX_BLOCK_FLOATS:.0e}; use a larger step")


class NumericConfig(namedtuple("NumericConfig", "interval step ic_f ic_g")):
    """Interval, step size, and initial conditions for the two base solutions.

    A named tuple of floats: interval, ic_f and ic_g are pairs, ic_f defaulting
    to (1.0, 0.0) and ic_g to (0.0, 1.0).  Every way in, the constructor,
    _make and _replace, converts the values to floats and checks them.  The
    grid must carry at least 10 points.  Linearly dependent initial
    conditions are allowed through on purpose: the Wronskian check exists
    to catch exactly that, and a report showing it fail is more useful
    than a constructor refusing to run.  basis_check's midpoint Wronskian
    ratio is the one test of dependence.
    """

    __slots__ = ()

    def __new__(cls, interval, step, ic_f=(1.0, 0.0), ic_g=(0.0, 1.0)):
        interval = tuple(float(v) for v in interval)
        step = float(step)
        ic_f = tuple(float(v) for v in ic_f)
        ic_g = tuple(float(v) for v in ic_g)
        if len(interval) != 2:
            raise ConfigError(f"interval must be a pair of bounds (a, b), got {interval}")
        if len(ic_f) != 2 or len(ic_g) != 2:
            raise ConfigError("initial conditions must be (value, derivative) pairs")
        a, b = interval
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ConfigError(f"interval bounds must be finite, got [{a}, {b}]")
        if not all(math.isfinite(v) for v in ic_f + ic_g):
            raise ConfigError(f"initial conditions must be finite, got {ic_f} and {ic_g}")
        if not (a < b):
            raise ConfigError(f"interval must satisfy a < b, got [{a}, {b}]")
        if not (step > 0.0) or not math.isfinite(step):
            raise ConfigError(f"step must be a positive real, got {step}")
        span = (b - a) / step
        if not math.isfinite(span):
            raise ConfigError(f"grid on [{a}, {b}] with step {step} has too many points")
        if span < 10.0:
            raise ConfigError(f"grid on [{a}, {b}] with step {step} has fewer than 10 points")
        return super().__new__(cls, interval, step, ic_f, ic_g)

    _make = classmethod(lambda cls, it: cls(*it))

    @property
    def steps(self) -> int:
        """Number of integration steps; the constructor refuses fewer than 10."""
        a, b = self.interval
        return round((b - a) / self.step)

    @property
    def h(self) -> float:
        """The step the grid uses, (b - a)/steps; step is only the one asked for."""
        a, b = self.interval
        return (b - a) / self.steps


def _sine(a, b) -> float:
    """|det(a, b)| / (|a| |b|) for plane vectors a and b; 0 if either is zero
    and the other finite, nan if either is not finite.

    Taken from the unit vectors _unit gives, so neither the determinant nor
    the product of the norms can overflow or underflow on the way.
    """
    (a0, a1), (b0, b1) = _unit(a), _unit(b)
    return abs(a0 * b1 - a1 * b0)


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


def _leibniz_row(u: list, v: list, k: int, first: int = 0):
    """Row k of the jet of u*v, (uv)^(k) = sum_j C(k,j) u^(j) v^(k-j), summed
    from j = first; the one binomial sum of the Expr jets.

    A term with a known-zero factor (a plain float 0.0 row) is left out, and
    a row with no term left is that known zero.  The sum starts from +0.0, so
    no partial sum is -0.0 and a term left out changes no finite entry.
    """
    return sum(
        (comb(k, j) * u[j] * v[k - j] for j in range(first, k + 1)
         if not (_known_zero(u[j]) or _known_zero(v[k - j]))),
        0.0,
    )


def _known_zero(row) -> bool:
    return row.__class__ is float and not row


def _leibniz(u: list, v: list) -> list:
    """Jet of u*v."""
    return [_leibniz_row(u, v, k) for k in range(len(u))]


def _quotient(u: list, v: list) -> list:
    """Jet of h = u/v, solved row by row from u = h*v."""
    h: list = []
    for k in range(len(u)):
        h.append((u[k] - _leibniz_row(v, h, k, 1)) / v[0])
    return h


def _power(u: list, n: int) -> list:
    """Jet of u^n, n >= 0, by square-and-multiply: O(log n) products."""
    h = _const(1.0, len(u) - 1)
    for bit in bin(n)[2:]:
        h = _leibniz(h, h)
        if bit == "1":
            h = _leibniz(h, u)
    return h


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
        # (exp u)' = exp(u) u', (sin u)' = cos(u) u', (cos u)' = -sin(u) u':
        # row k+1 of each is row k of a product with the jet u[1:] of u'
        if e.func == "exp":
            h = [np.exp(u[0])]
            for k in range(order):
                h.append(_leibniz_row(h, u[1:], k))
            return h
        s, c = [np.sin(u[0])], [np.cos(u[0])]
        for k in range(order):
            s.append(_leibniz_row(c, u[1:], k))
            c.append(-_leibniz_row(s, u[1:], k))
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


def symbol_values(p: Expr, q: Expr, upto: int, x) -> np.ndarray:
    """Values of p, p', ..., p^(upto) and likewise for q, at x.

    One float array of shape (upto+1, 2, *np.shape(x)), row k holding
    (p^(k), q^(k)) like the stacked (f, g) jet; flattened, row 2k+b is
    symbol slot 2k+b of odelift.diffring.  Derivatives come from the jets
    of p and q, never from finite differences.
    """
    xs = np.asarray(x, dtype=float)
    return np.stack([_expr_jet(p, xs, upto), _expr_jet(q, xs, upto)], axis=1)


def _solution_jet(u: np.ndarray, syms: np.ndarray) -> None:
    """Fill rows 2.. of the stacked jet u of base solutions from rows 0, 1.

    u is an array, written in place, or a list of rows, whose rows 2.. are
    replaced; rows 0 and 1 of a list may be columns that broadcast.

    Differentiating f'' = p f' + q f k times gives
    f^(k+2) = sum_j C(k,j) (p^(j) f^(k+1-j) + q^(j) f^(k-j)).
    """
    for k in range(len(u) - 2):
        u[k + 2] = sum(comb(k, j) * (syms[j, 0] * u[k + 1 - j] + syms[j, 1] * u[k - j])
                       for j in range(k + 1))


# --------------------------------------------------------------------------
# integration


def _integrate(p: Expr, q: Expr, cfg: NumericConfig, upto: int) -> tuple:
    """(grid, phi, symbol_values to order upto on the grid), refused before
    it allocates when phi alone would pass MAX_BLOCK_FLOATS floats.

    p and q are evaluated once, on the grid, to order max(3, upto): the
    Taylor steps read rows 0..3, and the rows past upto are dropped after.
    Raises SolutionRangeError at the first x where phi is not finite.
    """
    points = cfg.steps + 1
    _guard(4.0 * points, f"Phi on {points:.3g} grid points")
    a, b = cfg.interval
    grid = np.linspace(a, b, points)
    syms = symbol_values(p, q, max(3, upto), grid)
    with np.errstate(all="ignore"):  # an overflow is the error below, not a warning
        phi = _transfer(syms, cfg.h)
    finite = np.isfinite(phi).all(axis=0)
    if not finite.all():
        raise SolutionRangeError(f"the solutions leave the double range at "
                                 f"x={grid[np.argmin(finite)]:g}; use a shorter interval")
    return grid, phi, syms[: upto + 1].copy() if upto < 3 else syms


def _transfer(syms: np.ndarray, h: float) -> np.ndarray:
    """Phi from the rows of p, q and their derivatives to order 3 on the grid:
    the scan of the order-4 Taylor steps T_k = sum_{j<=4} h^j/j! Y^(j)(x_k),
    where the columns of Y are the solutions from (1, 0) and (0, 1) at x_k.

    Row j of the stacked jet y holds the j-th derivatives of those two
    solutions, so the rows of T_k are sum_j h^j/j! y[j] and sum_j h^j/j! y[j+1].
    Rows 0 and 1 are the unit vectors themselves, constants that broadcast,
    and _solution_jet writes rows 2..5 only.
    """
    n = syms.shape[-1] - 1
    # phi goes before the Taylor rows, so that those are freed as one region
    # at the top of the heap.  Allocated after them, verify-cold's peak RSS
    # read 0.35 MB higher and its op_p50_ms 3-6 % slower (20 pairs)
    phi = np.empty((4, n + 1))
    phi[:, 0] = (1.0, 0.0, 0.0, 1.0)
    y = [np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]), *[None] * 4]
    _solution_jet(y, syms[..., :-1])
    for r in (0, 1):  # entries (r, 0) and (r, 1) of every T_k, summed in place
        t = phi[2 * r : 2 * r + 2, 1:]
        t[...] = y[r]
        for j in range(1, 5):
            t += h**j / math.factorial(j) * y[j + r]
    del y  # the Taylor rows go before the scan allocates
    nxt = np.empty_like(phi)
    s = 1
    while s < n:  # phi[:, k] = T_{k-1} ... T_{max(0, k-2s)}; phi[:, 0] = I ends each product
        # a[i, j] is row (i, j) of phi; entry (i, j) of the product of the
        # matrices at k and k - s is a_i0 b_0j + a_i1 b_1j, multiplied and added
        # in that order
        a, out = phi.reshape(2, 2, -1), nxt.reshape(2, 2, -1)
        out[..., :s] = a[..., :s]
        np.multiply(a[:, :1, s:], a[:1, :, :-s], out=out[..., s:])
        out[..., s:] += a[:, 1:, s:] * a[1:, :, :-s]
        phi, nxt = nxt, phi
        s *= 2
    return phi


def fundamental_matrix(p: Expr, q: Expr, cfg: NumericConfig) -> tuple[np.ndarray, np.ndarray]:
    """Grid and fundamental matrix of y'' = p(x) y' + q(x) y by the Taylor
    method of order 4.

    n = cfg.steps steps of h = cfg.h.  The equation is linear, so step k is
    a 2x2 transfer matrix T_k = sum_{j<=4} h^j/j! Y^(j)(x_k), the Taylor sum
    of the solutions Y from the identity at x_k, whose derivatives the
    solution jet takes from p, q and their derivatives to order 3 at x_k
    alone; at constant p and q it is the classical Runge-Kutta step matrix.
    A Hillis-Steele scan over all T_k gives Phi_k = T_{k-1} ... T_0 in
    ceil(log2 n) rounds.  Returns (grid, phi) with phi of shape (4, n+1):
    the rows phi00, phi01, phi10, phi11, so the solution from (y, y') = ic
    at x = a is (phi00 y + phi01 y', phi10 y + phi11 y') and det Phi
    approximates exp(int_a^x p).  Domain errors of p or q and of their
    derivatives to order 3 surface with the offending x.  Raises
    ConfigError when phi would hold more than MAX_BLOCK_FLOATS floats, and
    SolutionRangeError, a ConfigError, at the first x where phi is not
    finite.
    """
    return _integrate(p, q, cfg, 0)[:2]


def _solution(phi: np.ndarray, ic) -> tuple[np.ndarray, np.ndarray]:
    """(y, y') over the grid for (y, y') = ic at its start: Phi @ ic."""
    y0, yp0 = ic
    return phi[0] * y0 + phi[1] * yp0, phi[2] * y0 + phi[3] * yp0


def _scaled_solution(phi: np.ndarray, ic) -> tuple[np.ndarray, np.ndarray]:
    """(y, y') = Phi @ ic divided at each grid point by sigma = max(|y|, |y'|),
    in place; a zero vector stays zero.  ic is divided by its own sigma
    first, so Phi @ ic overflows nowhere that Phi does not."""
    s = max(map(abs, ic)) or 1.0
    y, yp = _solution(phi, (ic[0] / s, ic[1] / s))
    sigma = np.maximum(np.abs(y), np.abs(yp))
    nonzero = sigma > 0.0
    for row in (y, yp):
        np.divide(row, sigma, out=row, where=nonzero)
    return y, yp


# --------------------------------------------------------------------------
# product derivatives


def product_derivatives(f_pt, g_pt, m: int, syms: np.ndarray) -> np.ndarray:
    """Derivatives 0..m+1 of all m+1 products f^(m-j) g^j, as one block.

    f_pt and g_pt are (value, derivative) pairs of the two base solutions,
    scalars or grid arrays; syms holds p, q and their derivatives up to
    order m-1 at the same points (see symbol_values).  Entry [k, j] of the
    (m+2, m+1, *shape) block is the k-th derivative of f^(m-j) g^j; the top
    (m+1) x (m+1) square is the products' Wronskian matrix.

    f and g travel as one stacked pair u = (f, g): one solution jet, then
    the powers u^2, ..., u^m, each a Leibniz product u^(k-1) u on (2, *shape)
    rows, with u^m written straight into columns 0 and m (at m = 1 that is
    the solution jet itself).  One more Leibniz product, of
    (f^(m-1), ..., f) and (g, ..., g^(m-1)), fills the m-1 middle columns
    at once, so the kernel runs m times in all (never at m = 1).  Each entry
    sees the operations of a term-by-term build in the same order; the value
    row of f^k is f**k and that of g^k is g**k.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    shape = np.broadcast_shapes(*map(np.shape, (*f_pt, *g_pt)), syms.shape[2:])
    block = np.empty((m + 2, m + 1, *shape))
    pows = np.empty((m + 2, m - 1, 2, *shape))  # [k, i - 1]: row k of u^i, i < m
    levels = [pows[:, i] for i in range(m - 1)] + [block[:, ::m]]  # u^1, ..., u^m
    u = levels[0]
    u[0, 0], u[1, 0] = f_pt
    u[0, 1], u[1, 1] = g_pt
    _solution_jet(u, syms)
    f, g = u[0, 0], u[0, 1]
    for k in range(2, m + 1):
        _leibniz_into(levels[k - 1], levels[k - 2], u)
        levels[k - 1][0, 0], levels[k - 1][0, 1] = f**k, g**k
    if m > 1:
        _leibniz_into(block[:, 1:m], pows[:, ::-1, 0], pows[:, :, 1])
    return block


def _leibniz_into(out: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """Write the jet of u*v into out, term by term in _leibniz's order.

    Row k of each is its [k] view, an array of one or more dimensions: a
    row may stack several jets, and one call multiplies them pairwise.  The
    weights C(k, 0) = C(k, k) = 1 are not multiplied: the first term is
    u v^(k) and the last u^(k) v, with no bit changed.  Each row is summed
    in place because the plain form, out[k] = _leibniz_row(u, v, k), took
    1.2-1.4x as long per block at m = 2..12, and verify-batch wall_s went
    from 0.137-0.141 s to 0.145-0.154 s (+11 %, slower in 3 of 3 pairs).
    """
    out, u, v = list(out), list(u), list(v)
    tmp = np.empty_like(out[0])
    for k, row in enumerate(out):
        np.multiply(u[0], v[k], out=row)
        for j in range(1, k):
            np.multiply(comb(k, j), u[j], out=tmp)
            tmp *= v[k - j]
            row += tmp
        if k:
            row += np.multiply(u[k], v[0], out=tmp)


# --------------------------------------------------------------------------
# operator-independent values, memoised

_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def _one_slot(build):
    """Memo of one entry: memo(key, *args) returns build(*args) for that key.

    It has functools' cache_clear() and cache_info().  A call with a new key
    drops the entry before it builds the next one, so two entries are never
    alive at once; functools.lru_cache(maxsize=1) keeps the old one until
    the new one is built.  A build that raises leaves the memo empty.  The
    key and its entry are held as one pair, so a key never meets another
    key's entry, even when threads interleave.
    """
    held = None  # (key, entry)
    hits = misses = 0

    @functools.wraps(build)
    def memo(key, *args):
        nonlocal held, hits, misses
        pair = held
        if pair is not None and pair[0] == key:
            hits += 1
            return pair[1]
        pair = held = None  # both references: the old entry is freed before the build
        misses += 1
        entry = build(*args)
        held = key, entry
        return entry

    def cache_clear() -> None:
        nonlocal held, hits, misses
        held = None
        hits = misses = 0

    memo.cache_clear = cache_clear
    memo.cache_info = lambda: _CacheInfo(hits, misses, 1, int(held is not None))
    return memo


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@_one_slot
def _base(p: Expr, q: Expr, cfg: NumericConfig, m: int) -> tuple:
    """(grid, phi, syms, rows), all read-only: _integrate with the symbols up to
    order m-1, and the rows c_0, ..., c_m of the derived equation on the grid.

    Raises ConfigError, naming m, when a row is not finite.  Without this memo
    each check integrates again, and verify-batch wall_s went from 0.130 to
    0.165 s (+27 %).
    """
    grid, phi, syms = _integrate(p, q, cfg, max(0, m - 1))
    rows = _recurrence_values(m, syms)
    if not np.isfinite(rows).all():
        raise ConfigError(
            f"the coefficients of the derived equation for m={m} leave the double "
            f"range on this grid; use a smaller m"
        )
    _read_only(grid, phi, syms, rows)
    return grid, phi, syms, rows


@_one_slot
def _products(base_key: tuple, p: Expr, q: Expr, cfg: NumericConfig, m: int) -> tuple:
    """(product block, syms, rows, x, (f, f'), (g, g')): the block read-only,
    syms and rows _base's, and the last three the floats at the grid's midpoint,
    where the Wronskian is taken.

    The block is built from the solutions from cfg.ic_f and cfg.ic_g, each
    scaled at every grid point (_scaled_solution) and dropped once it is
    built; (f, f') and (g, g') are phi[:, mid] applied to the raw cfg.ic_f
    and cfg.ic_g.  _base is called here so that a new base equation drops
    the old entries before it builds its own.  Without this memo each
    perturbed check builds its block again, and verify-batch wall_s went
    from 0.128 to 0.149 s (+16 %).
    """
    grid, phi, syms, rows = _base(base_key, p, q, cfg, m)
    f_pt, g_pt = _scaled_solution(phi, cfg.ic_f), _scaled_solution(phi, cfg.ic_g)
    block = product_derivatives(f_pt, g_pt, m, syms)
    _read_only(block)
    mid = len(grid) // 2
    (f, fp), (g, gp) = _solution(phi[:, mid], cfg.ic_f), _solution(phi[:, mid], cfg.ic_g)
    return block, syms, rows, float(grid[mid]), (float(f), float(fp)), (float(g), float(gp))


@_one_slot
def _derived(m: int) -> tuple:
    """The coefficients c_0, ..., c_m of derive_lifted_ode(m)."""
    return derive_lifted_ode(m).coeffs


def _unit(ic: tuple) -> tuple:
    """ic scaled to a unit vector; a zero vector stays zero.  ic is divided
    by max(|a|, |b|) first, as in _scaled_solution, so the norm cannot
    overflow for finite entries near the double maximum."""
    s = max(map(abs, ic))
    if s == 0.0:
        return ic
    a, b = ic[0] / s, ic[1] / s
    norm = math.hypot(a, b)
    return a / norm, b / norm


def _recurrence_values(m: int, syms: np.ndarray) -> np.ndarray:
    """Rows c_0, ..., c_m of the derived equation of order m+1 at the points
    of syms (p, q and their derivatives to order m-1), with no term formed.

    Runs the recurrence of odelift.lifting, L_{i+1} = (d - i p) L_i -
    i (m-i+1) q L_{i-1}, on the grid.  Entry k of L_i is held as its
    normalised Taylor rows a^(j)/j!, j = 0, ..., m+1-i, in an
    [order, entry, point] array; entry i is the constant 1 and is not
    stored.  In these rows d moves row j+1 to row j times j+1, and a product
    with p or q is a convolution with their Taylor rows, one shift at a time:
    one multiply and one subtract per shift, the same at every step (at
    i = 1 both add nothing: entry 0 of L_1 = d is stored as zeros, and L_0
    stores no entry).  Row 0 of L_{m+1} holds c_0, ..., c_m.
    """
    shape = syms.shape[2:]
    ones = [1] * len(shape)  # reshapes one float per row to broadcast over the points
    inverse = np.array([1 / math.factorial(j) for j in range(len(syms))]).reshape(-1, *ones)
    prev, cur = np.zeros((m + 2, 0, *shape)), np.zeros((m + 1, 1, *shape))  # L_0 = 1, L_1 = d
    for i in range(1, m + 1):
        n = m + 1 - i  # the rows L_{i+1} needs
        nxt = np.empty((n, i + 1, *shape))
        np.multiply(cur[1:], np.arange(1.0, n + 1.0).reshape(-1, 1, *ones), out=nxt[:, :i])
        nxt[:, i] = cur[:n, i - 1]
        nxt[:, 1:i] += cur[:n, : i - 1]
        # the Taylor rows of i p and i (m-i+1) q
        p = syms[:n, 0] * (i * inverse[:n])
        q = syms[:n, 1] * (i * (m - i + 1) * inverse[:n])
        nxt[:, i] -= p  # times the unstored 1 of L_i
        nxt[:, i - 1] -= q  # times the unstored 1 of L_{i-1}
        for a, c in ((cur, p), (prev, q)):
            for l in range(n):
                nxt[l:, : a.shape[1]] -= a[: n - l] * c[l]
        prev, cur = cur, nxt
    return cur[0]


# --------------------------------------------------------------------------
# basis report


def _relative(values: list, derivs: np.ndarray) -> object:
    """r / s per entry of derivs' rows, from the values of c_0, ..., c_m and the m+2
    rows of derivs: r = y^(m+1) + sum c_k y^(k), and s the largest term magnitude of
    r, floored at 1."""
    lead = derivs[len(values), ...]
    r, s, term = lead.copy(), np.empty_like(lead), np.empty_like(lead)
    np.maximum(1.0, np.abs(lead), out=s)
    for k, c in enumerate(values):
        np.multiply(c, derivs[k, ...], out=term)
        r += term
        np.maximum(s, np.abs(term, out=term), out=s)
    return r / s


def monomial_label(i: int, j: int) -> str:
    """Short name for f^i g^j, e.g. 'f^3*g'."""
    parts = []
    if i > 0:
        parts.append("f" if i == 1 else f"f^{i}")
    if j > 0:
        parts.append("g" if j == 1 else f"g^{j}")
    return "*".join(parts) if parts else "1"


class MonomialResidual(NamedTuple):
    i: int
    j: int
    max_residual: float
    passed: bool

    @property
    def label(self) -> str:
        return monomial_label(self.i, self.j)


class BasisReport(NamedTuple):
    """Outcome of basis_check: residual per monomial plus one Wronskian; step is cfg.h.

    A residual passes below RESIDUAL_TOL and the Wronskian when
    wronskian_ratio exceeds WRONSKIAN_TOL; summary() prints both constants.
    """

    m: int
    interval: tuple[float, float]
    step: float
    residuals: tuple[MonomialResidual, ...]
    wronskian: float
    wronskian_scale: float
    wronskian_ratio: float
    wronskian_x: float

    @property
    def residuals_passed(self) -> bool:
        return all(r.passed for r in self.residuals)

    @property
    def wronskian_passed(self) -> bool:
        return self.wronskian_ratio > WRONSKIAN_TOL

    @property
    def passed(self) -> bool:
        return self.residuals_passed and self.wronskian_passed

    def summary(self) -> str:
        a, b = self.interval
        lines = [f"m={self.m} on [{a:g}, {b:g}], step {self.step:g}"]
        width = max(len(r.label) for r in self.residuals)
        for r in self.residuals:
            state = "ok" if r.passed else "FAIL"
            lines.append(
                f"  {r.label:<{width}}  max residual {r.max_residual:.3e}"
                f"  (tol {RESIDUAL_TOL:g})  {state}"
            )
        state = "ok" if self.wronskian_passed else "FAIL"
        w = self.wronskian
        if not math.isfinite(w) or (w == 0.0 and self.wronskian_ratio > 0.0):
            value = "out of double range"  # overflowed, or underflowed from W(f, g) != 0
        else:
            value = f"{w:.6e}"
        lines.append(
            f"  Wronskian at x={self.wronskian_x:g}: {value}"
            f"  (|W(f,g)|/norms {self.wronskian_ratio:.3e}, tol {WRONSKIAN_TOL:g})  {state}"
        )
        lines.append(f"  -> {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def basis_check(ode: LiftedODE | int, p: Expr, q: Expr, cfg: NumericConfig) -> BasisReport:
    """Check every product f^(m-j) g^j against the lifted equation.

    ode is a LiftedODE with m <= MAX_DERIVE_M, or an int m >= 1 for the
    derived equation of order m+1.  The c_k values have one source, the rows
    c_0, ..., c_m that _recurrence_values gives on the symbol array, so no
    term of any c_k is formed.  An int reads the rows.  A LiftedODE reads row
    k wherever its c_k == the derived d_k, and row k plus the difference
    c_k - d_k, evaluated with DiffPoly.eval, wherever it != d_k; so its
    genuine equation gives the report of the int m, bit for bit.  Either way
    basis_check builds one fundamental matrix Phi, takes the
    product_derivatives block on the whole grid from the solutions
    Phi @ cfg.ic_f and Phi @ cfg.ic_g, each divided at every grid point by
    sigma = max(|y|, |y'|) there (a zero vector stays zero), and reports
    per-product max relative residuals, as _relative gives them, each passing
    below RESIDUAL_TOL, plus the midpoint Wronskian of all m+1 products of
    the solutions from cfg.ic_f and cfg.ic_g, (prod_{k<=m} k!) W^N with
    W = W(f, g) and N = m(m+1)/2; its scale, Hadamard's bound, puts
    n = |(f, f')| |(g, g')| in place of W.  The products pass when |W| / n,
    at most 1, exceeds WRONSKIAN_TOL: the same test at every m, and the only
    test for dependent solutions.  That ratio is taken from the unit vectors
    (f, f')/|(f, f')| and (g, g')/|(g, g')|, so it stays right where W or n
    alone overflows or underflows.  Row k of column j of the block is a
    polynomial in (f, f') of degree m-j and in (g, g') of degree j, with
    coefficients from the symbols only, so the scaling multiplies column j
    at each point by sigma_f^-(m-j) sigma_g^-j in every row: it changes no
    true residual and keeps the block in range at any scale of the initial
    conditions and any growth of the solutions.  Raises ConfigError for an
    int m below 1, for a LiftedODE with m above MAX_DERIVE_M (pass the int m
    instead), when the block would hold more than MAX_BLOCK_FLOATS floats,
    and, for a LiftedODE only, when the terms of its differences c_k - d_k
    times the grid points pass MAX_TERM_POINTS, or, naming k, when a
    difference holds a derivative of order above max(0, m-1), the highest
    the grid holds, or a coefficient that float() cannot take; these guards
    run before anything is integrated.  It also raises ConfigError, naming
    m, when a row of c_k values is not finite on the grid, and
    SolutionRangeError, naming x, when Phi is not finite, both before any
    block is built.  Any other ode, a bool included, raises TypeError.

    The memo keys hold p and q themselves, whose == compares node for node
    and literals by repr, and every other float by repr, so a report from
    the memos (see the module docstring) is the one a cold call gives.
    """
    derived = not isinstance(ode, LiftedODE)
    if derived and (isinstance(ode, bool) or not isinstance(ode, int)):
        raise TypeError(f"expected a LiftedODE or an int power m, got {ode!r}")
    if derived and ode < 1:
        raise ConfigError(f"power m must be >= 1, got {ode}")
    if not derived and ode.m > MAX_DERIVE_M:
        raise ConfigError(
            f"a LiftedODE is compared with the derived equation, which stops at "
            f"m={MAX_DERIVE_M}; for m={ode.m} pass the int m to check the derived equation"
        )
    m, points = (ode if derived else ode.m), cfg.steps + 1
    _guard((m + 2) * (m + 1) * float(points), f"m={m} on {points:.3g} grid points")
    diffs = {} if derived else {k: c - d for k, (c, d) in enumerate(zip(ode.coeffs, _derived(m, m)))
                                if c != d}
    work = sum(len(c.terms) for c in diffs.values()) * float(points)
    if work > MAX_TERM_POINTS:
        raise ConfigError(
            f"m={m} on {points:.3g} grid points would evaluate {work:.3g} coefficient terms, "
            f"over the limit {MAX_TERM_POINTS:.0e}; use a larger step or a smaller m"
        )
    for k, c in diffs.items():  # DiffPoly.eval reads the grid's symbols and float coefficients
        if c.max_order() > max(0, m - 1):
            raise ConfigError(f"c_{k} holds a derivative of order {c.max_order()}, past the "
                              f"order {max(0, m - 1)} that m={m} evaluates p and q to")
        try:
            float(max(map(abs, c.terms.values())))  # float() overflows first on the largest
        except OverflowError:
            raise ConfigError(f"c_{k} has a coefficient past the double range") from None
    with np.errstate(all="ignore"):  # overflow to inf and nan fails the checks, silently
        base_key = (p, q, repr(cfg.interval), cfg.steps, m)
        products_key = base_key, repr((cfg.ic_f, cfg.ic_g))
        block, syms, rows, x, (f, fp), (g, gp) = _products(products_key, base_key, p, q, cfg, m)
        values = [row + diffs[k].eval(syms) if k in diffs else row for k, row in enumerate(rows)]
        worst = map(float, np.max(np.abs(_relative(values, block)), axis=1))
        residuals = [MonomialResidual(m - j, j, w, w < RESIDUAL_TOL) for j, w in enumerate(worst)]

        w, norms = f * gp - fp * g, math.hypot(f, fp) * math.hypot(g, gp)
        ks = np.arange(1.0, m + 1.0)
        factorials = np.prod(ks ** (m + 1 - ks))  # k is a factor of k!, ..., m!
        value, scale = factorials * np.float64([w, norms]) ** (m * (m + 1) // 2)
    return BasisReport(
        m=m,
        interval=cfg.interval,
        step=cfg.h,
        residuals=tuple(residuals),
        wronskian=float(value),
        wronskian_scale=float(scale),
        wronskian_ratio=_sine((f, fp), (g, gp)),
        wronskian_x=x,
    )
