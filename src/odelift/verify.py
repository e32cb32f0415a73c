"""Numerical validation of the lifted equations along real trajectories.

The symbolic side promises that the m+1 products f^(m-j) g^j form a basis
of the derived monic equation of order m+1 whenever f, g solve
y'' = p(x) y' + q(x) y.  Every derivative it takes, of p, q and the base
solutions, comes from Taylor-mode jets (never finite differences) in one
[order, member, points] layout: p with q as one array, from one run of
their post-order program (exprparse._program) that builds the jet of each
distinct subtree once, and the two solutions from (1, 0) and (0, 1) as one
pair, whose jet integrates the base equation once, as the fundamental
matrix Phi of the fixed-step Taylor method of order 4.  That is the only
integrator: fundamental_matrix returns (grid, phi), and the solution from
(y, y') = ic at the start of the grid is Phi @ ic, that is
y = phi[0] y0 + phi[1] y0' and y' = phi[2] y0 + phi[3] y0', so f and g
share one integration.  basis_check reports a residual
verdict per product plus the products' midpoint Wronskian, a closed
form in W(f, g) (Bronstein, Mulders & Weil, ISSAC 1997):
W(f^m, ..., g^m) = (prod_{k<=m} k!) W(f, g)^(m(m+1)/2).  Each verdict is
one fixed rule: a residual passes at most RESIDUAL_TOL, and the Wronskian
when its ratio to Hadamard's bound exceeds WRONSKIAN_TOL.

The derived equation's residual y^(m+1) + sum d_k y^(k) is an identity:
the jets express every derivative exactly in terms of (f, f'), (g, g')
and the values of p, q and their derivatives, and the recurrence of
odelift.lifting that gives the d_k is the same computation, so at the
grid's own values it is zero in exact arithmetic.  So an int m, and a
LiftedODE equal to the derived equation, have nothing to judge: their
residuals are certified, not measured, and read 0.0, and the check forms
no c_k.  The tests hold the identity to account: the residual modulo two
primes on whole grids, the recurrence on the grid against DiffPoly.eval
of the expanded c_k, and the closed forms of Euler's equation.  Only the
differences delta_k = c_k - d_k that an explicit LiftedODE adds can make a
residual nonzero, and only they are judged.  At each x the residuals of
the m+1 products are their Wronskian matrix times the vector of the
delta_k(x), and that matrix's determinant is the closed form above,
nonzero at every x for independent solutions, so every product satisfies
the equation at x iff every delta_k(x) = 0.  Each difference is judged on
its own, on the grid's symbol values alone: rho_k = max_x |delta_k(syms)|
over u = 2^-53 times its running-error bound |delta_k|(|syms|) (Higham,
Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.3), both with
DiffPoly.eval.  Dependent solutions are the Wronskian's to fail.  Neither
verdict judges how accurate the integrator was; only the
convergence-order test (acceptance criterion 6) and the Abel test on
det Phi in the test suite do.  Solutions that leave the double range, a
Phi that is not finite, raise SolutionRangeError naming the first such x.

basis_check keeps what does not depend on the operator in two one-entry
memos (_one_slot), each built whole and never written after:
  _base      grid, Phi and the symbol values to the order the check
             reads, read-only, keyed by the trees p and q, the interval's
             repr, the step count and that order: 0 for an int m, which
             reads Phi alone, m-1 for a LiftedODE, whose differences may
             read p^(m-1) (Expr == compares node for node and literals by
             repr, so -0.0 never aliases 0.0 in a key): one integration,
             which evaluates p and q once, on the grid, to order
             max(3, that order);
  _derived   the coefficients of derive_lifted_ode(m), keyed by m, that
             an explicit LiftedODE is compared with.
So int checks at any m on one base equation and grid integrate once, and
do the same work at every m but the Wronskian's closed form; a genuine
equation, a perturbed one and dependent initial conditions at one m
integrate once and evaluate 0, 1 and 0 differences; and LiftedODE checks
at one m derive once, whatever the base equation.  Each memo drops its
entry before it builds the next, and cache_clear() on both frees
everything.

Each function that computes with numpy imports it as its first statement,
so numpy is loaded by the first numeric call: importing odelift, reading
any attribute of this module and inspecting it (doctest, inspect, a search
for cache_clear) never load it, and derive and check-paper run without it.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from math import comb
from typing import TYPE_CHECKING, NamedTuple

from .exprparse import (
    Add,
    Div,
    Expr,
    ExprDomainError,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    Var,
    _program,
    eval_expr,
)
from .diffring import _raw
from .lifting import MAX_DERIVE_M, LiftedODE, derive_lifted_ode

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ConfigError",
    "NumericConfig",
    "fundamental_matrix",
    "symbol_values",
    "MonomialResidual",
    "BasisReport",
    "basis_check",
    "monomial_label",
]


#: Largest integration basis_check and fundamental_matrix run, in floats:
#: Phi, 4 a grid point, and p, q and their derivatives to the order the
#: integration evaluates, max(3, upto), 2 a point per order.  That is 12 a
#: point for an int m at every m and for fundamental_matrix, and
#: 4 + 2 max(4, m) for a LiftedODE; 80 MB at the limit.  These are the arrays
#: a check builds: a difference judged adds its value and bound, 2 floats a
#: point, after the integration's temporaries are freed.  The whole check
#: peaks under twice its count (1.83 for an int m at every m, 1.57 to 1.83
#: for a LiftedODE at m = 1, 5 and 10), and the memos' arrays, the grid, Phi
#: and the symbol values, hold 7 floats per point after an int m and
#: 5 + 2 max(1, m) after a LiftedODE (the derived coefficients _derived keeps
#: are not arrays and come on top); see
#: test_power_check_memory_stays_within_five_blocks,
#: test_perturbed_check_memory_stays_within_five_blocks and
#: test_back_to_back_checks_keep_one_checks_arrays.
MAX_BLOCK_FLOATS = 10**7

#: The two verdict rules, fixed so that a PASS means the same at every call:
#: a threshold the caller could move would let a failing check be tuned until
#: it passes.  The residuals pass when the ratio of every difference,
#: rho_k = max_x |delta_k(syms)| / (u |delta_k|(|syms|)) of basis_check with
#: u = 2^-53, is at most RESIDUAL_TOL; the products' Wronskian passes when
#: the sine of the angle between (f, f') and (g, g') at the midpoint exceeds
#: WRONSKIAN_TOL, which is the one test for dependent solutions.
#: RESIDUAL_TOL, kappa, counts roundings.  Differences that vanish as
#: functions leave only rounding, and read at most 8.3 for (p'' + p) c_k at
#: p = sin(x), q = x on 1001 points (m = 3..20, every k), and at most 14.0
#: over seven such identities, p'^2 + p^2 - 1 at p = sin(x) the largest
#: (m = 3..20 on 1001 points, and 9.3 at m = 24 on 101).  A difference that
#: does not vanish reads near 1/u = 9.0e15, since it and its bound then
#: agree to the cancellation in it: (1 + 1e-6) c_k read at least 2.5e13 and
#: c_k + 1 read 9.0e15, for m = 1..20 on the four acceptance pairs.  1024
#: sits 70 times above the first and ten orders of magnitude below the
#: second.
RESIDUAL_TOL = 1024.0
WRONSKIAN_TOL = 1e-8

#: Largest coefficient work basis_check takes on for an explicit LiftedODE:
#: the terms of its differences c_k - d_k to the derived coefficients d_k
#: times the grid points, counted before anything is integrated.
#: DiffPoly.eval forms every term of a difference at every point twice, once
#: for r and once, on magnitudes, for its bound B, at about 6 ns a term-point
#: each (c_1 of m = 9, 115 terms, on 30 001 points in 0.020 to 0.024 s on a
#: 2-vCPU Xeon), so the limit is about two seconds of it: every c_k of
#: derive_lifted_ode(20) doubled on 10 001 points (34 209 terms, 3.42e8) is
#: refused.  An int m and a genuine LiftedODE evaluate no term.
MAX_TERM_POINTS = 2 * 10**8


class ConfigError(ValueError):
    """Raised for unusable numeric configurations."""


class SolutionRangeError(ConfigError):
    """Raised when the solutions of the base equation leave the double range
    on the grid; like a domain error of p or q, it names the first such x."""


class NumericConfig(namedtuple("NumericConfig", "interval step ic_f ic_g")):
    """Interval, step size, and initial conditions for the two base solutions.

    A named tuple of floats: interval, ic_f and ic_g are pairs, ic_f defaulting
    to (1.0, 0.0) and ic_g to (0.0, 1.0).  Every way in, the constructor,
    _make and _replace, converts the values to floats and checks them.  The
    grid must take at least 10 steps, counted as steps counts them, the
    span (b - a)/step rounded.  Linearly dependent initial
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
        if round(span) < 10:  # the step count the grid uses, see steps
            raise ConfigError(f"grid on [{a}, {b}] with step {step} has {round(span)} steps, "
                              f"fewer than 10")
        return super().__new__(cls, interval, step, ic_f, ic_g)

    _make = classmethod(lambda cls, it: cls(*it))

    @property
    def steps(self) -> int:
        """Number of integration steps, (b - a)/step rounded; the constructor
        refuses fewer than 10."""
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
    import numpy as np
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
    """Jet of u^n by square-and-multiply on |n|, O(log |n|) products, and
    for n < 0 one quotient."""
    h = _const(1.0, len(u) - 1)
    for bit in bin(abs(n))[2:]:
        h = _leibniz(h, h)
        if bit == "1":
            h = _leibniz(h, u)
    return _quotient(_const(1.0, len(u) - 1), h) if n < 0 else h


def symbol_values(p: Expr, q: Expr, upto: int, x) -> np.ndarray:
    """Values of p, p', ..., p^(upto) and likewise for q, at x.

    One float array of shape (upto+1, 2, *np.shape(x)), row k holding
    (p^(k), q^(k)) like the stacked (f, g) jet; flattened, row 2k+b is
    symbol slot 2k+b of odelift.diffring.  Derivatives come from one run of
    the post-order program of p and q (exprparse._program), never from
    finite differences: each entry's jet is built once from its arguments'
    jets, so a subtree the two share is evaluated once, and a sin and a cos
    of one argument share one (sin, cos) pair.  A tree that is not an Expr
    raises TypeError before any value is computed.  p's entries run and are
    checked before q's: where a tree's rows are not finite, the scalar
    evaluator is re-run at the first such x, so callers see the precise
    domain error.
    """
    import numpy as np
    xs = np.asarray(x, dtype=float)
    entries, roots, _ = _program(p, q)
    # out goes before the jets, so that they are freed above it; trig maps an
    # argument entry to its (sin, cos) pair
    out, jets, trig = np.empty((upto + 1, 2, *xs.shape)), [], {}

    def jet(node: Expr, args: tuple) -> list:
        if isinstance(node, Num):
            return _const(node.value, upto)
        if isinstance(node, Var):
            return [xs, 1.0, *[0.0] * upto][: upto + 1]
        u = jets[args[0]]
        if isinstance(node, Neg):
            return [-row for row in u]
        if isinstance(node, (Add, Sub)):
            return [a + b if isinstance(node, Add) else a - b for a, b in zip(u, jets[args[1]])]
        if isinstance(node, (Mul, Div)):
            return (_leibniz if isinstance(node, Mul) else _quotient)(u, jets[args[1]])
        if isinstance(node, Pow):
            h = _power(u, node.exponent)
            h[0] = u[0] ** node.exponent  # the power itself, not the product chain's row
            return h
        if node.func == "ln":  # (ln u)' = u'/u
            return [np.log(u[0])] + _quotient(u[1:], u[:-1])
        # (exp u)' = exp(u) u', (sin u)' = cos(u) u', (cos u)' = -sin(u) u':
        # row k+1 of each is row k of a product with the jet u[1:] of u'
        if node.func == "exp":
            h = [np.exp(u[0])]
            for k in range(upto):
                h.append(_leibniz_row(h, u[1:], k))
            return h
        if args[0] not in trig:
            s, c = trig[args[0]] = [np.sin(u[0])], [np.cos(u[0])]
            for k in range(upto):
                s.append(_leibniz_row(c, u[1:], k))
                c.append(-_leibniz_row(s, u[1:], k))
        return trig[args[0]][node.func == "cos"]

    for b, (tree, root) in enumerate(zip((p, q), roots)):
        with np.errstate(all="ignore"):  # a value out of range is the error below
            while len(jets) <= root:
                jets.append(jet(*entries[len(jets)]))
            for k, row in enumerate(jets[root]):  # a row may be a float that broadcasts
                out[k, b] = row
        finite = np.isfinite(out[:, b]).all(axis=0).reshape(-1)
        if not finite.all():
            x_bad = float(xs.reshape(-1)[int(np.argmin(finite))])
            eval_expr(tree, x_bad)
            raise ExprDomainError(tree, x_bad, "non-finite value")
    return out


# --------------------------------------------------------------------------
# integration


def _integrate(p: Expr, q: Expr, cfg: NumericConfig, upto: int) -> tuple:
    """(grid, phi, symbol_values to order upto on the grid), refused with a
    ConfigError before it allocates when phi and the symbol rows would pass
    MAX_BLOCK_FLOATS floats.

    p and q are evaluated once, on the grid, to order max(3, upto): the
    Taylor steps read rows 0..3, and the rows past upto are dropped after.
    Raises SolutionRangeError at the first x where phi is not finite.
    """
    import numpy as np
    points, order = cfg.steps + 1, max(3, upto)
    size = (4 + 2 * (order + 1)) * float(points)  # a float, so the message formats at any size
    if size > MAX_BLOCK_FLOATS:
        raise ConfigError(f"Phi and p, q to order {order} on {points:.3g} grid points need "
                          f"{size:.3g} floats, over the limit {MAX_BLOCK_FLOATS:.0e}; "
                          f"use a larger step")
    a, b = cfg.interval
    grid = np.linspace(a, b, points)
    syms = symbol_values(p, q, order, grid)
    with np.errstate(all="ignore"):  # an overflow is the error below, not a warning
        phi = _transfer(syms, cfg.h)
    finite = np.isfinite(phi).all(axis=0)
    if not finite.all():
        raise SolutionRangeError(f"the solutions leave the double range at "
                                 f"x={grid[np.argmin(finite)]:g}; use a shorter interval")
    return grid, phi, syms[: upto + 1].copy() if upto < 3 else syms


def _transfer(syms: np.ndarray, h: float) -> np.ndarray:
    """Phi from the rows of p, q and their derivatives to order 3 on the grid:
    the prefix products of the order-4 Taylor steps
    T_k = sum_{j<=4} h^j/j! Y^(j)(x_k), where the columns of Y are the
    solutions from (1, 0) and (0, 1) at x_k.

    Row j of their stacked jet y holds the j-th derivatives of those two
    solutions, so the rows of T_k are sum_j h^j/j! y[j] and
    sum_j h^j/j! y[j+1], summed by Horner's rule.  Differentiating
    y'' = p y' + q y k times gives
    y^(k+2) = sum_j C(k,j) (p^(j) y^(k+1-j) + q^(j) y^(k-j)).  Rows 0 and 1
    are the unit columns themselves, so the terms on them are symbol rows,
    added with no product: q^(k) y[0] + p^(k) y[1] = (q^(k), p^(k)) and
    C(k, k-1) q^(k-1) y[1] = (0, k q^(k-1)); row 2 is (q, p) itself.
    _prefix_products then turns the steps into Phi in place.
    """
    import numpy as np
    n = syms.shape[-1] - 1
    # phi goes before the Taylor rows, so that those are freed as one region
    # at the top of the heap.  Allocated after them, verify-cold's peak RSS
    # read 0.35 MB higher and its op_p50_ms 3-6 % slower (20 pairs)
    phi = np.empty((4, n + 1))
    phi[:, 0] = (1.0, 0.0, 0.0, 1.0)
    p, q = syms[:, 0, :-1], syms[:, 1, :-1]
    y = [None, None, syms[0, ::-1, :-1]]
    for k in range(1, 4):  # row k+2, its terms on rows 2.. first
        row = p[0] * y[k + 1]
        for j in range(1, k):
            row += comb(k, j) * p[j] * y[k + 1 - j]
        for j in range(k - 1):
            row += comb(k, j) * q[j] * y[k - j]
        row[0] += q[k]
        row[1] += p[k] + k * q[k - 1]
        y.append(row)
    for r, t in enumerate((phi[:2, 1:], phi[2:, 1:])):  # entries (r, 0) and (r, 1) of every T_k
        np.multiply(y[r + 4], h / 4, out=t)
        for j in (3, 2, 1):
            if r + j > 1:
                t += y[r + j]
            else:
                t[1] += 1.0  # y[1] = (0, 1)
            t *= h / j
        t[r] += 1.0  # y[r] is the unit column r
    del y  # the Taylor rows go before the scan allocates
    _prefix_products(phi.reshape(2, 2, -1)[..., 1:])
    return phi


def _prefix_products(a: np.ndarray) -> None:
    """Replace the 2x2 matrices a[..., k] of a (2, 2, L) array by their
    prefix products a_k ... a_0, in place: the odd-even recursion of a
    work-efficient scan (Brent & Kung, IEEE Trans. Computers 1982; Blelloch,
    CMU-CS-90-190).

    The pair products a_{2j+1} a_{2j} form one contiguous array of half the
    length, whose prefix products, found the same way, are the odd prefixes;
    each even prefix 2j > 0 is then a_{2j} times the odd prefix before it.
    That is under 2L matrix products over ceil(log2 L) levels, each level
    working on half the matrices of the one above, and a prefix passes
    through at most 2 ceil(log2 L) products.  Entry (i, j) of a product A B
    is a_i0 b_0j + a_i1 b_1j, multiplied and added in that order on whole
    rows (a stacked matmul was 1.7-4x slower).  Prefix k multiplies
    a_0, ..., a_k alone, so a matrix a_i that is not finite leaves the
    prefixes before i finite and every one from i on not finite.
    """
    import numpy as np
    n = a.shape[-1]
    half = n // 2
    if not half:
        return
    odd, even = a[..., 1::2], a[..., : 2 * half : 2]
    pairs = np.multiply(odd[:, :1], even[:1])
    pairs += odd[:, 1:] * even[1:]
    _prefix_products(pairs)
    odd[...] = pairs
    if n > 2:
        even, before = a[..., 2::2], pairs[..., : (n - 1) // 2]
        fixed = np.multiply(even[:, :1], before[:1])
        fixed += even[:, 1:] * before[1:]
        even[...] = fixed


def fundamental_matrix(p: Expr, q: Expr, cfg: NumericConfig) -> tuple[np.ndarray, np.ndarray]:
    """Grid and fundamental matrix of y'' = p(x) y' + q(x) y by the Taylor
    method of order 4.

    n = cfg.steps steps of h = cfg.h.  The equation is linear, so step k is
    a 2x2 transfer matrix T_k = sum_{j<=4} h^j/j! Y^(j)(x_k), the Taylor sum
    of the solutions Y from the identity at x_k, whose derivatives the
    solution jet takes from p, q and their derivatives to order 3 at x_k
    alone; at constant p and q it is the classical Runge-Kutta step matrix.
    A work-efficient scan over all T_k gives Phi_k = T_{k-1} ... T_0 with
    under 2n 2x2 products, in ceil(log2 n) halving levels down and as many
    back, so each Phi_k passes through at most 2 ceil(log2 n) products.
    Returns (grid, phi) with phi of shape (4, n+1):
    the rows phi00, phi01, phi10, phi11, so the solution from (y, y') = ic
    at x = a is (phi00 y + phi01 y', phi10 y + phi11 y') and det Phi
    approximates exp(int_a^x p).  Domain errors of p or q and of their
    derivatives to order 3 surface with the offending x.  Raises
    ConfigError when phi and the symbol rows to order 3 would hold more
    than MAX_BLOCK_FLOATS floats, 12 a grid point, and SolutionRangeError,
    a ConfigError, at the first x where phi is not finite.
    """
    return _integrate(p, q, cfg, 0)[:2]


def _solution(phi: np.ndarray, ic) -> tuple[np.ndarray, np.ndarray]:
    """(y, y') over the grid for (y, y') = ic at its start: Phi @ ic."""
    y0, yp0 = ic
    return phi[0] * y0 + phi[1] * yp0, phi[2] * y0 + phi[3] * yp0


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


@_one_slot
def _base(p: Expr, q: Expr, cfg: NumericConfig, upto: int) -> tuple:
    """(grid, phi, syms), all read-only: _integrate with the symbols up to
    order upto, the highest the check reads (0 for an int m, m-1 for a
    LiftedODE).

    Without this memo each check integrates again, and verify-batch wall_s
    went from 0.130 to 0.165 s (+27 %).
    """
    entry = _integrate(p, q, cfg, upto)
    for array in entry:
        array.flags.writeable = False
    return entry


@_one_slot
def _derived(m: int) -> tuple:
    """The coefficients c_0, ..., c_m of derive_lifted_ode(m)."""
    return derive_lifted_ode(m).coeffs


def _unit(ic: tuple) -> tuple:
    """ic scaled to a unit vector; a zero vector stays zero.  ic is divided
    by max(|a|, |b|) first, so the norm cannot overflow for finite entries
    near the double maximum."""
    s = max(map(abs, ic))
    if s == 0.0:
        return ic
    a, b = ic[0] / s, ic[1] / s
    norm = math.hypot(a, b)
    return a / norm, b / norm


# --------------------------------------------------------------------------
# basis report


def _worst_ratio(diffs: dict, syms: np.ndarray) -> float:
    """The largest rho_k = max_x |delta_k(syms)| / (u |delta_k|(|syms|)) over
    the differences delta_k in diffs, u = 2^-53, rho_k taken as 0 where
    delta_k(syms) = 0; |delta_k| is delta_k with every coefficient replaced by
    its absolute value.  A difference or bound that is not finite gives nan
    or inf, and numpy's max keeps a nan that Python's max() would drop.
    """
    import numpy as np
    magnitudes, ratios = np.abs(syms), []
    for delta in diffs.values():
        r = np.abs(delta.eval(syms))  # a scalar for a constant delta
        bound = _raw({mono: abs(c) for mono, c in delta.terms.items()}).eval(magnitudes)
        ratio = np.divide(r, 2.0**-53 * bound, out=np.zeros(syms.shape[2:]), where=r != 0)
        ratios.append(np.max(ratio))
    return float(np.max(ratios))


def monomial_label(i: int, j: int) -> str:
    """Short name for f^i g^j, e.g. 'f^3*g'."""
    parts = []
    if i > 0:
        parts.append("f" if i == 1 else f"f^{i}")
    if j > 0:
        parts.append("g" if j == 1 else f"g^{j}")
    return "*".join(parts) if parts else "1"


class MonomialResidual(NamedTuple):
    """The residual verdict of one product f^i g^j: max_residual is the
    largest rho_k of basis_check over the differences delta_k, the same for
    every product, since each product satisfies the equation at x iff every
    delta_k(x) = 0; 0.0 where nothing differs from the derived equation, and
    nan or inf where a difference or its bound is not finite."""

    i: int
    j: int
    max_residual: float
    passed: bool

    @property
    def label(self) -> str:
        return monomial_label(self.i, self.j)


class BasisReport(NamedTuple):
    """Outcome of basis_check: residual per monomial plus one Wronskian; step is cfg.h.

    A residual passes at most RESIDUAL_TOL and the Wronskian when
    wronskian_ratio exceeds WRONSKIAN_TOL; summary() prints both constants.
    For an int m, or the derived equation itself, every residual is 0.0:
    certified by the identity, not measured.  For a LiftedODE that differs,
    every residual is the largest rho_k of its differences.
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
    derived equation of order m+1.  The derived equation's residual is zero
    in exact arithmetic at the grid's own values (see the module docstring),
    so an int m, and a LiftedODE whose every c_k == the derived d_k, report
    max_residual 0.0 for every product and pass, with no c_k formed.  A
    LiftedODE that differs judges only its differences delta_k = c_k - d_k.
    At each x the residuals of the m+1 products are their Wronskian matrix
    times the vector of the delta_k(x), and that matrix's determinant, the
    closed form below, is nonzero at every x for independent solutions
    (Abel), so every product satisfies the equation at x iff every
    delta_k(x) = 0: the solutions do not enter the verdict.  Each difference
    is evaluated with DiffPoly.eval on the grid's symbols, and its bound
    |delta_k|(|syms|), |delta_k| being delta_k with every coefficient
    replaced by its absolute value, on their magnitudes.  The check passes
    iff every rho_k = max_x |delta_k(syms)| / (u |delta_k|(|syms|)),
    u = 2^-53, 0 where delta_k(syms) = 0, is at most RESIDUAL_TOL; every
    product reports the largest rho_k, and a nan fails.

    Every check also reports the midpoint Wronskian of all m+1 products of
    the solutions from cfg.ic_f and cfg.ic_g, (prod_{k<=m} k!) W^N with
    W = W(f, g) and N = m(m+1)/2; its scale, Hadamard's bound, puts
    n = |(f, f')| |(g, g')| in place of W.  The products pass when |W| / n,
    at most 1, exceeds WRONSKIAN_TOL: the same test at every m, and the only
    test for dependent solutions.  That ratio is taken from the unit vectors
    (f, f')/|(f, f')| and (g, g')/|(g, g')|, so it stays right where W or n
    alone overflows or underflows.

    Raises ConfigError for an int m below 1, for a LiftedODE with m above
    MAX_DERIVE_M (pass the int m instead), and, for a LiftedODE only, when
    the terms of its differences c_k - d_k times the grid points pass
    MAX_TERM_POINTS, or, naming k, when a difference holds a derivative of
    order above max(0, m-1), the highest the grid holds, or a coefficient
    that float() cannot take; these guards run before anything is
    integrated.  The integration raises ConfigError before it allocates when
    Phi and the symbol rows would pass MAX_BLOCK_FLOATS floats, and
    SolutionRangeError, naming x, when Phi is not finite, before any
    difference is evaluated.  Any other ode, a bool included, raises
    TypeError.

    The memo keys hold p and q themselves, whose == compares node for node
    and literals by repr, and every other float by repr, so a report from
    the memos (see the module docstring) is the one a cold call gives.
    """
    import numpy as np
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
    upto = 0 if derived else m - 1  # the symbol order the check reads: an int m reads Phi alone
    diffs = {} if derived else {k: c - d for k, (c, d) in enumerate(zip(ode.coeffs, _derived(m, m)))
                                if c != d}
    work = sum(len(c.terms) for c in diffs.values()) * float(points)
    if work > MAX_TERM_POINTS:
        raise ConfigError(
            f"m={m} on {points:.3g} grid points would evaluate {work:.3g} coefficient terms, "
            f"over the limit {MAX_TERM_POINTS:.0e}; use a larger step or a smaller m"
        )
    for k, c in diffs.items():  # DiffPoly.eval reads the grid's symbols and float coefficients
        if c.max_order() > upto:
            raise ConfigError(f"c_{k} holds a derivative of order {c.max_order()}, past the "
                              f"order {upto} that m={m} evaluates p and q to")
        try:
            float(max(map(abs, c.terms.values())))  # float() overflows first on the largest
        except OverflowError:
            raise ConfigError(f"c_{k} has a coefficient past the double range") from None
    with np.errstate(all="ignore"):  # overflow to inf and nan fails the checks, silently
        grid, phi, syms = _base((p, q, repr(cfg.interval), cfg.steps, upto), p, q, cfg, upto)
        worst = _worst_ratio(diffs, syms) if diffs else 0.0
        residuals = [MonomialResidual(m - j, j, worst, worst <= RESIDUAL_TOL) for j in range(m + 1)]

        mid = len(grid) // 2
        (f, fp), (g, gp) = (map(float, _solution(phi[:, mid], ic)) for ic in (cfg.ic_f, cfg.ic_g))
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
        wronskian_x=float(grid[mid]),
    )
