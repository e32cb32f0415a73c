"""Independent exact checks for derive output and numeric checks for verify.

Nothing here imports odelift.  A polynomial is a dict mapping a monomial
key to a Fraction; the key is a sorted tuple of (base, order, exponent)
triples, so equal polynomials have equal dicts.

`check_lifted` tests the claim that the derive output is about: every
c_k must annihilate all m+1 products f^(m-j) g^j of two solutions of
y'' = p y' + q y.  It draws random rational jets of p and q at a point,
builds exact Taylor jets of f and g from the base equation, multiplies
them out, and requires y^(m+1) + sum c_k y^(k) to be exactly zero for
every product.  A wrong coefficient survives that only if it happens to
vanish at the random point, which the nonzero jets make unlikely.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from pathlib import Path


class OracleMismatch(AssertionError):
    """The program's output disagrees with the independent check."""


# ---------------------------------------------------------------------------
# polynomials in p, p', ..., q, q', ...


def _mono_mul(a: tuple, b: tuple) -> tuple:
    exps: dict = {}
    for base, order, exp in a + b:
        exps[(base, order)] = exps.get((base, order), 0) + exp
    return tuple(sorted((s, o, e) for (s, o), e in exps.items()))


def _accumulate(out: dict, key: tuple, coeff: Fraction) -> None:
    value = out.get(key, 0) + coeff
    if value:
        out[key] = value
    else:
        out.pop(key, None)


def _poly_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for key, coeff in b.items():
        _accumulate(out, key, sign * coeff)
    return out


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            _accumulate(out, _mono_mul(ka, kb), ca * cb)
    return out


def poly_from_terms(terms: list) -> dict:
    """Polynomial from the `terms` list of the derive JSON schema."""
    out: dict = {}
    for term in terms:
        key = tuple(sorted((f["sym"], f["order"], f["exp"]) for f in term["monomial"]))
        _accumulate(out, key, Fraction(int(term["num"]), int(term["den"])))
    return out


_TOKEN = re.compile(r"\s*(?:(\d+)|([pq])('*)|(.))")


def parse_table_line(text: str) -> dict:
    """Parse one line of a bundled coefficient table.

    Grammar: sums and differences of products of integers, symbols such as
    p'' and parenthesised sums, each optionally raised to ^integer.
    """
    tokens = []
    for number, base, primes, other in _TOKEN.findall(text):
        if number:
            tokens.append(("num", int(number)))
        elif base:
            tokens.append(("sym", (base, len(primes))))
        elif other.strip():
            tokens.append(("op", other))
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else ("end", None)

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def expr() -> dict:
        sign = 1
        if peek() in (("op", "-"), ("op", "+")):
            sign = -1 if take()[1] == "-" else 1
        total = {k: sign * v for k, v in term().items()}
        while peek() in (("op", "-"), ("op", "+")):
            sign = -1 if take()[1] == "-" else 1
            total = _poly_add(total, term(), sign)
        return total

    def term() -> dict:
        product = factor()
        while peek() == ("op", "*"):
            take()
            product = _poly_mul(product, factor())
        return product

    def factor() -> dict:
        kind, value = take()
        if kind == "num":
            base = {(): Fraction(value)}
        elif kind == "sym":
            base = {((value[0], value[1], 1),): Fraction(1)}
        elif (kind, value) == ("op", "("):
            base = expr()
            if take() != ("op", ")"):
                raise ValueError(f"unbalanced parentheses in {text!r}")
        else:
            raise ValueError(f"unexpected {value!r} in {text!r}")
        if peek() == ("op", "^"):
            take()
            kind, exp = take()
            if kind != "num":
                raise ValueError(f"bad exponent in {text!r}")
            out = {(): Fraction(1)}
            for _ in range(exp):
                out = _poly_mul(out, base)
            base = out
        return base

    poly = expr()
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return poly


def load_table(fixture_dir: Path, m: int) -> list:
    lines = (fixture_dir / f"order_m{m}.txt").read_text().splitlines()
    return [parse_table_line(line) for line in lines if line.strip()]


# ---------------------------------------------------------------------------
# exact Taylor jets


def _rational(rng: random.Random) -> Fraction:
    """A random nonzero rational with small numerator and denominator."""
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))


def _series_mul(a: list, b: list) -> list:
    n = len(a)
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]


def _solution_jet(p: list, q: list, y0: Fraction, y1: Fraction, n: int) -> list:
    """Taylor coefficients Y_0..Y_{n-1} of the solution of y'' = p y' + q y.

    p and q are Taylor coefficients; coefficient k of y'' is
    (k+2)(k+1) Y_{k+2}, of p y' is sum_i P_i (k-i+1) Y_{k-i+1}.
    """
    y = [y0, y1]
    for k in range(n - 2):
        acc = sum(p[i] * (k - i + 1) * y[k - i + 1] + q[i] * y[k - i] for i in range(k + 1))
        y.append(acc / ((k + 2) * (k + 1)))
    return y


def _evaluate(poly: dict, values: dict) -> Fraction:
    total = Fraction(0)
    for key, coeff in poly.items():
        term = coeff
        for base, order, exp in key:
            term *= values[(base, order)] ** exp
        total += term
    return total


def check_lifted(m: int, coeffs: list, rng: random.Random) -> None:
    """Raise OracleMismatch unless c_0..c_m form the lifted equation for m.

    Checks integrality, the derivative-order bound max(m-1, 0), and exact
    annihilation of all m+1 products at one random rational jet.
    """
    if len(coeffs) != m + 1:
        raise OracleMismatch(f"m={m}: expected {m + 1} coefficients, got {len(coeffs)}")
    bound = max(m - 1, 0)
    for k, c in enumerate(coeffs):
        for key, coeff in c.items():
            if coeff.denominator != 1:
                raise OracleMismatch(f"m={m}: c_{k} has the non-integer coefficient {coeff}")
            if any(order > bound for _, order, _ in key):
                raise OracleMismatch(f"m={m}: c_{k} uses a derivative above order {bound}")

    n = m + 2  # Taylor coefficients 0..m+1
    pv = [_rational(rng) for _ in range(m)]
    qv = [_rational(rng) for _ in range(m)]
    values = {("p", i): pv[i] for i in range(m)}
    values.update({("q", i): qv[i] for i in range(m)})
    taylor_p = [pv[i] / math.factorial(i) for i in range(m)]
    taylor_q = [qv[i] / math.factorial(i) for i in range(m)]
    f = _solution_jet(taylor_p, taylor_q, _rational(rng), _rational(rng), n)
    g = _solution_jet(taylor_p, taylor_q, _rational(rng), _rational(rng), n)
    c_vals = [_evaluate(c, values) for c in coeffs]

    f_pows = [[Fraction(1)] + [Fraction(0)] * (n - 1)]
    g_pows = [[Fraction(1)] + [Fraction(0)] * (n - 1)]
    for _ in range(m):
        f_pows.append(_series_mul(f_pows[-1], f))
        g_pows.append(_series_mul(g_pows[-1], g))
    for j in range(m + 1):
        y = _series_mul(f_pows[m - j], g_pows[j])
        derivs = [y[k] * math.factorial(k) for k in range(n)]
        residual = derivs[m + 1] + sum(c_vals[k] * derivs[k] for k in range(m + 1))
        if residual:
            raise OracleMismatch(f"m={m}: the equation does not annihilate f^{m - j}*g^{j}")


def check_derive_doc(doc: dict, m: int, rng: random.Random, fixture_dir: Path) -> None:
    """All checks on one `derive --style json` document."""
    if doc.get("m") != m or doc.get("monic") is not True:
        raise OracleMismatch(f"m={m}: document header is {doc.get('m')!r}/{doc.get('monic')!r}")
    ks = [entry["k"] for entry in doc["coeffs"]]
    if ks != list(range(m + 1)):
        raise OracleMismatch(f"m={m}: coefficient indices {ks}")
    coeffs = [poly_from_terms(entry["terms"]) for entry in doc["coeffs"]]
    check_lifted(m, coeffs, rng)
    if (fixture_dir / f"order_m{m}.txt").exists():
        if coeffs != load_table(fixture_dir, m):
            raise OracleMismatch(f"m={m}: derived coefficients differ from the bundled table")


# ---------------------------------------------------------------------------
# verify: Abel's formula for the Wronskian


def simpson(fn, a: float, b: float, intervals: int = 2000) -> float:
    """Composite Simpson rule with an even number of intervals."""
    if a == b:
        return 0.0
    h = (b - a) / intervals
    total = fn(a) + fn(b)
    for i in range(1, intervals):
        total += (4 if i % 2 else 2) * fn(a + i * h)
    return total * h / 3.0


def lifted_wronskian(m: int, ic_f, ic_g, p_fn, a: float, x: float) -> float:
    """W(f^m, f^(m-1) g, ..., g^m)(x) from the closed form.

    The Wronskian of all degree-m products is (prod_{k<=m} k!) times
    W(f, g)^(m(m+1)/2), and Abel's formula gives
    W(f, g)(x) = W(f, g)(a) exp(integral of p from a to x).
    """
    w0 = ic_f[0] * ic_g[1] - ic_f[1] * ic_g[0]
    wfg = w0 * math.exp(simpson(p_fn, a, x))
    factorials = math.prod(math.factorial(k) for k in range(m + 1))
    return factorials * wfg ** (m * (m + 1) // 2)
