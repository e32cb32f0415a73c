"""Test oracles: independent constructions the shipped code is judged against.

The ring-level derivation `derive` (Leibniz on DiffPoly terms, one unit of
exponent from slot s to slot s+2) and the exact evaluator `eval_exact` are
references only: the package derives on packed keys in odelift.lifting and
evaluates in floats with DiffPoly.eval.

The token scanner `reference_parse_poly`, which reads one token ahead
through a scanner object, is the reference for odelift.diffring.parse_poly,
which reads the text in one pass from an index: both must give the same
term map in the same order, or the same PolyParseError at the same
position.

The derivative tower of y = f^m in coordinates over the basis
B_i = f^(m-i) (f')^i, with f'' rewritten as p f' + q f, is the oracle for
the symmetric-power recurrence in odelift.lifting: the derived equation
must send the tower's last row plus sum_k c_k (row k) to zero in every
coordinate.

The symmetric-power recurrence stepped in DiffPoly ring arithmetic,
a' - i p a + shifted - i (m-i+1) q b per entry, is the reference for
odelift.lifting.derive_lifted_ode, which steps the same recurrence on
packed integer keys: every c_k must hold the same terms in the same
order, because that order is DiffPoly.eval's summation order.

Euler's equation y'' = (a/x) y' + (b/x^2) y, with a = r1 + r2 - 1 and
b = -r1 r2, has the solutions x^r1 and x^r2, so the m+1 products of degree
m are x^lam_j, lam_j = (m-j) r1 + j r2.  The monic equation of order m+1
with those solutions is unique, so the derived one is the Euler operator
whose indicial polynomial is P(lam) = prod_j (lam - lam_j).  Written in
falling factorials, P(lam) = sum_k e_k lam (lam-1) ... (lam-k+1) with
e_k = Delta^k P(0) / k!, and then c_k = e_k x^(k-m-1).  Every symbol
p^(j) = a (-1)^j j!/x^(j+1) and q^(j) = b (-1)^j (j+1)!/x^(j+2) is nonzero,
so every term of every c_k takes part.  Constant p = r1 + r2 and
q = -r1 r2, with every derivative symbol zero, is the weaker case whose
solutions are exp(r x): there the c_k are the coefficients of
prod_j (d - lam_j).  The derivatives of x^lam_j are closed forms too, the
reference for the product block on Euler's basis.

The support theorem gives every c_k's set of terms: with p^(j) weighing
j+1 and q^(j) weighing j+2, c_k holds every monomial of weight m+1-k, but
c_0 none in p alone (at q = 0, y = 1 solves the base equation, so c_0
vanishes there).  So terms(c_k) = a(m+1-k) for k >= 1 and terms(c_0) =
a(m+1) - P(m+1), with a(n) the monomials of weight n and P the partition
numbers, both coefficients of products of geometric series.

The table comparison on DiffPolys, `reference_check_against_fixture` (each
line compared with derive_lifted_ode's c_k as a DiffPoly and subtracted
from it where they differ), is the reference for
odelift.lifting.check_against_fixture and check_table, which compare term
maps on slot-layout keys and build no Monomial unless a line differs: both
must give the same matched flags and the same difference polynomials, term
for term.  parse_poly's terms packed by odelift.lifting._slot_key are the
reference for the keyed reading of a table line.
The derive document built as nested dicts and lists, passed through
odelift.cli.canonical_json, is the oracle for odelift.cli.derive_json.

The term-by-term printer `reference_format_poly`, which sorts a DiffPoly's
Monomials with a graded-lex Python key and writes each monomial from its
factors, is the reference for odelift.diffring.format_poly, which sorts
print-layout keys as ints and formats each distinct factor once per call
(term_writer): both must give the same text, byte for byte, in both
styles.  `reference_derive_text` is `derive`'s plain or LaTeX output
printed that way from derive_lifted_ode.

The product block built term by term, every power jet of f and of g on its
own from the constant-1 jet up and every column as its own Leibniz product
of two power jets, holds derivatives 0..m+1 of all m+1 products f^(m-j) g^j
(its top square is their Wronskian matrix).  odelift.verify builds no
product block: the running-error bound and Euler's closed form below read
this one.  Its jets are plain lists built by its own helpers, so it shares
no code with odelift.verify; all it takes from there is the symbol layout,
row k of odelift.verify.symbol_values holding (p^(k), q^(k)).
scaled_solution divides (f, f') and (g, g') from Phi at every grid point by
max(|y|, |y'|), so that no power in the block overflows.

The symmetric-power recurrence run in floats on the symbol array,
`recurrence_values`, gives the rows c_0, ..., c_m of the derived equation
on a grid with no term formed.  basis_check does not read them: the
derived equation's residual is an identity it certifies.  The rows stay
here as the float form of the recurrence that the modular carrier runs on
residues: tests hold them to DiffPoly.eval of the expanded c_k and to
Euler's closed form, and majorised_check reads them.

The running-error bound of a residual (Wilkinson; Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., 3.3) is the measure a
verdict that does not depend on m can rest on.  r = y^(m+1) + sum c_k y^(k)
is formed with + and x only, and every jet weight is positive, so the same
program run on magnitudes bounds its rounding:
B = major_(m+1) + sum |c_k| major_k, with major the product block on |f|,
|f'|, |g|, |g'| and |syms|, and |c_k| the recurrence rows on -|syms|
(every term of a derived c_k has the sign (-1)^degree, so there every
term is non-negative).  A true basis has r = 0 exactly, so |fl(r)| <=
gamma B whatever the integrator's error.  These helpers build both pieces
from the package's integration and the term-by-term block.

The modular carrier is the exact check of the same identity.  Every double
it is fed, f, f', g and g' from the package's Phi after scaled_solution and
the package's symbol rows, is a dyadic rational, and r is a polynomial in them with
integer coefficients.  So r is zero over the rationals for a true identity,
and stays zero modulo any prime P past m, where the powers of 2 and the
1/j!, j < m, of the recurrence's Taylor rows invert.  The carrier maps each
double to its residue exactly and runs the solution jet, the Leibniz power
chain, the middle products and the c_k recurrence on int64 residues,
reducing after each product; with P below 2^31 no product passes 2^62.  A
nonzero residual can still vanish modulo one fixed prime, at the rate at
which P divides the numerator of a rational (Schwartz, J. ACM 1980; Zippel,
EUROSAM 1979), so the pin requires r = 0 modulo two.  Its kernels share no
code with odelift.verify; all it takes from there is the doubles
themselves.

The recursive jet walk, which builds the jet of each tree on its own, one
frame per tree level, is the reference for odelift.verify.symbol_values,
which runs the post-order program of p and q once for both: every output
byte and every error must be the same.  The walk takes its row kernels
(_leibniz_row, _leibniz, _quotient, _power) from odelift.verify, so what
it checks is the order of the work, not the kernels.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod

import numpy as np

from odelift import verify
from odelift.diffring import DiffPoly, MissingSymbolError, Monomial, P, PolyParseError, Q
from odelift.diffring import Scalar, parse_poly, poly_terms_doc
from odelift.diffring import _BASES, _MAX_NESTING, _MAX_SCALE_BITS, _new_key, _raw, _settle
from odelift.diffring import _parse_terms, _slot_order
from odelift.exprparse import Add, Call, Div, Expr, ExprDomainError, Mul, Neg, Num, Pow, Sub, Var
from odelift.exprparse import eval_expr
from odelift.lifting import CoefficientCheck, FixtureFormatError, FixtureReport, LiftedODE
from odelift.lifting import _slot_key, derive_lifted_ode

_P = DiffPoly.symbol(P())
_Q = DiffPoly.symbol(Q())


def derive(poly: DiffPoly) -> DiffPoly:
    """Formal total derivative: linear, Leibniz on products, and each
    symbol of order k maps to the symbol of order k+1, that is one unit
    of exponent moves from slot s to slot s+2."""
    out: dict = {}
    get = out.get
    for mono, coeff in poly.terms.items():
        n = len(mono)
        for s in _slot_order(n):
            e = mono[s]
            if not e:
                continue
            exps = list(mono)
            exps.extend([0] * (s + 3 - n))  # room for slot s+2
            exps[s] = e - 1
            exps[s + 2] += 1
            new_mono = _new_key(Monomial, exps)
            c = get(new_mono, 0) + coeff * e
            if c:
                out[new_mono] = c if c.__class__ is int else _settle(c)
            else:
                del out[new_mono]
    return _raw(out)


def eval_exact(poly: DiffPoly, values) -> Fraction:
    """Evaluate at Fraction (or int) symbol values with exact arithmetic;
    each power is taken once per call."""
    total, powers = Fraction(0), {}
    for mono, coeff in poly.terms.items():
        value = coeff
        for factor in mono.factors:
            if factor not in powers:
                sym, exp = factor
                try:
                    v = values[sym]
                except KeyError:
                    raise MissingSymbolError(sym) from None
                powers[factor] = Fraction(v) ** exp
            value = value * powers[factor]
        total += value
    return total


class _PolyScanner:
    """Tokenizer for the plain polynomial grammar.

    Tokens: integers (with optional /denominator forming an exact rational),
    the symbols p and q with trailing apostrophes (valued by their slot),
    the operators + - * ^, and parentheses.  Whitespace is insignificant.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.advance()  # sets kind, value and token_pos

    def advance(self) -> None:
        text, n = self.text, len(self.text)
        i = self.pos
        while i < n and text[i].isspace():
            i += 1
        self.token_pos = i
        if i >= n:
            self.kind, self.value, self.pos = "end", None, i
            return
        ch = text[i]
        if ch.isdecimal():  # isdigit() would also take digits int() refuses, such as '²'
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            num = self._integer(i, j)
            # A '/' directly after an integer forms a rational literal.
            if j < n and text[j] == "/":
                k = j + 1
                while k < n and text[k].isdecimal():
                    k += 1
                if k == j + 1:
                    raise PolyParseError("expected digits after '/'", j + 1)
                den = self._integer(j + 1, k)
                if not den:
                    raise PolyParseError("zero denominator", j + 1)
                self.kind, self.value, self.pos = "number", Fraction(num, den), k
            else:
                self.kind, self.value, self.pos = "number", num, j
            return
        if ch in _BASES:
            j = i + 1
            while j < n and text[j] == "'":
                j += 1
            self.kind, self.value, self.pos = "symbol", 2 * (j - i - 1) + _BASES.index(ch), j
            return
        if ch in "+-*^()":
            self.kind, self.value, self.pos = ch, ch, i + 1
            return
        raise PolyParseError(f"unexpected character {ch!r}", i)

    def _integer(self, start: int, end: int) -> int:
        try:
            return int(self.text[start:end])
        except ValueError:  # past the interpreter's limit on digits for int()
            message = f"integer literal of {end - start} digits is too long"
            raise PolyParseError(message, start) from None


def reference_parse_poly(text: str) -> DiffPoly:
    """parse_poly as a token scanner reads it: the reference that the
    one-pass reader in odelift.diffring must match in terms, term order,
    exception, message and position.  The scanner reads one token ahead,
    so a malformed token right after a valid one is refused as soon as
    the valid one is consumed."""
    scanner = _PolyScanner(text)
    terms: dict = {}
    _parse_sum(scanner, 1, terms, 0, "end")
    return _raw(terms)


def _parse_sum(
    scanner: _PolyScanner, scale: Scalar, terms: dict, depth: int, close: str
) -> None:
    """Write the terms of a sum, each times ``scale``, into ``terms``, and
    read the token ``close`` that ends it."""
    while True:
        sign = -1 if scanner.kind == "-" else 1
        if scanner.kind in "+-":
            scanner.advance()
        _parse_term(scanner, scale * sign, terms, depth)
        if scanner.kind not in "+-":
            break
    if scanner.kind != close:
        message = f"expected a sign or {close!r}, found {scanner.kind!r}"
        raise PolyParseError(message, scanner.token_pos)
    scanner.advance()


def _parse_term(scanner: _PolyScanner, coeff: Scalar, terms: dict, depth: int) -> None:
    """Write one term, times ``coeff``, into ``terms``: a monomial, or the
    terms of the parenthesized sum that ends it."""
    exps: list[int] = []
    while True:
        kind, value, position = scanner.kind, scanner.value, scanner.token_pos
        if kind == "(":
            if exps:
                raise PolyParseError("a sum may follow only rationals", position)
            if depth == _MAX_NESTING:
                raise PolyParseError(f"sums nested over {_MAX_NESTING} deep", position)
            if coeff.numerator.bit_length() + coeff.denominator.bit_length() > _MAX_SCALE_BITS:
                raise PolyParseError(f"a sum scaled by over {_MAX_SCALE_BITS} bits", position)
            scanner.advance()
            _parse_sum(scanner, coeff, terms, depth + 1, ")")
            if scanner.kind in "*^":
                raise PolyParseError("a sum must be the last factor of its term", scanner.token_pos)
            return
        if kind not in ("number", "symbol"):
            raise PolyParseError(f"expected number, symbol, or '(', found {kind!r}", position)
        scanner.advance()
        if kind == "number":
            coeff = coeff * value
        else:
            exp = 1
            if scanner.kind == "^":
                scanner.advance()
                exp = scanner.value
                if scanner.kind != "number" or exp.denominator != 1 or exp <= 0:
                    raise PolyParseError("expected a positive integer exponent", scanner.token_pos)
                scanner.advance()
            exps.extend([0] * (value + 1 - len(exps)))
            exps[value] += int(exp)
        if scanner.kind == "^":
            raise PolyParseError("'^' applies only to a symbol", scanner.token_pos)
        if scanner.kind != "*":
            break
        scanner.advance()
    mono = _new_key(Monomial, exps)
    c = terms.get(mono, 0) + coeff
    if c:
        terms[mono] = _settle(c)
    else:
        terms.pop(mono, None)


#: The characters of the differential corpus: the grammar's own,
#: whitespace, '²' (a digit to str.isdigit, not to int()) and '$'.
PARSE_ALPHABET = "pq'^*+-()/ \t0123456789\u00b2$"


def parse_corpus(seed: int, count: int) -> list[str]:
    """``count`` seeded strings over PARSE_ALPHABET.  Three in ten are
    drawn a character at a time.  The rest are sums in the grammar, up to
    four terms nested up to three deep, with none, one or two characters
    inserted, deleted or replaced, so that a malformed token falls deep
    in a line and right after a valid one."""
    rng = random.Random(seed)

    def space():
        return rng.choice(("", "", "", " ", "\t"))

    def rational():
        return str(rng.randint(0, 120)) + (f"/{rng.randint(0, 9)}" if rng.random() < 0.3 else "")

    def factor():
        if rng.random() < 0.3:
            return rational()
        symbol = rng.choice("pq") + "'" * rng.randint(0, 3)
        return symbol + (f"^{rng.randint(0, 4)}" if rng.random() < 0.3 else "")

    def poly(depth):
        parts = []
        for t in range(rng.randint(1, 4)):
            sign = rng.choice(("", "-", "+")) if t == 0 else rng.choice("+-")
            if depth < 3 and rng.random() < 0.15:
                factors = [rational() for _ in range(rng.randint(0, 2))]
                factors.append(f"({poly(depth + 1)})")
            else:
                factors = [factor() for _ in range(rng.randint(1, 3))]
            times = space() + "*" + space()
            parts.append(space() + sign + space() + times.join(factors))
        return "".join(parts)

    texts = []
    for _ in range(count):
        if rng.random() < 0.3:
            texts.append("".join(rng.choices(PARSE_ALPHABET, k=rng.randint(0, 16))))
            continue
        chars = list(poly(0))
        for _ in range(rng.choice((0, 1, 1, 2))):
            at = rng.randrange(len(chars) + 1)
            edit = rng.randrange(3)
            if edit == 0:
                chars.insert(at, rng.choice(PARSE_ALPHABET))
            elif at < len(chars):
                if edit == 1:
                    del chars[at]
                else:
                    chars[at] = rng.choice(PARSE_ALPHABET)
        texts.append("".join(chars))
    return texts


def _reading(reader, text: str):
    """What ``reader`` makes of ``text``: its terms in order, each with
    its coefficient's type, or its exception's type, message and
    position.  ``reader`` gives a DiffPoly or a term map."""
    try:
        terms = reader(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    terms = getattr(terms, "terms", terms)
    return [(key, coeff, type(coeff)) for key, coeff in terms.items()]


def _keyed_reader(text: str) -> dict:
    """A table line read as check-paper reads it: on slot-layout keys."""
    return _parse_terms(text, _slot_key)


def parse_disagreements(texts) -> list[str]:
    """The texts that parse_poly and reference_parse_poly read apart, or
    that the keyed reading reads apart from parse_poly's terms packed by
    _slot_key: another exception, message or position, other terms, or
    the same terms in another order."""
    out = []
    for t in texts:
        reading = _reading(parse_poly, t)
        packed = reading
        if isinstance(reading, list):
            packed = [(_slot_key(mono), coeff, kind) for mono, coeff, kind in reading]
        if reading != _reading(reference_parse_poly, t) or _reading(_keyed_reader, t) != packed:
            out.append(t)
    return out


def reference_check_against_fixture(m: int, fixture) -> FixtureReport:
    """The table comparison on DiffPolys: each line compared with
    derive_lifted_ode's c_k by DiffPoly equality, and subtracted from it
    where they differ."""
    if len(fixture) != m + 1:
        raise FixtureFormatError(
            f"fixture for m={m} must list {m + 1} coefficients, got {len(fixture)}"
        )
    checks = []
    for k, (derived, expected) in enumerate(zip(derive_lifted_ode(m).coeffs, fixture)):
        if derived == expected:
            checks.append(CoefficientCheck(k, True, DiffPoly()))
        else:
            checks.append(CoefficientCheck(k, False, derived - expected))
    return FixtureReport(m, tuple(checks))


@dataclass(frozen=True)
class ModuleVector:
    """Coordinates of one derivative of y = f^m over the basis B_i.

    ``coords[i]`` multiplies B_i = f^(m-i) (f')^i; the tuple always has
    length m+1.
    """

    m: int
    coords: tuple[DiffPoly, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"power m must be >= 1, got {self.m}")
        if len(self.coords) != self.m + 1:
            raise ValueError(
                f"coordinate vector for m={self.m} must have length {self.m + 1}, "
                f"got {len(self.coords)}"
            )


def falling_factorial(m: int, k: int) -> int:
    """m * (m-1) * ... * (m-k+1), i.e. m!/(m-k)! as an integer."""
    out = 1
    for t in range(k):
        out *= m - t
    return out


def basis_step(v: ModuleVector) -> ModuleVector:
    """Apply d/dx to a combination of the B_i, in coordinates.

    Differentiating v_j B_j and rewriting f'' via the base equation sends
    weight to B_j (the formal derivative of v_j plus j p v_j), to B_{j+1}
    (factor m-j from the f-power), and to B_{j-1} (factor j q from the
    rewritten f'').  Gathering contributions into row j:

        w_j = D(v_j) + j p v_j + (m-j+1) v_{j-1} + (j+1) q v_{j+1}

    with out-of-range coordinates contributing nothing.
    """
    m = v.m
    w = []
    for j in range(m + 1):
        entry = derive(v.coords[j]) + j * _P * v.coords[j]
        if j >= 1:
            entry = entry + (m - j + 1) * v.coords[j - 1]
        if j < m:
            entry = entry + (j + 1) * _Q * v.coords[j + 1]
        w.append(entry)
    return ModuleVector(m, tuple(w))


def derivative_tower(m: int) -> tuple[ModuleVector, ...]:
    """Coordinates of y, y', ..., y^(m+1) for y = f^m.

    Returns m+2 vectors: the first is (1, 0, ..., 0) and each subsequent one
    is basis_step of its predecessor.  Row k is zero beyond column k and has
    the integer m!/(m-k)! in column k.  The test oracle for derive_lifted_ode.
    """
    if m < 1:
        raise ValueError(f"power m must be >= 1, got {m}")
    zero = DiffPoly.zero()
    start = ModuleVector(m, (DiffPoly.const(1),) + (zero,) * m)
    tower = [start]
    for _ in range(m + 1):
        tower.append(basis_step(tower[-1]))
    return tuple(tower)


def recurrence_reference(m: int) -> tuple[DiffPoly, ...]:
    """c_0 .. c_m of the monic L_{m+1}, with L_{i+1} = (d - i p) L_i -
    i (m-i+1) q L_{i-1} stepped on lists of DiffPoly entries (entry k
    multiplies d^k) through the ring operations."""
    if m < 1:
        raise ValueError(f"power m must be >= 1, got {m}")
    zero = DiffPoly.zero()
    prev, cur = (DiffPoly.const(1),), (zero, DiffPoly.const(1))
    for i in range(1, m + 1):
        weight = i * (m - i + 1)
        nxt = tuple(
            shifted + derive(a) - i * _P * a - weight * _Q * b
            for a, shifted, b in zip(cur + (zero,), (zero,) + cur, prev + (zero, zero))
        )
        prev, cur = cur, nxt
    return cur[: m + 1]


def _weight_series(n: int, weights) -> list[int]:
    """Coefficients of t^0, ..., t^n in prod_{w in weights} 1/(1 - t^w):
    the number of multisets of the weights with each total."""
    counts = [1] + [0] * n
    for w in weights:
        for total in range(w, n + 1):
            counts[total] += counts[total - w]
    return counts


def monomial_counts(n: int) -> list[int]:
    """a(0), ..., a(n): the monomials in p, q and their derivatives of each
    weight, p^(j) weighing j+1 and q^(j) weighing j+2, from
    sum a(n) t^n = prod_{j>=1} 1/(1-t^j) * prod_{j>=2} 1/(1-t^j)."""
    return _weight_series(n, [*range(1, n + 1), *range(2, n + 1)])


def partition_counts(n: int) -> list[int]:
    """P(0), ..., P(n), the partition numbers: the monomials of each weight
    in p and its derivatives alone."""
    return _weight_series(n, range(1, n + 1))


def support_sizes(m: int) -> list[int]:
    """terms(c_0), ..., terms(c_m) of the derived equation of order m+1 by
    the support theorem: a(m+1) - P(m+1), then a(m+1-k) for k >= 1."""
    a = monomial_counts(m + 1)
    return [a[m + 1] - partition_counts(m + 1)[m + 1]] + [a[m + 1 - k] for k in range(1, m + 1)]


def indicial_roots(m: int, r1, r2) -> list[Fraction]:
    """lam_j = (m-j) r1 + j r2 for j = 0, ..., m: the exponents of the
    products of x^r1 and x^r2, and the rates of those of exp(r1 x) and
    exp(r2 x)."""
    return [(m - j) * Fraction(r1) + j * Fraction(r2) for j in range(m + 1)]


def euler_coefficients(m: int, r1, r2) -> list[Fraction]:
    """e_0, ..., e_(m+1), where P(lam) = prod_j (lam - lam_j) is
    sum_k e_k lam (lam-1) ... (lam-k+1): e_k = Delta^k P(0) / k!, the
    Newton forward differences of P at 0.  e_(m+1) = 1."""
    roots = indicial_roots(m, r1, r2)
    values = [prod(n - lam for lam in roots) for n in range(m + 2)]  # P(0), ..., P(m+1)
    return [
        sum((-1) ** (k - i) * comb(k, i) * values[i] for i in range(k + 1)) / factorial(k)
        for k in range(m + 2)
    ]


def euler_symbol_values(m: int, r1, r2, x) -> dict:
    """Exact values of p^(j) and q^(j), j < m, at x for p = a/x and
    q = b/x^2 with a = r1 + r2 - 1 and b = -r1 r2."""
    r1, r2, x = Fraction(r1), Fraction(r2), Fraction(x)
    a, b = r1 + r2 - 1, -r1 * r2
    values = {}
    for j in range(m):
        values[P(j)] = a * (-1) ** j * factorial(j) / x ** (j + 1)
        values[Q(j)] = b * (-1) ** j * factorial(j + 1) / x ** (j + 2)
    return values


def euler_product_block(m: int, r1, r2, x) -> np.ndarray:
    """Derivatives 0..m+1 of the products x^lam_j at the points x, in
    product_block's (m+2, m+1, *shape) layout: entry
    [k, j] is lam_j (lam_j - 1) ... (lam_j - k + 1) x^(lam_j - k), the
    falling factorial exact and rounded once."""
    x = np.asarray(x, dtype=float)
    block = np.empty((m + 2, m + 1, *x.shape))
    for j, lam in enumerate(indicial_roots(m, r1, r2)):
        for k in range(m + 2):
            block[k, j] = float(prod(lam - t for t in range(k))) * x ** float(lam - k)
    return block


def constant_coefficients(m: int, r1, r2) -> list[Fraction]:
    """The coefficients of d^0, ..., d^(m+1) in prod_j (d - lam_j), the
    lifted equation of y'' = (r1 + r2) y' - r1 r2 y."""
    poly = [Fraction(1)]  # low degree first
    for lam in indicial_roots(m, r1, r2):
        poly = [a - lam * b for a, b in zip([Fraction(0)] + poly, poly + [Fraction(0)])]
    return poly


def constant_symbol_values(m: int, r1, r2) -> dict:
    """p = r1 + r2 and q = -r1 r2, and every derivative symbol below m zero."""
    r1, r2 = Fraction(r1), Fraction(r2)
    zeros = {symbol(j): Fraction(0) for symbol in (P, Q) for j in range(1, m)}
    return {P(0): r1 + r2, Q(0): -r1 * r2, **zeros}


def ode_json_doc(ode: int | LiftedODE) -> dict:
    """The `derive --style json` document for ``ode``, or for the derived
    equation when ``ode`` is the power m, as nested dicts and lists."""
    if isinstance(ode, int):
        ode = derive_lifted_ode(ode)
    return {
        "m": ode.m,
        "monic": True,
        "coeffs": [
            {"k": k, "terms": poly_terms_doc(c)} for k, c in enumerate(ode.coeffs)
        ],
    }


def _order_key(mono: Monomial, width: int) -> tuple:
    """Graded-lex key: degree, p-exponents padded to ``width``, q-exponents.

    Keys of monomials with at most 2*width slots compare in graded-lex
    order.  The q-exponents need no padding: they come last, and two
    distinct monomials with equal degree and p-exponents differ at a
    q-slot that both keys hold.
    """
    p_exps = mono[0::2]
    return sum(mono), p_exps + (0,) * (width - len(p_exps)), mono[1::2]


def reference_format_poly(poly: DiffPoly, style: str = "plain") -> str:
    """format_poly's text, written term by term from the sorted Monomials."""
    if not poly.terms:
        return "0"
    latex = style == "latex"
    width = (max(map(len, poly.terms), default=0) + 1) >> 1
    pieces: list[str] = []
    for mono, coeff in sorted(
        poly.terms.items(), key=lambda t: _order_key(t[0], width), reverse=True
    ):
        mag = abs(coeff)
        if mag.denominator == 1:
            body = str(mag.numerator)
        elif latex:
            body = f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}"
        else:
            body = f"{mag.numerator}/{mag.denominator}"
        if not mono:
            text = body
        elif body == "1":
            text = reference_monomial_text(mono, latex)
        else:
            text = body + ("" if latex else "*") + reference_monomial_text(mono, latex)
        if pieces:
            pieces.append(f" {'-' if coeff < 0 else '+'} {text}")
        else:
            pieces.append(f"-{text}" if coeff < 0 else text)
    return "".join(pieces)


def reference_monomial_text(mono: Monomial, latex: bool = False) -> str:
    """A monomial other than 1, as p^2*q' in plain text or p^{2}q' in LaTeX."""
    if not latex:
        return "*".join(s.name + (f"^{e}" if e > 1 else "") for s, e in mono.factors)
    parts = []
    for sym, exp in mono.factors:
        text = sym.latex()
        if exp > 1:
            # Primed symbols need bracing so the power binds to the whole
            # symbol, as in {p'}^2.
            text = f"{{{text}}}^{{{exp}}}" if sym.order else f"{text}^{{{exp}}}"
        parts.append(text)
    return "".join(parts)


def reference_derive_text(ode: int | LiftedODE, style: str) -> str:
    """The `derive` document in plain or LaTeX for ``ode``, or for the
    derived equation when ``ode`` is the power m: a `c_k = ` line per
    coefficient, c_m first."""
    if isinstance(ode, int):
        ode = derive_lifted_ode(ode)
    label = "c_{%d}" if style == "latex" else "c_%d"
    return "".join(
        f"{label % k} = {reference_format_poly(ode.coeffs[k], style)}\n"
        for k in range(ode.m, -1, -1)
    )


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
        return verify._leibniz(u, v) if isinstance(e, Mul) else verify._quotient(u, v)
    if isinstance(e, Pow):
        u = _jet(e.base, x, order)
        h = verify._power(u, abs(e.exponent))
        if e.exponent < 0:
            h = verify._quotient(_const(1.0, order), h)
        h[0] = u[0] ** e.exponent
        return h
    if isinstance(e, Call):
        u = _jet(e.arg, x, order)
        if e.func == "ln":  # (ln u)' = u'/u
            return [np.log(u[0])] + verify._quotient(u[1:], u[:-1])
        # (exp u)' = exp(u) u', (sin u)' = cos(u) u', (cos u)' = -sin(u) u':
        # row k+1 of each is row k of a product with the jet u[1:] of u'
        if e.func == "exp":
            h = [np.exp(u[0])]
            for k in range(order):
                h.append(verify._leibniz_row(h, u[1:], k))
            return h
        s, c = [np.sin(u[0])], [np.cos(u[0])]
        for k in range(order):
            s.append(verify._leibniz_row(c, u[1:], k))
            c.append(-verify._leibniz_row(s, u[1:], k))
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


def reference_symbol_values(p: Expr, q: Expr, upto: int, x) -> np.ndarray:
    """odelift.verify.symbol_values by the recursive jet walk, p's jet and
    its domain check first, then q's."""
    xs = np.asarray(x, dtype=float)
    return np.stack([_expr_jet(p, xs, upto), _expr_jet(q, xs, upto)], axis=1)


def _const(value: float, order: int) -> list:
    """Jet of a constant, its value row a numpy float as in the package."""
    return [np.float64(value)] + [0.0] * order


def _leibniz(u: list, v: list) -> list:
    """Jet of u*v: (uv)^(k) = sum_j C(k,j) u^(j) v^(k-j)."""
    return [
        sum(comb(k, j) * u[j] * v[k - j] for j in range(k + 1)) for k in range(len(u))
    ]


def _solution_jet(f, fp, syms, order: int) -> list:
    """Jet [f, f', ..., f^(order)] of one base solution from its value and
    slope: f^(k+2) = sum_j C(k,j) (p^(j) f^(k+1-j) + q^(j) f^(k-j))."""
    jet = [f, fp]
    for k in range(order - 1):
        jet.append(
            sum(
                comb(k, j) * (syms[j][0] * jet[k + 1 - j] + syms[j][1] * jet[k - j])
                for j in range(k + 1)
            )
        )
    return jet


def _powers(u: list, n: int) -> list:
    """Jets of u^0, u^1, ..., u^n; value rows are the plain powers u**k."""
    out = [_const(1.0, len(u) - 1)]
    for k in range(1, n + 1):
        nxt = _leibniz(out[-1], u)
        nxt[0] = u[0] ** k
        out.append(nxt)
    return out


def product_block(f_pt, g_pt, m: int, syms) -> np.ndarray:
    """Derivatives 0..m+1 of all m+1 products f^(m-j) g^j, (m+2, m+1, *shape),
    built term by term from the (value, slope) pairs f_pt and g_pt and the
    symbols to order m-1: the jets of f^0 ... f^m and g^0 ... g^m from the
    constant-1 jet up, and column j as the Leibniz product of f^(m-j) and
    g^j."""
    f_pows = _powers(_solution_jet(*f_pt, syms, m + 1), m)
    g_pows = _powers(_solution_jet(*g_pt, syms, m + 1), m)
    shape = np.broadcast_shapes(*map(np.shape, (*f_pt, *g_pt)), np.shape(syms)[2:])
    block = np.empty((m + 2, m + 1, *shape))
    for j in range(m + 1):
        for k, row in enumerate(_leibniz(f_pows[m - j], g_pows[j])):
            block[k, j] = row
    return block


def recurrence_values(m: int, syms: np.ndarray) -> np.ndarray:
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
    import numpy as np
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


def scaled_solution(phi: np.ndarray, ic) -> tuple[np.ndarray, np.ndarray]:
    """(y, y') = Phi @ ic divided at each grid point by max(|y|, |y'|); a zero
    vector stays zero.  ic is divided by its own max(|y0|, |y0'|) first, so
    Phi @ ic overflows nowhere that Phi does not."""
    s = max(map(abs, ic)) or 1.0
    y, yp = verify._solution(phi, (ic[0] / s, ic[1] / s))
    sigma = np.maximum(np.abs(y), np.abs(yp))
    sigma[sigma == 0.0] = 1.0
    return y / sigma, yp / sigma


def majorised_check(m: int, p, q, cfg) -> tuple:
    """(rows, magnitudes, block, major) of the derived equation of order m+1
    on cfg's grid: the c_k rows and the |c_k| rows of recurrence_values on
    syms and -|syms|, the product block from the solutions from cfg.ic_f and
    cfg.ic_g scaled at every point, and the same block on the magnitudes of
    f, f', g, g' and syms."""
    grid, phi, syms = verify._integrate(p, q, cfg, m - 1)
    f_pt, g_pt = scaled_solution(phi, cfg.ic_f), scaled_solution(phi, cfg.ic_g)
    block = product_block(f_pt, g_pt, m, syms)
    major = product_block(np.abs(f_pt), np.abs(g_pt), m, np.abs(syms))
    rows = recurrence_values(m, syms)
    return rows, recurrence_values(m, -np.abs(syms)), block, major


def running_error_ratio(values, magnitudes, block, major) -> float:
    """The worst |r| / (u B) over all products and points, u = 2^-53, taken as
    0 where r = 0: r = y^(m+1) + sum c_k y^(k), the terms k = 0, ..., m
    added in turn to y^(m+1), from the c_k rows ``values``, and B = major_(m+1) + sum |c_k| major_k."""
    r, bound = block[len(values)].copy(), major[len(values)].copy()
    for c, a, y, z in zip(values, magnitudes, block, major):
        r += c * y
        bound += a * z
    ratio = np.divide(np.abs(r), 2.0**-53 * bound, out=np.zeros_like(r), where=r != 0)
    return float(np.max(ratio))


#: Two primes below 2^31: a product of two residues stays below 2^62, in int64.
PRIMES = (2**31 - 1, 2**31 - 19)

#: The moduli against (prime, point) rows.
_MOD = np.array(PRIMES, dtype=np.int64).reshape(-1, 1)


def residues(x) -> np.ndarray:
    """Each finite double of x modulo each prime, exactly, on a new axis
    before the last: x = M 2^(e-53) with M its np.frexp mantissa as a 53-bit
    integer, so x is M times the inverse of 2^(53-e) modulo P."""
    x = np.asarray(x, dtype=float)
    assert np.isfinite(x).all()
    mantissa, exponent = np.frexp(x)
    whole = np.ldexp(mantissa, 53).astype(np.int64)
    shifts, at = np.unique(exponent - 53, return_inverse=True)
    out = []
    for prime in PRIMES:
        powers = np.array([pow(2, int(s), prime) for s in shifts], dtype=np.int64)
        out.append(whole % prime * powers[at.reshape(x.shape)] % prime)
    return np.stack(out, axis=-2)


def _binomials(k: int, ndim: int) -> np.ndarray:
    """C(k, 0), ..., C(k, k) on the first of ndim axes."""
    return np.array([comb(k, j) for j in range(k + 1)]).reshape(-1, *[1] * (ndim - 1))


def _leibniz_mod(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Jet of u*v modulo the primes: row k is sum_j C(k,j) u^(j) v^(k-j)."""
    shape = np.broadcast_shapes(u.shape, v.shape)
    out = np.empty(shape, dtype=np.int64)
    for k in range(shape[0]):
        terms = u[: k + 1] * v[k::-1] % _MOD * _binomials(k, len(shape)) % _MOD
        out[k] = terms.sum(axis=0) % _MOD
    return out


def _cauchy_mod(t: np.ndarray, a: np.ndarray, n: int) -> np.ndarray:
    """Taylor rows 0..n-1 of t times each entry of a, modulo the primes:
    row l is sum_j t_j a_(l-j), t holding (prime, point) rows and a
    (entry, prime, point) rows."""
    out = np.empty((n, *a.shape[1:]), dtype=np.int64)
    for l in range(n):
        out[l] = (t[l::-1, None] * a[: l + 1] % _MOD).sum(axis=0) % _MOD
    return out


def modular_product_block(f_pt, g_pt, m: int, syms: np.ndarray) -> np.ndarray:
    """product_block on residues, (m+2, m+1, prime, point): the stacked
    solution jet of (f, g), the power chain u^k = u^(k-1) u, and column j the
    Leibniz product of f^(m-j) and g^j.  f_pt and g_pt are (value, slope)
    residues, syms the residues of symbol_values' rows."""
    u = np.zeros((m + 2, 2, *syms.shape[2:]), dtype=np.int64)  # [row, f or g, prime, point]
    (u[0, 0], u[1, 0]), (u[0, 1], u[1, 1]) = f_pt, g_pt
    for k in range(m):  # f^(k+2) = sum_j C(k,j) (p^(j) f^(k+1-j) + q^(j) f^(k-j))
        p, q = syms[: k + 1, 0, None], syms[: k + 1, 1, None]
        terms = (p * u[k + 1 : 0 : -1] % _MOD + q * u[k::-1] % _MOD) * _binomials(k, 4) % _MOD
        u[k + 2] = terms.sum(axis=0) % _MOD
    powers = [None, u]
    for _ in range(2, m + 1):
        powers.append(_leibniz_mod(powers[-1], u))
    block = np.empty((m + 2, m + 1, *u.shape[2:]), dtype=np.int64)
    block[:, 0], block[:, m] = powers[m][:, 0], powers[m][:, 1]
    if m > 1:
        f_side = np.stack([powers[m - j][:, 0] for j in range(1, m)], axis=1)
        g_side = np.stack([powers[j][:, 1] for j in range(1, m)], axis=1)
        block[:, 1:m] = _leibniz_mod(f_side, g_side)
    return block


def modular_recurrence_rows(m: int, syms: np.ndarray, weights=None) -> np.ndarray:
    """c_0, ..., c_m modulo the primes, (m+1, prime, point), from
    L_{i+1} = (d - i p) L_i - w_i q L_{i-1} with w_i = i (m-i+1), or
    weights[i-1] when weights are given.  Entry k of L_i, the coefficient of
    d^k, is held as its Taylor rows a^(j)/j!, 1/j! an inverse modulo P; d
    takes row j+1 to row j times j+1, and a product with p or q is a Cauchy
    product with their Taylor rows."""
    if weights is None:
        weights = [i * (m - i + 1) for i in range(1, m + 1)]
    shape = syms.shape[2:]
    inverse = [[pow(factorial(j), -1, prime) for prime in PRIMES] for j in range(len(syms))]
    taylor = syms * np.array(inverse).reshape(len(syms), 1, -1, 1) % _MOD
    prev = np.zeros((m + 2, 1, *shape), dtype=np.int64)  # L_0 = 1
    prev[0, 0] = 1
    cur = np.zeros((m + 1, 2, *shape), dtype=np.int64)  # L_1 = d
    cur[0, 1] = 1
    for i, w in enumerate(weights, start=1):
        n = m + 1 - i  # the rows L_{i+1} needs
        nxt = np.zeros((n, i + 2, *shape), dtype=np.int64)
        nxt[:, 1:] += cur[:n]  # a d^k -> a d^(k+1)
        nxt[:, :-1] += cur[1 : n + 1] * np.arange(1, n + 1).reshape(-1, 1, 1, 1) % _MOD  # a' d^k
        nxt[:, :-1] -= i * _cauchy_mod(taylor[:, 0], cur, n) % _MOD
        nxt[:, :-2] -= w * _cauchy_mod(taylor[:, 1], prev, n) % _MOD
        prev, cur = cur, nxt % _MOD
    assert (cur[0, m + 1] == 1).all()  # monic
    return cur[0, : m + 1]


def modular_residuals(m: int, p, q, cfg, weights=None) -> np.ndarray:
    """r = y^(m+1) + sum c_k y^(k) modulo each prime, for every product
    y = f^(m-j) g^j at every point of cfg's grid, (m+1, prime, point): f, f',
    g and g' from cfg.ic_f and cfg.ic_g on the package's Phi, scaled at every
    point, and the package's symbol rows to order m-1, carried exactly.
    weights go to modular_recurrence_rows."""
    _, phi, syms = verify._integrate(p, q, cfg, m - 1)
    f_pt, g_pt = (residues(scaled_solution(phi, ic)) for ic in (cfg.ic_f, cfg.ic_g))
    syms = residues(syms)
    block = modular_product_block(f_pt, g_pt, m, syms)
    c = modular_recurrence_rows(m, syms, weights)
    return (block[m + 1] + (c[:, None] * block[: m + 1] % _MOD).sum(axis=0)) % _MOD
