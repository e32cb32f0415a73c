"""Exact sparse polynomial ring in the formal derivatives of two coefficient
functions.

Every symbolic coefficient produced by the lifting construction lives in the
polynomial ring Q[p, p', p'', ..., q, q', q'', ...], where ``p`` and ``q`` are
the coefficient functions of the base second-order equation and primes denote
formal derivatives.  Polynomials are stored sparsely:

    DiffPoly.terms : dict mapping Monomial -> Fraction

with no zero coefficients ever stored, so structural equality of the term
maps is exact polynomial equality.  All arithmetic is over ``Fraction`` and
therefore exact; nothing in this module rounds, and coefficients that are not
``int`` or ``Fraction`` (floats included) are refused with ``TypeError``.

Monomials are ordered graded-lexicographically: first by total degree, ties
broken by comparing exponents along the symbol order p < p' < p'' < ... <
q < q' < ...  This order is only a printing/normalization convention; the
ring operations do not depend on it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, Mapping, NamedTuple, Union

Scalar = Union[int, Fraction]

_BASES = ("p", "q")


class DiffSymbol(NamedTuple):
    """Formal k-th derivative of one of the two coefficient functions.

    ``DiffSymbol("p", 0)`` is p itself, ``DiffSymbol("q", 2)`` is q''.
    Tuple ordering gives the symbol order for free: all p-derivatives
    precede all q-derivatives, ascending by derivative order within a base.
    """

    base: str
    order: int

    @property
    def name(self) -> str:
        return self.base + "'" * self.order

    def derived(self) -> "DiffSymbol":
        return DiffSymbol(self.base, self.order + 1)

    def latex(self) -> str:
        if self.order <= 3:
            return self.base + "'" * self.order
        if self.order == 4:
            return self.base + "^{(iv)}"
        return f"{self.base}^{{({self.order})}}"


def P(order: int = 0) -> DiffSymbol:
    """The formal symbol for the ``order``-th derivative of p."""
    return _make_symbol("p", order)


def Q(order: int = 0) -> DiffSymbol:
    """The formal symbol for the ``order``-th derivative of q."""
    return _make_symbol("q", order)


def _make_symbol(base: str, order: int) -> DiffSymbol:
    if base not in _BASES:
        raise ValueError(f"symbol base must be one of {_BASES}, got {base!r}")
    if not isinstance(order, int) or order < 0:
        raise ValueError(f"derivative order must be a non-negative integer, got {order!r}")
    return DiffSymbol(base, order)


@total_ordering
class Monomial:
    """A product of symbol powers; the empty product is the monomial 1.

    Stored as a tuple of (DiffSymbol, exponent) pairs sorted by symbol, all
    exponents positive.  Hashable, so usable as a dict key.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: Mapping[DiffSymbol, int] | Iterable[tuple[DiffSymbol, int]] = ()):
        items = factors.items() if isinstance(factors, Mapping) else factors
        merged: dict[DiffSymbol, int] = {}
        for sym, exp in items:
            if not isinstance(sym, DiffSymbol):
                raise TypeError(f"monomial factor key must be DiffSymbol, got {type(sym).__name__}")
            if not isinstance(exp, int):
                raise TypeError(f"exponent must be int, got {type(exp).__name__}")
            if exp < 0:
                raise ValueError(f"exponent must be non-negative, got {exp}")
            if exp:
                merged[sym] = merged.get(sym, 0) + exp
        object.__setattr__(self, "factors", tuple(sorted(merged.items())))

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.factors)

    def exponent(self, sym: DiffSymbol) -> int:
        for s, e in self.factors:
            if s == sym:
                return e
        return 0

    def symbols(self) -> tuple[DiffSymbol, ...]:
        return tuple(s for s, _ in self.factors)

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        merged = dict(self.factors)
        for sym, exp in other.factors:
            merged[sym] = merged.get(sym, 0) + exp
        return Monomial(merged)

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __lt__(self, other: "Monomial") -> bool:
        # Graded lex: total degree first, then the first symbol (in symbol
        # order) whose exponents differ decides, higher exponent = larger.
        if not isinstance(other, Monomial):
            return NotImplemented
        if self.degree != other.degree:
            return self.degree < other.degree
        mine, theirs = dict(self.factors), dict(other.factors)
        for sym in sorted(set(mine) | set(theirs)):
            ea, eb = mine.get(sym, 0), theirs.get(sym, 0)
            if ea != eb:
                return ea < eb
        return False

    def __repr__(self) -> str:
        if not self.factors:
            return "1"
        return "*".join(s.name + (f"^{e}" if e > 1 else "") for s, e in self.factors)


_ONE = Monomial()


class MissingSymbolError(LookupError):
    """Raised by DiffPoly.eval when the assignment lacks a needed symbol."""

    def __init__(self, symbol: DiffSymbol):
        self.symbol = symbol
        super().__init__(f"no value assigned to symbol {symbol.name}")


class DiffPoly:
    """Sparse polynomial over Fraction in the formal p/q derivative symbols.

    Instances are immutable after construction and normalized: the term map
    never stores a zero coefficient, so ``a == b`` iff the term maps match.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | Iterable[tuple[Monomial, Scalar]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        normalized: dict[Monomial, Fraction] = {}
        for mono, coeff in items:
            if not isinstance(mono, Monomial):
                raise TypeError(f"term key must be Monomial, got {type(mono).__name__}")
            c = normalized.get(mono, Fraction(0)) + _exact(coeff)
            if c:
                normalized[mono] = c
            else:
                normalized.pop(mono, None)
        object.__setattr__(self, "terms", normalized)

    def __setattr__(self, name, value):
        raise AttributeError("DiffPoly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "DiffPoly":
        return cls()

    @classmethod
    def const(cls, value: Scalar) -> "DiffPoly":
        return cls({_ONE: value})

    @classmethod
    def symbol(cls, sym: DiffSymbol) -> "DiffPoly":
        return cls({Monomial({sym: 1}): Fraction(1)})

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "DiffPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            c = out.get(mono, Fraction(0)) + coeff
            if c:
                out[mono] = c
            else:
                out.pop(mono, None)
        return _raw(out)

    __radd__ = __add__

    def __neg__(self) -> "DiffPoly":
        return _raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "DiffPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "DiffPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "DiffPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out: dict[Monomial, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = ma * mb
                c = out.get(mono, Fraction(0)) + ca * cb
                if c:
                    out[mono] = c
                else:
                    out.pop(mono, None)
        return _raw(out)

    __rmul__ = __mul__

    def __truediv__(self, divisor: Scalar) -> "DiffPoly":
        """Exact division by a nonzero rational constant."""
        d = _exact(divisor)
        if not d:
            raise ZeroDivisionError("division of DiffPoly by zero constant")
        return _raw({m: c / d for m, c in self.terms.items()})

    def __pow__(self, n: int) -> "DiffPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("DiffPoly exponent must be a non-negative integer")
        out = DiffPoly.const(1)
        for _ in range(n):
            out = out * self
        return out

    # -- derivation ---------------------------------------------------------

    def derive(self) -> "DiffPoly":
        """Formal total derivative: linear, Leibniz on products, and each
        symbol of order k maps to the symbol of order k+1."""
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            for sym, exp in mono.factors:
                rest = dict(mono.factors)
                if exp == 1:
                    del rest[sym]
                else:
                    rest[sym] = exp - 1
                bumped = sym.derived()
                rest[bumped] = rest.get(bumped, 0) + 1
                new_mono = Monomial(rest)
                c = out.get(new_mono, Fraction(0)) + coeff * exp
                if c:
                    out[new_mono] = c
                else:
                    out.pop(new_mono, None)
        return _raw(out)

    # -- evaluation ---------------------------------------------------------

    def eval(self, assignment: Mapping[DiffSymbol, object]):
        """Evaluate at an assignment of values to every symbol occurring here.

        Values may be floats or numpy arrays; coefficients are taken as
        floats.  Raises MissingSymbolError if a needed symbol has no value.
        """
        total = 0.0
        for mono, coeff in self.terms.items():
            value = float(coeff)
            for sym, exp in mono.factors:
                try:
                    v = assignment[sym]
                except KeyError:
                    raise MissingSymbolError(sym) from None
                value = value * v**exp
            total = total + value
        return total

    def eval_exact(self, assignment: Mapping[DiffSymbol, object]) -> Fraction:
        """Evaluate at Fraction (or int) symbol values with exact arithmetic."""
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            value = coeff
            for sym, exp in mono.factors:
                try:
                    v = assignment[sym]
                except KeyError:
                    raise MissingSymbolError(sym) from None
                value = value * Fraction(v) ** exp
            total += value
        return total

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def symbols(self) -> set[DiffSymbol]:
        out: set[DiffSymbol] = set()
        for mono in self.terms:
            out.update(mono.symbols())
        return out

    def max_order(self) -> int:
        """Largest derivative order of any symbol present; -1 for constants."""
        orders = [s.order for s in self.symbols()]
        return max(orders, default=-1)

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in descending canonical monomial order."""
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def __eq__(self, other) -> bool:
        if isinstance(other, DiffPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == DiffPoly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return format_poly(self)


def _exact(value) -> Fraction:
    # Floats (and anything else) are refused rather than silently rounded.
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"coefficient must be int or Fraction, got {type(value).__name__}")


def _raw(terms: dict[Monomial, Fraction]) -> DiffPoly:
    # Internal: wrap an already-normalized term dict without copying.
    poly = DiffPoly.__new__(DiffPoly)
    object.__setattr__(poly, "terms", terms)
    return poly


def _coerce(value) -> DiffPoly | None:
    if isinstance(value, DiffPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return DiffPoly.const(value)
    return None


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class PolyParseError(ValueError):
    """Malformed polynomial text; ``position`` is the byte offset."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class _PolyScanner:
    """Tokenizer for the plain polynomial grammar.

    Tokens: integers (with optional /denominator forming an exact rational),
    the symbols p and q with trailing apostrophes, the operators + - * ^,
    and parentheses.  Whitespace is insignificant.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.kind = ""
        self.value = None
        self.token_pos = 0
        self.advance()

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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            num = int(text[i:j])
            # A '/' directly after an integer forms a rational literal.
            if j < n and text[j] == "/":
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                if k == j + 1:
                    raise PolyParseError("expected digits after '/'", j + 1)
                self.kind, self.value, self.pos = "number", Fraction(num, int(text[j + 1 : k])), k
            else:
                self.kind, self.value, self.pos = "number", Fraction(num), j
            return
        if ch in _BASES:
            j = i + 1
            while j < n and text[j] == "'":
                j += 1
            self.kind, self.value, self.pos = "symbol", DiffSymbol(ch, j - i - 1), j
            return
        if ch in "+-*^()":
            self.kind, self.value, self.pos = ch, ch, i + 1
            return
        raise PolyParseError(f"unexpected character {ch!r}", i)

    def expect(self, kind: str) -> None:
        if self.kind != kind:
            raise PolyParseError(f"expected {kind!r}, found {self.kind!r}", self.token_pos)
        self.advance()


def parse_poly(text: str) -> DiffPoly:
    """Parse the plain polynomial grammar into a normalized DiffPoly.

    Grammar:  poly   := [sign] term (sign term)*
              term   := factor ('*' factor)*
              factor := atom ['^' positive-integer]
              atom   := rational | symbol | '(' poly ')'

    Implicit multiplication is rejected; every product is written with '*'.
    Raises PolyParseError with the offending position on malformed input.
    """
    scanner = _PolyScanner(text)
    poly = _parse_sum(scanner)
    if scanner.kind != "end":
        raise PolyParseError(f"unexpected trailing {scanner.kind!r}", scanner.token_pos)
    return poly


def _parse_sum(scanner: _PolyScanner) -> DiffPoly:
    sign = 1
    if scanner.kind in "+-":
        sign = -1 if scanner.kind == "-" else 1
        scanner.advance()
    total = _parse_term(scanner) * sign
    while scanner.kind in "+-":
        sign = -1 if scanner.kind == "-" else 1
        scanner.advance()
        total = total + _parse_term(scanner) * sign
    return total


def _parse_term(scanner: _PolyScanner) -> DiffPoly:
    product = _parse_factor(scanner)
    while scanner.kind == "*":
        scanner.advance()
        product = product * _parse_factor(scanner)
    return product


def _parse_factor(scanner: _PolyScanner) -> DiffPoly:
    base = _parse_atom(scanner)
    if scanner.kind == "^":
        scanner.advance()
        if scanner.kind != "number":
            raise PolyParseError("expected integer exponent after '^'", scanner.token_pos)
        exp = scanner.value
        if exp.denominator != 1 or exp <= 0:
            raise PolyParseError("exponent must be a positive integer", scanner.token_pos)
        scanner.advance()
        return base ** int(exp)
    return base


def _parse_atom(scanner: _PolyScanner) -> DiffPoly:
    if scanner.kind == "number":
        value = scanner.value
        scanner.advance()
        return DiffPoly.const(value)
    if scanner.kind == "symbol":
        sym = scanner.value
        scanner.advance()
        return DiffPoly.symbol(sym)
    if scanner.kind == "(":
        scanner.advance()
        inner = _parse_sum(scanner)
        scanner.expect(")")
        return inner
    raise PolyParseError(
        f"expected number, symbol, or '(', found {scanner.kind!r}", scanner.token_pos
    )


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------

STYLES = ("plain", "latex", "json")


def format_poly(poly: DiffPoly, style: str = "plain") -> str:
    """Render a DiffPoly deterministically (descending canonical term order).

    ``plain`` round-trips through parse_poly; ``latex`` mirrors prime
    notation with implicit multiplication; ``json`` emits the term list used
    by the coefficient schema.
    """
    if style == "plain":
        return _format_plain(poly)
    if style == "latex":
        return _format_latex(poly)
    if style == "json":
        return json.dumps(poly_terms_doc(poly), sort_keys=True)
    raise ValueError(f"unknown style {style!r}; expected one of {STYLES}")


def _coeff_parts(coeff: Fraction) -> tuple[str, str]:
    sign = "-" if coeff < 0 else "+"
    mag = abs(coeff)
    body = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
    return sign, body


def _format_plain(poly: DiffPoly) -> str:
    if not poly.terms:
        return "0"
    pieces: list[str] = []
    for mono, coeff in poly.sorted_terms():
        sign, body = _coeff_parts(coeff)
        if mono.factors:
            mono_text = "*".join(
                s.name + (f"^{e}" if e > 1 else "") for s, e in mono.factors
            )
            text = mono_text if body == "1" else f"{body}*{mono_text}"
        else:
            text = body
        if not pieces:
            pieces.append(text if sign == "+" else f"-{text}")
        else:
            pieces.append(f" {sign} {text}")
    return "".join(pieces)


def _format_latex(poly: DiffPoly) -> str:
    if not poly.terms:
        return "0"
    pieces: list[str] = []
    for mono, coeff in poly.sorted_terms():
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        if mag.denominator == 1:
            body = str(mag.numerator)
        else:
            body = f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}"
        factors = []
        for sym, exp in mono.factors:
            sym_text = sym.latex()
            if exp > 1:
                # Primed symbols need bracing so the power binds to the whole
                # symbol, as in {p'}^2.
                if sym.order >= 1:
                    sym_text = f"{{{sym_text}}}^{{{exp}}}"
                else:
                    sym_text = f"{sym_text}^{{{exp}}}"
            factors.append(sym_text)
        if factors:
            text = "".join(factors) if body == "1" else body + "".join(factors)
        else:
            text = body
        if not pieces:
            pieces.append(text if sign == "+" else f"-{text}")
        else:
            pieces.append(f" {sign} {text}")
    return "".join(pieces)


def poly_terms_doc(poly: DiffPoly) -> list[dict]:
    """Term list for the JSON coefficient schema, canonical order.

    Numerators and denominators are strings so arbitrary-precision values
    survive any JSON reader.
    """
    doc = []
    for mono, coeff in poly.sorted_terms():
        doc.append(
            {
                "num": str(coeff.numerator),
                "den": str(coeff.denominator),
                "monomial": [
                    {"sym": s.base, "order": s.order, "exp": e} for s, e in mono.factors
                ],
            }
        )
    return doc
