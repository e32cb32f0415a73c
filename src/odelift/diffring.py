"""Exact sparse polynomial ring in the formal derivatives of two coefficient
functions.

Every symbolic coefficient produced by the lifting construction lives in the
polynomial ring Q[p, p', p'', ..., q, q', q'', ...], where ``p`` and ``q`` are
the coefficient functions of the base second-order equation and primes denote
formal derivatives.  Polynomials are stored sparsely:

    DiffPoly.terms : dict mapping Monomial -> int | Fraction

with no zero coefficients ever stored, so structural equality of the term
maps is exact polynomial equality.  A Monomial is a packed exponent tuple
indexed by symbol slot: slot 2k holds the exponent of p^(k) and slot 2k+1
that of q^(k), with trailing zeros trimmed, so the derivation moves one unit
of exponent from slot s to slot s+2.  Integral coefficients are stored as
``int``; a ``Fraction`` appears only where a value is not integral, such as
a rational literal.  All arithmetic is exact; nothing in this module rounds,
and coefficients that are not ``int`` or ``Fraction`` (floats included) are
refused with ``TypeError``.

DiffPoly.sorted_terms lists terms graded-lexicographically: first by total
degree, ties broken by comparing exponents along the symbol order
p < p' < p'' < ... < q < q' < ...  This order is only a printing
convention; the ring operations do not depend on it.

The module ships what the tool runs: the ring operations (the table
check subtracts, and an explicit LiftedODE may be built by arithmetic),
DiffPoly.eval for the coefficients verify evaluates, parsing, and
plain/LaTeX printing.  parse_poly does no ring arithmetic: it reads a
table line in one pass into one term map, so a line costs time and
memory in proportion to its length.  The derivation runs on packed keys
in odelift.lifting.  The ring-level derivation and the exact evaluator,
which only tests need, are references in tests/oracles.py.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
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


def _slot(sym: DiffSymbol) -> int:
    base, order = _make_symbol(*sym)
    return 2 * order + _BASES.index(base)


@lru_cache(maxsize=None)
def _symbol(slot: int) -> DiffSymbol:
    return DiffSymbol(_BASES[slot & 1], slot >> 1)


@lru_cache(maxsize=None)
def _slot_order(n: int) -> tuple[int, ...]:
    """Slots 0..n-1 in symbol order: p, p', p'', ..., then q, q', ..."""
    return (*range(0, n, 2), *range(1, n, 2))


def _order_key(mono: "Monomial", width: int) -> tuple:
    """Graded-lex key: degree, p-exponents padded to ``width``, q-exponents.

    Keys of monomials with at most 2*width slots compare in graded-lex
    order.  The q-exponents need no padding: they come last, and two
    distinct monomials with equal degree and p-exponents differ at a
    q-slot that both keys hold.
    """
    p_exps = mono[0::2]
    return sum(mono), p_exps + (0,) * (width - len(p_exps)), mono[1::2]


class Monomial(tuple):
    """A product of symbol powers; the empty product is the monomial 1.

    The tuple holds the exponent of each symbol slot (slot 2k is p^(k),
    slot 2k+1 is q^(k)) with trailing zeros trimmed, so hashing and
    equality run on plain tuples.  ``Monomial({P(): 2, Q(1): 1})`` validates
    its factors; ring operations build keys directly.
    """

    __slots__ = ()

    def __new__(cls, factors: Mapping[DiffSymbol, int] | Iterable[tuple[DiffSymbol, int]] = ()):
        items = factors.items() if isinstance(factors, Mapping) else factors
        exps: list[int] = []
        for sym, exp in items:
            if not isinstance(sym, DiffSymbol):
                raise TypeError(f"monomial factor key must be DiffSymbol, got {type(sym).__name__}")
            if not isinstance(exp, int):
                raise TypeError(f"exponent must be int, got {type(exp).__name__}")
            if exp < 0:
                raise ValueError(f"exponent must be non-negative, got {exp}")
            if exp:
                slot = _slot(sym)
                exps.extend([0] * (slot + 1 - len(exps)))
                exps[slot] += int(exp)
        return tuple.__new__(cls, exps)

    @property
    def factors(self) -> tuple[tuple[DiffSymbol, int], ...]:
        """(symbol, exponent) pairs in symbol order, all exponents positive."""
        return tuple((_symbol(s), e) for s, e in _factor_slots(self))

    def __repr__(self) -> str:
        return _monomial_text(self, latex=False) if self else "1"


_new_key = tuple.__new__
_ONE = Monomial()


def _factor_slots(mono: Monomial) -> list[tuple[int, int]]:
    # (slot, exponent) of each factor, in symbol order.
    return [(s, mono[s]) for s in _slot_order(len(mono)) if mono[s]]


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if len(a) < len(b):
        a, b = b, a
    # The longer key keeps its last, nonzero exponent, so nothing to trim.
    return _new_key(Monomial, (*map(operator.add, a, b), *a[len(b):]))


class MissingSymbolError(LookupError):
    """Raised by DiffPoly.eval when the values lack a needed symbol."""

    def __init__(self, symbol: DiffSymbol):
        self.symbol = symbol
        super().__init__(f"no value assigned to symbol {symbol.name}")


class DiffPoly:
    """Sparse polynomial over the rationals in the formal p/q derivative
    symbols, with ``int`` coefficients wherever a value is integral.

    Instances are immutable after construction and normalized: the term map
    never stores a zero coefficient, so ``a == b`` iff the term maps match.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | Iterable[tuple[Monomial, Scalar]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        normalized: dict[Monomial, Scalar] = {}
        for mono, coeff in items:
            if not isinstance(mono, Monomial):
                raise TypeError(f"term key must be Monomial, got {type(mono).__name__}")
            c = _exact(normalized.get(mono, 0) + _exact(coeff))
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
        return cls({Monomial({sym: 1}): 1})

    # -- ring operations ----------------------------------------------------
    #
    # Sums of int coefficients stay int; a Fraction result that turns out
    # integral is stored as int (`_settle`).

    def __add__(self, other) -> "DiffPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        get = out.get
        for mono, coeff in other.terms.items():
            c = get(mono, 0) + coeff
            if c:
                out[mono] = c if c.__class__ is int else _settle(c)
            else:
                del out[mono]
        return _raw(out)

    __radd__ = __add__

    def __neg__(self) -> "DiffPoly":
        return _raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "DiffPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "DiffPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out: dict[Monomial, Scalar] = {}
        get = out.get
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = _mono_mul(ma, mb)
                c = get(mono, 0) + ca * cb
                if c:
                    out[mono] = c if c.__class__ is int else _settle(c)
                else:
                    del out[mono]
        return _raw(out)

    __rmul__ = __mul__

    # -- evaluation ---------------------------------------------------------

    def eval(self, values):
        """Evaluate at the symbol values ``values``, rows of (p^(k), q^(k)).

        The factor of slot s, 2k for p^(k) and 2k+1 for q^(k), is
        ``values[s >> 1][s & 1]``: a nested list such as [[p, q], [p', q']]
        or the array odelift.verify.symbol_values returns.  Values may be
        floats or numpy arrays; coefficients are taken as floats.  Each
        power v**exp is computed once per call.  Each term is float(coeff)
        times its factors in symbol order, and the sum runs in term order
        from 0.0.  Raises MissingSymbolError if a needed symbol has no value.
        """
        table: dict = {}
        total = 0.0
        for mono, coeff in self.terms.items():
            value = float(coeff)
            for slot in _slot_order(len(mono)):
                exp = mono[slot]
                if not exp:
                    continue
                try:
                    power = table[slot, exp]
                except KeyError:
                    try:
                        v = values[slot >> 1][slot & 1]
                    except IndexError:
                        raise MissingSymbolError(_symbol(slot)) from None
                    power = table[slot, exp] = v**exp
                value = value * power
            total = total + value
        return total

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def max_order(self) -> int:
        """Largest derivative order of any symbol present; -1 for constants."""
        return (max(map(len, self.terms), default=0) - 1) >> 1

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        """Terms in descending canonical monomial order."""
        width = (max(map(len, self.terms), default=0) + 1) >> 1
        return sorted(
            self.terms.items(), key=lambda t: _order_key(t[0], width), reverse=True
        )

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


def _exact(value) -> Scalar:
    # Floats (and anything else) are refused rather than silently rounded.
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return _settle(value)
    raise TypeError(f"coefficient must be int or Fraction, got {type(value).__name__}")


def _settle(value: Scalar) -> Scalar:
    return value.numerator if value.denominator == 1 else value


def _raw(terms: dict[Monomial, Scalar]) -> DiffPoly:
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


def parse_poly(text: str) -> DiffPoly:
    """Parse the plain polynomial grammar into a normalized DiffPoly.

    Grammar:  poly   := [sign] term (sign term)*
              term   := (rational '*')* '(' poly ')'
                      | factor ('*' factor)*
              factor := rational | symbol ['^' positive-integer]

    So a parenthesized sum ends its term and follows rationals only, as in
    -2*(q' - 2*p*q); '^' takes a symbol only; every product is written
    with '*'.  Sums nest at most _MAX_NESTING deep, and the factor that
    scales a sum's terms holds at most _MAX_SCALE_BITS bits.  One pass
    writes each term into one term map, its coefficient the product of
    the rationals and signs in and around it: nothing is multiplied out,
    and time and memory grow with the length of the text.  Raises
    PolyParseError with the offending position on malformed input.
    """
    scanner = _PolyScanner(text)
    terms: dict[Monomial, Scalar] = {}
    _parse_sum(scanner, 1, terms, 0, "end")
    return _raw(terms)


#: Deepest nesting of parenthesized sums that parse_poly reads, and the
#: most bits of numerator plus denominator of the factor that scales each
#: term of one.  The bundled tables nest one deep and scale by -1 or -2.
#: Every other coefficient is written in the text of its own term, so the
#: bits of the term map grow with the text, not with its square.
_MAX_NESTING = 100
_MAX_SCALE_BITS = 64


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


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------

STYLES = ("plain", "latex")


def format_poly(poly: DiffPoly, style: str = "plain") -> str:
    """Render a DiffPoly deterministically (descending canonical term order).

    ``plain`` round-trips through parse_poly; ``latex`` mirrors prime
    notation with implicit multiplication.  Both walk the terms alike and
    differ only in how a fraction and a monomial are written.
    """
    if style not in STYLES:
        raise ValueError(f"unknown style {style!r}; expected one of {STYLES}")
    if not poly.terms:
        return "0"
    latex = style == "latex"
    pieces: list[str] = []
    for mono, coeff in poly.sorted_terms():
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
            text = _monomial_text(mono, latex)
        else:
            text = body + ("" if latex else "*") + _monomial_text(mono, latex)
        if pieces:
            pieces.append(f" {'-' if coeff < 0 else '+'} {text}")
        else:
            pieces.append(f"-{text}" if coeff < 0 else text)
    return "".join(pieces)


def _monomial_text(mono: Monomial, latex: bool) -> str:
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
                    {"sym": _BASES[s & 1], "order": s >> 1, "exp": e}
                    for s, e in _factor_slots(mono)
                ],
            }
        )
    return doc
