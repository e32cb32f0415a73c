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
check subtracts a line that differs from the derived coefficient, and an
explicit LiftedODE may be built by arithmetic), DiffPoly.eval for the
coefficients verify evaluates, parsing, and plain/LaTeX printing.
parse_poly does no ring arithmetic: it reads a table line in one pass
into one term map, so a line costs time and memory in proportion to its
length.  The pass reads whitespace, signs, operators, symbols and
literals character by character from an index, with no tokenizer
object; it names a token's kind only where it raises, so each
PolyParseError gives the message and position that a token scanner
reading one token ahead would.  The derivation runs on packed keys in
odelift.lifting.  The ring-level derivation, the exact evaluator and
that token scanner, which only tests need, are references in
tests/oracles.py.
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


def parse_poly(text: str) -> DiffPoly:
    """Parse the plain polynomial grammar into a normalized DiffPoly.

    Grammar:  poly   := [sign] term (sign term)*
              term   := (rational '*')* '(' poly ')'
                      | factor ('*' factor)*
              factor := rational | symbol ['^' positive-integer]

    Tokens are integers, with an optional /denominator forming an exact
    rational, the symbols p and q with trailing apostrophes, the operators
    + - * ^ and parentheses; whitespace is insignificant.  So a
    parenthesized sum ends its term and follows rationals only, as in
    -2*(q' - 2*p*q); '^' takes a symbol only; every product is written
    with '*'.  Sums nest at most _MAX_NESTING deep, and the factor that
    scales a sum's terms holds at most _MAX_SCALE_BITS bits.

    One pass reads the text a character at a time from an index, with no
    tokenizer: each term goes into one term map, its coefficient the
    product of the rationals and signs in and around it, so nothing is
    multiplied out and time and memory grow with the length of the text.
    A token is classified (_token_kind) only where an error is raised, so
    a malformed literal or an unknown character is reported as such, and
    before the grammar error at the same token.  Raises PolyParseError
    with the offending position on malformed input.
    """
    terms: dict[Monomial, Scalar] = {}
    _parse_sum(text + _END, 0, 1, terms, 0)
    return _raw(terms)


#: Appended to the text so that no read checks the length: no loop of the
#: reader runs past it (it is not whitespace, a digit or an apostrophe),
#: and at index len(text) it is the end, elsewhere an unexpected character.
_END = "\0"

#: Deepest nesting of parenthesized sums that parse_poly reads, and the
#: most bits of numerator plus denominator of the factor that scales each
#: term of one.  The bundled tables nest one deep and scale by -1 or -2.
#: Every other coefficient is written in the text of its own term, so the
#: bits of the term map grow with the text, not with its square.
_MAX_NESTING = 100
_MAX_SCALE_BITS = 64


def _parse_sum(text: str, i: int, scale: Scalar, terms: dict, depth: int) -> int:
    """Write the terms of the sum that starts at ``i``, each times
    ``scale``, into ``terms``.  Read what ends the sum, the ')' of a
    nested one (``depth`` > 0) or else the end of the text, and return
    the index after it."""
    while text[i].isspace():
        i += 1
    while True:
        coeff = scale
        if text[i] == "-":
            coeff = -scale
            i += 1
        elif text[i] == "+":
            i += 1
        i = _parse_term(text, i, coeff, terms, depth)
        if text[i] not in "+-":
            break
    if depth:
        if text[i] == ")":
            return i + 1
        close = ")"
    elif i == len(text) - 1:
        return i
    else:
        close = "end"
    message = f"expected a sign or {close!r}, found {_token_kind(text, i)!r}"
    raise PolyParseError(message, i)


def _parse_term(text: str, i: int, coeff: Scalar, terms: dict, depth: int) -> int:
    """Write the term that starts at ``i``, times ``coeff``, into
    ``terms``: a monomial, or the terms of the parenthesized sum that
    ends it.  Return the index of the token after the term."""
    exps: list[int] = []
    while True:
        ch = text[i]
        if ch == "p" or ch == "q":
            j = i + 1
            while text[j] == "'":
                j += 1
            slot = 2 * (j - i - 1) + (ch == "q")
            while text[j].isspace():
                j += 1
            exp = 1
            if text[j] == "^":
                j += 1
                while text[j].isspace():
                    j += 1
                exp, k = _literal(text, j) if text[j].isdecimal() else (0, j)
                if exp.denominator != 1 or exp <= 0:
                    _token_kind(text, j)
                    raise PolyParseError("expected a positive integer exponent", j)
                j = k
                while text[j].isspace():
                    j += 1
            if slot >= len(exps):
                exps.extend([0] * (slot + 1 - len(exps)))
            exps[slot] += int(exp)
        elif ch.isdecimal():  # isdigit() would also take digits int() refuses, such as '²'
            value, j = _literal(text, i)
            coeff = coeff * value
            while text[j].isspace():
                j += 1
        elif ch == "(":
            if exps:
                raise PolyParseError("a sum may follow only rationals", i)
            if depth == _MAX_NESTING:
                raise PolyParseError(f"sums nested over {_MAX_NESTING} deep", i)
            if coeff.numerator.bit_length() + coeff.denominator.bit_length() > _MAX_SCALE_BITS:
                raise PolyParseError(f"a sum scaled by over {_MAX_SCALE_BITS} bits", i)
            i = _parse_sum(text, i + 1, coeff, terms, depth + 1)
            while text[i].isspace():
                i += 1
            if text[i] in "*^":
                raise PolyParseError("a sum must be the last factor of its term", i)
            return i
        elif ch.isspace():
            i += 1
            continue
        else:
            message = f"expected number, symbol, or '(', found {_token_kind(text, i)!r}"
            raise PolyParseError(message, i)
        if text[j] == "*":
            i = j + 1
            continue
        if text[j] == "^":
            raise PolyParseError("'^' applies only to a symbol", j)
        break
    mono = _new_key(Monomial, exps)
    c = terms.get(mono, 0) + coeff
    if c:
        terms[mono] = _settle(c)
    else:
        terms.pop(mono, None)
    return j


def _literal(text: str, i: int) -> tuple[Scalar, int]:
    """The integer or rational literal that starts at ``i``, and the index
    after it.  A '/' directly after an integer forms a rational."""
    j = i + 1
    while text[j].isdecimal():
        j += 1
    num = _integer(text, i, j)
    if text[j] != "/":
        return num, j
    k = j + 1
    while text[k].isdecimal():
        k += 1
    if k == j + 1:
        raise PolyParseError("expected digits after '/'", j + 1)
    den = _integer(text, j + 1, k)
    if not den:
        raise PolyParseError("zero denominator", j + 1)
    return Fraction(num, den), k


def _integer(text: str, start: int, end: int) -> int:
    try:
        return int(text[start:end])
    except ValueError:  # past the interpreter's limit on digits for int()
        message = f"integer literal of {end - start} digits is too long"
        raise PolyParseError(message, start) from None


def _token_kind(text: str, i: int) -> str:
    """The kind of the token at ``i``, as an error message names it:
    'end', 'number', 'symbol' or the operator itself.  Raises
    PolyParseError for a malformed literal or an unexpected character."""
    if i == len(text) - 1:
        return "end"
    ch = text[i]
    if ch.isdecimal():
        _literal(text, i)
        return "number"
    if ch in _BASES:
        return "symbol"
    if ch in "+-*^()":
        return ch
    raise PolyParseError(f"unexpected character {ch!r}", i)


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
