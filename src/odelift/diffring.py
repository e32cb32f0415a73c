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

Every printer runs on print-layout keys.  pack_print_keys packs term maps
into ints that hold the degree in the top field and then every exponent,
p's orders before q's, so that descending int order is sorted_terms'
order; odelift.lifting derives `derive`'s equation on such keys directly.
term_writer is the one term loop: it sorts a term map's keys as ints and
writes each term from its key's fields, formatting each distinct factor
and each distinct p or q half once per writer.  format_poly, and so the
repr of a DiffPoly or a Monomial, and `derive` in plain, LaTeX and JSON
all print through it; only the leaves, the factor text, the join and
how a coefficient is written, differ by style.

The module ships what the tool runs: the ring operations (the table
check subtracts a line that differs from the derived coefficient, and an
explicit LiftedODE may be built by arithmetic), DiffPoly.eval for the
coefficients verify evaluates, parsing, and printing.
parse_poly does no ring arithmetic: it reads a table line in one pass
into one term map, so a line costs time and memory in proportion to its
length.  The pass builds each term's key from its exponent list with a
builder it is given: a Monomial for parse_poly, the slot-layout int of
odelift.lifting when `check-paper` reads a table.  It reads whitespace,
signs, operators, symbols and literals character by character from an
index, with no tokenizer object; it names a token's kind only where it raises, so each
PolyParseError gives the message and position that a token scanner
reading one token ahead would.  The derivation runs on packed keys in
odelift.lifting.  The ring-level derivation, the exact evaluator and
that token scanner, which only tests need, are references in
tests/oracles.py, and so is the term-by-term printer that sorts Monomials
with a Python key.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

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
        return format_poly(_raw({self: 1}))


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
        """Terms in descending canonical monomial order: that of their
        print-layout keys (pack_print_keys)."""
        (keys,), _, _ = pack_print_keys((self,))
        return [term for _, term in sorted(zip(keys, self.terms.items()), reverse=True)]

    def __eq__(self, other) -> bool:
        if isinstance(other, DiffPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == DiffPoly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its scalar, so it hashes as one: the zero
        # polynomial as 0, c as c
        if self.terms.keys() <= {_ONE}:
            return hash(self.terms.get(_ONE, 0))
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
    return _raw(_parse_terms(text, partial(_new_key, Monomial)))


def _parse_terms(text: str, key: Callable[[list[int]], object]) -> dict:
    """parse_poly's term map, with each term's key ``key(exps)`` built from
    its exponent list, slot 0 first and trailing zeros trimmed: a Monomial
    for parse_poly, or odelift.lifting's slot-layout int for a table."""
    terms: dict = {}
    _parse_sum(text + _END, 0, 1, terms, 0, key)
    return terms


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


def _parse_sum(text: str, i: int, scale: Scalar, terms: dict, depth: int, key) -> int:
    """Write the terms of the sum that starts at ``i``, each times
    ``scale``, into ``terms``, keyed by ``key``.  Read what ends the sum,
    the ')' of a nested one (``depth`` > 0) or else the end of the text,
    and return the index after it."""
    while text[i].isspace():
        i += 1
    while True:
        coeff = scale
        if text[i] == "-":
            coeff = -scale
            i += 1
        elif text[i] == "+":
            i += 1
        i = _parse_term(text, i, coeff, terms, depth, key)
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


def _parse_term(text: str, i: int, coeff: Scalar, terms: dict, depth: int, key) -> int:
    """Write the term that starts at ``i``, times ``coeff``, into
    ``terms``: a monomial, under the key ``key(exps)`` of its exponent
    list, or the terms of the parenthesized sum that ends it.  Return the
    index of the token after the term."""
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
            i = _parse_sum(text, i + 1, coeff, terms, depth + 1, key)
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
    mono = key(exps)
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
# Printing
# ---------------------------------------------------------------------------

#: The styles of format_poly.  `derive --style json` writes a third, "json",
#: through the same term loop.
STYLES = ("plain", "latex")


def format_poly(poly: DiffPoly, style: str = "plain") -> str:
    """Render a DiffPoly deterministically (descending canonical term order).

    ``plain`` round-trips through parse_poly; ``latex`` mirrors prime
    notation with implicit multiplication.  The text is term_writer's, over
    the polynomial's print-layout keys, and "0" for the zero polynomial.
    """
    if style not in STYLES:
        raise ValueError(f"unknown style {style!r}; expected one of {STYLES}")
    (terms,), width, field = pack_print_keys((poly,))
    return "".join(term_writer(width, field, style)(terms)) or "0"


def pack_print_keys(polys: Sequence[DiffPoly]) -> tuple[tuple[dict[int, Scalar], ...], int, int]:
    """(coeffs, width, field): the term maps of ``polys`` on print-layout
    keys, in the same insertion order.

    A print-layout key holds, from its most significant field down, the
    monomial's degree, the exponents of p, p', ..., p^(width-1), then those
    of q, q', ..., q^(width-1), ``field`` bytes each.  ``width`` is what the
    highest derivative order of ``polys`` needs, and ``field`` what their
    largest degree, which bounds every exponent, needs, so no field carries
    and a key's int order is the order of its fields read from the top:
    descending int order is the graded-lex order of sorted_terms.
    odelift.lifting.derive_print_keys steps the recurrence on these keys,
    with one-byte fields.
    """
    monos = [mono for poly in polys for mono in poly.terms]
    width = max(((len(mono) + 1) >> 1 for mono in monos), default=0)
    field = max((max(map(sum, monos), default=0).bit_length() + 7) >> 3, 1)
    bits = 8 * field

    def pack(mono: Monomial) -> int:
        key = sum(mono)
        for exps in (mono[0::2], mono[1::2]):
            for e in exps:
                key = key << bits | e
            key <<= bits * (width - len(exps))
        return key

    coeffs = tuple({pack(mono): c for mono, c in poly.terms.items()} for poly in polys)
    return coeffs, width, field


def term_writer(width: int, field: int, style: str) -> Callable[[dict], Iterator[str]]:
    """The term loop of every printer: a function that gives, for a term map
    on print-layout keys of ``width`` and ``field`` bytes (pack_print_keys),
    the text of each term with its leading separator, in ``style`` "plain",
    "latex" or "json".  A zero polynomial has no term and so no text.

    It sorts the keys as plain ints, descending and in C, which lists the
    terms in sorted_terms' graded-lex order, and reads each factor from the
    key's bytes, with no Monomial built.  An equation repeats a few dozen
    distinct factors thousands of times, and a few hundred distinct p and
    q halves of keys, so each (slot, exponent) factor's text is formatted
    once per writer, by _factor_text, and each half's text is joined once
    per writer, in tables the writer holds and drops with it.  Only the
    leaves differ by style: the factor text, how factors join ('*',
    nothing, or the JSON list's separator), and how a term is written
    from its coefficient and halves (_text_term, _json_term).
    """
    join, term = _LEAVES[style]
    half_size = field * width
    bits = 8 * half_size  # the q half is the low `bits` of a key, the p half the next
    mask = (1 << bits) - 1
    factors: dict[tuple[int, int], str] = {}
    p_texts: dict[int, str] = {}
    q_texts: dict[int, str] = {}

    def half_text(half: int, base: int) -> str:
        exps = half.to_bytes(half_size, "big")
        if field > 1:
            exps = [int.from_bytes(exps[i : i + field], "big") for i in range(0, half_size, field)]
        texts = []
        for j, exp in enumerate(exps):
            if exp:
                slot = 2 * j + base
                text = factors.get((slot, exp))
                if text is None:
                    text = factors[slot, exp] = _factor_text(style, slot, exp)
                texts.append(text)
        text = (q_texts if base else p_texts)[half] = join.join(texts)
        return text

    def write(terms: dict) -> Iterator[str]:
        first = True
        for key in sorted(terms, reverse=True):
            p, q = key >> bits & mask, key & mask
            p_text = p_texts.get(p)
            if p_text is None:
                p_text = half_text(p, 0)
            q_text = q_texts.get(q)
            if q_text is None:
                q_text = half_text(q, 1)
            yield term(terms[key], p_text, q_text, first)
            first = False

    return write


def _factor_text(style: str, slot: int, exp: int) -> str:
    """One factor, symbol ``slot`` to the power ``exp``, in ``style``: p'^2
    in plain text, {p'}^{2} in LaTeX, or its JSON object at its nesting in
    the derive document."""
    sym = _symbol(slot)
    if style == "json":
        return (
            f'            {{\n              "exp": {exp},\n              "order": {sym.order},\n'
            f'              "sym": "{sym.base}"\n            }}'
        )
    if style == "plain":
        return sym.name + (f"^{exp}" if exp > 1 else "")
    if exp == 1:
        return sym.latex()
    # a primed symbol is braced so that the power binds to all of it, as in {p'}^{2}
    return f"{{{sym.latex()}}}^{{{exp}}}" if sym.order else f"{sym.latex()}^{{{exp}}}"


def _text_term(frac: str, mul: str, coeff: Scalar, p_text: str, q_text: str, first: bool) -> str:
    """The term leaf of plain text (``frac`` '%d/%d', ``mul`` '*') or of
    LaTeX: the coefficient's magnitude, left out where it is 1 before a
    monomial, then the monomial's p and q halves, behind the sign, '-' or
    nothing for the first term and ' - ' or ' + ' after it."""
    mono = p_text + mul + q_text if p_text and q_text else p_text or q_text
    mag = -coeff if coeff < 0 else coeff
    body = str(mag.numerator) if mag.denominator == 1 else frac % (mag.numerator, mag.denominator)
    text = body if not mono else mono if body == "1" else body + mul + mono
    if first:
        return "-" + text if coeff < 0 else text
    return (" - " if coeff < 0 else " + ") + text


def _json_term(coeff: Scalar, p_text: str, q_text: str, first: bool) -> str:
    """The term leaf of the derive document: one term's JSON object, its
    numerator and denominator as strings and its monomial's p and q halves
    in one list, behind the list's separator."""
    sep = "\n" if first else ",\n"
    if p_text and q_text:
        monomial = f"[\n{p_text},\n{q_text}\n          ]"
    else:
        monomial = f"[\n{p_text}{q_text}\n          ]" if p_text or q_text else "[]"
    return (
        f'{sep}        {{\n          "den": "{coeff.denominator}",\n'
        f'          "monomial": {monomial},\n          "num": "{coeff.numerator}"\n        }}'
    )


#: style -> (how a half's factors join, the term leaf).
_LEAVES = {
    "plain": ("*", partial(_text_term, "%d/%d", "*")),
    "latex": ("", partial(_text_term, "\\frac{%d}{%d}", "")),
    "json": (",\n", _json_term),
}


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
