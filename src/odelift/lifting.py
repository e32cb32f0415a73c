"""Derive the monic linear ODE of order m+1 annihilating m-th powers of
solutions of y'' = p(x) y' + q(x) y.

With the base operator written as d^2 - p d - q, the symmetric-power
recurrence of Bronstein, Mulders & Weil ("On symmetric powers of
differential operators", ISSAC 1997)

    L_0 = 1,   L_1 = d,   L_{i+1} = (d - i p) L_i - i (m-i+1) q L_{i-1}

ends in the monic L_{m+1}, whose lower coefficients are the c_k.  Each step
only differentiates, multiplies by p or q and scales by integers, so the
coefficients are integer polynomials in the ring of `diffring`: no solve,
no division.

The recurrence runs on packed integer keys rather than on DiffPoly
arithmetic, in either of two layouts, through one step, _derive: it
refuses an m out of range before any step, runs _recurrence on the
layout's shifts and moves, and raises if a key sets a derivative order
above the bound m-1, each layout reading the highest order set in the OR
of all keys its own way.  In the slot layout, the one
derive_lifted_ode and so the library use, and the one the table checks
compare on, a monomial's exponent tuple
(slot 2k is p^(k), slot 2k+1 is q^(k), as in `diffring`) is packed into
one int with one byte per slot, slot 0 lowest.  Giving p^(k) the weight
k+1 and q^(k) the weight k+2, entry k of L_i is homogeneous of weight
i-k <= m+1, and every symbol weighs at least 1, so no exponent exceeds
m+1 <= MAX_DERIVE_M+1 < 256: a slot never carries into or borrows from
its neighbour, and adding keys adds exponent tuples.  Multiplying by p is
key + 1, multiplying by q is key + (1 << 8), and the derivation moves one
unit of exponent from slot s to slot s+2.  A byte rather than the fewest
bits that hold m+1 lets int.to_bytes unpack a key into its exponents in
C: the derivation reads them that way once per distinct key, and the
keys become Monomials the same way, once, at the end (_unpacked).  The
highest set bit of the OR of all keys names the highest slot set.

The table checks, check_table for `check-paper` and check_against_fixture,
need no Monomial.  _derive on the slot layout, the step
derive_lifted_ode runs before its unpack, gives the c_k on slot-layout
keys, and each table line is read (or, as a DiffPoly, packed) onto the
same keys by _slot_key, in C, so a line and its c_k compare as int-keyed
term maps.  A table exponent
above 255 does not fit in a byte: that term keeps its Monomial, which
equals no derived key, so no byte of a table term carries into the next
slot.  Only a mismatch unpacks both maps to form derived - expected.

The print layout, derive_print_keys, is the one `derive` prints from in
every style: the layout of diffring.pack_print_keys with one-byte fields,
the degree in the top byte, then the exponents of p, p', ..., p^(W-1),
then those of q, q', ..., q^(W-1), with W = m+1.  The degree and every
exponent stay at most m+1 < 256 here too, so no byte carries, and
descending int order is the printed term order: diffring.term_writer
sorts each coefficient's keys as plain ints and reads the factors from
the keys, with no Monomial built.  Multiplying by p adds 1 to the degree
byte and to the p byte, multiplying by q to the degree byte and to the q
byte, and the derivation moves one unit from a byte to the next one,
order k to k+1.  The OR of all keys is scanned byte by byte for the
highest order set in either base.

Both layouts stay, each where it is the cheaper one.  On print keys,
the table checks would repack every parsed term in Python, and
derive_lifted_ode would interleave the p and q bytes of every key to
unpack it; the recurrence also steps slower there (README, check-paper).
On slot keys, `derive` would repack every key into print order to sort
and write it.

No term ever cancels.  Every term of every entry of every L_i has the sign
(-1)^degree, the degree being the sum of the monomial's exponents (m=4:
c_2 = -50p^3 + 45pp' + 120pq - 5p'' - 30q'), so the recurrence stores no
zero coefficient and needs no zero test: see _recurrence.

The term order of each c_k, the insertion order of its term map, is
part of the result: each entry is written in the order the ring
expression (entry k-1 of L_i) + a' - i p a - i (m-i+1) q b would produce
it, and the tests hold it to that ring-arithmetic recurrence term for
term.  Entry k-1 of L_i comes first because it is copied whole, in C,
before anything is added to it.  No printed output depends on the order:
the printers sort the terms, and verify evaluates no derived c_k.  Only
DiffPoly.eval on a polynomial built by hand from a c_k, such as the
difference of a perturbed coefficient of an explicit LiftedODE, can sum
in another order when the term order changes.

The packed move here is the only derivation the package ships.  The
references live with the tests in tests/oracles.py: the ring-level
derivation `derive`, the ring-arithmetic recurrence built on it, and the
independent oracle, the derivative tower of y = f^m over the basis
B_i = f^(m-i) (f')^i.
"""

from __future__ import annotations

import os
from collections import namedtuple
from functools import partial, reduce
from itertools import chain
from operator import or_
from typing import Callable, NamedTuple, Sequence

from .diffring import (
    DiffPoly,
    Monomial,
    PolyParseError,
    _new_key,
    _parse_terms,
    _raw,
    parse_poly,
)

#: Orders with bundled reference coefficient tables.
FIXTURE_ORDERS = (2, 3, 4, 5)

#: The directory of the bundled tables, read as plain files: a package
#: imported from a zip archive has none.
_BUNDLED_TABLES = os.path.join(os.path.dirname(__file__), "fixtures")

#: The largest m derive_lifted_ode accepts.  Terms, time and memory about
#: double every two steps of m, and the live term count after each step does
#: not depend on m, so the limit is set on m itself, before the first step:
#: m=28 gives 434 624 terms, and a `derive -m 28` process took 4.8-5.8 s
#: and peaked at 305 MB in every style, printing from print-layout keys,
#: with Python 3.11 on a shared 2-vCPU machine.
MAX_DERIVE_M = 28


class FixtureFormatError(ValueError):
    """A reference coefficient table is malformed: wrong shape, bad line or not UTF-8."""


class LiftedODE(namedtuple("LiftedODE", "m coeffs")):
    """The monic equation y^(m+1) + c_m y^(m) + ... + c_1 y' + c_0 y = 0.

    ``coeffs[k]`` is c_k, the coefficient of y^(k), a DiffPoly; the leading
    coefficient is implicitly 1.  A named tuple whose every way in, the
    constructor, _make and _replace, checks m and the length of coeffs.
    """

    __slots__ = ()

    def __new__(cls, m: int, coeffs: tuple[DiffPoly, ...]):
        if m < 1:
            raise ValueError(f"power m must be >= 1, got {m}")
        if len(coeffs) != m + 1:
            raise ValueError(
                f"coefficient list for m={m} must have length {m + 1}, got {len(coeffs)}"
            )
        return super().__new__(cls, m, coeffs)

    _make = classmethod(lambda cls, it: cls(*it))

    @property
    def order(self) -> int:
        return self.m + 1


def derive_lifted_ode(m: int) -> LiftedODE:
    """The unique monic order-(m+1) relation satisfied by y = f^m, for
    1 <= m <= MAX_DERIVE_M; any other m raises ValueError.

    The coefficients are _derive's on slot-layout keys, the step the table
    checks compare on, each key then unpacked into its Monomial by
    _unpacked, with one int.to_bytes.
    """
    return LiftedODE(m, tuple(map(_unpacked, _derive(m, _slot_layout, _slot_order))))


def derive_print_keys(m: int) -> tuple[int, tuple[dict[int, int], ...], int, int]:
    """(m, coeffs, width, field): derive_lifted_ode's coefficients c_0 ..
    c_m, with the same term maps in the same insertion order, on
    print-layout keys of ``width`` m+1 and one-byte fields (``field`` 1):
    sorting a term map's keys in descending int order lists its terms in
    the order DiffPoly.sorted_terms gives.  The same step as
    derive_lifted_ode's, _derive, on the other layout: the same errors,
    with the derivative-order bound read from the print bytes."""
    return m, _derive(m, _print_layout, _print_order), m + 1, 1


def _derive(m: int, layout: Callable, top_order: Callable) -> tuple[dict[int, int], ...]:
    """c_0 .. c_m as term maps on the keys of ``layout`` (_slot_layout or
    _print_layout), in the one insertion order of _recurrence: the step
    every derivation runs.  ValueError for m out of range, before any
    step; RuntimeError if a key sets a derivative order above the bound
    m-1, read by ``top_order(m, used)`` as the highest order set in
    ``used``, the OR of all keys (-1 for none)."""
    if not 1 <= m <= MAX_DERIVE_M:
        raise ValueError(f"power m must be from 1 to {MAX_DERIVE_M}, got {m}")
    coeffs = _recurrence(m, *layout(m))
    worst = top_order(m, reduce(or_, chain.from_iterable(coeffs), 0))
    if worst > m - 1:
        raise RuntimeError(
            f"coefficient for m={m} uses derivative order {worst}, above the bound {m - 1}"
        )
    return coeffs


def _slot_layout(m: int) -> tuple:
    """(p shift, q shift, unpack, deltas) of the slot layout, for
    _recurrence: deltas[n] holds (slot s, key + delta moves one unit of
    exponent from slot s to slot s+2) for the slots of an n-byte key, in
    symbol order, the even (p) slots before the odd (q) ones.  Only
    entries of weight <= m are derived, and their keys are shorter than
    2m."""
    moves = [(s, (1 << 8 * s + 16) - (1 << 8 * s)) for s in range(2 * m)]
    deltas = [(*moves[0:n:2], *moves[1:n:2]) for n in range(2 * m)]
    return 1, 1 << 8, _exponents, deltas


def _slot_order(m: int, used: int) -> int:
    # the highest set bit is in slot (bit_length - 1) >> 3, of order half that
    return (used.bit_length() - 1) >> 4


def _print_layout(m: int) -> tuple:
    """(p shift, q shift, unpack, deltas) of the print layout of width m+1,
    for _recurrence: deltas[n] holds (byte j, key + delta moves one unit of
    exponent from byte j to byte j+1, order k to k+1 of one base) for the
    bytes of a key unpacked to n bytes, in symbol order.  Only entries of
    weight <= m are derived, and they hold no order above m-1, so order m,
    the last of each base, never moves."""
    width, size = m + 1, 2 * m + 3
    unit = [1 << 8 * (size - 1 - j) for j in range(size)]  # 1 in byte j
    order = (*range(1, width), *range(width + 1, 2 * width))
    moves = tuple((j, unit[j + 1] - unit[j]) for j in order)
    deltas = [tuple(move for move in moves if move[0] < n) for n in range(size + 1)]

    def unpack(key: int) -> bytes:
        # trailing zeros trimmed, so no move is tried from an unset high q order
        return key.to_bytes(size, "big").rstrip(b"\0")

    return unit[0] + unit[1], unit[0] + unit[width + 1], unpack, deltas


def _print_order(m: int, used: int) -> int:
    # bytes 1 .. m+1 hold orders 0 .. m of p, the m+1 after them those of q
    used = used.to_bytes(2 * m + 3, "big")
    return len(bytes(map(or_, used[1 : m + 2], used[m + 2 :])).rstrip(b"\0")) - 1


def _recurrence(
    m: int,
    p_shift: int,
    q_shift: int,
    unpack: Callable[[int], bytes],
    deltas: Sequence[tuple[tuple[int, int], ...]],
) -> tuple[dict[int, int], ...]:
    """c_0 .. c_m as term maps on the keys of one layout: key + p_shift is
    the key times p, key + q_shift the key times q, and the derivation moves
    of a key are _derive_moves(key, unpack(key), deltas[len(unpack(key))]).

    Steps the recurrence above on coefficient lists, entry k multiplying
    d^k, with d a d^k = a' d^k + a d^(k+1).  Each entry is a dict from
    packed monomial keys to ints.  It starts as a copy of entry k-1 of
    L_i, the one contribution with scale 1 and the largest, and then takes
    in the derivative of a = entry k of L_i, -i p a and -i (m-i+1) q b
    with b = entry k of L_{i-1}.  L_{m+1} is monic and its first m+1
    entries are c_0 .. c_m.

    Each sum is stored as it comes, with no zero test, because no partial
    sum can be 0.  By induction from L_0 = 1 and L_1 = d, every term of
    L_i has the sign (-1)^degree:

    - entry k of L_{i+1} is a_{k-1} + a_k' - i p a_k - i (m-i+1) q b_k;
    - the derivation keeps a monomial's degree and multiplies by a
      positive exponent;
    - the p and q terms raise the degree by one, under the factors -i and
      -i (m-i+1), which are negative for 1 <= i <= m;
    - so every contribution to a key has the sign (-1)^degree of that key.

    No key is ever deleted, so the term order is the first-write order,
    the same in every layout.
    """
    moves: dict[int, tuple[tuple[int, int], ...]] = {}
    prev, cur = ({0: 1},), ({}, {0: 1})
    for i in range(1, m + 1):
        weight = i * (m - i + 1)
        nxt = []
        for a, shifted, b in zip(cur + ({},), ({},) + cur, prev + ({}, {})):
            out = dict(shifted)
            get = out.get
            for key, c in a.items():
                step = moves.get(key)
                if step is None:
                    exps = unpack(key)
                    step = _derive_moves(key, exps, deltas[len(exps)])
                    # the last step derives each key once (one entry per
                    # weight), and what it kept would only raise the peak
                    if i < m:
                        moves[key] = step
                for new, e in step:
                    out[new] = get(new, 0) + c * e
            for terms, shift, scale in ((a, p_shift, -i), (b, q_shift, -weight)):
                for key, c in terms.items():
                    key += shift
                    out[key] = get(key, 0) + scale * c
            nxt.append(out)
        prev, cur = cur, tuple(nxt)
    return cur[: m + 1]


def _exponents(key: int) -> bytes:
    """The exponents packed into the slot-layout ``key``, slot 0 first,
    trailing zeros trimmed: the top byte holds the key's highest set bit."""
    return key.to_bytes((key.bit_length() + 7) >> 3, "little")


def _slot_key(exps: Sequence[int]) -> int | Monomial:
    """The slot-layout key of the exponent list ``exps``, slot 0 first and
    trailing zeros trimmed, packed in C; the Monomial instead where an
    exponent does not fit in a byte.  No derived key equals that Monomial,
    and so no byte of a table term can carry into the next slot."""
    try:
        return int.from_bytes(exps, "little")
    except ValueError:
        return _new_key(Monomial, exps)


def _derive_moves(
    key: int, exps: bytes, deltas: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, int], ...]:
    """(key after the move, exponent) for each factor of the monomial
    ``key``, whose bytes are ``exps``, in symbol order: the derivation
    moves one unit of exponent out of byte j, by the key change in
    ``deltas``, and multiplies by the exponent in byte j."""
    return tuple([(key + delta, exps[j]) for j, delta in deltas if exps[j]])


# ---------------------------------------------------------------------------
# Reference coefficient tables
# ---------------------------------------------------------------------------

class CoefficientCheck(NamedTuple):
    """Outcome for one coefficient: ``difference`` is derived minus expected,
    the zero polynomial on a match."""

    k: int
    matched: bool
    difference: DiffPoly


class FixtureReport(NamedTuple):
    m: int
    checks: tuple[CoefficientCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.matched for c in self.checks)

    def summary(self) -> str:
        parts = ", ".join(f"c{c.k} {'ok' if c.matched else 'MISMATCH'}" for c in self.checks)
        return f"m={self.m}: {parts} -> {'PASS' if self.passed else 'FAIL'}"


def check_against_fixture(m: int, fixture: Sequence[DiffPoly]) -> FixtureReport:
    """Compare the derived coefficients against an expected c_0..c_m list.

    Equality is structural (exact): each table line is packed into
    slot-layout keys (_slot_key) and compared with the derived c_k as
    check_table compares them, and only on a mismatch is the difference
    polynomial derived - expected formed for the report.
    """
    return _check_terms(m, [{_slot_key(mono): c for mono, c in p.terms.items()} for p in fixture])


def check_table(m: int, directory: str | os.PathLike | None = None) -> FixtureReport:
    """check_against_fixture(m, load_fixture(m, directory)), with each line
    read straight into a term map on slot-layout keys: the same report and
    the same errors, and no Monomial built on either side unless a line
    differs.  `check-paper` runs this."""
    return _check_terms(m, _read_table(m, directory, partial(_parse_terms, key=_slot_key)))


def _check_terms(m: int, table: Sequence[dict]) -> FixtureReport:
    """The report on ``table``, c_0..c_m as term maps on _slot_key's keys:
    each is compared with the derived c_k on slot-layout keys, and only a
    mismatch unpacks both maps into DiffPolys to subtract them."""
    if len(table) != m + 1:
        raise FixtureFormatError(
            f"fixture for m={m} must list {m + 1} coefficients, got {len(table)}"
        )
    checks = []
    for k, (derived, expected) in enumerate(zip(_derive(m, _slot_layout, _slot_order), table)):
        matched = derived == expected
        difference = _raw({}) if matched else _unpacked(derived) - _unpacked(expected)
        checks.append(CoefficientCheck(k, matched, difference))
    return FixtureReport(m, tuple(checks))


def _unpacked(terms: dict) -> DiffPoly:
    # int keys become their Monomials; a Monomial key (_slot_key) stays
    return _raw({_new_key(Monomial, _exponents(k)) if k.__class__ is int else k: c
                 for k, c in terms.items()})


def load_fixture(m: int, directory: str | os.PathLike | None = None) -> list[DiffPoly]:
    """Load the coefficient table ``order_m<m>.txt``: m+1 lines, line k = c_k.

    With no directory, reads the table bundled with the package (available
    for m in FIXTURE_ORDERS).
    """
    return _read_table(m, directory, parse_poly)


def _read_table(
    m: int, directory: str | os.PathLike | None, read: Callable[[str], object]
) -> list:
    """The lines of table m, each as ``read`` reads its text: parse_poly's
    DiffPoly, or its term map on other keys (odelift.diffring._parse_terms).
    With no directory, the table is the file bundled beside this module."""
    name = f"order_m{m}.txt"
    path = os.path.join(_BUNDLED_TABLES if directory is None else directory, name)
    with open(path, "rb") as file:
        numbered = enumerate(file.read().splitlines(), 1)
    lines = [(n, line) for n, line in numbered if line.strip()]
    if len(lines) != m + 1:
        raise FixtureFormatError(
            f"fixture file {name} must have {m + 1} coefficient lines, got {len(lines)}"
        )
    table = []
    for n, line in lines:
        try:
            table.append(read(line.decode("utf-8")))
        except (UnicodeDecodeError, PolyParseError) as exc:
            raise FixtureFormatError(f"fixture file {name} line {n}: {exc}") from None
    return table
