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
arithmetic.  A monomial's exponent tuple (slot 2k is p^(k), slot 2k+1 is
q^(k), as in `diffring`) is packed into one int with one byte per slot,
slot 0 lowest.  Giving p^(k) the weight k+1 and q^(k) the weight k+2,
entry k of L_i is homogeneous of weight i-k <= m+1, and every symbol
weighs at least 1, so no exponent exceeds m+1 <= MAX_DERIVE_M+1 < 256: a
slot never carries into or borrows from its neighbour, and adding keys
adds exponent tuples.  Multiplying by p is key + 1, multiplying by q is
key + (1 << 8), and the derivation moves one unit of exponent from slot s
to slot s+2.  A byte rather than the fewest bits that hold m+1 lets
int.to_bytes unpack a key into its exponents in C: the derivation reads
them that way once per distinct key, and the keys become Monomials the
same way, once, at the end.

No term ever cancels.  Every term of every entry of every L_i has the sign
(-1)^degree, the degree being the sum of the monomial's exponents (m=4:
c_2 = -50p^3 + 45pp' + 120pq - 5p'' - 30q'), so the recurrence stores no
zero coefficient and needs no zero test: see derive_lifted_ode.

The term order of each c_k, the insertion order of its term map, is
part of the result: each entry is written in the order the ring
expression (entry k-1 of L_i) + a' - i p a - i (m-i+1) q b would produce
it, and the tests hold it to that ring-arithmetic recurrence term for
term.  Entry k-1 of L_i comes first because it is copied whole, in C,
before anything is added to it.  No printed output depends on the order:
the printers sort the terms, and verify reads the derived c_k from the
recurrence on the grid, not from DiffPoly.eval.  Only DiffPoly.eval on a
polynomial built by hand from a c_k, such as the difference of a
perturbed coefficient of an explicit LiftedODE, can sum in another order
when the term order changes.

The packed move here is the only derivation the package ships.  The
references live with the tests in tests/oracles.py: the ring-level
derivation `derive`, the ring-arithmetic recurrence built on it, and the
independent oracle, the derivative tower of y = f^m over the basis
B_i = f^(m-i) (f')^i.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .diffring import (
    DiffPoly,
    Monomial,
    PolyParseError,
    _new_key,
    _raw,
    _slot_order,
    parse_poly,
)

if TYPE_CHECKING:
    from pathlib import Path

#: Orders with bundled reference coefficient tables.
FIXTURE_ORDERS = (2, 3, 4, 5)

#: The largest m derive_lifted_ode accepts.  Terms, time and memory about
#: double every two steps of m, and the live term count after each step does
#: not depend on m, so the limit is set on m itself, before the first step:
#: m=28 gives 434 624 terms, and a `derive -m 28` process took 9.7-11.2 s
#: (8.5-10.2 s with --style json) and peaked at 369 MB in both styles, with
#: Python 3.11 on a shared 2-vCPU machine.
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

    No key is ever deleted, so the term order is the first-write order.
    """
    if not 1 <= m <= MAX_DERIVE_M:
        raise ValueError(f"power m must be from 1 to {MAX_DERIVE_M}, got {m}")
    # deltas[n]: (slot s, key + delta moves one unit of exponent from slot s
    # to slot s+2) for the slots of an n-byte key, in symbol order.  Only
    # entries of weight <= m are derived, and their keys are shorter than 2m.
    deltas = [
        tuple((s, (1 << 8 * s + 16) - (1 << 8 * s)) for s in _slot_order(n))
        for n in range(2 * m)
    ]
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
                    step = moves[key] = _derive_moves(key, deltas)
                for new, e in step:
                    out[new] = get(new, 0) + c * e
            for terms, shift, scale in ((a, 1, -i), (b, 1 << 8, -weight)):
                for key, c in terms.items():
                    key += shift
                    out[key] = get(key, 0) + scale * c
            nxt.append(out)
        prev, cur = cur, tuple(nxt)

    coeffs = tuple(
        _raw({_new_key(Monomial, _exponents(key)): c for key, c in terms.items()})
        for terms in cur[: m + 1]
    )
    bound = m - 1 if m >= 2 else 0
    worst = max(c.max_order() for c in coeffs)
    if worst > bound:
        raise RuntimeError(
            f"coefficient for m={m} uses derivative order {worst}, above the bound {bound}"
        )
    return LiftedODE(m, coeffs)


def _exponents(key: int) -> bytes:
    """The exponents packed into ``key``, slot 0 first, trailing zeros
    trimmed: the top byte holds the key's highest set bit."""
    return key.to_bytes((key.bit_length() + 7) >> 3, "little")


def _derive_moves(
    key: int, deltas: list[tuple[tuple[int, int], ...]]
) -> tuple[tuple[int, int], ...]:
    """(key after the move, exponent) for each factor of the monomial
    ``key``, in symbol order: the derivation moves one unit of exponent
    from slot s to slot s+2, by the key change in ``deltas``, and
    multiplies by the exponent in slot s."""
    exps = _exponents(key)
    return tuple((key + delta, exps[s]) for s, delta in deltas[len(exps)] if exps[s])


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

    Equality is structural (exact): each derived c_k is compared with its
    table line by term-map equality, and only on a mismatch is the
    difference polynomial derived - expected formed for the report.
    """
    if len(fixture) != m + 1:
        raise FixtureFormatError(
            f"fixture for m={m} must list {m + 1} coefficients, got {len(fixture)}"
        )
    checks = []
    for k, (derived, expected) in enumerate(zip(derive_lifted_ode(m).coeffs, fixture)):
        if derived == expected:
            checks.append(CoefficientCheck(k, True, _raw({})))
        else:
            checks.append(CoefficientCheck(k, False, derived - expected))
    return FixtureReport(m, tuple(checks))


def load_fixture(m: int, directory: str | Path | None = None) -> list[DiffPoly]:
    """Load the coefficient table ``order_m<m>.txt``: m+1 lines, line k = c_k.

    With no directory, reads the table bundled with the package (available
    for m in FIXTURE_ORDERS).
    """
    from pathlib import Path

    name = f"order_m{m}.txt"
    root = _bundled_tables() if directory is None else Path(directory)
    numbered = enumerate((root / name).read_bytes().splitlines(), 1)
    lines = [(n, line) for n, line in numbered if line.strip()]
    if len(lines) != m + 1:
        raise FixtureFormatError(
            f"fixture file {name} must have {m + 1} coefficient lines, got {len(lines)}"
        )
    polys = []
    for n, line in lines:
        try:
            polys.append(parse_poly(line.decode("utf-8")))
        except (UnicodeDecodeError, PolyParseError) as exc:
            raise FixtureFormatError(f"fixture file {name} line {n}: {exc}") from None
    return polys


@lru_cache(maxsize=None)
def _bundled_tables():
    """The directory of the bundled tables, resolved once, not per table:
    check-paper --all reads four."""
    from importlib import resources  # imported on use: only check-paper reads the tables

    return resources.files(__package__) / "fixtures"
