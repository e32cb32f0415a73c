"""Derivation of the lifted equations and checks against the bundled tables.

The annihilation oracle here is deliberately primitive: it represents the
derivatives of y = exp(m x^2) as integer polynomials in x (y solves
y'' = x y' + (2x^2 + 2) y, so every y^(k) is a polynomial multiple of y)
and evaluates everything in exact rational arithmetic.  It shares no code
with the recurrence or the tower it is judging.  The tower itself, the
oracle for the recurrence, lives in oracles.py beside these tests.
"""

import gc
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from odelift import cli, diffring, lifting
from odelift.diffring import DiffPoly, DiffSymbol, Monomial, P, Q, format_poly, parse_poly
from odelift.lifting import (
    FIXTURE_ORDERS,
    MAX_DERIVE_M,
    FixtureFormatError,
    LiftedODE,
    check_against_fixture,
    derive_lifted_ode,
    load_fixture,
)
from oracles import (
    ModuleVector,
    basis_step,
    derivative_tower,
    eval_exact,
    falling_factorial,
    monomial_counts,
    partition_counts,
    recurrence_reference,
    reference_check_against_fixture,
    support_sizes,
)

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
FIXTURE_DIR = SRC_DIR / "odelift" / "fixtures"


def vec(m, *texts):
    return ModuleVector(m, tuple(parse_poly(t) for t in texts))


# -- the coordinate recurrence -------------------------------------------------


def test_basis_step_chain_for_squares():
    assert basis_step(vec(2, "1", "0", "0")) == vec(2, "0", "2", "0")
    assert basis_step(vec(2, "0", "2", "0")) == vec(2, "2*q", "2*p", "2")
    assert basis_step(vec(2, "2*q", "2*p", "2")) == vec(
        2, "2*q' + 2*p*q", "2*p' + 2*p^2 + 8*q", "6*p"
    )


def test_tower_m1_is_the_base_equation():
    t = derivative_tower(1)
    assert list(t) == [vec(1, "1", "0"), vec(1, "0", "1"), vec(1, "q", "p")]


def test_tower_triangular_with_falling_factorial_diagonal():
    for m in range(1, 11):
        tower = derivative_tower(m)
        assert len(tower) == m + 2
        for k, v in enumerate(tower):
            for j in range(k + 1, m + 1):
                assert v.coords[j].is_zero()
            if k <= m:
                assert v.coords[k] == DiffPoly.const(falling_factorial(m, k))


def test_lifted_ode_validates_m_and_length():
    with pytest.raises(ValueError, match="power m must be >= 1, got 0"):
        LiftedODE(0, ())
    with pytest.raises(ValueError, match="m=2 must have length 3, got 1"):
        LiftedODE(2, (DiffPoly(),))


def test_module_vector_validates_length():
    with pytest.raises(ValueError):
        ModuleVector(2, (DiffPoly.zero(),))
    with pytest.raises(ValueError):
        derivative_tower(0)


# -- the derived equations ------------------------------------------------------


def test_derive_m1():
    ode = derive_lifted_ode(1)
    assert ode.order == 2
    assert ode.coeffs == (parse_poly("-q"), parse_poly("-p"))


def test_derive_m2_and_m3_closed_forms():
    ode2 = derive_lifted_ode(2)
    assert ode2.coeffs[2] == parse_poly("-3*p")
    assert ode2.coeffs[1] == parse_poly("-(4*q - 2*p^2 + p')")
    assert ode2.coeffs[0] == parse_poly("-2*(q' - 2*p*q)")
    ode3 = derive_lifted_ode(3)
    assert ode3.coeffs[3] == parse_poly("-6*p")
    assert ode3.coeffs[2] == parse_poly("11*p^2 - 4*p' - 10*q")
    assert ode3.coeffs[1] == parse_poly("7*p*p' + 30*p*q - 6*p^3 - p'' - 10*q'")
    assert ode3.coeffs[0] == parse_poly("9*q^2 + 15*p*q' + 6*p'*q - 18*p^2*q - 3*q''")


def test_derive_top_coefficients_m4_m5():
    ode4 = derive_lifted_ode(4)
    assert ode4.coeffs[4] == parse_poly("-10*p")
    assert ode4.coeffs[3] == parse_poly("35*p^2 - 10*p' - 20*q")
    ode5 = derive_lifted_ode(5)
    assert ode5.coeffs[5] == parse_poly("-15*p")
    assert ode5.coeffs[4] == parse_poly("85*p^2 - 35*q - 20*p'")


@pytest.mark.parametrize("entry", ["derive_lifted_ode", "derive_print_keys"])
def test_bad_m_is_refused_before_any_step(entry, monkeypatch):
    def no_step(*args):
        raise AssertionError("the recurrence started")

    # an m out of range is refused, on either layout, before the recurrence
    # takes a step
    monkeypatch.setattr(lifting, "_derive_moves", no_step)
    for m in (0, -3, MAX_DERIVE_M + 1, 60, 10**9):
        with pytest.raises(ValueError, match=f"from 1 to {MAX_DERIVE_M}"):
            getattr(lifting, entry)(m)


def test_symbolic_annihilation_identity_m2():
    v0, v1, v2, v3 = derivative_tower(2)
    a2 = parse_poly("3*p")
    a1 = parse_poly("4*q - 2*p^2 + p'")
    a0 = parse_poly("2*(q' - 2*p*q)")
    for idx in range(3):
        combo = a2 * v2.coords[idx] + a1 * v1.coords[idx] + a0 * v0.coords[idx]
        assert v3.coords[idx] - combo == DiffPoly.zero()


@pytest.mark.parametrize("m", range(1, 11))
def test_derived_equation_annihilates_tower(m):
    # The tower is the independent oracle: the coordinates of
    # y^(m+1) + sum_k c_k y^(k) must vanish in every basis direction.
    tower = derivative_tower(m)
    coeffs = derive_lifted_ode(m).coeffs
    for idx in range(m + 1):
        total = tower[m + 1].coords[idx]
        for k, c in enumerate(coeffs):
            total = total + c * tower[k].coords[idx]
        assert total == DiffPoly.zero(), f"m={m}, coordinate {idx}"


@pytest.mark.parametrize("m", range(1, 17))
def test_packed_recurrence_matches_ring_reference_in_term_order(m):
    # Term order is the insertion order of each c_k, which DiffPoly.eval
    # sums in for a polynomial built from it, so it must match the
    # ring-arithmetic recurrence exactly, not only as a set.  The packed
    # recurrence starts each entry as a copy of entry k-1 of L_i, so the
    # reference adds that entry first.
    coeffs = derive_lifted_ode(m).coeffs
    reference = recurrence_reference(m)
    assert len(coeffs) == len(reference) == m + 1
    for k, (c, ref) in enumerate(zip(coeffs, reference)):
        assert list(c.terms.items()) == list(ref.terms.items()), f"m={m}, c_{k}"
        for mono, coeff in c.terms.items():
            assert type(mono) is Monomial
            assert not mono or mono[-1] != 0, f"untrimmed key {tuple(mono)}"
            assert type(coeff) is int


def test_byte_slots_hold_the_largest_exponent_at_the_limit():
    # Entry weights stay at most m+1, so no exponent passes MAX_DERIVE_M + 1;
    # with that exponent in every slot a derive key can use, the key unpacks
    # to the same bytes, and a move from slot s to s+2 changes only those two
    top = MAX_DERIVE_M + 1
    exps = bytes([top]) * (2 * MAX_DERIVE_M)
    key = int.from_bytes(exps, "little")
    assert top < 256 and lifting._exponents(key) == exps
    for s in range(2 * MAX_DERIVE_M - 2):
        moved = lifting._exponents(key + (1 << 8 * s + 16) - (1 << 8 * s))
        assert moved[:s] == exps[:s] and moved[s + 3 :] == exps[s + 3 :]
        assert (moved[s], moved[s + 1], moved[s + 2]) == (top - 1, top, top + 1)
    assert lifting._exponents(0) == b"" and lifting._exponents(top << 8) == bytes([0, top])


def test_print_bytes_hold_the_largest_exponent_at_the_limit():
    # The print layout of width m+1: the degree byte, then the p bytes, then
    # the q bytes.  With m+1 in every byte the key unpacks to the same bytes,
    # each move from byte j to j+1 changes only those two, and the p and q
    # shifts raise the degree byte and their own byte by one.
    m, top = MAX_DERIVE_M, MAX_DERIVE_M + 1
    size = 2 * m + 3
    p_shift, q_shift, unpack, deltas = lifting._print_layout(m)
    exps = bytes([top]) * size
    key = int.from_bytes(exps, "big")
    assert top < 256 and unpack(key) == exps
    # every order of each base moves but the last, p's bytes before q's
    assert [j for j, _ in deltas[size]] == [*range(1, m + 1), *range(m + 2, size - 1)]
    for j, delta in deltas[size]:
        moved = (key + delta).to_bytes(size, "big")
        assert moved[:j] == exps[:j] and moved[j + 2 :] == exps[j + 2 :]
        assert (moved[j], moved[j + 1]) == (top - 1, top + 1)
    for shift, j in ((p_shift, 1), (q_shift, m + 2)):
        raised = (key + shift).to_bytes(size, "big")
        assert raised == bytes([top + 1]) + exps[1:j] + bytes([top + 1]) + exps[j + 1 :]
    # a key's trailing zeros are trimmed, so no move is tried from them
    assert unpack(0) == b"" and unpack(key >> 8 << 8) == exps[:-1]
    assert all(j < n for n in range(size + 1) for j, _ in deltas[n])


def print_monomial(key, m):
    """The slot-layout exponent tuple of a print-layout key of width m+1."""
    exps = key.to_bytes(2 * m + 3, "big")
    assert max(exps) <= m + 1 and exps[0] == sum(exps[1:])
    slots = [e for pair in zip(exps[1 : m + 2], exps[m + 2 :]) for e in pair]
    while slots and not slots[-1]:
        slots.pop()
    return tuple(slots)


@pytest.mark.parametrize("m", [
    *range(1, 21),
    pytest.param(24, marks=pytest.mark.large(seconds=40)),
    pytest.param(28, marks=pytest.mark.large(seconds=120)),
])
def test_print_keys_sorted_as_ints_give_the_printed_term_order(m):
    # derive_print_keys holds derive_lifted_ode's term maps, in the same
    # insertion order, and descending int order is sorted_terms' order
    power, coeffs, width, field = lifting.derive_print_keys(m)
    assert (power, len(coeffs), width, field) == (m, m + 1, m + 1, 1)
    for k, (c, terms) in enumerate(zip(derive_lifted_ode(m).coeffs, coeffs)):
        assert [(print_monomial(key, m), e) for key, e in terms.items()] == list(c.terms.items())
        assert [print_monomial(key, m) for key in sorted(terms, reverse=True)] == [
            mono for mono, _ in c.sorted_terms()
        ], f"m={m}, c_{k}"


def assert_sign_law(coeffs, label):
    # Every term has the sign (-1)^degree, the precondition for derive's
    # accumulation without zero tests: no contribution can cancel another.
    for k, c in enumerate(coeffs):
        assert c.terms, f"{label}, c_{k} is zero"
        for mono, coeff in c.terms.items():
            assert coeff != 0 and (coeff > 0) == (sum(mono) % 2 == 0), (
                f"{label}, c_{k}: {coeff} * {mono!r}"
            )


@pytest.mark.parametrize(
    "m", [*range(1, 21), pytest.param(24, marks=pytest.mark.large(seconds=60))]
)
def test_every_derived_term_has_the_sign_of_its_degree(m):
    assert_sign_law(derive_lifted_ode(m).coeffs, f"m={m}")


def test_bundled_tables_obey_the_sign_law():
    for m in FIXTURE_ORDERS:
        assert_sign_law(load_fixture(m), f"table m={m}")


def test_weight_series_give_the_recorded_term_totals():
    assert partition_counts(10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert monomial_counts(4) == [1, 1, 3, 5, 10]  # weight 3: p^3, pp', pq, p'', q'
    # derive's result sizes at m = 20, 24 and 28, as README and ROADMAP record them
    for m, total in ((20, 34_209), (24, 127_553), (28, 434_624)):
        assert sum(support_sizes(m)) == total


@pytest.mark.parametrize("m", [
    *range(1, 21),
    pytest.param(24, marks=pytest.mark.large(seconds=40)),
    pytest.param(28, marks=pytest.mark.large(seconds=80)),
])
def test_support_and_linear_part_are_closed_forms(m):
    # The support theorem: c_k holds every monomial of weight m+1-k (p^(j)
    # weighs j+1, q^(j) weighs j+2), and c_0 every one but those in p alone.
    # The linear part: [q^(j)] c_{m-1-j} = -(j+1) C(m+2, j+3) and
    # [p^(j)] c_{m-j} = -C(m+1, j+2), 0 for j = m.  ROADMAP item 18.
    coeffs = derive_lifted_ode(m).coeffs
    assert [len(c.terms) for c in coeffs] == support_sizes(m)
    for k, c in enumerate(coeffs):
        for mono in c.terms:
            weight = sum(((s >> 1) + 1 + (s & 1)) * e for s, e in enumerate(mono))
            assert weight == m + 1 - k, f"c_{k}: {mono!r}"
    for j in range(m):
        assert coeffs[m - 1 - j].terms.get(Monomial({Q(j): 1}), 0) == -(j + 1) * comb(m + 2, j + 3)
    for j in range(m + 1):
        assert coeffs[m - j].terms.get(Monomial({P(j): 1}), 0) == -comb(m + 1, j + 2)


def test_derive_holds_nothing_between_calls():
    derive_lifted_ode(7)  # fills the package's slot-order and symbol tables
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        first = derive_lifted_ode(6)
        one = tracemalloc.get_traced_memory()[0] - start
        second = derive_lifted_ode(6)
        assert first is not second and first.coeffs[0] is not second.coeffs[0]
        assert [list(c.terms.items()) for c in first.coeffs] == [
            list(c.terms.items()) for c in second.coeffs
        ]
        del first, second
        gc.collect()  # also empties the interpreter's free lists
        assert tracemalloc.get_traced_memory()[0] - start < one / 20, one
    finally:
        tracemalloc.stop()


def test_specializing_p_to_zero_m2():
    ode = derive_lifted_ode(2)

    def drop_p_terms(poly):
        kept = {
            mono: coeff
            for mono, coeff in poly.terms.items()
            if all(sym.base != "p" for sym, _ in mono.factors)
        }
        return DiffPoly(kept)

    assert drop_p_terms(ode.coeffs[2]) == DiffPoly.zero()
    assert drop_p_terms(ode.coeffs[1]) == parse_poly("-4*q")
    assert drop_p_terms(ode.coeffs[0]) == parse_poly("-2*q'")


def test_derivative_order_bound_and_integrality():
    for m in range(2, 9):
        ode = derive_lifted_ode(m)
        assert max(c.max_order() for c in ode.coeffs) <= m - 1
        for c in ode.coeffs:
            # Stored as int, so the recurrence ran without Fraction arithmetic.
            assert all(type(coeff) is int for coeff in c.terms.values())
    assert derive_lifted_ode(1).coeffs[0].max_order() == 0


def test_derivative_order_bound_is_enforced_under_python_O():
    # An order above the bound must raise even where asserts are stripped,
    # on either layout: slot keys get a p^(99) key in c_0, and print keys a
    # derivation that also sets the last byte, order m of q, as in
    # tests/test_cli.py::test_derive_json_refuses_an_order_above_the_bound
    slot = (
        "step = lifting._recurrence\n"
        "lifting._recurrence = lambda m, *layout: ({1 << 8 * 198: 1}, *step(m, *layout)[1:])\n"
        "call = lambda: lifting.derive_lifted_ode(3)\n"
    )
    printed = (
        "plain = lifting._derive_moves\n"
        "lifting._derive_moves = lambda key, *rest: plain(key, *rest) + ((key + 1, 1),)\n"
        "call = lambda: lifting.derive_print_keys(3)\n"
    )
    path = filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    for inject, order in ((slot, 99), (printed, 3)):
        script = (
            "from odelift import lifting\n"
            f"{inject}"
            "try:\n"
            "    call()\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.stdout == (
            f"coefficient for m=3 uses derivative order {order}, above the bound 2\n"
        )


@pytest.mark.parametrize(
    "key,order",
    [(1 << 8 * 198, 99), (1 << 8 * 6, 3), (255 << 8 * 5, None), (1 << 8 * 5, None)],
    ids=["p^(99)", "p'''", "q''^255", "q''"],
)
def test_every_slot_layout_caller_enforces_the_derivative_order_bound(monkeypatch, key, order):
    # derive_lifted_ode and both table checks step the same recurrence on
    # slot-layout keys and check the bound, 2 at m = 3, on the keys
    step = lifting._recurrence
    monkeypatch.setattr(lifting, "_recurrence", lambda m, *layout: ({key: 1}, *step(m, *layout)[1:]))
    calls = [
        lambda: derive_lifted_ode(3),
        lambda: lifting.check_table(3),
        lambda: check_against_fixture(3, load_fixture(3)),
    ]
    for call in calls:
        if order is None:
            call()
        else:
            with pytest.raises(RuntimeError, match=f"m=3 uses derivative order {order}, above"):
                call()


# -- fixture tables --------------------------------------------------------------


def test_bundled_tables_match_derivation():
    for m in FIXTURE_ORDERS:
        report = check_against_fixture(m, load_fixture(m))
        assert report.passed, report.summary()
        assert f"m={m}" in report.summary()


def test_fixture_directory_override():
    fixture = load_fixture(3, FIXTURE_DIR)
    assert check_against_fixture(3, fixture).passed


def test_corrupted_fixture_reports_difference():
    fixture = load_fixture(2)
    fixture[0] = -fixture[0]
    report = check_against_fixture(2, fixture)
    assert not report.passed
    assert not report.checks[0].matched
    assert report.checks[0].difference == parse_poly("-4*(q' - 2*p*q)")
    assert report.checks[1].matched and report.checks[2].matched
    assert "MISMATCH" in report.summary() and "FAIL" in report.summary()


def test_matched_coefficients_carry_the_zero_difference(monkeypatch):
    # a line equal to the derived c_k is compared, not subtracted
    monkeypatch.setattr(DiffPoly, "__sub__", None)
    for m in FIXTURE_ORDERS:
        report = check_against_fixture(m, load_fixture(m))
        assert report.passed
        for check in report.checks:
            assert check.matched and check.difference == DiffPoly() and check.difference.terms == {}


def test_fixture_length_mismatch():
    with pytest.raises(FixtureFormatError):
        check_against_fixture(2, load_fixture(3))


def test_load_fixture_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_fixture(2, tmp_path)
    (tmp_path / "order_m2.txt").write_text("p\nq\n")
    with pytest.raises(FixtureFormatError):
        load_fixture(2, tmp_path)


# -- the keyed table check against the DiffPoly comparison ------------------------


def _line_text(terms) -> str:
    """A table line that writes each (monomial, coefficient) of ``terms``
    as its own term, in order, so a monomial may be written twice."""
    text = ""
    for mono, coeff in terms:
        term = format_poly(DiffPoly({mono: coeff}))
        if not text:
            text = term
        else:
            text += " - " + term[1:] if term.startswith("-") else " + " + term
    return text or "0"


def _with(mono: Monomial, sym: DiffSymbol, to: DiffSymbol, add: int = 0) -> Monomial:
    """``mono`` with the exponent of ``sym``, plus ``add``, moved to ``to``."""
    factors = dict(mono.factors)
    exp = factors.pop(sym) + add
    factors[to] = factors.get(to, 0) + exp
    return Monomial(factors)


def _single_edits(m: int, terms: list, rng: random.Random) -> list:
    """(edit, the line's terms after it) for one seeded pick of a term and
    of one of its factors; the last two edits keep the polynomial."""
    i = rng.randrange(len(terms))
    mono, c = terms[i]
    sym, _ = rng.choice(mono.factors)
    part = rng.choice((1, -1, Fraction(1, 2), 2 * c))
    other = rng.choice(terms)[0]
    at = rng.randrange(len(terms) + 1)

    def replaced(*new):
        return terms[:i] + list(new) + terms[i + 1:]

    return [
        ("coefficient + 1", replaced((mono, c + 1))),
        ("coefficient - 1", replaced((mono, c - 1))),
        ("coefficient + 1/2", replaced((mono, c + Fraction(1, 2)))),
        ("exponent + 1", replaced((_with(mono, sym, sym, 1), c))),
        ("factor to order m", replaced((_with(mono, sym, DiffSymbol(sym.base, m)), c))),
        ("dropped term", replaced()),
        ("line negated", [(mono, -c) for mono, c in terms]),
        ("split term", replaced((mono, part), (mono, c - part))),
        ("cancelling pair", terms[:at] + [(other, 1), (other, -1)] + terms[at:]),
    ]


def _carry_traps(terms: list) -> list:
    """p^256 in place of the line's q term, and p^256 - q appended: keys
    that let the byte of p carry into q's would read both as the line."""
    q, wide = Monomial({Q(): 1}), Monomial({P(): 256})
    if not any(mono == q for mono, _ in terms):
        return []
    swapped = [(wide if mono == q else mono, c) for mono, c in terms]
    return [("p^256 for q", swapped), ("p^256 - q appended", terms + [(wide, 1), (q, -1)])]


def _items(report) -> list:
    return [
        (c.k, c.matched, [(mono, coeff, type(coeff)) for mono, coeff in c.difference.terms.items()])
        for c in report.checks
    ]


def _cli_reports(argv, monkeypatch, capsys) -> tuple:
    """check-paper through cli.main: (exit code, stdout, the reports it made)."""
    reports = []

    def recorded(*args):
        reports.append(lifting.check_table(*args))
        return reports[-1]

    monkeypatch.setattr(cli, "check_table", recorded)
    code = cli.main(argv)
    return code, capsys.readouterr().out, reports


def test_keyed_check_is_the_diffpoly_comparison_on_the_bundled_tables(monkeypatch, capsys):
    want = [reference_check_against_fixture(m, load_fixture(m)) for m in FIXTURE_ORDERS]
    assert all(report.passed for report in want)
    for m, report in zip(FIXTURE_ORDERS, want):
        assert _items(check_against_fixture(m, load_fixture(m))) == _items(report)
        assert _items(lifting.check_table(m)) == _items(report)
    code, out, reports = _cli_reports(["check-paper", "--all"], monkeypatch, capsys)
    assert (code, out) == (0, "".join(report.summary() + "\n" for report in want))
    assert list(map(_items, reports)) == list(map(_items, want))


def test_keyed_check_is_the_diffpoly_comparison_on_edited_tables(tmp_path, monkeypatch, capsys):
    # every line of every bundled table under each seeded single edit, and
    # the carry traps; the report through the library and through cli.main
    # must be the DiffPoly comparison's, flags and differences term for term
    rng = random.Random(1828)
    cases = 0
    for m in FIXTURE_ORDERS:
        lines = (FIXTURE_DIR / f"order_m{m}.txt").read_text().splitlines()
        for k, line in enumerate(lines):
            terms = list(parse_poly(line).terms.items())
            edits = _single_edits(m, terms, rng) + _carry_traps(terms)
            for edit, edited in edits:
                table = lines[:k] + [_line_text(edited)] + lines[k + 1:]
                (tmp_path / f"order_m{m}.txt").write_text("\n".join(table) + "\n")
                fixture = load_fixture(m, tmp_path)
                want = reference_check_against_fixture(m, fixture)
                keeps = edit in ("split term", "cancelling pair")
                assert [c.matched for c in want.checks] == [j != k or keeps for j in range(m + 1)]
                assert _items(check_against_fixture(m, fixture)) == _items(want), edit
                argv = ["check-paper", "-m", str(m), "--fixtures", str(tmp_path)]
                code, out, reports = _cli_reports(argv, monkeypatch, capsys)
                assert (code, out) == (0 if keeps else 1, want.summary() + "\n"), edit
                assert list(map(_items, reports)) == [_items(want)], edit
                cases += 1
    assert cases == 18 * 9 + 2 * 4


CHECKS_OK = {m: ", ".join(f"c{k} ok" for k in range(m + 1)) for m in FIXTURE_ORDERS}


def test_check_paper_builds_neither_the_equation_nor_a_monomial(monkeypatch, capsys):
    # check-paper compares term maps on slot-layout keys: no DiffPoly
    # equation is derived and no table line becomes Monomials
    def refused(*args, **kwargs):
        raise AssertionError("check-paper called derive_lifted_ode or built a Monomial")

    monkeypatch.setattr(lifting, "derive_lifted_ode", refused)
    monkeypatch.setattr(cli, "derive_lifted_ode", refused, raising=False)
    monkeypatch.setattr(Monomial, "__new__", refused)
    # the Monomials built with tuple.__new__, and the table reader of load_fixture
    monkeypatch.setattr(diffring, "_new_key", refused)
    monkeypatch.setattr(lifting, "_new_key", refused)
    monkeypatch.setattr(lifting, "parse_poly", refused)
    code = cli.main(["check-paper", "--all"])
    out = capsys.readouterr().out
    assert code == 0 and out == "".join(f"m={m}: {CHECKS_OK[m]} -> PASS\n" for m in FIXTURE_ORDERS)


# -- exact annihilation oracle ----------------------------------------------------

# y = exp(m x^2) has y' = 2 m x y, so y^(k) = R_k(x) y with R integer
# polynomials, and y is the m-th power of f = exp(x^2), a solution of
# y'' = x y' + (2 x^2 + 2) y.  The lifted equation must therefore send
# R_{m+1} + sum_k c_k(x) R_k(x) to exactly zero once p = x, q = 2x^2 + 2.


def _poly_derive(c):
    return [Fraction(k) * c[k] for k in range(1, len(c))]


def _poly_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] += v
    return out


def _poly_scale_by_2mx(c, m):
    # multiply by 2*m*x
    return [Fraction(0)] + [Fraction(2 * m) * v for v in c]


def _poly_eval(c, x):
    total = Fraction(0)
    for v in reversed(c):
        total = total * x + v
    return total


def _power_ratios(m):
    ratios = [[Fraction(1)]]
    for _ in range(m + 1):
        prev = ratios[-1]
        ratios.append(_poly_add(_poly_derive(prev), _poly_scale_by_2mx(prev, m)))
    return ratios


def _symbol_assignment(x):
    values = {P(0): x, P(1): Fraction(1)}
    values.update({P(k): Fraction(0) for k in range(2, 5)})
    values.update(
        {Q(0): 2 * x * x + 2, Q(1): 4 * x, Q(2): Fraction(4)}
    )
    values.update({Q(k): Fraction(0) for k in range(3, 5)})
    return values


def _annihilation_residue(coeffs, m, x):
    ratios = _power_ratios(m)
    syms = _symbol_assignment(x)
    total = _poly_eval(ratios[m + 1], x)
    for k, c in enumerate(coeffs):
        total += eval_exact(c, syms) * _poly_eval(ratios[k], x)
    return total


@pytest.mark.parametrize("m", FIXTURE_ORDERS)
@pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(-2, 7)])
def test_bundled_tables_annihilate_closed_form_powers(m, x):
    assert _annihilation_residue(load_fixture(m), m, x) == 0


@pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(-2, 7)])
def test_m4_single_term_variants_fail_annihilation(x):
    # Either of these one-term edits (45*p*p' -> 4*p*p' in c_2, or
    # 120*p*q' -> 128*p*q' in c_1) looks plausible on the page but breaks
    # the defining identity; the bundled table is the one that holds.
    table = load_fixture(4)
    variant_c2 = list(table)
    variant_c2[2] = variant_c2[2] - parse_poly("41*p*p'")
    assert variant_c2[2] - parse_poly("4*p*p'") == derive_lifted_ode(4).coeffs[2] - parse_poly(
        "45*p*p'"
    )
    assert _annihilation_residue(variant_c2, 4, x) != 0

    variant_c1 = list(table)
    variant_c1[1] = variant_c1[1] + parse_poly("8*p*q'")
    assert _annihilation_residue(variant_c1, 4, x) != 0


def test_power_ratio_oracle_is_self_consistent():
    # y = exp(2 x^2): y'' = (4 + 16 x^2) y, matching R_2 from the recurrence.
    ratios = _power_ratios(2)
    assert ratios[1] == [Fraction(0), Fraction(4)]
    assert ratios[2] == [Fraction(4), Fraction(0), Fraction(16)]
