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
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from odelift import lifting
from odelift.diffring import DiffPoly, Monomial, P, Q, parse_poly
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


def test_derive_rejects_bad_m(monkeypatch):
    def no_step(*args):
        raise AssertionError("the recurrence started")

    # an m over the limit is refused before the recurrence takes a step
    monkeypatch.setattr(lifting, "_derive_moves", no_step)
    for m in (0, -3, MAX_DERIVE_M + 1, 60, 10**9):
        with pytest.raises(ValueError, match=f"from 1 to {MAX_DERIVE_M}"):
            derive_lifted_ode(m)


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
    # An order above the bound must raise even where asserts are stripped.
    script = (
        "from odelift import lifting\n"
        "lifting.DiffPoly.max_order = lambda self: 99\n"
        "try:\n"
        "    lifting.derive_lifted_ode(3)\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
    )
    path = filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.stdout == "coefficient for m=3 uses derivative order 99, above the bound 2\n"


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
