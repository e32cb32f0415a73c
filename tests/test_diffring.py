"""Ring laws, derivation, parsing, formatting, and evaluation of DiffPoly.

The derivation, the exact evaluator and the token-scanner reader are the
references in oracles.py; the package derives on packed keys in
odelift.lifting and reads text in one pass.
"""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from odelift.cli import derive_json
from odelift.diffring import (
    DiffPoly,
    DiffSymbol,
    MissingSymbolError,
    Monomial,
    P,
    PolyParseError,
    STYLES,
    Q,
    format_poly,
    parse_poly,
    poly_terms_doc,
)
from odelift.lifting import FIXTURE_ORDERS, LiftedODE, derive_lifted_ode, load_fixture
from odelift.lifting import _bundled_tables
from oracles import derive, eval_exact, parse_corpus, parse_disagreements, reference_parse_poly
from oracles import reference_format_poly, reference_monomial_text
from test_cli import EDGE_ODES

# Orders up to 7 put factors in high slots and give monomial keys of many
# different lengths; low orders come up often enough to collide and cancel.
SYMBOL_POOL = [P(0), P(1), P(2), P(7), Q(0), Q(1), Q(2), Q(5)]


def random_poly(rng: random.Random, max_terms: int = 4) -> DiffPoly:
    total = DiffPoly.zero()
    for _ in range(rng.randint(0, max_terms)):
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        term = DiffPoly.const(coeff)
        for _ in range(rng.randint(0, 3)):
            # Repeated factors: a symbol may come up again, or squared.
            term = term * DiffPoly({Monomial({rng.choice(SYMBOL_POOL): rng.randint(1, 2)}): 1})
        total = total + term
    return total


def random_monomial(rng: random.Random) -> Monomial:
    return Monomial((rng.choice(SYMBOL_POOL), rng.randint(1, 3)) for _ in range(rng.randint(0, 3)))


# -- symbols and monomial order ---------------------------------------------


def test_symbol_names_and_derivation():
    assert P().name == "p"
    assert Q(2).name == "q''"
    with pytest.raises(ValueError):
        P(-1)


def test_symbol_order_p_before_q_ascending_order():
    assert P(0) < P(1) < P(5) < Q(0) < Q(1)


def descending(*monos):
    """The monomials in DiffPoly.sorted_terms order."""
    return [mono for mono, _ in DiffPoly({mono: 1 for mono in monos}).sorted_terms()]


def test_monomial_order_graded_then_lex():
    one = Monomial()
    p = Monomial({P(): 1})
    q = Monomial({Q(): 1})
    p2 = Monomial({P(): 2})
    pq = Monomial({P(): 1, Q(): 1})
    assert descending(one, q, p, p2, pq) == [p2, pq, p, q, one]
    # same degree: the earliest symbol with a differing exponent decides
    assert descending(Monomial({Q(): 1}), Monomial({P(1): 1})) == [
        Monomial({P(1): 1}), Monomial({Q(): 1})
    ]
    assert descending(Monomial({P(): 1, Q(): 1}), Monomial({P(): 1, P(1): 1})) == [
        Monomial({P(): 1, P(1): 1}), Monomial({P(): 1, Q(): 1})
    ]


def test_monomial_order_matches_pairwise_definition():
    # Graded lex spelled out on the factor view: degree first, then the
    # earliest symbol whose exponents differ, the higher exponent larger.
    def less(a, b):
        ea, eb = dict(a.factors), dict(b.factors)
        if sum(ea.values()) != sum(eb.values()):
            return sum(ea.values()) < sum(eb.values())
        for sym in sorted(ea.keys() | eb.keys()):
            if ea.get(sym, 0) != eb.get(sym, 0):
                return ea.get(sym, 0) < eb.get(sym, 0)
        return False

    rng = random.Random(5)
    monos = [random_monomial(rng) for _ in range(60)]
    ordered = descending(*monos)
    assert len(ordered) == len(set(ordered)) and set(ordered) == set(monos)
    # every pair, not only neighbours: the order is the pairwise definition
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            assert less(b, a) and not less(a, b), (a, b)


def test_monomial_views():
    mono = Monomial([(Q(5), 1), (P(), 2), (P(7), 1), (P(), 1)])
    assert mono.factors == ((P(0), 3), (P(7), 1), (Q(5), 1))
    assert repr(mono) == f"p^3*{P(7).name}*{Q(5).name}"
    product = DiffPoly({mono: 1}) * DiffPoly({Monomial({Q(5): 1}): 1})
    assert product.terms == {Monomial({P(): 3, P(7): 1, Q(5): 2}): 1}
    with pytest.raises(ValueError):
        Monomial({DiffSymbol("r", 0): 1})


def test_monomial_rejects_bad_exponents():
    with pytest.raises(ValueError):
        Monomial({P(): -1})
    assert Monomial({P(): 0}) == Monomial()
    with pytest.raises(TypeError, match="exponent must be int, got float"):
        Monomial({P(): 1.5})
    with pytest.raises(TypeError, match="factor key must be DiffSymbol, got str"):
        Monomial({"p": 1})


def test_poly_keys_and_attributes_are_checked():
    with pytest.raises(TypeError, match="term key must be Monomial, got tuple"):
        DiffPoly({(1,): 1})
    poly = parse_poly("p")
    for name in ("terms", "other"):
        with pytest.raises(AttributeError, match="DiffPoly is immutable"):
            setattr(poly, name, {})
    assert poly.terms == {Monomial({P(): 1}): 1}


# -- ring operations ----------------------------------------------------------


def test_add_examples():
    p = DiffPoly.symbol(P())
    assert p + (-p) == DiffPoly.zero()
    assert parse_poly("4*q - 2*p^2") + parse_poly("p'") == parse_poly("4*q - 2*p^2 + p'")
    assert parse_poly("3*p") + parse_poly("3*p") == parse_poly("6*p")


def test_mul_examples():
    assert parse_poly("p + q") * parse_poly("p - q") == parse_poly("p^2 - q^2")
    assert parse_poly("2*q") * parse_poly("3*p'") == parse_poly("6*p'*q")
    assert parse_poly("p") * DiffPoly.zero() == DiffPoly.zero()


def test_ring_laws_random():
    rng = random.Random(20260816)
    for _ in range(60):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + DiffPoly.zero() == a
        assert a * DiffPoly.const(1) == a


def test_normalization_no_zero_terms():
    rng = random.Random(7)
    for _ in range(40):
        a, b = random_poly(rng), random_poly(rng)
        for out in (a + b, a - b, a * b, derive(a), -a):
            assert all(coeff != 0 for coeff in out.terms.values())


def test_scalar_arithmetic_exact():
    a = parse_poly("7*p*p'")
    assert a * Fraction(1, 7) == parse_poly("p*p'")
    assert Fraction(1, 2) * a == Fraction(7, 2) * parse_poly("p*p'")
    assert 2 * a == parse_poly("14*p*p'")


def test_coefficients_must_be_exact():
    mono = Monomial({P(): 1})
    for bad in (0.1, 1.0, "1", None):
        with pytest.raises(TypeError):
            DiffPoly.const(bad)
        with pytest.raises(TypeError):
            DiffPoly({mono: bad})
    with pytest.raises(TypeError):
        parse_poly("p") * 0.5
    assert DiffPoly({mono: Fraction(1, 10)}).terms == {mono: Fraction(1, 10)}
    assert DiffPoly.const(3) == parse_poly("3")


def test_integral_coefficients_are_int():
    assert type(DiffPoly.const(Fraction(4, 2)).terms[Monomial()]) is int
    for poly in (
        parse_poly("1/2*p + 3*q") * 2,
        parse_poly("1/2*p") + parse_poly("1/2*p"),
        derive(parse_poly("1/2*p^2")),
        parse_poly("6*p") * Fraction(1, 3),
        DiffPoly.symbol(P()) * Fraction(1, 2) * 4,
    ):
        assert all(type(c) is int for c in poly.terms.values()), poly
    assert (parse_poly("3*p") * Fraction(1, 2)).terms == {Monomial({P(): 1}): Fraction(3, 2)}


def test_large_exponent_parses_at_once():
    start = time.perf_counter()
    poly = parse_poly("p^99999999999")
    assert time.perf_counter() - start < 1.0
    assert poly.terms == {Monomial({P(): 99999999999}): 1}


# '^' takes a symbol only, so a power of a literal or of a sum, whose
# expansion can be huge (2^99999999999 alone would need about 12.5 GB),
# is refused at its '^' before anything is computed
POWERS_OVER_THE_BUDGET = [
    ("2^99999999999", 1), ("(p+q)^100000", 5), ("(2*p+q)^3000", 7),
    ("(p+q+q'')^44", 9), ("(1/2)^1000001", 5), ("(-1)^99999999999", 4),
    ("p^2^3", 3),
]


def test_powers_over_the_budget_are_refused_at_once():
    for text, pos in POWERS_OVER_THE_BUDGET:
        start = time.perf_counter()
        with pytest.raises(PolyParseError) as exc:
            parse_poly(text)
        assert time.perf_counter() - start < 1.0
        assert exc.value.position == pos, text


# a parenthesized sum is the last factor of its term and follows
# rationals only, so a product of sums is refused at the token after
# the first sum, and a sum after a symbol at its '('
PRODUCTS_OVER_THE_BUDGET = [
    ("(p+q)^400*(p'+q')^400", 5),
    ("*".join(["2^900000"] * 5), 1),
    ("p*(p+q)^10*(p'+q')^100", 2),
    ("(p+q)^31*(p'+q')^31", 5),
    ("(1/2)^1000000*2", 5),
    ("(p+q)*(p'+q')", 5),
    ("2*(p+q)*p", 7),
    ("q*(p+q)", 2),
]


def test_products_over_the_budget_are_refused_at_once():
    for text, pos in PRODUCTS_OVER_THE_BUDGET:
        start = time.perf_counter()
        with pytest.raises(PolyParseError) as exc:
            parse_poly(text)
        assert time.perf_counter() - start < 1.0
        assert exc.value.position == pos, text
    # products of rationals and symbols, and rationals before a sum, stay
    assert parse_poly("2*q*3*p*p") == parse_poly("6*p^2*q")
    assert parse_poly("-1/2*2*(p - 3*(q - p'))") == parse_poly("-p + 3*q - 3*p'")


NESTED_TOO_DEEP = "(" * 5000 + "p" + ")" * 5000

# the factor that scales every term of a sum holds at most 64 bits of
# numerator plus denominator, compounded through the nesting
SCALES_OVER_THE_BUDGET = [
    (f"{2**64}*(p + q)", 21), ("4294967296*(4294967296*(p))", 23), ("1/3*2^64*(p)", 5),
]


def test_sums_nest_to_a_fixed_depth_with_small_scales():
    assert parse_poly("(" * 100 + "p" + ")" * 100) == parse_poly("p")
    with pytest.raises(PolyParseError, match="nested over 100 deep") as exc:
        parse_poly(NESTED_TOO_DEEP)
    assert exc.value.position == 100
    big = 2**63 - 1
    assert parse_poly(f"{big}*(p + q)") == parse_poly(f"{big}*p + {big}*q")
    for text, pos in SCALES_OVER_THE_BUDGET:
        with pytest.raises(PolyParseError) as exc:
            parse_poly(text)
        assert exc.value.position == pos, text


def test_derived_coefficients_round_trip_through_the_plain_format():
    for m in range(1, 13):
        for k, c in enumerate(derive_lifted_ode(m).coeffs):
            assert parse_poly(format_poly(c, "plain")) == c, f"m={m}, c_{k}"


@pytest.mark.parametrize("m", FIXTURE_ORDERS)
def test_bundled_tables_parse_to_the_derived_coefficients(m):
    derived = derive_lifted_ode(m).coeffs
    for k, (parsed, c) in enumerate(zip(load_fixture(m), derived, strict=True)):
        assert parsed.terms == c.terms, f"m={m}, c_{k}"
        assert all(type(v) is int for v in parsed.terms.values())


def _allowed_line(n: int) -> str:
    # n terms with distinct monomials; every fourth is a scaled sum of three
    parts = []
    for k in range(1, n + 1):
        if k % 4:
            parts.append(f" + {k}*p^{k}*q'")
        else:
            parts.append(f" - 3/{k}*(p'^{k} - {k}*q^{k}*p'' + q''^{k})")
    return "".join(parts)


def test_allowed_lines_parse_in_linear_time():
    # a flat sum that a ring-arithmetic parser copies on every '+' costs the
    # square of its length; one pass into one term map costs the length
    short, long = _allowed_line(1_000), _allowed_line(4_000)
    assert 90_000 < len(long) < 110_000
    times = []
    for text in (short, long):
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            poly = parse_poly(text)
            best = min(best, time.perf_counter() - start)
        times.append(best)
    assert len(poly.terms) == 3_000 + 3 * 1_000
    assert times[1] < 8 * times[0], times


# q with 8000 primes times a sum of 400 symbols: 89 KB of text
HIDDEN_PRODUCT = "q" + "'" * 8000 + "*(" + " + ".join("p" + "'" * k for k in range(400)) + ")"


def test_a_long_line_that_hides_a_large_product_is_refused_at_once():
    text = HIDDEN_PRODUCT
    assert 85_000 < len(text) < 95_000
    start = time.perf_counter()
    with pytest.raises(PolyParseError, match="follow only rationals") as exc:
        parse_poly(text)
    assert time.perf_counter() - start < 0.1
    assert exc.value.position == 8002


# -- derivation ---------------------------------------------------------------


def test_derive_examples():
    assert derive(DiffPoly.symbol(P())) == DiffPoly.symbol(P(1))
    assert derive(parse_poly("p^2*q")) == parse_poly("2*p*p'*q + p^2*q'")
    assert derive(parse_poly("q' - 2*p*q")) == parse_poly("q'' - 2*p'*q - 2*p*q'")
    assert derive(DiffPoly.const(5)) == DiffPoly.zero()


def test_derive_leibniz_and_linear_random():
    rng = random.Random(99)
    for _ in range(40):
        a, b = random_poly(rng), random_poly(rng)
        assert derive(a * b) == derive(a) * b + a * derive(b)
        alpha, beta = Fraction(3, 2), Fraction(-5)
        assert derive(alpha * a + beta * b) == alpha * derive(a) + beta * derive(b)


# -- evaluation ---------------------------------------------------------------


def rows(assignment):
    """The layout DiffPoly.eval reads, [[p, q], [p', q'], ...], from a
    {DiffSymbol: value} dict; entries the dict lacks hold NaN."""
    out = [[np.nan, np.nan] for _ in range(max(sym.order for sym in assignment) + 1)]
    for sym, value in assignment.items():
        out[sym.order]["pq".index(sym.base)] = value
    return out


def test_eval_examples():
    poly = parse_poly("4*q - 2*p^2 + p'")
    assert poly.eval([[0.0, -1.0], [0.0]]) == -4.0
    assert poly.eval(np.array([[0.0, -1.0], [0.0, np.nan]])) == -4.0
    assert DiffPoly.zero().eval([]) == 0.0
    assert parse_poly("-10*p").eval([[2.0]]) == -20.0
    # slot 2k+b is row k, entry b: p'' and q' here
    assert parse_poly("p'' - 3*q'").eval([[7.0, 7.0], [7.0, 2.0], [5.0]]) == -1.0


def test_eval_missing_symbol():
    for values, missing in [
        ([[1.0]], Q(1)),  # no row for q'
        ([[1.0], [1.0]], Q(1)),  # row 1 holds p' alone
        (np.ones((1, 2)), Q(1)),
    ]:
        with pytest.raises(MissingSymbolError) as exc:
            parse_poly("p*q'").eval(values)
        assert exc.value.symbol == missing
        assert "q'" in str(exc.value)
    with pytest.raises(MissingSymbolError) as exc:
        parse_poly("q + p''").eval(np.ones((2, 2)))
    assert exc.value.symbol == P(2)


def test_eval_homomorphism_random():
    rng = random.Random(4242)
    checked = 0
    for _ in range(5000):
        if checked >= 50:
            break
        a, b = random_poly(rng), random_poly(rng)
        assignment = {sym: rng.uniform(-2.0, 2.0) for sym in SYMBOL_POOL}
        values = rows(assignment)
        va, vb = a.eval(values), b.eval(values)
        vs = (a + b).eval(values)
        vp = (a * b).eval(values)
        if not all(1e-3 <= abs(v) <= 1e3 for v in (va, vb, vs, vp)):
            continue
        assert abs(vs - (va + vb)) <= 1e-12 * max(abs(vs), abs(va) + abs(vb))
        assert abs(vp - va * vb) <= 1e-12 * max(abs(vp), abs(va * vb))
        checked += 1
    assert checked >= 50


def out_of_place_eval(poly, assignment):
    """DiffPoly.eval without a power table: the bitwise reference."""
    total = 0.0
    for mono, coeff in poly.terms.items():
        value = float(coeff)
        for sym, exp in mono.factors:
            value = value * assignment[sym] ** exp
        total = total + value
    return total


@pytest.mark.parametrize("kind", ["floats", "arrays", "mixed", "broadcast", "dtypes"])
def test_eval_matches_the_out_of_place_sum_bit_for_bit(kind):
    # the shared power table must change no bit of any product or sum, also
    # for values that broadcast or promote
    rng = random.Random(31)
    gen = np.random.default_rng(31)
    shapes = {
        "floats": [None] * 8,
        "arrays": [(5,)] * 8,
        "mixed": [None, (5,)] * 4,
        "broadcast": [(3, 1), (5,), (1,), None] * 2,
        "dtypes": [(5,)] * 8,
    }[kind]
    assignment = {}
    for i, (sym, shape) in enumerate(zip(SYMBOL_POOL, shapes)):
        value = gen.uniform(-2.0, 2.0, shape)
        if kind == "dtypes":
            value = value.astype([np.float32, np.float64, np.int64, np.float64][i % 4])
        assignment[sym] = value if shape is not None else float(value)
    for _ in range(40):
        poly = random_poly(rng, 6)
        got, want = poly.eval(rows(assignment)), out_of_place_eval(poly, assignment)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want) and np.asarray(got).dtype == np.asarray(want).dtype
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_eval_exact_is_exact():
    poly = parse_poly("4*p*q - 2*q'")
    values = {P(0): Fraction(1, 3), Q(0): Fraction(2, 7), Q(1): Fraction(-1, 2)}
    assert eval_exact(poly, values) == Fraction(4, 1) * Fraction(1, 3) * Fraction(2, 7) + 1
    rng = random.Random(11)
    for _ in range(20):
        a, b = random_poly(rng), random_poly(rng)
        assignment = {
            sym: Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for sym in SYMBOL_POOL
        }
        assert eval_exact(a * b, assignment) == eval_exact(a, assignment) * eval_exact(
            b, assignment
        )


# -- parsing ------------------------------------------------------------------


def test_parse_examples():
    poly = parse_poly("11*p^2 - 4*p' - 10*q")
    assert len(poly.terms) == 3
    assert parse_poly("0") == DiffPoly.zero()
    assert parse_poly("2*(q' - 2*p*q)") == parse_poly("2*q' - 4*p*q")


def test_parse_rational_and_deep_primes():
    assert parse_poly("3/4*p''''' + 1/4*p'''''") == DiffPoly.symbol(DiffSymbol("p", 5))
    assert parse_poly("1/2") == DiffPoly.const(Fraction(1, 2))


PARSE_ERRORS = [
    ("p q", 2), ("2*^3", 2), ("(p", 2), ("p^0", 2), ("p^-2", 2), ("", 0), ("1/0", 2),
    ("1/", 2),
    # past int()'s digit limit, as a numerator and as a denominator
    ("1" * 5000 + "*p", 0), ("p - 3/" + "7" * 5000, 6),
    ("2\u00b2*p", 1),  # a digit to str.isdigit, not to int()
]

IMPLICIT_PRODUCTS = ["2p", "p(q)"]


def test_parse_errors_carry_position():
    for text, pos in PARSE_ERRORS:
        with pytest.raises(PolyParseError) as exc:
            parse_poly(text)
        assert exc.value.position == pos, text
    with pytest.raises(PolyParseError, match="expected digits after '/'") as exc:
        parse_poly("1/")
    assert exc.value.position == 2


def test_parse_rejects_implicit_multiplication():
    for text in IMPLICIT_PRODUCTS:
        with pytest.raises(PolyParseError):
            parse_poly(text)


# A malformed token right after a valid one, which a scanner reading one
# token ahead refuses as soon as the valid one is consumed
AFTER_A_VALID_TOKEN = [
    "p 1/0", "2*p $", "p^2 1/", "p^ 3/0", "(p) \u00b2", "q'' 1" + "0" * 5000, "p^2^$",
]

# characters that str takes for whitespace or decimal digits, or for neither
OTHER_CHARACTERS = ["p\u00a0+\u3000q", "\u0663*p + \u0661/\u0662*q", "p\x00", "p\x1c*q", "p \n- q\r"]

# the table lines that tests/test_cli.py writes for check-paper to refuse
CLI_TABLE_LINES = ["2*p^2 +", "2^99999999999*p", "1/0*p"]

# exponents past a byte, which the keyed reading keeps as Monomials: p^256
# packed as an int would be q's key
WIDE_EXPONENT_LINES = [
    "p^256", "q^255*p^256 + q", "p^256 - q", "p^256 - p^256 + q", "-(p^256 + q) + p^256",
    "2*p'^1000*q - 3/2*q''^300 + q''^300", "p^99999999999*q^255",
]


def test_one_pass_reader_matches_the_token_scanner():
    # same terms in the same order, or the same exception, message and
    # position, on the tables, every parse-error text above and a seeded
    # corpus (tests/oracles.py; the large case below reads 200 000 strings
    # of it).  The keyed reading, on slot-layout keys as check-paper reads
    # a table, must give parse_poly's terms packed, in the same order, or
    # the same exception.  About 1 s on a 2-vCPU machine.
    tables = [
        line
        for m in FIXTURE_ORDERS
        for line in (_bundled_tables() / f"order_m{m}.txt").read_text().splitlines()
    ]
    assert len(tables) == 18
    texts = [
        text
        for cases in (PARSE_ERRORS, POWERS_OVER_THE_BUDGET, PRODUCTS_OVER_THE_BUDGET,
                      SCALES_OVER_THE_BUDGET)
        for text, _ in cases
    ]
    texts += [NESTED_TOO_DEEP, HIDDEN_PRODUCT, *IMPLICIT_PRODUCTS, *AFTER_A_VALID_TOKEN]
    texts += OTHER_CHARACTERS + CLI_TABLE_LINES + WIDE_EXPONENT_LINES + tables
    assert parse_disagreements(texts + parse_corpus(45, 20_000)) == []


@pytest.mark.large(seconds=120)
def test_one_pass_reader_matches_the_token_scanner_on_200_000_strings():
    # the corpus of the test above ten times as long: its first 20 000
    # strings are that test's
    assert parse_disagreements(parse_corpus(45, 200_000)) == []


# -- formatting ---------------------------------------------------------------


def test_format_zero_and_latex_example():
    assert format_poly(DiffPoly.zero(), "plain") == "0"
    assert format_poly(DiffPoly.zero(), "latex") == "0"
    assert format_poly(parse_poly("-10*p"), "latex") == "-10p"


def test_format_latex_primes_and_powers():
    assert format_poly(parse_poly("2*p^2 - p' - 4*q"), "latex") == "2p^{2} - p' - 4q"
    assert format_poly(parse_poly("7*p'^2"), "latex") == "7{p'}^{2}"
    assert format_poly(parse_poly("1/2*q''''"), "latex") == "\\frac{1}{2}q^{(iv)}"
    assert format_poly(DiffPoly.symbol(DiffSymbol("q", 6)), "latex") == "q^{(6)}"


def test_format_plain_round_trip_random():
    rng = random.Random(2024)
    for _ in range(80):
        poly = random_poly(rng, max_terms=6)
        assert parse_poly(format_poly(poly, "plain")) == poly


def test_format_unknown_style():
    for style in ("yaml", "json"):
        with pytest.raises(ValueError):
            format_poly(DiffPoly.zero(), style)


#: Polynomials at the printers' edges: zero and constants, coefficients
#: +-1 and negative fractions, orders written (iv) and (n) in LaTeX, a
#: primed symbol squared, and exponents and degrees past 255, whose
#: print-layout fields take two bytes.
FORMAT_EDGES = [
    DiffPoly.zero(),
    DiffPoly.const(1),
    DiffPoly.const(-1),
    DiffPoly.const(Fraction(-3, 7)),
    DiffPoly.const(-(10**30)),
    parse_poly("p - q + 1"),
    parse_poly("-p' - 1"),
    parse_poly("-1/2*p'^2 + 3/4*q - p"),
    parse_poly("-q^3 + 2*q'^2 - 7/9*p + p'*q'"),
    DiffPoly({Monomial({P(4): 2}): -1, Monomial({Q(11): 1}): 1}),
    DiffPoly({Monomial({P(): 256}): 1, Monomial({P(): 1, Q(3): 300}): Fraction(-1, 3)}),
    DiffPoly({Monomial({P(2): 200, Q(1): 100}): -1, Monomial({P(1): 255, Q(): 1}): 1}),
    DiffPoly({Monomial({P(9): 70000, Q(): 1}): Fraction(5, 2), Monomial({Q(9): 1}): -1}),
]

#: Symbols and exponents the wide random polynomials draw from: orders past
#: the LaTeX primes and exponents past one byte.
WIDE_SYMBOLS = [P(0), P(1), P(3), P(4), P(5), P(12), Q(0), Q(2), Q(4), Q(9)]
WIDE_EXPONENTS = [1, 1, 2, 3, 17, 255, 256, 300]


def random_wide_poly(rng: random.Random) -> DiffPoly:
    terms = {}
    for _ in range(rng.randint(0, 6)):
        factors = [
            (rng.choice(WIDE_SYMBOLS), rng.choice(WIDE_EXPONENTS)) for _ in range(rng.randint(0, 3))
        ]
        fraction = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        coeff = rng.choice([1, -1, rng.randint(-(10**12), 10**12), fraction])
        terms[Monomial(factors)] = coeff
    return DiffPoly(terms)


@pytest.mark.parametrize("style", STYLES)
def test_format_poly_is_the_reference_printers_text(style):
    # format_poly sorts print-layout keys and formats each factor once; the
    # reference sorts Monomials with a Python key and writes every factor
    rng = random.Random(51)
    polys = [*FORMAT_EDGES, *(c for ode in EDGE_ODES for c in ode.coeffs)]
    polys += [random_poly(rng, max_terms=8) for _ in range(300)]
    polys += [random_wide_poly(rng) for _ in range(300)]
    for poly in polys:
        assert format_poly(poly, style) == reference_format_poly(poly, style), poly.terms
        if style == "plain":
            assert repr(poly) == reference_format_poly(poly), poly.terms


def test_monomial_repr_is_the_reference_text():
    assert repr(Monomial()) == "1"
    rng = random.Random(52)
    monos = [mono for poly in FORMAT_EDGES for mono in poly.terms if mono]
    monos += [random_monomial(rng) for _ in range(100)]
    monos += [Monomial({rng.choice(WIDE_SYMBOLS): rng.choice(WIDE_EXPONENTS)}) for _ in range(50)]
    for mono in filter(None, monos):
        assert repr(mono) == reference_monomial_text(mono), mono


def test_json_terms_doc_schema_and_order():
    poly = parse_poly("2*p^2 - p' - 4*q")
    doc = poly_terms_doc(poly)
    assert doc == [
        {"num": "2", "den": "1", "monomial": [{"sym": "p", "order": 0, "exp": 2}]},
        {"num": "-1", "den": "1", "monomial": [{"sym": "p", "order": 1, "exp": 1}]},
        {"num": "-4", "den": "1", "monomial": [{"sym": "q", "order": 0, "exp": 1}]},
    ]
    # the writer derive --style json uses, which builds no dicts
    written = json.loads(derive_json(LiftedODE(1, (poly, DiffPoly.zero()))))
    assert written["coeffs"][0]["terms"] == doc


def test_poly_equality_with_scalars():
    assert DiffPoly.const(3) == 3
    assert DiffPoly.zero() == 0
    assert parse_poly("p") != 1


def test_a_constant_hashes_as_the_scalar_it_equals():
    for value in (3, -1, 10**30, Fraction(-3, 7), Fraction(6, 3)):
        poly = DiffPoly.const(value)
        assert poly == value and hash(poly) == hash(value)
        assert poly in {value} and value in {poly}
    assert DiffPoly() == 0 and hash(DiffPoly()) == hash(0) == hash(DiffPoly.const(0))
    assert DiffPoly() in {0} and 0 in {DiffPoly()}
    assert hash(parse_poly("p - p + 5/2")) == hash(Fraction(5, 2))


def test_hash_truth_repr_and_refused_operands():
    c = parse_poly("p*q + 1")
    assert hash(c) == hash(parse_poly("1 + q*p"))
    assert not DiffPoly() and parse_poly("p")
    assert repr(c) == format_poly(c)
    # floats and strings are refused: each operator returns NotImplemented
    with pytest.raises(TypeError):
        c + 1.5
    with pytest.raises(TypeError):
        c - "q"
    with pytest.raises(TypeError):
        c * 0.5
    assert (c == "p") is False
