"""Parsing, differentiation, evaluation, and printing of coefficient functions."""

import dataclasses
import math
import operator
import random
import struct
import sys

import pytest

from odelift import exprparse
from odelift.exprparse import (
    Add,
    Call,
    Div,
    ExprDomainError,
    ExprSyntaxError,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    Var,
    diff_expr,
    eval_expr,
    format_expr,
    parse_expr,
)


def test_parse_and_eval_basic():
    assert eval_expr(parse_expr("x^2 + 1"), 2.0) == 5.0
    assert eval_expr(parse_expr("2+3*4"), 0.0) == 14.0
    assert eval_expr(parse_expr("-x^2"), 3.0) == -9.0
    assert eval_expr(parse_expr("2-3-4"), 0.0) == -5.0
    assert eval_expr(parse_expr("2/4/2"), 0.0) == 0.25
    assert eval_expr(parse_expr("  sin( x ) "), 0.0) == 0.0


def test_parse_does_not_rewrite():
    assert parse_expr("0*x") == Mul(Num(0.0), Var())
    assert parse_expr("x^1") == Pow(Var(), 1)
    assert parse_expr("-x") == Neg(Var())
    assert parse_expr("x^-2") == Pow(Var(), -2)


def test_syntax_error_position_and_expectations():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("(x+")
    err = info.value
    assert err.position == 3
    assert err.found == "end of input"
    assert "number" in err.expected and "'x'" in err.expected
    assert "syntax error at offset 3" in str(err)


@pytest.mark.parametrize(
    "text,position",
    [
        ("", 0),
        ("2+", 2),
        ("x 2", 2),
        ("sin x", 4),
        ("x^2.5", 2),
        ("y+1", 0),
        ("1..", 0),
        ("x*", 2),
        ("(x+1", 4),
        ("2²", 1),  # str.isdigit() takes '²', which float() refuses
        ("x^²", 2),
        ("1.²", 0),
    ],
)
def test_syntax_error_positions(text, position):
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr(text)
    assert info.value.position == position


def test_literal_past_double_range_is_a_syntax_error():
    # 309 nines round to inf, a value nobody typed; the largest double parses
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("x + " + "9" * 309)
    assert info.value.position == 4
    assert "309-character literal" in str(info.value)
    assert parse_expr(f"{sys.float_info.max:.0f}") == Num(sys.float_info.max)


def test_exponent_past_the_int_digit_limit_is_a_syntax_error():
    # int() refuses more than 4 300 digits; the exponent is named at its offset
    for text, position in [("x^" + "9" * 5000, 2), ("(x+1)^-" + "9" * 5000, 7)]:
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr(text)
        assert info.value.position == position
        assert "5000-digit literal" in str(info.value)


def test_exponent_past_double_range_is_refused():
    # checked in Pow itself, so hand-built trees are covered; a 308-digit
    # exponent is within the double range and still parses
    for exponent in (10**309, -(10**309), int(sys.float_info.max) + 1):
        with pytest.raises(ValueError, match="double range"):
            Pow(Var(), exponent)
    assert Pow(Var(), -int(sys.float_info.max)).exponent < 0
    assert parse_expr("x^" + "9" * 308) == Pow(Var(), int("9" * 308))
    for text, position in [("x^" + "9" * 309, 2), ("(x/2)^-" + "9" * 4000, 7)]:
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr(text)
        assert info.value.position == position
        assert "exponent within double range" in str(info.value)


@pytest.mark.parametrize(
    "text,tree",
    [
        ("-x^2", Neg(Pow(Var(), 2))),
        ("2*-x", Mul(Num(2.0), Neg(Var()))),
        ("x^-2", Pow(Var(), -2)),
        ("--x", Neg(Neg(Var()))),
        ("2-3-4", Sub(Sub(Num(2.0), Num(3.0)), Num(4.0))),
        ("2/4/2", Div(Div(Num(2.0), Num(4.0)), Num(2.0))),
        ("-(x+1)*x", Mul(Neg(Add(Var(), Num(1.0))), Var())),
        ("sin(x)^2/x", Div(Pow(Call("sin", Var()), 2), Var())),
        ("x*(x+1)^3", Mul(Var(), Pow(Add(Var(), Num(1.0)), 3))),
        ("1+2*3-4/x", Sub(Add(Num(1.0), Mul(Num(2.0), Num(3.0))), Div(Num(4.0), Var()))),
    ],
)
def test_precedence_corner_cases(text, tree):
    assert parse_expr(text) == tree


DEPTH, NEST = exprparse._MAX_DEPTH, exprparse._MAX_NESTING


@pytest.mark.parametrize(
    "text,position",
    [
        ("(" * NEST + "x" + ")" * NEST, None),
        ("(" * (NEST + 1) + "x" + ")" * (NEST + 1), NEST),
        ("sin(" * NEST + "x" + ")" * NEST, None),
        ("sin(" * (NEST + 1) + "x" + ")" * (NEST + 1), 4 * NEST),
        ("+".join(["x"] * DEPTH), None),
        ("+".join(["x"] * (DEPTH + 1)), 2 * DEPTH - 1),
        ("*".join(["x"] * (DEPTH + 1)), 2 * DEPTH - 1),
        ("-" * (DEPTH - 1) + "x", None),
        ("-" * DEPTH + "x", 0),
    ],
)
def test_depth_and_nesting_limits_are_fixed(text, position):
    # parentheses and trees at and one past the limits, refused at the '('
    # or operator that passes them, with one outcome at any caller depth
    for frames in (0, 300):
        if position is None:
            assert called_from(frames, parse_expr, text) is not None
        else:
            with pytest.raises(ExprSyntaxError) as info:
                called_from(frames, parse_expr, text)
            assert info.value.position == position


def test_walks_take_the_deepest_trees_from_a_deep_caller():
    for text in ["+".join(["x"] * DEPTH), "-" * (DEPTH - 1) + "x", "sin(" * NEST + "x" + ")" * NEST]:
        tree, twin = parse_expr(text), parse_expr(text)
        for walk in (lambda: eval_expr(tree, 0.5), lambda: format_expr(tree),
                     lambda: eval_expr(diff_expr(tree), 0.5)):
            called_from(300, walk)
        # identity and text: two separate parses of one text, never the same object
        assert tree is not twin
        assert called_from(300, repr, tree) == f"parse_expr({format_expr(tree)!r})"
        assert called_from(300, operator.eq, tree, twin) is True
        assert called_from(300, hash, tree) == called_from(300, hash, twin)


def test_trees_compare_node_for_node_and_literals_by_repr():
    assert Num(-0.0) != Num(0.0)
    assert Num(-2.0) != Neg(Num(2.0))
    assert Add(Var(), Num(1.0)) == parse_expr("x+1")
    assert hash(Add(Var(), Num(1.0))) == hash(parse_expr("x+1"))
    assert Add(Var(), Var()) != Sub(Var(), Var()) and Pow(Var(), 2) != Pow(Var(), 3)
    assert Var() != "x" and Num(1.0) != 1.0
    for text in ["x+1", "-2.5*sin(x)^-2", "ln(x)/(1-exp(-x))", "0.0000001 - -0.0"]:
        tree = parse_expr(text)
        assert eval(repr(tree), {"parse_expr": parse_expr}) == tree


def called_from(frames, func, *args):
    """func(*args), called from `frames` more interpreter frames."""
    return called_from(frames - 1, func, *args) if frames else func(*args)


def test_node_validation():
    with pytest.raises(TypeError):
        Pow(Var(), 2.0)
    with pytest.raises(TypeError):
        Pow(Var(), True)
    with pytest.raises(ValueError):
        Call("tan", Var())


def test_diff_closed_forms():
    assert diff_expr(parse_expr("sin(x)")) == Call("cos", Var())
    assert eval_expr(diff_expr(parse_expr("x^3")), 2.0) == 12.0
    second = diff_expr(diff_expr(parse_expr("exp(-x)")))
    assert eval_expr(second, 0.0) == 1.0
    assert diff_expr(parse_expr("7")) == Num(0.0)
    assert diff_expr(parse_expr("ln(x)")) == Div(Num(1.0), Var())


@pytest.mark.parametrize(
    "text,x,fragment",
    [
        ("ln(x)", -1.0, "not positive"),
        ("ln(x)", 0.0, "not positive"),
        ("1/x", 0.0, "division by zero"),
        ("x^-2", 0.0, "zero raised to a negative power"),
        ("exp(x)", 1000.0, "overflow"),
        ("x^400", 10.0, "overflow"),
    ],
)
def test_domain_errors(text, x, fragment):
    tree = parse_expr(text)
    with pytest.raises(ExprDomainError) as info:
        eval_expr(tree, x)
    err = info.value
    assert fragment in str(err)
    assert f"x={x!r}" in str(err)
    assert err.x == x


def test_domain_error_names_the_node():
    with pytest.raises(ExprDomainError) as info:
        eval_expr(parse_expr("x + 1/(x - 2)"), 2.0)
    assert info.value.node == Div(Num(1.0), Sub(Var(), Num(2.0)))
    assert str(info.value).startswith("1.0/(x - 2.0) undefined")


def test_format_precedence():
    assert format_expr(parse_expr("(x+1)*x")) == "(x + 1.0)*x"
    assert format_expr(parse_expr("x^2")) == "x^2"
    assert format_expr(Neg(Add(Var(), Num(1.0)))) == "-(x + 1.0)"
    assert format_expr(Sub(Var(), Sub(Var(), Num(1.0)))) == "x - (x - 1.0)"
    assert format_expr(Pow(Add(Var(), Num(1.0)), 3)) == "(x + 1.0)^3"
    assert format_expr(Pow(Var(), -2)) == "x^-2"
    assert format_expr(Num(-2.5)) == "-2.5"
    assert format_expr(Mul(Num(2.0), Neg(Var()))) == "2.0*-x"


# -- random property checks ---------------------------------------------------

FD_STEP = 1e-5
FD_REL = 1e-6
FD_ABS = 1e-8


def random_tree(rng, depth, funcs=("sin", "cos", "exp")):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([Num(float(rng.randint(1, 5))), Var(), Var()])
    kind = rng.randrange(7)
    child = lambda: random_tree(rng, depth - 1, funcs)
    if kind == 0:
        return Neg(child())
    if kind == 1:
        return Add(child(), child())
    if kind == 2:
        return Sub(child(), child())
    if kind == 3:
        return Mul(child(), child())
    if kind == 4:
        return Div(child(), child())
    if kind == 5:
        return Pow(child(), rng.choice([-2, -1, 2, 3]))
    return Call(rng.choice(funcs), child())


def _all_small(values, bound):
    return all(math.isfinite(v) and abs(v) <= bound for v in values)


def test_diff_matches_finite_differences():
    rng = random.Random(20260816)
    checked = 0
    for _ in range(4000):
        tree = random_tree(rng, rng.randint(1, 3))
        d = diff_expr(tree)
        d3 = diff_expr(diff_expr(d))
        x = rng.uniform(-2.0, 2.0)
        try:
            lo = eval_expr(tree, x - FD_STEP)
            hi = eval_expr(tree, x + FD_STEP)
            exact = eval_expr(d, x)
            spread = (eval_expr(d3, x - FD_STEP), eval_expr(d3, x + FD_STEP))
        except ExprDomainError:
            continue
        # keep only samples where truncation and rounding are provably
        # below the tolerance: small values and a tame third derivative
        if not _all_small((lo, hi, exact) + spread, 100.0):
            continue
        fd = (hi - lo) / (2.0 * FD_STEP)
        assert abs(exact - fd) <= FD_REL * max(abs(exact), abs(fd)) + FD_ABS
        checked += 1
        if checked >= 300:
            break
    assert checked >= 60


def test_format_parse_round_trip_is_structural():
    rng = random.Random(77)
    for _ in range(200):
        tree = random_tree(rng, rng.randint(0, 4))
        assert parse_expr(format_expr(tree)) == tree


def test_small_literals_print_without_an_exponent():
    # repr gives 1e-07, which the grammar lacks; the fixed-point text reparses
    tree = parse_expr("0.0000001")
    assert format_expr(tree) == "0.0000001"
    assert parse_expr(format_expr(tree)) == tree
    # every finite literal prints repr's digits in positional form and reparses
    rng = random.Random(2024)
    sample = [5e-324, 1e-18, 1.2345678901234567e-05]
    while len(sample) < 10_003:
        value = struct.unpack("<d", struct.pack("<Q", rng.getrandbits(63)))[0]
        if 5e-324 <= value <= 1e308:
            sample.append(value)
    for value in sample:
        text = format_expr(Num(value))
        assert "e" not in text and float(text) == value
        assert parse_expr(text) == Num(value)


@pytest.mark.parametrize("walk", [lambda e: eval_expr(e, 1.0), diff_expr, format_expr])
def test_walks_refuse_a_non_expr(walk):
    for bad in ("x", 1.0, None):
        with pytest.raises(TypeError, match="not an Expr"):
            walk(bad)
    with pytest.raises(TypeError, match="not an Expr"):
        walk(Add(Var(), "x"))


def test_round_trip_preserves_values_after_folding():
    # derivatives introduce folded (possibly negative) literals; those
    # reparse as Neg of a positive literal, so compare by value
    rng = random.Random(31337)
    checked = 0
    for _ in range(2000):
        tree = diff_expr(random_tree(rng, rng.randint(1, 3)))
        reparsed = parse_expr(format_expr(tree))
        agreements = 0
        for _ in range(100):
            x = rng.uniform(-3.0, 3.0)
            try:
                a = eval_expr(tree, x)
                b = eval_expr(reparsed, x)
            except ExprDomainError:
                continue
            if not (math.isfinite(a) and math.isfinite(b)):
                continue
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))
            agreements += 1
        if agreements >= 20:
            checked += 1
        if checked >= 60:
            break
    assert checked >= 60


def test_repeated_differentiation_stays_exact_for_polynomials():
    tree = parse_expr("x^4 - 2*x^2 + 1")
    d = tree
    for _ in range(4):
        d = diff_expr(d)
    assert eval_expr(d, 17.3) == 24.0
    assert diff_expr(d) == Num(0.0)


#: One instance of each node type, built positionally, with its fields.
NODE_ARGS = [
    (Num, (2.5,)),
    (Var, ()),
    (Neg, (Var(),)),
    (Add, (Var(), Num(1.0))),
    (Sub, (Var(), Num(1.0))),
    (Mul, (Num(2.0), Var())),
    (Div, (Num(1.0), Var())),
    (Pow, (Var(), -3)),
    (Call, ("ln", Var())),
]


@pytest.mark.parametrize(("cls", "args"), NODE_ARGS, ids=lambda v: getattr(v, "__name__", ""))
def test_nodes_cannot_be_changed_but_object_setattr_goes_through(cls, args):
    node = cls(*args)
    for name in [*node.__match_args__, "extra"]:
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field {name!r}"):
            setattr(node, name, Num(0.0))
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field {name!r}"):
            delattr(node, name)
    assert node == cls(*args)
    # as with a frozen dataclass, object.__setattr__ is the way past
    object.__setattr__(node, "extra", 1)
    assert node.extra == 1
    for name in node.__match_args__:
        object.__setattr__(node, name, Num(-0.0))
        assert getattr(node, name) == Num(-0.0)


@pytest.mark.parametrize(("cls", "args"), NODE_ARGS, ids=lambda v: getattr(v, "__name__", ""))
def test_nodes_take_their_fields_by_position_or_keyword_and_no_other_count(cls, args):
    by_name = cls(**dict(zip(cls.__match_args__, args)))
    assert by_name == cls(*args) and type(by_name) is cls
    assert [getattr(by_name, name) for name in cls.__match_args__] == list(args)
    with pytest.raises(TypeError):
        cls(*args, Var())
    if args:
        with pytest.raises(TypeError):
            cls(*args[:-1])
        with pytest.raises(TypeError):
            cls(*args, **{cls.__match_args__[0]: args[0]})


def test_node_validation_messages():
    for exponent in (2.0, True, "2"):
        with pytest.raises(TypeError) as info:
            Pow(Var(), exponent)
        assert str(info.value) == "exponent must be an int"
    with pytest.raises(ValueError) as info:
        Pow(Var(), 10**309)
    assert str(info.value) == "exponent past the double range"
    with pytest.raises(ValueError) as info:
        Call("tan", Var())
    assert str(info.value) == "unknown function 'tan'"
    with pytest.raises(ValueError) as info:
        Call(func="Sin", arg=Var())
    assert str(info.value) == "unknown function 'Sin'"
