"""Parse, differentiate, evaluate, and print concrete coefficient functions.

The verifier needs p(x), q(x) as actual functions of x together with their
derivatives up to the order the lifted coefficients mention.  This module
supplies a tiny closed-under-differentiation expression language:

    expr  := term (('+'|'-') term)*
    term  := unary (('*'|'/') unary)*
    unary := '-' unary | power
    power := atom ('^' '-'? int)?
    atom  := number | 'x' | func '(' expr ')' | '(' expr ')'
    func  := 'sin' | 'cos' | 'exp' | 'ln'

with a number and an int exponent both within the double range, trees at
most 400 nodes deep from root to leaf (a sum of 400 terms), and at most
199 parentheses open at once.  Past these fixed limits parse_expr raises
ExprSyntaxError, whoever calls it, so every walk over a tree it returns
has room on the interpreter's stack.

Trees are immutable and own their identity and their text.  _program lists
the distinct subtrees of one or more trees in post-order, from a stack,
each keyed by its node type, the program indices of its children and every
other value by repr.  Those keys are a tree's identity, computed once per
tree and held by its root: == compares two trees node for node and every
other value by repr, so -0.0 is not 0.0, and hash agrees with it.
odelift.verify runs the program of p and q once for both, so a subtree
they share is evaluated once.  repr is the parse_expr call of
format_expr's text, one frame per level like every other walk.  Every
finite literal prints in positional form with repr's shortest digits and
parses back to itself.

Of the commands, only verify imports this module, and it does so before
any work, so no class in it is made from generated code: each node writes
out its own __init__, and _Node refuses to set or delete an attribute as a
frozen dataclass would.  The nodes are dataclasses only so that
dataclasses.fields lists their fields, which the benchmark's tree walks
(perfbench/tracing.py and its self-test) read; dataclasses generates none
of their methods.  Importing dataclasses, which loads inspect, stays a cost
of this import, and so of verify, until those walks read the nodes another
way.

`diff_expr` applies the textbook rules and folds arithmetic on numeric
literals, nothing more; repeated differentiation grows trees.  The verifier
takes its derivatives from Taylor-mode jets (`odelift.verify`) instead;
`diff_expr` is the reference those jets are tested against.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import FrozenInstanceError, dataclass
from decimal import Decimal

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Neg",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Call",
    "FUNCTIONS",
    "ExprSyntaxError",
    "ExprDomainError",
    "parse_expr",
    "diff_expr",
    "eval_expr",
    "format_expr",
]

FUNCTIONS = ("sin", "cos", "exp", "ln")


class _Node:
    """Base of the nine node classes, which owns their identity and text.

    Two trees are == when they agree node for node and in every other
    value, literals included, by repr, so Num(-0.0) != Num(0.0) and
    Num(-2.0) != Neg(Num(2.0)); hash agrees with ==.  Each tree's root
    holds the keys of its own _program once it is first compared or
    hashed; == compares two trees' keys, which are equal just when the
    trees agree, and hash hashes them.
    repr is the parse_expr call of format_expr's text, one frame per tree
    level.  Setting or deleting an attribute raises FrozenInstanceError; a
    node's own __init__ sets its fields with object.__setattr__.
    """

    #: The keys of the node's own _program, set on the first == or hash.  A
    #: slot, so neither vars() nor dataclasses.fields lists it.
    __slots__ = ("_keys",)

    def __eq__(self, other):
        return _keys(self) == _keys(other) if isinstance(other, _Node) else NotImplemented

    def __hash__(self) -> int:
        return hash(_keys(self))

    def __getstate__(self):
        # the held keys are no part of a copy's state: the copy computes its own
        return vars(self)

    def __repr__(self) -> str:
        return f"parse_expr({format_expr(self)!r})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


#: The fields of the node classes that hold subtrees; every other field is a value.
_SUBTREES = frozenset({"arg", "left", "right", "base"})


def _program(*trees) -> tuple:
    """(entries, roots, keys): the distinct subtrees of `trees` in post-order,
    the index of each tree among them, and the key of each entry.

    An entry is (node, program indices of its children) and its key is
    (node type, those indices, every other field by repr), so children come
    before their parent and the first tree's subtrees before the second's.
    The walk runs from a stack, in preorder with the last child first, so
    its reverse is that post-order; the reverse raises TypeError at the
    first child, from the left, that is not an Expr.
    """
    slots, seen, order, stack = {}, {}, [], list(trees)  # key -> (index, node); id(node) -> index
    while stack:
        node = stack.pop()
        kids, values = [], []
        for name, value in vars(node).items() if isinstance(node, _Node) else ():
            (kids if name in _SUBTREES else values).append(value)
        stack += kids
        order.append((node, kids, values))
    for node, kids, values in reversed(order):
        if not isinstance(node, _Node):
            raise TypeError(f"not an Expr: {node!r}")
        key = (type(node), tuple([seen[id(kid)] for kid in kids]), *map(repr, values))
        seen[id(node)] = slots.setdefault(key, (len(slots), node))[0]
    entries = [(node, key[1]) for key, (_, node) in slots.items()]
    return entries, [seen[id(tree)] for tree in trees], tuple(slots)


#: Sets a field from a node's own __init__, past _Node.__setattr__.
_set = object.__setattr__


def _keys(tree: _Node) -> tuple:
    """The keys of the tree's own _program, computed once and held by its
    root: the tree is immutable, so they cannot go stale."""
    if not hasattr(tree, "_keys"):
        _set(tree, "_keys", _program(tree)[2])
    return tree._keys


class _Binary(_Node):
    """Base of Add, Sub, Mul and Div, which writes out their __init__."""

    def __init__(self, left: "Expr", right: "Expr") -> None:
        _set(self, "left", left)
        _set(self, "right", right)


@dataclass(init=False, eq=False, repr=False)
class Num(_Node):
    """Numeric literal."""

    value: float

    def __init__(self, value: float) -> None:
        _set(self, "value", value)


@dataclass(init=False, eq=False, repr=False)
class Var(_Node):
    """The independent variable x."""


@dataclass(init=False, eq=False, repr=False)
class Neg(_Node):
    """Negation, -arg."""

    arg: "Expr"

    def __init__(self, arg: "Expr") -> None:
        _set(self, "arg", arg)


@dataclass(init=False, eq=False, repr=False)
class Add(_Binary):
    """Sum, left + right."""

    left: "Expr"
    right: "Expr"


@dataclass(init=False, eq=False, repr=False)
class Sub(_Binary):
    """Difference, left - right."""

    left: "Expr"
    right: "Expr"


@dataclass(init=False, eq=False, repr=False)
class Mul(_Binary):
    """Product, left * right."""

    left: "Expr"
    right: "Expr"


@dataclass(init=False, eq=False, repr=False)
class Div(_Binary):
    """Quotient, left / right."""

    left: "Expr"
    right: "Expr"


@dataclass(init=False, eq=False, repr=False)
class Pow(_Node):
    """Integer power; the exponent may be negative, but not past the double range."""

    base: "Expr"
    exponent: int

    def __init__(self, base: "Expr", exponent: int) -> None:
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise TypeError("exponent must be an int")
        if abs(exponent) > sys.float_info.max:
            raise ValueError("exponent past the double range")
        _set(self, "base", base)
        _set(self, "exponent", exponent)


@dataclass(init=False, eq=False, repr=False)
class Call(_Node):
    """One of FUNCTIONS applied to arg."""

    func: str
    arg: "Expr"

    def __init__(self, func: str, arg: "Expr") -> None:
        if func not in FUNCTIONS:
            raise ValueError(f"unknown function {func!r}")
        _set(self, "func", func)
        _set(self, "arg", arg)


Expr = Num | Var | Neg | Add | Sub | Mul | Div | Pow | Call


# --------------------------------------------------------------------------
# parsing


class ExprSyntaxError(ValueError):
    """Raised on malformed input, carrying the byte offset of the problem."""

    def __init__(self, position: int, expected: tuple, found: str):
        self.position = position
        self.expected = expected
        self.found = found
        want = " or ".join(expected) if expected else "nothing"
        super().__init__(
            f"syntax error at offset {position}: expected {want}, found {found}"
        )


_OPERATORS = frozenset("+-*/^()")


class _Scanner:
    """Tokens: (kind, value, offset) with kind in num/name/op/end."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.token = self._advance()

    def _advance(self):
        text = self.text
        i = self.pos
        while i < len(text) and text[i] in " \t":
            i += 1
        if i >= len(text):
            return ("end", "", len(text))
        ch = text[i]
        if ch in _OPERATORS:
            self.pos = i + 1
            return ("op", ch, i)
        if ch.isdecimal() or ch == ".":  # isdigit() would also take '²', which float() refuses
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            if j < len(text) and text[j] == ".":
                j += 1
                if j >= len(text) or not text[j].isdecimal():
                    raise ExprSyntaxError(i, ("number",), repr(text[i:j]))
                while j < len(text) and text[j].isdecimal():
                    j += 1
            self.pos = j
            return ("num", text[i:j], i)
        if ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word != "x" and word not in FUNCTIONS:
                raise ExprSyntaxError(i, ("'x'",) + tuple(FUNCTIONS), repr(word))
            self.pos = j
            return ("name", word, i)
        raise ExprSyntaxError(i, ("number", "'x'", "function", "'('"), repr(ch))

    def shift(self):
        tok = self.token
        self.token = self._advance()
        return tok

    def found(self) -> str:
        kind, value, _ = self.token
        return "end of input" if kind == "end" else repr(value)


#: Deepest tree parse_expr builds, counted in nodes from the root to a leaf,
#: so a sum of n terms is n deep.  The walks over a tree (eval_expr,
#: format_expr and so repr, diff_expr) recurse one frame per level;
#: _program, so ==, hash and verify's jets, walks from a stack.
_MAX_DEPTH = 400

#: Most parentheses parse_expr holds open at once, a call's included.  The
#: parser recurses two frames per level, so a parse and a walk each stay
#: near 400 frames, and the outcome is the same from any caller with 500
#: of the interpreter's default 1 000 frames to spare.
_MAX_NESTING = 199

# operator -> (precedence, node class); all four associate to the left
_BINARY = {"+": (1, Add), "-": (1, Sub), "*": (2, Mul), "/": (2, Div)}


def parse_expr(text: str) -> Expr:
    """Parse `text` into an Expr tree.

    Standard precedence (^ binds tighter than unary minus, which binds
    tighter than * and /, which bind tighter than + and -); the four
    binary operators associate to the left.  A tree deeper than _MAX_DEPTH
    is a syntax error at the operator that would pass it, and a '(' past
    _MAX_NESTING open at once is one at that '(', or at the name of its call.
    """
    sc = _Scanner(text)
    tree, _ = _parse_binary(sc, 0)
    if sc.token[0] != "end":
        raise ExprSyntaxError(sc.token[2], ("end of input",), sc.found())
    return tree


def _parse_binary(sc: _Scanner, nesting: int) -> tuple:
    """(tree, depth) of an expr, by precedence climbing in one loop: each
    operator first builds the pending ones of no lower precedence."""
    pending = []  # (precedence, left, its depth, operator token, class), precedences rising
    node, depth = _parse_operand(sc, nesting)
    while True:
        token = sc.token
        prec, make = _BINARY.get(token[1], (0, None))  # only op tokens hold + - * /
        while pending and pending[-1][0] >= prec:
            _, left, left_depth, op, cls = pending.pop()
            node, depth = cls(left, node), _deepen(max(left_depth, depth), op)
        if make is None:
            return node, depth
        sc.shift()
        pending.append((prec, node, depth, token, make))
        node, depth = _parse_operand(sc, nesting)


def _parse_operand(sc: _Scanner, nesting: int) -> tuple:
    """(tree, depth) of a unary: its minus signs, read in a loop, then an atom
    with its optional exponent."""
    signs = []
    while sc.token[:2] == ("op", "-"):
        signs.append(sc.shift())
    token = kind, value, offset = sc.token
    if kind == "num":
        if not math.isfinite(number := float(value)):
            raise ExprSyntaxError(
                offset, ("number within double range",), f"{len(value)}-character literal"
            )
        sc.shift()
        node, depth = Num(number), 1
    elif value == "x":
        sc.shift()
        node, depth = Var(), 1
    elif kind == "name" or value == "(":
        sc.shift()
        if kind == "name":
            _expect_op(sc, "(")
        if nesting == _MAX_NESTING:
            raise ExprSyntaxError(offset, (f"at most {_MAX_NESTING} nested '('",), repr(value))
        node, depth = _parse_binary(sc, nesting + 1)
        _expect_op(sc, ")")
        if kind == "name":
            node, depth = Call(value, node), _deepen(depth, token)
    else:
        raise ExprSyntaxError(offset, ("number", "'x'", "function", "'('", "'-'"), sc.found())
    if sc.token[:2] == ("op", "^"):
        caret, minus = sc.shift(), sc.token[:2] == ("op", "-")
        if minus:
            sc.shift()
        kind, value, offset = sc.token
        if kind != "num" or "." in value:
            raise ExprSyntaxError(offset, ("integer exponent",), sc.found())
        try:
            node = Pow(node, -int(value) if minus else int(value))
        except ValueError:  # past int()'s digit limit, or Pow's double range
            raise ExprSyntaxError(
                offset, ("exponent within double range",), f"{len(value)}-digit literal"
            ) from None
        sc.shift()
        depth = _deepen(depth, caret)
    for sign in reversed(signs):
        node, depth = Neg(node), _deepen(depth, sign)
    return node, depth


def _deepen(depth: int, token: tuple) -> int:
    """The depth of the node `token` makes over a subtree `depth` deep; past
    _MAX_DEPTH, a syntax error at that token."""
    if depth == _MAX_DEPTH:
        raise ExprSyntaxError(token[2], (f"a tree at most {_MAX_DEPTH} deep",), repr(token[1]))
    return depth + 1


def _expect_op(sc: _Scanner, op: str) -> None:
    if sc.token[:2] != ("op", op):
        raise ExprSyntaxError(sc.token[2], (f"'{op}'",), sc.found())
    sc.shift()


# --------------------------------------------------------------------------
# differentiation

# Smart constructors fold arithmetic when both sides are finite literals and
# drop 0/1 identities so derivative chains stay readable.  parse_expr never
# calls these: a parsed tree is exactly what the text says.


def _is_num(e: Expr, value=None) -> bool:
    return isinstance(e, Num) and (value is None or e.value == value)


def _fold(a: Expr, b: Expr, op) -> Expr | None:
    """Num(op(a.value, b.value)) when a and b are literals and that is finite."""
    value = op(a.value, b.value) if _is_num(a) and _is_num(b) else math.nan
    return Num(value) if math.isfinite(value) else None


def _add(a: Expr, b: Expr) -> Expr:
    if (folded := _fold(a, b, operator.add)) is not None:
        return folded
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if (folded := _fold(a, b, operator.sub)) is not None:
        return folded
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return _neg(b)
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if (folded := _fold(a, b, operator.mul)) is not None:
        return folded
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if (folded := _fold(a, b, lambda u, v: u / v if v else math.nan)) is not None:
        return folded
    return Div(a, b)


def _neg(a: Expr) -> Expr:
    if _is_num(a):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _pow(base: Expr, exponent: int) -> Expr:
    if exponent == 0:
        return Num(1.0)
    if exponent == 1:
        return base
    return Pow(base, exponent)


def diff_expr(e: Expr) -> Expr:
    """Derivative of `e` with respect to x."""
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0)
    if isinstance(e, Neg):
        return _neg(diff_expr(e.arg))
    if isinstance(e, Add):
        return _add(diff_expr(e.left), diff_expr(e.right))
    if isinstance(e, Sub):
        return _sub(diff_expr(e.left), diff_expr(e.right))
    if isinstance(e, Mul):
        return _add(
            _mul(diff_expr(e.left), e.right),
            _mul(e.left, diff_expr(e.right)),
        )
    if isinstance(e, Div):
        numerator = _sub(
            _mul(diff_expr(e.left), e.right),
            _mul(e.left, diff_expr(e.right)),
        )
        return _div(numerator, _pow(e.right, 2))
    if isinstance(e, Pow):
        chain = _mul(Num(float(e.exponent)), _pow(e.base, e.exponent - 1))
        return _mul(chain, diff_expr(e.base))
    if isinstance(e, Call):
        inner = diff_expr(e.arg)
        if e.func == "sin":
            return _mul(Call("cos", e.arg), inner)
        if e.func == "cos":
            return _mul(_neg(Call("sin", e.arg)), inner)
        if e.func == "exp":
            return _mul(Call("exp", e.arg), inner)
        return _div(inner, e.arg)  # ln
    raise TypeError(f"not an Expr: {e!r}")


# --------------------------------------------------------------------------
# evaluation


class ExprDomainError(ValueError):
    """Raised when evaluation leaves a node's domain; names node and x."""

    def __init__(self, node: Expr, x: float, reason: str):
        self.node = node
        self.x = x
        super().__init__(f"{format_expr(node)} undefined at x={x!r}: {reason}")


def eval_expr(e: Expr, x: float) -> float:
    """Evaluate `e` at `x` in IEEE double precision.

    Raises ExprDomainError for ln of a nonpositive value, division by
    zero, zero raised to a negative power, and overflow.
    """
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return float(x)
    if isinstance(e, Neg):
        return -eval_expr(e.arg, x)
    if isinstance(e, Add):
        return eval_expr(e.left, x) + eval_expr(e.right, x)
    if isinstance(e, Sub):
        return eval_expr(e.left, x) - eval_expr(e.right, x)
    if isinstance(e, Mul):
        return eval_expr(e.left, x) * eval_expr(e.right, x)
    if isinstance(e, Div):
        denominator = eval_expr(e.right, x)
        if denominator == 0.0:
            raise ExprDomainError(e, x, "division by zero")
        return eval_expr(e.left, x) / denominator
    if isinstance(e, Pow):
        base = eval_expr(e.base, x)
        if base == 0.0 and e.exponent < 0:
            raise ExprDomainError(e, x, "zero raised to a negative power")
        try:
            return base ** e.exponent
        except OverflowError:
            raise ExprDomainError(e, x, "overflow") from None
    if isinstance(e, Call):
        arg = eval_expr(e.arg, x)
        if e.func == "ln":
            if arg <= 0.0:
                raise ExprDomainError(e, x, f"argument {arg!r} is not positive")
            return math.log(arg)
        try:
            return getattr(math, e.func)(arg)
        except OverflowError:
            raise ExprDomainError(e, x, "overflow") from None
    raise TypeError(f"not an Expr: {e!r}")


# --------------------------------------------------------------------------
# printing

# Precedence levels used for parenthesization; a child is wrapped when its
# level is below what its position requires.
_LEVEL_SUM = 1
_LEVEL_TERM = 2
_LEVEL_UNARY = 3
_LEVEL_POWER = 4
_LEVEL_ATOM = 5


def format_expr(e: Expr) -> str:
    """Render `e` so that parse_expr(format_expr(e)) rebuilds it.

    Parser output round-trips structurally, every finite literal written
    with repr's shortest digits in positional form.  Trees built by hand
    or by folding may hold negative literals, which print as unary minus
    and reparse as Neg of a positive literal: a different tree with the
    same values everywhere.  Non-finite literals print as inf and nan,
    which do not parse.
    """
    return _format(e, _LEVEL_SUM)


def _format(e: Expr, need: int) -> str:
    if isinstance(e, Num):
        text, level = _literal(e.value)
    elif isinstance(e, Var):
        text, level = "x", _LEVEL_ATOM
    elif isinstance(e, Neg):
        text, level = "-" + _format(e.arg, _LEVEL_UNARY), _LEVEL_UNARY
    elif isinstance(e, Add):
        text = _format(e.left, _LEVEL_SUM) + " + " + _format(e.right, _LEVEL_TERM)
        level = _LEVEL_SUM
    elif isinstance(e, Sub):
        text = _format(e.left, _LEVEL_SUM) + " - " + _format(e.right, _LEVEL_TERM)
        level = _LEVEL_SUM
    elif isinstance(e, Mul):
        text = _format(e.left, _LEVEL_TERM) + "*" + _format(e.right, _LEVEL_UNARY)
        level = _LEVEL_TERM
    elif isinstance(e, Div):
        text = _format(e.left, _LEVEL_TERM) + "/" + _format(e.right, _LEVEL_UNARY)
        level = _LEVEL_TERM
    elif isinstance(e, Pow):
        text = _format(e.base, _LEVEL_ATOM) + "^" + str(e.exponent)
        level = _LEVEL_POWER
    elif isinstance(e, Call):
        text, level = f"{e.func}({_format(e.arg, _LEVEL_SUM)})", _LEVEL_ATOM
    else:
        raise TypeError(f"not an Expr: {e!r}")
    return "(" + text + ")" if level < need else text


def _literal(value: float) -> tuple:
    """(text, level) of a literal: repr's shortest digits in positional form,
    which the grammar reads back as the same float; a sign makes it a unary.
    inf and nan print as repr gives them, with their sign."""
    text = repr(abs(value))
    if math.isfinite(value):
        text = format(Decimal(text), "f")
        if "." not in text:
            text += ".0"
    return ("-" + text, _LEVEL_UNARY) if math.copysign(1.0, value) < 0.0 else (text, _LEVEL_ATOM)
