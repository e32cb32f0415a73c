"""Traced run: spans around odelift's public functions, recorded from outside.

`Tracer.install` replaces each target attribute, in the module or class
where the program looks it up at call time, with a wrapper that records a
span (name, group, start, end, parent span, operation id) and restores the
originals on `remove`.  Nothing in the program changes.  Spans stay in
memory; `write_spans` stores them when the run ends.

A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.  The
inclusive time of a group counts only its outermost spans, so a
DiffPoly.__sub__ that calls __add__ is not counted twice.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
from collections import Counter
from pathlib import Path
from time import perf_counter

_ARITH = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "__pow__",
)


def targets(mods) -> list:
    """(owner, attribute, group) for every wrapped callable that exists."""
    cli, lifting, verify, exprparse, diffring = (
        mods.cli, mods.lifting, mods.verify, mods.exprparse, mods.diffring,
    )
    out = [
        (cli, "main", "cli.main"),
        (cli, "derive_lifted_ode", "lifting.derive"),
        (cli, "check_against_fixture", "lifting.check"),
        (cli, "load_fixture", "lifting.fixture"),
        (cli, "basis_check", "verify.check"),
        (cli, "parse_expr", "exprparse.parse"),
        (cli, "format_poly", "diffring.format"),
        (cli, "poly_terms_doc", "diffring.format"),
        (lifting, "derive_lifted_ode", "lifting.derive"),
        (lifting, "derivative_tower", "lifting.tower"),
        (lifting, "parse_poly", "diffring.parse"),
        (verify, "derivative_tower", "lifting.tower"),
        (verify, "diff_expr", "exprparse.diff"),
        (verify, "integrate_base", "verify.integrate"),
        (verify, "symbol_values", "verify.symbols"),
        (verify, "residual", "verify.residual"),
        (verify, "basis_check", "verify.check"),
        (exprparse, "parse_expr", "exprparse.parse"),
    ]
    out += [(diffring.DiffPoly, name, "diffring.arith") for name in _ARITH]
    out += [
        (diffring.DiffPoly, "derive", "diffring.derive"),
        (diffring.DiffPoly, "eval", "diffring.eval"),
    ]
    return [t for t in out if callable(getattr(t[0], t[1], None))]


@dataclasses.dataclass(slots=True)
class Span:
    name: str  # where the wrapped callable was looked up, e.g. verify.diff_expr
    group: str
    start: float
    end: float
    parent: int
    op: int
    nested: bool  # inside another span of the same group

    @property
    def layer(self) -> str:
        return self.group.split(".")[0]


class Tracer:
    def __init__(self, mods):
        self.mods = mods
        self.spans: list = []
        self.op = -1
        self.counts: Counter = Counter()
        self.derived: list = []  # LiftedODE results, sized after the pass
        self.trees: list = []  # diff_expr results, sized after the pass
        self._stack: list = []
        self._active: Counter = Counter()
        self._saved: list = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        for owner, attr, group in targets(self.mods):
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            name = f"{owner.__name__.removeprefix('odelift.')}.{attr}"
            setattr(owner, attr, self._wrap(original, name, group))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str, group: str):
        spans, stack, active = self.spans, self._stack, self._active
        hook = self._hook(fn, group)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            nested = active[group] > 0
            stack.append(sid)
            active[group] += 1
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[group] -= 1
                spans[sid] = Span(name, group, start, end, parent, self.op, nested)
            if hook is not None:
                hook(args, kwargs, out, nested)
            return out

        return traced

    def _hook(self, fn, group: str):
        """Counter for one group: O(1) work, or a reference kept for later."""
        counts = self.counts
        if group in ("diffring.arith", "diffring.derive"):
            def hook(args, kwargs, out, nested):
                counts["diffring.terms_out"] += len(out.terms)
            return hook
        if group == "lifting.derive":
            def hook(args, kwargs, out, nested):
                if not nested:
                    self.derived.append(out)
            return hook
        if group == "exprparse.diff":
            return lambda args, kwargs, out, nested: self.trees.append(out)
        if group == "verify.integrate":
            def hook(args, kwargs, out, nested):
                counts["verify.rk4_steps"] += len(out) - 1
            return hook
        if group == "verify.check":
            signature = inspect.signature(fn)

            def hook(args, kwargs, out, nested):
                if not nested:
                    cfg = signature.bind(*args, **kwargs).arguments["cfg"]
                    counts["verify.grid_points"] += cfg.steps + 1
            return hook
        return None

    # -- results --------------------------------------------------------------

    def take_sizes(self) -> dict:
        """Sizes of the kept results, measured outside every timed region."""
        terms, digits = 0, 0
        for ode in self.derived:
            for c in ode.coeffs:
                doc = self.mods.diffring.poly_terms_doc(c)
                terms += len(doc)
                digits = max([digits] + [len(t["num"].lstrip("-")) for t in doc])
        memo: dict = {}
        nodes = max((tree_nodes(t, memo) for t in self.trees), default=0)
        self.derived, self.trees = [], []
        return {
            "lifting.terms": terms,
            "lifting.coeff_digits_max": digits,
            "exprparse.tree_nodes_max": nodes,
        }

    def take_counts(self) -> Counter:
        counts = Counter(self.counts)
        self.counts.clear()
        return counts


def tree_nodes(expr, memo: dict) -> int:
    """Nodes of an expression tree, counting a shared subtree at each use.

    That is the number of node visits one evaluation of the tree makes.
    """
    todo = [expr]
    while todo:
        node = todo[-1]
        if id(node) in memo:
            todo.pop()
            continue
        kids = [
            getattr(node, f.name)
            for f in dataclasses.fields(node)
            if dataclasses.is_dataclass(getattr(node, f.name))
        ]
        pending = [k for k in kids if id(k) not in memo]
        if pending:
            todo.extend(pending)
            continue
        memo[id(node)] = 1 + sum(memo[id(k)] for k in kids)
        todo.pop()
    return memo[id(expr)]


def self_times(spans: list) -> list:
    """Self time of each span: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_metrics(
    spans: list, selfs: list, ops: set, counts: Counter, sizes: dict, factors: list
) -> dict:
    """Per-layer metrics of the spans of the given operations (times in ms).

    `selfs` is self_times(spans); `counts` and `sizes` belong to the same
    operations; factors[op] normalises the times of one operation to the
    reference machine speed.  cli.self_ms is the self time of cli.main (argument
    handling and JSON serialisation), lifting.self_ms that of every
    lifting span, and verify.self_ms that of basis_check (contraction and
    the Wronskian).
    """
    inclusive: Counter = Counter()
    calls: Counter = Counter()
    self_ms: Counter = Counter()
    for span, own in zip(spans, selfs):
        if span.op not in ops:
            continue
        scale = factors[span.op] * 1e3
        calls[span.group] += 1
        self_ms[span.group] += own * scale
        self_ms[span.layer] += own * scale
        if not span.nested:
            inclusive[span.group] += (span.end - span.start) * scale
    return {
        "cli.self_ms": self_ms["cli.main"],
        "lifting.derive_ms": inclusive["lifting.derive"],
        "lifting.tower_ms": inclusive["lifting.tower"],
        "lifting.self_ms": self_ms["lifting"],
        "lifting.terms": sizes["lifting.terms"],
        "lifting.coeff_digits_max": sizes["lifting.coeff_digits_max"],
        "diffring.arith_ms": inclusive["diffring.arith"],
        "diffring.arith_calls": calls["diffring.arith"],
        "diffring.derive_calls": calls["diffring.derive"],
        "diffring.terms_out": counts["diffring.terms_out"],
        "diffring.eval_ms": inclusive["diffring.eval"],
        "diffring.eval_calls": calls["diffring.eval"],
        "diffring.parse_ms": inclusive["diffring.parse"],
        "diffring.format_ms": inclusive["diffring.format"],
        "exprparse.diff_ms": inclusive["exprparse.diff"],
        "exprparse.diff_calls": calls["exprparse.diff"],
        "exprparse.tree_nodes_max": sizes["exprparse.tree_nodes_max"],
        "exprparse.parse_ms": inclusive["exprparse.parse"],
        "verify.integrate_ms": inclusive["verify.integrate"],
        "verify.rk4_steps": counts["verify.rk4_steps"],
        "verify.symbols_ms": inclusive["verify.symbols"],
        "verify.check_ms": inclusive["verify.check"],
        "verify.residual_ms": inclusive["verify.residual"],
        "verify.self_ms": self_ms["verify.check"],
        "verify.grid_points": counts["verify.grid_points"],
    }


def write_spans(path: Path, spans: list) -> None:
    """One line per span: id, parent, op, name, group, start and end in µs."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        out.write("id,parent,op,name,group,start_us,end_us\n")
        for sid, s in enumerate(spans):
            out.write(
                f"{sid},{s.parent},{s.op},{s.name},{s.group},"
                f"{s.start * 1e6:.1f},{s.end * 1e6:.1f}\n"
            )
