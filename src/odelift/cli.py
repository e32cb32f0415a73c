"""Command-line front end: derive, check tables, verify numerically.

Three subcommands:

    derive       print the monic lifted equation for a given power
    check-paper  compare the derivation against the bundled reference
                 coefficient tables
    verify       integrate a concrete base equation and run the full
                 residual / Wronskian report

Exit codes: 0 pass, 1 mismatch or numerical failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .diffring import STYLES, Scalar, pack_print_keys, term_writer
from .lifting import (
    FIXTURE_ORDERS,
    MAX_DERIVE_M,
    FixtureFormatError,
    LiftedODE,
    check_table,
    derive_print_keys,
)

if TYPE_CHECKING:
    from .exprparse import Expr

__all__ = ["main", "build_parser", "derive_json", "canonical_json"]


def derive_json(ode: LiftedODE) -> str:
    """The `derive --style json` document, written directly one term at a
    time: the bytes that `canonical_json` gives for it as nested dicts and
    lists.  It packs the equation's coefficients into print-layout keys
    (odelift.diffring.pack_print_keys) and joins the pieces of the writer
    `derive` uses, _derive_chunks.
    """
    return "".join(_derive_chunks("json", ode.m, *pack_print_keys(ode.coeffs)))


def _derive_chunks(
    style: str, m: int, coeffs: Sequence[dict[int, Scalar]], width: int, field: int
) -> Iterator[str]:
    """The derive document in ``style``, one term at a time, for c_0 .. c_m
    on print-layout keys.  The terms' texts are odelift.diffring.term_writer's;
    this is only the frame around them.  Plain and LaTeX write a `c_k = `
    line per coefficient, c_m first; every derived c_k has terms, so no
    line is left empty.  JSON writes its head, then for each
    coefficient, c_0 first, its opening up to `"terms": [` and its close,
    then its tail, with no newline after it.  A caller that writes each
    piece as it comes holds one term's text at a time, never a whole
    coefficient or the document.
    """
    write_terms = term_writer(width, field, style)
    if style != "json":
        label = "c_{%d} = " if style == "latex" else "c_%d = "
        for k in range(m, -1, -1):
            yield label % k
            yield from write_terms(coeffs[k])
            yield "\n"
        return
    yield '{\n  "coeffs": [\n'
    comma = ""
    for k, terms in enumerate(coeffs):
        yield f'{comma}    {{\n      "k": {k},\n      "terms": ['
        yield from write_terms(terms)
        yield "\n      ]\n    }" if terms else "]\n    }"
        comma = ",\n"
    yield f'\n  ],\n  "m": {m},\n  "monic": true\n}}'


def canonical_json(doc) -> str:
    """The `verify --json` report text: sorted keys, two-space indent.

    `derive --style json` output is the same canonical form, so loading
    either document and passing it back through here reproduces its bytes.
    Strict JSON: a non-finite float raises ValueError instead of printing
    the non-standard tokens Infinity or NaN.
    """
    import json  # imported on use: of the commands, only verify --json needs it

    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)


def _finite_or_null(value: float) -> float | None:
    """A report float, or None (JSON null) where it is infinite or NaN."""
    return value if math.isfinite(value) else None


def _power(text: str) -> int:
    """-m of derive and verify.  verify forms no coefficient for an int m:
    past 28 it computes the integration alone, the same at every m.  Its -m
    stops at MAX_DERIVE_M only because it shares this parser with derive,
    until ROADMAP item 4 decides its range."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 1 <= value <= MAX_DERIVE_M:
        raise argparse.ArgumentTypeError(f"m must be from 1 to {MAX_DERIVE_M}, got {value}")
    return value


def _expression(text: str) -> tuple[str, Expr]:
    """Parsed --p/--q value, kept with its source text for the JSON report."""
    # imported on use: only verify takes --p and --q
    from .exprparse import ExprSyntaxError, parse_expr

    try:
        return text, parse_expr(text)
    except ExprSyntaxError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odelift",
        description=(
            "Derive the monic linear equation of order m+1 satisfied by m-th "
            "powers of solutions of y'' = p(x)y' + q(x)y, and verify it "
            "symbolically and numerically."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("derive", help="print the lifted equation's coefficients")
    d.add_argument("-m", type=_power, required=True, help=f"power m, 1 to {MAX_DERIVE_M}")
    d.add_argument(
        "--style",
        choices=(*STYLES, "json"),
        default="plain",
        help="output style (default plain)",
    )
    d.set_defaults(handler=_run_derive)

    c = sub.add_parser(
        "check-paper",
        help="compare the derivation against the bundled reference tables",
    )
    group = c.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "-m",
        type=int,
        choices=FIXTURE_ORDERS,
        help="single table to check (2-5)",
    )
    group.add_argument("--all", action="store_true", help="check all four tables")
    c.add_argument(
        "--fixtures",
        metavar="DIR",
        default=None,
        help="read tables from DIR instead of the bundled copies",
    )
    c.set_defaults(handler=_run_check)

    v = sub.add_parser(
        "verify", help="integrate a base equation and test the lifted one"
    )
    v.add_argument("-m", type=_power, required=True, help=f"power m, 1 to {MAX_DERIVE_M}")
    v.add_argument("--p", type=_expression, required=True, help="p(x), e.g. 'sin(x)'")
    v.add_argument("--q", type=_expression, required=True, help="q(x), e.g. 'x'")
    v.add_argument(
        "--interval",
        nargs=2,
        type=float,
        default=(0.0, 1.0),
        metavar=("A", "B"),
        help="integration interval (default 0 1)",
    )
    v.add_argument("--step", type=float, default=1e-3, help="grid step (default 1e-3)")
    v.add_argument(
        "--ic-f",
        nargs=2,
        type=float,
        default=(1.0, 0.0),
        metavar=("F", "FP"),
        help="initial value and derivative of f (default 1 0)",
    )
    v.add_argument(
        "--ic-g",
        nargs=2,
        type=float,
        default=(0.0, 1.0),
        metavar=("G", "GP"),
        help="initial value and derivative of g (default 0 1)",
    )
    v.add_argument("--json", action="store_true", help="machine-readable report")
    v.set_defaults(handler=_run_verify)
    return parser


def _run_derive(args) -> int:
    sys.stdout.writelines(_derive_chunks(args.style, *derive_print_keys(args.m)))
    if args.style == "json":
        print()
    return 0


def _run_check(args) -> int:
    orders = FIXTURE_ORDERS if args.all else (args.m,)
    ok = True
    for m in orders:
        report = check_table(m, args.fixtures)
        print(report.summary())
        ok = ok and report.passed
    return 0 if ok else 1


def _run_verify(args) -> int:
    # imported on use: of the commands, only verify evaluates p and q
    from .exprparse import ExprDomainError
    from .verify import (
        RESIDUAL_TOL,
        WRONSKIAN_TOL,
        ConfigError,
        NumericConfig,
        SolutionRangeError,
        basis_check,
    )

    (p_text, p), (q_text, q) = args.p, args.q
    try:
        cfg = NumericConfig(
            interval=tuple(args.interval),
            step=args.step,
            ic_f=tuple(args.ic_f),
            ic_g=tuple(args.ic_g),
        )
        report = basis_check(args.m, p, q, cfg)
    except (ExprDomainError, SolutionRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        _PARSER.exit(2, f"error: {exc}\n")
    if args.json:
        doc = {
            "m": report.m,
            "p": p_text,
            "q": q_text,
            "interval": list(report.interval),
            "h": report.step,
            "residuals": [
                {
                    "monomial": r.label,
                    "i": r.i,
                    "j": r.j,
                    "max_residual": _finite_or_null(r.max_residual),
                    "pass": r.passed,
                }
                for r in report.residuals
            ],
            "wronskian": {
                "value": _finite_or_null(report.wronskian),
                "scale": _finite_or_null(report.wronskian_scale),
                "x": report.wronskian_x,
                "ratio": _finite_or_null(report.wronskian_ratio),
                "tolerance": WRONSKIAN_TOL,
                "pass": report.wronskian_passed,
            },
            "residual_tolerance": RESIDUAL_TOL,
            "pass": report.passed,
        }
        print(canonical_json(doc))
    else:
        print(report.summary())
    return 0 if report.passed else 1


#: Built once, at import: building it takes most of a millisecond, which
#: every call of main() would otherwise pay.
_PARSER = build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.handler(args)
    except (FixtureFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

