"""Seeded inputs, operations and known answers for the three workloads.

Seeded rational constants fill fixed expression templates, so the shape of
every expression tree, and with it the cost of each operation, is the same
for every seed while the numbers change.  Templates are never drawn at
random: the cost of repeated differentiation depends steeply on the shape
(the 8th derivative of exp(sin(x))/(x+2) costs about 90 times the 6th).

Every operation has a known answer.  `derive` output must pass the exact
oracle; `check-paper` must report PASS for all four tables; a verify
operation must PASS for a genuine basis and FAIL for a control.
"""

from __future__ import annotations

import io
import json
import math
import random
import re
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from hashlib import sha256
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

import oracle

WORKLOADS = ("derive-sweep", "verify-batch", "verify-cold")

#: Nominal seconds per pass: a run makes round(seconds / nominal) passes,
#: so the sample count, and with it the tail percentile, is fixed by
#: --seconds alone.  At --seconds 24 that is 4, 8 and 4 passes, which puts
#: the median and the tail sample of derive-sweep and verify-cold inside
#: one operation's group of samples instead of at the edge between two.
NOMINAL_PASS_S = {"derive-sweep": 6.0, "verify-batch": 3.0, "verify-cold": 6.0}

#: Residual tolerance of `verify` (its default) and the relative error
#: allowed between the reported Wronskian and Abel's closed form.
RESIDUAL_TOL = 1e-6
WRONSKIAN_RTOL = 1e-6


@dataclass(frozen=True)
class Template:
    """Expression texts with {a}, {b} slots, plus p as a Python function."""

    p: str
    q: str
    p_value: Callable[[float, float, float], float]


SINE = Template("sin({a}*x)", "x", lambda x, a, b: math.sin(a * x))
POLE = Template("1/(x+{a})", "exp(-{a}*x)", lambda x, a, b: 1.0 / (x + a))
SQUARE_LOG = Template("x^2", "ln(x+{a})", lambda x, a, b: x * x)
CONSTANT = Template("0", "-{a}", lambda x, a, b: 0.0)
EXP_SINE = Template(
    "exp(sin(x))/(x+{a})", "cos(x)/(x+{a})", lambda x, a, b: math.exp(math.sin(x)) / (x + a)
)
COS_LOG = Template("cos(x)/(x+{a})", "ln(x+{a})/(x+{b})", lambda x, a, b: math.cos(x) / (x + a))

#: The four acceptance families of the repository's numerical suites.
ACCEPTANCE = (CONSTANT, SINE, POLE, SQUARE_LOG)


@dataclass(frozen=True)
class VerifyCase:
    m: int
    template: Template
    a: float
    b: float
    ic_f: tuple
    ic_g: tuple
    step: float
    perturb: Optional[tuple] = None  # (k, delta): c_k + delta
    dependent: bool = False

    @property
    def p(self) -> str:
        return self.template.p.format(a=self.a, b=self.b)

    @property
    def q(self) -> str:
        return self.template.q.format(a=self.a, b=self.b)

    @property
    def expect_pass(self) -> bool:
        return self.perturb is None and not self.dependent

    @property
    def kind(self) -> str:
        if self.perturb is not None:
            return "perturbed"
        return "dependent" if self.dependent else "genuine"

    def label(self) -> str:
        return f"verify m={self.m} p={self.p} q={self.q} {self.kind}"


@dataclass
class Op:
    """One timed operation: `call` runs it, `check` judges its output.

    `check(output)` returns (values_ok, verdict_ok, reason).  values_ok is
    False when a computed value disagrees with the independent check;
    verdict_ok is False when the verdict or output differs from the known
    answer.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple]
    cold: bool


@dataclass
class Workload:
    name: str
    ops: list
    warm_up: Callable[[], None] = field(default=lambda: None)


def load_program() -> SimpleNamespace:
    """The odelift modules the benchmark calls, looked up at call time."""
    import odelift.cli
    import odelift.diffring
    import odelift.exprparse
    import odelift.lifting
    import odelift.verify

    return SimpleNamespace(
        cli=odelift.cli,
        diffring=odelift.diffring,
        exprparse=odelift.exprparse,
        lifting=odelift.lifting,
        verify=odelift.verify,
    )


def _const(rng: random.Random, lo: int, hi: int) -> float:
    """A multiple of 1/8 in [lo/8, hi/8]: exact in binary and in decimal."""
    return rng.randint(lo, hi) / 8


def _unit_pair(rng: random.Random) -> tuple:
    # A seeded multiple of the unit initial conditions.  The verdict of the
    # program's Wronskian test is invariant under this scaling; tilting the
    # pair instead trips that test's m >= 5 defect at random seeds, which
    # verify-cold already shows at fixed strength.
    u = _const(rng, 4, 16)
    return (u, 0.0), (0.0, u)


def _dependent_pair(rng: random.Random) -> tuple:
    u, w, lam = _const(rng, 4, 16), rng.choice([-1, 1]) * _const(rng, 1, 4), _const(rng, 4, 16)
    return (u, w), (lam * u, lam * w)


def verify_cases(name: str, seed: int) -> list:
    """The verify cases of one workload, in run order."""
    rng = random.Random(seed)
    cases = []
    if name == "verify-batch":
        step = 1.0 / 4000  # 4001 grid points
        for m in (2, 3, 4, 5):
            for template in ACCEPTANCE:
                a = _const(rng, 10, 22)
                genuine = dict(m=m, template=template, a=a, b=0.0, step=step)
                ic_f, ic_g = _unit_pair(rng)
                cases.append(VerifyCase(ic_f=ic_f, ic_g=ic_g, **genuine))
                delta = rng.choice([-1, 1]) * _const(rng, 1, 8)
                cases.append(
                    VerifyCase(ic_f=ic_f, ic_g=ic_g, perturb=(rng.randint(0, m), delta), **genuine)
                )
                ic_f, ic_g = _dependent_pair(rng)
                cases.append(VerifyCase(ic_f=ic_f, ic_g=ic_g, dependent=True, **genuine))
    elif name == "verify-cold":
        step = 1e-3  # the CLI default: 1001 grid points
        plan = (
            (7, EXP_SINE, False),
            (8, COS_LOG, False),
            (7, SINE, False),
            (8, POLE, False),
            (6, SQUARE_LOG, False),
            (7, SINE, True),
            (6, SQUARE_LOG, True),
        )
        for m, template, dependent in plan:
            # a >= 2 keeps x^2, ln(x+a) at m=6 on one side of the Wronskian
            # defect, so the failure count is the same at every seed.
            a, b = _const(rng, 16, 22), _const(rng, 16, 22)
            ic_f, ic_g = _dependent_pair(rng) if dependent else _unit_pair(rng)
            cases.append(
                VerifyCase(m, template, a, b, ic_f, ic_g, step, dependent=dependent)
            )
    else:
        raise ValueError(f"no verify cases for workload {name!r}")
    return cases


def check_verify_values(case: VerifyCase, residuals: list, w_value: float, w_scale: float, w_x: float):
    """Compare a verify report's numbers with independent expectations.

    A true equation leaves every residual at rounding level and a perturbed
    one does not.  The Wronskian must match Abel's closed form, or vanish
    relative to its scale for dependent initial conditions.
    """
    worst = max(residuals)
    if case.perturb is None and not worst < RESIDUAL_TOL:
        return f"residual {worst:.3e} of a true equation is not below {RESIDUAL_TOL:g}"
    if case.perturb is not None and not worst >= RESIDUAL_TOL:
        return f"residual {worst:.3e} of a perturbed equation is below {RESIDUAL_TOL:g}"
    if case.dependent:
        if not abs(w_value) <= 1e-9 * w_scale:
            return f"Wronskian {w_value:.6e} of dependent solutions is not ~0 (scale {w_scale:.3e})"
        return None
    expected = oracle.lifted_wronskian(
        case.m,
        case.ic_f,
        case.ic_g,
        lambda x: case.template.p_value(x, case.a, case.b),
        0.0,
        w_x,
    )
    if not abs(w_value - expected) <= WRONSKIAN_RTOL * abs(expected):
        return f"Wronskian {w_value:.9e} differs from Abel's closed form {expected:.9e}"
    return None


def _judge(case: VerifyCase, passed: bool, values_error: Optional[str]) -> tuple:
    verdict_ok = passed == case.expect_pass
    reason = values_error
    if not verdict_ok:
        got, want = ("PASS" if passed else "FAIL"), ("PASS" if case.expect_pass else "FAIL")
        reason = (reason + "; " if reason else "") + f"verdict {got}, known answer {want}"
    return values_error is None, verdict_ok, reason


# ---------------------------------------------------------------------------
# operations


def _run_cli(mods, argv: list) -> tuple:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = mods.cli.main(argv)
    return code, buf.getvalue()


_TABLE_LINE = re.compile(r"^m=(\d+): ((?:c\d+ ok, )*c\d+ ok) -> PASS$")


def _derive_ops(mods, seed: int, fixture_dir: Path) -> list:
    rng = random.Random(seed)
    verified: dict = {}

    def derive_op(m: int) -> Op:
        def check(output):
            code, text = output
            if code != 0:
                return False, False, f"exit code {code}"
            digest = sha256(text.encode()).digest()
            if verified.get(m) == digest:
                return True, True, None
            try:
                oracle.check_derive_doc(json.loads(text), m, rng, fixture_dir)
            except (oracle.OracleMismatch, ValueError, KeyError, TypeError) as exc:
                return False, False, f"{type(exc).__name__}: {exc}"
            verified[m] = digest
            return True, True, None

        argv = ["derive", "-m", str(m), "--style", "json"]
        return Op(f"derive -m {m}", lambda: _run_cli(mods, argv), check, cold=True)

    def check_tables(output):
        code, text = output
        lines = text.splitlines()
        found = []
        for line in lines:
            match = _TABLE_LINE.match(line)
            if match and match.group(2).count(" ok") == int(match.group(1)) + 1:
                found.append(int(match.group(1)))
        ok = code == 0 and found == [2, 3, 4, 5] and len(lines) == 4
        return ok, ok, None if ok else f"exit code {code}, output {text!r}"

    ops = [derive_op(m) for m in range(1, 15)]
    ops.append(
        Op("check-paper --all", lambda: _run_cli(mods, ["check-paper", "--all"]), check_tables, True)
    )
    return ops


def _cli_verify_op(mods, case: VerifyCase) -> Op:
    argv = [
        "verify", "--json", "-m", str(case.m), "--p", case.p, "--q", case.q,
        "--step", repr(case.step),
        "--ic-f", *map(repr, case.ic_f), "--ic-g", *map(repr, case.ic_g),
    ]

    def check(output):
        code, text = output
        if code not in (0, 1):
            return False, False, f"exit code {code}"
        doc = json.loads(text)
        w = doc["wronskian"]
        error = check_verify_values(
            case, [r["max_residual"] for r in doc["residuals"]], w["value"], w["scale"], w["x"]
        )
        values_ok, verdict_ok, reason = _judge(case, doc["pass"], error)
        if doc["pass"] != (code == 0):
            return values_ok, False, f"exit code {code} disagrees with pass={doc['pass']}"
        return values_ok, verdict_ok, reason

    return Op(case.label(), lambda: _run_cli(mods, argv), check, cold=True)


def _lib_verify_op(mods, case: VerifyCase, ode) -> Op:
    cfg = mods.verify.NumericConfig((0.0, 1.0), case.step, case.ic_f, case.ic_g)

    def call():
        p = mods.exprparse.parse_expr(case.p)
        q = mods.exprparse.parse_expr(case.q)
        return mods.verify.basis_check(ode, p, q, cfg)

    def check(report):
        error = check_verify_values(
            case,
            [r.max_residual for r in report.residuals],
            report.wronskian,
            report.wronskian_scale,
            report.wronskian_x,
        )
        return _judge(case, report.passed, error)

    return Op(case.label(), call, check, cold=False)


def warm_up_tables(mods) -> None:
    """Build the symbolic tables verify-batch uses, through public calls."""
    cfg = mods.verify.NumericConfig((0.0, 1.0), 0.1)
    p, q = mods.exprparse.parse_expr("sin(x)"), mods.exprparse.parse_expr("x")
    for m in (2, 3, 4, 5):
        mods.verify.basis_check(mods.lifting.derive_lifted_ode(m), p, q, cfg)


def build(name: str, seed: int, mods, fixture_dir: Path) -> Workload:
    """The operations of one workload for one seed."""
    if name == "derive-sweep":
        return Workload(name, _derive_ops(mods, seed, fixture_dir))
    if name == "verify-cold":
        return Workload(name, [_cli_verify_op(mods, c) for c in verify_cases(name, seed)])
    if name == "verify-batch":
        ops = []
        for case in verify_cases(name, seed):
            ode = mods.lifting.derive_lifted_ode(case.m)
            if case.perturb is not None:
                k, delta = case.perturb
                coeffs = list(ode.coeffs)
                coeffs[k] = coeffs[k] + Fraction(delta)
                ode = mods.lifting.LiftedODE(case.m, tuple(coeffs))
            ops.append(_lib_verify_op(mods, case, ode))
        return Workload(name, ops, lambda: warm_up_tables(mods))
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
