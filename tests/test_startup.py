"""What `import odelift` builds and loads before a command does any work.

Every odelift command pays for its imports first, and a small command such
as `derive -m 4` spends most of its own time there.  So no class in the
package is created from generated code: its six records are named tuples,
and exprparse's nine Expr nodes write out their own __init__ and docstring.
The nodes stay dataclasses only so that dataclasses.fields lists their
fields, with no method generated.  A module that one command alone needs is
imported by that command: `import odelift` imports no submodule, each name
resolving on first use, and derive and check-paper import none of
exprparse, verify, the dataclasses and inspect those load, pathlib and
importlib.resources.  The records stay immutable and checked: the
validating ones check on every way in, _make and _replace included.
"""

import dataclasses
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import odelift
from odelift import cli, diffring, exprparse, lifting, verify

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

NODES = {
    exprparse.Num, exprparse.Var, exprparse.Neg, exprparse.Add, exprparse.Sub,
    exprparse.Mul, exprparse.Div, exprparse.Pow, exprparse.Call,
}

ODE = lifting.derive_lifted_ode(2)
CFG = verify.NumericConfig((0.0, 1.0), 0.1)


def test_only_the_expr_nodes_are_dataclasses():
    found = {
        value
        for module in (odelift, cli, diffring, exprparse, lifting, verify)
        for value in vars(module).values()
        if isinstance(value, type)
        and value.__module__ == module.__name__
        and dataclasses.is_dataclass(value)
    }
    assert found == NODES
    for node in NODES:
        assert not node.__doc__.startswith(f"{node.__name__}("), node


@pytest.mark.parametrize("node", sorted(NODES, key=lambda cls: cls.__name__))
def test_no_node_method_is_generated_code(node):
    # dataclasses compiles each method it generates from a string
    generated = [
        name for name, value in vars(node).items()
        if getattr(getattr(value, "__code__", None), "co_filename", None) == "<string>"
    ]
    assert generated == []


@pytest.mark.parametrize("node", sorted(NODES, key=lambda cls: cls.__name__))
def test_dataclasses_writes_no_node_constructor_or_setattr(node):
    assert not node.__dataclass_params__.init and not node.__dataclass_params__.frozen


@pytest.mark.parametrize("node", sorted(NODES, key=lambda cls: cls.__name__))
def test_node_fields_are_the_written_constructors_parameters_in_order(node):
    # perfbench walks trees with dataclasses.fields; the constructor is written
    # out in exprparse (object's own for Var, which has no field)
    init = node.__init__
    if node is exprparse.Var:
        assert init is object.__init__
        params = []
    else:
        assert init.__code__.co_filename == exprparse.__file__
        params = list(inspect.signature(init).parameters)[1:]
    assert [f.name for f in dataclasses.fields(node)] == params == list(node.__match_args__)


#: Runs under `python -S`, where numpy cannot be imported, with argv[1] the
#: source directory: imports odelift.cli and prints the modules that only some
#: commands use that it loaded; then imports the other modules and inspects
#: every odelift module as doctest, inspect and a cache finder do, and prints
#: whether numpy is loaded.  Any exception fails the run.
_INSPECT_WITHOUT_NUMPY = """
import sys
sys.path.insert(0, sys.argv[1])
import odelift.cli
print(*(m for m in ("numpy", "json", "pathlib", "importlib.resources") if m in sys.modules))
import odelift.diffring, odelift.exprparse, odelift.lifting, odelift.verify
import doctest, inspect
modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "odelift"]
for module in modules:
    doctest.DocTestFinder().find(module)
    inspect.getmembers(module)
    for value in vars(module).values():
        getattr(value, "cache_clear", None)
print(len(modules), "numpy" in sys.modules)
"""


def test_import_loads_no_module_that_only_some_commands_use():
    # -S: no site start-up, which may import these modules on its own, and no
    # numpy, which only verify's numeric calls import
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _INSPECT_WITHOUT_NUMPY, str(SRC_DIR)],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["", "6 False"]


#: Runs under `python -S` with argv[1] the source directory: imports
#: odelift.cli and runs `derive -m 4 --style json` and `check-paper --all`
#: through cli.main, then prints their exit codes and which of the modules
#: that only verify needs are loaded; then reads each submodule, and then
#: each name of __all__, off the odelift package, and prints what is missing
#: or not listed by dir().
_DERIVE_AND_CHECK = """
import io, sys
from contextlib import redirect_stdout
sys.path.insert(0, sys.argv[1])
import odelift, odelift.cli
with redirect_stdout(io.StringIO()):
    codes = [odelift.cli.main(["derive", "-m", "4", "--style", "json"]),
             odelift.cli.main(["check-paper", "--all"])]
print(*codes)
print(*(m for m in ("odelift.exprparse", "odelift.verify", "dataclasses", "inspect",
                    "pathlib", "importlib.resources") if m in sys.modules))
submodules = ("cli", "diffring", "exprparse", "lifting", "verify")
print(*(n for n in submodules if getattr(odelift, n) is not sys.modules["odelift." + n]))
listed = dir(odelift)
print(len(odelift.__all__),
      *(n for n in odelift.__all__ if not hasattr(odelift, n) or n not in listed))
"""


def test_derive_and_check_paper_import_no_module_that_only_verify_runs():
    # -S as above; the package's names resolve on first use, submodules too
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _DERIVE_AND_CHECK, str(SRC_DIR)],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["0 0", "", "", "32"]


@pytest.mark.parametrize(
    ("record", "changes"),
    [
        (ODE, {"m": 0}),
        (ODE, {"coeffs": ODE.coeffs[:2]}),
        (CFG, {"interval": (0.0, 1.0, 2.0)}),
        (CFG, {"interval": (1.0, 0.0)}),
        (CFG, {"step": -0.1}),
        (CFG, {"step": 0.2}),
        (CFG, {"ic_f": (float("nan"), 0.0)}),
        (CFG, {"ic_g": (1.0,)}),
    ],
)
def test_replace_and_make_refuse_what_the_constructor_refuses(record, changes):
    cls, values = type(record), {**record._asdict(), **changes}
    errors = []
    for build in (
        lambda: cls(**values),
        lambda: record._replace(**changes),
        lambda: cls._make(values.values()),
    ):
        with pytest.raises(ValueError) as exc:
            build()
        errors.append((type(exc.value), str(exc.value)))
    assert errors[0] == errors[1] == errors[2]


def test_replace_and_make_convert_as_the_constructor_does():
    want = verify.NumericConfig((0.0, 2.0), 0.1, (1.0, 0.0), (0.0, 1.0))
    for cfg in (
        CFG._replace(interval=[0, 2], ic_g=[0, 1]),
        verify.NumericConfig._make([[0, 2], 0.1, (1, 0), (0, 1)]),
    ):
        assert cfg == want and type(cfg) is verify.NumericConfig
        assert all(type(v) is float for v in (*cfg.interval, cfg.step, *cfg.ic_f, *cfg.ic_g))
    assert ODE._replace(m=2) == ODE and type(ODE._replace(m=2)) is lifting.LiftedODE


def test_records_cannot_be_changed():
    table = lifting.check_against_fixture(2, lifting.load_fixture(2))
    report = verify.basis_check(2, exprparse.parse_expr("0"), exprparse.parse_expr("-1"), CFG)
    records = [ODE, CFG, table, table.checks[0], report, report.residuals[0]]
    assert {type(r).__name__ for r in records} == {
        "LiftedODE", "NumericConfig", "FixtureReport", "CoefficientCheck",
        "BasisReport", "MonomialResidual",
    }
    for record in records:
        before = tuple(record)
        for name in record._fields:
            for assign in (setattr, object.__setattr__):
                with pytest.raises(AttributeError):
                    assign(record, name, None)
        with pytest.raises(AttributeError):
            object.__setattr__(record, "extra", None)
        assert tuple(record) == before
