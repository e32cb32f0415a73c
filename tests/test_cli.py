"""Command-line behavior: output formats, exit codes, error routing."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from odelift.cli import canonical_json, main, ode_json_doc

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
FIXTURE_DIR = SRC_DIR / "odelift" / "fixtures"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- derive ----------------------------------------------------------------------


def test_derive_plain_m2(capsys):
    code, out, err = run(["derive", "-m", "2"], capsys)
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "c_2 = -3*p",
        "c_1 = 2*p^2 - p' - 4*q",
        "c_0 = 4*p*q - 2*q'",
    ]


def test_derive_plain_m1(capsys):
    code, out, _ = run(["derive", "-m", "1"], capsys)
    assert code == 0
    assert out.splitlines() == ["c_1 = -p", "c_0 = -q"]


def test_derive_latex(capsys):
    code, out, _ = run(["derive", "-m", "2", "--style", "latex"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "c_{2} = -3p",
        "c_{1} = 2p^{2} - p' - 4q",
        "c_{0} = 4pq - 2q'",
    ]


def test_derive_json_schema_and_round_trip(capsys):
    code, out, _ = run(["derive", "-m", "3", "--style", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 3 and doc["monic"] is True
    assert [entry["k"] for entry in doc["coeffs"]] == [0, 1, 2, 3]
    for entry in doc["coeffs"]:
        assert isinstance(entry["terms"], list)
    # load-then-dump must reproduce the emitted bytes
    assert canonical_json(doc) == out.strip()
    assert canonical_json(ode_json_doc(3)) == out.strip()


# -- check-paper -------------------------------------------------------------------


def test_check_single_table(capsys):
    code, out, _ = run(["check-paper", "-m", "3"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("m=3:") and lines[0].endswith("PASS")


def test_check_all_tables(capsys):
    code, out, _ = run(["check-paper", "--all"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    for m, line in zip((2, 3, 4, 5), lines):
        assert line.startswith(f"m={m}:")
        assert line.endswith("-> PASS")


def _copy_fixtures(target: Path) -> None:
    for src in FIXTURE_DIR.glob("order_m*.txt"):
        shutil.copy(src, target / src.name)


def test_check_detects_corrupted_table(tmp_path, capsys):
    _copy_fixtures(tmp_path)
    path = tmp_path / "order_m2.txt"
    lines = path.read_text().splitlines()
    lines[0] = f"-({lines[0]})"
    path.write_text("\n".join(lines) + "\n")

    code, out, _ = run(["check-paper", "-m", "2", "--fixtures", str(tmp_path)], capsys)
    assert code == 1
    assert "MISMATCH" in out and "FAIL" in out

    code, out, _ = run(["check-paper", "--all", "--fixtures", str(tmp_path)], capsys)
    assert code == 1
    assert out.count("PASS") == 3 and out.count("FAIL") == 1


def test_check_missing_fixture_directory(tmp_path, capsys):
    code, out, err = run(
        ["check-paper", "-m", "2", "--fixtures", str(tmp_path / "missing")], capsys
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_check_malformed_fixture_file(tmp_path, capsys):
    (tmp_path / "order_m2.txt").write_text("p\nq\n")
    code, _, err = run(["check-paper", "-m", "2", "--fixtures", str(tmp_path)], capsys)
    assert code == 1
    assert err.startswith("error:")


# -- verify ------------------------------------------------------------------------


def test_verify_passes(capsys):
    code, out, _ = run(["verify", "-m", "2", "--p", "sin(x)", "--q", "x"], capsys)
    assert code == 0
    assert out.startswith("m=2 on [0, 1]")
    assert "-> PASS" in out
    for label in ("f^2", "f*g", "g^2", "Wronskian"):
        assert label in out


def test_verify_json_report(capsys):
    code, out, _ = run(
        ["verify", "-m", "2", "--p", "sin(x)", "--q", "x", "--json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["m"] == 2
    assert doc["p"] == "sin(x)" and doc["q"] == "x"
    assert doc["interval"] == [0.0, 1.0] and doc["h"] == 1e-3
    assert [r["monomial"] for r in doc["residuals"]] == ["f^2", "f*g", "g^2"]
    assert all(r["pass"] for r in doc["residuals"])
    assert all(r["max_residual"] < 1e-6 for r in doc["residuals"])
    wron = doc["wronskian"]
    assert set(wron) == {"value", "scale", "x", "tolerance", "pass"}
    assert wron["pass"] is True
    assert canonical_json(doc) == out.strip()


def test_verify_dependent_ics_exit_code(capsys):
    code, out, _ = run(
        ["verify", "-m", "2", "--p", "0", "--q", "-1", "--ic-g", "2", "0"], capsys
    )
    assert code == 1
    assert "-> FAIL" in out
    assert "linearly dependent" in out


def test_verify_domain_error(capsys):
    code, out, err = run(["verify", "-m", "1", "--p", "1/x", "--q", "0"], capsys)
    assert code == 1
    assert err.startswith("error:")
    assert "division by zero" in err


def test_verify_unusable_grid_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "-m", "2", "--p", "0", "--q", "-1", "--step", "0.5"])
    assert info.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["derive"],
        ["derive", "-m", "0"],
        ["derive", "-m", "two"],
        ["derive", "-m", "2", "--style", "prose"],
        ["check-paper"],
        ["check-paper", "-m", "7"],
        ["check-paper", "-m", "2", "--all"],
        ["verify", "-m", "2", "--q", "x"],
        ["verify", "-m", "2", "--p", "(x+", "--q", "x"],
        ["verify", "-m", "2", "--p", "0", "--q", "-1", "--interval", "0", "inf"],
        ["verify", "-m", "2", "--p", "0", "--q", "-1", "--interval", "0", "1e12", "--step", "1e-300"],
        ["verify", "-m", "2", "--p", "0", "--q", "-1", "--tol-residual", "inf"],
        ["verify", "-m", "2", "--p", "0", "--q", "-1", "--tol-residual", "nan"],
        ["verify", "-m", "2", "--p", "0", "--q", "-1", "--tol-residual", "-1"],
        ["verify", "-m", "2", "--p", "0", "--q", "-1", "--tol-wronskian", "nan"],
        ["verify", "-m", "2", "--p", "0", "--q", "-1", "--tol-wronskian", "1"],
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    capsys.readouterr()


def test_module_entry_point():
    # The child does not inherit sys.path, so hand it the checkout's src/.
    path = filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-m", "odelift", "check-paper", "--all"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.count("PASS") == 4
