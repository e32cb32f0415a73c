"""Command-line behavior: output formats, exit codes, error routing."""

import hashlib
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


def run_module(argv):
    """`python -m odelift ARGV` in a child process, which sees every warning."""
    # The child does not inherit sys.path, so hand it the checkout's src/.
    path = filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run(
        [sys.executable, "-m", "odelift", *argv], capture_output=True, text=True, env=env
    )


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


#: sha256 of the `derive -m M --style json` output.  Pins the term order, the
#: factor order and the number formatting for every M up to 14, so a change of
#: representation inside the ring cannot change a byte of the document.
DERIVE_JSON_SHA256 = {
    1: "fe6b802446bc44a3635536d6e6b61597dac51865789eae9bbc37b7bb9ccf1c46",
    2: "7f2b1d465d3a8f704d7a1d6909f60597d0475c3ee0e443c6f26050bac343fa6c",
    3: "9e1861de6a3cbbca8cabf334cb708b003733fa7715c616d21dea44c8704edb78",
    4: "9e48def65f0126fa88f235ed704e4a68413ef69f5413d98acc0355aad3624a54",
    5: "2e70902d5ee62bdcbbb140f50edd39d770492de88e201d6f7d77e9bb6e1c61a9",
    6: "e474aa4dd786ad82796644d5b56ca0899f829fcc9fb993d720db4a46308dfa09",
    7: "1913d69be9665c6590b303bc0f9f256ed13f5d73a467b8b06525a01be61a5207",
    8: "631702afd56221919c4e02d253c25219e8e76556b540c93c1e85dcd296ea5db6",
    9: "05f002d23a7bba7d0bfefe1232a7c276b98263ed2e7afe3cc00673fd26951033",
    10: "c3e3e9c5b8439d3bd724aced4fa5ae52361647fd1dbaf5625392ced664d23938",
    11: "7aea0e6942e7c0de6e94d1d81b180e4474edbf420d148119d6dc1aa44b829758",
    12: "a383c10c7ef2538e4358617d7b5771459ab1ac8ee0a6e7f2551be1d6731c2ef0",
    13: "2aa56909a7d469e27a95eb20ea2fdb5c9a8ae49356d5dcfa3cf8c77e717aafcb",
    14: "f3722d4398ef38f0ca48e30c70b426a62fad32ee381647e5a1f9ad76df3af0d2",
}


@pytest.mark.parametrize("m", sorted(DERIVE_JSON_SHA256))
def test_derive_json_digest(m, capsys):
    code, out, _ = run(["derive", "-m", str(m), "--style", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DERIVE_JSON_SHA256[m]


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


@pytest.mark.parametrize(
    "line2,reason",
    [(b"2*p^2 +", "expected number"), (b"\xff\xfe2*p^2", "'utf-8' codec can't decode")],
    ids=["unparsable", "not-utf8"],
)
def test_check_unreadable_fixture_line(tmp_path, capsys, line2, reason):
    _copy_fixtures(tmp_path)
    path = tmp_path / "order_m2.txt"
    lines = path.read_bytes().splitlines()
    lines[1] = line2
    path.write_bytes(b"\n".join(lines) + b"\n")
    code, out, err = run(["check-paper", "-m", "2", "--fixtures", str(tmp_path)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: fixture file order_m2.txt line 2: ")
    assert reason in err


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
    assert set(doc) == {
        "m", "p", "q", "interval", "h", "residuals", "wronskian", "residual_tolerance", "pass",
    }
    assert doc["residual_tolerance"] == 1e-6
    for r in doc["residuals"]:
        assert r["pass"] == (r["max_residual"] < doc["residual_tolerance"])
    wron = doc["wronskian"]
    assert set(wron) == {"value", "scale", "ratio", "x", "tolerance", "pass"}
    assert wron["pass"] is True
    assert wron["pass"] == (wron["ratio"] > wron["tolerance"])
    assert 0.0 < wron["ratio"] <= 1.0
    assert canonical_json(doc) == out.strip()


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_verify_json_writes_non_finite_values_as_null(capsys):
    # The Wronskian of this basis overflows: (prod k!) * (1e20)^21.
    code, out, _ = run(
        [
            "verify", "-m", "6", "--p", "0", "--q", "-1",
            "--ic-f", "1e10", "0", "--ic-g", "0", "1e10", "--json",
        ],
        capsys,
    )
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["wronskian"]["value"] is None
    assert doc["wronskian"]["scale"] is None
    assert doc["wronskian"]["ratio"] == pytest.approx(1.0)
    assert code == 0 and doc["pass"] is True
    assert canonical_json(doc) == out.strip()


def test_verify_json_writes_non_finite_ratio_as_null(capsys):
    # f^2 and |(f, f')| |(g, g')| overflow: residuals and inf/inf are NaN
    code, out, _ = run(
        [
            "verify", "-m", "2", "--p", "0", "--q", "-1",
            "--ic-f", "1e200", "0", "--ic-g", "0", "1e200", "--json",
        ],
        capsys,
    )
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["wronskian"]["ratio"] is None
    assert [r["max_residual"] for r in doc["residuals"]] == [None] * 3
    assert code == 1 and doc["pass"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ["--q", "-1", "--ic-f", "1e200", "0", "--ic-g", "0", "1e200", "--json"],
        ["--q", "1000000"],  # the trajectory itself overflows
    ],
    ids=["huge-initial-conditions", "overflowing-trajectory"],
)
def test_verify_overflow_fails_without_warnings(argv):
    proc = run_module(["verify", "-m", "2", "--p", "0", *argv])
    assert proc.returncode == 1 and proc.stderr == ""
    if "--json" in argv:
        assert json.loads(proc.stdout)["pass"] is False
    else:
        assert proc.stdout.endswith("-> FAIL\n")


def test_verify_reports_the_step_the_grid_uses(capsys):
    # 1/0.0015 rounds to 667 steps: the grid step is 1/667, not 0.0015
    argv = ["verify", "-m", "2", "--p", "0", "--q", "-1", "--step", "0.0015"]
    code, out, _ = run([*argv, "--json"], capsys)
    assert code == 0 and json.loads(out)["h"] == 1 / 667
    code, out, _ = run(argv, capsys)
    assert code == 0 and out.startswith(f"m=2 on [0, 1], step {1 / 667:g}\n")


def test_canonical_json_refuses_non_finite_floats():
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError):
            canonical_json({"value": bad})


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
        ["verify", "-m", "2", "--p", "0", "--q", "-1", "--interval", "0", "1e12", "--step", "1e-3"],
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    capsys.readouterr()


def test_module_entry_point():
    proc = run_module(["check-paper", "--all"])
    assert proc.returncode == 0
    assert proc.stdout.count("PASS") == 4
