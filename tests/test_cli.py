"""Command-line behavior: output formats, exit codes, error routing."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from odelift import cli, diffring, lifting
from odelift.cli import canonical_json, derive_json, main
from odelift.diffring import DiffPoly, Monomial, P, Q, pack_print_keys
from odelift.lifting import LiftedODE, derive_lifted_ode
from oracles import ode_json_doc, reference_derive_text

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
FIXTURE_DIR = SRC_DIR / "odelift" / "fixtures"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_same_text(got: str, want: str) -> None:
    """got == want; a mismatch reports both lengths and about 80 characters
    around the first differing offset, so pytest never diffs megabyte texts."""
    if got != want:
        at = len(os.path.commonprefix([got, want]))
        lo, hi = max(0, at - 40), at + 40
        pytest.fail(f"texts differ at offset {at}, lengths {len(got)} and {len(want)}:\n"
                    f"  got  {got[lo:hi]!r}\n  want {want[lo:hi]!r}", pytrace=False)


def run_child(args):
    """`python ARGS` in a child process, which sees every warning."""
    # The child does not inherit sys.path, so hand it the checkout's src/.
    path = filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_module(argv):
    """`python -m odelift ARGV` in a child process."""
    return run_child(["-m", "odelift", *argv])


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
    assert_same_text(canonical_json(doc), out.strip())
    assert_same_text(canonical_json(ode_json_doc(3)), out.strip())


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


@pytest.mark.parametrize("m", [*range(1, 15), 16])
def test_streamed_derive_json_is_the_library_document(m, capsys):
    # derive writes the document a coefficient at a time; the pieces must
    # join to derive_json's text, byte for byte, past the digests' m = 14 too
    start = time.perf_counter()
    code, out, _ = run(["derive", "-m", str(m), "--style", "json"], capsys)
    assert code == 0
    assert_same_text(out, derive_json(derive_lifted_ode(m)) + "\n")
    assert time.perf_counter() - start < 60


@pytest.mark.parametrize(
    "m", [*range(15, 21), pytest.param(24, marks=pytest.mark.large(seconds=60))]
)
@pytest.mark.parametrize("style", ["plain", "latex"])
def test_streamed_derive_text_is_the_reference_printers(style, m, capsys):
    # past the digests' m = 14, plain and LaTeX are the text of the
    # term-by-term printer over derive_lifted_ode, byte for byte
    code, out, _ = run(["derive", "-m", str(m), "--style", style], capsys)
    assert code == 0
    assert_same_text(out, reference_derive_text(m, style))


@pytest.mark.parametrize("m", range(1, 15))
def test_derive_json_pieces_hold_at_most_one_term(m):
    # derive writes the document a term at a time, so it never holds a
    # whole coefficient's text; the pieces join to derive_json's text
    ode = derive_lifted_ode(m)
    pieces = list(cli._derive_chunks("json", *lifting.derive_print_keys(m)))
    assert max(piece.count('"num"') for piece in pieces) == 1
    assert len(pieces) == 2 + 2 * (m + 1) + sum(len(c.terms) for c in ode.coeffs)
    assert_same_text("".join(pieces), derive_json(ode))


#: sha256 of the `derive -m M` (plain) output, pinning the term order, the
#: signs and the coefficient and factor spelling for every M up to 14.
DERIVE_PLAIN_SHA256 = {
    1: "119a7ae4e820534e9a90e870a117eec6926be6e9da5fec07ae4686430c56d215",
    2: "160e9a26b2a96a222a50ae4eed1d7f7e8d23271274f2d6072cfaeb7dd57b40c0",
    3: "9a3fad52b9d1635bbebd8f8bbab446132044572c4e67459879de4839d477380e",
    4: "0c4779f1bf6a30297acca07b86c972189f2a49ef63ec63b556999acf0defc0af",
    5: "2f810c49a4d6532cabfbd6caa77386c3cb5b0fa2041dc9ea0aaf915559a52905",
    6: "07d967a761b71d2a545f186964f9ab2442038cf40a77638e8c2f3f75b40ea21e",
    7: "3cf943c23c29d12f7bc2f249729b1fe3a1291027b3cdc13f5cdbf86a82a86b8b",
    8: "3d39f9b4d72e90e4e6530604406469f774b089d44ab27be1ecbc9b2c6e42fb05",
    9: "e5f1af5e9be5eaca2e780a9051d8d340dcfd80207352022f592cdd1d06c15c67",
    10: "e6db542568f1e2b52fd2933825ed508a2e5b5bdd241078f05fceb25b9a10be31",
    11: "279e655ea31aa49e9dcb47c4541b9168ead1cb37f1b876e1433e252af023a354",
    12: "e7654594fc92b8c4090e570331434c089bf5c1086a45f3c872319f509faed982",
    13: "cadb58dd664f5f18a597e72278d7695579f6664971ca4f275bac2048c3563b3d",
    14: "f2e34b06f0b02aca034bc10a0918fd2d10c2997409388ab4324be4fcda0d8f1f",
}

#: sha256 of the `derive -m M --style latex` output, pinned like the plain one.
DERIVE_LATEX_SHA256 = {
    1: "9ee2344fbc94abd6316088a12aa78911a224c0174852c5ae33bbb5d3bf84406e",
    2: "a4ed9e5b7d00e2ed04adc66bbba1f71d396cddde39bd97070a3600086eb9c030",
    3: "53396afa42c6554b3fa42bde3a29036deb282ee2f03af228cd0ac99140f8f8eb",
    4: "a3d1728832a00761e9fd1b8bd55dcff9a7543c4cc0ebfeaf0564506d5c4ad258",
    5: "42b3c91e9c71239e1ab7b9c7940cc220577690d0d35fa36986b84151e925b939",
    6: "98291c0d8c39f944897fa02950ae6289c32a8ae50ac37d83f2dc2b947ec7eaa6",
    7: "d1dc74ef901f7140a1956c9770617f74ccec05d26463eb1ca5a8dc328c526b58",
    8: "3216d01fc1c4573c52216f737b84a7ab396a5fb742a99d89e0e6cfbe60987295",
    9: "21d6db1ede8c1b7a5c090a09bbfecf9f185316146c2baf4dda8edd2976426cfb",
    10: "60af97338e03205a554f3bef2c64773899bdea447e3aa9e3e51dd51e57f60f3f",
    11: "fd986d5b2bbd620b0636e3d039ee6632a8add3b68c0fda84f9a70b442a84c280",
    12: "ffc36f10bcf04c189db49151a76413ace6f88bc0eb29e4a77a861ead4b1113ba",
    13: "933b45d9fe05b03d022fc04536334831063ffb0a322a851c399177c0ce9bcb15",
    14: "70c1041f33d9b34287ff4c206d9d14c980d18de832713970b602ce30aa89533e",
}


@pytest.mark.parametrize("m", range(1, 15))
@pytest.mark.parametrize("style", ["plain", "latex"])
def test_derive_text_digest(style, m, capsys):
    code, out, _ = run(["derive", "-m", str(m), "--style", style], capsys)
    assert code == 0
    want = {"plain": DERIVE_PLAIN_SHA256, "latex": DERIVE_LATEX_SHA256}[style][m]
    assert hashlib.sha256(out.encode()).hexdigest() == want


#: Shapes the derived equations may never produce: a zero coefficient, a
#: constant term, a negative non-integral coefficient, a factor with
#: exp > 1 at derivative order > 0, and degrees and exponents past 255,
#: which need print-layout fields wider than a byte.  The last equation
#: tells the keys of derive_json's factor table apart: two-digit exponents,
#: exponent 12 at slots 0 and 7, slot 0 at exponents 1 and 12, and p^12 in
#: two coefficients.
EDGE_ODES = [
    LiftedODE(1, (DiffPoly.zero(), DiffPoly.const(7))),
    LiftedODE(1, (DiffPoly.const(Fraction(-3, 2)), DiffPoly.zero())),
    LiftedODE(
        2,
        (
            DiffPoly({Monomial({P(2): 3, Q(1): 2}): Fraction(-3, 2), Monomial(): 5}),
            DiffPoly({Monomial({Q(4): 1}): -(10**40)}),
            DiffPoly.zero(),
        ),
    ),
    LiftedODE(
        1,
        (
            DiffPoly({Monomial({P(): 300, Q(2): 1}): 5, Monomial({P(): 255, Q(): 1}): -1}),
            DiffPoly({Monomial({P(1): 1}): 2, Monomial({Q(2): 256}): Fraction(1, 3)}),
        ),
    ),
    LiftedODE(
        2,
        (
            DiffPoly({Monomial({P(): 12, Q(3): 12}): 1, Monomial({P(1): 10}): -4}),
            DiffPoly({Monomial({P(): 12, Q(): 1}): 3}),
            DiffPoly({Monomial({P(): 1, P(1): 10, Q(3): 12}): 2}),
        ),
    ),
]


@pytest.mark.parametrize("ode", [*range(1, 17), *EDGE_ODES])
def test_derive_json_matches_canonical_dump_of_the_dict_document(ode):
    text = derive_json(derive_lifted_ode(ode) if isinstance(ode, int) else ode)
    assert_same_text(text, canonical_json(ode_json_doc(ode)))


def test_derive_json_keeps_no_factor_between_calls():
    # each call builds its own factor table, whichever equation came before
    first, second = derive_lifted_ode(6), EDGE_ODES[-1]
    for order in ((first, second), (second, first)):
        for ode in order:
            assert_same_text(derive_json(ode), canonical_json(ode_json_doc(ode)))


@pytest.mark.parametrize("style", ["plain", "latex", "json"])
def test_derive_formats_each_factor_once_per_call(style, monkeypatch):
    calls = []

    def counting(style, slot, exp, plain=diffring._factor_text):
        calls.append((slot, exp))
        return plain(style, slot, exp)

    monkeypatch.setattr(diffring, "_factor_text", counting)
    ode = derive_lifted_ode(8)
    factors = [(s, e) for c in ode.coeffs for mono in c.terms for s, e in enumerate(mono) if e]
    assert len(factors) > 10 * len(set(factors))
    if style == "json":
        write, want = derive_json, canonical_json(ode_json_doc(ode))
    else:
        write = lambda ode: "".join(cli._derive_chunks(style, ode.m, *pack_print_keys(ode.coeffs)))
        want = reference_derive_text(ode, style)
    for _ in range(2):  # a second call formats them again: no table outlives a call
        calls.clear()
        assert_same_text(write(ode), want)
        assert sorted(calls) == sorted(set(factors))


@pytest.mark.parametrize("style", ["plain", "latex", "json"])
def test_derive_builds_neither_the_slot_layout_equation_nor_a_monomial(style, monkeypatch, capsys):
    # every style prints from the print-layout keys derive_print_keys gives
    def refused(*args, **kwargs):
        raise AssertionError("derive called derive_lifted_ode or Monomial()")

    monkeypatch.setattr(lifting, "derive_lifted_ode", refused)
    monkeypatch.setattr(cli, "derive_lifted_ode", refused, raising=False)
    monkeypatch.setattr(Monomial, "__new__", refused)
    code, out, _ = run(["derive", "-m", "6", "--style", style], capsys)
    assert code == 0
    digests = {"plain": DERIVE_PLAIN_SHA256, "latex": DERIVE_LATEX_SHA256}
    assert hashlib.sha256(out.encode()).hexdigest() == digests.get(style, DERIVE_JSON_SHA256)[6]


def test_derive_json_refuses_an_order_above_the_bound(monkeypatch, capsys):
    # derive --style json checks the derivative-order bound on its keys: a
    # derivation that also sets the last byte of a print-layout key, order m
    # of q, must raise before a byte is written
    plain = lifting._derive_moves

    def with_order_m(key, exps, deltas):
        return plain(key, exps, deltas) + ((key + 1, 1),)

    monkeypatch.setattr(lifting, "_derive_moves", with_order_m)
    with pytest.raises(RuntimeError, match="m=3 uses derivative order 3, above the bound 2"):
        main(["derive", "-m", "3", "--style", "json"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["derive", "-m", "29"],
        ["derive", "-m", "60"],
        ["derive", "-m", "1000000000"],
        ["verify", "-m", "60", "--p", "0", "--q", "-1"],
    ],
)
def test_m_over_the_derive_limit_exits_2_before_any_step(argv, capsys, monkeypatch):
    def no_step(*args):
        raise AssertionError("the recurrence started")

    monkeypatch.setattr(lifting, "_derive_moves", no_step)
    start = time.perf_counter()
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert time.perf_counter() - start < 1.0
    assert info.value.code == 2
    assert "m must be from 1 to 28" in capsys.readouterr().err


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


def test_check_reports_a_rational_change_with_its_exact_difference(tmp_path, capsys):
    _copy_fixtures(tmp_path)
    path = tmp_path / "order_m3.txt"
    lines = path.read_text().splitlines()
    lines[1] += " + 1/2*p"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(["check-paper", "-m", "3", "--fixtures", str(tmp_path)], capsys)
    assert (code, out, err) == (1, "m=3: c0 ok, c1 MISMATCH, c2 ok, c3 ok -> FAIL\n", "")

    table = lifting.load_fixture(3, tmp_path)
    derived = derive_lifted_ode(3).coeffs
    report = lifting.check_against_fixture(3, table)
    assert [c.matched for c in report.checks] == [True, False, True, True]
    assert report.checks[1].difference == derived[1] - table[1]
    assert report.checks[1].difference.terms == {Monomial({P(): 1}): Fraction(-1, 2)}


def test_check_zero_denominator_is_a_fixture_error(tmp_path, capsys):
    _copy_fixtures(tmp_path)
    path = tmp_path / "order_m2.txt"
    lines = path.read_text().splitlines()
    lines[0] = "1/0*p"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(["check-paper", "-m", "2", "--fixtures", str(tmp_path)], capsys)
    assert code == 1 and out == ""
    assert err == "error: fixture file order_m2.txt line 1: zero denominator (at position 2)\n"


def test_check_missing_fixture_directory(tmp_path, capsys):
    code, out, err = run(
        ["check-paper", "-m", "2", "--fixtures", str(tmp_path / "missing")], capsys
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "line2,reason",
    [
        (b"2*p^2 +", "expected number"),
        (b"\xff\xfe2*p^2", "'utf-8' codec can't decode"),
        (b"1" * 5000 + b"*p", "5000 digits is too long (at position 0)"),
        (b"2^99999999999*p", "'^' applies only to a symbol (at position 1)"),
        (b"(p+q)^400*(p'+q')^400", "a sum must be the last factor of its term (at position 5)"),
        (b"(" * 5000 + b"p" + b")" * 5000, "sums nested over 100 deep (at position 100)"),
    ],
    ids=["unparsable", "not-utf8", "over-long-literal", "power-over-budget",
         "product-over-budget", "nested-5000-deep"],
)
def test_check_unreadable_fixture_line(tmp_path, capsys, line2, reason):
    _copy_fixtures(tmp_path)
    path = tmp_path / "order_m2.txt"
    lines = path.read_bytes().splitlines()
    lines[1] = line2
    path.write_bytes(b"\n".join(lines) + b"\n")
    # a line the grammar refuses is a fixture error, not a hang or a memory blow-up
    start = time.perf_counter()
    code, out, err = run(["check-paper", "-m", "2", "--fixtures", str(tmp_path)], capsys)
    assert time.perf_counter() - start < 20
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


@pytest.mark.parametrize(
    "argv",
    [
        ["-m", "3", "--p", "sin(x)", "--q", "x"],
        ["-m", "10", "--p", "1/(x+2)", "--q", "exp(-x)"],
        # the stacked product block at a large m, with f and g from unequal,
        # non-unit initial conditions
        ["-m", "12", "--p", "sin(x)", "--q", "x", "--ic-f", "1.5", "-0.25", "--ic-g", "0.5", "2"],
        ["-m", "24", "--p", "sin(x)", "--q", "x"],
    ],
    ids=["m3", "m10", "m12-ics", "m24"],
)
def test_verify_passes_within_5_s(argv, capsys):
    start = time.perf_counter()
    code, out, _ = run(["verify", *argv], capsys)
    assert code == 0 and out.endswith("-> PASS\n")
    code, out, _ = run(["verify", *argv, "--json"], capsys)
    assert time.perf_counter() - start < 5
    d = json.loads(out)
    assert code == 0 and d["pass"] is True
    # the verdict thresholds are fixed constants, and the report prints them
    assert d["residual_tolerance"] == 1024.0 and d["wronskian"]["tolerance"] == 1e-8


@pytest.mark.parametrize(
    "argv",
    [
        ["-m", "16", "--p", "0", "--q", "-25"],
        ["-m", "20", "--p", "0", "--q", "-25"],
        ["-m", "20", "--p", "0", "--q", "-1"],
    ],
    ids=["m16-q-25", "m20-q-25", "m20-q-1"],
)
def test_verify_passes_a_true_basis_at_large_m(argv, capsys):
    # the floored residual r/s of these read 0.5-1.1 on the middle product;
    # the derived equation's residual is an identity, certified at 0.0
    code, out, _ = run(["verify", *argv, "--ic-f", "1", "-1", "--ic-g", "1", "1"], capsys)
    assert code == 0 and out.endswith("-> PASS\n")


@pytest.mark.parametrize(
    "interval",
    [[], ["--interval", "10", "11"]],
    ids=["fine-grid", "offset-fine-grid"],
)
def test_verify_passes_on_fine_grids(interval, capsys):
    # linspace spacing here varies by more than 1e-12 of the step
    argv = ["verify", "-m", "2", "--p", "0", "--q", "-1", "--step", "1e-4", *interval]
    code, out, _ = run(argv, capsys)
    assert code == 0 and "-> PASS" in out


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
    assert all(r["max_residual"] == 0.0 for r in doc["residuals"])
    assert set(doc) == {
        "m", "p", "q", "interval", "h", "residuals", "wronskian", "residual_tolerance", "pass",
    }
    assert doc["residual_tolerance"] == 1024.0
    for r in doc["residuals"]:
        assert r["pass"] == (r["max_residual"] <= doc["residual_tolerance"])
    wron = doc["wronskian"]
    assert set(wron) == {"value", "scale", "ratio", "x", "tolerance", "pass"}
    assert wron["pass"] is True
    assert wron["pass"] == (wron["ratio"] > wron["tolerance"])
    assert 0.0 < wron["ratio"] <= 1.0
    assert_same_text(canonical_json(doc), out.strip())


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
    assert_same_text(canonical_json(doc), out.strip())


def test_verify_json_writes_non_finite_ratio_as_null(capsys):
    # g = 1.7e308 e^x overflows before the midpoint, where the Wronskian
    # reads the raw initial conditions: (g, g') = (inf, inf) there, so the
    # ratio is NaN.  The residuals of the derived equation are certified, so
    # every one stays a number
    code, out, _ = run(
        ["verify", "-m", "2", "--p", "0", "--q", "1", "--ic-f", "0", "0",
         "--ic-g", "1.7e308", "1.7e308", "--json"], capsys
    )
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["wronskian"]["ratio"] is None
    assert [r["max_residual"] for r in doc["residuals"]] == [0.0] * 3
    assert all(r["pass"] for r in doc["residuals"])
    assert code == 1 and doc["pass"] is False


def test_wronskian_ratio_of_initial_conditions_near_the_double_maximum(capsys):
    # |(f, f')| of (1.5e308, 1.5e308) overflows a plain hypot; the ratio is
    # taken after dividing by max(|f|, |f'|), so it reads as at 1.5e307
    ratios = []
    for big in ("1.5e308", "1.5e307"):
        code, out, _ = run(
            ["verify", "-m", "1", "--p", "0", "--q", "0", "--interval", "0", "1e-3",
             "--step", "1e-4", "--ic-f", big, big, "--ic-g", "0", "1", "--json"], capsys
        )
        doc = json.loads(out)
        assert code == 0 and doc["pass"] and doc["wronskian"]["pass"]
        ratios.append(doc["wronskian"]["ratio"])
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-12)
    assert f"{ratios[0]:.2e}" == "7.07e-01"


@pytest.mark.parametrize(
    "argv,x",
    [
        # the trajectory itself overflows
        (["-m", "2", "--p", "0", "--q", "1000000"], "0.707"),
        # det Phi = exp(int p) overflows at the first steps
        (["-m", "4", "--p", "exp(2*x+100)", "--q", "1", "--interval", "-1", "1"], "-0.998"),
    ],
    ids=["overflowing-trajectory", "overflowing-determinant"],
)
def test_verify_overflow_fails_without_warnings(argv, x):
    # Phi leaves the double range: one error line naming the first such x
    # (exit 1), no report, warning or traceback
    proc = run_module(["verify", *argv])
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == (
        f"error: the solutions leave the double range at x={x}; use a shorter interval\n"
    )


@pytest.mark.parametrize("m", ["12", "20", "28"])
def test_verify_passes_products_that_grow_along_the_interval(m, capsys):
    # on 300 x^3, x the solution from (1, 0) reaches 6.5e28 and the unscaled
    # block left the double range from m = 10 (every residual read nan); the
    # derived equation's residuals are certified, and every one passes
    argv = ["verify", "-m", m, "--p", "300*x^3", "--q", "x"]
    code, out, err = run(argv, capsys)
    assert code == 0 and err == "" and out.endswith("-> PASS\n")
    code, out, _ = run([*argv, "--json"], capsys)
    doc = json.loads(out, parse_constant=_reject_constant)
    assert code == 0 and doc["pass"] is True
    assert max(r["max_residual"] for r in doc["residuals"]) < 1e-14


@pytest.mark.parametrize("scale", ["1e160", "1e-170", "1e200"])
def test_verify_passes_on_large_and_tiny_initial_conditions(scale, capsys):
    # the products are formed from the solutions scaled at every grid point,
    # so at m = 2 none of them overflows or underflows either
    for m in ("1", "2"):
        argv = ["verify", "-m", m, "--p", "0", "--q", "-1", "--ic-f", scale, "0",
                "--ic-g", "0", scale]
        code, out, _ = run(argv, capsys)
        assert code == 0 and out.endswith("-> PASS\n")
        assert "linearly dependent" not in out
        code, out, _ = run([*argv, "--json"], capsys)
        wron = json.loads(out)["wronskian"]
        assert code == 0 and wron["ratio"] == pytest.approx(1.0)
        # W(f, g) = 1e320 overflows to null; 1e-340 underflows to 0.0, which a
        # ratio above 0 tells apart from a true zero
        want = {"1e160": None, "1e-170": 0.0, "1e200": None}[scale]
        assert wron["value"] == want and wron["pass"] is True
    # in a child process, which sees every warning
    proc = run_module([*argv, "--json"])
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["pass"] is True


def test_verify_takes_the_coefficients_from_the_recurrence(monkeypatch, capsys):
    # verify neither derives the equation nor evaluates a polynomial: the
    # derived equation's residual is an identity, so it forms no c_k at all
    calls = []
    for owner in (cli, lifting):  # cli imports it no more, but must not call it either
        monkeypatch.setattr(owner, "derive_lifted_ode", lambda m: calls.append(m), raising=False)
    monkeypatch.setattr(DiffPoly, "eval", lambda self, *a: calls.append(self))
    code, out, _ = run(["verify", "-m", "8", "--p", "sin(x)", "--q", "x"], capsys)
    assert code == 0 and out.endswith("-> PASS\n")
    argv = ["verify", "-m", str(lifting.MAX_DERIVE_M), "--p", "sin(x)", "--q", "x", "--json"]
    code, out, _ = run(argv, capsys)
    assert code == 0 and json.loads(out)["pass"] is True
    assert calls == []


def test_verify_reports_the_step_the_grid_uses(capsys):
    # 1/0.0015 rounds to 667 steps: the grid step is 1/667, not 0.0015
    argv = ["verify", "-m", "2", "--p", "0", "--q", "-1", "--step", "0.0015"]
    code, out, _ = run([*argv, "--json"], capsys)
    assert code == 0 and json.loads(out)["h"] == 1 / 667
    code, out, _ = run(argv, capsys)
    assert code == 0 and out.startswith(f"m=2 on [0, 1], step {1 / 667:g}\n")


def test_verify_refuses_a_grid_of_fewer_than_10_steps(capsys):
    # 1/0.11 rounds to 9 steps; 1/0.105 rounds to 10, which runs
    argv = ["verify", "-m", "2", "--p", "0", "--q", "-1", "--step"]
    with pytest.raises(SystemExit) as info:
        main([*argv, "0.11"])
    assert info.value.code == 2 and "has 9 steps, fewer than 10" in capsys.readouterr().err
    code, out, _ = run([*argv, "0.105", "--json"], capsys)
    assert code == 0 and json.loads(out)["h"] == 1 / 10


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
    assert "Wronskian at x=0.5: 0.000000e+00  (|W(f,g)|/norms 0.000e+00, tol 1e-08)  FAIL" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["-m", "1", "--p", "0", "--q", "400", "--ic-f", "1", "-20", "--ic-g", "1", "-20.00000000002"],
        ["-m", "2", "--p", "0", "--q", "900", "--ic-f", "1", "-30", "--ic-g", "1", "-30.0000000001"],
    ],
    ids=["m1", "m2"],
)
def test_verify_near_dependent_ics_pass_without_a_note(argv, capsys):
    # the initial conditions are nearly parallel, but the solutions grow
    # apart by the midpoint, where the Wronskian ratio is the one verdict
    code, out, _ = run(["verify", *argv], capsys)
    assert code == 0 and out.endswith("-> PASS\n")
    assert "linearly dependent" not in out and "note:" not in out


@pytest.mark.parametrize("argv,reason,at", [
    (["-m", "1", "--p", "1/x", "--q", "0"], "division by zero", "x=0.0"),
    # the message prints a literal below repr's positional range
    (["-m", "2", "--p", "1/(x*0.000000000000000001)", "--q", "x"], "division by zero", "x=0.0"),
    # the Taylor steps read p''' = 1e6 exp(100 x), which leaves the double
    # range near x = 6.96, where exp(100 x) itself is still finite
    (["-m", "1", "--p", "exp(100*x)", "--q", "0", "--interval", "0", "7"],
     "non-finite value", "x=6.96"),
], ids=["pole", "tiny-literal", "derivative-overflow"])
def test_verify_domain_error(argv, reason, at, capsys):
    code, out, err = run(["verify", *argv], capsys)
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert reason in err and at in err


@pytest.mark.parametrize(
    "grid",
    [["--step", "1e-300"], ["--interval", "0", "1e308", "--step", "1"]],
    ids=["tiny-step", "huge-interval"],
)
def test_verify_oversized_grid_message_is_short(grid, capsys):
    # 1e300 and 1e308 points: the counts are printed as floats, not as
    # 301-digit integers, and the float count of 12e308 is inf, not an error
    with pytest.raises(SystemExit) as info:
        main(["verify", "-m", "2", "--p", "0", "--q", "-1", *grid])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Phi and p, q to order 3 on 1e+") and "grid points" in err
    assert len(err) < 120, err


def test_verify_passes_m_28_on_20_001_points(capsys):
    # verify -m M builds Phi and p, q to order 3, 12 floats a grid point at
    # every m: 2.4e5 floats here, well inside MAX_BLOCK_FLOATS
    code, out, _ = run(["verify", "-m", "28", "--p", "sin(x)", "--q", "x", "--step", "5e-5"], capsys)
    assert code == 0 and out.rstrip().endswith("-> PASS")


def test_verify_refuses_a_grid_past_its_limit_before_it_integrates(capsys, monkeypatch):
    # 10^6 + 1 points need 12 floats each, Phi and p, q to order 3, over the
    # limit of 10^7 at any m; refused before p and q are evaluated
    from odelift import verify

    def no_symbols(*args):
        raise AssertionError("evaluated p and q")

    monkeypatch.setattr(verify, "symbol_values", no_symbols)
    for m in ("2", "28"):
        with pytest.raises(SystemExit) as info:
            main(["verify", "-m", m, "--p", "sin(x)", "--q", "x", "--step", "1e-6"])
        assert info.value.code == 2
        assert capsys.readouterr().err == (
            "error: Phi and p, q to order 3 on 1e+06 grid points need 1.2e+07 floats, "
            "over the limit 1e+07; use a larger step\n"
        )


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
        # the verdict thresholds are fixed: no option sets them, spelled
        # either way, at their old defaults or an abbreviation
        ["verify", "-m", "2", "--p", "0", "--q", "-1", "--tol-residual", "1"],
        ["verify", "-m", "2", "--p", "0", "--q", "-1", "--tol-residual=1e-6"],
        ["verify", "-m", "2", "--p", "0", "--q", "-1", "--tol-wronskian", "1e-8"],
        ["verify", "-m", "2", "--p", "0", "--q", "-1", "--tol-wronskian=1"],
        ["verify", "-m", "2", "--p", "0", "--q", "-1", "--tol", "1e-6"],
        ["verify", "-m", "2", "--p", "0", "--q", "-1", "--interval", "0", "1e12", "--step", "1e-3"],
        ["verify", "-m", "2", "--p", "0", "--q", "9" * 309],  # a literal that overflows a double
        ["verify", "-m", "2", "--p", "2²", "--q", "-1"],
        ["verify", "-m", "2", "--p", "0", "--q", "x^" + "9" * 5000],
        # one past the largest m
        ["verify", "-m", "29", "--p", "0", "--q", "-1"],
        # nesting or sums too deep for the recursive parser and tree walks
        ["verify", "-m", "2", "--p", "(" * 200 + "x" + ")" * 200, "--q", "x"],
        ["verify", "-m", "2", "--p", "(" * 5000 + "x" + ")" * 5000, "--q", "x"],
        ["verify", "-m", "2", "--p", "x", "--q=" + "-" * 1000 + "x"],
        ["verify", "-m", "2", "--p", "+".join(["x"] * 500), "--q", "x"],
        ["verify", "-m", "8", "--p", "0", "--q", "*".join(["x"] * 1000)],
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert time.perf_counter() - start < 10
    assert info.value.code == 2
    err = capsys.readouterr().err
    if "argument --p:" in err or "argument --q:" in err:
        # a bad expression is named at its offset, not by argparse's generic
        # "invalid _expression value" with the whole text echoed
        assert "syntax error at offset" in err and len(err) < 1000, err


def test_verify_certifies_residuals_where_the_coefficients_leave_the_double_range(capsys):
    # q = -1e40 on 11 points: the derived c_k at m = 16 leave the double
    # range there, which was a usage error while verify formed them.  It forms
    # none: every residual passes by the identity, and the Wronskian judges
    # alone.  At x = 5e-20 both solution vectors point along y', so it FAILs
    argv = ["verify", "-m", "16", "--p", "0", "--q", "-1" + "0" * 40,
            "--interval", "0", "1e-19", "--step", "1e-20", "--json"]
    code, out, _ = run(argv, capsys)
    doc = json.loads(out, parse_constant=_reject_constant)
    assert [(r["max_residual"], r["pass"]) for r in doc["residuals"]] == [(0.0, True)] * 17
    assert doc["wronskian"]["ratio"] < 1e-8 and not doc["wronskian"]["pass"]
    assert code == 1 and doc["pass"] is False


def test_deep_input_that_verify_read_before_is_still_read():
    # at the edge of what the recursive parser and tree walks take in a
    # fresh process: 194 nested parentheses and a sum of 330 terms
    for p in ["(" * 194 + "x" + ")" * 194, "+".join(["0"] * 330)]:
        start = time.perf_counter()
        proc = run_module(["verify", "-m", "2", "--p", p, "--q", "-1"])
        assert time.perf_counter() - start < 10
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr[-500:]


def exit_code(argv, frames=0):
    """main(argv)'s exit code, with `frames` more interpreter frames above it."""
    if frames:
        return exit_code(argv, frames - 1)
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "p,q,want",
    [
        ("(" * 194 + "x" + ")" * 194, "-1", 0),
        ("(" * 200 + "x" + ")" * 200, "-1", 2),
        ("+".join(["0"] * 330), "-1", 0),
        ("+".join(["0"] * 400), "-1", 0),  # the deepest tree parse_expr builds
        ("+".join(["0"] * 500), "-1", 2),
        ("0", "*".join(["x"] * 1000), 2),
    ],
)
def test_edge_inputs_exit_alike_from_any_caller(p, q, want, capsys):
    # parse_expr's fixed limits decide, not the depth of the caller's stack
    argv = ["verify", "-m", "2", "--p", p, "--q", q]
    codes = [exit_code(argv, frames) for frames in (0, 100, 300)]
    codes.append(run_module(argv).returncode)
    capsys.readouterr()
    assert codes == [want] * 4


def test_exponent_past_double_range_is_a_usage_error(capsys):
    # refused by the parser, before any jet is taken: 4 000 nines at m=28
    # ran for seconds of square-and-multiply and then overflowed
    start = time.perf_counter()
    code = exit_code(["verify", "-m", "28", "--p", "0", "--q", "(x/2)^" + "9" * 4000])
    assert code == 2 and time.perf_counter() - start < 1.0
    assert "offset 6: expected exponent within double range" in capsys.readouterr().err
    assert exit_code(["verify", "-m", "2", "--p", "0", "--q", "(x/2)^" + "9" * 309]) == 2


def test_main_builds_no_parser(monkeypatch, capsys):
    def refuse():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert run(["check-paper", "-m", "2"], capsys)[0] == 0
    assert run(["derive", "-m", "1"], capsys)[0] == 0


def test_module_entry_point():
    proc = run_module(["check-paper", "--all"])
    assert proc.returncode == 0
    assert proc.stdout.count("PASS") == 4


# -- numpy is loaded by verify alone ------------------------------------------------

#: Runs in a fresh interpreter, with numpy made unimportable when argv[1] is
#: "block": imports the package every way a caller does, runs derive -m 4 as
#: JSON and check-paper --all through cli.main, and prints one JSON line.
_WITHOUT_NUMPY = """
import io, json, sys
from contextlib import redirect_stdout
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
import odelift
import odelift.verify
from odelift import basis_check, cli
missing = [name for name in odelift.__all__ if not hasattr(odelift, name)]
runs = []
for argv in (["derive", "-m", "4", "--style", "json"], ["check-paper", "--all"]):
    with redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    runs.append([code, out.getvalue()])
loaded = sys.modules.get("numpy") is not None
print(json.dumps({"missing": missing, "runs": runs, "numpy_loaded": loaded}))
"""


def run_fresh(script, *args):
    """The JSON object a fresh interpreter prints for `python -c script args`."""
    proc = run_child(["-c", script, *args])
    assert (proc.returncode, proc.stderr) == (0, "")
    return json.loads(proc.stdout)


@pytest.mark.parametrize("numpy", ["block", "allow"])
def test_derive_and_check_paper_never_load_numpy(numpy, capsys):
    got = run_fresh(_WITHOUT_NUMPY, numpy)
    assert got["missing"] == [] and got["numpy_loaded"] is False
    derive, paper = got["runs"]
    assert derive == [0, run(["derive", "-m", "4", "--style", "json"], capsys)[1]]
    assert paper == [0, run(["check-paper", "--all"], capsys)[1]]
    assert hashlib.sha256(derive[1].encode()).hexdigest() == DERIVE_JSON_SHA256[4]


# -- peak memory -----------------------------------------------------------------

#: Runs `python -m odelift ARGV` in a child with its output discarded, and
#: prints the child's peak resident size in KiB: the ru_maxrss of the children
#: of this interpreter, which runs nothing else.
_CHILD_PEAK = """
import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "odelift", *sys.argv[1:]], stdout=subprocess.DEVNULL, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


@pytest.mark.large(seconds=60)
def test_derive_json_peaks_within_10_percent_of_plain_at_m_24():
    # derive writes the JSON document a term at a time, so at m = 24 it peaks
    # within 10 % of the plain style
    peaks = {}
    for style in ("plain", "json"):
        proc = run_child(["-c", _CHILD_PEAK, "derive", "-m", "24", "--style", style])
        assert (proc.returncode, proc.stderr) == (0, "")
        peaks[style] = int(proc.stdout)
    plain, json = peaks["plain"], peaks["json"]
    print(f"derive -m 24 peaks: plain {plain} KiB, json {json} KiB")
    assert json <= 1.1 * plain
