"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import calibrate  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MODS = workloads.load_program()


def shape(expr, memo: dict):
    """Tree shape with every numeric literal replaced by one placeholder."""
    if id(expr) not in memo:
        if isinstance(expr, MODS.exprparse.Num):
            memo[id(expr)] = "Num"
        else:
            parts = [type(expr).__name__]
            for f in dataclasses.fields(expr):
                value = getattr(expr, f.name)
                parts.append(shape(value, memo) if dataclasses.is_dataclass(value) else value)
            memo[id(expr)] = tuple(parts)
    return memo[id(expr)]


def chain_shapes(text: str, order: int) -> list:
    expr = MODS.exprparse.parse_expr(text)
    out = [shape(expr, {})]
    for _ in range(order):
        expr = MODS.exprparse.diff_expr(expr)
        out.append(shape(expr, {}))
    return out


@pytest.mark.parametrize("name", ["verify-batch", "verify-cold"])
def test_same_seed_same_inputs(name):
    assert workloads.verify_cases(name, 7) == workloads.verify_cases(name, 7)


@pytest.mark.parametrize("name", ["verify-batch", "verify-cold"])
def test_other_seed_other_constants_same_shapes(name):
    one, two = workloads.verify_cases(name, 1), workloads.verify_cases(name, 2)
    assert len(one) == len(two)
    assert [(c.a, c.ic_f, c.ic_g) for c in one] != [(c.a, c.ic_f, c.ic_g) for c in two]
    for x, y in zip(one, two):
        assert (x.m, x.template, x.kind) == (y.m, y.template, y.kind)
        for tx, ty in ((x.p, y.p), (x.q, y.q)):
            assert chain_shapes(tx, x.m - 1) == chain_shapes(ty, y.m - 1)


def test_op_count_is_fixed_by_the_workload():
    for name in workloads.WORKLOADS:
        counts = {len(workloads.build(name, seed, MODS, run.FIXTURES).ops) for seed in (1, 2)}
        assert counts == {{"derive-sweep": 15, "verify-batch": 48, "verify-cold": 7}[name]}


def _derive_doc(m: int) -> dict:
    code, text = workloads._run_cli(MODS, ["derive", "-m", str(m), "--style", "json"])
    assert code == 0
    return json.loads(text)


def test_oracle_accepts_the_derivation_and_rejects_a_sign_flip():
    rng = random.Random(3)
    for m in range(1, 8):
        oracle.check_derive_doc(_derive_doc(m), m, rng, run.FIXTURES)
    doc = _derive_doc(6)
    term = doc["coeffs"][3]["terms"][1]
    term["num"] = str(-int(term["num"]))
    with pytest.raises(oracle.OracleMismatch):
        oracle.check_derive_doc(doc, 6, rng, run.FIXTURES)


def test_oracle_reads_the_bundled_tables():
    table = oracle.load_table(run.FIXTURES, 2)
    assert table[2] == {(("p", 0, 1),): -3}
    assert oracle.parse_table_line("-2*(q' - 2*p*q)") == {
        (("q", 1, 1),): -2,
        (("p", 0, 1), ("q", 0, 1)): 4,
    }


def test_tail_has_ten_samples_above_it():
    samples = [float(i) for i in range(60)]
    value, pct = run.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100 * 50 / 60)


def test_timer_enforces_the_limit_and_takes_out_the_probe_time():
    with pytest.raises(calibrate.TimeLimit):
        with calibrate.Timer(0.05) as timer:
            end = time.perf_counter() + 5.0
            while time.perf_counter() < end:
                pass
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(timer.samples) > calibrate.PRE_SAMPLES
    assert 0 < timer.elapsed < timer.wall < 1.0
    assert timer.factor > 0


def _small_runner(tracer):
    derive = workloads.build("derive-sweep", 1, MODS, run.FIXTURES)
    verify = workloads.build("verify-batch", 1, MODS, run.FIXTURES)
    wl = workloads.Workload("mixed", derive.ops[:6] + verify.ops[:3], verify.warm_up)
    wl.warm_up()
    return run.Runner(wl, run.odelift_caches(MODS), tracer)


def test_traced_counts_repeat_and_self_times_fit_in_each_operation():
    tracer = tracing.Tracer(MODS)
    runner = _small_runner(tracer)
    rows = []
    for _ in range(2):
        runner.run_pass(traced=True)
        rows.append((set(runner.passes[-1][1]), tracer.take_counts(), tracer.take_sizes()))
    assert runner.failed == 0 and runner.values_ok
    selfs = tracing.self_times(tracer.spans)
    run.check_self_times(tracer.spans, selfs, runner)
    for op_id, wall in enumerate(runner.op_wall):
        own = sum(s for span, s in zip(tracer.spans, selfs) if span.op == op_id)
        assert 0 < own <= wall
    factors = runner.factors
    metrics = [tracing.layer_metrics(tracer.spans, selfs, *row, factors) for row in rows]
    for name in metrics[0]:
        if not name.endswith("_ms"):
            assert metrics[0][name] == metrics[1][name], name
    assert metrics[0]["diffring.arith_calls"] > 0 and metrics[0]["verify.rk4_steps"] > 0
    # the wrappers are gone once the pass ends
    assert MODS.cli.main.__module__ == "odelift.cli" and not hasattr(MODS.cli.main, "__wrapped__")


def test_verify_batch_known_answers_hold():
    wl = workloads.build("verify-batch", 4, MODS, run.FIXTURES)
    wl.warm_up()
    runner = run.Runner(wl, [])
    runner.run_pass()
    assert (runner.attempted, runner.failed, runner.values_ok) == (48, 0, True)


def test_perturbed_and_dependent_controls_are_judged_fail():
    genuine, perturbed, dependent = workloads.verify_cases("verify-batch", 5)[:3]
    assert (genuine.expect_pass, perturbed.expect_pass, dependent.expect_pass) == (True, False, False)
    # a residual at rounding level on a perturbed equation is a wrong value
    assert workloads.check_verify_values(perturbed, [1e-15], 1.0, 1.0, 0.5) is not None


def test_run_refuses_a_directory_without_the_program():
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, bare / "perfbench" / path.name)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "derive-sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
