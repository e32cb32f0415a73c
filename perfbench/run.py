"""Benchmark for odelift: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload derive-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory.  The run makes round(seconds / nominal pass time)
passes over the workload's operations, one operation at a time in this
process, and checks every output against its known answer outside the
timed region.  With --trace 0 it reports the end-to-end metrics; with
--trace 1 it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  Times
are normalised to a reference machine speed (see calibrate.py).  The
last line of standard output is the result object; earlier lines name
every metric with its unit.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import calibrate
import tracing

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SRC = CHECKOUT / "src"
FIXTURES = SRC / "odelift" / "fixtures"
OUT_DIR = BENCH_DIR / "out"

#: Fresh interpreters started to measure set-up time; setup_s is their median.
SETUP_PROBES = 5
#: An operation running longer than this counts as failed.
OP_TIME_LIMIT_S = 60.0

# Runs in a fresh interpreter: times `import odelift` (with its CLI module)
# and, for verify-batch, the warm-up that builds the symbolic tables.
_PROBE = """
import sys
src, bench, name = sys.argv[1:4]
sys.path[:0] = [src, bench]
import calibrate, workloads
with calibrate.Timer(60.0) as timer:
    mods = workloads.load_program()
    if name == "verify-batch":
        workloads.warm_up_tables(mods)
print(timer.elapsed * timer.factor)
"""


def measure_setup(name: str) -> float:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE, str(SRC), str(BENCH_DIR), name],
            cwd=CHECKOUT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def odelift_caches(mods) -> list:
    """Every functools cache held by an odelift module, found by inspection."""
    found = {}
    for module in vars(mods).values():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and callable(
                getattr(value, "cache_info", None)
            ):
                found[id(value)] = value
    return list(found.values())


def tail(samples: list) -> tuple:
    """(value, percentile): the highest percentile with >= 10 samples above it.

    With n sorted samples that is the one at index n - 11; with fewer than
    11 samples it is the maximum, at percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    index = n - 11
    return ordered[index], 100.0 * (index + 1) / n


class Runner:
    """Runs passes over a workload's operations and keeps the outcomes.

    Operation ids count up from 0 over the whole run and index
    `op_seconds` (measured, without the speed sampling), `op_wall` (with
    it) and `factors` (speed normalisation, see calibrate.py).
    """

    def __init__(self, workload, caches, tracer=None):
        self.workload = workload
        self.caches = caches
        self.tracer = tracer
        self.op_seconds: list = []
        self.op_wall: list = []
        self.factors: list = []
        self.passes: list = []  # (traced, op ids, stdout bytes)
        self.attempted = 0
        self.failed = 0
        self.values_ok = True

    def run_pass(self, traced: bool = False) -> None:
        ids, out_bytes = [], 0
        if traced:
            self.tracer.install()
        try:
            for op in self.workload.ops:
                ids.append(len(self.op_seconds))
                output = self._run_op(op, ids[-1], traced)
                if isinstance(output, tuple) and len(output) == 2 and isinstance(output[1], str):
                    out_bytes += len(output[1].encode())
        finally:
            if traced:
                self.tracer.remove()
        self.passes.append((traced, ids, out_bytes))

    def _run_op(self, op, op_id: int, traced: bool):
        if op.cold:
            for cache in self.caches:
                cache.cache_clear()
        gc.collect()
        if traced:
            self.tracer.op = op_id
        self.attempted += 1
        output, error = None, None
        timer = calibrate.Timer(OP_TIME_LIMIT_S)
        try:
            with timer:
                output = op.call()
        except Exception as exc:  # the run goes on; the operation counts as failed
            error = exc
        finally:
            if traced:
                self.tracer.op = -1
        self.op_seconds.append(timer.elapsed)
        self.op_wall.append(timer.wall)
        self.factors.append(timer.factor)
        if error is not None:
            self.failed += 1
            text = "".join(traceback.format_exception_only(type(error), error)).strip()
            print(f"op {op_id} {op.label}: raised {text}", file=sys.stderr)
            return None
        try:
            values_ok, verdict_ok, reason = op.check(output)
        except (ValueError, KeyError, TypeError) as exc:
            values_ok, verdict_ok, reason = False, False, f"unreadable output: {exc!r}"
        self.values_ok = self.values_ok and values_ok
        if not (values_ok and verdict_ok):
            self.failed += 1
            print(f"op {op_id} {op.label}: {reason}", file=sys.stderr)
        return output

    def op_times(self) -> list:
        """Normalised seconds of every operation."""
        return [s * f for s, f in zip(self.op_seconds, self.factors)]

    def pass_seconds(self, traced: bool = False) -> list:
        times = self.op_times()
        return [sum(times[i] for i in ids) for t, ids, _ in self.passes if t == traced]


def load_checkout():
    if not (SRC / "odelift" / "__init__.py").is_file():
        sys.exit(f"error: no odelift sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import workloads

    mods = workloads.load_program()
    if Path(mods.cli.__file__).resolve().parent != (SRC / "odelift").resolve():
        sys.exit(f"error: imported odelift from {mods.cli.__file__}, not from {SRC}")
    return workloads, mods


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads, mods = load_checkout()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}")
    caches = odelift_caches(mods)
    workload = workloads.build(args.workload, args.seed, mods, FIXTURES)
    workload.warm_up()
    passes = max(1, round(args.seconds / workloads.NOMINAL_PASS_S[args.workload]))

    if args.trace:
        tracer = tracing.Tracer(mods)
        runner = Runner(workload, caches, tracer)
        result = traced_metrics(runner, tracer, max(2, passes), args)
    else:
        runner = Runner(workload, caches)
        for _ in range(passes):
            runner.run_pass()

    measured = [sum(runner.op_seconds[i] for i in ids) for _, ids, _ in runner.passes]
    print(f"workload {args.workload}, seed {args.seed}: {len(runner.passes)} passes, "
          f"{runner.attempted} operations, {runner.failed} failed")
    print("measured pass seconds " + " ".join(f"{s:.3f}" for s in measured)
          + f"; median speed factor {statistics.median(runner.factors):.3f}")
    if not args.trace:
        result = end_to_end_metrics(runner, measure_setup(args.workload))
    for name, metric in result.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": runner.values_ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": result,
    }))
    return 0


def end_to_end_metrics(runner: Runner, setup_s: float) -> dict:
    ms = [s * 1e3 for s in runner.op_times()]
    tail_ms, pct = tail(ms)
    failed_frac = runner.failed / runner.attempted
    print(f"failed_ops_frac = {failed_frac:.6g} frac")
    print(f"op_tail_ms is p{pct:.1f} of {len(ms)} operations")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": statistics.median(runner.pass_seconds()), "unit": "s"},
        "op_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
        "op_tail_ms": {"value": tail_ms, "unit": "ms"},
        "ok_ops_frac": {"value": 1.0 - failed_frac, "unit": "frac"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }


UNITS = {"_ms": "ms", "_bytes": "bytes", "_digits_max": "digits", "_frac": "frac"}


def traced_metrics(runner: Runner, tracer, passes: int, args) -> dict:
    """Alternate untraced and traced passes; per-layer metrics of the traced."""
    per_pass = []
    for index in range(passes):
        traced = index % 2 == 1
        runner.run_pass(traced)
        if traced:
            per_pass.append((runner.passes[-1], tracer.take_counts(), tracer.take_sizes()))
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    check_self_times(spans, selfs, runner)
    factors = runner.factors
    rows = []
    for (_, ids, out_bytes), counts, sizes in per_pass:
        row = tracing.layer_metrics(spans, selfs, set(ids), counts, sizes, factors)
        row["cli.output_bytes"] = out_bytes
        rows.append(row)
    tracing.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv", spans)

    result = {}
    for name in rows[0]:
        values = [row[name] for row in rows]
        unit = next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")
        if unit == "count" and len(set(values)) > 1:
            print(f"warning: {name} differs between traced passes: {values}", file=sys.stderr)
        result[name] = {"value": statistics.median(values), "unit": unit}
    overhead = (
        statistics.median(runner.pass_seconds(traced=True))
        / statistics.median(runner.pass_seconds(traced=False))
        - 1.0
    )
    result["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
    return result


def check_self_times(spans: list, selfs: list, runner: Runner) -> None:
    """Within each operation the span self times must not exceed its wall time.

    Spans include the time of speed sampling, so the comparison is with the
    operation's wall time including it.
    """
    per_op: dict = {}
    for span, own in zip(spans, selfs):
        per_op[span.op] = per_op.get(span.op, 0.0) + own
    for op_id, total in per_op.items():
        if op_id < 0 or total > runner.op_wall[op_id] * (1 + 1e-9):
            raise AssertionError(f"span self times of op {op_id} exceed its wall time")


if __name__ == "__main__":
    sys.exit(main())
