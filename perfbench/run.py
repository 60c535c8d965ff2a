#!/usr/bin/env python3
"""Benchmark for the elas library: one workload per run, or all four.

    python3 perfbench/run.py --workload exhaust --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seconds 10      # every workload, one after another

A run imports the library from the ``src`` directory next to this
directory, builds its inputs from --seed, then executes whole rounds of
ops in one closed loop (one caller, no worker processes) until another
round would end after --seconds.  Every op's output is checked against
the benchmark's own reference computations (``oracle.py``).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer ones, taken
from spans recorded around every library call in every other round, and
the spans are written to perfbench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import tracing
from oracle import CheckError
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MODULES = ("syntax", "semantics", "randgen", "modelsearch", "translation",
           "proofkit", "suites")
SETUP_REPEATS = 9


def import_elas() -> dict:
    """A fresh import of the library's modules from SRC."""
    for name in [m for m in sys.modules if m == "elas" or m.startswith("elas.")]:
        del sys.modules[name]
    modules = {m: importlib.import_module(f"elas.{m}") for m in MODULES}
    origin = Path(modules["syntax"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"error: elas was imported from {origin}, not from {SRC}")
    return modules


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density, so that it
    moves smoothly when values near the quantile trade places."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    total = weighted = 0.0
    for i, x in enumerate(xs):
        w = 0.0
        for k in range(8):
            u = (i + (k + 0.5) / 8) / n
            w += math.exp((a - 1) * math.log(u) + (b - 1) * math.log1p(-u) - log_norm)
        total += w
        weighted += w * x
    return weighted / total


class SpeedScale:
    """Times scaled to a reference CPU speed.

    The CPU this benchmark was built on changes speed by up to 2x within a
    minute (a fixed kernel took 2.0 to 5.1 ms over one 25 s run), and raw
    times inherit that.  So a run times an allocation-free kernel, which
    does not touch the library, every CALIBRATE_NS, and each measured time
    is multiplied by REFERENCE_KERNEL_NS over the kernel time around it.
    A change to the library cannot move the kernel, so it shows in full.
    """

    CALIBRATE_NS = 250_000_000
    REFERENCE_KERNEL_NS = 1_000_000
    _TABLE = {i: i % 251 for i in range(512)}
    _KEYS = list(range(512)) * 32

    def __init__(self):
        self.at = array("q")        # perf_counter_ns of each calibration
        self.kernel = array("q")    # best kernel time there

    def _kernel_ns(self) -> int:
        table, acc = self._TABLE, 0
        start = time.perf_counter_ns()
        for key in self._KEYS:
            acc ^= table[key]
        return time.perf_counter_ns() - start

    def calibrate(self) -> None:
        self.kernel.append(min(self._kernel_ns() for _ in range(3)))
        self.at.append(time.perf_counter_ns())

    def due(self, now_ns: int) -> bool:
        return not self.at or now_ns - self.at[-1] >= self.CALIBRATE_NS

    def scale(self, start_ns: int, ns: int) -> float:
        """ns measured from start_ns, at reference speed: the kernel times
        of the calibrations just before and just after start_ns are
        averaged."""
        i = bisect.bisect_right(self.at, start_ns)
        near = self.kernel[max(i - 1, 0):i + 1]
        return ns * self.REFERENCE_KERNEL_NS * len(near) / sum(near)


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    speed = SpeedScale()
    spans = tracing.Spans() if trace else None
    setup_times = []
    for repeat in range(SETUP_REPEATS):
        speed.calibrate()
        started = time.perf_counter_ns()
        modules = import_elas()
        layers = tracing.Layers(modules, spans if trace and repeat == SETUP_REPEATS - 1 else None)
        state = workload.setup(modules, layers, seed)
        setup_times.append((started, time.perf_counter_ns() - started))
    speed.calibrate()

    plain_layers = tracing.Layers(modules)
    traced_layers = tracing.Layers(modules, spans) if trace else None
    rng = random.Random(seed)
    attempted = failed = unexpected = 0
    errors = []                 # the first few unexpected failures
    # One entry per op: start, duration, round, whether it did not fail.
    starts, durations, round_of, ok = array("q"), array("q"), array("l"), array("b")
    slots = []                  # per-slot workloads: each op's slot
    counters = {}               # op id -> counts, traced rounds only
    rounds = 0
    loop_start = time.perf_counter()
    while True:
        in_trace = trace and rounds % 2 == 0
        layers = traced_layers if in_trace else plain_layers
        for op in workload.round(state, layers, rng):
            op_id = len(starts)
            attempted += 1
            if speed.due(time.perf_counter_ns()):
                speed.calibrate()
            if in_trace:
                spans.op = op_id
            start = time.perf_counter_ns()
            try:
                result = op.run()
                error = None
            except Exception as exc:                # reported below, never hidden
                error = exc
            end = time.perf_counter_ns()
            if in_trace:
                spans.records.append((tracing.OP, start, end, op_id))
                spans.op = None
            if error is None:
                try:
                    counts = op.check(result)
                except CheckError as exc:
                    error = exc
            starts.append(start)
            durations.append(end - start)
            round_of.append(rounds)
            ok.append(error is None)
            if workload.per_slot:
                slots.append(op.slot)
            if error is not None:
                failed += 1
                if not op.kept_fault:
                    unexpected += 1
                    if len(errors) < 10:
                        errors.append(f"{op.slot}: {type(error).__name__}: {error}")
            elif in_trace:
                counters[op_id] = counts
        rounds += 1
        elapsed = time.perf_counter() - loop_start
        if elapsed + elapsed / rounds > seconds:
            break
    speed.calibrate()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    final_check = getattr(workload, "final_check", None)
    if final_check is not None:
        try:
            final_check(state)
        except CheckError as exc:
            unexpected += 1
            errors.append(f"final check: {exc}")

    scaled = [speed.scale(t, ns) for t, ns in zip(starts, durations)]
    if trace:
        tracing.write_spans(spans, HERE / "out" / f"{workload.name}-seed{seed}.spans.jsonl")
        traced_rounds = (rounds + 1) // 2
        metrics = tracing.layer_metrics(spans, counters, traced_rounds)
        busy, count = [0.0, 0.0], [0, 0]
        for r, ns in zip(round_of, scaled):
            busy[r % 2 == 0] += ns
            count[r % 2 == 0] += 1
        overhead = (busy[1] / count[1]) / (busy[0] / count[0]) * 100 - 100 if count[0] else 0.0
        metrics["bench.trace_overhead_pct"] = (overhead, "%")
        metrics["bench.traced_rounds"] = (traced_rounds, "count")
    else:
        # Medians at the finest grain that repeats: each catalogue entry's
        # time across rounds, or each round's rate when no op repeats.
        if workload.per_slot:
            by_slot = {}
            for slot, good, ns in zip(slots, ok, scaled):
                if good:
                    by_slot.setdefault(slot, []).append(ns / 1e6)
            times = [statistics.median(ms) for ms in by_slot.values()]
            rate = len(times) / (sum(times) / 1e3)
        else:
            times = [ns / 1e6 for good, ns in zip(ok, scaled) if good]
            done, busy = [0] * rounds, [0.0] * rounds
            for r, good, ns in zip(round_of, ok, scaled):
                done[r] += good
                busy[r] += ns
            rate = statistics.median(d / b * 1e9 for d, b in zip(done, busy))
        metrics = {
            "ops_per_s": (rate, "1/s"),
            "op_ms.p50": (quantile(times, 0.5), "ms"),
            "op_ms.p90": (quantile(times, 0.9), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(speed.scale(t, ns) for t, ns in setup_times) / 1e9, "s"),
        }
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    if unexpected > len(errors):
        print(f"check failed: {unexpected - len(errors)} more", file=sys.stderr)
    return {"correct": not unexpected, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        status = status or child.returncode
        lines = child.stdout.strip().splitlines()
        if child.returncode or not lines:
            print(f"{name}: exited with {child.returncode}")
            continue
        print(f"{name}: {lines[-1]}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "elas" / "__init__.py").is_file():
        print(f"error: no elas sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(f"{args.workload} seed {args.seed}: attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
