"""One workload child process: set up, run one phase, print one JSON line.

Spawned by :mod:`bench.runner`, never run by hand.  Modes:

``warmup``  set up and exit: fills the page cache and ``__pycache__``;
``timed``   the end-to-end round: calibrated segments for ``--seconds``,
            nothing traced, nothing profiled;
``counted`` a fixed number of ops under a call-counting profile hook:
            exact ``py_calls_per_op``, and ``peak_rss_mb`` at equal work;
``traced``  blocks cycle through benchmark spans on / everything off /
            the program's own tracer on, so the layer split and both
            tracing overheads come from interleaved samples of one process.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict
from typing import Dict, List

from bench.estimator import (Segment, host_speed, normalise, quantile,
                             summarise, tail_percentile)
from bench.loadgen import (CallCounter, calibrate, cpu_seconds, measure,
                           peak_rss_mb)
from bench.spans import Recorder, write_chrome_trace

TRACE_MODES = ("spans", "plain", "telemetry")


def _timed(workload, seconds: float) -> Dict[str, object]:
    segments, failed = measure(workload, seconds)
    latencies = [s for segment in segments for s in segment.latencies_s]
    return {
        **asdict(summarise(segments, workload.NATIVE)),
        "latencies_ms": [1e3 * s for s in latencies],
        "wall_s": sum(segment.wall_s for segment in segments),
        "attempted": len(latencies), "failed": failed,
    }


def _counted(workload, counter: CallCounter) -> Dict[str, object]:
    calls = ops = failed = 0
    for _ in range(workload.COUNTED_BLOCKS):
        if workload.COUNT_MAIN_THREAD:
            counter.count_here()
        before = counter.total()
        block = workload.block(workload.COUNTED_BLOCK_OPS)
        if not workload.COUNT_MAIN_THREAD:
            # Handler threads finish their bookkeeping after the client
            # has its reply; let them reach the next blocking read.
            time.sleep(0.05)
        calls += counter.total() - before
        counter.stop_here()
        ops += len(block.latencies_s)
        failed += block.verify()
    return {"py_calls_per_op": calls / ops, "attempted": ops,
            "failed": failed}


def _traced(workload, recorder: Recorder, seconds: float,
            trace_path: str) -> Dict[str, object]:
    from repro import telemetry

    workload.instrument()
    program_spans = [0]

    @contextmanager
    def around(index: int):
        mode = TRACE_MODES[index % len(TRACE_MODES)]
        recorder.enabled = mode == "spans"
        tracer = telemetry.enable() if mode == "telemetry" else None
        try:
            yield
        finally:
            recorder.enabled = False
            if tracer is not None:
                telemetry.disable()
                program_spans[0] += len(tracer)

    segments, failed = measure(workload, seconds, around,
                               at_least=len(TRACE_MODES))
    by_mode: Dict[str, List[Segment]] = {mode: [] for mode in TRACE_MODES}
    for index, segment in enumerate(segments):
        by_mode[TRACE_MODES[index % len(TRACE_MODES)]].append(segment)
    summary = {mode: summarise(group, workload.NATIVE)
               for mode, group in by_mode.items()}
    plain = by_mode["plain"]
    raw_ms = [1e3 * s for segment in plain for s in segment.latencies_s]
    tail = tail_percentile(len(raw_ms))
    ops = sum(len(segment.latencies_s) for segment in segments)
    overall = summarise(segments, workload.NATIVE)
    diagnostics = {
        "loadgen.op_ms_p50_raw": summary["plain"].op_ms_raw,
        "loadgen.op_ms_tail_raw": quantile(raw_ms, tail / 100.0),
        "loadgen.tail_pct": tail,
        "loadgen.ops": ops,
        "loadgen.throughput_ops_s_raw":
            len(raw_ms) / sum(segment.wall_s for segment in plain),
        "loadgen.host_speed": overall.speed,
        "loadgen.cpu_share": sum(overall.shares),
        "loadgen.sys_share": overall.shares[1],
        # The mean op span: the ``*_ms`` layer metrics add up to it.
        "loadgen.traced_op_ms": 1e3 * recorder.per_op()[2]["op"],
        "loadgen.trace_overhead_share":
            summary["spans"].op_ms / summary["plain"].op_ms - 1.0,
        "telemetry.enabled_overhead_share":
            summary["telemetry"].op_ms / summary["plain"].op_ms - 1.0,
        "telemetry.spans_per_op": program_spans[0] / sum(
            len(s.latencies_s) for s in by_mode["telemetry"]),
    }
    layers = workload.layers()
    write_chrome_trace(trace_path, recorder.spans)
    return {"layers": layers, "diagnostics": diagnostics,
            "attempted": ops, "failed": failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", required=True,
                        choices=("warmup", "timed", "counted", "traced"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="time.time() in the parent at spawn")
    parser.add_argument("--trace-path", default="")
    args = parser.parse_args(argv)
    # Before the program is imported: set-up time is normalised with the
    # host speed at both of its ends (three calibrations each: one alone
    # may fall into a burst).  The counted child reports no time, and
    # skipping the calibration keeps its arrays out of peak_rss_mb.
    timing = args.mode in ("timed", "traced")
    calibrations = [calibrate() for _ in range(3)] if timing else []

    from bench.workloads import load

    workload = load(args.workload)
    recorder = Recorder()
    counter = None
    if args.mode == "counted":
        counter = CallCounter(workload.UNCOUNTED_THREADS)
        counter.install()
    workload.setup(args.seed, recorder)
    try:
        gc.collect()
        report: Dict[str, object] = {"attempted": 0, "failed": 0}
        if timing:
            wall = time.time() - args.started
            user, system = cpu_seconds()
            report["setup_raw_s"] = wall
            # Interpreter start and imports are most of every set-up.
            calibrations += [calibrate() for _ in range(3)]
            report["setup_s"] = normalise(
                wall, host_speed(calibrations, native=False),
                (user + system) / wall)
        if args.mode == "timed":
            report.update(_timed(workload, args.seconds))
        elif args.mode == "counted":
            report.update(_counted(workload, counter))
        elif args.mode == "traced":
            report.update(_traced(workload, recorder, args.seconds,
                                  args.trace_path))
        if args.mode != "warmup":
            checked, wrong = workload.finish()
            report["attempted"] += checked
            report["failed"] += wrong
        report["peak_rss_mb"] = peak_rss_mb()
    finally:
        workload.close()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
