"""The parent process: spawns workload children and reduces their reports.

Every number comes from a fresh child process (``bench.child``) under a
pinned environment.  An end-to-end run of a workload is a discarded warm-up
child, :data:`ROUNDS` timed children and one counted child; a traced run is
one traced child per workload, because the per-layer table always covers
all layers and each layer is measured on the workload that exercises it.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence

from bench.estimator import (CAL_REF_MS, quantile, spread, tail_percentile)
from bench.workloads import NAMES

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

#: Timed children per end-to-end run; a metric is the median over them.
ROUNDS = 5

#: A child that takes longer than this is a failure, not a slow sample.
CHILD_TIMEOUT_S = 150


#: glibc's allocator with its thresholds fixed: large blocks come from the
#: heap and the heap is never given back.  By default the thresholds move
#: with the sizes a process has freed so far, and whether ``exec_stream``'s
#: 9.6 MB buffers are mapped and page-faulted anew on every call (20 ms an
#: op, two thirds of it in the kernel), reused (7.5 ms) or some of each
#: (14 ms) depends on that history.
PINNED_MALLOC = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
    "MALLOC_TOP_PAD_": str(128 << 20),
}


class ChildFailed(RuntimeError):
    """A workload child exited non-zero or printed no report."""


def manifest() -> dict:
    """``BENCHMARK.json``: the one place metric names, units and bounds
    are written down."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def host_metadata() -> Dict[str, object]:
    import numpy

    cc = shutil.which("cc")
    cc_version = subprocess.run(
        [cc, "--version"], capture_output=True, text=True
    ).stdout.splitlines()[0] if cc else "none"
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "cc": cc_version,
            "kernel": platform.release(), "cal_ref_ms": CAL_REF_MS,
            "rounds": ROUNDS}


def spawn(workload: str, mode: str, seed: int, seconds: float) -> dict:
    """Run one child to completion and return its report."""
    OUT.mkdir(exist_ok=True)
    # An empty C-backend cache per child: otherwise the first child pays
    # the ``cc`` build and later ones load it from disk.
    cache = tempfile.mkdtemp(prefix="cc-", dir=OUT)
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
            + [p for p in [os.environ.get("PYTHONPATH")] if p]),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "REPRO_JOBS": str(os.cpu_count() or 1),
        "REPRO_CBACKEND_CACHE": cache,
        **PINNED_MALLOC,
    })
    command = [sys.executable, "-m", "bench.child", "--workload", workload,
               "--mode", mode, "--seed", str(seed),
               "--seconds", repr(seconds), "--started", repr(time.time()),
               "--trace-path", str(OUT / f"trace-{workload}.json")]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        raise ChildFailed(f"{workload}/{mode}: no report within "
                          f"{CHILD_TIMEOUT_S}s") from error
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"{workload}/{mode} exited {done.returncode}:\n"
                          + done.stderr[-2000:])
    return json.loads(lines[-1])


def run_end_to_end(workloads: Sequence[str], seed: int,
                   seconds: float) -> Dict[str, dict]:
    """End-to-end metrics of ``workloads``; see the module docstring.

    Rounds are interleaved round-robin, the order reversed on odd rounds,
    so that a slow minute of the host hits every workload, not one.
    """
    for workload in workloads:
        spawn(workload, "warmup", seed, 0.0)
    rounds: Dict[str, List[dict]] = {workload: [] for workload in workloads}
    for index in range(ROUNDS):
        order = list(workloads)[::-1] if index % 2 else list(workloads)
        for workload in order:
            rounds[workload].append(spawn(
                workload, "timed", seed * ROUNDS + index, seconds / ROUNDS))
    results = {}
    for workload in workloads:
        counted = spawn(workload, "counted", seed, 0.0)
        timed = rounds[workload]
        raw_ms = [ms for child in timed for ms in child["latencies_ms"]]
        tail = tail_percentile(len(raw_ms))
        children = timed + [counted]
        results[workload] = {
            "metrics": {
                "op_ms_p50": statistics.median(c["op_ms"] for c in timed),
                "py_calls_per_op": counted["py_calls_per_op"],
                "peak_rss_mb": counted["peak_rss_mb"],
                "setup_s": statistics.median(c["setup_s"] for c in timed),
            },
            "attempted": sum(c["attempted"] for c in children),
            "failed": sum(c["failed"] for c in children),
            "diagnostics": {
                "loadgen.round_spread": spread([c["op_ms"] for c in timed]),
                "loadgen.op_ms_p50_raw":
                    statistics.median(c["op_ms_raw"] for c in timed),
                "loadgen.op_ms_tail_raw": quantile(raw_ms, tail / 100.0),
                "loadgen.tail_pct": tail,
                "loadgen.ops": len(raw_ms),
                "loadgen.throughput_ops_s_raw":
                    len(raw_ms) / sum(c["wall_s"] for c in timed),
                "loadgen.host_speed":
                    statistics.mean(c["speed"] for c in timed),
                "loadgen.cpu_share":
                    statistics.mean(sum(c["shares"]) for c in timed),
                "loadgen.sys_share":
                    statistics.mean(c["shares"][1] for c in timed),
                "loadgen.setup_raw_s":
                    statistics.median(c["setup_raw_s"] for c in timed),
                "loadgen.timed_peak_rss_mb":
                    statistics.median(c["peak_rss_mb"] for c in timed),
            },
            "rounds": timed,
        }
    return results


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    """Every per-layer metric, plus the diagnostics of ``workload``."""
    metrics: Dict[str, float] = {}
    attempted = failed = 0
    for name in NAMES:
        child = spawn(name, "traced", seed, seconds / ROUNDS)
        metrics.update(child["layers"])
        if name == workload:
            metrics.update(child["diagnostics"])
        attempted += child["attempted"]
        failed += child["failed"]
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "diagnostics": {}, "rounds": []}


def write_result(workload: str, seed: int, trace: int, result: dict) -> Path:
    """The one writer of result files (``bench/out``, never the root)."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    with open(path, "w") as handle:
        json.dump({"workload": workload, "seed": seed, "trace": trace,
                   "host": host_metadata(), **result}, handle, indent=2)
    return path
