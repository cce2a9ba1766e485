"""Exact counts: ``py_calls_per_op`` repeats across processes and seeds."""

import pytest

from bench import runner

#: Single-threaded ops repeat to the call.  Where threads hand work to
#: each other (HTTP handlers, the engine's task pool) a race decides a
#: few code paths — whether ``Future.result()`` finds its task done —
#: and the count moves by up to ~0.2 %; the metric's bound is 1 %.
TOLERANCE = {"compile_cold": 1e-4, "exec_stream": 1e-4,
             "serve_hot": 3e-3, "engine_plan": 5e-3}


@pytest.mark.parametrize("workload", sorted(TOLERANCE))
def test_py_calls_per_op_repeats_across_processes_and_seeds(workload):
    first = runner.spawn(workload, "counted", 1, 0.0)
    second = runner.spawn(workload, "counted", 2, 0.0)
    assert first["failed"] == second["failed"] == 0
    a, b = first["py_calls_per_op"], second["py_calls_per_op"]
    assert abs(a - b) / min(a, b) <= TOLERANCE[workload]
