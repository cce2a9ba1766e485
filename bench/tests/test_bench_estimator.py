"""The estimator's rules, on synthetic samples."""

import json

import pytest

from bench.estimator import (CAL_REF_MS, Segment, host_speed, mix_latency,
                             normalise, quantile,
                             self_time_by_name, self_times, spread,
                             summarise, tail_percentile)
from bench.spans import Recorder, write_chrome_trace

REF = tuple(ms / 1e3 for ms in CAL_REF_MS)


def _times(factor):
    """A calibration on a host ``factor`` times slower than reference."""
    return (factor * REF[0], factor * REF[1])


def _segment(latency_s, calibration, cpu_s, wall_s, count=5, kind=0):
    return Segment([latency_s] * count, [kind] * count, calibration,
                   calibration, cpu_s, wall_s)


@pytest.mark.parametrize("samples,expected", [
    (5, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10_000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(samples, expected):
    assert tail_percentile(samples) == expected


def test_quantile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert quantile(values, 0.5) == 3.0
    assert quantile(values, 0.25) == 2.0
    assert quantile(values, 0.0) == 1.0
    assert quantile(values, 1.0) == 5.0
    with pytest.raises(ValueError):
        quantile([], 0.5)


def test_cpu_bound_ops_are_rescaled_to_reference_speed():
    # The host runs at half speed: calibration and ops both take twice
    # as long, and the op is reported at its reference-speed cost.
    slow = summarise([_segment(0.020, _times(2), (0.1, 0.0), 0.1)] * 4,
                     native=False)
    fast = summarise([_segment(0.010, _times(1), (0.05, 0.0), 0.05)] * 4,
                     native=False)
    assert slow.speed == pytest.approx(0.5)
    assert slow.shares == pytest.approx((1.0, 0.0))
    assert slow.op_ms == pytest.approx(fast.op_ms) == pytest.approx(10.0)
    assert slow.op_ms_raw == pytest.approx(20.0)


def test_timer_bound_ops_are_left_as_wall_time():
    # 44 ms of waiting on a timer does not shrink on a faster host.
    for factor in (0.5, 1.0, 2.0):
        summary = summarise([_segment(0.044, _times(factor), (0.0, 0.0),
                                      0.53, count=24)] * 3, native=False)
        assert summary.op_ms == pytest.approx(44.0)


def test_a_workload_is_rescaled_by_the_work_that_resembles_its_own():
    # Native loops run three times slower than the reference, the
    # interpreter at the reference.
    calibration = (REF[0], 3 * REF[1])
    segment = Segment([0.030] * 5, [0] * 5, calibration, calibration,
                      (0.09, 0.01), 0.1)
    assert summarise([segment] * 3, native=True).op_ms \
        == pytest.approx(10.0)
    assert summarise([segment] * 3, native=False).op_ms \
        == pytest.approx(30.0)
    # User and kernel time count as busy; the rest is left as wall time.
    assert normalise(1.0, 0.5, 0.6) == pytest.approx(0.6 * 0.5 + 0.4)
    # More CPU time than wall time (two busy threads): no waiting share.
    assert normalise(1.0, 0.5, 2.0) == pytest.approx(0.5)


def test_host_speed_is_the_median_calibration_so_a_burst_is_ignored():
    burst = (9 * REF[0], 9 * REF[1])
    for native in (False, True):
        assert host_speed([REF, REF, burst, REF, REF], native) \
            == pytest.approx(1.0)
    quiet = _segment(0.010, REF, (0.05, 0.0), 0.05)
    hit = Segment([0.010] * 5, [0] * 5, burst, REF, (0.05, 0.0), 0.05)
    assert summarise([quiet, hit, quiet, quiet], native=False).op_ms \
        == pytest.approx(10.0)


def test_mix_latency_is_not_moved_by_which_kinds_were_sampled_more():
    # Kind 0 costs 10 ms, kind 1 costs 30 ms; one burst on each.
    latencies = [0.010, 0.010, 0.050, 0.030, 0.030, 0.090]
    kinds = [0, 0, 0, 1, 1, 1]
    assert mix_latency(latencies, kinds) == pytest.approx(0.020)
    # The plain median of the same samples sits between two kinds.
    assert mix_latency(latencies, [7] * 6) == pytest.approx(0.030)
    # Weights follow how often each kind ran.
    assert mix_latency([0.010, 0.030, 0.030, 0.030], [0, 1, 1, 1]) \
        == pytest.approx(0.025)


def test_spreads():
    assert spread([9.0, 10.0, 12.0]) == pytest.approx(0.3)


def test_self_time_is_span_minus_what_children_cover():
    rows = [
        (1, 0, "op", 0.0, 10.0),
        (2, 1, "stage", 1.0, 6.0),
        (3, 2, "layer", 2.0, 4.0),
        (4, 2, "layer", 3.0, 5.0),      # overlaps its sibling
        (5, 1, "stage", 7.0, 12.0),     # sticks out of its parent
    ]
    own = self_times(rows)
    assert own[1] == pytest.approx(10.0 - 5.0 - 3.0)
    assert own[2] == pytest.approx(5.0 - 3.0)   # union of [2,4] and [3,5]
    assert own[3] == pytest.approx(2.0)
    by_name = self_time_by_name(rows)
    assert by_name["layer"] == pytest.approx(4.0)
    assert by_name["stage"] == pytest.approx(2.0 + 5.0)


def test_recorder_links_spans_and_writes_a_loadable_trace(tmp_path):
    recorder = Recorder()
    with recorder.span("op") as ignored:
        assert ignored is None and not recorder.spans  # disabled: no cost
    recorder.enabled = True
    with recorder.span("op") as root:
        with recorder.span("stage"):
            with recorder.span("layer"):
                pass
        with recorder.span("remote", parent=root.id) as remote:
            pass
    recorder.enabled = False
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["stage"].parent == root.id
    assert by_name["layer"].parent == by_name["stage"].id
    assert {span.op for span in recorder.spans} == {root.id}
    assert remote.parent == root.id
    ops, own, inclusive = recorder.per_op()
    assert ops == 1
    assert sum(own.values()) == pytest.approx(inclusive["op"])

    path = tmp_path / "trace.json"
    write_chrome_trace(str(path), recorder.spans)
    events = json.loads(path.read_text())["traceEvents"]
    complete = [event for event in events if event["ph"] == "X"]
    assert {event["name"] for event in complete} \
        == {"op", "stage", "layer", "remote"}
    assert all(event["dur"] >= 0 and event["ts"] >= 0 for event in complete)


def test_patch_wraps_and_restores():
    class Layer:
        @staticmethod
        def work(x):
            return x + 1

    recorder = Recorder()
    original = Layer.work
    recorder.patch(Layer, "work", "layer.work",
                   lambda span, args, result: span.args.update(out=result))
    assert Layer.work(1) == 2 and not recorder.spans
    recorder.enabled = True
    assert Layer.work(2) == 3
    assert recorder.spans[0].name == "layer.work"
    assert recorder.spans[0].args == {"out": 3}
    recorder.restore()
    assert Layer.work is original
