"""CLAIM-DOSA: DNN inference distributed over network-attached FPGAs
(§V-C): partitioning a CNN across 1-4 cloudFPGA ranks scales throughput
until the 10 Gb/s links bind, and stays functionally exact."""

import numpy as np
import pytest

from repro.dosa import partition_model, simulate_pipeline
from repro.frontends.onnx_front import example_cnn

_MODEL = example_cnn()
_BATCH = [np.random.default_rng(i).normal(size=_MODEL.input_shape)
          for i in range(6)]
_REFERENCE = [_MODEL.forward(s) for s in _BATCH]


@pytest.mark.parametrize("ranks", [1, 2, 4])
def test_dosa_scaling(benchmark, ranks):
    plan = partition_model(_MODEL, ranks)
    result = benchmark(simulate_pipeline, plan, _BATCH)
    assert len(result["outputs"]) == len(_REFERENCE)
    for got, want in zip(result["outputs"], _REFERENCE):
        assert np.array_equal(got, want)
    assert result["messages"] == (ranks - 1) * len(_BATCH)
    assert result["bytes_on_wire"] == len(_BATCH) * sum(
        p.output_bytes for p in plan.partitions[:-1])
    print(f"\n  ranks={ranks} modelled_throughput="
          f"{plan.throughput_fps():8.0f} fps "
          f"wire={result['bytes_on_wire']}B "
          f"messages={result['messages']}")


def test_dosa_scaling_curve():
    """Shape check: adding ranks helps, then communication binds."""
    fps = {n: partition_model(_MODEL, n).throughput_fps()
           for n in (1, 2, 3, 4)}
    assert fps[2] >= fps[1] * 0.95
    best = max(fps.values())
    assert best == max(fps[1], fps[2], fps[3])  # comm-bound before 4
