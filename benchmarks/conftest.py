"""Benchmark configuration: register dialects, share compiled artifacts,
and the one measure-and-record helper of the recording benchmarks.

``bench/`` (``python3 -m bench``) is the repository's benchmark; the
scripts here are differential and budget *checks* — an oracle agrees with
the production path and is slower by a stated factor.  The few that keep
numbers take them with :func:`measure` and write them with
:func:`record` to ``benchmarks/out/`` (git-ignored, like ``bench/out/``),
using the estimators and host block of ``bench/``.
"""

import json
import sys
import time
from pathlib import Path

import pytest

import repro.dialects  # noqa: F401 (registration side effect)

ROOT = Path(__file__).resolve().parent.parent
# ``bench`` (estimators, host block) and ``tools/oracles.py``.
sys.path[:0] = [str(ROOT), str(ROOT / "tools")]

from bench.estimator import quantile, spread  # noqa: E402
from bench.runner import host_metadata  # noqa: E402

OUT = ROOT / "benchmarks" / "out"


def measure(*fns, repeats=5, warmup=1, best_of=1):
    """Time each of ``fns``: ``warmup`` discarded rounds, then ``repeats``
    timed ones.

    A round calls every function in turn, so the sides of a comparison
    see the same stretches of a host whose speed comes and goes.  With
    ``best_of`` above 1 a sample is the fastest of that many back-to-back
    calls: a stall of the host lengthens single calls, and a gate that
    sits near the noise cannot tell that from a slower kernel.

    Returns one ``(stats, result)`` per function: the median, quartiles
    (nearest rank), (max - min) / median spread and the samples, in
    seconds, and what the last call returned.
    """
    samples = [[] for _ in fns]
    results = [None] * len(fns)
    for index in range(warmup + repeats):
        for side, fn in enumerate(fns):
            best = float("inf")
            for _ in range(best_of):
                start = time.perf_counter()
                results[side] = fn()
                best = min(best, time.perf_counter() - start)
            if index >= warmup:
                samples[side].append(best)
    return [({"runs": repeats, "best_of": best_of,
              "median_s": quantile(times, 0.5),
              "q1_s": quantile(times, 0.25),
              "q3_s": quantile(times, 0.75),
              "spread": spread(times),
              "samples_s": times}, result)
            for times, result in zip(samples, results)]


def record(file, section, payload):
    """Set ``section`` of ``benchmarks/out/<file>.json`` to ``payload``
    plus the host it was measured on; other sections are kept (they may
    come from another run, so each carries its own host block)."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{file}.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data[section] = {**payload, "host": host_metadata()}
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def rrtmg_affine():
    """The Fig. 3 kernel lowered to affine loops (shared across benches)."""
    from repro.frontends.ekl import FIG3_MAJOR_ABSORBER
    from repro.pipeline import PipelineSession

    result = PipelineSession().lower(FIG3_MAJOR_ABSORBER)
    return result.kernel, result.module


@pytest.fixture(scope="session")
def rrtmg_inputs():
    """Fig. 3 kernel inputs (single shared source with tests/conftest)."""
    from repro.apps.wrf.rrtmg import sample_inputs

    return sample_inputs()
