"""The four workloads, by name.

Each module defines a ``Workload`` (a :class:`Base`) with the same small
surface, used by :mod:`bench.child`:

``setup(seed, recorder)``
    everything before the first timed op (inputs, priming, ``cc`` build,
    server boot);
``block(ops=None)``
    run about 100 ms of ops — or exactly ``ops`` — and return a
    :class:`~bench.loadgen.Block`;
``finish()``
    correctness checks too slow to run per op; returns failed checks;
``instrument()`` / ``layers()``
    traced child only: install spans, then reduce them (and a few direct
    probes) to this workload's per-layer metrics;
``close()``
    stop threads and servers.

``COUNTED_BLOCKS`` blocks of ``COUNTED_BLOCK_OPS`` ops are the fixed work
of the counted child; ``COUNT_MAIN_THREAD`` / ``UNCOUNTED_THREADS`` say
whose calls it counts.
"""

from __future__ import annotations

import importlib
from typing import Dict, Tuple

NAMES = ("compile_cold", "exec_stream", "serve_hot", "engine_plan")


class Base:
    """Defaults for the parts of the surface a workload may not need."""

    name = ""
    #: Whether an op spends its time in compiled loops over arrays, not in
    #: the interpreter: picks the calibration part it is rescaled by.
    NATIVE = False
    COUNT_MAIN_THREAD = True
    UNCOUNTED_THREADS: Tuple[str, ...] = ()

    def instrument(self) -> None:
        """Install spans; the default is for ops that open their own."""

    def finish(self) -> Tuple[int, int]:
        """``(checks made, checks failed)`` after the last op."""
        return 0, 0

    def layers(self) -> Dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        self.recorder.restore()


def load(name: str):
    """Import and instantiate workload ``name`` (imports the program)."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; one of {NAMES}")
    return importlib.import_module(f"bench.workloads.{name}").Workload()
