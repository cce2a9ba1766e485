"""Olympus: system-level FPGA architecture generation (paper §V-C).

Composes the HLS kernel reports with the platform models to generate the
data-movement infrastructure around accelerators: PLM buffers, double
buffering, kernel replication over memory lanes and Iris-style data
packing (:func:`pack_stream`).  PLM sharing is the compiler's arena
plan: the scratch PLM is sized from ``KernelReport.planned_arena_bytes``.
:class:`OlympusGenerator` builds a system from one chosen
:class:`ArchConfig` per kernel; the only selection is the ``olympus``
pipeline stage's (``PipelineSession.olympus(...).best``).  The host side
of a generated system is the deployment sequence
:func:`lower_olympus_to_evp` emits.
"""

from repro.olympus.arch_gen import (
    ArchConfig,
    KernelInstance,
    LatencyBreakdown,
    OlympusGenerator,
    SystemArchitecture,
    lower_olympus_to_evp,
    pack_stream,
)

__all__ = [
    "ArchConfig",
    "KernelInstance",
    "LatencyBreakdown",
    "OlympusGenerator",
    "SystemArchitecture",
    "lower_olympus_to_evp",
    "pack_stream",
]
