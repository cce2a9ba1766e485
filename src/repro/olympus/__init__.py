"""Olympus: system-level FPGA architecture generation (paper §V-C).

Composes the HLS kernel reports with the platform models to generate the
data-movement infrastructure around accelerators: PLM buffers (optionally
shared across stages), double buffering, kernel replication over memory
lanes and Iris-style data packing.  The host side of a generated system is
the deployment sequence :func:`lower_olympus_to_evp` emits.
"""

from repro.olympus.arch_gen import (
    ArchConfig,
    KernelInstance,
    LatencyBreakdown,
    OlympusGenerator,
    SystemArchitecture,
    lower_dfg_to_olympus,
    lower_olympus_to_evp,
)
from repro.olympus.packing import (
    Field,
    PackedWord,
    PackingPlan,
    pack_fields,
    pack_stream,
)
from repro.olympus.plm_sharing import (
    BufferRequest,
    PLMAllocation,
    peak_live_bytes,
    requests_from_arena,
    share_plm,
)

__all__ = [
    "ArchConfig",
    "KernelInstance",
    "LatencyBreakdown",
    "OlympusGenerator",
    "SystemArchitecture",
    "lower_dfg_to_olympus",
    "lower_olympus_to_evp",
    "Field",
    "PackedWord",
    "PackingPlan",
    "pack_fields",
    "pack_stream",
    "BufferRequest",
    "PLMAllocation",
    "peak_live_bytes",
    "requests_from_arena",
    "share_plm",
]
