"""Olympus: system-level FPGA architecture generation (paper §V-C).

Composes the HLS kernel reports with the platform models to generate the
data-movement infrastructure around accelerators: PLM buffers, double
buffering, kernel replication over memory lanes and Iris-style data
packing.  :class:`OlympusGenerator` builds a system from one chosen
:class:`ArchConfig` per kernel; the only selection is the ``olympus``
pipeline stage's (``PipelineSession.olympus(...).best``).  The host side
of a generated system is the deployment sequence
:func:`lower_olympus_to_evp` emits.  :func:`pack_fields` and
:func:`share_plm` are the record-packing and PLM-sharing models that no
compile applies yet.
"""

from repro.olympus.arch_gen import (
    ArchConfig,
    KernelInstance,
    LatencyBreakdown,
    OlympusGenerator,
    SystemArchitecture,
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
