"""Network model: the link timing of the data-center and cloudFPGA fabrics.

IBM cloudFPGA nodes hang directly off a TCP/UDP network (paper §III); DOSA
partitions DNNs across them and inserts "hardware-agnostic synchronous
communication routines" — ZRLMPI (Ringlein et al., FCCM 2020).  This module
provides the link-timing model that :class:`repro.runtime.Cluster` prices
transfers with and :mod:`repro.dosa` prices partition hand-offs with.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlatformError


@dataclass
class LinkModel:
    """Point-to-point link timing."""

    bandwidth_gbps: float = 10.0
    latency_us: float = 5.0
    mtu_bytes: int = 1500
    per_packet_overhead_bytes: int = 66  # Ethernet + IP + UDP headers

    def message_seconds(self, payload_bytes: int) -> float:
        """Wire time of one message including per-packet overheads."""
        if payload_bytes < 0:
            raise PlatformError("negative message size")
        packets = max(1, -(-payload_bytes // self.mtu_bytes))
        wire_bytes = payload_bytes + packets * self.per_packet_overhead_bytes
        return self.latency_us * 1e-6 + wire_bytes / (
            self.bandwidth_gbps / 8 * 1e9
        )
