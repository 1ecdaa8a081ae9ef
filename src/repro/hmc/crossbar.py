"""Crossbar switch between links and vault controllers.

The HMC crossbar connects all vault controllers and external I/O links
(Sec. II-A). Beyond a fixed traversal latency, each vault-side output
port is a serial resource: packets to the same vault serialize at the
port's FLIT bandwidth, so a burst aimed at one vault backs up at the
switch even when the links and other vaults are idle. Port bandwidth is
provisioned well above a single link's share (the internal TSV bus is
wide), so the crossbar only matters under heavy single-vault skew.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.hmc.packet import FLIT_BYTES


@dataclass
class Crossbar:
    """Switch with fixed traversal latency + per-vault port serialization.

    Parameters
    ----------
    traversal_ns:
        Pipeline latency through the switch fabric.
    port_bandwidth_gbs:
        Per-vault-port FLIT bandwidth (GB/s). The default (32 GB/s per
        vault × 32 vaults = 1 TB/s aggregate) keeps the switch
        non-blocking for balanced traffic, matching the paper's implicit
        assumption that links and banks are the bottlenecks.
    """

    traversal_ns: float = 1.5
    port_bandwidth_gbs: float = 32.0
    _port_ready: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.traversal_ns < 0:
            raise ValueError(f"negative traversal latency: {self.traversal_ns}")
        if self.port_bandwidth_gbs <= 0:
            raise ValueError(
                f"port bandwidth must be positive: {self.port_bandwidth_gbs}"
            )

    def forward(self, now: float) -> float:
        """Latency-only traversal (used for responses heading back to the
        link side, which the links themselves serialize)."""
        return now + self.traversal_ns

    def forward_to_vault(self, vault_id: int, flits: int, now: float) -> float:
        """Traverse toward a vault, serializing on its ingress port.

        Returns the time the packet has fully arrived at the vault.
        """
        if flits <= 0:
            raise ValueError(f"packet must carry at least one FLIT: {flits}")
        ready = self._port_ready.get(vault_id, 0.0)
        start = max(now + self.traversal_ns, ready)
        duration = flits * FLIT_BYTES / self.port_bandwidth_gbs
        finish = start + duration
        self._port_ready[vault_id] = finish
        return finish
