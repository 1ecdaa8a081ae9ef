"""Serialized off-chip links with FLIT-level bandwidth accounting.

Each HMC link is full duplex: 16 input + 16 output lanes (Sec. II-A). The
model treats each direction as a serial resource: a packet of N FLITs
occupies the lane for N × flit_time. Requests are striped across links
round-robin, approximating the crossbar's link-level load balancing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hmc.packet import FLIT_BYTES, FlitLedger, PacketType, flit_cost


@dataclass
class LinkStats:
    request_busy_ns: float = 0.0
    response_busy_ns: float = 0.0


class SerialLink:
    """One full-duplex link: independent request/response serial lanes."""

    def __init__(self, link_id: int, bandwidth_gbs: float) -> None:
        if bandwidth_gbs <= 0:
            raise ValueError(f"link bandwidth must be positive: {bandwidth_gbs}")
        self.link_id = link_id
        # Bandwidth per direction; a "120 GB/s" HMC link is 60 GB/s each way.
        self.direction_bandwidth_gbs = bandwidth_gbs / 2.0
        self.flit_time_ns = FLIT_BYTES / self.direction_bandwidth_gbs
        self.req_ready_at = 0.0
        self.rsp_ready_at = 0.0
        self.ledger = FlitLedger()
        self.stats = LinkStats()

    def send_request(self, ptype: PacketType, now: float) -> float:
        """Serialize a request packet; returns arrival time at the cube."""
        flits = flit_cost(ptype)[0]
        start = max(now, self.req_ready_at)
        dur = flits * self.flit_time_ns
        self.req_ready_at = start + dur
        self.stats.request_busy_ns += dur
        self.ledger.record(ptype)
        return start + dur

    def send_response(self, ptype: PacketType, now: float) -> float:
        """Serialize a response packet; returns arrival time at the host.

        The ledger already counted both directions in :meth:`send_request`,
        so only timing is updated here.
        """
        flits = flit_cost(ptype)[1]
        start = max(now, self.rsp_ready_at)
        dur = flits * self.flit_time_ns
        self.rsp_ready_at = start + dur
        self.stats.response_busy_ns += dur
        return start + dur

    def utilization(self, elapsed_ns: float) -> float:
        """Mean of the two directions' busy fractions."""
        if elapsed_ns <= 0:
            return 0.0
        req = min(1.0, self.stats.request_busy_ns / elapsed_ns)
        rsp = min(1.0, self.stats.response_busy_ns / elapsed_ns)
        return (req + rsp) / 2.0


class LinkGroup:
    """All links of a package with round-robin request striping."""

    def __init__(self, num_links: int, bandwidth_gbs_per_link: float) -> None:
        if num_links <= 0:
            raise ValueError(f"need at least one link, got {num_links}")
        self.links = [SerialLink(i, bandwidth_gbs_per_link) for i in range(num_links)]
        self._next = 0

    def pick(self) -> SerialLink:
        """Next link in round-robin order."""
        link = self.links[self._next]
        self._next = (self._next + 1) % len(self.links)
        return link

    def total_flits(self) -> int:
        return sum(l.ledger.total_flits for l in self.links)

    def merged_ledger(self) -> FlitLedger:
        out = FlitLedger()
        for l in self.links:
            out.merge(l.ledger)
        return out
