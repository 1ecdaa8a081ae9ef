"""DRAM bank state machine with row-buffer timing and RMW locking.

Each bank tracks its open row and the earliest time it can accept the next
command, derived from tCL/tRCD/tRP/tRAS (Table IV). PIM read-modify-write
operations lock the bank for the whole RMW (Sec. II-B: "the corresponding
DRAM bank is locked during an RMW operation, so any other memory requests
to the same bank cannot be serviced").

Timing is simplified to a per-bank serial resource: a request arriving at
time ``t`` starts at ``max(t, bank_ready)`` and occupies the bank for the
access latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hmc.config import DramTiming

#: DRAM row (page) size used for row-buffer hit detection.
ROW_BYTES = 2048

#: Distributed-refresh parameters: one refresh command per tREFI, each
#: occupying the bank for tRFC. 8192 rows per 64 ms window → tREFI
#: 7.8 µs.
BASE_TREFI_NS = 64e6 / 8192
TRFC_NS = 350.0


@dataclass
class BankStats:
    reads: int = 0
    writes: int = 0
    pim_ops: int = 0
    row_hits: int = 0
    row_misses: int = 0
    busy_ns: float = 0.0
    refreshes: int = 0
    refresh_ns: float = 0.0


class DramBank:
    """One DRAM bank: open-row policy, serial occupancy, RMW locking."""

    def __init__(self, timing: DramTiming, bank_id: int = 0) -> None:
        self.timing = timing
        self.bank_id = bank_id
        self.open_row: Optional[int] = None
        self.ready_at = 0.0          # earliest start for the next command
        self._next_refresh_ns = BASE_TREFI_NS
        self.stats = BankStats()

    def _catch_up_refreshes(self, now: float) -> None:
        """Execute any refresh commands due before ``now`` (or pending at
        the bank's ready time) — each occupies the bank for tRFC and
        closes the open row."""
        # Long-idle fast path: refreshes during idle time don't delay
        # anything — account them in bulk and only loop near the horizon.
        idle_gap = now - max(self.ready_at, self._next_refresh_ns)
        if idle_gap > 100 * BASE_TREFI_NS:
            bulk = int(idle_gap // BASE_TREFI_NS) - 1
            self.stats.refreshes += bulk
            self.stats.refresh_ns += bulk * TRFC_NS
            self.stats.busy_ns += bulk * TRFC_NS
            self.open_row = None
            self._next_refresh_ns += bulk * BASE_TREFI_NS

        horizon = max(now, self.ready_at)
        while self._next_refresh_ns <= horizon:
            start = max(self._next_refresh_ns, self.ready_at)
            self.ready_at = start + TRFC_NS
            self.open_row = None
            self.stats.refreshes += 1
            self.stats.refresh_ns += TRFC_NS
            self.stats.busy_ns += TRFC_NS
            self._next_refresh_ns += BASE_TREFI_NS
            horizon = max(now, self.ready_at)

    def _row_of(self, address: int) -> int:
        return address // ROW_BYTES

    def _access_latency(self, address: int) -> float:
        """Column access latency given row-buffer state; updates open row."""
        row = self._row_of(address)
        t = self.timing
        if self.open_row is None:
            lat = t.read_closed_latency()
            self.stats.row_misses += 1
        elif self.open_row == row:
            lat = t.read_hit_latency()
            self.stats.row_hits += 1
        else:
            lat = t.read_miss_latency()
            self.stats.row_misses += 1
        self.open_row = row
        return lat

    def _occupy(self, start: float, duration: float) -> float:
        """Reserve the bank for [start, start+duration); return finish time."""
        finish = start + duration
        self.ready_at = finish
        self.stats.busy_ns += duration
        return finish

    def access_read(self, address: int, now: float) -> float:
        """Schedule a 64 B read; returns data-available time (ns)."""
        self._catch_up_refreshes(now)
        start = max(now, self.ready_at)
        lat = self._access_latency(address)
        self.stats.reads += 1
        return self._occupy(start, lat)

    def access_write(self, address: int, now: float) -> float:
        """Schedule a 64 B write; returns write-complete time (ns)."""
        self._catch_up_refreshes(now)
        start = max(now, self.ready_at)
        lat = self._access_latency(address)
        self.stats.writes += 1
        return self._occupy(start, lat)

    def access_pim_rmw(self, address: int, fu_latency_ns: float, now: float) -> float:
        """Schedule an atomic read-modify-write.

        The bank is locked for read + FU op + write back (two internal DRAM
        accesses per PIM instruction, Sec. III-C). Returns completion time.
        """
        if fu_latency_ns < 0:
            raise ValueError(f"negative FU latency: {fu_latency_ns}")
        self._catch_up_refreshes(now)
        start = max(now, self.ready_at)
        read_lat = self._access_latency(address)
        # Write-back hits the row the read just opened.
        write_lat = self.timing.read_hit_latency()
        self.stats.pim_ops += 1
        self.stats.row_hits += 1
        return self._occupy(start, read_lat + fu_latency_ns + write_lat)
