"""Event-level HMC cube simulator.

Assembles links → crossbar → vault controllers → banks/FUs into a single
device with a transaction-level API:

    cube = HmcCube(HMC_2_0)
    rsp = cube.submit(Request(PacketType.READ64, address=0x1000), now=0.0)

Each :meth:`submit` returns the completed :class:`Response` with its
end-to-end latency; internally the request is serialized on a link,
traverses the crossbar, occupies a DRAM bank (locking it for RMWs), and the
response serializes back. A thermal-warning flag, set by the thermal sensor
via :meth:`set_thermal_warning`, is stamped into every response's ERRSTAT
field (Sec. II-A: ERRSTAT[6:0] = 0x01).

This model is used for protocol/micro-level validation, the bank-level
benchmarks and the transaction-level co-simulation
(:mod:`repro.gpu.detailed`); the full-system co-simulation uses the flow
model (:mod:`repro.hmc.flow`) for speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.hmc.config import HMC_2_0, HmcConfig
from repro.hmc.crossbar import Crossbar
from repro.hmc.link import LinkGroup
from repro.hmc.memory import BackingStore
from repro.hmc.packet import (
    ERRSTAT_OK,
    ERRSTAT_THERMAL_WARNING,
    PacketType,
    Request,
    Response,
)
from repro.hmc.vault import AddressMap, VaultController


@dataclass
class CubeStats:
    transactions: int = 0
    pim_ops: int = 0
    thermal_warnings_sent: int = 0


class HmcCube:
    """Transaction-level HMC device model."""

    def __init__(
        self,
        config: HmcConfig = HMC_2_0,
        fu_energy_per_bit_j: float = 6.0e-12,
    ) -> None:
        self.config = config
        self.store = BackingStore(config.capacity_bytes)
        self.addr_map = AddressMap(config)
        self.vaults: List[VaultController] = [
            VaultController(v, config, self.store, fu_energy_per_bit_j)
            for v in range(config.num_vaults)
        ]
        self.links = LinkGroup(config.num_links, config.link_bandwidth_gbs)
        self.crossbar = Crossbar()
        self.stats = CubeStats()
        self._thermal_warning = False
        self._shutdown = False
        self._next_tag = 0

    # -- thermal / management ------------------------------------------------

    def set_thermal_warning(self, active: bool) -> None:
        """Raise/clear the thermal warning carried in response ERRSTAT."""
        self._thermal_warning = active

    @property
    def thermal_warning(self) -> bool:
        return self._thermal_warning

    def shutdown(self) -> None:
        """Conservative overheat policy observed on the HMC 1.1 prototype:
        stop completely; contents are lost."""
        self._shutdown = True
        self.store = BackingStore(self.config.capacity_bytes)
        for vault in self.vaults:
            vault.store = self.store

    def recover(self) -> None:
        """Re-enable after cooling (recovery takes tens of seconds of wall
        time on the prototype; the caller accounts that delay)."""
        self._shutdown = False

    @property
    def is_shutdown(self) -> bool:
        return self._shutdown

    def set_frequency_scale(self, scale: float) -> None:
        """Temperature-phase DRAM derating across all vaults."""
        for vault in self.vaults:
            vault.set_frequency_scale(scale)

    def set_refresh_multiplier(self, multiplier: int) -> None:
        """Hot-phase refresh doubling across all vaults (JEDEC extended
        temperature range)."""
        for vault in self.vaults:
            vault.set_refresh_multiplier(multiplier)

    def apply_temperature_phase(self, phase) -> None:
        """Configure frequency and refresh for a temperature phase."""
        from repro.hmc.dram_timing import TemperaturePhase, TemperaturePhasePolicy

        policy = TemperaturePhasePolicy()
        scale = policy.frequency_scale(phase)
        if scale == 0.0:
            self.shutdown()
            return
        self.set_frequency_scale(scale)
        self.set_refresh_multiplier(2 ** int(phase))

    # -- functional access (no timing) ----------------------------------------

    def mem_write(self, address: int, data: bytes) -> None:
        """Functional backdoor write (test setup / host stores payloads)."""
        self.store.write(address, data)

    def mem_read(self, address: int, length: int) -> bytes:
        """Functional backdoor read."""
        return self.store.read(address, length)

    # -- transaction API -------------------------------------------------------

    def allocate_tag(self) -> int:
        """Next device tag; :meth:`submit` stamps these into requests and
        responses in submission order, so every transaction in a cube's
        lifetime carries a unique tag."""
        tag = self._next_tag
        self._next_tag += 1
        return tag

    def submit(self, req: Request, now: float, payload: Optional[bytes] = None) -> Response:
        """Run one transaction to completion; returns the response.

        ``payload`` supplies write data for WRITE64 requests (64 bytes).
        The request's ``tag`` is overwritten with a device-allocated tag
        (monotonic over the cube's lifetime) and echoed in the response.
        """
        if self._shutdown:
            raise RuntimeError("HMC is shut down (overheated); call recover() first")

        req.tag = self.allocate_tag()
        link = self.links.pick()
        at_cube = link.send_request(req.ptype, now)

        vault_id, bank_id, local = self.addr_map.decode(req.address)
        at_vault = self.crossbar.forward_to_vault(
            vault_id, req.request_flits, at_cube
        )
        vault = self.vaults[vault_id]

        if req.ptype is PacketType.WRITE64:
            if payload is not None:
                if len(payload) != 64:
                    raise ValueError(f"WRITE64 payload must be 64 B, got {len(payload)}")
                self.store.write(req.address, payload)

        rsp = vault.service(req, bank_id, local, at_vault)

        back_at_switch = self.crossbar.forward(rsp.complete_time_ns)
        at_host = link.send_response(req.ptype, back_at_switch)
        rsp.complete_time_ns = at_host
        rsp.latency_ns = at_host - now
        rsp.errstat = (
            ERRSTAT_THERMAL_WARNING if self._thermal_warning else ERRSTAT_OK
        )

        self.stats.transactions += 1
        if req.ptype in (PacketType.PIM, PacketType.PIM_RET):
            self.stats.pim_ops += 1
        if rsp.thermal_warning:
            self.stats.thermal_warnings_sent += 1
        return rsp

    # -- derived metrics ---------------------------------------------------------

    def total_fu_energy_j(self) -> float:
        return sum(v.pim_unit.stats.energy_j for v in self.vaults)

    def total_pim_ops(self) -> int:
        return sum(v.pim_unit.stats.ops for v in self.vaults)

    def link_data_bytes(self) -> int:
        return self.links.merged_ledger().data_payload_bytes()
