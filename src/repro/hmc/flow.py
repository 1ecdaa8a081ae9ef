"""Flow-level HMC model for the full-system co-simulation.

Instead of simulating individual packets, this model converts an interval's
*traffic demand* into service time using the first-order bottlenecks the
paper's evaluation turns on:

1. **Off-chip link capacity** — per-direction FLIT accounting (Table I).
   The request and response lanes are independent; a balanced read/write
   mix reaches the 320 GB/s peak data bandwidth of HMC 2.0, a read-only mix
   is response-lane bound.
2. **DRAM service capacity** — the memory dies sustain a finite internal
   bandwidth that scales with the temperature-phase frequency derating
   (20 % per phase, Table IV) and shrinks with refresh overhead (doubled
   refresh above 85 °C). Every external byte and every PIM
   read-modify-write (2 × 16 B internal accesses, Sec. III-C) consumes it.
3. **PIM FU throughput** — one FU per vault; rarely binding but modelled.

``SteppedEngine._serve_quantum`` (:mod:`repro.gpu.simulator`), the
per-quantum traffic function of both engines, takes its service time from
:meth:`HmcFlowModel.bottleneck_time_ns` at the capacities
:meth:`HmcFlowModel.capacities` reads, and its power inputs from
:meth:`HmcFlowModel.traffic_rates`: this module is the one copy of that
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hmc.config import HMC_2_0, HmcConfig
from repro.hmc.dram_timing import TemperaturePhase, TemperaturePhasePolicy
from repro.hmc.packet import FLIT_BYTES, FlitLedger, PacketType, flit_cost

#: (request, response) FLITs of each transaction a demand is made of,
#: read once from Table I.
_READ, _WRITE, _PIM, _PIM_RET = (
    flit_cost(t) for t in (
        PacketType.READ64, PacketType.WRITE64,
        PacketType.PIM, PacketType.PIM_RET,
    )
)


@dataclass(frozen=True)
class TrafficDemand:
    """Transaction counts offered to the cube in one epoch.

    ``host_atomics`` are atomics executed by the host (non-offloaded): each
    costs a 64 B READ plus a 64 B WRITE externally and the same internally.
    ``pim_ops`` / ``pim_ops_ret`` are offloaded atomics (Table I PIM
    packets; 32 B internal DRAM traffic each).
    """

    reads: int = 0
    writes: int = 0
    host_atomics: int = 0
    pim_ops: int = 0
    pim_ops_ret: int = 0

    def __post_init__(self) -> None:
        if min(self.reads, self.writes, self.host_atomics, self.pim_ops,
               self.pim_ops_ret) < 0:
            raise ValueError(f"negative demand: {self}")

    @property
    def total_pim(self) -> int:
        return self.pim_ops + self.pim_ops_ret

    def request_flits(self) -> int:
        return (
            (self.reads + self.host_atomics) * _READ[0]
            + (self.writes + self.host_atomics) * _WRITE[0]
            + self.pim_ops * _PIM[0]
            + self.pim_ops_ret * _PIM_RET[0]
        )

    def response_flits(self) -> int:
        return (
            (self.reads + self.host_atomics) * _READ[1]
            + (self.writes + self.host_atomics) * _WRITE[1]
            + self.pim_ops * _PIM[1]
            + self.pim_ops_ret * _PIM_RET[1]
        )

    def link_bytes(self) -> int:
        """Total FLIT bytes crossing the links (both directions)."""
        return (self.request_flits() + self.response_flits()) * FLIT_BYTES

    def external_data_bytes(self) -> int:
        """Useful payload bytes moved off-chip."""
        return (
            64 * (self.reads + self.writes + 2 * self.host_atomics)
            + 16 * self.pim_ops_ret
        )

    def internal_dram_bytes(self, pim_internal_bytes: int = 32) -> int:
        """Bytes the DRAM dies move internally (TSV traffic)."""
        return (
            64 * (self.reads + self.writes + 2 * self.host_atomics)
            + pim_internal_bytes * self.total_pim
        )


@dataclass
class FlowStats:
    busy_ns: float = 0.0
    pim_ops: int = 0
    host_atomics: int = 0
    ledger: FlitLedger = field(default_factory=FlitLedger)


class HmcFlowModel:
    """Bottleneck-based service-time model with thermal derating.

    Parameters
    ----------
    config:
        Cube geometry/link parameters.
    phase_policy:
        Temperature-phase derating rules.
    internal_peak_gbs:
        Nominal internal DRAM bandwidth at full frequency. Above the
        320 GB/s link ceiling so links bound performance in the NORMAL
        phase (Sec. III-B observes exactly that), but close enough that
        frequency derating makes DRAM the bottleneck in hotter phases.
    fu_rate_per_vault_gops:
        PIM ops/ns each vault FU sustains.
    """

    def __init__(
        self,
        config: HmcConfig = HMC_2_0,
        phase_policy: TemperaturePhasePolicy | None = None,
        internal_peak_gbs: float = 400.0,
        fu_rate_per_vault_gops: float = 1.0,
    ) -> None:
        if internal_peak_gbs <= 0:
            raise ValueError(f"internal bandwidth must be positive: {internal_peak_gbs}")
        if fu_rate_per_vault_gops <= 0:
            raise ValueError(
                f"FU rate must be positive: {fu_rate_per_vault_gops}"
            )
        self.config = config
        self.policy = phase_policy or TemperaturePhasePolicy()
        self.internal_peak_gbs = internal_peak_gbs
        self.fu_rate_per_vault_gops = fu_rate_per_vault_gops
        self.phase = TemperaturePhase.NORMAL
        self.stats = FlowStats()
        self._thermal_warning = False
        #: Scenario-injection knob: fraction of nominal vault service
        #: capacity available (per-vault derating — failed/slowed vaults
        #: shrink both internal DRAM bandwidth and the FU pool). 1.0 is
        #: bit-exact nominal (×1.0 is an IEEE identity).
        self.vault_capacity_scale = 1.0

    # -- thermal coupling -----------------------------------------------------

    def update_phase(self, peak_dram_temp_c: float) -> TemperaturePhase:
        """Set the operating phase from the current peak DRAM temperature."""
        self.phase = self.policy.phase(peak_dram_temp_c)
        return self.phase

    def set_thermal_warning(self, active: bool) -> None:
        """Warning bit stamped into responses (drives CoolPIM feedback)."""
        self._thermal_warning = active

    @property
    def thermal_warning(self) -> bool:
        return self._thermal_warning

    @property
    def is_shutdown(self) -> bool:
        return self.phase is TemperaturePhase.SHUTDOWN

    # -- capacities -------------------------------------------------------------

    def derating(self) -> float:
        """Combined service derating at the current phase.

        The DRAM frequency reduction slows the whole memory pipeline — the
        vault controllers and TSV interfaces run on the derated clock, so
        the links cannot be fed faster than the dies produce data. Refresh
        overhead (doubled per phase above NORMAL) is applied relative to
        the NORMAL-phase baseline, which the nominal ratings absorb.
        """
        freq = self.policy.frequency_scale(self.phase)
        if freq == 0.0:
            return 0.0
        base_overhead = self.policy.refresh_overhead_fraction(TemperaturePhase.NORMAL)
        overhead = self.policy.refresh_overhead_fraction(self.phase)
        refresh_factor = (1.0 - overhead) / (1.0 - base_overhead)
        return freq * max(0.0, refresh_factor)

    @property
    def per_direction_link_gbs(self) -> float:
        """Aggregate one-direction raw link bandwidth (GB/s), at nominal."""
        return self.config.peak_link_bandwidth_gbs / 2.0

    def effective_link_gbs(self) -> float:
        """Per-direction link service bandwidth at the current phase."""
        return self.per_direction_link_gbs * self.derating()

    def dram_capacity_gbs(self) -> float:
        """Internal DRAM service bandwidth at the current phase."""
        return self.internal_peak_gbs * self.derating() * self.vault_capacity_scale

    def fu_capacity_ops_per_ns(self) -> float:
        return (
            self.config.num_vaults
            * self.fu_rate_per_vault_gops
            * self.vault_capacity_scale
        )

    # -- service --------------------------------------------------------------

    def capacities(self) -> tuple[float, float, float]:
        """(per-direction link GB/s, DRAM GB/s, FU op/ns) at the current
        phase. Raises if the device is shut down."""
        if self.is_shutdown:
            raise RuntimeError("HMC is in thermal shutdown")
        return (
            self.effective_link_gbs(),
            self.dram_capacity_gbs(),
            self.fu_capacity_ops_per_ns(),
        )

    def service_time_ns(self, demand: TrafficDemand) -> float:
        """Time to serve ``demand`` at the current phase (ns).

        The maximum over the three bottlenecks; an idle/empty demand takes
        zero time. Raises if the device is shut down.
        """
        return self.bottleneck_time_ns(demand, *self.capacities())

    @staticmethod
    def bottleneck_time_ns(
        demand: TrafficDemand, link_gbs: float, dram_gbs: float,
        fu_ops_per_ns: float,
    ) -> float:
        """Time to serve ``demand`` at the given capacities (ns)."""
        req_b = demand.request_flits() * FLIT_BYTES
        rsp_b = demand.response_flits() * FLIT_BYTES
        t_link = max(req_b, rsp_b) / link_gbs  # bytes / (GB/s) == ns
        t_dram = demand.internal_dram_bytes() / dram_gbs if dram_gbs > 0 else float("inf")
        pim = demand.total_pim
        t_fu = pim / fu_ops_per_ns if pim else 0.0
        return max(t_link, t_dram, t_fu)

    def record(self, demand: TrafficDemand, elapsed_ns: float) -> None:
        """Account served traffic for statistics and power integration."""
        s = self.stats
        s.busy_ns += elapsed_ns
        s.pim_ops += demand.total_pim
        s.host_atomics += demand.host_atomics
        s.ledger.record(PacketType.READ64, demand.reads + demand.host_atomics)
        s.ledger.record(PacketType.WRITE64, demand.writes + demand.host_atomics)
        s.ledger.record(PacketType.PIM, demand.pim_ops)
        s.ledger.record(PacketType.PIM_RET, demand.pim_ops_ret)

    #: Raw-FLIT → payload-equivalent factor for logic-layer power. The
    #: power model's "external bandwidth" axis is calibrated on payload at
    #: a balanced mix (320 GB/s payload = 480 GB/s of FLITs), but SerDes
    #: switching tracks raw FLIT traffic — so raw bytes are converted at
    #: the balanced-mix ratio.
    LINK_POWER_PAYLOAD_EQUIV = 320.0 / 480.0

    def traffic_rates(
        self, demand: TrafficDemand, elapsed_ns: float
    ) -> tuple[float, float, float]:
        """(external GB/s, internal GB/s, PIM op/ns) over the interval.

        These are the thermal model's power inputs (Sec. III-C:
        Power = energy/bit × bandwidth; Power(FU) = E × width × PIM rate).
        """
        if elapsed_ns <= 0:
            return 0.0, 0.0, 0.0
        ext = demand.link_bytes() * self.LINK_POWER_PAYLOAD_EQUIV / elapsed_ns
        internal = demand.internal_dram_bytes() / elapsed_ns
        pim_rate = demand.total_pim / elapsed_ns
        return ext, internal, pim_rate
