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

The arithmetic lives in four cores on plain counts — :func:`demand_flits`,
:func:`demand_bytes`, :func:`demand_time_ns` and :func:`rates_of`.
:class:`TrafficDemand` shares their guard and
:meth:`HmcFlowModel.service_time_ns` calls :func:`demand_time_ns`.
``SteppedEngine._serve_quantum`` (:mod:`repro.gpu.simulator`), the
per-quantum traffic function of both engines, calls the cores directly at
the capacities :meth:`HmcFlowModel.capacities` reads, so it builds no
dataclass per quantum: this module is the one copy of that arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.hmc.config import HMC_2_0, HmcConfig
from repro.hmc.dram_timing import TemperaturePhase, TemperaturePhasePolicy
from repro.hmc.packet import FLIT_BYTES, PacketType, flit_cost

#: (request, response) FLITs of each transaction a demand is made of,
#: read once from Table I.
_READ, _WRITE, _PIM, _PIM_RET = (
    flit_cost(t) for t in (
        PacketType.READ64, PacketType.WRITE64,
        PacketType.PIM, PacketType.PIM_RET,
    )
)


#: Internal DRAM bytes of one PIM op: the 2 x 16 B read-modify-write
#: (Sec. III-C).
PIM_INTERNAL_BYTES = 32

#: Raw-FLIT → payload-equivalent factor for logic-layer power. The power
#: model's "external bandwidth" axis is calibrated on payload at a
#: balanced mix (320 GB/s payload = 480 GB/s of FLITs), but SerDes
#: switching tracks raw FLIT traffic — so raw bytes are converted at the
#: balanced-mix ratio.
LINK_POWER_PAYLOAD_EQUIV = 320.0 / 480.0


# -- cores on plain counts -----------------------------------------------------
#
# A demand is the five counts ``(reads, writes, host_atomics, pim_ops,
# pim_ops_ret)`` of :class:`TrafficDemand`. Each public core checks them
# with the dataclass's own guard (through :func:`demand_flits`), so
# bypassing the dataclass drops no check.


def _check_demand(reads, writes, host_atomics, pim_ops, pim_ops_ret) -> None:
    if min(reads, writes, host_atomics, pim_ops, pim_ops_ret) < 0:
        raise ValueError(
            f"negative demand: TrafficDemand(reads={reads}, writes={writes}, "
            f"host_atomics={host_atomics}, pim_ops={pim_ops}, "
            f"pim_ops_ret={pim_ops_ret})"
        )


def demand_flits(
    reads: int, writes: int, host_atomics: int, pim_ops: int,
    pim_ops_ret: int,
) -> Tuple[int, int]:
    """(request, response) FLITs of a demand (Table I). A host atomic is
    one READ64 plus one WRITE64."""
    _check_demand(reads, writes, host_atomics, pim_ops, pim_ops_ret)
    rd = reads + host_atomics
    wr = writes + host_atomics
    return (
        rd * _READ[0] + wr * _WRITE[0] + pim_ops * _PIM[0]
        + pim_ops_ret * _PIM_RET[0],
        rd * _READ[1] + wr * _WRITE[1] + pim_ops * _PIM[1]
        + pim_ops_ret * _PIM_RET[1],
    )


def _dram_bytes(reads, writes, host_atomics, total_pim):
    return (
        64 * (reads + writes + 2 * host_atomics)
        + PIM_INTERNAL_BYTES * total_pim
    )


def demand_bytes(
    reads: int, writes: int, host_atomics: int, pim_ops: int,
    pim_ops_ret: int,
) -> Tuple[int, int, int]:
    """(link bytes, payload bytes, internal DRAM bytes) of a demand.

    Link bytes are the FLIT bytes crossing the links in both directions;
    payload bytes the useful data moved off-chip; DRAM bytes what the
    dies move internally (TSV traffic). A host atomic costs a 64 B READ
    plus a 64 B WRITE externally and the same internally.
    """
    req, rsp = demand_flits(reads, writes, host_atomics, pim_ops, pim_ops_ret)
    return (
        (req + rsp) * FLIT_BYTES,
        64 * (reads + writes + 2 * host_atomics) + 16 * pim_ops_ret,
        _dram_bytes(reads, writes, host_atomics, pim_ops + pim_ops_ret),
    )


def demand_time_ns(
    reads: int, writes: int, host_atomics: int, pim_ops: int,
    pim_ops_ret: int, link_gbs: float, dram_gbs: float,
    fu_ops_per_ns: float,
) -> float:
    """Time to serve a demand at the given capacities (ns): the maximum
    over the link, DRAM and PIM-FU bottlenecks. No DRAM capacity serves
    nothing (``inf``); an empty demand takes zero time."""
    req, rsp = demand_flits(reads, writes, host_atomics, pim_ops, pim_ops_ret)
    pim = pim_ops + pim_ops_ret
    # bytes / (GB/s) == ns
    t_link = max(req * FLIT_BYTES, rsp * FLIT_BYTES) / link_gbs
    t_dram = (
        _dram_bytes(reads, writes, host_atomics, pim) / dram_gbs
        if dram_gbs > 0 else float("inf")
    )
    t_fu = pim / fu_ops_per_ns if pim else 0.0
    return max(t_link, t_dram, t_fu)


def rates_of(
    link_bytes: int, dram_bytes: int, pim_ops: int, elapsed_ns: float,
) -> Tuple[float, float, float]:
    """(external GB/s, internal GB/s, PIM op/ns) of traffic served over
    ``elapsed_ns``; zero over an empty interval.

    These are the thermal model's power inputs (Sec. III-C:
    Power = energy/bit × bandwidth; Power(FU) = E × width × PIM rate).
    """
    if elapsed_ns <= 0:
        return 0.0, 0.0, 0.0
    return (
        link_bytes * LINK_POWER_PAYLOAD_EQUIV / elapsed_ns,
        dram_bytes / elapsed_ns,
        pim_ops / elapsed_ns,
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
        _check_demand(*self.counts)

    @property
    def counts(self) -> Tuple[int, int, int, int, int]:
        """``(reads, writes, host_atomics, pim_ops, pim_ops_ret)``: the
        arguments of the count cores."""
        return (self.reads, self.writes, self.host_atomics, self.pim_ops,
                self.pim_ops_ret)

    @property
    def total_pim(self) -> int:
        return self.pim_ops + self.pim_ops_ret


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
        # Read-only after construction (properties below), so the
        # capacities memo need not key on them.
        self._config = config
        self._policy = phase_policy or TemperaturePhasePolicy()
        self._internal_peak_gbs = internal_peak_gbs
        self._fu_rate_per_vault_gops = fu_rate_per_vault_gops
        self._caps: dict = {}
        self.phase = TemperaturePhase.NORMAL
        #: Scenario-injection knob: fraction of nominal vault service
        #: capacity available (per-vault derating — failed/slowed vaults
        #: shrink both internal DRAM bandwidth and the FU pool). 1.0 is
        #: bit-exact nominal (×1.0 is an IEEE identity).
        self.vault_capacity_scale = 1.0

    @property
    def config(self) -> HmcConfig:
        return self._config

    @property
    def policy(self) -> TemperaturePhasePolicy:
        return self._policy

    @property
    def internal_peak_gbs(self) -> float:
        return self._internal_peak_gbs

    @property
    def fu_rate_per_vault_gops(self) -> float:
        return self._fu_rate_per_vault_gops

    # -- thermal coupling -----------------------------------------------------

    def update_phase(self, peak_dram_temp_c: float) -> TemperaturePhase:
        """Set the operating phase from the current peak DRAM temperature."""
        self.phase = self.policy.phase(peak_dram_temp_c)
        return self.phase

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
        phase. Raises if the device is shut down.

        Memoized on ``(phase, vault_capacity_scale)``, the only inputs
        that change after construction.
        """
        key = (self.phase, self.vault_capacity_scale)
        caps = self._caps.get(key)
        if caps is None:
            if self.is_shutdown:
                raise RuntimeError("HMC is in thermal shutdown")
            caps = self._caps[key] = (
                self.effective_link_gbs(),
                self.dram_capacity_gbs(),
                self.fu_capacity_ops_per_ns(),
            )
        return caps

    def service_time_ns(self, demand: TrafficDemand) -> float:
        """Time to serve ``demand`` at the current phase (ns).

        The maximum over the three bottlenecks; an idle/empty demand takes
        zero time. Raises if the device is shut down.
        """
        return demand_time_ns(*demand.counts, *self.capacities())
