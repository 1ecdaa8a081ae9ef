"""Temperature-phase DRAM management (Table IV).

The paper partitions HMC operating temperature into three phases —
0–85 °C (normal), 85–95 °C (extended), 95–105 °C (critical) — and assumes a
20 % DRAM frequency reduction when switching to each higher phase, plus the
JEDEC doubled refresh rate above 85 °C. Above 105 °C the device must shut
down (the HMC 1.1 prototype's conservative policy: complete stop, data
loss, tens-of-seconds recovery).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence


class TemperaturePhase(enum.IntEnum):
    """Operating phases, ordered from coolest to hottest."""

    NORMAL = 0        # 0-85 C
    EXTENDED = 1      # 85-95 C, doubled refresh
    CRITICAL = 2      # 95-105 C, doubled refresh again
    SHUTDOWN = 3      # >105 C


@dataclass(frozen=True)
class TemperaturePhasePolicy:
    """Maps die temperature to phase, frequency derating, and refresh rate.

    Parameters
    ----------
    thresholds_c:
        Ascending phase boundaries, default (85, 95, 105).
    freq_reduction_per_phase:
        Fractional frequency loss per phase step (paper: 0.20).
    base_refresh_interval_ms:
        tREFW at normal temperature (JEDEC 64 ms window).
    """

    thresholds_c: Sequence[float] = (85.0, 95.0, 105.0)
    freq_reduction_per_phase: float = 0.20
    base_refresh_interval_ms: float = 64.0
    #: Conservative overheat management (Sec. III-C / the HMC 1.1
    #: prototype): no dynamic frequency/refresh management — the device
    #: runs at full speed until the die hits the shutdown threshold
    #: (95 °C on the prototype), then stops completely, losing contents
    #: and stalling tens of seconds. The alternative the paper argues
    #: against by comparison.
    conservative_shutdown: bool = False
    conservative_shutdown_c: float = 95.0

    def __post_init__(self) -> None:
        t = tuple(self.thresholds_c)
        if len(t) != 3 or not (t[0] < t[1] < t[2]):
            raise ValueError(f"thresholds must be 3 ascending values, got {t}")
        if not 0.0 <= self.freq_reduction_per_phase < 1.0:
            raise ValueError(
                f"freq reduction must be in [0,1): {self.freq_reduction_per_phase}"
            )

    def phase(self, temp_c: float) -> TemperaturePhase:
        """Phase for a peak DRAM die temperature."""
        if self.conservative_shutdown:
            # All-or-nothing: full speed below the kill switch.
            if temp_c < self.conservative_shutdown_c:
                return TemperaturePhase.NORMAL
            return TemperaturePhase.SHUTDOWN
        t0, t1, t2 = self.thresholds_c
        if temp_c < t0:
            return TemperaturePhase.NORMAL
        if temp_c < t1:
            return TemperaturePhase.EXTENDED
        if temp_c < t2:
            return TemperaturePhase.CRITICAL
        return TemperaturePhase.SHUTDOWN

    def frequency_scale(self, phase: TemperaturePhase) -> float:
        """Effective DRAM frequency multiplier for ``phase``.

        20 % reduction per phase step: NORMAL → 1.0, EXTENDED → 0.8,
        CRITICAL → 0.64 (a further 20 % off). SHUTDOWN → 0.
        """
        if phase is TemperaturePhase.SHUTDOWN:
            return 0.0
        return (1.0 - self.freq_reduction_per_phase) ** int(phase)

    def refresh_interval_ms(self, phase: TemperaturePhase) -> float:
        """Refresh window: halves per phase above NORMAL (JEDEC extended
        temperature range doubles the refresh rate)."""
        if phase is TemperaturePhase.SHUTDOWN:
            return 0.0
        return self.base_refresh_interval_ms / (2 ** int(phase))

    def refresh_overhead_fraction(self, phase: TemperaturePhase) -> float:
        """Fraction of DRAM time spent refreshing.

        Roughly 8192 refreshes per window at ~350 ns each for an 8 Gb die;
        doubling the rate doubles the overhead.
        """
        if phase is TemperaturePhase.SHUTDOWN:
            return 1.0
        window_ns = self.refresh_interval_ms(phase) * 1e6
        refresh_time_ns = 8192 * 350.0
        return min(1.0, refresh_time_ns / window_ns)

    def dram_energy_scale(self, phase: TemperaturePhase) -> float:
        """DRAM energy-per-bit multiplier in hot phases.

        Operating in the extended temperature range "incurs higher energy
        consumption" (Sec. I): refresh rate doubles per phase, cell leakage
        grows super-linearly, and the derated frequency spreads the same
        access over more wall-clock leakage time. The multiplier applies
        to DRAM dynamic/static power and to the DRAM-access share of PIM
        ops; it is what keeps a naïvely-offloading workload hot even after
        frequency derating cuts its throughput (Fig. 13's >90 °C peaks).
        """
        if phase is TemperaturePhase.SHUTDOWN:
            return 0.0
        return (1.0, 1.6, 2.2)[int(phase)]
