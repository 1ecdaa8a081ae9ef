"""Thermal sensor with sampling delay and hysteresis.

The HMC raises thermal warnings through response-packet ERRSTAT bits
(Sec. II-A). Physical sensors sample periodically and the package responds
thermally on a ~1 ms timescale (Fig. 8: Tthermal ≈ 1 ms). The sensor here
samples the peak DRAM temperature at a fixed period and drives the warning
flag with hysteresis so the control loop doesn't chatter at the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

#: Scenario-injection hook: ``(true_temp_c, now_s) -> reading``. Returning
#: ``None`` models sensor dropout — the sample slot is consumed but the
#: reading is lost, freezing the warning state and ``last_temp_c``.
PerturbFn = Callable[[float, float], Optional[float]]


@dataclass
class ThermalSensor:
    """Sampled warning generator.

    Attributes
    ----------
    warn_threshold_c:
        Raise the warning when peak temperature is at/above this (85 °C —
        the top of DRAM's normal operating range).
    clear_threshold_c:
        Clear the warning when temperature falls below this (hysteresis).
    sample_period_s:
        Sensor sampling period.
    """

    warn_threshold_c: float = 85.0
    clear_threshold_c: float = 83.0
    sample_period_s: float = 100e-6
    _warning: bool = field(default=False, init=False)
    _last_sample_time: float = field(default=float("-inf"), init=False)
    #: ``None`` until the first sample lands — a fictitious 0 °C here
    #: would poison HW-DynT's severity/settling logic after a reset.
    _last_temp: Optional[float] = field(default=None, init=False)
    #: Measurement-channel perturbation (noise/dropout); ``None`` = ideal.
    perturb: Optional[PerturbFn] = field(
        default=None, init=False, repr=False, compare=False
    )
    history: List[Tuple[float, float, bool]] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if self.clear_threshold_c > self.warn_threshold_c:
            raise ValueError(
                f"clear threshold ({self.clear_threshold_c}) must not exceed "
                f"warn threshold ({self.warn_threshold_c})"
            )
        if self.sample_period_s <= 0:
            raise ValueError(f"sample period must be positive: {self.sample_period_s}")

    @property
    def warning(self) -> bool:
        return self._warning

    @property
    def last_temp_c(self) -> Optional[float]:
        """Most recent accepted reading; ``None`` before the first sample."""
        return self._last_temp

    def observe(self, temp_c: float, now_s: float) -> bool:
        """Offer a temperature reading; takes effect only at sample times.

        Returns the (possibly updated) warning state.
        """
        if now_s - self._last_sample_time < self.sample_period_s:
            return self._warning
        if self.perturb is not None:
            reading = self.perturb(temp_c, now_s)
            if reading is None:
                # Dropout: the slot is consumed, the reading is lost.
                self._last_sample_time = now_s
                return self._warning
            temp_c = reading
        self._last_sample_time = now_s
        self._last_temp = temp_c
        if self._warning:
            if temp_c < self.clear_threshold_c:
                self._warning = False
        else:
            if temp_c >= self.warn_threshold_c:
                self._warning = True
        self.history.append((now_s, temp_c, self._warning))
        return self._warning

    def reset(self) -> None:
        """Clear sampling state. ``perturb`` is left alone on purpose: a
        scenario's sensor-fault window survives mid-run resets (thermal
        shutdown recovery) — the fault is in the channel, not the run."""
        self._warning = False
        self._last_sample_time = float("-inf")
        self._last_temp = None
        self.history.clear()
