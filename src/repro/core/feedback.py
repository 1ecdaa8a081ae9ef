"""Closed-loop feedback delay model (Fig. 8).

Source throttling does not reduce PIM intensity instantly, and the HMC's
temperature responds even later:

================  ================  ================
Delay             Software-based    Hardware-based
================  ================  ================
Tthrottle         ~0.1 ms           ~0.1 µs
Tthermal          ~1 ms             ~1 ms
================  ================  ================

The control granularity therefore cannot exceed Tthrottle + Tthermal per
step; a controller that reacts faster than the loop delay over-reduces
(Sec. IV-C "Delayed Control Updates").
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FeedbackDelays:
    """Per-mechanism delay constants, in seconds."""

    throttle_s: float
    thermal_s: float = 1e-3

    def __post_init__(self) -> None:
        if self.throttle_s < 0 or self.thermal_s < 0:
            raise ValueError(f"delays cannot be negative: {self}")

    @property
    def control_step_s(self) -> float:
        """Minimum useful interval between control actions."""
        return self.throttle_s + self.thermal_s

    @classmethod
    def software(cls) -> "FeedbackDelays":
        """SW-DynT: interrupt handling + waiting for in-flight blocks."""
        return cls(throttle_s=0.1e-3)

    @classmethod
    def hardware(cls) -> "FeedbackDelays":
        """HW-DynT: PCU update takes tens of cycles."""
        return cls(throttle_s=0.1e-6)
