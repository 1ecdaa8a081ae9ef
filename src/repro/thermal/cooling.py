"""Cooling solutions (Table II) and the fan-curve power model.

Table II of the paper:

=============================  ===================  =============
Type                           Thermal Resistance   Cooling Power
=============================  ===================  =============
Passive heat sink              4.0 °C/W             0
Low-end active heat sink       2.0 °C/W             1×
Commodity-server active sink   0.5 °C/W             104×
High-end active heat sink      0.2 °C/W             380×
=============================  ===================  =============

All configurations use the same plate-fin heat-sink model; the high-end
fan has 2× wheel diameter. The paper's fan power follows the fan-curve
methodology [34]: for a plate-fin sink, lowering thermal resistance
requires roughly quadratically more airflow, and fan power grows with the
cube of airflow — so power explodes as resistance shrinks. The high-end
0.2 °C/W sink's fan draws ≈13 W (half a fully-utilized HMC 2.0 cube).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class CoolingSolution:
    """A heat sink: case-to-ambient resistance + fan characteristics."""

    name: str
    thermal_resistance_c_w: float
    fan_power_relative: float  # relative to low-end active (1x)
    wheel_diameter_relative: float = 1.0

    def __post_init__(self) -> None:
        if self.thermal_resistance_c_w <= 0:
            raise ValueError(f"thermal resistance must be positive: {self}")
        if self.fan_power_relative < 0:
            raise ValueError(f"fan power cannot be negative: {self}")

    def fan_power_w(self) -> float:
        """Absolute fan power, anchored at 13 W for the 380× high-end fan."""
        return self.fan_power_relative * _WATTS_PER_UNIT


#: High-end fan ≈ 13 W at 380× (Sec. III-B) → 1× ≈ 34 mW.
_WATTS_PER_UNIT = 13.0 / 380.0

PASSIVE = CoolingSolution("passive", 4.0, 0.0)
LOW_END_ACTIVE = CoolingSolution("low-end", 2.0, 1.0)
COMMODITY_SERVER = CoolingSolution("commodity", 0.5, 104.0)
HIGH_END_ACTIVE = CoolingSolution("high-end", 0.2, 380.0, wheel_diameter_relative=2.0)

COOLING_SOLUTIONS: Dict[str, CoolingSolution] = {
    c.name: c for c in (PASSIVE, LOW_END_ACTIVE, COMMODITY_SERVER, HIGH_END_ACTIVE)
}


# Fan-curve model constants (see fan_power_w): forced-convection floor of
# the plate-fin sink and the cubic-law coefficient calibrated on the
# low-end Table II point.
_R_FLOOR = 0.0946
_K_CUBIC = 1.0 / (1.0 / (2.0 - _R_FLOOR)) ** 3  # 1x at R = 2.0, d = 1


def relative_fan_power(
    thermal_resistance_c_w: float, wheel_diameter_relative: float = 1.0
) -> float:
    """Fan power (in Table II's 'x' units) for a plate-fin sink.

    Fan-curve extrapolation per the characteristic-curve methodology [34]
    combined with the fan affinity laws: sink resistance follows
    ``R = R0 + a/V`` in airflow ``V``, and fan power follows
    ``P ∝ V³ / d⁴`` for wheel diameter ``d``. Calibrating R0 on the
    commodity/low-end pair reproduces all three active Table II points:

    >>> round(relative_fan_power(2.0))
    1
    >>> round(relative_fan_power(0.5))
    104
    >>> round(relative_fan_power(0.2, wheel_diameter_relative=2.0))
    369
    """
    if thermal_resistance_c_w <= 0:
        raise ValueError(f"resistance must be positive: {thermal_resistance_c_w}")
    if wheel_diameter_relative <= 0:
        raise ValueError(f"diameter must be positive: {wheel_diameter_relative}")
    # Natural-convection limit of the bare sink; at/above it no fan needed.
    if thermal_resistance_c_w >= 4.0:
        return 0.0
    if thermal_resistance_c_w <= _R_FLOOR:
        return float("inf")
    v = 1.0 / (thermal_resistance_c_w - _R_FLOOR)
    return _K_CUBIC * v**3 / wheel_diameter_relative**4


def fan_power_w(
    thermal_resistance_c_w: float, wheel_diameter_relative: float = 1.0
) -> float:
    """Absolute fan power in watts (high-end ≈ 13 W, Sec. III-B).

    >>> 11.0 < fan_power_w(0.2, wheel_diameter_relative=2.0) < 14.0
    True
    """
    return (
        relative_fan_power(thermal_resistance_c_w, wheel_diameter_relative)
        * _WATTS_PER_UNIT
    )
