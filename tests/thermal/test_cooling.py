"""Cooling solutions: Table II values and the fan-curve model."""

import pytest

from repro.thermal.cooling import (
    COMMODITY_SERVER,
    COOLING_SOLUTIONS,
    HIGH_END_ACTIVE,
    LOW_END_ACTIVE,
    PASSIVE,
    CoolingSolution,
    fan_power_w,
    relative_fan_power,
)


class TestTableII:
    def test_resistances(self):
        assert PASSIVE.thermal_resistance_c_w == 4.0
        assert LOW_END_ACTIVE.thermal_resistance_c_w == 2.0
        assert COMMODITY_SERVER.thermal_resistance_c_w == 0.5
        assert HIGH_END_ACTIVE.thermal_resistance_c_w == 0.2

    def test_relative_powers(self):
        assert PASSIVE.fan_power_relative == 0.0
        assert LOW_END_ACTIVE.fan_power_relative == 1.0
        assert COMMODITY_SERVER.fan_power_relative == 104.0
        assert HIGH_END_ACTIVE.fan_power_relative == 380.0

    def test_high_end_wheel_diameter(self):
        assert HIGH_END_ACTIVE.wheel_diameter_relative == 2.0

    def test_registry_complete(self):
        assert set(COOLING_SOLUTIONS) == {"passive", "low-end", "commodity",
                                          "high-end"}

class TestFanCurve:
    def test_reproduces_low_end_point(self):
        assert relative_fan_power(2.0) == pytest.approx(1.0, rel=0.02)

    def test_reproduces_commodity_point(self):
        assert relative_fan_power(0.5) == pytest.approx(104.0, rel=0.05)

    def test_reproduces_high_end_point_with_big_wheel(self):
        assert relative_fan_power(0.2, wheel_diameter_relative=2.0) == pytest.approx(
            380.0, rel=0.05
        )

    def test_high_end_fan_is_about_13_watts(self):
        # Sec. III-B: "consumes around 13 Watt".
        assert 11.5 < fan_power_w(0.2, wheel_diameter_relative=2.0) < 14.0

    def test_passive_region_needs_no_fan(self):
        assert relative_fan_power(4.0) == 0.0
        assert relative_fan_power(5.0) == 0.0

    def test_power_monotone_in_resistance(self):
        rs = [3.0, 2.0, 1.0, 0.5, 0.3, 0.2]
        powers = [relative_fan_power(r) for r in rs]
        assert powers == sorted(powers)

    def test_floor_is_unreachable(self):
        assert relative_fan_power(0.05) == float("inf")

    def test_validation(self):
        with pytest.raises(ValueError):
            relative_fan_power(0.0)
        with pytest.raises(ValueError):
            relative_fan_power(1.0, wheel_diameter_relative=0.0)

    def test_solution_fan_power_anchor(self):
        assert HIGH_END_ACTIVE.fan_power_w() == pytest.approx(13.0)


class TestValidation:
    def test_resistance_positive(self):
        with pytest.raises(ValueError):
            CoolingSolution("bad", 0.0, 1.0)

    def test_fan_power_non_negative(self):
        with pytest.raises(ValueError):
            CoolingSolution("bad", 1.0, -1.0)
