"""Temperature-phase policy: phases, derating, refresh, energy penalty."""

import pytest

from repro.hmc.dram_timing import TemperaturePhase, TemperaturePhasePolicy


@pytest.fixture
def policy():
    return TemperaturePhasePolicy()


class TestPhases:
    @pytest.mark.parametrize(
        "temp,phase",
        [
            (0.0, TemperaturePhase.NORMAL),
            (84.99, TemperaturePhase.NORMAL),
            (85.0, TemperaturePhase.EXTENDED),
            (94.99, TemperaturePhase.EXTENDED),
            (95.0, TemperaturePhase.CRITICAL),
            (104.99, TemperaturePhase.CRITICAL),
            (105.0, TemperaturePhase.SHUTDOWN),
            (200.0, TemperaturePhase.SHUTDOWN),
        ],
    )
    def test_phase_boundaries(self, policy, temp, phase):
        assert policy.phase(temp) is phase

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            TemperaturePhasePolicy(thresholds_c=(95, 85, 105))
        with pytest.raises(ValueError):
            TemperaturePhasePolicy(thresholds_c=(85, 95))


class TestFrequency:
    def test_20_percent_per_phase(self, policy):
        assert policy.frequency_scale(TemperaturePhase.NORMAL) == 1.0
        assert policy.frequency_scale(TemperaturePhase.EXTENDED) == pytest.approx(0.8)
        assert policy.frequency_scale(TemperaturePhase.CRITICAL) == pytest.approx(0.64)
        assert policy.frequency_scale(TemperaturePhase.SHUTDOWN) == 0.0

    def test_reduction_bounds(self):
        with pytest.raises(ValueError):
            TemperaturePhasePolicy(freq_reduction_per_phase=1.0)


class TestRefresh:
    def test_doubles_per_phase(self, policy):
        assert policy.refresh_interval_ms(TemperaturePhase.NORMAL) == 64.0
        assert policy.refresh_interval_ms(TemperaturePhase.EXTENDED) == 32.0
        assert policy.refresh_interval_ms(TemperaturePhase.CRITICAL) == 16.0

    def test_overhead_grows_with_phase(self, policy):
        o_n = policy.refresh_overhead_fraction(TemperaturePhase.NORMAL)
        o_e = policy.refresh_overhead_fraction(TemperaturePhase.EXTENDED)
        o_c = policy.refresh_overhead_fraction(TemperaturePhase.CRITICAL)
        assert 0 < o_n < o_e < o_c < 1
        assert o_e == pytest.approx(2 * o_n)

    def test_shutdown_overhead_is_total(self, policy):
        assert policy.refresh_overhead_fraction(TemperaturePhase.SHUTDOWN) == 1.0


class TestEnergyPenalty:
    def test_monotone_in_phase(self, policy):
        scales = [policy.dram_energy_scale(p) for p in
                  (TemperaturePhase.NORMAL, TemperaturePhase.EXTENDED,
                   TemperaturePhase.CRITICAL)]
        assert scales[0] == 1.0
        assert scales[0] < scales[1] < scales[2]

    def test_shutdown_zero(self, policy):
        assert policy.dram_energy_scale(TemperaturePhase.SHUTDOWN) == 0.0

    def test_hot_phase_power_exceeds_derated_throughput_loss(self, policy):
        """The key dynamic of Fig. 13: after derating, a hot workload's
        DRAM power (throughput x energy/bit) must not fall below its
        pre-derating value, or naive offloading would self-cool."""
        for phase in (TemperaturePhase.EXTENDED, TemperaturePhase.CRITICAL):
            served = policy.frequency_scale(phase)
            energy = policy.dram_energy_scale(phase)
            assert served * energy >= 1.0
