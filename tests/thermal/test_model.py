"""Thermal model facade: paper calibration points and transient behaviour."""

import inspect
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hmc.config import HMC_2_0
from repro.thermal.cooling import COOLING_SOLUTIONS, HIGH_END_ACTIVE, PASSIVE
from repro.thermal.model import HmcThermalModel
from repro.thermal.power import PowerModel, TrafficPoint


@pytest.fixture(scope="module")
def model():
    return HmcThermalModel()


class TestCalibrationPoints:
    """The Sec. III-B operating points the model is calibrated to."""

    def test_idle_is_33c(self, model):
        assert model.steady_peak_dram_c(TrafficPoint.idle()) == pytest.approx(
            33.0, abs=0.5
        )

    def test_full_bandwidth_is_81c(self, model):
        t = model.steady_peak_dram_c(TrafficPoint.streaming(320.0))
        assert t == pytest.approx(81.0, abs=0.5)

    def test_max_pim_rate_is_105c(self, model):
        t = model.steady_peak_dram_c(TrafficPoint.pim_saturated(6.5))
        assert t == pytest.approx(105.0, abs=1.0)

    def test_pim_threshold_rate_near_85c(self, model):
        t = model.steady_peak_dram_c(TrafficPoint.pim_saturated(1.3))
        assert 84.0 < t < 87.0

    def test_temperature_monotone_in_bandwidth(self, model):
        temps = [
            model.steady_peak_dram_c(TrafficPoint.streaming(bw))
            for bw in (0, 80, 160, 240, 320)
        ]
        assert temps == sorted(temps)

    def test_passive_sink_overheats_at_full_bandwidth(self):
        m = HmcThermalModel(cooling=PASSIVE)
        assert m.steady_peak_dram_c(TrafficPoint.streaming(320.0)) > 105.0

    def test_stronger_cooling_is_cooler(self):
        temps = []
        for name in ("passive", "low-end", "commodity", "high-end"):
            m = HmcThermalModel(cooling=COOLING_SOLUTIONS[name])
            temps.append(m.steady_peak_dram_c(TrafficPoint.streaming(200.0)))
        assert temps == sorted(temps, reverse=True)


class TestSpatialStructure:
    def test_bottom_dram_die_hottest(self, model):
        model.steady_state(TrafficPoint.streaming(320.0))
        d0 = model.heatmap("dram0").max()
        d7 = model.heatmap("dram7").max()
        assert d0 > d7

    def test_surface_cooler_than_die(self, model):
        traffic = TrafficPoint.streaming(320.0)
        assert model.steady_surface_c(traffic) < model.steady_peak_dram_c(traffic)

    def test_heatmap_requires_solve(self):
        m = HmcThermalModel()
        with pytest.raises(RuntimeError):
            m.heatmap("logic")

    def test_unknown_layer(self, model):
        model.steady_state(TrafficPoint.idle())
        with pytest.raises(KeyError):
            model.heatmap("nope")


class TestTransient:
    def test_warm_start_matches_steady(self):
        m = HmcThermalModel()
        t = TrafficPoint.streaming(240.0)
        m.warm_start(t)
        assert m.peak_dram_c() == pytest.approx(m.steady_peak_dram_c(t), abs=0.1)

    def test_step_approaches_steady(self):
        m = HmcThermalModel()
        m.warm_start(TrafficPoint.idle())
        target = m.steady_peak_dram_c(TrafficPoint.streaming(320.0))
        start = m.peak_dram_c()
        for _ in range(1600):  # 40 ms of 25 us quanta
            cur = m.step(TrafficPoint.streaming(320.0))
        assert cur > start + 0.9 * (target - start)

    def test_millisecond_scale_response(self):
        # Fig. 8 / Fig. 14 dynamics: visible movement within ~1 ms.
        m = HmcThermalModel()
        m.warm_start(TrafficPoint.streaming(240.0))
        t0 = m.peak_dram_c()
        for _ in range(40):
            cur = m.step(TrafficPoint.pim_saturated(4.0))
        assert cur - t0 > 1.0

    def test_energy_scale_raises_temperature(self):
        m = HmcThermalModel()
        m.warm_start(TrafficPoint.streaming(240.0))
        base = m.step(TrafficPoint.streaming(240.0))
        m.warm_start(TrafficPoint.streaming(240.0))
        hot = m.step(TrafficPoint.streaming(240.0), dram_energy_scale=2.0)
        assert hot > base

    def test_negative_energy_scale_rejected(self):
        m = HmcThermalModel()
        with pytest.raises(ValueError):
            m.step(TrafficPoint.idle(), dram_energy_scale=-1.0)

class TestDramIndex:
    def test_one_index_serves_peaks_and_propagator(self, model):
        """The bundle's DRAM node index is the propagator's readout
        index, and its gather+max is the max over every DRAM layer."""
        net = model.network
        model.warm_start(TrafficPoint.streaming(200.0))
        T = model.state
        by_layer = max(
            float(net.layer_temps(T, net.layer_index[f"dram{i}"]).max())
            for i in range(model.config.num_dram_dies)
        )
        assert model.peak_dram_c() == by_layer
        assert model.step(TrafficPoint.streaming(200.0)) == max(
            float(net.layer_temps(model.state, net.layer_index[name]).max())
            for name in net.layer_index if name.startswith("dram")
        )
        assert model.propagator()._dram_index is model._dram_index


class TestBasisConsistency:
    def test_basis_matches_direct_map_assembly(self):
        # The cached linear basis must reproduce the direct computation.
        m = HmcThermalModel()
        t = TrafficPoint(external_gbs=123.0, internal_dram_gbs=200.0,
                         pim_rate_ops_ns=2.5)
        fast = m._power_vector(t)
        maps = m.power.layer_power_maps(m.floorplan, t)
        direct = m.network.power_vector(maps)
        assert np.allclose(fast, direct)

    def test_junction_estimate(self):
        m = HmcThermalModel()
        assert m.junction_from_surface_c(50.0, 20.0) == pytest.approx(57.0)


#: Every constructor input of PowerModel; a new one must reach the
#: fingerprint or the property below fails.
POWER_FIELDS = list(inspect.signature(PowerModel).parameters)
#: A config the power maps read differently (half the DRAM dies powered).
HALF_STACK = replace(HMC_2_0, num_dram_dies=HMC_2_0.num_dram_dies // 2)


def power_inputs(pm: PowerModel) -> dict:
    return {name: getattr(pm, name) for name in POWER_FIELDS}


@st.composite
def power_models(draw) -> PowerModel:
    """Default constants or twice them, on the full or the half stack."""
    inputs = power_inputs(PowerModel(HMC_2_0))
    inputs["config"] = draw(st.sampled_from([HMC_2_0, HALF_STACK]))
    for name in POWER_FIELDS[1:]:
        inputs[name] *= draw(st.sampled_from([1.0, 2.0]))
    return PowerModel(**inputs)


class TestPowerFingerprint:
    """The fingerprint keys the shared power-basis memo and the shared
    propagators, so it must cover every input of ``_basis``."""

    @settings(max_examples=25, deadline=None)
    @given(pm=power_models(), field=st.sampled_from(POWER_FIELDS),
           factor=st.floats(1.01, 4.0))
    def test_perturbing_any_input_changes_fingerprint(self, pm, field,
                                                      factor):
        inputs = power_inputs(pm)
        if field == "config":
            inputs["config"] = HMC_2_0 if pm.config == HALF_STACK else HALF_STACK
        else:
            inputs[field] *= factor
        a = HmcThermalModel(power_model=pm)
        b = HmcThermalModel(power_model=PowerModel(**inputs))
        assert a._power_fingerprint() != b._power_fingerprint()

    @settings(max_examples=10, deadline=None)
    @given(a=power_models(), b=power_models())
    def test_equal_fingerprints_give_equal_basis(self, a, b):
        """What the memo serves is the basis computed without it."""
        HmcThermalModel(power_model=a)._basis()  # memoize a's basis
        served = HmcThermalModel(power_model=b)
        own = {
            name: HmcThermalModel(power_model=pm)
            for name, pm in (("a", a), ("b", b))
        }
        for got, want in zip(served._basis(), own["b"]._build_basis()):
            assert np.array_equal(got, want)
        if own["a"]._power_fingerprint() == own["b"]._power_fingerprint():
            for got, want in zip(own["a"]._build_basis(),
                                 own["b"]._build_basis()):
                assert np.array_equal(got, want)

    def test_config_separates_basis_and_propagator(self):
        full = HmcThermalModel()
        half = HmcThermalModel(power_model=PowerModel(HALF_STACK))
        assert not np.array_equal(full._basis()[1], half._basis()[1])
        assert full.propagator() is not half.propagator()
