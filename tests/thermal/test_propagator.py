"""Reduced-order propagator vs the exact LU stepper.

The macro engine trusts :class:`ReducedPropagator` to reproduce the exact
per-quantum peak-DRAM trajectory to well under the 1e-6 °C decision
margin; these tests pin that contract directly against
``HmcThermalModel.step``.
"""

import numpy as np
import pytest

from repro.hmc.config import HMC_2_0
from repro.thermal import operators
from repro.thermal.model import HmcThermalModel
from repro.thermal.power import TrafficPoint
from repro.thermal.propagator import PeakReader


def coeff_columns(tp: TrafficPoint, ambient_c: float, k: int,
                  scale: float = 1.0) -> np.ndarray:
    """Power-basis weights for ``k`` quanta of constant traffic.

    Matches the engine's convention for the propagator input basis
    ``(p0_logic, p0_dram, v_ext, v_int, v_pim, ambient)``.
    """
    col = np.array([
        1.0,
        scale,
        tp.external_gbs,
        scale * tp.internal_dram_gbs,
        scale * tp.pim_rate_ops_ns,
        ambient_c,
    ])
    return np.tile(col[:, None], (1, k))


def march_from(prop, T0: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Project a node state and march it: the eigen-coordinate
    trajectory ``Z`` (one column per quantum), as the macro engine does."""
    z0, _ = prop.project(T0)
    assert z0 is not None
    return prop.march(z0, coeffs)


class TestAgainstExactStepper:
    def test_constant_traffic_trajectory(self):
        model = HmcThermalModel(HMC_2_0)
        tp = TrafficPoint(
            external_gbs=80.0, internal_dram_gbs=120.0, pim_rate_ops_ns=0.4
        )
        model.warm_start(TrafficPoint.idle())
        prop = model.propagator()
        assert prop.healthy
        T0 = model.state.copy()

        K = 48
        exact = np.array([model.step(tp) for _ in range(K)])
        Z = march_from(prop, T0, coeff_columns(tp, model.ambient_c, K))
        np.testing.assert_allclose(prop.dram_peaks(Z), exact, atol=1e-6)
        # The reconstructed end state matches the exact node state too.
        T_end = prop.reconstruct(Z[:, -1])
        assert float(np.abs(T_end - model.state).max()) < 1e-6

    def test_march_is_the_diagonal_recurrence(self):
        """``march`` returns a C-contiguous (r, K) trajectory equal, bit
        for bit, to ``z <- lam * z + H[:, k]`` column by column."""
        model = HmcThermalModel(HMC_2_0)
        model.warm_start(TrafficPoint.idle())
        prop = model.propagator()
        z0, _ = prop.project(model.state)
        tp = TrafficPoint(external_gbs=50.0, internal_dram_gbs=90.0)
        coeffs = coeff_columns(tp, model.ambient_c, 17)
        coeffs[2] += np.linspace(0.0, 30.0, 17)
        Z = prop.march(z0, coeffs)
        H = prop._proj_in @ coeffs
        z = z0
        for k in range(coeffs.shape[1]):
            z = prop._lam * z + H[:, k]
            assert np.array_equal(Z[:, k], z)
        assert Z.shape == (prop.rank, 17) and Z.flags.c_contiguous

    def test_derated_energy_scale(self):
        """The EXTENDED/CRITICAL refresh derating enters as a scale on
        the DRAM power-basis columns; the march must track it."""
        model = HmcThermalModel(HMC_2_0)
        tp = TrafficPoint(
            external_gbs=60.0, internal_dram_gbs=90.0, pim_rate_ops_ns=0.2
        )
        model.warm_start(tp)
        prop = model.propagator()
        T0 = model.state.copy()

        K = 24
        scale = 1.6
        exact = np.array([
            model.step(tp, dram_energy_scale=scale) for _ in range(K)
        ])
        Z = march_from(
            prop, T0, coeff_columns(tp, model.ambient_c, K, scale=scale)
        )
        np.testing.assert_allclose(prop.dram_peaks(Z), exact, atol=1e-6)

    def test_project_round_trip(self):
        model = HmcThermalModel(HMC_2_0)
        model.warm_start(TrafficPoint.streaming(100.0))
        prop = model.propagator()
        z, resid = prop.project(model.state)
        assert z is not None
        assert resid < 1e-6
        back = prop.reconstruct(z)
        assert float(np.abs(back - model.state).max()) < 1e-6
        assert prop.dram_peak_of(z) == pytest.approx(
            model.peak_dram_c(), abs=1e-6
        )


def out_of_span_state(model: HmcThermalModel) -> np.ndarray:
    """Steady state with all traffic on four vaults: the basis grows from
    uniform-vault power inputs, so it does not span this hot spot."""
    weights = np.zeros(model.config.num_vaults)
    weights[:4] = 0.25
    return model.steady_state(
        TrafficPoint.streaming(200.0), vault_weights=weights
    )


def assert_carried_image(prop) -> None:
    """The S·W carried through basis growth is the image of the basis.

    Not compared bit-for-bit: SuperLU's multi-RHS solve rounds a column
    differently depending on how many columns share the call (one per
    block when carried, all at once here) and on the BLAS thread count,
    by ~1e-17. A misaligned or stale column would be off by O(0.01).
    """
    np.testing.assert_allclose(
        prop._SW, prop._apply_s(prop._W), rtol=0, atol=1e-14
    )


class TestExtension:
    """The self-healing and fail-closed paths of ``project``. A fresh
    operator cache keeps the extended basis out of every other test."""

    @pytest.fixture(autouse=True)
    def fresh_operators(self):
        operators.clear_cache()
        yield
        operators.clear_cache()

    def test_out_of_span_state_extends_and_marches(self):
        model = HmcThermalModel(HMC_2_0)
        prop = model.propagator()
        assert_carried_image(prop)
        T0 = out_of_span_state(model)
        rank = prop.rank

        z0, resid = prop.project(T0)
        assert z0 is not None and resid <= prop.project_tol_c
        assert prop.extensions == 1 and prop.rank > rank
        assert prop.healthy
        assert_carried_image(prop)

        tp = TrafficPoint(
            external_gbs=80.0, internal_dram_gbs=120.0, pim_rate_ops_ns=0.4
        )
        K = 48
        model.set_transient_state(T0)
        exact = np.array([model.step(tp) for _ in range(K)])
        Z = prop.march(z0, coeff_columns(tp, model.ambient_c, K))
        np.testing.assert_allclose(prop.dram_peaks(Z), exact, atol=1e-6)
        T_end = prop.reconstruct(Z[:, -1])
        assert float(np.abs(T_end - model.state).max()) < 1e-6

    def test_rank_cap_fails_closed(self):
        model = HmcThermalModel(HMC_2_0)
        prop = model.propagator()
        prop.max_rank = prop.rank
        z, resid = prop.project(out_of_span_state(model))
        assert z is None
        assert resid > prop.project_tol_c
        assert not prop.healthy
        assert prop.extensions == 0


class TestPeakReader:
    """:class:`PeakReader` (the macro engine's certified peak readout)
    against its oracle, :meth:`ReducedPropagator.dram_peaks`, on one
    reader serving a run-like sequence of marches."""

    @pytest.fixture(autouse=True)
    def fresh_operators(self):
        operators.clear_cache()
        yield
        operators.clear_cache()

    def test_matches_full_readout_through_a_run(self):
        model = HmcThermalModel(HMC_2_0)
        prop = model.propagator()
        # A hot spot on four vaults: projecting it first extends the
        # shared basis, so the reader starts with more modes than it
        # keeps and must grow its mode set when the jump excites them.
        z_spot, _ = prop.project(out_of_span_state(model))
        assert z_spot is not None and prop.extensions == 1
        model.warm_start(TrafficPoint(
            external_gbs=80.0, internal_dram_gbs=120.0, pim_rate_ops_ns=0.4
        ))
        z, _ = prop.project(model.state)
        hot = TrafficPoint(
            external_gbs=160.0, internal_dram_gbs=240.0, pim_rate_ops_ns=1.0
        )
        schedule = (
            [(None, hot, k) for k in (1, 8, 64, 64)]            # heating
            + [(None, TrafficPoint.idle(), k) for k in (1, 8, 64)]  # cooling
            + [(z_spot, hot, 16), (None, hot, 64)]              # jump
        )
        reader = prop.peak_reader()
        modes = []
        for z_from, tp, k in schedule:
            Z = prop.march(z if z_from is None else z_from,
                           coeff_columns(tp, model.ambient_c, k))
            np.testing.assert_allclose(
                reader.peaks(Z), prop.dram_peaks(Z), rtol=0, atol=1e-12
            )
            modes.append(reader._S.size)
            z = Z[:, -1]
        assert reader.pruned_readouts > 0
        assert reader.rebuilds >= 2
        assert modes[-1] > modes[0] == PeakReader.MODES_INIT
