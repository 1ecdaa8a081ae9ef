"""Property-based tests on the full co-simulation (hypothesis).

Small randomized traces through the real pipeline: conservation,
monotonicity, and thermal-exemption invariants must hold for *any* trace,
not just the calibrated workloads.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import IdealThermal, NaiveOffloading, NonOffloading, StaticFraction
from repro.gpu.simulator import SystemSimulator
from repro.sim.trace import OpBatch
from tests.engines import make_launch


small_batches = st.lists(
    st.builds(
        OpBatch,
        reads=st.integers(0, 20_000),
        writes=st.integers(0, 20_000),
        atomics=st.integers(0, 20_000),
        compute_cycles=st.integers(0, 5_000),
        threads=st.just(2048),
        divergent_warp_ratio=st.floats(0.0, 0.9),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=25, deadline=None)
@given(small_batches)
def test_atomics_conserved_across_policies(batches):
    launch = make_launch(batches)
    total = sum(b.atomics for b in batches)
    for policy in (NonOffloading(), NaiveOffloading(), IdealThermal()):
        res = SystemSimulator().run(launch, policy)
        assert res.total_atomics == total
        # served = offloaded + host (host side is coalescing-scaled, so
        # only the offloaded count is exactly conserved)
        assert res.pim_ops <= total


@settings(max_examples=25, deadline=None)
@given(small_batches)
def test_runtime_non_negative_and_finite(batches):
    launch = make_launch(batches)
    res = SystemSimulator().run(launch, NaiveOffloading())
    assert res.runtime_s >= 0.0
    assert res.runtime_s < 10.0  # tiny traces finish in well under seconds
    assert res.package_energy_j >= 0.0


@settings(max_examples=15, deadline=None)
@given(
    small_batches,
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
def test_offloading_monotone_under_ideal_thermal(batches, f1, f2):
    """With thermal effects excluded, more offloading is never slower
    (it relieves both the link and the host-atomic ceiling)."""
    launch = make_launch(batches)
    lo, hi = min(f1, f2), max(f1, f2)

    class ExemptFraction(StaticFraction):
        thermal_exempt = True

    t_lo = SystemSimulator().run(launch, ExemptFraction(lo)).runtime_s
    t_hi = SystemSimulator().run(launch, ExemptFraction(hi)).runtime_s
    assert t_hi <= t_lo * 1.001 + 1e-12


@settings(max_examples=20, deadline=None)
@given(small_batches, st.floats(0.0, 1.0))
def test_offload_fraction_tracks_policy(batches, fraction):
    launch = make_launch(batches)
    res = SystemSimulator().run(launch, StaticFraction(fraction))
    if res.total_atomics > 100:
        assert res.offload_fraction == pytest.approx(fraction, abs=0.05)


@settings(max_examples=20, deadline=None)
@given(small_batches)
def test_ideal_thermal_never_warms_or_warns(batches):
    launch = make_launch(batches)
    sim = SystemSimulator()
    res = sim.run(launch, IdealThermal())
    assert res.peak_dram_temp_c <= sim.thermal.ambient_c + 1e-9
    assert res.thermal_warnings == 0
    assert res.fan_energy_j == 0.0


class TestStaticFraction:
    def test_validation(self):
        with pytest.raises(ValueError):
            StaticFraction(1.5)

    def test_name_encodes_fraction(self):
        assert StaticFraction(0.25).name == "static-0.25"
