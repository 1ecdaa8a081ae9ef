"""Engine equivalence: the macro fast path must reproduce the stepped oracle.

Every policy, run on the same trace through both engines, must meet the
engine contract of :func:`tests.engines.assert_engines_agree`: every
output and ``sim.*`` stat bit-equal, temperatures within
:data:`tests.engines.TEMP_TOL_C` (1e-9 °C). The suite covers cold runs
(randomized traces via hypothesis), warning-band oscillation on the
sensor hysteresis, temperature-phase walks, and the forced
shutdown/recovery path under both the three-phase and the
conservative-shutdown overheat policies; ``test_agreement_check_edges``
holds the checker itself to the contract's edges.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import POLICY_NAMES, StaticFraction
from repro.gpu.caches import CacheModel
from repro.gpu.config import GPU_DEFAULT
from repro.hmc.dram_timing import TemperaturePhasePolicy
from repro.sim.trace import OpBatch
from repro.thermal.cooling import LOW_END_ACTIVE, PASSIVE
from tests.engines import (
    Run,
    assert_engines_agree,
    assert_identical,
    hot_launch,
    make_launch,
    run_both,
    run_one,
    run_traced,
)


random_batches = st.lists(
    st.builds(
        OpBatch,
        reads=st.integers(0, 60_000),
        writes=st.integers(0, 40_000),
        atomics=st.integers(0, 60_000),
        compute_cycles=st.integers(0, 10_000),
        threads=st.just(4096),
        divergent_warp_ratio=st.floats(0.0, 0.9),
    ),
    min_size=1,
    max_size=4,
)


@pytest.mark.parametrize("policy", POLICY_NAMES)
@settings(max_examples=10, deadline=None)
@given(batches=random_batches)
def test_engines_agree_on_random_traces(policy, batches):
    assert_engines_agree(*run_both(make_launch(batches), policy))


@settings(max_examples=10, deadline=None)
@given(batches=random_batches, fraction=st.floats(0.0, 1.0))
def test_engines_agree_for_static_fraction(batches, fraction):
    assert_engines_agree(
        *run_both(make_launch(batches), lambda: StaticFraction(fraction))
    )


#: PEI-style coherence: every other offloaded op writes back a dirty
#: line, so the writeback remainder (``wb_carry``) is live across quanta.
PEI_WRITEBACK = CacheModel(
    GPU_DEFAULT, coherence_mode="writeback", pei_dirty_fraction=0.5
)


@pytest.mark.parametrize("policy", ["naive-offloading", "coolpim-hw"])
@settings(max_examples=10, deadline=None)
@given(batches=random_batches)
def test_engines_agree_in_pei_writeback_mode(policy, batches):
    """The writeback remainder is part of the epoch state the macro
    engine restores after a burst commit and resets at each epoch it
    opens: both engines must agree on every writeback."""
    assert_engines_agree(
        *run_both(make_launch(batches), policy, cache=PEI_WRITEBACK)
    )


class TestHotPaths:
    """Warning oscillation, phase walks, and shutdown/recovery."""

    @pytest.mark.parametrize("policy", ["coolpim-sw", "coolpim-hw"])
    def test_warning_band_oscillation(self, policy):
        """Low-end cooling rides the 85/83 °C hysteresis band: dozens of
        warning deliveries, sensor flips, and NORMAL↔EXTENDED↔CRITICAL
        phase crossings."""
        stepped, macro = run_both(hot_launch(), policy, cooling=LOW_END_ACTIVE)
        assert stepped.result.thermal_warnings > 10
        assert_engines_agree(stepped, macro)

    def test_warning_band_in_pei_writeback_mode(self):
        """Validation- and phase-truncated bursts with a live writeback
        remainder at every commit."""
        stepped, macro = run_both(hot_launch(), "coolpim-hw",
                                  cooling=LOW_END_ACTIVE, cache=PEI_WRITEBACK)
        assert stepped.result.thermal_warnings > 10
        assert_engines_agree(stepped, macro)

    @pytest.mark.parametrize("policy", ["naive-offloading", "coolpim-sw"])
    def test_shutdown_and_recovery(self, policy):
        """Passive cooling drives the die past 105 °C: the run must take
        the shutdown branch, cool down, and finish the trace after
        recovery — identically in both engines."""
        stepped, macro = run_both(hot_launch(n_epochs=6), policy,
                                  cooling=PASSIVE)
        assert stepped.result.shutdowns >= 1
        assert_engines_agree(stepped, macro)

    def test_conservative_shutdown_policy(self):
        """The Sec. III-C all-or-nothing prototype policy: full speed to
        the 95 °C kill switch, then a hard stop."""
        stepped, macro = run_both(
            hot_launch(n_epochs=6),
            "naive-offloading",
            cooling=PASSIVE,
            phase_policy=TemperaturePhasePolicy(conservative_shutdown=True),
        )
        assert stepped.result.shutdowns >= 1
        assert_engines_agree(stepped, macro)

    def test_equivalence_survives_live_telemetry(self):
        """Bit-equality with a telemetry sink attached to both engines:
        the macro engine emits only at commit boundaries, so observation
        must not perturb a single aggregate — and both engines must
        actually produce samples."""
        from repro.telemetry.live import RunTelemetrySink, run_telemetry

        runs = {}
        samples = {}
        for engine in ("stepped", "macro"):
            collected = []
            sink = RunTelemetrySink(emit=collected.append, max_samples=32)
            with run_telemetry(sink):
                runs[engine] = run_one(engine, hot_launch(), "coolpim-hw",
                                       cooling=LOW_END_ACTIVE)
            samples[engine] = collected
        assert_engines_agree(runs["stepped"], runs["macro"])
        for engine, collected in samples.items():
            assert collected, f"{engine} emitted no telemetry"
            assert all(s["engine"] == engine for s in collected)
            times = [s["t_s"] for s in collected]
            assert times == sorted(times)
            assert all(0.0 <= s["progress"] <= 1.0 for s in collected)

    def test_results_identical_with_and_without_sink(self):
        """The observer effect check: attaching a sink must not change
        the stepped oracle's own results either."""
        from repro.telemetry.live import RunTelemetrySink, run_telemetry

        plain = run_one("stepped", hot_launch(), "coolpim-sw",
                        cooling=LOW_END_ACTIVE)
        sink = RunTelemetrySink(emit=lambda s: None, max_samples=16)
        with run_telemetry(sink):
            observed = run_one("stepped", hot_launch(), "coolpim-sw",
                               cooling=LOW_END_ACTIVE)
        assert_identical(observed, plain)

    def test_warnings_fire_at_identical_instants(self):
        """Beyond equal counts: the traced warning instants must match
        step-for-step (the sensor only flips at its 100 µs samples)."""
        events = {}
        for engine in ("stepped", "macro"):
            _, records = run_traced(engine, hot_launch(), "coolpim-hw",
                                    cooling=LOW_END_ACTIVE)
            events[engine] = [
                r["ts"] for r in records if r["name"] == "sim.thermal_warning"
            ]
        assert events["macro"] == events["stepped"]
        assert len(events["macro"]) > 10


def _temp(delta_c):
    """Set the middle timeline temperature ``delta_c`` above the stepped
    run's."""
    def change(stepped, macro):
        timeline = list(macro.timeline)
        k = len(timeline) // 2
        t, _temp_c, rate, fraction = timeline[k]
        timeline[k] = (t, stepped.timeline[k][1] + delta_c, rate, fraction)
        return {"timeline": timeline}
    return change


def _ulp(field):
    """Move ``field`` one ulp up."""
    return lambda stepped, macro: {
        field: math.nextafter(getattr(macro, field), math.inf)
    }


@pytest.fixture(scope="module")
def hot_pair():
    return run_both(hot_launch(), "coolpim-hw", cooling=LOW_END_ACTIVE)


@pytest.mark.parametrize("change,agrees", [
    (_temp(0.9e-9), True),
    (_temp(2e-9), False),
    (_ulp("runtime_s"), False),
    (_ulp("package_energy_j"), False),
    (lambda stepped, macro: {"timeline": macro.timeline[:-1]}, False),
], ids=["temp+0.9e-9", "temp+2e-9", "runtime-ulp", "energy-ulp",
        "short-timeline"])
def test_agreement_check_edges(hot_pair, change, agrees):
    """``assert_engines_agree`` passes just inside the 1e-9 °C contract
    and fails just outside it."""
    stepped, macro = hot_pair
    changes = change(stepped.result, macro.result)
    moved = Run(dataclasses.replace(macro.result, **changes), macro.sim)
    if agrees:
        assert_engines_agree(stepped, moved)
    else:
        with pytest.raises(AssertionError):
            assert_engines_agree(stepped, moved)
