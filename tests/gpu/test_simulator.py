"""System simulator: policy effects, thermal coupling, accounting."""

import pytest

from repro.core.policies import (
    IdealThermal,
    NaiveOffloading,
    NonOffloading,
)
from repro.gpu.caches import CacheModel
from repro.gpu.config import GPU_DEFAULT
from repro.gpu.simulator import WARM_START, SystemSimulator
from repro.hmc.packet import PacketType
from repro.sim.trace import OpBatch
from tests.engines import (
    assert_engines_agree, assert_identical, make_launch, run_one,
)


def synthetic_batches(n_epochs=4, atomics=200_000):
    return [
        OpBatch(reads=100_000, writes=60_000, atomics=atomics,
                compute_cycles=10_000, threads=4096, label=f"e{i}")
        for i in range(n_epochs)
    ]


@pytest.fixture
def sim():
    return SystemSimulator()


class TestBasics:
    def test_non_offloading_has_zero_pim(self, sim):
        res = sim.run(make_launch(synthetic_batches()), NonOffloading())
        assert res.pim_ops == 0
        assert res.host_atomics > 0
        assert res.runtime_s > 0

    def test_naive_offloads_everything(self, sim):
        res = sim.run(make_launch(synthetic_batches()), NaiveOffloading())
        assert res.host_atomics == 0
        assert res.offload_fraction == pytest.approx(1.0, abs=0.01)

    def test_offloading_faster_when_cool(self, sim):
        launch = make_launch(synthetic_batches(n_epochs=2))
        base = sim.run(launch, NonOffloading())
        ideal = sim.run(launch, IdealThermal())
        assert ideal.speedup_over(base) > 1.0

    def test_trace_fully_consumed_and_replayable(self, sim):
        launch = make_launch(synthetic_batches(n_epochs=3))
        r1 = sim.run(launch, NonOffloading())
        r2 = sim.run(launch, NonOffloading())
        assert_identical(r1, r2)
        assert r1.total_atomics == 600_000

    def test_empty_trace(self, sim):
        res = sim.run(make_launch([]), NonOffloading())
        assert res.runtime_s == 0.0
        assert res.link_bytes == 0


class TestThermalCoupling:
    def test_ideal_thermal_never_heats(self, sim):
        res = sim.run(make_launch(synthetic_batches(8)), IdealThermal())
        assert res.peak_dram_temp_c <= sim.thermal.ambient_c + 1e-6
        assert res.thermal_warnings == 0

    def test_hot_workload_warms_and_warns(self, sim):
        # Atomic-heavy trace long enough to cross 85 C under naive offload.
        batches = [
            OpBatch(reads=20_000, writes=15_000, atomics=150_000,
                    threads=4096, label=f"e{i}")
            for i in range(200)
        ]
        res = sim.run(make_launch(batches), NaiveOffloading())
        assert res.peak_dram_temp_c > 85.0
        assert res.thermal_warnings > 0
        assert res.phase_time_s["EXTENDED"] > 0

    def test_warm_start_temperature(self, sim):
        res = sim.run(make_launch(synthetic_batches(1)), NonOffloading())
        expected = sim.thermal.steady_peak_dram_c(WARM_START)
        assert res.peak_dram_temp_c >= expected - 1.0


class TestAccounting:
    def test_atomic_conservation(self, sim):
        launch = make_launch(synthetic_batches(n_epochs=2, atomics=100_000))
        res = sim.run(launch, NaiveOffloading())
        assert res.total_atomics == 200_000
        assert res.pim_ops == pytest.approx(200_000, rel=0.01)

    def test_bandwidth_metrics(self, sim):
        res = sim.run(make_launch(synthetic_batches(2)), NonOffloading())
        assert res.avg_link_bandwidth_gbs > 0
        assert res.data_bytes > 0
        assert res.avg_pim_rate_ops_ns == 0.0

    def test_timeline_sampled(self, sim):
        res = sim.run(make_launch(synthetic_batches(8)), NaiveOffloading())
        assert len(res.timeline) >= 2
        times = [t for t, *_ in res.timeline]
        assert times == sorted(times)

    def test_speedup_requires_positive_runtime(self, sim):
        res = sim.run(make_launch([]), NonOffloading())
        with pytest.raises(ValueError):
            res.speedup_over(res)


class TestAtomicThroughputCeiling:
    def test_host_atomics_bound_the_baseline(self):
        # A trace that is almost pure atomics: baseline time must be close
        # to atomics / host_atomic_ops_per_ns.
        sim = SystemSimulator(cache=CacheModel(GPU_DEFAULT,
                                               host_atomic_coalescing=1.0))
        n = 500_000
        launch = make_launch([OpBatch(reads=0, writes=0, atomics=n,
                                      threads=4096)])
        res = sim.run(launch, NonOffloading())
        floor_s = n / GPU_DEFAULT.host_atomic_ops_per_ns * 1e-9
        assert res.runtime_s >= floor_s * 0.95

    def test_offloading_lifts_the_ceiling(self):
        sim = SystemSimulator(cache=CacheModel(GPU_DEFAULT,
                                               host_atomic_coalescing=1.0))
        n = 500_000
        launch = make_launch([OpBatch(reads=0, writes=0, atomics=n,
                                      threads=4096)])
        base = sim.run(launch, NonOffloading())
        ideal = sim.run(launch, IdealThermal())
        # PIM path: link-bound at 48 B/op rather than ROP-bound.
        assert ideal.speedup_over(base) > 1.5


class TestPeiWriteback:
    """PEI coherence: the writebacks of offloaded ops are real traffic,
    so they reach link bytes, payload bytes and the WRITE64 ledger, not
    only the service time."""

    @staticmethod
    def run(engine, mode):
        launch = make_launch([OpBatch(reads=0, writes=0, atomics=2_000_000,
                                      threads=100_000)])
        return run_one(engine, launch, IdealThermal, cache=CacheModel(
            GPU_DEFAULT, coherence_mode=mode, pei_dirty_fraction=0.5,
        ))

    @staticmethod
    def writebacks(run):
        return run.sim.flow.stats.ledger.transactions[PacketType.WRITE64]

    @pytest.mark.parametrize("engine", ["stepped", "macro"])
    def test_writebacks_reach_bytes_and_ledger(self, engine):
        bypass, wb = self.run(engine, "bypass"), self.run(engine, "writeback")
        wb_writes = self.writebacks(wb)
        assert self.writebacks(bypass) == 0
        # About one writeback per two offloaded ops (dirty fraction 0.5).
        assert wb_writes == pytest.approx(1_000_000, rel=1e-3)
        assert wb.result.link_bytes > bypass.result.link_bytes
        assert wb.result.data_bytes == 64 * wb_writes
        assert wb.result.runtime_s > bypass.result.runtime_s

    @pytest.mark.parametrize("engine", ["stepped", "macro"])
    def test_writeback_total_does_not_drift(self, engine):
        """2M offloaded ops at dirty fraction 0.5 write back exactly 1M
        lines: the per-quantum rounding remainder is carried, where
        rounding each quantum on its own gave 999,988."""
        assert self.writebacks(self.run(engine, "writeback")) == 1_000_000

    def test_engines_agree(self):
        stepped = self.run("stepped", "writeback")
        macro = self.run("macro", "writeback")
        assert self.writebacks(macro) == self.writebacks(stepped)
        assert_engines_agree(stepped, macro)
