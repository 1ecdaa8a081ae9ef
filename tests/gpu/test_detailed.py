"""Detailed (transaction-level) co-simulation."""

import pytest

from repro.core.policies import NaiveOffloading, NonOffloading
from repro.gpu.detailed import DetailedSimulator
from repro.gpu.kernel import KernelLaunch
from repro.gpu.simulator import SystemSimulator
from repro.sim.trace import OpBatch, TraceCursor


def launch_of(batches):
    return KernelLaunch(name="detailed-test", trace=TraceCursor(batches),
                        total_threads=4096)


def small_batches(n=3, reads=800, writes=500, atomics=600):
    return [
        OpBatch(reads=reads, writes=writes, atomics=atomics, threads=4096,
                label=f"e{i}")
        for i in range(n)
    ]


class TestBasics:
    def test_runs_and_accounts(self):
        sim = DetailedSimulator(seed=1)
        res = sim.run(launch_of(small_batches()), NaiveOffloading())
        assert res.transactions > 0
        assert res.pim_ops > 0
        assert res.runtime_s > 0
        assert res.mean_latency_ns > 0
        assert res.link_flits > 0

    def test_non_offloading_issues_no_pim(self):
        sim = DetailedSimulator(seed=1)
        res = sim.run(launch_of(small_batches()), NonOffloading())
        assert res.pim_ops == 0
        assert res.host_atomics > 0

    def test_offloading_moves_fewer_flits(self):
        naive = DetailedSimulator(seed=2).run(
            launch_of(small_batches()), NaiveOffloading()
        )
        base = DetailedSimulator(seed=2).run(
            launch_of(small_batches()), NonOffloading()
        )
        assert naive.link_flits < base.link_flits

    def test_max_transactions_cap(self):
        sim = DetailedSimulator(seed=1, max_transactions=100)
        res = sim.run(launch_of(small_batches(n=10)), NaiveOffloading())
        assert res.transactions == 100

    def test_deterministic_for_seed(self):
        r1 = DetailedSimulator(seed=9).run(
            launch_of(small_batches()), NaiveOffloading()
        )
        r2 = DetailedSimulator(seed=9).run(
            launch_of(small_batches()), NaiveOffloading()
        )
        assert r1.runtime_s == pytest.approx(r2.runtime_s)
        assert r1.link_flits == r2.link_flits

    def test_reports_bandwidth(self):
        res = DetailedSimulator(seed=1).run(
            launch_of(small_batches()), NaiveOffloading()
        )
        assert res.ext_bandwidth_gbs > 0
        # flits * 16 B / runtime, in GB/s (ns cancels the 1e9).
        expected = res.link_flits * 16 / (res.runtime_s * 1e9)
        assert res.ext_bandwidth_gbs == pytest.approx(expected)

    def test_truncation_counts_submitted_host_atomics(self):
        """A mid-epoch max_transactions cut must count the host atomics
        actually submitted, not the epoch's demanded total."""
        batches = [OpBatch(reads=0, writes=0, atomics=400, threads=4096,
                           label="atomic-heavy")]
        full = DetailedSimulator(seed=5).run(launch_of(batches), NonOffloading())
        # Host atomics expand to read+write pairs; cut half way through.
        cap = full.transactions // 2
        truncated = DetailedSimulator(seed=5, max_transactions=cap).run(
            launch_of(batches), NonOffloading()
        )
        assert truncated.transactions == cap
        assert truncated.host_atomics < full.host_atomics
        # Submitted member transactions, in atomic pairs.
        assert truncated.host_atomics == pytest.approx(cap / 2, abs=1)

    def test_batch_size_histogram_recorded(self):
        sim = DetailedSimulator(seed=1)
        sim.run(launch_of(small_batches()), NaiveOffloading())
        hist = sim.stats.get("detailed.epoch_batch_txns")
        assert hist.count == len(small_batches())


class TestCrossFidelity:
    def test_detailed_agrees_with_fluid_on_runtime(self):
        """The two fidelity levels must agree on bulk runtime for a
        well-balanced trace. Epochs are sized so the event-level model's
        bank-conflict tail (real queueing the fluid model abstracts away)
        amortizes below the tolerance."""
        batches = small_batches(n=2, reads=8000, writes=8000, atomics=0)
        launch = launch_of(batches)

        detailed = DetailedSimulator(seed=3, max_transactions=40_000).run(
            launch, NonOffloading()
        )
        fluid = SystemSimulator().run(launch, NonOffloading())
        assert detailed.runtime_s == pytest.approx(fluid.runtime_s, rel=0.35)

    def test_small_epochs_pay_a_queueing_tail(self):
        """Documented divergence: tiny epochs leave the event-level model
        dominated by per-epoch bank-conflict tails, so it runs slower
        than the fluid estimate."""
        batches = small_batches(n=4, reads=400, writes=400, atomics=0)
        launch = launch_of(batches)
        detailed = DetailedSimulator(seed=3).run(launch, NonOffloading())
        fluid = SystemSimulator().run(launch, NonOffloading())
        assert detailed.runtime_s > 1.3 * fluid.runtime_s
