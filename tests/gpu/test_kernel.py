"""Kernel launches: geometry and static analysis for Eq. (1)."""

import pytest

from repro.gpu.config import GPU_DEFAULT
from repro.gpu.kernel import KernelLaunch
from repro.sim.trace import OpBatch, TraceCursor


def launch_of(batches, threads=1024):
    return KernelLaunch(
        name="test", trace=TraceCursor(batches), total_threads=threads,
        config=GPU_DEFAULT,
    )


class TestGeometry:
    def test_block_and_warp_counts(self):
        launch = launch_of([], threads=1000)
        assert launch.num_blocks == 4   # ceil(1000/256)
        assert launch.num_warps == 32   # ceil(1000/32)

    def test_positive_threads(self):
        with pytest.raises(ValueError):
            launch_of([], threads=0)


class TestStaticAnalysis:
    def test_pim_intensity_is_atomic_fraction(self):
        launch = launch_of([
            OpBatch(reads=30, writes=10, atomics=20),
            OpBatch(reads=20, writes=0, atomics=20),
        ])
        # 40 atomics / 100 total ops
        assert launch.pim_intensity() == pytest.approx(0.4)

    def test_zero_ops_intensity(self):
        launch = launch_of([OpBatch(0, 0, 0)])
        assert launch.pim_intensity() == 0.0

    def test_divergence_thread_weighted(self):
        launch = launch_of([
            OpBatch(1, 0, 0, threads=100, divergent_warp_ratio=0.5),
            OpBatch(1, 0, 0, threads=300, divergent_warp_ratio=0.1),
        ])
        assert launch.divergent_warp_ratio() == pytest.approx(0.2)

    def test_totals_aggregate(self):
        launch = launch_of([OpBatch(1, 2, 3), OpBatch(4, 5, 6)])
        totals = launch.totals()
        assert (totals.reads, totals.writes, totals.atomics) == (5, 7, 9)
