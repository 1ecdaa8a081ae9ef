"""SM compute model: issue floor and divergence serialization."""

import pytest

from repro.gpu.config import GPU_DEFAULT
from repro.gpu.sm import DIVERGENCE_SERIALIZATION, SmArray


@pytest.fixture
def sm():
    return SmArray(GPU_DEFAULT)


class TestComputeTime:
    def test_zero_compute_is_instant(self, sm):
        assert sm.issue_time_ns(0, 0.0) == 0.0

    def test_scales_with_instructions(self, sm):
        t1 = sm.issue_time_ns(1000, 0.0)
        t2 = sm.issue_time_ns(2000, 0.0)
        assert t2 == pytest.approx(2 * t1)

    def test_peak_issue_rate(self, sm):
        t = sm.issue_time_ns(44800, 0.0)
        assert t == pytest.approx(1000.0)  # 44.8 warp-instr/ns

    def test_divergence_inflates(self, sm):
        base = sm.issue_time_ns(1000, 0.0)
        div = sm.issue_time_ns(1000, divergent_warp_ratio=1.0)
        assert div == pytest.approx(base * DIVERGENCE_SERIALIZATION)
