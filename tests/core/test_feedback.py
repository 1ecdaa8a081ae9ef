"""Feedback delays (Fig. 8)."""

import pytest

from repro.core.feedback import FeedbackDelays


class TestDelays:
    def test_software_delays_match_fig8(self):
        d = FeedbackDelays.software()
        assert d.throttle_s == pytest.approx(0.1e-3)
        assert d.thermal_s == pytest.approx(1e-3)

    def test_hardware_throttle_is_microseconds(self):
        d = FeedbackDelays.hardware()
        assert d.throttle_s == pytest.approx(0.1e-6)

    def test_hw_throttle_orders_of_magnitude_faster(self):
        # Fig. 8: ~0.1 ms vs ~0.1 us.
        assert FeedbackDelays.software().throttle_s / \
            FeedbackDelays.hardware().throttle_s == pytest.approx(1000.0)

    def test_control_step_is_sum(self):
        d = FeedbackDelays(throttle_s=2e-3, thermal_s=3e-3)
        assert d.control_step_s == pytest.approx(5e-3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FeedbackDelays(throttle_s=-1.0)
