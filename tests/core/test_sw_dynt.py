"""SW-DynT: initialization, throttle delay, rate-limited reduction."""

import pytest

from repro.core.sw_dynt import SwDynT
from repro.gpu.config import GPU_DEFAULT
from repro.gpu.kernel import KernelLaunch
from repro.sim.trace import OpBatch, TraceCursor


def intense_launch(intensity=0.6, blocks=64):
    atomics = int(1000 * intensity)
    threads = blocks * GPU_DEFAULT.threads_per_block
    return KernelLaunch(
        name="hot",
        trace=TraceCursor([OpBatch(reads=1000 - atomics, writes=0,
                                   atomics=atomics, threads=threads)]),
        total_threads=threads,
    )


def cool_launch():
    return KernelLaunch(
        name="cool",
        trace=TraceCursor([OpBatch(reads=1000, writes=0, atomics=5,
                                   threads=4096)]),
        total_threads=4096,
    )


class TestInitialization:
    def test_hot_kernel_starts_throttled(self):
        policy = SwDynT()
        policy.begin(intense_launch(), now_s=0.0)
        assert 0.0 < policy.pim_fraction(0.0) < 1.0

    def test_cool_kernel_starts_unthrottled(self):
        policy = SwDynT()
        policy.begin(cool_launch(), now_s=0.0)
        assert policy.pim_fraction(0.0) == 1.0

    def test_begin_resets_state(self):
        policy = SwDynT()
        policy.begin(intense_launch(), now_s=0.0)
        policy.on_thermal_warning(1.0)
        f_throttled = policy.pim_fraction(2.0)
        policy.begin(intense_launch(), now_s=10.0)
        assert policy.pim_fraction(10.0) > f_throttled


class TestReduction:
    def test_warning_reduces_pool(self):
        policy = SwDynT(control_factor=8)
        policy.begin(intense_launch(), now_s=0.0)
        before = policy.ptp_size
        policy.on_thermal_warning(0.0)
        assert policy.ptp_size < before

    def test_reduction_takes_effect_after_throttle_delay(self):
        policy = SwDynT(control_factor=8)
        policy.begin(intense_launch(), now_s=0.0)
        f0 = policy.pim_fraction(0.0)
        policy.on_thermal_warning(0.0)
        # Before Tthrottle: in-flight PIM blocks still running.
        assert policy.pim_fraction(policy.delays.throttle_s / 2) == f0
        # After Tthrottle: reduced.
        assert policy.pim_fraction(policy.delays.throttle_s * 1.1) < f0

    def test_warnings_rate_limited_by_control_step(self):
        policy = SwDynT(control_factor=8)
        policy.begin(intense_launch(), now_s=0.0)
        policy.on_thermal_warning(0.0)
        size_after_first = policy.ptp_size
        # A burst of warnings within the loop delay acts once.
        for t in (1e-5, 2e-5, 3e-5):
            policy.on_thermal_warning(t)
        assert policy.ptp_size == size_after_first
        # After Tthrottle + Tthermal another reduction lands.
        policy.on_thermal_warning(policy.delays.control_step_s + 1e-6)
        assert policy.ptp_size < size_after_first

    def test_fraction_floor_zero(self):
        policy = SwDynT(control_factor=1000)
        policy.begin(intense_launch(), now_s=0.0)
        t = 0.0
        for _ in range(5):
            policy.on_thermal_warning(t)
            t += policy.delays.control_step_s + 1e-6
        assert policy.pim_fraction(t + 1.0) >= 0.0

    def test_warning_before_begin_is_noop(self):
        SwDynT().on_thermal_warning(0.0)  # must not raise


class TestValidation:
    def test_positive_cf(self):
        with pytest.raises(ValueError):
            SwDynT(control_factor=0)
