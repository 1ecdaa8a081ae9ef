"""SW-DynT: software-based dynamic throttling (Sec. IV-B).

The GPU runtime's offloading controller maintains a PIM token pool (PTP).
Launching blocks request tokens FCFS; token-less blocks run the shadow
non-PIM kernel. The PTP is statically initialized from Eq. (1) (plus a
4-block margin) and shrunk by the thermal-interrupt handler:

    PTP = min(PTP − CF, #issuedTokens)

Throttling takes effect after Tthrottle ≈ 0.1 ms (interrupt handling plus
draining in-flight PIM blocks), and the loop cannot usefully act more
often than Tthrottle + Tthermal.
"""

from __future__ import annotations

from typing import Optional

from repro.core.feedback import FeedbackDelays
from repro.core.initialization import PtpInitializer
from repro.core.policies import OffloadPolicy
from repro.core.token_pool import PimTokenPool
from repro.obs.tracer import get_tracer
from repro.gpu.config import GPU_DEFAULT, GpuConfig
from repro.gpu.kernel import KernelLaunch

#: Default thermal-interrupt reduction step, in thread blocks. A larger CF
#: cools faster but risks under-tuning the pool (Sec. IV-B).
DEFAULT_CONTROL_FACTOR_BLOCKS = 8


class SwDynT(OffloadPolicy):
    """CoolPIM (SW): PIM-token-pool throttling at CUDA-block granularity."""

    name = "coolpim-sw"

    def __init__(
        self,
        control_factor: int = DEFAULT_CONTROL_FACTOR_BLOCKS,
        initializer: Optional[PtpInitializer] = None,
        delays: Optional[FeedbackDelays] = None,
        gpu: GpuConfig = GPU_DEFAULT,
    ) -> None:
        super().__init__()
        if control_factor <= 0:
            raise ValueError(f"control factor must be positive: {control_factor}")
        self.control_factor = control_factor
        self.initializer = initializer or PtpInitializer(gpu=gpu)
        self.delays = delays or FeedbackDelays.software()
        self.gpu = gpu
        self.pool: Optional[PimTokenPool] = None
        self._active_blocks = 0
        self._pending_size: Optional[int] = None
        self._pending_apply_at = 0.0
        self._last_action_s = float("-inf")
        self._effective_fraction = 0.0

    # -- lifecycle ------------------------------------------------------------

    def reset(self) -> None:
        super().reset()
        self.pool = None
        self._active_blocks = 0
        self._pending_size = None
        self._pending_apply_at = 0.0
        self._last_action_s = float("-inf")
        self._effective_fraction = 0.0

    def begin(self, launch: KernelLaunch, now_s: float = 0.0) -> None:
        super().begin(launch, now_s)
        size = self.initializer.initial_size(launch)
        # Concurrent blocks resident on the GPU: grid size may be smaller
        # than what the hardware can host.
        self._active_blocks = min(launch.num_blocks, self.gpu.max_concurrent_blocks)
        self.pool = PimTokenPool(size=size)
        # At steady state, min(PTP, active) blocks hold tokens.
        self.pool.issued = min(size, self._active_blocks)
        self._pending_size = None
        self._last_action_s = float("-inf")
        self._effective_fraction = self._fraction_from_pool()
        self.record_fraction(now_s, self._effective_fraction)
        get_tracer().counter(
            "core.ptp_size", self.pool.size, cat="core",
            sim_time_ns=now_s * 1e9, clock="sim",
        )

    def _fraction_from_pool(self) -> float:
        if self.pool is None or self._active_blocks == 0:
            return 0.0
        return min(1.0, self.pool.size / self._active_blocks)

    # -- control --------------------------------------------------------------

    def pim_fraction(self, now_s: float) -> float:
        if self._pending_size is not None and now_s >= self._pending_apply_at:
            # In-flight PIM blocks have drained; the smaller pool is now
            # the effective offloading intensity.
            self._effective_fraction = self._fraction_from_pool()
            self._pending_size = None
            self.record_fraction(now_s, self._effective_fraction)
        return self._effective_fraction

    def on_thermal_warning(self, now_s: float, temp_c=None) -> None:
        """Thermal interrupt → PTP reduction (rate-limited by the loop
        delay so in-flight reductions settle before acting again)."""
        if self.pool is None:
            return
        if now_s - self._last_action_s < self.delays.control_step_s:
            return
        self._last_action_s = now_s
        self.pool.reduce(self.control_factor)
        # Token drain: blocks finishing return tokens; issued converges to
        # the new size as the pool caps re-issue.
        self.pool.issued = min(self.pool.issued, max(self.pool.size, 0))
        self._pending_size = self.pool.size
        self._pending_apply_at = now_s + self.delays.throttle_s
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "core.ptp_reduce", cat="core",
                sim_time_ns=now_s * 1e9, clock="sim",
                ptp_size=self.pool.size, temp_c=temp_c,
            )
            tracer.counter(
                "core.ptp_size", self.pool.size, cat="core",
                sim_time_ns=now_s * 1e9, clock="sim",
            )

    # -- macro-engine horizon hints --------------------------------------------

    def fraction_horizon(self, now_s: float) -> float:
        """Next scheduled fraction change: the pending pool application.

        A pending application that is already due is reported as
        ``now_s``: the next :meth:`pim_fraction` call applies it, so no
        call is pure.
        """
        if self._pending_size is not None:
            return max(now_s, self._pending_apply_at)
        return float("inf")

    def warning_noop_until(self, now_s: float, temp_c=None) -> float:
        """Warnings are pure no-ops inside the rate-limit window.

        :meth:`on_thermal_warning` returns before touching any state while
        ``now_s - _last_action_s < control_step_s`` (and SW-DynT ignores
        ``temp_c`` entirely), so bulk delivery is safe until the window
        closes.
        """
        if self.pool is None:
            return float("inf")
        return self._last_action_s + self.delays.control_step_s

    @property
    def ptp_size(self) -> int:
        return self.pool.size if self.pool is not None else 0
