"""HW-DynT: hardware-based dynamic throttling (Sec. IV-C).

Each GPU core carries a PIM Control Unit (PCU). On a thermal warning the
PCU reduces the number of PIM-enabled warps by a control factor; disabled
warps execute with PIM instructions dynamically translated to regular
CUDA atomics in the decode frontend (Table III). Because the reaction is
fast (tens of cycles), no careful initialization is needed — all warps
start PIM-enabled — but updates are intentionally *delayed* so the HMC
temperature settles between steps (otherwise the controller over-reduces
during the ~1 ms thermal lag).
"""

from __future__ import annotations

from typing import Optional

from repro.core.feedback import FeedbackDelays
from repro.core.policies import OffloadPolicy
from repro.gpu.config import GPU_DEFAULT, GpuConfig
from repro.gpu.kernel import KernelLaunch
from repro.obs.tracer import get_tracer

#: Default warning-driven reduction, in warps across the GPU. Warp
#: granularity is finer than SW-DynT's block granularity (a block is
#: warps_per_block warps), enabling a closer approach to the thermal
#: threshold.
DEFAULT_CONTROL_FACTOR_WARPS = 20

#: Settling detection (Sec. IV-C "Delayed Control Updates"): a reduction
#: whose thermal effect is still playing out shows as a *falling*
#: temperature — acting then would over-reduce, so the PCU waits. A
#: *rising* temperature means the previous reduction was insufficient and
#: the PCU may act again immediately (its own Tthrottle is only ~0.1 µs);
#: a temperature that has settled while the warning persists earns one
#: further fine step per Tthermal.
SETTLE_EPSILON_C = 0.05


class HwDynT(OffloadPolicy):
    """CoolPIM (HW): PCU-based throttling at warp granularity."""

    name = "coolpim-hw"

    def __init__(
        self,
        control_factor: int = DEFAULT_CONTROL_FACTOR_WARPS,
        delays: Optional[FeedbackDelays] = None,
        gpu: GpuConfig = GPU_DEFAULT,
    ) -> None:
        super().__init__()
        if control_factor <= 0:
            raise ValueError(f"control factor must be positive: {control_factor}")
        self.control_factor = control_factor
        self.delays = delays or FeedbackDelays.hardware()
        self.gpu = gpu
        self._active_warps = 0
        self._enabled_warps = 0
        self._effective_enabled = 0
        self._pending_apply_at: Optional[float] = None
        self._last_update_s = float("-inf")
        self._last_temp_c: Optional[float] = None

    # -- lifecycle ------------------------------------------------------------

    def reset(self) -> None:
        super().reset()
        self._active_warps = 0
        self._enabled_warps = 0
        self._effective_enabled = 0
        self._pending_apply_at = None
        self._last_update_s = float("-inf")
        self._last_temp_c = None

    def begin(self, launch: KernelLaunch, now_s: float = 0.0) -> None:
        super().begin(launch, now_s)
        # No initialization analysis needed: start fully enabled
        # (Sec. IV-C) and let the fast feedback find the level.
        self._active_warps = min(launch.num_warps, self.gpu.max_concurrent_warps)
        self._enabled_warps = self._active_warps
        self._effective_enabled = self._active_warps
        self._pending_apply_at = None
        self._last_update_s = float("-inf")
        self._last_temp_c = None
        self.record_fraction(now_s, 1.0)
        get_tracer().counter(
            "core.enabled_warps", self._enabled_warps, cat="core",
            sim_time_ns=now_s * 1e9, clock="sim",
        )

    # -- control --------------------------------------------------------------

    def pim_fraction(self, now_s: float) -> float:
        if self._pending_apply_at is not None and now_s >= self._pending_apply_at:
            self._effective_enabled = self._enabled_warps
            self._pending_apply_at = None
            self.record_fraction(now_s, self.pim_fraction(now_s))
        if self._active_warps == 0:
            return 0.0
        return min(1.0, self._effective_enabled / self._active_warps)

    def on_thermal_warning(self, now_s: float, temp_c: Optional[float] = None) -> None:
        """PCU update with delayed-control settling (Sec. IV-C).

        Two suppression rules implement "Delayed Control Updates": at
        least Tthermal must elapse between actions, *and* the sensed
        temperature must have stopped falling — a falling temperature
        means the previous reduction is still taking effect and acting
        again would over-reduce. Far above the threshold the PCU applies
        the severity-scaled reduction (multi-level ERRSTAT, footnote 4).
        """
        if temp_c is None or self._last_temp_c is None:
            # No trend yet: take one step, start tracking.
            act = now_s - self._last_update_s >= self.delays.thermal_s
            self._last_temp_c = temp_c
        else:
            rising = temp_c > self._last_temp_c + SETTLE_EPSILON_C
            falling = temp_c < self._last_temp_c - SETTLE_EPSILON_C
            self._last_temp_c = temp_c
            if rising:
                act = True  # previous step insufficient, keep throttling
            elif falling:
                act = False  # previous step still taking effect
            else:
                # Settled but the warning persists: one fine step per
                # thermal time constant.
                act = now_s - self._last_update_s >= self.delays.thermal_s
        if not act:
            return
        self._last_update_s = now_s
        self._enabled_warps = max(0, self._enabled_warps - self.control_factor)
        self._pending_apply_at = now_s + self.delays.throttle_s
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "core.pcu_reduce", cat="core",
                sim_time_ns=now_s * 1e9, clock="sim",
                enabled_warps=self._enabled_warps, temp_c=temp_c,
            )
            tracer.counter(
                "core.enabled_warps", self._enabled_warps, cat="core",
                sim_time_ns=now_s * 1e9, clock="sim",
            )

    # -- macro-engine horizon hints --------------------------------------------

    def fraction_horizon(self, now_s: float) -> float:
        """Next scheduled fraction change: the pending warp-count apply.

        A pending apply that is already due is reported as ``now_s``: the
        next :meth:`pim_fraction` call applies it, so no call is pure.
        """
        if self._pending_apply_at is not None:
            return max(now_s, self._pending_apply_at)
        return float("inf")

    def warning_noop_until(self, now_s: float, temp_c: Optional[float] = None) -> float:
        """Idempotency window for repeated warnings at a constant ``temp_c``.

        The handler always stores ``temp_c`` as the settling baseline, so a
        call is a no-op only once the baseline already equals ``temp_c``
        exactly (then the settled branch is taken and nothing mutates until
        Tthermal elapses). Any trend change — including the very first call
        after a sensor sample moved the temperature — must go through the
        real handler, so this returns ``now_s`` in that case.
        """
        if temp_c is None or self._last_temp_c is None or temp_c != self._last_temp_c:
            return now_s
        return self._last_update_s + self.delays.thermal_s

    @property
    def enabled_warps(self) -> int:
        return self._enabled_warps
