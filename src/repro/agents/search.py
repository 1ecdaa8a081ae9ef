"""Search-based agents: no model of the loop, just online search.

:class:`HillClimbAgent` hill-climbs its *control factor* — the per-cut
throttle reduction — instead of using the paper's fixed CF: a cut that
fails to clear the warning doubles the factor, a quiet stretch halves it
and relaxes the fraction back up. The result is a controller that
searches for the largest sustainable offloading intensity under whatever
(possibly degraded — see :mod:`repro.scenarios`) thermal conditions it
finds itself in.
"""

from __future__ import annotations

from typing import Optional

from repro.agents.base import ACTION_NONE, Action, Agent, Observation
from repro.gpu.kernel import KernelLaunch


class HillClimbAgent(Agent):
    """Adaptive-step throttling via hill climbing over the control factor.

    Control law, evaluated per observation:

    - **warning** (rate-limited to one *cut* per ``act_period_s`` —
      measured against the last cut, not the last relax, so a quiet
      stretch never starves the thermal response): if the previous
      action was also a cut, that cut didn't clear the warning — double
      the control factor (up to ``max_factor``); if the loop had been
      relaxing, restart the search from the configured
      ``control_factor`` (the decayed exploration step is too small for
      an emergency). Then cut the fraction by the factor.
    - **quiet step** (no warning latched, and at least
      ``recover_period_s`` since the last action of either kind): halve
      the factor (down to ``min_factor``) and relax the fraction up by
      ``recover_step``.

    Macro purity hints mirror SW-DynT's shape: step observations cannot
    act before the recovery deadline, warning observations are no-ops
    inside the rate-limit window — both engines therefore see identical
    action instants and the equivalence suite holds bit-exactly.
    """

    name = "hill-climb"

    def __init__(
        self,
        initial_fraction: float = 1.0,
        control_factor: float = 0.125,
        min_factor: float = 1.0 / 64.0,
        max_factor: float = 0.5,
        act_period_s: float = 1.2e-3,
        recover_period_s: float = 5e-3,
        recover_step: float = 0.0625,
    ) -> None:
        if not 0.0 <= initial_fraction <= 1.0:
            raise ValueError(f"initial fraction must be in [0,1]: {initial_fraction}")
        if not 0.0 < min_factor <= control_factor <= max_factor <= 1.0:
            raise ValueError(
                "need 0 < min_factor <= control_factor <= max_factor <= 1, got "
                f"{min_factor}/{control_factor}/{max_factor}"
            )
        self.initial_fraction = initial_fraction
        self.control_factor = control_factor
        self.min_factor = min_factor
        self.max_factor = max_factor
        self.act_period_s = act_period_s
        self.recover_period_s = recover_period_s
        self.recover_step = recover_step
        self.begin(None)  # type: ignore[arg-type]

    def begin(self, launch: Optional[KernelLaunch], now_s: float = 0.0) -> None:
        self._fraction = self.initial_fraction
        self._factor = self.control_factor
        self._last_action_s = float("-inf")
        self._last_cut_s = float("-inf")
        self._last_was_cut = False

    def observe(self, obs: Observation) -> Action:
        now_s = obs.now_s
        if obs.kind == "warning":
            if now_s - self._last_cut_s < self.act_period_s:
                return ACTION_NONE
            if self._last_was_cut:
                # The previous cut didn't clear the warning: climb.
                self._factor = min(self._factor * 2.0, self.max_factor)
            else:
                # Coming out of a relax phase the factor has decayed
                # toward min_factor — too timid for a thermal emergency.
                self._factor = max(self._factor, self.control_factor)
            self._fraction = max(0.0, self._fraction - self._factor)
            self._last_action_s = now_s
            self._last_cut_s = now_s
            self._last_was_cut = True
            return Action(fraction=self._fraction)
        # Step observation: relax only on quiet stretches.
        if obs.warning or now_s - self._last_action_s < self.recover_period_s:
            return ACTION_NONE
        self._factor = max(self._factor / 2.0, self.min_factor)
        self._fraction = min(1.0, self._fraction + self.recover_step)
        self._last_action_s = now_s
        self._last_was_cut = False
        return Action(fraction=self._fraction)

    # -- macro purity hints ---------------------------------------------------

    def fraction_horizon(self, now_s: float) -> float:
        """A step observation is a guaranteed no-op before the recovery
        deadline (the warning-latched early return holds the fraction,
        and a warning that cuts the fraction ends the macro burst)."""
        return max(now_s, self._last_action_s + self.recover_period_s)

    def warning_noop_until(self, now_s: float, temp_c=None) -> float:
        """Warnings are pure no-ops inside the cut rate-limit window."""
        return self._last_cut_s + self.act_period_s
