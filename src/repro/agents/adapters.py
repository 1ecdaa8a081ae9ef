"""Bidirectional adapters between ``OffloadPolicy`` and ``Agent``.

The equivalence contract (locked by ``tests/agents/``): running any
paper policy through ``AgentPolicy(PolicyAgent(policy))`` produces a
**bit-identical** :class:`~repro.gpu.simulator.SimulationResult` to
running the bare policy, under both engines. The adapters therefore
forward every call exactly once, in the same order, with the same
arguments — no priming calls, no extra queries, no re-quantization of
returned fractions (clamping uses ``min``/``max``, which are exact
identities for in-range values).
"""

from __future__ import annotations

from typing import Optional, Union

from repro.agents.base import ACTION_NONE, Action, Agent, Observation
from repro.core.policies import OffloadPolicy
from repro.gpu.kernel import KernelLaunch


class PolicyAgent(Agent):
    """Wrap an :class:`OffloadPolicy` as an :class:`Agent`.

    A ``"step"`` observation maps to exactly one ``pim_fraction`` call;
    a ``"warning"`` observation to exactly one ``on_thermal_warning``
    call. The macro purity hints pass straight through, so SW-DynT /
    HW-DynT keep their burst speed under the agent interface.
    """

    def __init__(self, policy: OffloadPolicy) -> None:
        self.policy = policy

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.policy.name

    @property
    def thermal_exempt(self) -> bool:  # type: ignore[override]
        return self.policy.thermal_exempt

    @property
    def pool(self):
        """The wrapped policy's token pool, when it has one."""
        return getattr(self.policy, "pool", None)

    def begin(self, launch: KernelLaunch, now_s: float = 0.0) -> None:
        self.policy.begin(launch, now_s)

    def observe(self, obs: Observation) -> Action:
        if obs.kind == "warning":
            self.policy.on_thermal_warning(obs.now_s, obs.temp_c)
            return ACTION_NONE
        return Action(fraction=self.policy.pim_fraction(obs.now_s))

    def fraction_horizon(self, now_s: float) -> float:
        return self.policy.fraction_horizon(now_s)

    def warning_noop_until(self, now_s: float, temp_c: Optional[float] = None) -> float:
        return self.policy.warning_noop_until(now_s, temp_c)


class AgentPolicy(OffloadPolicy):
    """Expose an :class:`Agent` through the policy interface the
    simulators drive.

    The simulator calls :meth:`bind` before :meth:`begin`, giving the
    adapter a live handle to build observations from (sensor warning
    bit and last reading, HMC flow counters). Unbound use (unit tests,
    offline rollouts) degrades gracefully: warnings are inferred from
    the callback kind and telemetry fields are ``None``.
    """

    def __init__(self, agent: Agent) -> None:
        super().__init__()
        self.agent = agent
        self.name = agent.name
        self._sim = None
        self._fraction = 1.0

    @property
    def thermal_exempt(self) -> bool:  # type: ignore[override]
        return self.agent.thermal_exempt

    # -- lifecycle ----------------------------------------------------------

    def bind(self, sim) -> None:
        self._sim = sim

    def reset(self) -> None:
        super().reset()
        self._fraction = 1.0

    def begin(self, launch: KernelLaunch, now_s: float = 0.0) -> None:
        super().begin(launch, now_s)
        self.agent.begin(launch, now_s)

    # -- observation plumbing ------------------------------------------------

    def _observation(self, kind: str, now_s: float, temp_c) -> Observation:
        sim = self._sim
        if sim is not None:
            warning = sim.sensor.warning
            if kind == "step" and temp_c is None:
                # Warning observations forward the engine's temp_c
                # verbatim; step observations read the latest sample.
                temp_c = sim.sensor.last_temp_c
        else:
            warning = kind == "warning"
        return Observation(
            kind=kind,
            now_s=now_s,
            warning=warning,
            temp_c=temp_c,
            fraction=self._fraction,
            token_pool=getattr(self.agent, "pool", None),
        )

    def _take(self, action: Action, now_s: float) -> None:
        fraction = action.fraction
        if fraction is None:
            return
        fraction = min(1.0, max(0.0, fraction))
        if fraction != self._fraction:
            self.record_fraction(now_s, fraction)
        self._fraction = fraction

    # -- policy interface ----------------------------------------------------

    def pim_fraction(self, now_s: float) -> float:
        self._take(self.agent.observe(self._observation("step", now_s, None)), now_s)
        return self._fraction

    def on_thermal_warning(self, now_s: float, temp_c: Optional[float] = None) -> None:
        self._take(
            self.agent.observe(self._observation("warning", now_s, temp_c)), now_s
        )

    def fraction_horizon(self, now_s: float) -> float:
        return self.agent.fraction_horizon(now_s)

    def warning_noop_until(self, now_s: float, temp_c: Optional[float] = None) -> float:
        return self.agent.warning_noop_until(now_s, temp_c)


def as_agent(obj: Union[Agent, OffloadPolicy]) -> Agent:
    """Coerce to the agent interface (policies get wrapped)."""
    if isinstance(obj, Agent):
        return obj
    if isinstance(obj, OffloadPolicy):
        return PolicyAgent(obj)
    raise TypeError(f"expected Agent or OffloadPolicy, got {type(obj).__name__}")


def as_policy(obj: Union[Agent, OffloadPolicy]) -> OffloadPolicy:
    """Coerce to the policy interface the simulators drive."""
    if isinstance(obj, OffloadPolicy):
        return obj
    if isinstance(obj, Agent):
        return AgentPolicy(obj)
    raise TypeError(f"expected Agent or OffloadPolicy, got {type(obj).__name__}")
