"""Gym-style agent protocol for the CoolPIM control loop.

The paper's policies are hardwired classes driven by two callbacks
(``pim_fraction`` each control step, ``on_thermal_warning`` when the
ERRSTAT bit arrives). This module opens that loop into an
observe → act interface so scripted or learned controllers plug into
the same simulators:

- an :class:`Observation` packages what the GPU runtime can actually
  see at one instant — the clock, the sensed warning bit and last
  temperature reading, the currently effective throttle fraction, the
  SW token pool (when one exists), and the HMC's cumulative flow
  counters;
- an :class:`Action` optionally sets the offloading throttle fraction
  (``None`` = hold).

Agents run *inside* the simulation loop via the
:class:`~repro.agents.adapters.AgentPolicy` adapter, so they work under
both the ``stepped`` oracle and the ``macro`` fast path. The macro
engine's burst speculation relies on the same two purity hints the
hardwired policies provide (:meth:`Agent.fraction_horizon`,
:meth:`Agent.warning_noop_until`); the base defaults are maximally
conservative — correct for any agent, at scalar-path speed. Override
them to get burst speed back (see :class:`~repro.agents.scripted.ScriptedAgent`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.gpu.kernel import KernelLaunch


@dataclass(frozen=True)
class Action:
    """What an agent may do at one observation instant.

    fraction:
        New offloading throttle fraction in [0, 1] (clamped), or
        ``None`` to hold the current fraction.
    """

    fraction: Optional[float] = None


#: Singleton "hold" action.
ACTION_NONE = Action()


@dataclass(frozen=True)
class Observation:
    """One instant of the control loop, as seen from the GPU runtime.

    kind:
        ``"step"`` — a control-step fraction query (the returned
        action's fraction becomes the effective fraction for the step);
        ``"warning"`` — a thermal-warning response reached the host.
    now_s:
        Simulated time.
    warning:
        Sensor warning bit currently latched.
    temp_c:
        Last sensed peak DRAM temperature (``None`` before the first
        sample, or when the simulator is not bound).
    fraction:
        Currently effective throttle fraction.
    token_pool:
        The SW-DynT PIM token pool when the agent manages one, else
        ``None`` (exposed so pool-aware agents can read size/issued).

    Served traffic is not observed: the engine keeps the one account of
    it (:class:`~repro.gpu.simulator.SimulationResult` and the ``sim.*``
    stats), which a run reports when it ends.
    """

    kind: str
    now_s: float
    warning: bool = False
    temp_c: Optional[float] = None
    fraction: float = 1.0
    token_pool: Optional[Any] = None


class Agent:
    """Base agent: observes everything, does nothing.

    Subclasses override :meth:`observe`; episodic state belongs in
    :meth:`begin` so one agent object can be reused across launches
    (mirroring ``OffloadPolicy.reset``).
    """

    #: Display name used in result tables.
    name: str = "agent"
    #: Ideal-thermal flag forwarded to the simulator (skips derating).
    thermal_exempt: bool = False

    def begin(self, launch: KernelLaunch, now_s: float = 0.0) -> None:
        """Episode reset; called once per kernel launch."""

    def observe(self, obs: Observation) -> Action:
        """Consume one observation, return an action (default: hold)."""
        return ACTION_NONE

    # -- macro-engine purity hints ------------------------------------------
    #
    # Semantics are identical to OffloadPolicy's: ``fraction_horizon`` is
    # the earliest future instant a *step* observation could change the
    # fraction absent new warnings; ``warning_noop_until`` the earliest a
    # repeated *warning* observation at the same temp_c could mutate
    # state. The defaults promise nothing (every instant may act), which
    # forces the macro engine onto single-step bursts / the scalar path —
    # always correct, never fast.

    def fraction_horizon(self, now_s: float) -> float:
        return now_s

    def warning_noop_until(self, now_s: float, temp_c: Optional[float] = None) -> float:
        return now_s
