"""Gym-style agent harness over the CoolPIM control loop.

See :mod:`repro.agents.base` for the protocol, :mod:`repro.agents.adapters`
for the bit-identical policy bridges, and :mod:`repro.scenarios` for the
fault-injection layer agents are evaluated against.
"""

from repro.agents.base import ACTION_NONE, Action, Agent, Observation
from repro.agents.adapters import AgentPolicy, PolicyAgent, as_agent, as_policy
from repro.agents.scripted import ScriptedAgent

__all__ = [
    "ACTION_NONE",
    "Action",
    "Agent",
    "AgentPolicy",
    "Observation",
    "PolicyAgent",
    "ScriptedAgent",
    "as_agent",
    "as_policy",
]
