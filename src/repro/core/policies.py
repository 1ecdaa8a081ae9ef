"""Offloading policies evaluated in Sec. V.

A policy answers one question each control step: *what fraction of the
kernel's offloadable atomics issue as PIM instructions right now?* The
four configurations of the paper:

- :class:`NonOffloading` — baseline; every atomic runs on the host.
- :class:`NaiveOffloading` — PEI-style [2]; everything offloads, no
  thermal control.
- CoolPIM SW/HW — :mod:`repro.core.sw_dynt` / :mod:`repro.core.hw_dynt`.
- :class:`IdealThermal` — full offloading with unlimited cooling.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.gpu.kernel import KernelLaunch


class OffloadPolicy:
    """Base policy: full offloading, no reaction to warnings."""

    #: Display name used in result tables.
    name: str = "policy"
    #: Ideal-thermal flag: the simulator skips derating/warnings entirely.
    thermal_exempt: bool = False

    def __init__(self) -> None:
        self.fraction_history: List[Tuple[float, float]] = []

    def bind(self, sim) -> None:
        """Attach the running simulator before :meth:`begin`.

        The paper policies ignore it; agent adapters
        (:mod:`repro.agents`) use the handle to build observations
        (sensor warning bit, sensed temperature, flow counters) without
        the simulator having to know about the agent interface.
        """

    def reset(self) -> None:
        """Clear per-launch state so a policy object can be reused.

        Called from :meth:`begin`; subclasses that keep extra control
        state must extend this (and call ``super().reset()``) rather
        than relying on ``__init__``-time initialization, otherwise a
        second launch inherits the previous run's history.
        """
        self.fraction_history.clear()

    def begin(self, launch: KernelLaunch, now_s: float = 0.0) -> None:
        """Called once when the kernel launches."""
        self.reset()

    def pim_fraction(self, now_s: float) -> float:
        """Share of atomics offloaded at time ``now_s`` (0..1)."""
        return 1.0

    def on_thermal_warning(self, now_s: float, temp_c: Optional[float] = None) -> None:
        """Called when a thermal-warning response reaches the host.

        ``temp_c`` is the sensed peak DRAM temperature when available
        (HW-DynT uses it for severity scaling and settling detection;
        SW-DynT only sees the warning bit).
        """

    def record_fraction(self, now_s: float, fraction: float) -> None:
        self.fraction_history.append((now_s, fraction))

    # -- macro-engine horizon hints ----------------------------------------

    def fraction_horizon(self, now_s: float) -> float:
        """Earliest future time ``pim_fraction`` could change absent new
        warnings — "constant forever" for open-loop policies.

        The macro-step engine uses this to size vectorized bursts: calls
        to :meth:`pim_fraction` strictly before the horizon are guaranteed
        pure (no state change, same return value). Feedback policies
        override it with their next scheduled token/warp update — or
        ``now_s`` itself once that update is due, since the next
        :meth:`pim_fraction` call applies it.
        """
        return float("inf")

    def warning_noop_until(self, now_s: float, temp_c: Optional[float] = None) -> float:
        """Earliest time a repeated :meth:`on_thermal_warning` call with
        this same ``temp_c`` could have any effect.

        The base handler is a pure no-op, so warnings can be delivered in
        bulk forever. Feedback policies return the end of their
        rate-limit/settling window — or ``now_s`` itself when a call right
        now would mutate state (the engine then falls back to a scalar
        step so the warning fires at exactly the oracle instant).
        """
        return float("inf")


class NonOffloading(OffloadPolicy):
    """Baseline: HMC as plain GPU memory, no PIM."""

    name = "non-offloading"

    def pim_fraction(self, now_s: float) -> float:
        return 0.0


class NaiveOffloading(OffloadPolicy):
    """PEI-style offloading of every PIM-capable atomic, no throttling.

    The HMC still derates/warns — this policy simply ignores it, which is
    what produces the Fig. 10 slowdowns on hot workloads.
    """

    name = "naive-offloading"

    def pim_fraction(self, now_s: float) -> float:
        return 1.0


class StaticFraction(OffloadPolicy):
    """Fixed offloading fraction, no feedback — an open-loop ablation
    point between non-offloading (0.0) and naïve offloading (1.0)."""

    name = "static-fraction"

    def __init__(self, fraction: float) -> None:
        super().__init__()
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0,1], got {fraction}")
        self.fraction = fraction
        self.name = f"static-{fraction:.2f}"

    def pim_fraction(self, now_s: float) -> float:
        return self.fraction


class IdealThermal(OffloadPolicy):
    """Unlimited cooling: full offloading with the HMC pinned cold.

    An unrealizable upper bound (Sec. V-B: the required cooling power and
    space are impractical); used to size the headroom CoolPIM captures.
    """

    name = "ideal-thermal"
    thermal_exempt = True

    def pim_fraction(self, now_s: float) -> float:
        return 1.0


#: ``static-<fraction>`` policy names, e.g. ``static-0.25``.
_STATIC_RE = re.compile(r"^static-(\d+(?:\.\d+)?)$")


def parse_static_fraction(name: str) -> Optional[float]:
    """``static-0.25`` → ``0.25``; ``None`` when ``name`` is not a
    static-fraction policy name (fractions outside [0, 1] raise)."""
    m = _STATIC_RE.match(name)
    if m is None:
        return None
    fraction = float(m.group(1))
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"static fraction must be in [0,1], got {fraction}")
    return fraction


def is_policy_name(name: str) -> bool:
    """True for registered names plus the ``static-<fraction>`` family."""
    if name in POLICY_NAMES:
        return True
    try:
        return parse_static_fraction(name) is not None
    except ValueError:
        return False


def make_policy(name: str, **kwargs) -> OffloadPolicy:
    """Factory by configuration name used in experiment harnesses.

    Accepts: ``non-offloading``, ``naive-offloading``, ``coolpim-sw``,
    ``coolpim-hw``, ``ideal-thermal``, and the open-loop ablation family
    ``static-<fraction>`` (e.g. ``static-0.25``).
    """
    from repro.core.hw_dynt import HwDynT
    from repro.core.sw_dynt import SwDynT

    table = {
        "non-offloading": NonOffloading,
        "naive-offloading": NaiveOffloading,
        "coolpim-sw": SwDynT,
        "coolpim-hw": HwDynT,
        "ideal-thermal": IdealThermal,
    }
    try:
        cls = table[name]
    except KeyError:
        fraction = parse_static_fraction(name)
        if fraction is not None:
            policy = StaticFraction(fraction, **kwargs)
            policy.name = name  # round-trip the requested spelling
            return policy
        raise KeyError(
            f"unknown policy {name!r}; available: {sorted(table)} "
            "or static-<fraction> (e.g. static-0.25)"
        ) from None
    return cls(**kwargs)


#: Evaluation order used by the figures.
POLICY_NAMES = [
    "non-offloading",
    "naive-offloading",
    "coolpim-sw",
    "coolpim-hw",
    "ideal-thermal",
]
