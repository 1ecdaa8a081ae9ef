"""Scenario event model: discrete, seeded, piecewise-constant.

A :class:`Scenario` is an immutable, fully materialized event stream.
Continuous physical processes (a heat sink losing efficiency over a
couple of milliseconds, an ambient excursion rising and falling) are
compiled into staircases of absolute-level events at generation time, so
the runtime driver never interpolates — it only switches state at event
instants. The macro engine treats each instant as a commit boundary,
which keeps injected runs bit-identical between the ``macro`` and
``stepped`` engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

#: Recognized event kinds and their ``value``/``extra`` payloads.
#:
#: - ``cooling-offset``: ``value`` = absolute boundary-temperature
#:   penalty (°C) from sink/fan degradation (0 = healthy).
#: - ``ambient-offset``: ``value`` = absolute ambient excursion (°C,
#:   may be negative; 0 = nominal).
#: - ``sensor-noise``: ``value`` = Gaussian σ in °C (0 = off);
#:   ``extra`` = integer RNG seed for the window's noise stream.
#: - ``sensor-dropout``: ``value`` = 1 while readings are lost, 0 clear.
#: - ``vault-derating``: ``value`` = fraction of nominal vault service
#:   capacity available, in (0, 1] (1 = healthy).
#: - ``phase-mix``: ``value`` = memory-traffic multiplier,
#:   ``extra`` = compute-cycle multiplier applied to subsequent epochs.
EVENT_KINDS = (
    "cooling-offset",
    "ambient-offset",
    "sensor-noise",
    "sensor-dropout",
    "vault-derating",
    "phase-mix",
)


@dataclass(frozen=True)
class ScenarioEvent:
    """One injection instant. Levels are absolute, not deltas, so replay
    from any prefix of the stream reconstructs the same state."""

    t_s: float
    kind: str
    value: float = 0.0
    extra: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {self.kind!r}; expected one of {EVENT_KINDS}"
            )
        if self.t_s < 0.0:
            raise ValueError(f"event time must be >= 0, got {self.t_s}")
        if self.kind == "vault-derating" and not 0.0 < self.value <= 1.0:
            # At 0 the vaults serve nothing: every quantum elapses with
            # no progress and the run never ends.
            raise ValueError(
                f"vault-derating value must be in (0, 1], got {self.value}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "t_s": self.t_s,
            "kind": self.kind,
            "value": self.value,
            "extra": self.extra,
        }


@dataclass(frozen=True)
class Scenario:
    """A named, seeded, fully compiled injection stream.

    ``events`` is sorted by time; the same ``(name, seed)`` pair always
    compiles to the same stream, which is what makes injected runs cache
    and dedupe like clean runs (the content key stores only the pair).
    """

    name: str
    seed: int
    events: Tuple[ScenarioEvent, ...]

    def __post_init__(self) -> None:
        times = [e.t_s for e in self.events]
        if times != sorted(times):
            raise ValueError("scenario events must be sorted by time")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "events": [e.to_dict() for e in self.events],
        }
