"""PIM token pool (PTP) — the SW-DynT control variable.

The GPU runtime's offloading controller maintains a pool whose size is the
maximum number of thread blocks allowed to run PIM-enabled code
(Sec. IV-B). Blocks holding a token run the original PIM kernel, the rest
the shadow non-PIM kernel; :class:`repro.core.sw_dynt.SwDynT` models the
holders as ``min(size, active blocks)``. The thermal interrupt handler
shrinks the pool:

    PTP_size = min(PTP_size − CF, #issuedTokens)
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PimTokenPool:
    """Token pool with interrupt-driven down-tuning."""

    size: int
    issued: int = 0

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"pool size cannot be negative: {self.size}")
        if not 0 <= self.issued <= self.size:
            raise ValueError(
                f"issued ({self.issued}) must be within [0, size={self.size}]"
            )

    def reduce(self, control_factor: int) -> int:
        """Thermal-interrupt reduction (Sec. IV-B).

        ``PTP = min(PTP − CF, #issuedToken)`` — never below zero. Returns
        the new size. Already-issued tokens above the new size are not
        revoked; they drain as blocks complete.
        """
        if control_factor < 0:
            raise ValueError(f"control factor cannot be negative: {control_factor}")
        self.size = max(0, min(self.size - control_factor, self.issued))
        return self.size
