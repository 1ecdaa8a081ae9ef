"""CoolPIM: thermal-aware source throttling (the paper's contribution).

- :mod:`~repro.core.policies` — the offloading policies evaluated in
  Sec. V: non-offloading, naïve offloading, CoolPIM (SW), CoolPIM (HW),
  and the ideal-thermal upper bound.
- :mod:`~repro.core.sw_dynt` — software dynamic throttling: the GPU
  runtime's PIM token pool, Eq. (1) initialization, and interrupt-driven
  pool reduction.
- :mod:`~repro.core.hw_dynt` — hardware dynamic throttling: per-SM PIM
  Control Units with warp-granular control and delayed updates.
- :mod:`~repro.core.translation` — PIM ⇄ CUDA atomic mapping (Table III).
- :mod:`~repro.core.coolpim` — the :class:`CoolPimSystem` facade that
  wires GPU + HMC + thermal model + policy into one runnable system.
"""

from repro.core.coolpim import CoolPimSystem
from repro.core.feedback import FeedbackDelays
from repro.core.hw_dynt import HwDynT
from repro.core.initialization import PtpInitializer
from repro.core.policies import (
    IdealThermal,
    NaiveOffloading,
    NonOffloading,
    OffloadPolicy,
    make_policy,
)
from repro.core.sw_dynt import SwDynT
from repro.core.token_pool import PimTokenPool

__all__ = [
    "CoolPimSystem",
    "FeedbackDelays",
    "HwDynT",
    "IdealThermal",
    "NaiveOffloading",
    "NonOffloading",
    "OffloadPolicy",
    "PimTokenPool",
    "PtpInitializer",
    "SwDynT",
    "make_policy",
]
