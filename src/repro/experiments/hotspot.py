"""Vault-skew hotspot study (extension).

Fig. 3's hot spots sit at vault centres even under uniform traffic. Real
workloads can skew traffic toward a few vaults (hub vertices all hashing
to the same channel), concentrating power and raising the peak DRAM
temperature at the *same* total bandwidth. This experiment sweeps the
skew — the fraction of traffic landing on one vault — and reports the
peak temperature, quantifying how much thermal headroom the HMC's
low-order address interleaving buys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.experiments.common import format_table
from repro.thermal.model import HmcThermalModel
from repro.thermal.power import TrafficPoint

#: Skews beyond ~0.3 leave the compact model's validity range (and any
#: real device's operating range) — the point is made well before that.
DEFAULT_SKEWS = (0.0, 0.05, 0.1, 0.2, 0.3)
BANDWIDTH_GBS = 320.0


@dataclass
class HotspotSweep:
    skews: Sequence[float]
    peak_temps_c: List[float]
    #: Temperature cost of the worst skew vs uniform interleaving.
    interleaving_headroom_c: float


def vault_weights_for_skew(num_vaults: int, skew: float) -> np.ndarray:
    """Weight vector: ``skew`` of the traffic on vault 0, rest uniform."""
    if not 0.0 <= skew < 1.0:
        raise ValueError(f"skew must be in [0,1): {skew}")
    weights = np.full(num_vaults, (1.0 - skew) / num_vaults)
    weights[0] += skew
    return weights


def run(skews: Sequence[float] = DEFAULT_SKEWS) -> HotspotSweep:
    model = HmcThermalModel()
    traffic = TrafficPoint.streaming(BANDWIDTH_GBS)
    temps: List[float] = []
    for skew in skews:
        weights = vault_weights_for_skew(model.config.num_vaults, skew)
        temps.append(model.steady_peak_dram_c(traffic, vault_weights=weights))
    return HotspotSweep(
        skews=list(skews),
        peak_temps_c=temps,
        interleaving_headroom_c=temps[-1] - temps[0],
    )


def format_result(sweep: HotspotSweep) -> str:
    rows: List[Tuple[float, float, float]] = [
        (skew, temp, temp - sweep.peak_temps_c[0])
        for skew, temp in zip(sweep.skews, sweep.peak_temps_c)
    ]
    table = format_table(
        ["Traffic share on one vault", "Peak DRAM temp (C)", "vs uniform (C)"],
        rows,
        title=f"Vault-skew hotspots at {BANDWIDTH_GBS:.0f} GB/s, commodity sink",
    )
    return table + (
        f"\n  Low-order address interleaving is worth "
        f"{sweep.interleaving_headroom_c:.1f} C of thermal headroom at the "
        "worst skew tested."
    )
