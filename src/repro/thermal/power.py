"""Traffic → power conversion (Sec. III-B/C and V-A).

Energy constants from the paper:

- DRAM layers: 3.7 pJ/bit (Micron, [14]) — applied to *internal* DRAM
  bandwidth (external payload plus the 2×16 B per PIM op).
- Logic layer: 6.78 pJ/bit — applied to off-chip payload bandwidth.
- PIM FU: ``Power(FU) = E × FU_width × PIM_rate`` with FU width 128 bit;
  ``E`` is calibrated so Fig. 5's temperature/PIM-rate slope holds (the
  paper derives it from 28 nm synthesis).

Static (idle) power models the always-on SerDes links and DRAM standby
current; it is calibrated to the 33 °C idle point with commodity cooling
(Sec. III-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.hmc.config import HmcConfig
from repro.thermal.floorplan import Floorplan

#: Energy constants (J/bit).
DRAM_ENERGY_PER_BIT = 3.7e-12
LOGIC_ENERGY_PER_BIT = 6.78e-12
#: Calibrated effective energy per PIM-op bit. This is not the bare ALU
#: energy: a PIM op's 2 × 16 B random DRAM accesses pay full row
#: activations (far costlier per bit than the streaming 3.7 pJ/bit), plus
#: vault-controller command handling and the FU itself. The lumped value
#: is calibrated so Fig. 5 reproduces exactly — 85 °C at 1.3 op/ns and
#: 105 °C at 6.5 op/ns on the link-saturated operating line (see
#: TrafficPoint.pim_saturated and DESIGN.md §5).
FU_ENERGY_PER_BIT = 2.057e-11
FU_WIDTH_BITS = 128

#: Static power split (W): SerDes + PLLs on the logic die dominate idle.
#: Calibrated with the interface scale to the 33 °C idle / 81 °C full-
#: bandwidth commodity-cooling points (Sec. III-B).
STATIC_LOGIC_W = 3.429
STATIC_DRAM_TOTAL_W = 0.8


def _check_rates(external_gbs, internal_dram_gbs, pim_rate_ops_ns) -> None:
    """:class:`TrafficPoint`'s guard, shared with the rate core
    :meth:`PowerModel.package_w` that bypasses it."""
    if min(external_gbs, internal_dram_gbs, pim_rate_ops_ns) < 0:
        raise ValueError(
            f"negative traffic: TrafficPoint(external_gbs={external_gbs}, "
            f"internal_dram_gbs={internal_dram_gbs}, "
            f"pim_rate_ops_ns={pim_rate_ops_ns})"
        )


@dataclass(frozen=True)
class TrafficPoint:
    """Operating point handed to the thermal model.

    Attributes
    ----------
    external_gbs:
        Off-chip payload bandwidth (GB/s).
    internal_dram_gbs:
        Internal DRAM bandwidth (GB/s), ≥ external payload when PIM runs.
    pim_rate_ops_ns:
        PIM operations per nanosecond (= Gop/s).
    """

    external_gbs: float = 0.0
    internal_dram_gbs: float = 0.0
    pim_rate_ops_ns: float = 0.0

    def __post_init__(self) -> None:
        _check_rates(
            self.external_gbs, self.internal_dram_gbs, self.pim_rate_ops_ns
        )

    @classmethod
    def idle(cls) -> "TrafficPoint":
        return cls()

    @classmethod
    def streaming(cls, data_gbs: float) -> "TrafficPoint":
        """Plain read/write traffic (no PIM): internal == external."""
        return cls(external_gbs=data_gbs, internal_dram_gbs=data_gbs)

    @classmethod
    def with_pim(cls, data_gbs: float, pim_rate_ops_ns: float) -> "TrafficPoint":
        """External payload plus PIM ops (2 × 16 B internal each)."""
        internal = data_gbs + pim_rate_ops_ns * 32.0
        return cls(
            external_gbs=data_gbs,
            internal_dram_gbs=internal,
            pim_rate_ops_ns=pim_rate_ops_ns,
        )

    @classmethod
    def pim_saturated(cls, pim_rate_ops_ns: float) -> "TrafficPoint":
        """Fig. 5 operating point: links saturated by PIM + regular mix.

        With PIM at rate ρ, the request lanes carry 2 FLITs per op and the
        remaining capacity a balanced read/write mix whose payload is
        320 − 42.67ρ GB/s; adding the 2 × 16 B internal accesses per op,
        both the payload-equivalent external bandwidth and the internal
        DRAM bandwidth come to 320 − 10.67ρ GB/s.
        """
        if pim_rate_ops_ns < 0:
            raise ValueError(f"negative PIM rate: {pim_rate_ops_ns}")
        rw_payload = max(0.0, 320.0 - (128.0 / 3.0) * pim_rate_ops_ns)
        level = rw_payload + 32.0 * pim_rate_ops_ns
        return cls(
            external_gbs=level,
            internal_dram_gbs=level,
            pim_rate_ops_ns=pim_rate_ops_ns,
        )


class PowerModel:
    """Computes per-layer power (totals and floorplan maps)."""

    def __init__(
        self,
        config: HmcConfig,
        dram_energy_per_bit: float = DRAM_ENERGY_PER_BIT,
        logic_energy_per_bit: float = LOGIC_ENERGY_PER_BIT,
        fu_energy_per_bit: float = FU_ENERGY_PER_BIT,
        static_logic_w: float = STATIC_LOGIC_W,
        static_dram_total_w: float = STATIC_DRAM_TOTAL_W,
    ) -> None:
        for name, v in (
            ("dram_energy_per_bit", dram_energy_per_bit),
            ("logic_energy_per_bit", logic_energy_per_bit),
            ("fu_energy_per_bit", fu_energy_per_bit),
            ("static_logic_w", static_logic_w),
            ("static_dram_total_w", static_dram_total_w),
        ):
            if v < 0:
                raise ValueError(f"{name} cannot be negative: {v}")
        self.config = config
        self.dram_energy_per_bit = dram_energy_per_bit
        self.logic_energy_per_bit = logic_energy_per_bit
        self.fu_energy_per_bit = fu_energy_per_bit
        self.static_logic_w = static_logic_w
        self.static_dram_total_w = static_dram_total_w

    # -- scalar powers -----------------------------------------------------------
    #
    # One formula per component, on a plain rate; :meth:`package_w` and
    # :meth:`layer_power_maps` both call it.

    def logic_dynamic_w(self, external_gbs: float) -> float:
        """Logic-die switching power from off-chip traffic (GB/s)."""
        return self.logic_energy_per_bit * external_gbs * 1e9 * 8

    def dram_dynamic_w(self, internal_dram_gbs: float) -> float:
        """Total DRAM-stack switching power from internal traffic (GB/s)."""
        return self.dram_energy_per_bit * internal_dram_gbs * 1e9 * 8

    def fu_power_w(self, pim_rate_ops_ns: float) -> float:
        """Power(FU) = E × FU_width × PIM_rate (Sec. III-C)."""
        return self.fu_energy_per_bit * FU_WIDTH_BITS * pim_rate_ops_ns * 1e9

    def dram_total_w(self, internal_dram_gbs: float) -> float:
        return self.static_dram_total_w + self.dram_dynamic_w(internal_dram_gbs)

    def package_total_w(self, t: TrafficPoint, dram_energy_scale: float = 1.0) -> float:
        """:meth:`package_w` of ``t``'s rates."""
        return self.package_w(
            t.external_gbs, t.internal_dram_gbs, t.pim_rate_ops_ns,
            dram_energy_scale,
        )

    def package_w(
        self, external_gbs: float, internal_dram_gbs: float,
        pim_rate_ops_ns: float, dram_energy_scale: float = 1.0,
    ) -> float:
        """Whole-package power from three rates, with the hot-phase DRAM
        energy penalty applied to the DRAM-dominated components (static
        DRAM, internal traffic, PIM ops) — the same split the thermal
        basis uses. Keeps :class:`TrafficPoint`'s guard on the rates."""
        _check_rates(external_gbs, internal_dram_gbs, pim_rate_ops_ns)
        if dram_energy_scale < 0:
            raise ValueError(f"negative energy scale: {dram_energy_scale}")
        unscaled = self.static_logic_w + self.logic_dynamic_w(external_gbs)
        scaled = (
            self.fu_power_w(pim_rate_ops_ns)
            + self.dram_total_w(internal_dram_gbs)
        )
        return unscaled + dram_energy_scale * scaled

    # -- floorplan maps ---------------------------------------------------------

    def layer_power_maps(
        self,
        floorplan: Floorplan,
        t: TrafficPoint,
        vault_weights: Optional[np.ndarray] = None,
    ) -> Dict[str, np.ndarray]:
        """Per-powered-layer power maps keyed by layer name.

        ``vault_weights`` (summing to 1) skews traffic across vaults;
        address interleaving makes the default uniform.

        The vault controller + FU share of the logic die's power is
        concentrated at vault centres — this produces the per-vault hot
        spots of Fig. 3.
        """
        nv = self.config.num_vaults
        if vault_weights is None:
            weights = np.full(nv, 1.0 / nv)
        else:
            weights = np.asarray(vault_weights, dtype=float)
            if weights.shape != (nv,):
                raise ValueError(f"expected {nv} vault weights, got {weights.shape}")
            if np.any(weights < 0) or not np.isclose(weights.sum(), 1.0):
                raise ValueError("vault weights must be non-negative and sum to 1")

        maps: Dict[str, np.ndarray] = {}

        # Logic die: static spread uniformly (SerDes ring), dynamic split
        # between vault controllers (concentrated) and switch/links.
        logic_static = floorplan.uniform_map(self.static_logic_w)
        link_share = 0.5  # switch + SerDes part of dynamic logic power
        dyn = self.logic_dynamic_w(t.external_gbs)
        logic_links = floorplan.uniform_map(dyn * link_share)
        per_vault_ctrl = dyn * (1.0 - link_share) * weights
        per_vault_fu = self.fu_power_w(t.pim_rate_ops_ns) * weights
        logic_vaults = floorplan.vault_map(per_vault_ctrl + per_vault_fu,
                                           center_fraction=0.8)
        maps["logic"] = logic_static + logic_links + logic_vaults

        # DRAM dies: split the stack's power evenly across dies, spread
        # per-vault (arrays span the vault footprint).
        n_dram = self.config.num_dram_dies
        dram_total = self.dram_total_w(t.internal_dram_gbs)
        per_die = dram_total / n_dram
        for i in range(n_dram):
            maps[f"dram{i}"] = floorplan.vault_map(per_die * weights,
                                                   center_fraction=0.0)
        return maps
