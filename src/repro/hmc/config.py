"""HMC architectural configurations (Table IV and the HMC 1.1/2.0 specs).

Quantities cited from the paper:

- HMC 2.0: 8 GB cube, 1 logic die + 8 DRAM dies, 32 vaults, 512 banks,
  4 links at 120 GB/s aggregate (80 GB/s data payload) each → 480 GB/s
  aggregate link bandwidth, 320 GB/s peak data bandwidth.
- HMC 1.1 (prototype): 4 GB, 16 vaults, 2 half-width links, 60 GB/s.
- DRAM timing: tCL = tRCD = tRP = 13.75 ns, tRAS = 27.5 ns.
- Die size 68 mm²; 4.25 mm² per HMC 1.1 vault (same per-vault area assumed
  for HMC 2.0); FU area 0.003 mm².
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class DramTiming:
    """Core DRAM timing parameters in nanoseconds."""

    tCL: float = 13.75
    tRCD: float = 13.75
    tRP: float = 13.75
    tRAS: float = 27.5

    def __post_init__(self) -> None:
        for name in ("tCL", "tRCD", "tRP", "tRAS"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def read_hit_latency(self) -> float:
        """Column access on an already-open row."""
        return self.tCL

    def read_miss_latency(self) -> float:
        """Precharge + activate + column access (row-buffer conflict)."""
        return self.tRP + self.tRCD + self.tCL

    def read_closed_latency(self) -> float:
        """Activate + column access (closed row)."""
        return self.tRCD + self.tCL


@dataclass(frozen=True)
class HmcConfig:
    """Geometry, link, and capacity parameters of an HMC cube."""

    name: str
    capacity_gb: int
    num_vaults: int
    num_dram_dies: int
    banks_per_vault: int
    num_links: int
    link_bandwidth_gbs: float          # aggregate (headers included), per link
    link_data_bandwidth_gbs: float     # usable data payload, per link
    die_area_mm2: float = 68.0
    fu_area_mm2: float = 0.003
    dram_access_granularity_bytes: int = 32   # per-access burst on the TSVs
    pim_operand_bytes: int = 16               # 128-bit FU operand width
    timing: DramTiming = field(default_factory=DramTiming)
    supports_pim: bool = False

    def __post_init__(self) -> None:
        if self.num_vaults <= 0 or self.banks_per_vault <= 0:
            raise ValueError("vault/bank counts must be positive")
        if self.link_data_bandwidth_gbs > self.link_bandwidth_gbs:
            raise ValueError("data bandwidth cannot exceed raw link bandwidth")

    @property
    def total_banks(self) -> int:
        return self.num_vaults * self.banks_per_vault

    @property
    def peak_link_bandwidth_gbs(self) -> float:
        """Aggregate raw link bandwidth (headers included), GB/s."""
        return self.num_links * self.link_bandwidth_gbs

    @property
    def capacity_bytes(self) -> int:
        return self.capacity_gb * (1 << 30)


#: HMC 1.1 prototype (AC-510 module): 4 GB, two half-width links, 60 GB/s.
HMC_1_1 = HmcConfig(
    name="HMC-1.1",
    capacity_gb=4,
    num_vaults=16,
    num_dram_dies=4,
    banks_per_vault=16,
    num_links=2,
    link_bandwidth_gbs=40.0,
    link_data_bandwidth_gbs=30.0,
    supports_pim=False,
)

#: HMC 2.0 per Table IV: 8 GB, 32 vaults, 512 banks, 4 links,
#: 120 GB/s/link aggregate, 80 GB/s/link data → 320 GB/s peak data.
HMC_2_0 = HmcConfig(
    name="HMC-2.0",
    capacity_gb=8,
    num_vaults=32,
    num_dram_dies=8,
    banks_per_vault=16,
    num_links=4,
    link_bandwidth_gbs=120.0,
    link_data_bandwidth_gbs=80.0,
    supports_pim=True,
)
