"""Tables I–IV: the paper's constant tables, regenerated from the code.

Each ``table*`` function derives its rows from the implementation (not
from literals local to this module), so the table doubles as a check that
the model encodes the paper's parameters.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.translation import PIM_TO_CUDA
from repro.experiments.common import format_table
from repro.gpu.config import GPU_DEFAULT
from repro.hmc.config import HMC_2_0
from repro.hmc.isa import OPCODE_INFO, PimOpClass
from repro.hmc.packet import PacketType, flit_cost
from repro.thermal.cooling import COOLING_SOLUTIONS, relative_fan_power


def table1_rows() -> List[Tuple[str, str, str]]:
    """Table I: FLIT cost per transaction type."""
    labels = {
        PacketType.READ64: "64-byte READ",
        PacketType.WRITE64: "64-byte WRITE",
        PacketType.PIM: "PIM inst. without return",
        PacketType.PIM_RET: "PIM inst. with return",
    }
    rows = []
    for ptype, label in labels.items():
        req, rsp = flit_cost(ptype)
        rows.append((label, f"{req} FLITs", f"{rsp} FLITs"))
    return rows


def table1() -> str:
    return format_table(
        ["Type", "Request", "Response"],
        table1_rows(),
        title="Table I - HMC memory transaction bandwidth requirement "
        "(FLIT size: 128-bit)",
    )


def table2_rows() -> List[Tuple[str, float, str]]:
    """Table II: cooling solutions with fan-curve power."""
    rows = []
    for cooling in COOLING_SOLUTIONS.values():
        power = relative_fan_power(
            cooling.thermal_resistance_c_w, cooling.wheel_diameter_relative
        )
        label = "0" if power == 0 else f"{power:.0f}x"
        rows.append((cooling.name, cooling.thermal_resistance_c_w, label))
    return rows


def table2() -> str:
    return format_table(
        ["Type", "Thermal Resistance (C/W)", "Cooling Power"],
        table2_rows(),
        title="Table II - Typical cooling types",
    )


def table3_rows() -> List[Tuple[str, str, str]]:
    """Table III: PIM instruction → CUDA atomic mapping by class."""
    class_labels = {
        PimOpClass.ARITHMETIC: "Arithmetic",
        PimOpClass.BITWISE: "Bitwise",
        PimOpClass.BOOLEAN: "Boolean",
        PimOpClass.COMPARISON: "Comparison",
        PimOpClass.FLOATING: "Floating (ext. [23])",
    }
    by_class: dict = {}
    for opcode, (op_class, _ret) in OPCODE_INFO.items():
        by_class.setdefault(op_class, []).append(opcode)
    rows = []
    for op_class, opcodes in by_class.items():
        pim = ", ".join(sorted(o.value for o in opcodes))
        cuda = ", ".join(sorted({PIM_TO_CUDA[o] for o in opcodes}))
        rows.append((class_labels[op_class], pim, cuda))
    return rows


def table3() -> str:
    return format_table(
        ["Type", "PIM instruction", "Non-PIM"],
        table3_rows(),
        title="Table III - Examples of PIM instruction mapping",
    )


def table4_rows() -> List[Tuple[str, str]]:
    """Table IV: performance-evaluation configuration."""
    g, h = GPU_DEFAULT, HMC_2_0
    t = h.timing
    return [
        ("Host GPU", f"{g.num_sms} PTX SMs, {g.threads_per_warp} threads/warp, "
                     f"{g.freq_ghz} GHz"),
        ("GPU caches", f"{g.l1d_kb}KB private L1D, {g.l2_kb // 1024}MB "
                       f"{g.l2_ways}-way L2"),
        ("HMC", f"{h.capacity_gb} GB cube, 1 logic die, {h.num_dram_dies} DRAM dies"),
        ("HMC vaults", f"{h.num_vaults} vaults, {h.total_banks} DRAM banks"),
        ("DRAM timing", f"tCL=tRCD=tRP={t.tCL} ns, tRAS={t.tRAS} ns"),
        ("Links", f"{h.num_links} links per package, "
                  f"{h.link_bandwidth_gbs:.0f} GB/s per link"),
        ("Data bandwidth", f"{h.link_data_bandwidth_gbs:.0f} GB/s data bandwidth "
                           f"per link"),
        ("DRAM temp phases", "0-85C, 85-95C, 95-105C; 20% freq reduction "
                             "per higher phase"),
        ("Benchmarks", "GraphBIG suite on LDBC-like synthetic graph"),
    ]


def table4() -> str:
    return format_table(
        ["Component", "Configuration"],
        table4_rows(),
        title="Table IV - Performance evaluation configurations",
    )


def all_tables() -> str:
    return "\n\n".join([table1(), table2(), table3(), table4()])
