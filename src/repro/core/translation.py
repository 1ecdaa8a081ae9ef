"""PIM instruction ⇄ CUDA atomic mapping (Table III).

Every PIM instruction in HMC 2.0 (and the GraphPIM floating-point
extensions) has a corresponding CUDA atomic, so the compiler can generate
the shadow non-PIM kernel (SW-DynT, Sec. IV-B) and the hardware frontend
can dynamically translate PIM instructions back to regular atomics
(HW-DynT, Sec. IV-C). The mapping is a simple AST/IR-level source-to-
source substitution — represented here as a table.
"""

from __future__ import annotations

from typing import Dict

from repro.hmc.isa import PimOpcode

#: Table III (extended to every opcode in our ISA): PIM → CUDA atomic.
PIM_TO_CUDA: Dict[PimOpcode, str] = {
    PimOpcode.ADD_IMM: "atomicAdd",
    PimOpcode.ADD_IMM_RET: "atomicAdd",
    PimOpcode.SWAP: "atomicExch",
    PimOpcode.BIT_WRITE: "atomicExch",
    PimOpcode.AND_IMM: "atomicAnd",
    PimOpcode.OR_IMM: "atomicOr",
    PimOpcode.CAS_EQUAL: "atomicCAS",
    PimOpcode.CAS_GREATER: "atomicMax",
    PimOpcode.CAS_LESS: "atomicMin",
    PimOpcode.FP_ADD_IMM: "atomicAdd",   # float overload
    PimOpcode.FP_MIN: "atomicMin",       # float extension [23]
}
