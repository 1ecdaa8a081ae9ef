"""Table III mapping: PIM → CUDA atomic translation."""

from repro.core.translation import PIM_TO_CUDA
from repro.hmc.isa import PimOpcode


class TestTableIII:
    """The exact Table III examples."""

    def test_arithmetic_add_maps_to_atomicadd(self):
        assert PIM_TO_CUDA[PimOpcode.ADD_IMM] == "atomicAdd"

    def test_bitwise_swap_maps_to_atomicexch(self):
        assert PIM_TO_CUDA[PimOpcode.SWAP] == "atomicExch"
        assert PIM_TO_CUDA[PimOpcode.BIT_WRITE] == "atomicExch"

    def test_boolean_and_or(self):
        assert PIM_TO_CUDA[PimOpcode.AND_IMM] == "atomicAnd"
        assert PIM_TO_CUDA[PimOpcode.OR_IMM] == "atomicOr"

    def test_comparison_cas_and_max(self):
        assert PIM_TO_CUDA[PimOpcode.CAS_EQUAL] == "atomicCAS"
        assert PIM_TO_CUDA[PimOpcode.CAS_GREATER] == "atomicMax"


class TestCompleteness:
    def test_every_opcode_has_cuda_equivalent(self):
        # Sec. IV-C: "all PIM instructions have a corresponding CUDA
        # instruction" — required for dynamic translation.
        for opcode in PimOpcode:
            assert opcode in PIM_TO_CUDA
