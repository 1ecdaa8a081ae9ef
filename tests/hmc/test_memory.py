"""Backing store: sparse pages, bounds, PIM RMW effects."""

import pytest

from repro.hmc.isa import PimInstruction, PimOpcode, encode_operand
from repro.hmc.memory import BackingStore


class TestReadWrite:
    def test_unwritten_reads_zero(self):
        store = BackingStore(1 << 20)
        assert store.read(0x1234, 8) == b"\x00" * 8

    def test_roundtrip(self):
        store = BackingStore(1 << 20)
        store.write(100, b"hello")
        assert store.read(100, 5) == b"hello"

    def test_cross_page_write(self):
        store = BackingStore(1 << 20)
        data = bytes(range(200))
        store.write(4096 - 100, data)  # spans a page boundary
        assert store.read(4096 - 100, 200) == data

    def test_bounds_checked(self):
        store = BackingStore(1024)
        with pytest.raises(ValueError):
            store.read(1020, 8)
        with pytest.raises(ValueError):
            store.write(-1, b"x")

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BackingStore(0)


class TestPimExecution:
    def test_add_updates_memory(self):
        store = BackingStore(1 << 16)
        store.write(64, encode_operand(10, PimOpcode.ADD_IMM, 4))
        inst = PimInstruction(PimOpcode.ADD_IMM, address=64, immediate=5)
        old, flag = store.execute_pim(inst)
        assert flag
        assert old == encode_operand(10, PimOpcode.ADD_IMM, 4)
        assert store.read(64, 4) == encode_operand(15, PimOpcode.ADD_IMM, 4)

    def test_cas_greater_failure_leaves_memory(self):
        store = BackingStore(1 << 16)
        store.write(0, encode_operand(100, PimOpcode.CAS_GREATER, 4))
        inst = PimInstruction(PimOpcode.CAS_GREATER, address=0, immediate=50)
        _old, flag = store.execute_pim(inst)
        assert not flag
        assert store.read(0, 4) == encode_operand(100, PimOpcode.CAS_GREATER, 4)

    def test_fp_min_updates(self):
        store = BackingStore(1 << 16)
        store.write(8, encode_operand(9.0, PimOpcode.FP_MIN, 8))
        inst = PimInstruction(
            PimOpcode.FP_MIN, address=8, immediate=2.5, operand_bytes=8
        )
        store.execute_pim(inst)
        from repro.hmc.isa import decode_operand

        assert decode_operand(store.read(8, 8), PimOpcode.FP_MIN, 8) == 2.5

    def test_sequence_of_adds_accumulates(self):
        store = BackingStore(1 << 16)
        inst = PimInstruction(PimOpcode.ADD_IMM, address=32, immediate=1)
        for _ in range(100):
            store.execute_pim(inst)
        from repro.hmc.isa import decode_operand

        assert decode_operand(store.read(32, 4), PimOpcode.ADD_IMM, 4) == 100
