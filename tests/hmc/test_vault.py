"""Vault controller and address map."""

import pytest

from repro.hmc.config import HMC_1_1, HMC_2_0
from repro.hmc.isa import PimInstruction, PimOpcode, encode_operand
from repro.hmc.memory import BackingStore
from repro.hmc.packet import PacketType, Request
from repro.hmc.vault import AddressMap, VaultController


class TestAddressMap:
    def test_decode_within_bounds(self):
        amap = AddressMap(HMC_2_0)
        vault, bank, local = amap.decode(0)
        assert vault == 0 and bank == 0 and local == 0

    def test_low_order_vault_interleaving(self):
        amap = AddressMap(HMC_2_0)
        g = HMC_2_0.dram_access_granularity_bytes
        vaults = [amap.decode(i * g)[0] for i in range(HMC_2_0.num_vaults)]
        assert vaults == list(range(HMC_2_0.num_vaults))

    def test_bank_interleaving_after_vaults(self):
        amap = AddressMap(HMC_2_0)
        g = HMC_2_0.dram_access_granularity_bytes
        stride = g * HMC_2_0.num_vaults
        banks = [amap.decode(i * stride)[1] for i in range(HMC_2_0.banks_per_vault)]
        assert banks == list(range(HMC_2_0.banks_per_vault))

    def test_decode_bijective_sample(self):
        amap = AddressMap(HMC_2_0)
        seen = set()
        for addr in range(0, 1 << 16, 32):
            key = amap.decode(addr)
            assert key not in seen
            seen.add(key)

    def test_out_of_range(self):
        amap = AddressMap(HMC_1_1)
        with pytest.raises(ValueError):
            amap.decode(HMC_1_1.capacity_bytes)


@pytest.fixture
def vault():
    store = BackingStore(HMC_2_0.capacity_bytes)
    return VaultController(0, HMC_2_0, store)


class TestVaultService:
    def test_read_returns_data(self, vault):
        vault.store.write(0x100, b"\xab" * 64)
        req = Request(PacketType.READ64, address=0x100, tag=7)
        rsp = vault.service(req, bank_id=0, local_addr=0, now=0.0)
        assert rsp.tag == 7
        assert rsp.data == b"\xab" * 64
        assert rsp.complete_time_ns > 0

    def test_parallel_banks_overlap(self, vault):
        r1 = vault.service(Request(PacketType.READ64, 0), 0, 0, now=0.0)
        r2 = vault.service(Request(PacketType.READ64, 0), 1, 0, now=0.0)
        # different banks: both finish at the closed-row latency
        assert r1.complete_time_ns == pytest.approx(r2.complete_time_ns)

    def test_same_bank_serializes(self, vault):
        r1 = vault.service(Request(PacketType.READ64, 0), 0, 0, now=0.0)
        r2 = vault.service(Request(PacketType.READ64, 0), 0, 4096, now=0.0)
        assert r2.complete_time_ns > r1.complete_time_ns

    def test_pim_executes_functionally(self, vault):
        addr = 0x40
        vault.store.write(addr, encode_operand(5, PimOpcode.ADD_IMM, 4))
        inst = PimInstruction(PimOpcode.ADD_IMM, address=addr, immediate=3)
        req = Request(PacketType.PIM, address=addr, pim=inst)
        rsp = vault.service(req, bank_id=2, local_addr=addr, now=0.0)
        assert rsp.atomic_flag
        assert vault.store.read(addr, 4) == encode_operand(8, PimOpcode.ADD_IMM, 4)

    def test_pim_ret_returns_old_value(self, vault):
        addr = 0x80
        vault.store.write(addr, encode_operand(41, PimOpcode.ADD_IMM_RET, 4))
        inst = PimInstruction(PimOpcode.ADD_IMM_RET, address=addr, immediate=1)
        req = Request(PacketType.PIM_RET, address=addr, pim=inst)
        rsp = vault.service(req, 0, addr, now=0.0)
        assert rsp.data == encode_operand(41, PimOpcode.ADD_IMM_RET, 4)

    def test_pim_rejected_without_support(self):
        store = BackingStore(HMC_1_1.capacity_bytes)
        vault = VaultController(0, HMC_1_1, store)
        inst = PimInstruction(PimOpcode.ADD_IMM, address=0, immediate=1)
        req = Request(PacketType.PIM, address=0, pim=inst)
        with pytest.raises(ValueError):
            vault.service(req, 0, 0, now=0.0)

    def test_bad_bank_id(self, vault):
        with pytest.raises(ValueError):
            vault.service(Request(PacketType.READ64, 0), 99, 0, 0.0)

    def test_stats_accumulate(self, vault):
        vault.service(Request(PacketType.READ64, 0), 0, 0, 0.0)
        vault.service(Request(PacketType.WRITE64, 0), 1, 0, 0.0)
        assert vault.stats.requests == 2
        assert vault.stats.reads == 1 and vault.stats.writes == 1
