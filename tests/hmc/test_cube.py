"""Event-level cube: end-to-end transactions, thermal bits, shutdown."""

import pytest

from repro.hmc.config import HMC_2_0
from repro.hmc.cube import HmcCube
from repro.hmc.isa import PimInstruction, PimOpcode, decode_operand, encode_operand
from repro.hmc.packet import PacketType, Request


@pytest.fixture
def cube():
    return HmcCube(HMC_2_0)


class TestTransactions:
    def test_read_after_write(self, cube):
        payload = bytes(range(64))
        cube.submit(Request(PacketType.WRITE64, address=0x400), 0.0, payload=payload)
        rsp = cube.submit(Request(PacketType.READ64, address=0x400), 100.0)
        assert rsp.data == payload

    def test_latency_includes_link_and_dram(self, cube):
        rsp = cube.submit(Request(PacketType.READ64, address=0), 0.0)
        # Bounded below by DRAM closed-row access, above by a sane cap.
        assert HMC_2_0.timing.read_closed_latency() < rsp.latency_ns < 200.0

    def test_write_payload_length_checked(self, cube):
        with pytest.raises(ValueError):
            cube.submit(Request(PacketType.WRITE64, address=0), 0.0, payload=b"abc")

    def test_pim_add_roundtrip(self, cube):
        addr = 0x1000
        cube.mem_write(addr, encode_operand(10, PimOpcode.ADD_IMM, 4))
        inst = PimInstruction(PimOpcode.ADD_IMM, address=addr, immediate=32)
        cube.submit(Request(PacketType.PIM, address=addr, pim=inst), 0.0)
        val = decode_operand(cube.mem_read(addr, 4), PimOpcode.ADD_IMM, 4)
        assert val == 42

    def test_pim_counts(self, cube):
        inst = PimInstruction(PimOpcode.ADD_IMM, address=0, immediate=1)
        for _ in range(5):
            cube.submit(Request(PacketType.PIM, address=0, pim=inst), 0.0)
        assert cube.stats.pim_ops == 5
        assert cube.total_pim_ops() == 5
        assert cube.total_fu_energy_j() > 0

    def test_addresses_spread_across_vaults(self, cube):
        for i in range(64):
            cube.submit(Request(PacketType.READ64, address=i * 32), 0.0)
        touched = sum(1 for v in cube.vaults if v.stats.requests > 0)
        assert touched == 32  # low-order interleaving hits every vault

    def test_tag_allocation_monotonic(self, cube):
        assert cube.allocate_tag() == 0
        assert cube.allocate_tag() == 1

    def test_request_tag_overwritten_and_echoed(self, cube):
        req = Request(PacketType.READ64, address=0, tag=12345)
        rsp = cube.submit(req, 0.0)
        assert req.tag == 0
        assert rsp.tag == 0
        assert cube.submit(Request(PacketType.READ64, address=32), 0.0).tag == 1

    def test_chained_add_imm_wraps_at_operand_width(self, cube):
        """Ten chained ADD_IMM on one 4-byte operand near the int32 limit
        wrap exactly (two's complement)."""
        cube.mem_write(0, (2**31 - 5).to_bytes(4, "little"))
        inst = PimInstruction(PimOpcode.ADD_IMM, address=0, immediate=3,
                              operand_bytes=4)
        for _ in range(10):
            cube.submit(Request(PacketType.PIM, address=0, pim=inst), 0.0)
        val = int.from_bytes(cube.mem_read(0, 4), "little", signed=True)
        assert val == 2**31 - 5 + 30 - 2**32


class TestThermal:
    def test_warning_stamped_into_responses(self, cube):
        cube.set_thermal_warning(True)
        rsp = cube.submit(Request(PacketType.READ64, address=0), 0.0)
        assert rsp.thermal_warning
        assert cube.stats.thermal_warnings_sent == 1

    def test_warning_clears(self, cube):
        cube.set_thermal_warning(True)
        cube.set_thermal_warning(False)
        rsp = cube.submit(Request(PacketType.READ64, address=0), 0.0)
        assert not rsp.thermal_warning

    def test_frequency_scale_reaches_banks(self, cube):
        cube.set_frequency_scale(0.64)
        assert cube.vaults[0].banks[0].freq_scale == 0.64


class TestShutdown:
    def test_shutdown_blocks_traffic(self, cube):
        cube.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            cube.submit(Request(PacketType.READ64, address=0), 0.0)

    def test_shutdown_raises_same_message(self, cube):
        """Reads, writes and PIM requests are refused alike, before any
        device tag is allocated."""
        cube.shutdown()
        inst = PimInstruction(PimOpcode.ADD_IMM, address=0, immediate=1)
        attempts = [
            (Request(PacketType.READ64, address=0), None),
            (Request(PacketType.WRITE64, address=64), b"\0" * 64),
            (Request(PacketType.PIM, address=0, pim=inst), None),
        ]
        messages = set()
        for req, payload in attempts:
            with pytest.raises(RuntimeError) as err:
                cube.submit(req, 0.0, payload=payload)
            messages.add(str(err.value))
        assert len(messages) == 1
        cube.recover()
        assert cube.submit(Request(PacketType.READ64, address=0), 0.0).tag == 0

    def test_shutdown_loses_contents(self, cube):
        cube.mem_write(0, b"\xff" * 8)
        cube.shutdown()
        cube.recover()
        assert cube.mem_read(0, 8) == b"\x00" * 8

    def test_recover_restores_service(self, cube):
        cube.shutdown()
        cube.recover()
        rsp = cube.submit(Request(PacketType.READ64, address=0), 0.0)
        assert rsp is not None


class TestBandwidthAccounting:
    def test_link_data_bytes(self, cube):
        cube.submit(Request(PacketType.READ64, address=0), 0.0)
        cube.submit(Request(PacketType.WRITE64, address=64), 0.0, payload=b"\0" * 64)
        assert cube.link_data_bytes() == 128

    def test_many_requests_saturate_links_in_order(self, cube):
        # Throughput check: N reads over 4 links cannot finish faster than
        # the response-lane serialization bound.
        n = 256
        last = 0.0
        for i in range(n):
            rsp = cube.submit(Request(PacketType.READ64, address=i * 32), 0.0)
            last = max(last, rsp.complete_time_ns)
        per_dir_gbs = HMC_2_0.peak_link_bandwidth_gbs / 2
        min_time = n * 5 * 16 / per_dir_gbs  # 5 response FLITs each
        assert last >= min_time
