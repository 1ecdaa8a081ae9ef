"""Packet protocol: Table I FLIT costs, ERRSTAT, ledger accounting."""

import pytest

from repro.hmc.isa import PimInstruction, PimOpcode
from repro.hmc.packet import (
    ERRSTAT_OK,
    ERRSTAT_THERMAL_WARNING,
    FLIT_BYTES,
    FlitLedger,
    PacketType,
    Request,
    Response,
    bandwidth_saving_fraction,
    flit_cost,
    round_trip_flits,
)


class TestTableI:
    """The exact Table I numbers."""

    def test_read64(self):
        assert flit_cost(PacketType.READ64) == (1, 5)

    def test_write64(self):
        assert flit_cost(PacketType.WRITE64) == (5, 1)

    def test_pim_without_return(self):
        assert flit_cost(PacketType.PIM) == (2, 1)

    def test_pim_with_return(self):
        assert flit_cost(PacketType.PIM_RET) == (2, 2)

    def test_flit_is_128_bits(self):
        assert FLIT_BYTES * 8 == 128

    def test_round_trips(self):
        assert round_trip_flits(PacketType.READ64) == 6
        assert round_trip_flits(PacketType.PIM) == 3

    def test_headline_50_percent_saving(self):
        # Sec. II-B: "PIM offloading potentially can save up to 50%".
        assert bandwidth_saving_fraction() == pytest.approx(0.5)


def _pim_inst():
    return PimInstruction(PimOpcode.ADD_IMM, address=0x40, immediate=1)


class TestRequest:
    def test_pim_requires_payload(self):
        with pytest.raises(ValueError):
            Request(PacketType.PIM, address=0)

    def test_read_rejects_pim_payload(self):
        with pytest.raises(ValueError):
            Request(PacketType.READ64, address=0, pim=_pim_inst())

    def test_negative_address(self):
        with pytest.raises(ValueError):
            Request(PacketType.READ64, address=-1)

    def test_flit_properties(self):
        req = Request(PacketType.PIM, address=0, pim=_pim_inst())
        assert req.request_flits == 2
        assert req.response_flits == 1


class TestResponse:
    def test_thermal_warning_bit(self):
        ok = Response(tag=0, ptype=PacketType.READ64, errstat=ERRSTAT_OK)
        hot = Response(tag=0, ptype=PacketType.READ64,
                       errstat=ERRSTAT_THERMAL_WARNING)
        assert not ok.thermal_warning
        assert hot.thermal_warning

    def test_errstat_is_7_bits(self):
        with pytest.raises(ValueError):
            Response(tag=0, ptype=PacketType.READ64, errstat=0x80)
        Response(tag=0, ptype=PacketType.READ64, errstat=0x7F)


class TestLedger:
    def test_accumulates_table1_costs(self):
        led = FlitLedger()
        led.record(PacketType.READ64, 2)
        led.record(PacketType.PIM)
        assert led.request_flits == 2 * 1 + 2
        assert led.response_flits == 2 * 5 + 1
        assert led.total_bytes == led.total_flits * 16

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            FlitLedger().record(PacketType.READ64, -1)
