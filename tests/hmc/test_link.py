"""Serial links: serialization timing, duplex independence, round robin."""

import pytest

from repro.hmc.link import LinkGroup, SerialLink
from repro.hmc.packet import PacketType


class TestSerialLink:
    def test_per_direction_bandwidth_is_half(self):
        link = SerialLink(0, bandwidth_gbs=120.0)
        assert link.direction_bandwidth_gbs == 60.0
        assert link.flit_time_ns == pytest.approx(16 / 60.0)

    def test_request_serialization_time(self):
        link = SerialLink(0, 120.0)
        # WRITE64 request = 5 FLITs
        arrival = link.send_request(PacketType.WRITE64, now=0.0)
        assert arrival == pytest.approx(5 * link.flit_time_ns)

    def test_requests_queue_on_lane(self):
        link = SerialLink(0, 120.0)
        a1 = link.send_request(PacketType.READ64, now=0.0)
        a2 = link.send_request(PacketType.READ64, now=0.0)
        assert a2 == pytest.approx(a1 + link.flit_time_ns)

    def test_directions_independent(self):
        link = SerialLink(0, 120.0)
        link.send_request(PacketType.WRITE64, now=0.0)
        rsp = link.send_response(PacketType.READ64, now=0.0)
        # response lane was idle: 5 response FLITs from t=0
        assert rsp == pytest.approx(5 * link.flit_time_ns)

    def test_ledger_counts_transaction_once(self):
        link = SerialLink(0, 120.0)
        link.send_request(PacketType.READ64, now=0.0)
        link.send_response(PacketType.READ64, now=10.0)
        assert link.ledger.transactions[PacketType.READ64] == 1

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            SerialLink(0, 0.0)


class TestLinkGroup:
    def test_round_robin(self):
        group = LinkGroup(4, 120.0)
        picks = [group.pick().link_id for _ in range(8)]
        assert picks == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_total_flits(self):
        group = LinkGroup(2, 120.0)
        group.pick().send_request(PacketType.READ64, 0.0)
        group.pick().send_request(PacketType.PIM, 0.0)
        assert group.total_flits() == 6 + 3

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            LinkGroup(0, 120.0)
