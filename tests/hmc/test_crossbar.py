"""Crossbar: traversal latency and per-vault port serialization."""

import pytest

from repro.hmc.config import HMC_2_0
from repro.hmc.crossbar import Crossbar
from repro.hmc.cube import HmcCube
from repro.hmc.packet import PacketType, Request


class TestTraversal:
    def test_fixed_latency(self):
        xbar = Crossbar(traversal_ns=2.0)
        assert xbar.forward(10.0) == 12.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Crossbar(traversal_ns=-1.0)
        with pytest.raises(ValueError):
            Crossbar(port_bandwidth_gbs=0.0)


class TestPortSerialization:
    def test_single_packet_pays_latency_plus_serialization(self):
        xbar = Crossbar(traversal_ns=1.0, port_bandwidth_gbs=16.0)
        # traversal 1 ns + 2 FLITs (32 B) at 16 GB/s (2 ns) = 3 ns.
        assert xbar.forward_to_vault(0, flits=2, now=0.0) == pytest.approx(3.0)

    def test_same_vault_packets_queue(self):
        xbar = Crossbar(traversal_ns=1.0, port_bandwidth_gbs=16.0)
        t1 = xbar.forward_to_vault(0, flits=2, now=0.0)
        t2 = xbar.forward_to_vault(0, flits=2, now=0.0)
        assert t2 == pytest.approx(t1 + 2.0)

    def test_different_vaults_independent(self):
        xbar = Crossbar(traversal_ns=1.0, port_bandwidth_gbs=16.0)
        t1 = xbar.forward_to_vault(0, flits=2, now=0.0)
        t2 = xbar.forward_to_vault(5, flits=2, now=0.0)
        assert t1 == pytest.approx(t2)

    def test_zero_flits_rejected(self):
        with pytest.raises(ValueError):
            Crossbar().forward_to_vault(0, flits=0, now=0.0)


class TestCubeIntegration:
    def test_single_vault_burst_slower_than_spread(self):
        """All requests to one vault back up at its crossbar port; the
        same count spread across vaults does not."""
        stride_same_vault = (
            HMC_2_0.dram_access_granularity_bytes * HMC_2_0.num_vaults
        )
        n = 128

        hot = HmcCube(HMC_2_0)
        t_hot = 0.0
        for i in range(n):
            # same vault, different banks
            rsp = hot.submit(
                Request(PacketType.WRITE64, address=i * stride_same_vault),
                0.0, payload=b"\0" * 64,
            )
            t_hot = max(t_hot, rsp.complete_time_ns)

        cold = HmcCube(HMC_2_0)
        t_cold = 0.0
        for i in range(n):
            rsp = cold.submit(
                Request(PacketType.WRITE64, address=i * 32), 0.0,
                payload=b"\0" * 64,
            )
            t_cold = max(t_cold, rsp.complete_time_ns)

        assert t_hot > 1.5 * t_cold
