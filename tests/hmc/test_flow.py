"""Flow model: bottleneck service times, derating, traffic accounting."""

import pytest

from repro.hmc.config import HMC_2_0
from repro.hmc.dram_timing import TemperaturePhase
from repro.hmc.flow import (
    HmcFlowModel,
    TrafficDemand,
    demand_bytes,
    demand_flits,
    rates_of,
)


@pytest.fixture
def flow():
    return HmcFlowModel(HMC_2_0)


class TestTrafficDemand:
    def test_flit_accounting_matches_table1(self):
        req, rsp = demand_flits(1, 1, 1, 1, 1)
        # req: read 1 + write 5 + host (1+5) + pim 2 + pim_ret 2
        assert req == 1 + 5 + 6 + 2 + 2
        # rsp: read 5 + write 1 + host (5+1) + pim 1 + pim_ret 2
        assert rsp == 5 + 1 + 6 + 1 + 2

    def test_internal_bytes(self):
        # (2+1+2)*64 external-backed + 3*32 PIM internal
        assert demand_bytes(2, 1, 1, 3, 0)[2] == 5 * 64 + 96

    def test_external_payload(self):
        assert demand_bytes(1, 1, 1, 0, 2)[1] == 64 * 4 + 32

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TrafficDemand(reads=-1)


class TestServiceTime:
    def test_balanced_mix_reaches_peak_data_bandwidth(self, flow):
        # Equal reads/writes: req and rsp lanes both at 96 B per 128 B of
        # payload -> 320 GB/s peak (Sec. III-B).
        n = 100_000
        d = TrafficDemand(reads=n, writes=n)
        t = flow.service_time_ns(d)
        data_rate = demand_bytes(*d.counts)[1] / t
        assert data_rate == pytest.approx(320.0, rel=0.01)

    def test_read_only_is_response_lane_bound(self, flow):
        n = 10_000
        t = flow.service_time_ns(TrafficDemand(reads=n))
        # rsp lane: 80 B per read at 240 GB/s
        assert t == pytest.approx(n * 80 / 240.0, rel=0.01)

    def test_empty_demand_is_instant(self, flow):
        assert flow.service_time_ns(TrafficDemand()) == 0.0

    def test_links_bound_at_normal_phase(self, flow):
        # DRAM nominal capacity exceeds the link ceiling (Sec. III-B).
        assert flow.dram_capacity_gbs() > 320.0

    def test_pim_heavy_demand_hits_fu_bound_eventually(self):
        flow = HmcFlowModel(HMC_2_0, fu_rate_per_vault_gops=0.001)
        d = TrafficDemand(pim_ops=10_000)
        t = flow.service_time_ns(d)
        assert t == pytest.approx(10_000 / (32 * 0.001))


class TestConstructorValidation:
    def test_internal_bandwidth_must_be_positive(self):
        with pytest.raises(ValueError):
            HmcFlowModel(HMC_2_0, internal_peak_gbs=0.0)

    def test_fu_rate_must_be_positive(self):
        # Regression: a zero/negative FU rate used to be accepted and only
        # surfaced later as a ZeroDivisionError inside service_time_ns on
        # the first PIM op, mid-simulation.
        with pytest.raises(ValueError):
            HmcFlowModel(HMC_2_0, fu_rate_per_vault_gops=0.0)
        with pytest.raises(ValueError):
            HmcFlowModel(HMC_2_0, fu_rate_per_vault_gops=-1.0)


class TestDerating:
    def test_normal_phase_no_derating(self, flow):
        flow.update_phase(70.0)
        assert flow.derating() == pytest.approx(1.0)

    def test_extended_phase_derates(self, flow):
        flow.update_phase(90.0)
        d = flow.derating()
        assert 0.70 < d < 0.80  # 0.8 freq x refresh factor

    def test_critical_phase_derates_more(self, flow):
        flow.update_phase(100.0)
        assert flow.derating() < 0.60

    def test_service_time_scales_inversely(self, flow):
        d = TrafficDemand(reads=1000, writes=1000)
        t_cool = flow.service_time_ns(d)
        flow.update_phase(90.0)
        t_hot = flow.service_time_ns(d)
        assert t_hot == pytest.approx(t_cool / flow.derating())

    def test_shutdown_raises(self, flow):
        flow.update_phase(110.0)
        assert flow.is_shutdown
        with pytest.raises(RuntimeError):
            flow.service_time_ns(TrafficDemand(reads=1))

    def test_capacities_memo_keys_phase_and_vault_scale(self, flow):
        """Memoized capacities follow the phase and the vault derating,
        and a shutdown still raises after other phases were served."""

        def direct():
            return (flow.effective_link_gbs(), flow.dram_capacity_gbs(),
                    flow.fu_capacity_ops_per_ns())

        seen = set()
        for temp in (70.0, 90.0, 100.0, 70.0):
            for scale in (1.0, 0.5, 1.0):
                flow.update_phase(temp)
                flow.vault_capacity_scale = scale
                assert flow.capacities() == direct()
                seen.add(flow.capacities())
        assert len(seen) == 6
        flow.update_phase(110.0)
        with pytest.raises(RuntimeError, match="thermal shutdown"):
            flow.capacities()

    def test_memoized_inputs_are_read_only(self, flow):
        for name in ("config", "policy", "internal_peak_gbs",
                     "fu_rate_per_vault_gops"):
            with pytest.raises(AttributeError):
                setattr(flow, name, getattr(flow, name))


class TestRatesAndRecording:
    def test_traffic_rates_payload_equivalence(self, flow):
        # Balanced full-bandwidth mix: payload-equivalent external == 320.
        n = 100_000
        d = TrafficDemand(reads=n, writes=n)
        t = flow.service_time_ns(d)
        link, _, dram = demand_bytes(*d.counts)
        ext, internal, pim = rates_of(link, dram, d.total_pim, t)
        assert ext == pytest.approx(320.0, rel=0.01)
        assert internal == pytest.approx(320.0, rel=0.01)
        assert pim == 0.0

    def test_pim_rate(self):
        link, _, dram = demand_bytes(0, 0, 0, 1300, 0)
        ext, internal, pim = rates_of(link, dram, 1300, 1000.0)
        assert pim == pytest.approx(1.3)

    def test_zero_elapsed(self):
        link, _, dram = demand_bytes(1, 0, 0, 0, 0)
        assert rates_of(link, dram, 0, 0.0) == (0, 0, 0)

    def test_record_accumulates_ledger(self, flow):
        d = TrafficDemand(reads=2, writes=1, host_atomics=1, pim_ops=3)
        flow.record(d, 100.0)
        from repro.hmc.packet import PacketType

        led = flow.stats.ledger
        assert led.transactions[PacketType.READ64] == 3  # reads + host atomic
        assert led.transactions[PacketType.WRITE64] == 2
        assert led.transactions[PacketType.PIM] == 3
        assert flow.stats.pim_ops == 3
        assert flow.stats.host_atomics == 1

    def test_warning_flag(self, flow):
        flow.set_thermal_warning(True)
        assert flow.thermal_warning
