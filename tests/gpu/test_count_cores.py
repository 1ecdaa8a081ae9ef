"""Count cores of the per-quantum models against their dataclass wrappers.

``SteppedEngine._serve_quantum`` and the epoch set-up call the models'
cores on plain counts (:func:`repro.hmc.flow.demand_flits` /
``demand_bytes`` / ``demand_time_ns`` / ``rates_of``,
:meth:`CacheModel.filter_counts` / ``demand_counts``,
:meth:`PowerModel.package_w`); the event oracle, the experiments and
the examples call the dataclass methods that wrap them
(:meth:`CacheModel.filter` / ``demand``, :meth:`PowerModel.package_total_w`).
Both paths must give the same numbers bit for bit (``==``, never
approx), and the cores must refuse what the dataclasses refuse, with the
same message. The FLIT core is also checked against an independent
Table I ledger.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.caches import CacheModel, MemoryTraffic
from repro.gpu.config import GPU_DEFAULT
from repro.hmc.config import HMC_2_0
from repro.hmc.flow import (
    TrafficDemand,
    demand_bytes,
    demand_flits,
    demand_time_ns,
)
from repro.hmc.packet import FlitLedger, PacketType
from repro.sim.trace import OpBatch
from repro.thermal.power import PowerModel, TrafficPoint

counts = st.integers(0, 10**9)
demands = st.builds(
    TrafficDemand, reads=counts, writes=counts, host_atomics=counts,
    pim_ops=counts, pim_ops_ret=counts,
)
rates = st.floats(0.0, 1e4)
unit = st.floats(0.0, 1.0)


@st.composite
def memory_traffic(draw):
    atomics = draw(counts)
    return MemoryTraffic(
        reads=draw(counts), writes=draw(counts), atomics=atomics,
        atomics_with_return=draw(st.integers(0, atomics)),
    )


class TestFlowCores:
    @settings(max_examples=200, deadline=None)
    @given(d=demands)
    def test_flits_match_the_table_i_ledger(self, d):
        """Independent of the core: a FLIT ledger of the demand's
        packets (a host atomic is one READ64 plus one WRITE64)."""
        ledger = FlitLedger()
        ledger.record(PacketType.READ64, d.reads + d.host_atomics)
        ledger.record(PacketType.WRITE64, d.writes + d.host_atomics)
        ledger.record(PacketType.PIM, d.pim_ops)
        ledger.record(PacketType.PIM_RET, d.pim_ops_ret)
        assert demand_flits(*d.counts) == (
            ledger.request_flits, ledger.response_flits
        )


class TestCacheCore:
    @settings(max_examples=200, deadline=None)
    @given(reads=counts, writes=counts, atomics=counts, data=st.data(),
           hit=unit)
    def test_filter_equals_the_core(self, reads, writes, atomics, data, hit):
        batch = OpBatch(
            reads=reads, writes=writes, atomics=atomics,
            atomics_with_return=data.draw(st.integers(0, atomics)),
        )
        cache = CacheModel(GPU_DEFAULT, read_hit_rate=hit,
                           write_hit_rate=1.0 - hit)
        t = cache.filter(batch)
        assert cache.filter_counts(batch) == (
            t.reads, t.writes, t.atomics, t.atomics_with_return
        )

    @settings(max_examples=200, deadline=None)
    @given(traffic=memory_traffic(), fraction=unit, coalescing=unit,
           dirty=unit, mode=st.sampled_from(["bypass", "writeback"]))
    def test_demand_equals_the_core(self, traffic, fraction, coalescing,
                                    dirty, mode):
        cache = CacheModel(
            GPU_DEFAULT, host_atomic_coalescing=coalescing,
            coherence_mode=mode, pei_dirty_fraction=dirty,
        )
        core = cache.demand_counts(
            traffic.reads, traffic.writes, traffic.atomics,
            traffic.atomics_with_return, fraction,
        )
        assert cache.demand(traffic, fraction).counts == core
        assert min(core) >= 0


class TestPowerCore:
    @settings(max_examples=200, deadline=None)
    @given(ext=rates, internal=rates, pim=rates, es=st.floats(0.0, 4.0))
    def test_package_total_equals_the_core(self, ext, internal, pim, es):
        pm = PowerModel(HMC_2_0)
        t = TrafficPoint(external_gbs=ext, internal_dram_gbs=internal,
                         pim_rate_ops_ns=pim)
        assert pm.package_total_w(t, es) == pm.package_w(ext, internal, pim, es)


def _message(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


class TestGuardsKept:
    """Each core refuses what its dataclass refuses, with its message."""

    @pytest.mark.parametrize("slot", range(5))
    def test_negative_demand(self, slot):
        bad = [1, 2, 3, 4, 5]
        bad[slot] = -1
        expected = _message(TrafficDemand, *bad)
        assert expected.startswith("negative demand")
        assert _message(demand_flits, *bad) == expected
        assert _message(demand_bytes, *bad) == expected
        assert _message(demand_time_ns, *bad, 1.0, 1.0, 1.0) == expected

    def test_negative_and_inconsistent_traffic(self):
        cache = CacheModel(GPU_DEFAULT)
        for bad in ((-1, 0, 0, 0), (0, 0, 1, 2)):
            expected = _message(MemoryTraffic, *bad)
            assert _message(cache.demand_counts, *bad, 0.5) == expected
        assert "atomics_with_return exceeds atomics" in expected

    def test_fraction_out_of_range(self):
        cache = CacheModel(GPU_DEFAULT)
        traffic = MemoryTraffic(1, 1, 1, 0)
        for f in (-0.1, 1.2):
            expected = _message(cache.demand, traffic, f)
            assert "pim_fraction" in expected
            assert _message(cache.demand_counts, 1, 1, 1, 0, f) == expected

    def test_negative_rates_and_energy_scale(self):
        pm = PowerModel(HMC_2_0)
        expected = _message(TrafficPoint, 1.0, -2.0, 0.0)
        assert expected.startswith("negative traffic")
        assert _message(pm.package_w, 1.0, -2.0, 0.0) == expected
        expected = _message(pm.package_total_w, TrafficPoint(), -1.0)
        assert _message(pm.package_w, 0.0, 0.0, 0.0, -1.0) == expected
        assert "negative energy scale" in expected
