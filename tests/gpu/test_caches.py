"""Cache model: hit filtering, atomic splitting, coalescing."""

import pytest

from repro.gpu.caches import CacheModel, MemoryTraffic
from repro.gpu.config import GPU_DEFAULT
from repro.sim.trace import OpBatch


class TestFilter:
    def test_hit_rates_reduce_traffic(self):
        cache = CacheModel(GPU_DEFAULT, read_hit_rate=0.75, write_hit_rate=0.5)
        t = cache.filter(OpBatch(reads=100, writes=10, atomics=7))
        assert t.reads == 25
        assert t.writes == 5

    def test_atomics_bypass_cache(self):
        # Offloading-target data is uncacheable (Sec. II-B).
        cache = CacheModel(GPU_DEFAULT, read_hit_rate=1.0, write_hit_rate=1.0)
        t = cache.filter(OpBatch(reads=10, writes=10, atomics=42,
                                 atomics_with_return=9))
        assert t.atomics == 42
        assert t.atomics_with_return == 9
        assert t.reads == 0

    def test_hit_rate_bounds(self):
        with pytest.raises(ValueError):
            CacheModel(GPU_DEFAULT, read_hit_rate=1.1)
        with pytest.raises(ValueError):
            CacheModel(GPU_DEFAULT, host_atomic_coalescing=-0.1)


class TestDemandSplit:
    def _traffic(self):
        return MemoryTraffic(reads=100, writes=50, atomics=40,
                             atomics_with_return=10)

    def test_full_offload(self):
        cache = CacheModel(GPU_DEFAULT, host_atomic_coalescing=0.5)
        d = cache.demand(self._traffic(), pim_fraction=1.0)
        assert d.pim_ops + d.pim_ops_ret == 40
        assert d.pim_ops_ret == 10
        assert d.host_atomics == 0

    def test_no_offload_applies_coalescing(self):
        cache = CacheModel(GPU_DEFAULT, host_atomic_coalescing=0.5)
        d = cache.demand(self._traffic(), pim_fraction=0.0)
        assert d.pim_ops == d.pim_ops_ret == 0
        assert d.host_atomics == 20  # 40 x 0.5

    def test_partial_split_conserves_atomics(self):
        cache = CacheModel(GPU_DEFAULT, host_atomic_coalescing=1.0)
        d = cache.demand(self._traffic(), pim_fraction=0.5)
        assert d.pim_ops + d.pim_ops_ret + d.host_atomics == 40

    def test_reads_writes_passed_through(self):
        cache = CacheModel(GPU_DEFAULT)
        d = cache.demand(self._traffic(), 0.3)
        assert d.reads == 100 and d.writes == 50

    def test_fraction_bounds(self):
        cache = CacheModel(GPU_DEFAULT)
        with pytest.raises(ValueError):
            cache.demand(self._traffic(), 1.5)


class TestMemoryTraffic:
    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryTraffic(reads=-1, writes=0, atomics=0, atomics_with_return=0)
        with pytest.raises(ValueError):
            MemoryTraffic(reads=0, writes=0, atomics=1, atomics_with_return=2)


class TestCoherenceModes:
    def _traffic(self):
        return MemoryTraffic(reads=100, writes=50, atomics=40,
                             atomics_with_return=0)

    def test_bypass_adds_no_coherence_traffic(self):
        cache = CacheModel(GPU_DEFAULT, coherence_mode="bypass")
        d = cache.demand(self._traffic(), pim_fraction=1.0)
        assert d.writes == 50

    def test_writeback_adds_dirty_writebacks(self):
        cache = CacheModel(GPU_DEFAULT, coherence_mode="writeback",
                           pei_dirty_fraction=0.5)
        d = cache.demand(self._traffic(), pim_fraction=1.0)
        assert d.writes == 50 + 20  # 40 offloaded x 0.5 dirty

    def test_writeback_without_offloading_is_free(self):
        cache = CacheModel(GPU_DEFAULT, coherence_mode="writeback",
                           pei_dirty_fraction=0.5)
        d = cache.demand(self._traffic(), pim_fraction=0.0)
        assert d.writes == 50

    def test_writeback_carry_keeps_the_rounded_total(self):
        """Each call rounds on its own (half to even: 5 x 0.5 rounds to
        0); the carry it returns brings a chain to the exact total."""
        cache = CacheModel(GPU_DEFAULT, coherence_mode="writeback",
                           pei_dirty_fraction=0.5)
        assert cache.writebacks(1) == (0, 0.5)
        total, carry = 0, 0.0
        for _ in range(10):
            count, carry = cache.writebacks(1, carry)
            total += count
        assert (total, carry) == (5, 0.0)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            CacheModel(GPU_DEFAULT, coherence_mode="nope")

    def test_dirty_fraction_bounds(self):
        with pytest.raises(ValueError):
            CacheModel(GPU_DEFAULT, pei_dirty_fraction=1.5)
