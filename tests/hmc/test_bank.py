"""DRAM bank: row-buffer timing, serialization, RMW locking, derating."""

import pytest

from repro.hmc.bank import ROW_BYTES, DramBank
from repro.hmc.config import DramTiming


@pytest.fixture
def bank():
    return DramBank(DramTiming())


T = DramTiming()


class TestRowBuffer:
    def test_closed_row_pays_activate(self, bank):
        done = bank.access_read(0, now=0.0)
        assert done == pytest.approx(T.tRCD + T.tCL)
        assert bank.stats.row_misses == 1

    def test_hit_pays_only_cas(self, bank):
        bank.access_read(0, now=0.0)
        start = bank.ready_at
        done = bank.access_read(64, now=start)  # same 2 KB row
        assert done - start == pytest.approx(T.tCL)
        assert bank.stats.row_hits == 1

    def test_conflict_pays_precharge(self, bank):
        bank.access_read(0, now=0.0)
        start = bank.ready_at
        done = bank.access_read(ROW_BYTES * 3, now=start)
        assert done - start == pytest.approx(T.tRP + T.tRCD + T.tCL)

    def test_row_tracking(self, bank):
        bank.access_read(ROW_BYTES * 5 + 17, now=0.0)
        assert bank.open_row == 5


class TestSerialization:
    def test_back_to_back_requests_queue(self, bank):
        d1 = bank.access_read(0, now=0.0)
        d2 = bank.access_read(0, now=0.0)  # arrives while busy
        assert d2 > d1

    def test_idle_gap_does_not_accumulate(self, bank):
        bank.access_read(0, now=0.0)
        done = bank.access_read(0, now=1000.0)
        assert done == pytest.approx(1000.0 + T.tCL)


class TestPimRmw:
    def test_rmw_locks_for_read_fu_write(self, bank):
        fu = 1.0
        done = bank.access_pim_rmw(0, fu_latency_ns=fu, now=0.0)
        # closed-row read + FU + row-hit write-back
        expected = (T.tRCD + T.tCL) + fu + T.tCL
        assert done == pytest.approx(expected)

    def test_rmw_blocks_subsequent_access(self, bank):
        done_rmw = bank.access_pim_rmw(0, fu_latency_ns=2.0, now=0.0)
        done_read = bank.access_read(0, now=0.0)
        assert done_read >= done_rmw + T.tCL - 1e-9

    def test_negative_fu_latency(self, bank):
        with pytest.raises(ValueError):
            bank.access_pim_rmw(0, fu_latency_ns=-1.0, now=0.0)


class TestStats:
    def test_counters(self, bank):
        bank.access_read(0, 0.0)
        bank.access_write(0, 0.0)
        bank.access_pim_rmw(0, 1.0, 0.0)
        assert bank.stats.reads == 1
        assert bank.stats.writes == 1
        assert bank.stats.pim_ops == 1
