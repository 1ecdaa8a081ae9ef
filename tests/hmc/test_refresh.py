"""Distributed refresh in the event-level bank model."""

import pytest

from repro.hmc.bank import BASE_TREFI_NS, TRFC_NS, DramBank
from repro.hmc.config import DramTiming


@pytest.fixture
def bank():
    return DramBank(DramTiming())


class TestRefreshTiming:
    def test_no_refresh_before_first_trefi(self, bank):
        bank.access_read(0, now=0.0)
        assert bank.stats.refreshes == 0

    def test_refresh_executes_when_due(self, bank):
        bank.access_read(0, now=BASE_TREFI_NS + 1.0)
        assert bank.stats.refreshes == 1
        assert bank.stats.refresh_ns == pytest.approx(TRFC_NS)

    def test_refresh_closes_open_row(self, bank):
        bank.access_read(0, now=0.0)
        assert bank.open_row == 0
        # Next access after a refresh interval: row was closed by refresh,
        # so the same row pays an activate again.
        t = DramTiming()
        done = bank.access_read(0, now=BASE_TREFI_NS + 1000.0)
        start = BASE_TREFI_NS + 1000.0
        assert done - start == pytest.approx(t.read_closed_latency())

    def test_refresh_delays_colliding_access(self, bank):
        # Arrive exactly when a refresh is due: wait out tRFC.
        now = BASE_TREFI_NS
        done = bank.access_read(0, now=now)
        t = DramTiming()
        assert done == pytest.approx(now + TRFC_NS + t.read_closed_latency())

    def test_long_idle_accounts_all_refreshes(self, bank):
        idle_ns = 1e9  # one second
        bank.access_read(0, now=idle_ns)
        expected = int(idle_ns / BASE_TREFI_NS)
        assert abs(bank.stats.refreshes - expected) <= 2

    def test_refresh_overhead_fraction_matches_policy(self, bank):
        # Steady busy bank: refresh time fraction ~ tRFC/tREFI (~4.5%).
        now = 0.0
        while now < 10 * BASE_TREFI_NS:
            now = bank.access_read(int(now) % (1 << 20) * 64, now)
        frac = bank.stats.refresh_ns / now
        assert frac == pytest.approx(TRFC_NS / BASE_TREFI_NS, rel=0.2)
