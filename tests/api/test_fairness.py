"""FairQueue: per-tenant FIFOs served round robin under one quota."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import fairness
from repro.api.fairness import FairQueue, QuotaExceeded


class TestBasics:
    def test_fifo_within_one_tenant(self):
        queue = FairQueue()
        for i in range(3):
            queue.submit("a", i)
        assert [queue.pop()[1] for _ in range(3)] == [0, 1, 2]
        assert queue.pop() is None

    def test_len_counts_all_tenants(self):
        queue = FairQueue()
        queue.submit("a", 1)
        queue.submit("b", 2)
        assert len(queue) == 2

    def test_served_in_activation_order(self):
        queue = FairQueue()
        queue.submit("zed", "z1")
        queue.submit("zed", "z2")
        queue.submit("abe", "a1")
        # The tenant that became active first goes first, then they
        # alternate; names play no part.
        assert [queue.pop() for _ in range(3)] == [
            ("zed", "z1"), ("abe", "a1"), ("zed", "z2"),
        ]


class TestRoundRobin:
    def test_reactivating_tenant_joins_at_service_front(self):
        queue = FairQueue()
        for i in range(10):
            queue.submit("busy", i)
        for _ in range(10):
            queue.pop()
        # "idle" never queued while busy was served; when it joins it
        # gets no catch-up burst — the two alternate.
        for i in range(4):
            queue.submit("busy", f"b{i}")
            queue.submit("idle", f"i{i}")
        first_4 = [queue.pop()[0] for _ in range(4)]
        assert first_4 == ["busy", "idle", "busy", "idle"]

    # One op: ("submit", tenant) or ("pop", None).
    OPS = st.lists(
        st.one_of(
            st.tuples(st.just("submit"), st.integers(0, 2)),
            st.tuples(st.just("pop"), st.none()),
        ),
        max_size=60,
    )

    @settings(max_examples=300, deadline=None)
    @given(n_tenants=st.integers(2, 3), quota=st.integers(1, 4), ops=OPS)
    def test_interleavings_against_a_model(self, n_tenants, quota, ops):
        """Any interleaving of submissions and pops over 2-3 tenants:

        - a tenant with queued work is never passed over twice while
          another tenant is served twice;
        - a tenant that goes idle and comes back is served within one
          round (before any other tenant is served twice);
        - each tenant's items leave in submission order;
        - a submission past the quota raises :class:`QuotaExceeded` and
          queues nothing.
        """
        tenants = "abc"[:n_tenants]
        queue = FairQueue(max_queued=quota)
        backlog = {t: [] for t in tenants}  # model: queued items
        served_since = {}  # waiting tenant -> others served meanwhile
        rejected = Counter()
        seq = 0
        for op, tenant in ops:
            if op == "submit":
                tenant = tenants[tenant % n_tenants]
                seq += 1
                if len(backlog[tenant]) >= quota:
                    with pytest.raises(QuotaExceeded) as exc:
                        queue.submit(tenant, seq)
                    assert (exc.value.tenant, exc.value.limit) == (tenant, quota)
                    rejected[tenant] += 1
                    continue
                if not backlog[tenant]:
                    served_since[tenant] = Counter()  # (re)joins the ring
                assert queue.submit(tenant, seq) == len(backlog[tenant])
                backlog[tenant].append(seq)
            else:
                popped = queue.pop()
                if not any(backlog.values()):
                    assert popped is None
                    continue
                name, item = popped
                assert item == backlog[name].pop(0)  # per-tenant FIFO
                for waiting, others in served_since.items():
                    if waiting != name:
                        others[name] += 1
                        assert others[name] <= 1, (waiting, name)
                del served_since[name]
                if backlog[name]:
                    served_since[name] = Counter()
            assert len(queue) == sum(map(len, backlog.values()))
        stats = queue.stats()
        for t, doc in stats.items():
            assert doc["queued"] == len(backlog[t])
            assert doc["rejected"] == rejected[t]
            assert doc["submitted"] == doc["queued"] + doc["dispatched"]

    @settings(max_examples=100, deadline=None)
    @given(ops=st.lists(st.booleans(), max_size=40))
    def test_single_tenant_is_fifo(self, ops):
        queue = FairQueue(max_queued=1000)
        submitted, served = [], []
        for is_submit in ops:
            if is_submit:
                submitted.append(len(submitted))
                queue.submit("solo", submitted[-1])
            elif (popped := queue.pop()) is not None:
                served.append(popped[1])
        served += [item for _, item in queue.drain()]
        assert served == submitted


class TestQuotas:
    def test_max_queued_raises_and_drops_item(self):
        queue = FairQueue(max_queued=2)
        queue.submit("a", 1)
        queue.submit("a", 2)
        with pytest.raises(QuotaExceeded) as exc:
            queue.submit("a", 3)
        assert exc.value.tenant == "a" and exc.value.limit == 2
        assert len(queue) == 2  # the rejected item was not queued
        assert queue.stats()["a"]["rejected"] == 1

    def test_capacity_for_tracks_backlog(self):
        queue = FairQueue(max_queued=3)
        assert queue.capacity_for("a") == 3
        queue.submit("a", 1)
        assert queue.capacity_for("a") == 2


class TestPolicyValidation:
    def test_bad_quota_rejected(self):
        with pytest.raises(ValueError):
            FairQueue(max_queued=0)


class TestDrainAndStats:
    def test_drain_empties_everything(self):
        queue = FairQueue()
        queue.submit("b", 1)
        queue.submit("a", 2)
        queue.submit("a", 3)
        drained = queue.drain()
        assert drained == [("a", 2), ("a", 3), ("b", 1)]
        assert len(queue) == 0
        assert queue.pop() is None

    def test_stats_shape(self):
        queue = FairQueue()
        queue.submit("a", 1)
        queue.pop()
        assert queue.stats() == {
            "a": {"queued": 0, "submitted": 1, "dispatched": 1, "rejected": 0}
        }

    def test_oldest_wait_tracks_the_head(self, monkeypatch):
        now = [10.0]
        monkeypatch.setattr(fairness.time, "monotonic", lambda: now[0])
        queue = FairQueue()
        assert queue.oldest_wait_s("a") == 0.0
        queue.submit("a", 1)
        now[0] = 11.0
        queue.submit("a", 2)
        now[0] = 12.5
        assert queue.oldest_wait_s("a") == 2.5
        queue.pop()
        assert queue.oldest_wait_s("a") == 1.5
        queue.pop()
        assert queue.oldest_wait_s("a") == 0.0
