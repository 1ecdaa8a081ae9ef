"""Telemetry registry: families, labels, deltas, and merges."""

import threading

import numpy as np
import pytest

from repro.telemetry.registry import (
    DELTA_SCHEMA_ID,
    Histogram,
    TelemetryRegistry,
    counter_series,
    get_registry,
    set_registry,
)


@pytest.fixture
def reg():
    return TelemetryRegistry()


class TestCounters:
    def test_unlabelled_counter_accumulates(self, reg):
        c = reg.counter("jobs_total", help="jobs")
        c.inc()
        c.inc(4)
        assert c.value == 5.0

    def test_negative_increment_rejected(self, reg):
        c = reg.counter("jobs_total")
        with pytest.raises(ValueError, match=">= 0"):
            c._default.inc(-1)

    def test_labelled_children_are_independent(self, reg):
        fam = reg.counter("runs_total", labelnames=("status",))
        fam.labels(status="ok").inc(2)
        fam.labels(status="failed").inc()
        assert fam.labels(status="ok").value == 2.0
        assert fam.labels(status="failed").value == 1.0

    def test_labels_memoized(self, reg):
        fam = reg.counter("x", labelnames=("a",))
        assert fam.labels(a="1") is fam.labels(a="1")

    def test_label_mismatch_raises(self, reg):
        fam = reg.counter("x", labelnames=("a",))
        with pytest.raises(ValueError, match="labelnames"):
            fam.labels(b="1")

    def test_reregistration_conflicting_kind_raises(self, reg):
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_reregistration_conflicting_labels_raises(self, reg):
        reg.counter("x", labelnames=("a",))
        with pytest.raises(ValueError, match="already registered"):
            reg.counter("x", labelnames=("b",))


class TestGauges:
    def test_set_inc_dec(self, reg):
        g = reg.gauge("depth")
        g.set(7)
        g.inc(2)
        g.dec()
        assert g.value == 8.0


class TestHistograms:
    def test_observe_buckets_and_sum(self, reg):
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        child = h._default
        assert child.counts == [1, 1, 1]
        assert child.cumulative_counts() == [1, 2, 3]
        assert child.count == 3
        assert child.sum == pytest.approx(5.55)

    def test_percentile_empty_returns_none(self, reg):
        h = reg.histogram("lat")._default
        assert h.percentile(50) is None
        h.observe(1.0)
        # Interpolated within the (0.5, 1.0] bucket that holds it.
        assert h.percentile(50) == pytest.approx(0.75)

    def test_percentile_out_of_range_raises(self, reg):
        h = reg.histogram("lat")._default
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_bounds_are_inclusive_upper_edges(self, reg):
        h = reg.histogram("lat", buckets=(1.0, 2.0))._default
        for v in (1.0, 1.0000001, 2.0, 2.5):
            h.observe(v)
        assert h.counts == [1, 2, 1]

    def test_observe_many_equals_observe_per_sample(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(-1.0, 30.0, size=4096)
        bulk = Histogram("h", bounds=(0.0, 1.0, 2.0, 4.0, 8.0, 16.0))
        single = Histogram("h", bounds=bulk.bounds)
        bulk.observe(0.1)
        single.observe(0.1)
        bulk.observe_many(xs)
        for x in xs.tolist():
            single.observe(x)
        assert bulk.counts == single.counts
        assert bulk.count == single.count
        # Summed in sample order: equal to the last bit.
        assert bulk.sum == single.sum
        bulk.observe_many([])
        assert bulk.count == single.count

    def test_counter_series_naming_rule(self):
        assert counter_series("sim.control_steps") == (
            "repro_sim_control_steps_total"
        )

    def test_unsorted_bounds_rejected(self, reg):
        with pytest.raises(ValueError, match="sorted"):
            reg.histogram("h", buckets=(1.0, 0.5))


class TestDeltaPipe:
    def test_quiescent_registry_flushes_none(self, reg):
        reg.counter("c")
        assert reg.flush_deltas() is None

    def test_counter_delta_roundtrip(self, reg):
        parent = TelemetryRegistry()
        fam = reg.counter("jobs", labelnames=("kind",))
        fam.labels(kind="sim").inc(3)
        doc = reg.flush_deltas()
        assert doc["schema"] == DELTA_SCHEMA_ID
        parent.merge(doc)
        assert parent.counter(
            "jobs", labelnames=("kind",)
        ).labels(kind="sim").value == 3.0
        # Nothing new → no re-flush on either side.
        assert reg.flush_deltas() is None
        assert parent.flush_deltas() is None

    def test_incremental_flushes_never_double_count(self, reg):
        parent = TelemetryRegistry()
        c = reg.counter("c")
        c.inc(2)
        parent.merge(reg.flush_deltas())
        c.inc(5)
        parent.merge(reg.flush_deltas())
        assert parent.counter("c").value == 7.0

    def test_gauge_is_last_value_wins(self, reg):
        parent = TelemetryRegistry()
        g = reg.gauge("depth")
        g.set(5)
        parent.merge(reg.flush_deltas())
        g.set(2)
        parent.merge(reg.flush_deltas())
        assert parent.gauge("depth").value == 2.0

    def test_histogram_delta_merges_counts_sum_samples(self, reg):
        parent = TelemetryRegistry()
        h = reg.histogram("lat", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        parent.merge(reg.flush_deltas())
        h.observe(20.0)
        doc = reg.flush_deltas()
        # Buckets and sum are the whole delta: no raw samples ride along.
        assert set(doc["histograms"][0][2]) == {"bounds", "counts", "sum"}
        parent.merge(doc)
        merged = parent.histogram("lat", buckets=(1.0, 10.0))._default
        assert merged.counts == [1, 1, 1]
        assert merged.count == 3
        assert merged.sum == pytest.approx(25.5)
        assert merged.percentile(50) == pytest.approx(5.5)

    def test_histogram_bounds_mismatch_raises(self, reg):
        parent = TelemetryRegistry()
        parent.histogram("lat", buckets=(1.0,)).observe(0.5)
        reg.histogram("lat", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ValueError, match="mismatch"):
            parent.merge(reg.flush_deltas())

    def test_merge_rejects_unknown_schema(self, reg):
        with pytest.raises(ValueError, match="schema"):
            reg.merge({"schema": "bogus/9"})

    def test_merged_values_do_not_reflush(self, reg):
        """A parent that is itself flushed upward must not re-ship what
        it merely merged (watermarks advance on merge)."""
        child = TelemetryRegistry()
        child.counter("c").inc(4)
        reg.merge(child.flush_deltas())
        assert reg.flush_deltas() is None


class TestDefaults:
    def test_default_registry_swap(self):
        fresh = TelemetryRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)

    def test_concurrent_label_creation_is_safe(self, reg):
        fam = reg.counter("c", labelnames=("i",))
        errors = []

        def spin(base):
            try:
                for i in range(200):
                    fam.labels(i=str(i % 10)).inc()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=spin, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        total = sum(child.value for child in fam.children())
        assert total == 800.0
