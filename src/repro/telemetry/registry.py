"""The metrics core: one Counter, one Gauge, one Histogram.

The same primitives carry both views of the simulator's numbers:

- **Per run.** :class:`repro.sim.stats.StatRegistry` scopes them under
  dotted names (``sim.control_steps``), resets them at the start of a
  run, and snapshots them into the ``repro.metrics/1`` document.
- **Process-wide.** :class:`TelemetryRegistry` groups them into
  label-aware families that ``GET /metrics`` renders in Prometheus text
  exposition (:mod:`repro.telemetry.exposition`).

One naming rule links the two: the per-run counter ``a.b`` is summed
into the series :func:`counter_series` gives, ``repro_a_b_total``.

Histograms have explicit, strictly increasing upper bounds and the
Prometheus ``le`` rule: a sample lands in the first bucket whose bound
is ``>=`` it, and one implicit ``+Inf`` bucket catches the rest. Their
one :meth:`Histogram.percentile` interpolates within the bucket that
holds the target rank.

Design constraints, in the spirit of the tracer's NULL_SPAN fast path
(:mod:`repro.obs.tracer`):

- **Lock-light.** A single registry lock guards family/child *creation*
  only; recording (``inc``/``set``/``observe``) touches plain attributes
  under the GIL. Metrics are recorded at run/job boundaries — never
  inside the control loop — so contention is negligible by construction.
- **Near-zero when unobserved.** Handles are resolved once and cached by
  callers (``family.labels(...)`` memoizes children); recording is a few
  attribute writes. Nothing is formatted, serialized, or copied until a
  collector actually scrapes.
- **Delta-flushable.** Forked pool workers accumulate into their own
  (inherited) registry and ship compact deltas back through the job
  result pipe (:meth:`TelemetryRegistry.flush_deltas`); the parent folds
  them into its own series (:meth:`TelemetryRegistry.merge`), so
  ``/metrics`` covers the whole worker fleet.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Schema identifier stamped on flushed delta documents.
DELTA_SCHEMA_ID = "repro.telemetry-delta/1"

#: Default histogram bucket upper bounds (seconds-flavoured, like
#: Prometheus' own defaults; callers override for other units).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def linear_bounds(lo: float, hi: float, nbins: int) -> Tuple[float, ...]:
    """``nbins`` equal-width buckets over ``(lo, hi]``.

    The first bound is ``lo`` itself, so its bucket holds the samples at
    or below the range and the ``+Inf`` bucket those above it.
    """
    if hi <= lo:
        raise ValueError(f"hi must exceed lo: ({lo}, {hi}]")
    if nbins <= 0:
        raise ValueError(f"nbins must be positive, got {nbins}")
    width = (hi - lo) / nbins
    return tuple(lo + i * width for i in range(nbins)) + (float(hi),)


def counter_series(stat_name: str) -> str:
    """The ``/metrics`` series a per-run counter is summed into.

    ``sim.control_steps`` → ``repro_sim_control_steps_total``.
    """
    return "repro_" + stat_name.replace(".", "_") + "_total"


def _label_items(
    labelnames: Tuple[str, ...], labels: Mapping[str, Any]
) -> Tuple[Tuple[str, str], ...]:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"labels {sorted(labels)} do not match declared "
            f"labelnames {sorted(labelnames)}"
        )
    return tuple((name, str(labels[name])) for name in labelnames)


class Counter:
    """Monotonic counter (one labelled child, or one per-run stat)."""

    kind = "counter"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._flushed = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0: {amount}")
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0
        self._flushed = 0.0

    def _delta(self) -> float:
        delta = self.value - self._flushed
        self._flushed = self.value
        return delta


class Gauge:
    """Last-value-wins instantaneous measurement."""

    kind = "gauge"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Bucket counts over explicit upper bounds, Prometheus ``le`` rule.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    implicit ``+Inf`` bucket catches the overflow. ``counts`` are
    per-bucket (non-cumulative); the exposition cumulates them.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Tuple[Tuple[str, str], ...] = (),
        bounds: Sequence[float] = DEFAULT_BUCKETS,
    ):
        bounds = tuple(map(float, bounds))
        if not bounds or any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ValueError(
                f"bucket bounds must be non-empty and sorted strictly "
                f"increasing: {bounds}"
            )
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.reset()

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self._flushed_counts = [0] * (len(self.bounds) + 1)
        self._flushed_sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def observe_many(self, values) -> None:
        """Observe every sample of ``values`` (one vectorized fill).

        Equal to calling :meth:`observe` per sample, ``sum`` included:
        it accumulates left to right from the running total rather than
        through numpy's pairwise ``sum()``, so a bulk writer (the
        macro-step engine) and a per-sample writer (the stepped engine)
        agree to the last bit.
        """
        import numpy as np

        xs = np.asarray(values, dtype=float)
        if xs.size == 0:
            return
        # searchsorted's default side="left" is the ``le`` rule.
        hits = np.bincount(np.searchsorted(self.bounds, xs))
        for i in np.flatnonzero(hits).tolist():
            self.counts[i] += int(hits[i])
        self.sum = float(np.add.accumulate(np.concatenate(([self.sum], xs)))[-1])
        self.count += int(xs.size)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-th percentile (``0 <= q <= 100``).

        Walks the cumulative bucket counts to rank ``q/100 * count`` and
        interpolates linearly within the bucket that holds it. Samples
        at or below the first bound count as sitting on it and samples
        past the last bound as sitting on that one, so the estimate is
        clamped to ``[bounds[0], bounds[-1]]``. Returns ``None`` for an
        empty histogram (degenerate series render as ``n=0``, they never
        raise); raises :class:`ValueError` only for ``q`` out of range.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile out of [0, 100]: {q}")
        if self.count == 0:
            return None
        target = q / 100.0 * self.count
        cum = self.counts[0]
        if target <= cum:
            return self.bounds[0]
        for lower, upper, n in zip(self.bounds, self.bounds[1:], self.counts[1:]):
            if n and target <= cum + n:
                width = upper - lower
                # In bucket-width units: on equal-width bounds from 0 this
                # is the bin-index form (i + frac) * width, bit for bit.
                return (lower / width + (target - cum) / n) * width
            cum += n
        return self.bounds[-1]

    def cumulative_counts(self) -> List[int]:
        """Prometheus ``le`` buckets: running totals incl. ``+Inf``."""
        out: List[int] = []
        running = 0
        for c in self.counts:
            running += c
            out.append(running)
        return out

    def _delta(self) -> Optional[Dict[str, Any]]:
        counts = [c - f for c, f in zip(self.counts, self._flushed_counts)]
        if not any(counts):
            return None
        delta = {
            "bounds": list(self.bounds),
            "counts": counts,
            "sum": self.sum - self._flushed_sum,
        }
        self._flushed_counts = list(self.counts)
        self._flushed_sum = self.sum
        return delta

    def _merge(self, delta: Mapping[str, Any]) -> None:
        if tuple(delta["bounds"]) != self.bounds:
            raise ValueError(
                f"histogram {self.name!r} bucket bounds mismatch on merge"
            )
        for i, c in enumerate(delta["counts"]):
            self.counts[i] += int(c)
        self.sum += float(delta["sum"])
        self.count += int(sum(delta["counts"]))


_CHILD_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric and its per-label-set children."""

    def __init__(
        self,
        registry: "TelemetryRegistry",
        kind: str,
        name: str,
        help: str,
        labelnames: Tuple[str, ...],
        **child_kwargs: Any,
    ):
        self.registry = registry
        self.kind = kind
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._child_kwargs = child_kwargs
        self._children: Dict[Tuple[Tuple[str, str], ...], Any] = {}
        self._default = None if labelnames else self._make(())

    def _make(self, items: Tuple[Tuple[str, str], ...]):
        child = _CHILD_TYPES[self.kind](self.name, items, **self._child_kwargs)
        self._children[items] = child
        return child

    def labels(self, **labels: Any):
        """The child bound to this label set (created on first use)."""
        items = _label_items(self.labelnames, labels)
        child = self._children.get(items)
        if child is None:
            with self.registry._lock:
                child = self._children.get(items) or self._make(items)
        return child

    def children(self) -> List[Any]:
        return list(self._children.values())

    # Unlabelled families act as their own single child.
    def inc(self, amount: float = 1.0) -> None:
        self._default.inc(amount)

    def set(self, value: float) -> None:
        self._default.set(value)

    def dec(self, amount: float = 1.0) -> None:
        self._default.dec(amount)

    def observe(self, value: float) -> None:
        self._default.observe(value)

    @property
    def value(self) -> float:
        return self._default.value


class TelemetryRegistry:
    """Process-wide collection of metric families."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: Dict[str, MetricFamily] = {}

    def _family(self, kind: str, name: str, help: str,
                labelnames: Iterable[str], **kwargs: Any) -> MetricFamily:
        labelnames = tuple(labelnames)
        with self._lock:
            fam = self._families.get(name)
            if fam is not None:
                if fam.kind != kind or fam.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered as {fam.kind} "
                        f"with labels {fam.labelnames}"
                    )
                return fam
            fam = MetricFamily(self, kind, name, help, labelnames, **kwargs)
            self._families[name] = fam
            return fam

    def counter(self, name: str, help: str = "",
                labelnames: Iterable[str] = ()) -> MetricFamily:
        return self._family("counter", name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Iterable[str] = ()) -> MetricFamily:
        return self._family("gauge", name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        return self._family(
            "histogram", name, help, labelnames, bounds=tuple(buckets)
        )

    def families(self) -> List[MetricFamily]:
        with self._lock:
            return list(self._families.values())

    def clear(self) -> None:
        """Drop every family (test isolation)."""
        with self._lock:
            self._families.clear()

    # -- worker → parent delta pipe ---------------------------------------

    def flush_deltas(self) -> Optional[Dict[str, Any]]:
        """Changes since the previous flush, or None when quiescent.

        Counters/histograms ship increments (mergeable), gauges ship
        their current value (last-writer-wins). Advances the per-child
        flush watermarks, so repeated flushes never double-count.
        """
        counters: List[List[Any]] = []
        gauges: List[List[Any]] = []
        histograms: List[List[Any]] = []
        for fam in self.families():
            for child in fam.children():
                items = [list(kv) for kv in child.labels]
                if fam.kind == "counter":
                    delta = child._delta()
                    if delta:
                        counters.append([fam.name, items, delta])
                elif fam.kind == "gauge":
                    gauges.append([fam.name, items, child.value])
                else:
                    delta = child._delta()
                    if delta is not None:
                        histograms.append([fam.name, items, delta])
        if not (counters or gauges or histograms):
            return None
        return {
            "schema": DELTA_SCHEMA_ID,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def merge(self, deltas: Mapping[str, Any]) -> None:
        """Fold a :meth:`flush_deltas` document into this registry."""
        if deltas.get("schema") != DELTA_SCHEMA_ID:
            raise ValueError(
                f"unsupported telemetry delta schema: {deltas.get('schema')!r}"
            )
        for name, items, delta in deltas.get("counters", ()):
            labelnames = tuple(k for k, _ in items)
            fam = self.counter(name, labelnames=labelnames)
            child = fam.labels(**dict(items)) if items else fam._default
            child.value += float(delta)
            child._flushed += float(delta)
        for name, items, value in deltas.get("gauges", ()):
            labelnames = tuple(k for k, _ in items)
            fam = self.gauge(name, labelnames=labelnames)
            child = fam.labels(**dict(items)) if items else fam._default
            child.set(float(value))
        for name, items, delta in deltas.get("histograms", ()):
            labelnames = tuple(k for k, _ in items)
            fam = self.histogram(
                name, labelnames=labelnames, buckets=tuple(delta["bounds"])
            )
            child = fam.labels(**dict(items)) if items else fam._default
            child._merge(delta)
            child._flushed_counts = list(child.counts)
            child._flushed_sum = child.sum


#: Process-wide default registry (the one ``GET /metrics`` renders).
_DEFAULT_REGISTRY = TelemetryRegistry()


def get_registry() -> TelemetryRegistry:
    """The process-wide default registry."""
    return _DEFAULT_REGISTRY


def set_registry(registry: TelemetryRegistry) -> TelemetryRegistry:
    """Swap the default registry (tests); returns the previous one."""
    global _DEFAULT_REGISTRY
    previous = _DEFAULT_REGISTRY
    _DEFAULT_REGISTRY = registry
    return previous
