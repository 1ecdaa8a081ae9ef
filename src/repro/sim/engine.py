"""Discrete-event simulation engine.

A small, deterministic event scheduler used by the event-level HMC cube
model. Events are ordered by (time, priority, sequence number); the sequence
number guarantees FIFO ordering among events scheduled for the same instant,
which keeps simulations reproducible across runs.

Times are in **nanoseconds** throughout the event-level models (the HMC
timing parameters in the paper are given in ns).
"""

from __future__ import annotations

import heapq
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.obs.tracer import Tracer, get_tracer


@dataclass(order=True)
class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Absolute simulation time in nanoseconds.
    priority:
        Lower values run earlier among events at the same time.
    seq:
        Monotonic tie-breaker assigned by the engine.
    callback:
        Zero-argument callable invoked when the event fires.
    """

    time: float
    priority: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    _engine: Optional["EventEngine"] = field(
        default=None, compare=False, repr=False
    )

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped.

        Safe to call at any time: cancelling an event that already fired,
        was already cancelled, or was orphaned by :meth:`EventEngine.reset`
        is a no-op (the engine detaches itself from events it has finished
        with, so the live count can never be decremented twice).
        """
        if not self.cancelled:
            self.cancelled = True
            if self._engine is not None:
                self._engine._live -= 1
                self._engine = None


class EventEngine:
    """Priority-queue discrete-event scheduler.

    Example
    -------
    >>> eng = EventEngine()
    >>> out = []
    >>> _ = eng.schedule(5.0, lambda: out.append("b"))
    >>> _ = eng.schedule(1.0, lambda: out.append("a"))
    >>> eng.run()
    >>> out
    ['a', 'b']
    """

    def __init__(self) -> None:
        self._queue: list[Event] = []
        self._seq = 0
        self._now = 0.0
        self._running = False
        # Live (non-cancelled, not-yet-fired) event count, maintained
        # incrementally: __len__ sits on the hot scheduling path and must
        # not rescan the heap.
        self._live = 0
        # Explicit tracer override; None falls back to the global tracer,
        # which is disabled by default. All instrumentation lives in run()
        # behind a single bool so step() stays untouched and a disabled
        # tracer costs one attribute test per run() call.
        self._tracer: Optional[Tracer] = None

    def set_tracer(self, tracer: Optional[Tracer]) -> None:
        """Attach a specific tracer (None reverts to the global one)."""
        self._tracer = tracer

    @property
    def now(self) -> float:
        """Current simulation time in nanoseconds."""
        return self._now

    def __len__(self) -> int:
        return self._live

    def schedule(
        self, time: float, callback: Callable[[], None], priority: int = 0
    ) -> Event:
        """Schedule ``callback`` at absolute ``time``.

        Raises :class:`ValueError` for events in the past.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule event at t={time} before now={self._now}"
            )
        ev = Event(
            time=time, priority=priority, seq=self._seq, callback=callback,
            _engine=self,
        )
        self._seq += 1
        self._live += 1
        heapq.heappush(self._queue, ev)
        return ev

    def schedule_after(
        self, delay: float, callback: Callable[[], None], priority: int = 0
    ) -> Event:
        """Schedule ``callback`` after a relative ``delay`` (ns)."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.schedule(self._now + delay, callback, priority)

    def peek_time(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or ``None``."""
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0].time if self._queue else None

    def step(self) -> bool:
        """Run the single next event. Returns ``False`` if queue is empty."""
        while self._queue:
            ev = heapq.heappop(self._queue)
            if ev.cancelled:
                continue
            self._live -= 1
            # Detach: a late cancel() on a fired event must not decrement
            # the live count again.
            ev._engine = None
            self._now = ev.time
            ev.callback()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired. Returns the number of events executed.

        When ``until`` is given, the engine stops *before* executing any
        event with ``time > until``, and ``now`` advances to ``until``
        if and only if no pending event at ``time <= until`` remains —
        i.e. the interval was fully simulated. A run truncated by
        ``max_events`` with work still pending inside the interval leaves
        ``now`` at the last executed event, so callers can resume with
        another :meth:`run` call without skipping simulated time.
        """
        tr = self._tracer if self._tracer is not None else get_tracer()
        traced = tr.enabled
        if traced:
            t0 = _time.perf_counter()
            sim0 = self._now
            depth0 = self._live
        count = 0
        while True:
            if max_events is not None and count >= max_events:
                break
            t = self.peek_time()
            if t is None:
                break
            if until is not None and t > until:
                break
            self.step()
            count += 1
            # Sample queue depth every 64 events: enough resolution for a
            # Perfetto track, negligible cost when tracing is live.
            if traced and count & 63 == 0:
                tr.counter(
                    "engine.queue_depth", self._live, cat="engine",
                    sim_time_ns=self._now,
                )
        if until is not None and until > self._now:
            t = self.peek_time()
            if t is None or t > until:
                self._now = until
        if traced:
            tr.complete(
                "engine.run", t0, _time.perf_counter(), cat="engine",
                events=count, queue_depth_start=depth0, queue_depth_end=self._live,
                sim_start_ns=sim0, sim_end_ns=self._now,
            )
        return count

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero.

        Orphaned events are detached first, so cancelling a stale handle
        from before the reset cannot corrupt the new live count.
        """
        for ev in self._queue:
            ev._engine = None
        self._queue.clear()
        self._now = 0.0
        self._seq = 0
        self._live = 0
