"""Low-overhead span tracer with wall/sim dual clocks.

The tracer records three event kinds — **spans** (a named duration),
**instants** (a point event), and **counter samples** (a named value over
time) — into an in-memory buffer and, optionally, a streaming JSONL sink.
Records use Chrome-trace-event vocabulary (``ph`` = ``"X"``/``"i"``/``"C"``,
timestamps in microseconds) so :mod:`repro.obs.chrome` can export them to a
``chrome://tracing`` / Perfetto-loadable file almost verbatim.

Design constraints, in order:

1. **Disabled must cost ~nothing.** The global tracer defaults to
   disabled; every emit method begins with a single ``self.enabled``
   check, and :meth:`Tracer.span` returns a shared no-op context-manager
   singleton, so instrumented hot paths pay one attribute test.
   ``tests/obs/test_tracer.py::TestDisabledTracer`` pins both.
2. **Dual clocks.** Every record carries a wall timestamp on the
   process-monotonic clock (``time.perf_counter`` relative to the tracer
   epoch). Callers inside a simulation additionally pass
   ``sim_time_ns``; records emitted with ``clock="sim"`` are *timed on
   the simulated clock* and are grouped by the Chrome exporter into a
   dedicated virtual process lane, giving Perfetto a sim-time axis for
   temperature / PIM-rate / token-pool tracks.
3. **Thread/process safety.** Buffer and sink writes are serialized by a
   lock; each record carries ``pid``/``tid``. A fork is detected by pid
   change: the child drops the inherited buffer and re-opens the JSONL
   sink in append mode (whole-line ``O_APPEND`` writes interleave safely),
   so worker-process records survive in the sink even though the parent's
   in-memory buffer never sees them.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Union


class _NullSpan:
    """Shared no-op span returned by a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **args: Any) -> None:
        """Ignore late-bound span arguments."""


NULL_SPAN = _NullSpan()


class Span:
    """Context manager measuring one wall-clock duration.

    Extra ``args`` ride into the record; :meth:`set` attaches results
    discovered mid-span (e.g. iteration counts).
    """

    __slots__ = ("_tracer", "name", "cat", "args", "_t0")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self._t0 = 0.0

    def set(self, **args: Any) -> None:
        self.args.update(args)

    def __enter__(self) -> "Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.args["error"] = exc_type.__name__
        self._tracer.complete_raw(
            self.name, self._t0, time.perf_counter(), self.cat, self.args
        )
        return False


class Tracer:
    """Span/instant/counter recorder with an optional JSONL sink.

    Parameters
    ----------
    enabled:
        Master switch. A disabled tracer's emit methods return
        immediately (and :meth:`span` returns a shared no-op singleton).
    sink:
        Optional path; every record is also appended as one JSON line,
        flushed immediately (kill-safe, fork-safe).
    """

    def __init__(
        self, enabled: bool = False, sink: Optional[Union[str, Path]] = None
    ) -> None:
        self.enabled = enabled
        self._records: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()
        self._pid = os.getpid()
        self._sink_path = Path(sink) if sink is not None else None
        self._sink = None

    # -- record plumbing ---------------------------------------------------

    @property
    def epoch(self) -> float:
        """``time.perf_counter`` origin of this tracer's wall timestamps."""
        return self._epoch

    def _ts_us(self, t_perf: float) -> float:
        return (t_perf - self._epoch) * 1e6

    def _emit(self, rec: Dict[str, Any]) -> None:
        with self._lock:
            pid = os.getpid()
            if pid != self._pid:
                # Forked child: the inherited buffer belongs to the
                # parent's story; keep only our own records and re-open
                # the sink so appends target a private file handle.
                self._pid = pid
                self._records = []
                self._sink = None
            rec["pid"] = pid
            self._records.append(rec)
            if self._sink_path is not None:
                if self._sink is None:
                    self._sink_path.parent.mkdir(parents=True, exist_ok=True)
                    self._sink = open(self._sink_path, "a", encoding="utf-8")
                self._sink.write(json.dumps(rec, separators=(",", ":")) + "\n")
                self._sink.flush()

    def _base(
        self,
        ph: str,
        name: str,
        cat: str,
        ts_us: float,
        sim_time_ns: Optional[float],
        clock: str,
    ) -> Dict[str, Any]:
        rec: Dict[str, Any] = {
            "ph": ph,
            "name": name,
            "cat": cat or "repro",
            "ts": ts_us,
            "tid": threading.get_ident(),
        }
        if clock != "wall":
            rec["clock"] = clock
        if sim_time_ns is not None:
            rec["sim_ns"] = float(sim_time_ns)
        return rec

    # -- emit API ----------------------------------------------------------

    def span(
        self,
        name: str,
        cat: str = "",
        sim_time_ns: Optional[float] = None,
        **args: Any,
    ) -> Union[Span, _NullSpan]:
        """Context manager recording a complete ("X") event on exit."""
        if not self.enabled:
            return NULL_SPAN
        if sim_time_ns is not None:
            args["sim_ns"] = float(sim_time_ns)
        return Span(self, name, cat, args)

    def complete_raw(
        self,
        name: str,
        start_perf: float,
        end_perf: float,
        cat: str = "",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a span from explicit ``time.perf_counter`` stamps.

        This is how callers that already know both endpoints (the job
        scheduler's queue→done spans) record without a context manager.
        """
        if not self.enabled:
            return
        sim_ns = (args or {}).pop("sim_ns", None) if args else None
        rec = self._base("X", name, cat, self._ts_us(start_perf), sim_ns, "wall")
        rec["dur"] = max(0.0, (end_perf - start_perf) * 1e6)
        if args:
            rec["args"] = args
        self._emit(rec)

    def complete(
        self,
        name: str,
        start_perf: float,
        end_perf: float,
        cat: str = "",
        sim_time_ns: Optional[float] = None,
        **args: Any,
    ) -> None:
        """Keyword-args convenience wrapper over :meth:`complete_raw`."""
        if not self.enabled:
            return
        if sim_time_ns is not None:
            args["sim_ns"] = float(sim_time_ns)
        self.complete_raw(name, start_perf, end_perf, cat, args)

    def instant(
        self,
        name: str,
        cat: str = "",
        sim_time_ns: Optional[float] = None,
        clock: str = "wall",
        **args: Any,
    ) -> None:
        """Record a point event ("i")."""
        if not self.enabled:
            return
        if clock == "sim" and sim_time_ns is not None:
            ts = sim_time_ns / 1e3  # sim-ns → sim-µs axis
        else:
            ts = self._ts_us(time.perf_counter())
        rec = self._base("i", name, cat, ts, sim_time_ns, clock)
        rec["s"] = "t"  # thread-scoped instant
        if args:
            rec["args"] = args
        self._emit(rec)

    def counter(
        self,
        name: str,
        value: float,
        cat: str = "",
        sim_time_ns: Optional[float] = None,
        clock: str = "wall",
    ) -> None:
        """Record one sample of a counter track ("C")."""
        if not self.enabled:
            return
        if clock == "sim" and sim_time_ns is not None:
            ts = sim_time_ns / 1e3
        else:
            ts = self._ts_us(time.perf_counter())
        rec = self._base("C", name, cat, ts, sim_time_ns, clock)
        rec["args"] = {"value": float(value)}
        self._emit(rec)

    # -- buffer access -----------------------------------------------------

    @property
    def records(self) -> List[Dict[str, Any]]:
        """Snapshot copy of the in-memory record buffer."""
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records = []

    def flush(self) -> None:
        with self._lock:
            if self._sink is not None:
                self._sink.flush()

    def close(self) -> None:
        with self._lock:
            if self._sink is not None:
                self._sink.close()
                self._sink = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def traced(
    name: Optional[str] = None, cat: str = ""
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator: wrap a function call in a span on the *global* tracer.

    Resolves the tracer at call time (not decoration time), so enabling
    tracing later still captures decorated functions. Disabled tracing
    costs one global read + one bool test per call.
    """

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            tr = _TRACER
            if not tr.enabled:
                return fn(*args, **kwargs)
            with tr.span(label, cat=cat):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


#: Process-global tracer. Disabled by default; the ``repro trace`` CLI and
#: :func:`tracing` swap in an enabled instance.
_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-global tracer (disabled unless explicitly enabled)."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the global tracer; returns the previous one."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


@contextmanager
def tracing(
    sink: Optional[Union[str, Path]] = None,
) -> Iterator[Tracer]:
    """Enable tracing for a ``with`` block; restores the old tracer after.

    >>> from repro.obs.tracer import tracing
    >>> with tracing() as tr:
    ...     with tr.span("work", cat="demo"):
    ...         pass
    >>> any(r["name"] == "work" for r in tr.records)
    True
    """
    tracer = Tracer(enabled=True, sink=sink)
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
        tracer.close()
