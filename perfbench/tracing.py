"""Span recording around the program's public layer entry points.

The benchmark wraps functions from its own files; the program itself is
not edited. Spans are kept in memory. A forked pool worker keeps its own
list and writes it to a spill directory when the worker exits; the
parent merges the spill files after the pool is gone.

Span times come from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux),
which is system-wide, so spans of forked workers line up with the
parent's.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing.util
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: str
    parent_id: Optional[str]
    request_id: Optional[str]
    phase: str
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self, spill_dir: Optional[Path] = None) -> None:
        self.spans: List[Span] = []
        self.phase = "setup"
        self.spill_dir = spill_dir
        self._local = threading.local()
        self._ids = itertools.count()
        self._pid = os.getpid()
        multiprocessing.util.register_after_fork(self, Recorder._after_fork)

    # -- fork handling ---------------------------------------------------

    def _after_fork(self) -> None:
        """In a forked worker: drop the parent's spans (the parent keeps
        them), keep the open-span stack so worker spans nest under the
        span that forked them, and spill at worker exit."""
        self.spans = []
        self._pid = os.getpid()
        self._ids = itertools.count()
        if self.spill_dir is not None:
            multiprocessing.util.Finalize(None, self.spill, exitpriority=10)

    def spill(self) -> None:
        if self.spill_dir is None or not self.spans:
            return
        path = self.spill_dir / f"spans-{self._pid}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)

    def merge_spills(self) -> None:
        if self.spill_dir is None:
            return
        for path in sorted(self.spill_dir.glob("spans-*.json")):
            with open(path, encoding="utf-8") as fh:
                self.spans.extend(Span(**d) for d in json.load(fh))
            path.unlink()

    # -- recording -------------------------------------------------------

    def _stack(self) -> List[Tuple[str, Optional[str]]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, request_id: Optional[str] = None) -> Tuple[str, Optional[str], Optional[str]]:
        stack = self._stack()
        parent, inherited = stack[-1] if stack else (None, None)
        span_id = f"{self._pid}-{next(self._ids)}"
        rid = request_id if request_id is not None else inherited
        stack.append((span_id, rid))
        return span_id, parent, rid

    def close(self, name: str, start: float, span_id: str, parent: Optional[str],
              rid: Optional[str], attrs: Dict[str, Any]) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append(
            Span(name, start, end, span_id, parent, rid, self.phase, attrs)
        )

    def request(self, request_id: str):
        """Context manager: spans opened inside carry ``request_id``."""
        return _RequestScope(self, request_id)

    def wrap(
        self,
        fn: Callable,
        name: str,
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., Dict[str, Any]]] = None,
        request_of: Optional[Callable[..., Optional[str]]] = None,
    ) -> Callable:
        """Span around every call of ``fn``.

        ``before(*args, **kw)`` runs ahead of the call; ``after(state,
        result, *args, **kw)`` returns span attributes; ``request_of``
        names the request the call serves.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(*args, **kwargs) if before else None
            rid = request_of(*args, **kwargs) if request_of else None
            span_id, parent, rid = recorder.open(rid)
            start = time.perf_counter()
            attrs: Dict[str, Any] = {}
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    attrs = after(state, result, *args, **kwargs)
                return result
            except BaseException as exc:
                attrs = {"error": type(exc).__name__}
                raise
            finally:
                recorder.close(name, start, span_id, parent, rid, attrs)

        return traced


class _RequestScope:
    def __init__(self, recorder: Recorder, request_id: str) -> None:
        self.recorder = recorder
        self.request_id = request_id

    def __enter__(self) -> None:
        stack = self.recorder._stack()
        parent = stack[-1][0] if stack else None
        stack.append((parent, self.request_id))

    def __exit__(self, *exc) -> None:
        self.recorder._stack().pop()


# -- self time ---------------------------------------------------------------


def union_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Span id → duration minus the time its children cover.

    Children may nest, overlap each other (parallel pool workers) or
    run past their parent; only the covered part of the parent's
    interval is subtracted, once.
    """
    children: Dict[str, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append((s.start, s.end))
    return {
        s.span_id: s.duration - union_length(children.get(s.span_id, ()), s.start, s.end)
        for s in spans
    }


def self_time_by_layer(spans: List[Span]) -> Dict[str, float]:
    own = self_times(spans)
    out: Dict[str, float] = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + own[s.span_id]
    return out


# -- wrapping the program ------------------------------------------------------


def _replace_everywhere(owner: Any, attr: str, new: Callable) -> None:
    """Set ``owner.attr`` and rebind every ``repro`` module global that
    imported the original by name."""
    old = getattr(owner, attr)
    setattr(owner, attr, new)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("repro") and mod is not None:
            for key, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, key, new)


def install(recorder: Recorder, api_client_cls: Any) -> None:
    """Wrap the layer entry points the per-layer metrics are built from."""
    import repro.experiments.runner as runner
    import repro.graph.datasets as datasets
    import repro.service.handlers as handlers
    import repro.thermal.operators as operators
    from repro.core.coolpim import CoolPimSystem
    from repro.gpu.simulator import SystemSimulator
    from repro.service.scheduler import JobScheduler
    from repro.service.store import ResultStore
    from repro.workloads.base import GraphWorkload

    _replace_everywhere(datasets, "get_dataset", recorder.wrap(
        datasets.get_dataset, "graph.get_dataset",
        before=lambda name: name not in datasets._CACHE,
        after=lambda loaded, result, name: {"loaded": loaded},
    ))
    _replace_everywhere(operators, "get_operators", recorder.wrap(
        operators.get_operators, "thermal.get_operators",
        before=lambda *a, **k: operators.cache_stats()["misses"],
        after=lambda misses, result, *a, **k: {
            "built": operators.cache_stats()["misses"] != misses
        },
    ))
    _replace_everywhere(operators, "get_propagator", recorder.wrap(
        operators.get_propagator, "thermal.get_propagator",
        before=lambda ops, *a, **k: len(ops.propagators),
        after=lambda n, result, ops, *a, **k: {
            "built": len(ops.propagators) != n
        },
    ))
    GraphWorkload.launch = recorder.wrap(GraphWorkload.launch, "workloads.launch")
    CoolPimSystem.run = recorder.wrap(CoolPimSystem.run, "core.run")
    SystemSimulator.run = recorder.wrap(
        SystemSimulator.run, "gpu.run",
        after=lambda _s, result, sim, *a, **k: {
            "steps": sim.stats.scoped("sim").counter("control_steps").value
        },
    )
    ResultStore.get = recorder.wrap(
        ResultStore.get, "store.get",
        after=lambda _s, result, *a, **k: {"hit": result is not None},
    )
    ResultStore.put = recorder.wrap(
        ResultStore.put, "store.put",
        after=lambda _s, path, *a, **k: {"bytes": os.path.getsize(path)},
    )
    JobScheduler.run = recorder.wrap(
        JobScheduler.run, "scheduler.run",
        request_of=lambda _self, specs: specs[0].key if len(specs) == 1 else None,
        after=lambda _s, report, _self, specs: {
            "jobs": len(specs),
            "failures": len(report.failures),
            "retries": sum(
                max(0, r.attempts - 1) for r in report.results.values()
            ) + sum(max(0, f.attempts - 1) for f in report.failures.values()),
        },
    )
    for fn_name in ("run_simulation_job", "run_experiment_job"):
        _replace_everywhere(handlers, fn_name, recorder.wrap(
            getattr(handlers, fn_name), "handlers.run",
            request_of=lambda spec: spec.key,
        ))
    _replace_everywhere(runner, "run_experiment", recorder.wrap(
        runner.run_experiment, "experiments.run",
        after=lambda _s, text, name, *a, **k: {"experiment": name},
    ))
    for method in ("submit_run", "submit_sweep"):
        setattr(api_client_cls, method, recorder.wrap(
            getattr(api_client_cls, method), f"api.{method}"
        ))
    api_client_cls.stream_events = _wrap_stream(recorder, api_client_cls.stream_events)


def _wrap_stream(recorder: Recorder, fn: Callable) -> Callable:
    """Span over a whole event-stream read. Its layer is ``wait``: the
    client is idle there while the server works."""

    @functools.wraps(fn)
    def traced(self, run_id, *args, **kwargs):
        span_id, parent, rid = recorder.open()
        start = time.perf_counter()
        try:
            yield from fn(self, run_id, *args, **kwargs)
        finally:
            recorder.close("wait.stream_events", start, span_id, parent, rid, {})

    return traced


# -- per-layer metrics ---------------------------------------------------------

#: Layers with spans, in call order from the client down.
LAYERS = (
    "api", "scheduler", "handlers", "store", "graph", "thermal", "workloads",
    "core", "gpu", "experiments",
)


def per_layer_names(experiments: Iterable[str]) -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    names = [
        ("api.requests", "count", "lower"),
        ("api.submit_s", "s", "lower"),
        ("api.queue_wait_s", "s", "lower"),
        ("api.cached", "count", "higher"),
        ("api.coalesced", "count", "higher"),
        ("api.refused", "count", "lower"),
        ("scheduler.jobs", "count", "lower"),
        ("scheduler.handler_s", "s", "lower"),
        ("scheduler.overhead_s", "s", "lower"),
        ("scheduler.retries", "count", "lower"),
        ("scheduler.failures", "count", "lower"),
        ("store.gets", "count", "lower"),
        ("store.hit_ratio", "ratio", "higher"),
        ("store.get_s", "s", "lower"),
        ("store.puts", "count", "lower"),
        ("store.put_s", "s", "lower"),
        ("store.bytes_written", "bytes", "lower"),
        ("graph.loads", "count", "lower"),
        ("graph.load_s", "s", "lower"),
        ("thermal.operator_builds", "count", "lower"),
        ("thermal.build_s", "s", "lower"),
        ("workloads.launches", "count", "lower"),
        ("workloads.launch_s", "s", "lower"),
        ("workloads.runs_per_launch", "ratio", "higher"),
        ("core.runs", "count", "lower"),
        ("core.run_s", "s", "lower"),
        ("gpu.sim_s", "s", "lower"),
        ("gpu.sim_steps", "steps", "lower"),
        ("gpu.steps_per_s", "1/s", "higher"),
        ("experiments.run_s", "s", "lower"),
    ]
    names += [(f"experiments.{e}_s", "s", "lower") for e in experiments]
    names += [
        ("process.cpu_s", "s", "lower"),
        ("process.cpu_per_wall", "ratio", "lower"),
        ("trace.overhead_fraction", "ratio", "lower"),
    ]
    names += [(f"self_s.{layer}", "s", "lower") for layer in LAYERS]
    return names


def layer_metrics(
    spans: List[Span],
    tally,
    experiments: Iterable[str],
    cpu_s: float,
    wall_s: float,
    overhead: float,
) -> List[Tuple[str, float, str, int, str]]:
    """Per-layer metrics of one traced unit.

    ``graph`` and ``thermal`` count set-up and measured phase (they move
    ``setup_s``); every other layer counts the measured phase only. A
    ``<layer>.<x>_s`` time is that layer's self time, except
    ``api.submit_s`` (client round trips), ``api.queue_wait_s`` (queued
    to started, from the run events), ``scheduler.handler_s`` (whole job
    handlers) and ``experiments.*`` (whole experiments).
    """
    own = self_times(spans)
    measured = [s for s in spans if s.phase == "measured"]

    def pick(names, pool=measured) -> List[Span]:
        names = (names,) if isinstance(names, str) else names
        return [s for s in pool if s.name in names]

    def self_sum(group: List[Span]) -> float:
        return sum(own[s.span_id] for s in group)

    def attr_sum(group: List[Span], key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in group)

    submits = pick(("api.submit_run", "api.submit_sweep"))
    api_calls = [s for s in measured if s.layer in ("api", "wait")]
    scheds = pick("scheduler.run")
    handlers = pick("handlers.run")
    gets, puts = pick("store.get"), pick("store.put")
    graph = [s for s in spans if s.layer == "graph"]
    thermal = [s for s in spans if s.layer == "thermal"]
    launches = pick("workloads.launch")
    core_runs = pick("core.run")
    gpu_runs = pick("gpu.run")
    exp_runs = pick("experiments.run")
    gpu_total = sum(s.duration for s in gpu_runs)
    steps = attr_sum(gpu_runs, "steps")
    values: Dict[str, float] = {
        "api.requests": len(api_calls),
        "api.submit_s": sum(s.duration for s in submits),
        "api.queue_wait_s": sum(tally.queue_waits),
        "api.cached": tally.cached,
        "api.coalesced": tally.coalesced,
        "api.refused": tally.refused,
        "scheduler.jobs": attr_sum(scheds, "jobs"),
        "scheduler.handler_s": sum(s.duration for s in handlers),
        "scheduler.overhead_s": self_sum(scheds),
        "scheduler.retries": attr_sum(scheds, "retries"),
        "scheduler.failures": attr_sum(scheds, "failures"),
        "store.gets": len(gets),
        "store.hit_ratio": attr_sum(gets, "hit") / len(gets) if gets else 0.0,
        "store.get_s": self_sum(gets),
        "store.puts": len(puts),
        "store.put_s": self_sum(puts),
        "store.bytes_written": attr_sum(puts, "bytes"),
        "graph.loads": attr_sum(graph, "loaded"),
        "graph.load_s": self_sum(graph),
        "thermal.operator_builds": attr_sum(thermal, "built"),
        "thermal.build_s": self_sum(thermal),
        "workloads.launches": len(launches),
        "workloads.launch_s": self_sum(launches),
        # 0 when nothing launched: every run reused a cached trace.
        "workloads.runs_per_launch": len(core_runs) / len(launches) if launches else 0.0,
        "core.runs": len(core_runs),
        "core.run_s": self_sum(core_runs),
        "gpu.sim_s": self_sum(gpu_runs),
        "gpu.sim_steps": steps,
        "gpu.steps_per_s": steps / gpu_total if gpu_total else 0.0,
        "experiments.run_s": sum(s.duration for s in exp_runs),
        "process.cpu_s": cpu_s,
        "process.cpu_per_wall": cpu_s / wall_s if wall_s else 0.0,
        "trace.overhead_fraction": overhead,
    }
    for name in experiments:
        values[f"experiments.{name}_s"] = sum(
            s.duration for s in exp_runs if s.attrs.get("experiment") == name
        )
    by_layer = self_time_by_layer(
        [s for s in spans if s.phase == "measured" or s.layer in ("graph", "thermal")]
    )
    for layer in LAYERS:
        values[f"self_s.{layer}"] = by_layer.get(layer, 0.0)
    pools = {
        "api": api_calls, "scheduler": scheds, "handlers": handlers,
        "store": gets + puts, "graph": graph, "thermal": thermal,
        "workloads": launches, "core": core_runs, "gpu": gpu_runs,
        "experiments": exp_runs,
    }

    def samples(name: str) -> int:
        """Spans behind a metric (1 for process-wide figures)."""
        if name.startswith("self_s."):
            layer = name[len("self_s."):]
        elif name == "scheduler.handler_s":
            layer = "handlers"
        else:
            layer = name.split(".")[0]
        return len(pools.get(layer, ())) or 1

    return [
        (name, float(values[name]), unit, samples(name), "traced")
        for name, unit, _ in per_layer_names(experiments)
    ]
