"""Workload base: algorithm execution → epoch traffic translation.

Each workload *executes its algorithm for real* on a CSR graph (vectorized
NumPy), yielding per-epoch :class:`EpochCounts` — actual frontier sizes,
edges inspected, and atomic operations performed. A per-variant
:class:`TrafficCoefficients` block translates those counts into memory
traffic (:class:`repro.sim.trace.OpBatch`): warp-centric kernels fetch
adjacency lists coalesced (few lines per edge), thread-centric ones pay
scattered accesses and heavy divergence.

The coefficients are the calibration surface of the reproduction: they are
chosen per benchmark so the simulated baseline bandwidth, naive PIM rates,
and speedup pattern land on the paper's evaluation (DESIGN.md §5).

Generating a trace is the dominant cost of a run, and the paper replays
every trace under all five offloading policies, so :func:`launch_for`
keeps generated traces in one process-wide memo under a content key
(:func:`trace_key`). Kernel variants that do the same graph work (the
four BFS kernels, the two data-driven SSSP kernels) name a shared
*family*: the memo also keeps each family *traversal* — the algorithm
run their epoch counts come from — so one run serves every variant.
"""

from __future__ import annotations

import abc
import threading
import time as _time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, Optional, Tuple

import numpy as np

from repro.gpu.caches import CacheModel
from repro.gpu.config import GPU_DEFAULT, GpuConfig
from repro.gpu.kernel import KernelLaunch
from repro.graph.csr import CSRGraph
from repro.obs.tracer import get_tracer
from repro.sim.trace import OpBatch, TraceCursor

#: Run-length knobs a workload may carry (traversal sources, query
#: repeats, solver iterations); ``apply_workload_scale`` rescales them.
RUN_LENGTH_KNOBS = ("num_sources", "repeats", "iterations")


@dataclass(frozen=True)
class EpochCounts:
    """Raw algorithmic work of one epoch (level / iteration / pass)."""

    label: str
    frontier_vertices: int = 0     # vertices actively processed
    scanned_vertices: int = 0      # vertices touched by topological scans
    edges_inspected: int = 0       # adjacency entries examined
    atomics: int = 0               # atomic RMW operations actually issued
    updated_vertices: int = 0      # vertices whose property was written

    def __post_init__(self) -> None:
        if min(self.frontier_vertices, self.scanned_vertices,
               self.edges_inspected, self.atomics, self.updated_vertices) < 0:
            raise ValueError(f"negative counts: {self}")


@dataclass(frozen=True)
class TrafficCoefficients:
    """Counts → traffic translation for one kernel variant.

    Attributes
    ----------
    lines_per_edge:
        64 B read lines per inspected edge (adjacency + property loads,
        post warp-coalescing).
    write_lines_per_edge:
        64 B write lines per inspected edge (frontier enqueues, visited
        bitmaps, output buffers). Balancing the request/response lanes is
        what lets a kernel reach the link-saturated operating points of
        Figs. 4/5.
    lines_per_scan_vertex:
        Read lines per scanned vertex (topological kernels stream the
        status array; fully coalesced ≈ 1/16 line per 4 B entry).
    writes_per_update:
        Write lines per updated vertex.
    instrs_per_edge:
        Thread instructions per inspected edge (compute floor).
    divergence:
        Divergent-warp ratio of the kernel (Eq. (1) input).
    read_hit_rate / write_hit_rate:
        Cache profile for ordinary loads/stores.
    atomic_coalescing:
        Fraction of host-executed atomics that cost a full DRAM RMW
        (L2 ROP merge absorbs the rest).
    return_fraction:
        Fraction of atomics whose old value the kernel consumes
        (PIM-with-return packets, Table I).
    """

    lines_per_edge: float
    write_lines_per_edge: float = 0.0
    lines_per_scan_vertex: float = 1.0 / 16.0
    writes_per_update: float = 1.0 / 8.0
    instrs_per_edge: float = 12.0
    divergence: float = 0.1
    read_hit_rate: float = 0.5
    write_hit_rate: float = 0.5
    atomic_coalescing: float = 0.6
    return_fraction: float = 0.0

    def __post_init__(self) -> None:
        for name in ("lines_per_edge", "write_lines_per_edge",
                     "lines_per_scan_vertex", "writes_per_update",
                     "instrs_per_edge"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")
        for name in ("divergence", "read_hit_rate", "write_hit_rate",
                     "atomic_coalescing", "return_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {v}")


class GraphWorkload(abc.ABC):
    """A GraphBIG kernel: algorithm + traffic coefficients."""

    #: Benchmark name as it appears in the paper's figures.
    name: str = "workload"
    coeffs: TrafficCoefficients = TrafficCoefficients(lines_per_edge=0.5)
    #: Kernels whose variants run the same algorithm name a family and
    #: implement :meth:`traverse` / :meth:`epochs_from`; ``None`` means
    #: the kernel's epochs come only from :meth:`epochs`.
    family: Optional[str] = None

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    # -- algorithm ------------------------------------------------------------

    @abc.abstractmethod
    def epochs(self, graph: CSRGraph) -> Iterator[EpochCounts]:
        """Execute the algorithm, yielding per-epoch work counts."""

    def traversal_key(self, graph: CSRGraph) -> Optional[tuple]:
        """Memo key of this kernel's family traversal of ``graph``.

        ``None`` for kernels without a family. A family's traversal
        depends only on the graph and the exact source list, so the key
        holds those and nothing a variant sets (name, coefficients,
        mapping).
        """
        return None

    def traverse(self, graph: CSRGraph) -> Any:
        """Run the family's algorithm once; :meth:`epochs_from` reads it."""
        raise NotImplementedError(f"{self.name} has no family traversal")

    def epochs_from(self, traversal: Any, graph: CSRGraph) -> Iterator[EpochCounts]:
        """This variant's epoch counts of a :meth:`traverse` result.

        Equal to :meth:`epochs` on the same graph.
        """
        raise NotImplementedError(f"{self.name} has no family traversal")

    def reference_epochs(self, graph: CSRGraph) -> Iterator[EpochCounts]:
        """The straightforward generator :meth:`epochs` must equal exactly.

        Kernels with a batched fast path (BFS, SSSP) return their
        per-source oracle; the others are their own reference.
        """
        return self.epochs(graph)

    @abc.abstractmethod
    def reference(self, graph: CSRGraph) -> np.ndarray:
        """The algorithm's result (for correctness tests)."""

    # -- translation ----------------------------------------------------------

    def batch_for(self, counts: EpochCounts, warp_size: int = 32) -> OpBatch:
        """Translate epoch counts into an operation batch."""
        c = self.coeffs
        reads = int(round(
            counts.edges_inspected * c.lines_per_edge
            + counts.scanned_vertices * c.lines_per_scan_vertex
            + counts.frontier_vertices * c.lines_per_scan_vertex
        ))
        writes = int(round(
            counts.edges_inspected * c.write_lines_per_edge
            + counts.updated_vertices * c.writes_per_update
        ))
        atomics = counts.atomics
        with_ret = int(round(atomics * c.return_fraction))
        # Concurrent memory streams the epoch can keep in flight: one per
        # active/scanned vertex plus the adjacency streams (a coalesced
        # 64 B line covers ~8 edges' worth of data). This is what the
        # simulator's memory-level-parallelism cap consumes — big social
        # frontiers saturate the links, shallow road frontiers cannot.
        threads = max(
            1,
            int(counts.frontier_vertices
                + counts.scanned_vertices / 8
                + counts.edges_inspected / 8),
        )
        compute = int(round(counts.edges_inspected * c.instrs_per_edge / warp_size))
        return OpBatch(
            reads=reads,
            writes=writes,
            atomics=atomics,
            atomics_with_return=with_ret,
            compute_cycles=compute,
            threads=threads,
            divergent_warp_ratio=c.divergence,
            label=counts.label,
        )

    def trace(self, graph: CSRGraph) -> TraceCursor:
        """Full epoch trace for a run on ``graph``."""
        return TraceCursor(self.batch_for(c) for c in self.epochs(graph))

    def cache_model(self, gpu: GpuConfig = GPU_DEFAULT) -> CacheModel:
        """Cache model matching this kernel's locality profile."""
        c = self.coeffs
        return CacheModel(
            gpu,
            read_hit_rate=c.read_hit_rate,
            write_hit_rate=c.write_hit_rate,
            host_atomic_coalescing=c.atomic_coalescing,
        )

    def launch(
        self,
        graph: CSRGraph,
        gpu: GpuConfig = GPU_DEFAULT,
        traversal: Optional[Callable[[], Any]] = None,
    ) -> KernelLaunch:
        """Kernel launch (one thread per vertex, GraphBIG-style).

        ``traversal`` is a zero-argument callable returning this kernel's
        family traversal of ``graph``; :func:`launch_for` passes its memo
        lookup. It is called here, so a launch's time includes the
        algorithm run it needed.
        """
        if traversal is None:
            trace = self.trace(graph)
        else:
            epochs = self.epochs_from(traversal(), graph)
            trace = TraceCursor(self.batch_for(c) for c in epochs)
        return KernelLaunch(
            name=self.name,
            trace=trace,
            total_threads=max(graph.num_vertices, gpu.threads_per_block),
            config=gpu,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


# -- process-wide epoch-trace memo ---------------------------------------------

#: Memo entries kept, least recently used evicted first: epoch traces and
#: family traversals alike. A full-scale trace is at most ~0.26 MB (BFS on
#: ``ldbc``), and the simulators' epoch rows of it add ~0.27 MB per
#: (hit rates, saturation) they run it under; a traversal is smaller than
#: any trace read off it.
TRACE_MEMO_ENTRIES = 32

_MEMO: "OrderedDict[tuple, Any]" = OrderedDict()
_MEMO_LOCK = threading.Lock()


def _memo_get(key: tuple) -> Any:
    with _MEMO_LOCK:
        value = _MEMO.get(key)
        if value is not None:
            _MEMO.move_to_end(key)
    return value


def _memo_put(key: tuple, value: Any) -> None:
    with _MEMO_LOCK:
        _MEMO[key] = value
        while len(_MEMO) > TRACE_MEMO_ENTRIES:
            _MEMO.popitem(last=False)


def trace_key(
    workload: GraphWorkload, graph: CSRGraph, gpu: GpuConfig = GPU_DEFAULT
) -> tuple:
    """Content key of the launch ``workload.launch(graph, gpu)`` builds.

    Covers every input of trace generation: the workload type and name,
    seed, run-length knobs, traffic coefficients, any attribute set on
    the instance, the graph's content fingerprint and the GPU config.
    Class-level settings (atomic mode, chunk sizes) come with the type.
    """
    return (
        type(workload),
        workload.name,
        workload.seed,
        tuple(getattr(workload, knob, None) for knob in RUN_LENGTH_KNOBS),
        workload.coeffs,
        tuple(sorted(vars(workload).items())),
        graph.fingerprint(),
        gpu,
    )


def launch_for(
    workload: GraphWorkload, graph: CSRGraph, gpu: GpuConfig = GPU_DEFAULT
) -> KernelLaunch:
    """``workload.launch(graph, gpu)``, generated once per :func:`trace_key`.

    A miss calls :meth:`GraphWorkload.launch` and keeps its immutable
    batch tuple, with the epoch rows the simulators derive from it
    (:meth:`~repro.sim.trace.TraceCursor.rows`, shared by every cursor
    over the entry); for a kernel with a family, the launch reads the
    family traversal from the memo too (key
    :meth:`GraphWorkload.traversal_key`), running the algorithm only if
    no variant has yet. Every call, hit or miss, returns its own launch
    with a fresh :class:`TraceCursor` over those batches, so runs on
    different threads never share a cursor position. Two threads missing
    the same key at once both generate it; the values are equal, so
    either entry serves.
    """
    from repro.telemetry import get_registry

    key = trace_key(workload, graph, gpu)
    t0 = _time.perf_counter()
    entry = _memo_get(key)
    outcome, traversal, generated = "hit", "none", {}
    if entry is None:
        tkey = workload.traversal_key(graph)
        shared = None
        if tkey is not None:
            def shared() -> Any:
                nonlocal traversal
                value = _memo_get(tkey)
                traversal = "miss" if value is None else "hit"
                if value is None:
                    value = workload.traverse(graph)
                    _memo_put(tkey, value)
                return value

        launch = workload.launch(graph, gpu, shared)
        # The epoch rows the simulators derive from these batches (see
        # TraceCursor.rows) live in the entry too, evicted with it.
        entry = (launch, tuple(launch.trace), {})
        _memo_put(key, entry)
        outcome = "miss"
        generated["generate_s"] = _time.perf_counter() - t0
    get_tracer().complete(
        "workloads.trace", t0, _time.perf_counter(), cat="workloads",
        workload=workload.name, memo=outcome, traversal=traversal,
        epochs=len(entry[1]), **generated,
    )
    registry = get_registry()
    registry.counter(
        "repro_trace_memo_total", "Epoch-trace memo lookups", ("outcome",)
    ).labels(outcome=outcome).inc()
    if traversal != "none":
        registry.counter(
            "repro_traversal_memo_total",
            "Family-traversal memo lookups on epoch-trace misses",
            ("outcome",),
        ).labels(outcome=traversal).inc()
    if generated:
        registry.histogram(
            "repro_trace_generate_seconds",
            "Epoch-trace generation time on a memo miss", ("workload",),
        ).labels(workload=workload.name).observe(generated["generate_s"])
    template, batches, rows = entry
    return replace(template, trace=TraceCursor(batches, rows))


def clear_cache() -> None:
    """Drop every memoized trace and traversal (tests and cold-path
    benchmarks)."""
    with _MEMO_LOCK:
        _MEMO.clear()
