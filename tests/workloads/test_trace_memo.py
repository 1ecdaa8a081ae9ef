"""Process-wide epoch-trace memo: content key, per-run cursors, threads."""

import sys
import threading
from dataclasses import fields, replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.gpu.config import GPU_DEFAULT, GpuConfig
from repro.graph import get_dataset
from repro.graph.csr import CSRGraph
from repro.obs.tracer import tracing
from repro.service.handlers import run_simulation_job, simulation_spec
from repro.telemetry import TelemetryRegistry, set_registry
from repro.workloads import get_workload, list_workloads
from repro.workloads.base import (
    RUN_LENGTH_KNOBS,
    TRACE_MEMO_ENTRIES,
    TrafficCoefficients,
    clear_cache,
    launch_for,
    trace_key,
)

_BASE = get_dataset("ldbc-tiny")

#: (workload, knob) for every run-length knob some workload carries.
_KNOBS = [
    (name, knob)
    for name in list_workloads()
    for knob in RUN_LENGTH_KNOBS
    if hasattr(get_workload(name), knob)
]
_COEFF_FIELDS = [f.name for f in fields(TrafficCoefficients)]
_GPU_FIELDS = [f.name for f in fields(GpuConfig)]


def _graph() -> CSRGraph:
    """A new graph object with ``ldbc-tiny``'s content."""
    return CSRGraph(_BASE.indptr.copy(), _BASE.indices.copy(),
                    _BASE.weights.copy())


def _key(name="bfs-ta", seed=0, graph=None, gpu=GPU_DEFAULT, **attrs):
    workload = get_workload(name, seed=seed)
    for attr, value in attrs.items():
        setattr(workload, attr, value)
    return trace_key(workload, graph if graph is not None else _graph(), gpu)


@pytest.fixture(autouse=True)
def _cold_memo():
    clear_cache()
    yield
    clear_cache()


class TestKeyProperties:
    """Perturbing any one input of trace generation changes the key."""

    @given(st.sampled_from(list_workloads()), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_equal_inputs_rebuilt_from_scratch_share_a_key(self, name, seed):
        assert _key(name, seed) == _key(name, seed)

    @given(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_seed(self, a, b):
        assume(a != b)
        assert _key(seed=a) != _key(seed=b)

    @given(st.sampled_from(_KNOBS), st.integers(1, 4096))
    @settings(max_examples=50, deadline=None)
    def test_run_length_knob(self, name_knob, value):
        name, knob = name_knob
        assume(value != getattr(get_workload(name), knob))
        assert _key(name, **{knob: value}) != _key(name)

    @given(st.sampled_from(_COEFF_FIELDS), st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_traffic_coefficient(self, field, value):
        coeffs = get_workload("bfs-ta").coeffs
        assume(value != getattr(coeffs, field))
        perturbed = replace(coeffs, **{field: value})
        assert _key(coeffs=perturbed) != _key()

    @given(st.sampled_from(list_workloads()), st.sampled_from(list_workloads()))
    @settings(max_examples=25, deadline=None)
    def test_workload_type(self, a, b):
        assume(a != b)
        assert _key(a) != _key(b)

    @given(st.integers(0, _BASE.num_edges - 1), st.integers(1, 64))
    @settings(max_examples=25, deadline=None)
    def test_graph_content(self, edge, shift):
        indices = _BASE.indices.copy()
        indices[edge] = (indices[edge] + shift) % _BASE.num_vertices
        moved = CSRGraph(_BASE.indptr, indices, _BASE.weights)
        assert _key(graph=moved) != _key()

    @given(st.integers(0, _BASE.num_edges - 1))
    @settings(max_examples=10, deadline=None)
    def test_graph_weights(self, edge):
        weights = _BASE.weights.copy()
        weights[edge] += 1.0
        reweighted = CSRGraph(_BASE.indptr, _BASE.indices, weights)
        assert _key(graph=reweighted) != _key()

    @given(st.sampled_from(_GPU_FIELDS),
           st.sampled_from([1, 2, 8, 64, 128, 512, 2048, 0.5, 3.0]))
    @settings(max_examples=50, deadline=None)
    def test_gpu_config(self, field, value):
        assume(value != getattr(GPU_DEFAULT, field))
        try:
            gpu = replace(GPU_DEFAULT, **{field: value})
        except ValueError:
            assume(False)
        assert _key(gpu=gpu) != _key()


class TestMemo:
    def test_hit_shares_batches_under_fresh_cursors(self):
        w, graph = get_workload("pagerank"), _graph()
        first = launch_for(w, graph)
        first.trace.next()
        second = launch_for(get_workload("pagerank"), _graph())
        assert second.trace.position == 0
        assert list(second.trace) == list(first.trace)
        assert all(a is b for a, b in zip(first.trace, second.trace))

    def test_miss_generates_a_launch_equal_to_a_direct_one(self):
        w, graph = get_workload("sssp-dwc"), _graph()
        memo = launch_for(w, graph)
        direct = w.launch(graph)
        assert list(memo.trace) == list(direct.trace)
        assert (memo.name, memo.total_threads, memo.config) == (
            direct.name, direct.total_threads, direct.config
        )

    def test_bounded_lru(self):
        graph = _graph()
        for seed in range(TRACE_MEMO_ENTRIES + 1):
            launch_for(get_workload("dc", seed=seed), graph)
        registry = TelemetryRegistry()
        previous = set_registry(registry)
        try:
            launch_for(get_workload("dc", seed=TRACE_MEMO_ENTRIES), graph)
            launch_for(get_workload("dc", seed=0), graph)  # evicted first
        finally:
            set_registry(previous)
        counts = registry.counter(
            "repro_trace_memo_total", labelnames=("outcome",)
        )
        assert counts.labels(outcome="hit").value == 1
        assert counts.labels(outcome="miss").value == 1

    def test_span_reports_outcome_and_generation_time(self):
        w, graph = get_workload("kcore"), _graph()
        with tracing() as tr:
            launch_for(w, graph)
            launch_for(w, graph)
        spans = [r for r in tr.records if r["name"] == "workloads.trace"]
        assert [s["args"]["memo"] for s in spans] == ["miss", "hit"]
        assert all(s["cat"] == "workloads" for s in spans)
        assert spans[0]["args"]["generate_s"] > 0
        assert "generate_s" not in spans[1]["args"]

    def test_generation_histogram_observes_misses_only(self):
        graph = _graph()
        registry = TelemetryRegistry()
        previous = set_registry(registry)
        try:
            with tracing() as tr:
                for name in ("kcore", "kcore", "bfs-ta"):
                    launch_for(get_workload(name), graph)
        finally:
            set_registry(previous)
        hist = registry.histogram(
            "repro_trace_generate_seconds", labelnames=("workload",)
        )
        kcore, bfs = hist.labels(workload="kcore"), hist.labels(workload="bfs-ta")
        assert (kcore.count, bfs.count) == (1, 1)
        spans = [r for r in tr.records if r["name"] == "workloads.trace"]
        assert kcore.sum == spans[0]["args"]["generate_s"]


class TestThreads:
    """Concurrent runs of one trace each read it through their own cursor."""

    #: More threads than a typical CI runner has cores.
    POLICIES = ("non-offloading", "naive-offloading", "coolpim-sw",
                "coolpim-hw")

    @pytest.fixture(autouse=True)
    def _interleave(self):
        """Switch threads every ~10 µs so the runs interleave finely."""
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            yield
        finally:
            sys.setswitchinterval(previous)

    def _specs(self):
        return [
            simulation_spec("bfs-ta", dataset="ldbc-small", policy=p,
                            workload_scale=0.25)
            for p in self.POLICIES
        ]

    def _concurrent(self, specs):
        barrier = threading.Barrier(len(specs))
        out = [None] * len(specs)

        def work(i):
            barrier.wait()
            out[i] = run_simulation_job(specs[i])

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(specs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        return out

    @pytest.mark.parametrize("warm", [False, True])
    def test_concurrent_payloads_match_serial(self, warm):
        specs = self._specs()
        serial = []
        for spec in specs:
            clear_cache()
            serial.append(run_simulation_job(spec))
        clear_cache()
        if warm:
            run_simulation_job(specs[0])
        assert self._concurrent(specs) == serial
