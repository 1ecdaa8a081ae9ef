"""Macro bursts: the per-run step memo, the epoch rows bursts open
epochs from, warning delivery inside bursts, and the policy horizon
contract those bursts rely on.

The macro engine memoizes the per-quantum served-traffic block of its
speculation replica and runs bursts through the sensor's warning
samples, delivering each sample's ``on_thermal_warning`` at commit and
keeping the rest of the prefix only while the policy's fresh hints say
a new burst would be the same one. These tests pin that to the oracles:
the memo against a memo that never hits, continuation against the
stepped engine (including a policy whose warning callback changes the
fraction on the spot), and ``fraction_horizon`` against ``pim_fraction``.
The epoch rows are held to the per-batch epoch state bit for bit, keyed
on what derives them, built once per trace, and traced like the epochs
the stepped engine opens.
"""

import bisect
import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.adapters import AgentPolicy
from repro.agents.base import ACTION_NONE, Action, Agent
from repro.core.feedback import FeedbackDelays
from repro.core.hw_dynt import HwDynT
from repro.core.policies import POLICY_NAMES, make_policy
from repro.core.sw_dynt import SwDynT
from repro.gpu import simulator
from repro.gpu.caches import CacheModel
from repro.gpu.config import GPU_DEFAULT
from repro.gpu.kernel import KernelLaunch
from repro.gpu.macro import BURST_BOUNDS, MacroEngine
from repro.gpu.simulator import SteppedEngine, SystemSimulator
from repro.sim.trace import OpBatch, TraceCursor
from repro.thermal.cooling import COMMODITY_SERVER, LOW_END_ACTIVE, PASSIVE
from tests.engines import (
    assert_engines_agree,
    assert_identical,
    build_sim,
    hot_launch,
    run_both,
    run_one,
    run_traced,
)

STOP_REASONS = {
    "cap", "horizon", "policy", "phase", "flip", "validation", "trace_end",
}


class _NeverHit(dict):
    """A step memo that stores nothing and never hits."""

    def get(self, key, default=None):
        return default

    def __setitem__(self, key, value):
        pass


def _spy_bursts(monkeypatch, never_hit=False):
    """Record ``(warning, samples_safe, committed, stop, memo_hits)`` per
    committed burst; optionally swap in the never-hitting memo."""
    bursts = []
    speculate = MacroEngine._speculate
    commit = MacroEngine._commit

    def spy_speculate(self, b):
        if never_hit:
            self._memo = _NeverHit()
        return speculate(self, b)

    def spy_commit(self, b, *args):
        j = commit(self, b, *args)
        bursts.append((b.warning, b.samples_safe, j, b.stop, b.memo_hits))
        return j

    monkeypatch.setattr(MacroEngine, "_speculate", spy_speculate)
    monkeypatch.setattr(MacroEngine, "_commit", spy_commit)
    return bursts


class TestStepMemo:
    @pytest.mark.parametrize("cooling", [LOW_END_ACTIVE, PASSIVE],
                             ids=["low-end", "passive"])
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_memo_is_transparent(self, monkeypatch, policy, cooling):
        """A run whose memo always misses is identical to the default
        run, timeline and stats included."""
        launch_epochs = 6 if cooling is PASSIVE else 10
        with monkeypatch.context() as m:
            default_bursts = _spy_bursts(m)
            default = run_one("macro", hot_launch(launch_epochs), policy,
                              cooling=cooling)
        with monkeypatch.context() as m:
            missed_bursts = _spy_bursts(m, never_hit=True)
            missed = run_one("macro", hot_launch(launch_epochs), policy,
                             cooling=cooling)
        assert_identical(missed, default)
        assert sum(b[4] for b in default_bursts) > 0
        assert sum(b[4] for b in missed_bursts) == 0

    def test_memo_does_not_outlive_the_run(self):
        engine = MacroEngine(build_sim("macro", cooling=LOW_END_ACTIVE))
        engine.run(hot_launch(), make_policy("coolpim-hw"))
        assert engine._memo is None


def _counting(monkeypatch, owner, name):
    """Wrap ``owner.name`` so each call appends its arguments to a list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _reference_state(batch, read_hit, write_hit, saturation_threads):
    """The per-batch epoch state, written out from the batch fields: the
    post-cache counts, their floats, the compute cycles, the MLP cap and
    the divergence."""
    counts = (
        int(round(batch.reads * (1.0 - read_hit))),
        int(round(batch.writes * (1.0 - write_hit))),
        batch.atomics,
        batch.atomics_with_return,
    )
    return (
        *(float(c) for c in counts), float(batch.compute_cycles), counts,
        min(1.0, batch.threads / saturation_threads),
        batch.divergent_warp_ratio,
    )


_batches = st.builds(
    lambda r, w, a, ret, cc, th, div, i: OpBatch(
        reads=r, writes=w, atomics=a, atomics_with_return=min(ret, a),
        compute_cycles=cc, threads=th, divergent_warp_ratio=div,
        label=f"b{i}",
    ),
    st.integers(0, 10**9), st.integers(0, 10**9), st.integers(0, 10**9),
    st.integers(0, 10**9), st.integers(0, 10**9), st.integers(0, 10**7),
    st.floats(0.0, 1.0), st.integers(0, 99),
)
_rates = st.floats(0.0, 1.0)


class TestEpochStates:
    def test_each_epoch_state_is_built_once(self, monkeypatch):
        """A first run builds one row per epoch; a second run of the same
        trace builds none. Ideal-thermal bursts commit all they
        speculate, across epoch boundaries, and materialize a fluid
        state only for the epoch they leave open."""
        rows = _counting(monkeypatch, simulator, "epoch_row")
        states = _counting(monkeypatch, simulator._EpochState, "__init__")
        launch = hot_launch(12)
        for expected_rows in (12, 0):
            rows.clear()
            states.clear()
            sim = build_sim("macro")
            sim.run(launch, make_policy("ideal-thermal"))
            snap = sim.stats.snapshot(structured=True)
            assert snap["sim.epochs"]["value"] == 12
            assert len(rows) == expected_rows
            # One state for the epoch the run opens, one per burst.
            bursts = snap["sim.macro_burst_steps"]["count"]
            assert 0 < bursts and len(states) == 1 + bursts < 12

    @settings(max_examples=60, deadline=None)
    @given(batches=st.lists(_batches, min_size=1, max_size=8),
           read_hit=_rates, write_hit=_rates,
           saturation_threads=st.integers(1, 10**6))
    def test_rows_equal_per_batch_states(self, batches, read_hit, write_hit,
                                         saturation_threads):
        """Bit for bit, each row and the state opened from it equal the
        per-batch epoch state."""
        sim = SystemSimulator(
            cache=CacheModel(GPU_DEFAULT, read_hit_rate=read_hit,
                             write_hit_rate=write_hit),
            saturation_threads=saturation_threads,
        )
        engine = SteppedEngine(sim)
        engine.scen = None
        engine.launch_trace = trace = TraceCursor(batches)
        engine.rows = trace.rows(
            (read_hit, write_hit, saturation_threads), engine._row_of
        )
        for batch in batches:
            ref = _reference_state(batch, read_hit, write_hit,
                                   saturation_threads)
            got_batch, row = engine._next_epoch()
            assert got_batch is batch
            assert repr(row) == repr(ref)
            assert [type(v) for v in row] == [type(v) for v in ref]
            state = simulator._EpochState(row)
            fields = (state.reads, state.writes, state.atomics,
                      state.atomics_ret, state.compute_cycles, state.mlp,
                      state.divergence)
            assert repr(fields) == repr(ref[:5] + ref[6:])
        assert engine._next_epoch() is None

    @pytest.mark.parametrize("change", [
        {"read_hit_rate": 0.2}, {"write_hit_rate": 0.9},
        {"saturation_threads": 700},
    ], ids=["read-hit", "write-hit", "saturation"])
    def test_rows_are_keyed_on_hit_rates_and_saturation(self, change):
        """Runs of one trace under different hit rates or saturation
        never share rows: each equals its run on a fresh trace."""

        def run(trace, read_hit_rate=0.5, write_hit_rate=0.5,
                saturation_threads=1500):
            launch = KernelLaunch(name="rows", trace=trace,
                                  total_threads=4096)
            sim = SystemSimulator(
                cache=CacheModel(GPU_DEFAULT, read_hit_rate=read_hit_rate,
                                 write_hit_rate=write_hit_rate),
                saturation_threads=saturation_threads, engine="macro",
            )
            result = sim.run(launch, make_policy("naive-offloading"))
            return repr(result.to_dict(include_timeline=True))

        batches = [
            OpBatch(reads=150_000, writes=80_000, atomics=400_000,
                    compute_cycles=20_000, threads=1000 + 200 * i,
                    label=f"e{i}")
            for i in range(4)
        ]
        shared = TraceCursor(batches)
        base = run(shared)
        changed = run(shared, **change)
        assert changed != base
        assert changed == run(TraceCursor(batches), **change)
        assert len(shared._rows) == 2

    @pytest.mark.parametrize("policy,cooling", [
        ("ideal-thermal", COMMODITY_SERVER), ("coolpim-hw", LOW_END_ACTIVE),
    ])
    def test_traced_epoch_spans_match_stepped(self, policy, cooling):
        """Epochs consumed inside bursts are still traced: the macro run
        emits the stepped run's ``gpu.epoch`` spans, in order, with the
        same labels, counts and sim times."""
        launch = hot_launch(12)
        spans = {}
        for engine in ("stepped", "macro"):
            _, records = run_traced(engine, launch, policy, cooling=cooling)
            spans[engine] = [
                (r["args"]["label"], r["args"]["atomics"],
                 r["args"]["threads"], r["args"]["sim_start_s"],
                 r["args"]["sim_end_s"])
                for r in records if r["name"] == "gpu.epoch"
            ]
            if engine == "macro":
                assert any(
                    r["name"] == "sim.macro_burst"
                    and r["args"]["sim_start_s"] < r["args"]["sim_end_s"]
                    for r in records
                )
        assert len(spans["stepped"]) == 12
        assert spans["macro"] == spans["stepped"]


class CutOnSample(Agent):
    """Cuts its fraction on every *new* sensed temperature while warned.

    The callback changes the fraction on the spot, and the hints are as
    permissive as the agent allows: step observations never act
    (horizon +inf) and a repeated warning at the same temperature is a
    no-op forever.
    """

    name = "cut-on-sample"

    def begin(self, launch, now_s=0.0):
        self._fraction = 1.0
        self._last_temp = None

    def observe(self, obs):
        if obs.kind != "warning" or obs.temp_c == self._last_temp:
            return ACTION_NONE
        self._last_temp = obs.temp_c
        self._fraction = max(0.0, round(self._fraction - 0.05, 10))
        return Action(fraction=self._fraction)

    def fraction_horizon(self, now_s):
        return math.inf

    def warning_noop_until(self, now_s, temp_c=None):
        if temp_c is None or temp_c != self._last_temp:
            return now_s
        return math.inf


class TestContinuation:
    def test_immediate_fraction_change_matches_stepped(self, monkeypatch):
        """The ``pim_fraction(t_k) == fraction`` check ends the prefix
        when the callback changed the fraction despite +inf hints."""
        bursts = _spy_bursts(monkeypatch)
        stepped, macro = run_both(
            hot_launch(), lambda: AgentPolicy(CutOnSample()),
            cooling=LOW_END_ACTIVE,
        )
        assert stepped.result.thermal_warnings > 10
        assert_engines_agree(stepped, macro)
        assert any(stop == "policy" for _w, _s, _j, stop, _h in bursts)

    def test_hw_bursts_run_through_warning_samples(self, monkeypatch):
        """coolpim-hw on low-end cooling commits bursts longer than one
        sample period (4 quanta) while the warning is set."""
        bursts = _spy_bursts(monkeypatch)
        assert_engines_agree(
            *run_both(hot_launch(), "coolpim-hw", cooling=LOW_END_ACTIVE)
        )
        assert any(
            warning and not safe and j > 4
            for warning, safe, j, _stop, _hits in bursts
        )

    def test_burst_spans_name_their_stop(self):
        """Every ``sim.macro_burst`` span carries ``stop`` and
        ``memo_hits``; neither leaks into the result."""
        (result, _), records = run_traced(
            "macro", hot_launch(), "coolpim-hw", cooling=LOW_END_ACTIVE
        )
        spans = [r for r in records if r["name"] == "sim.macro_burst"]
        assert spans
        assert {s["args"]["stop"] for s in spans} <= STOP_REASONS
        assert "policy" in {s["args"]["stop"] for s in spans}
        assert all(s["args"]["memo_hits"] >= 0 for s in spans)
        flat = repr(result.to_dict(include_timeline=True))
        assert "memo_hits" not in flat and "stop" not in flat


def _hw(throttle_s):
    return HwDynT(control_factor=10_000,
                  delays=FeedbackDelays(throttle_s=throttle_s))


def _sw(throttle_s):
    return SwDynT(control_factor=10_000,
                  delays=FeedbackDelays(throttle_s=throttle_s))


class TestHorizonContract:
    @pytest.mark.parametrize("cls", [HwDynT, SwDynT], ids=["hw", "sw"])
    def test_stepped_equals_macro_at_zero_throttle(self, cls):
        """A change applied the instant it is made: bursts continue past a
        delivered warning only if the horizon says the fraction holds,
        and the change is applied (and recorded) at the oracle instant."""
        policies = []

        def factory():
            policies.append(cls(delays=FeedbackDelays(throttle_s=0.0)))
            return policies[-1]

        runs = run_both(hot_launch(), factory, cooling=LOW_END_ACTIVE)
        assert runs[0].result.thermal_warnings > 0
        assert_engines_agree(*runs)
        stepped, macro = policies
        assert len(stepped.fraction_history) > 1
        assert macro.fraction_history == stepped.fraction_history

    @pytest.mark.parametrize("throttle_s", [0.0, 1e-7, 1e-4])
    @pytest.mark.parametrize("make", [_hw, _sw], ids=["hw", "sw"])
    def test_horizon_bounds_every_fraction_change(self, make, throttle_s):
        """``fraction_horizon(t) <= t`` whenever ``pim_fraction(t)`` would
        change the fraction, before, at and after a pending change."""
        policy = make(throttle_s)
        policy.begin(hot_launch(), now_s=0.0)
        t_warn = 1e-3
        policy.on_thermal_warning(t_warn, 90.0)
        current = copy.deepcopy(policy).pim_fraction(-math.inf)
        changed_at = []
        for t in (0.0, t_warn - 1e-6, t_warn, t_warn + throttle_s / 2,
                  t_warn + throttle_s, t_warn + 1e-3):
            if copy.deepcopy(policy).pim_fraction(t) != current:
                changed_at.append(t)
                assert policy.fraction_horizon(t) <= t
            else:
                assert policy.fraction_horizon(t) > t
        assert changed_at and min(changed_at) == t_warn + throttle_s
        policy.pim_fraction(t_warn + throttle_s)
        assert policy.fraction_horizon(t_warn + 1.0) == math.inf


class TestBurstHistogram:
    @pytest.mark.parametrize("workload,policy", [
        ("pagerank", "coolpim-sw"),
        ("pagerank", "naive-offloading"),
        ("kcore", "coolpim-hw"),
    ])
    def test_p50_lands_in_the_median_bucket(self, monkeypatch, workload,
                                            policy):
        """``sim.macro_burst_steps`` resolves real burst lengths: its p50
        sits in the power-of-two bucket holding the true median."""
        from repro.service.handlers import run_simulation_job, simulation_spec

        bursts = _spy_bursts(monkeypatch)
        payload = run_simulation_job(simulation_spec(
            workload=workload, policy=policy, workload_scale=0.25,
        ))
        lengths = sorted(j for *_, j, _stop, _hits in bursts)
        hist = payload["metrics"]["sim.macro_burst_steps"]
        assert hist["count"] == len(lengths) > 1
        # p50 reads rank count/2: the lower median on an even count.
        median = lengths[(len(lengths) - 1) // 2]
        bucket = bisect.bisect_left(BURST_BOUNDS, median)
        assert bisect.bisect_left(BURST_BOUNDS, hist["p50"]) == bucket
