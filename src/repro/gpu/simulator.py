"""Full-system co-simulation: GPU + HMC flow model + thermal + policy.

The simulator drains each workload epoch as a fluid: every control quantum
(25 µs, :data:`~repro.thermal.operators.CONTROL_DT_S`) it asks the policy
for the current PIM offloading fraction, splits the epoch's remaining
atomics between host execution and PIM packets, computes the served share
from the HMC flow model's bottleneck analysis, integrates the thermal RC
network with the interval's traffic-driven power, updates the temperature
phase (DRAM derating), and delivers thermal warnings to the policy —
closing CoolPIM's feedback loop (Fig. 6).

Timescales follow the paper: DRAM phases derate service by 20 % per phase
above 85 °C, the sensor samples at 100 µs, Tthrottle/Tthermal delays live
inside the policies, and shutdown (>105 °C) costs a tens-of-seconds
recovery stall (Sec. III-A).
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # avoid a circular import; policies live in repro.core
    from repro.core.policies import OffloadPolicy

from repro.gpu.caches import CacheModel
from repro.gpu.config import GPU_DEFAULT, GpuConfig
from repro.gpu.kernel import KernelLaunch
from repro.gpu.sm import SmArray
from repro.hmc.config import HMC_2_0, HmcConfig
from repro.hmc.dram_timing import TemperaturePhase
from repro.hmc.flow import HmcFlowModel, demand_bytes, demand_time_ns, rates_of
from repro.obs.tracer import get_tracer
from repro.sim.stats import Counter, StatRegistry, linear_bounds
from repro.sim.trace import OpBatch
from repro.telemetry.live import get_run_sink
from repro.thermal.model import HmcThermalModel
from repro.thermal.operators import CONTROL_DT_S
from repro.thermal.power import TrafficPoint
from repro.thermal.sensor import ThermalSensor

#: Shutdown recovery stall (s): the prototype needs tens of seconds to
#: re-enable after an overheat stop, and loses its contents (Sec. III-A).
SHUTDOWN_RECOVERY_S = 20.0

#: Spacing (s) of the fixed grid the result timeline is sampled on.
TIMELINE_DT_S = 250e-6
#: Every run but ideal-thermal ones starts from this steady point: a busy
#: device serving a query stream (Fig. 14's first warning lands ~2.5 ms in).
WARM_START = TrafficPoint.streaming(240.0)


@dataclass
class SimulationResult:
    """Aggregates of one (workload, policy) run."""

    workload: str
    policy: str
    runtime_s: float
    link_bytes: int
    data_bytes: int
    pim_ops: int
    host_atomics: int
    total_atomics: int
    peak_dram_temp_c: float
    thermal_warnings: int
    shutdowns: int
    phase_time_s: dict
    #: Package energy over the run (J), including hot-phase DRAM penalty.
    package_energy_j: float = 0.0
    #: Heat-sink fan energy over the run (J).
    fan_energy_j: float = 0.0
    #: (time_s, peak_temp_c, pim_rate_ops_ns, pim_fraction) samples.
    timeline: List[Tuple[float, float, float, float]] = field(default_factory=list)

    @property
    def total_energy_j(self) -> float:
        """Package + cooling energy (J) — the efficiency metric PIM is
        meant to improve."""
        return self.package_energy_j + self.fan_energy_j

    @property
    def avg_power_w(self) -> float:
        return self.total_energy_j / self.runtime_s if self.runtime_s > 0 else 0.0

    def energy_ratio(self, baseline: "SimulationResult") -> float:
        """Total energy normalized to ``baseline``."""
        return (
            self.total_energy_j / baseline.total_energy_j
            if baseline.total_energy_j > 0
            else 0.0
        )

    @property
    def avg_link_bandwidth_gbs(self) -> float:
        return self.link_bytes / self.runtime_s / 1e9 if self.runtime_s > 0 else 0.0

    @property
    def avg_pim_rate_ops_ns(self) -> float:
        """Average PIM offloading rate over the run (Fig. 12 metric)."""
        return self.pim_ops / (self.runtime_s * 1e9) if self.runtime_s > 0 else 0.0

    @property
    def offload_fraction(self) -> float:
        return self.pim_ops / self.total_atomics if self.total_atomics else 0.0

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """Speedup of this run relative to ``baseline`` (Fig. 10 metric)."""
        if self.runtime_s <= 0:
            raise ValueError("runtime must be positive for a speedup")
        return baseline.runtime_s / self.runtime_s

    def to_dict(self, include_timeline: bool = False) -> dict:
        """JSON-serializable summary of the run."""
        out = {
            "workload": self.workload,
            "policy": self.policy,
            "runtime_s": self.runtime_s,
            "link_bytes": self.link_bytes,
            "data_bytes": self.data_bytes,
            "pim_ops": self.pim_ops,
            "host_atomics": self.host_atomics,
            "total_atomics": self.total_atomics,
            "offload_fraction": self.offload_fraction,
            "avg_pim_rate_ops_ns": self.avg_pim_rate_ops_ns,
            "avg_link_bandwidth_gbs": self.avg_link_bandwidth_gbs,
            "peak_dram_temp_c": self.peak_dram_temp_c,
            "thermal_warnings": self.thermal_warnings,
            "shutdowns": self.shutdowns,
            "phase_time_s": dict(self.phase_time_s),
            "package_energy_j": self.package_energy_j,
            "fan_energy_j": self.fan_energy_j,
            "total_energy_j": self.total_energy_j,
            "avg_power_w": self.avg_power_w,
        }
        if include_timeline:
            out["timeline"] = [list(p) for p in self.timeline]
        return out


def epoch_row(
    batch: OpBatch, cache: CacheModel, saturation_threads: int
) -> tuple:
    """Fresh state of ``batch``'s epoch, as the row ``(reads, writes,
    atomics, atomics_ret, compute_cycles, counts, mlp, divergence)``.

    ``counts`` is the post-cache ``(reads, writes, atomics,
    atomics_with_return)`` of :meth:`CacheModel.filter_counts` (under its
    guard), which seeds the epoch's integer work ledgers; the first five
    entries are those counts and the compute cycles as floats, the fluid
    the drain starts from. ``mlp`` is the epoch's memory-level
    parallelism, ``divergence`` its warp divergence. The row depends on
    the batch, ``cache.read_hit_rate``/``write_hit_rate`` and
    ``saturation_threads`` alone, so a run reads its trace's rows from
    :meth:`~repro.sim.trace.TraceCursor.rows` under those three values
    and calls this directly only for a batch the scenario driver
    rescaled.
    """
    counts = cache.filter_counts(batch)
    reads, writes, atomics, atomics_ret = counts
    return (
        float(reads), float(writes), float(atomics), float(atomics_ret),
        float(batch.compute_cycles), counts,
        # Small frontiers can't keep enough requests in flight to
        # saturate the memory system.
        min(1.0, batch.threads / saturation_threads),
        batch.divergent_warp_ratio,
    )


class _EpochState:
    """Mutable fluid remainder of the open epoch, plus its two per-epoch
    service constants: memory-level parallelism and warp divergence.

    Seeded from the epoch's :func:`epoch_row`. The macro engine's
    speculation reads rows directly, and its commit materializes only the
    epoch it leaves open.
    """

    __slots__ = (
        "reads", "writes", "atomics", "atomics_ret", "compute_cycles",
        "mlp", "divergence",
    )

    def __init__(self, row: tuple) -> None:
        (self.reads, self.writes, self.atomics, self.atomics_ret,
         self.compute_cycles, _, self.mlp, self.divergence) = row

    @property
    def drained(self) -> bool:
        return (
            self.reads < 0.5
            and self.writes < 0.5
            and self.atomics < 0.5
            and self.compute_cycles < 1.0
        )


#: Per-run ``sim.<name>`` counters both engines fill; each is a run total
#: of :class:`SteppedEngine` under the same name, and each is summed into
#: the ``/metrics`` series ``repro_sim_<name>_total{engine}``.
RUN_COUNTERS = (
    "epochs", "control_steps", "thermal_solver_steps", "thermal_warnings",
    "shutdowns", "pim_ops", "host_atomics", "host_atomics_assigned",
)


class SteppedEngine:
    """Scalar reference engine: one control quantum per loop iteration.

    Constructed per :meth:`SystemSimulator.run` call; the run's mutable
    state lives in attributes, so a subclass can advance it by other
    means. This engine is the oracle:
    :class:`~repro.gpu.macro.MacroEngine` subclasses it and overrides
    :meth:`_advance` to commit vectorized bursts, falling back to
    :meth:`_scalar_step` wherever a burst cannot be proven equal to it.
    """

    #: Engine name carried by live samples and the ``sim.run`` span.
    name = "stepped"

    def __init__(self, sim: "SystemSimulator") -> None:
        self.sim = sim

    # -- run driver --------------------------------------------------------

    def run(self, launch: KernelLaunch, policy: "OffloadPolicy") -> SimulationResult:
        """Execute the launch under ``policy``; returns run aggregates."""
        sim = self.sim
        trace = launch.trace
        trace.rewind()
        sim.sensor.reset()
        # One scenario driver per run: epochs are transformed as they
        # open, and due events apply at the top of every control step.
        scen = sim._scenario_driver()
        self.scen = scen
        if scen is not None:
            scen.begin()
        self.policy = policy
        self.exempt = exempt = policy.thermal_exempt

        # Device state before the kernel launches (ideal-thermal runs pin
        # the cube at ambient, so no warm-up is needed).
        if not exempt:
            sim.thermal.warm_start(WARM_START)
        sim.flow.phase = TemperaturePhase.NORMAL

        policy.bind(sim)
        policy.begin(launch, now_s=0.0)

        self.tracer = get_tracer()
        self.traced = self.tracer.enabled
        wall_t0 = _time.perf_counter()
        # The run's sim.* stats: each run resets and refills them, so the
        # last run's numbers are always current.
        scope = sim.stats.scoped("sim")
        self.dt_hist = scope.histogram(
            "control_dt_ns", linear_bounds(0.0, CONTROL_DT_S * 1e9 * 1.01, 64)
        )
        self.dt_hist.reset()
        #: Committed per-quantum dt (ns), in order; it fills ``dt_hist``
        #: once, at the end of the run (nothing reads the histogram
        #: mid-run, and the bulk fill sums sequentially).
        self.dts: List[float] = []
        self.frac_tw = scope.time_weighted("pim_fraction")
        self.frac_tw.reset(initial=0.0, start_time=0.0)
        counters = [scope.counter(name) for name in RUN_COUNTERS]
        for counter in counters:
            counter.reset()

        self.epochs = 0
        self.control_steps = 0
        self.thermal_solver_steps = 0
        self.thermal_warnings = 0
        self.shutdowns = 0
        self.pim_ops = 0
        self.host_atomics = 0
        self.host_atomics_assigned = 0
        self.atomics_total = 0
        self.now_s = 0.0
        self.link_bytes = 0
        self.data_bytes = 0
        self.peak_temp = (
            sim.thermal.peak_dram_c() if not exempt else sim.thermal.ambient_c
        )
        #: Last *committed* DRAM peak (°C) — the live-telemetry readout.
        #: A subclass that speculates must update it only on commit, so
        #: emission never observes speculative state.
        self.last_temp_c = self.peak_temp
        self.phase_time = {p.name: 0.0 for p in TemperaturePhase}
        self.timeline: List[Tuple[float, float, float, float]] = []
        self.next_sample = 0.0
        self.thermal_debt_s = 0.0
        self.package_energy_j = 0.0
        fan_power_w = sim.thermal.cooling.fan_power_w() if not exempt else 0.0

        self.state: Optional[_EpochState] = None
        self.launch_trace = trace
        cache = sim.cache
        # Keyed on every input of _row_of besides the batch.
        self.rows = trace.rows(
            (cache.read_hit_rate, cache.write_hit_rate,
             sim.saturation_threads),
            self._row_of,
        )
        # Live telemetry: resolved once per run; when no sink is
        # installed the per-step cost is a single None test (the same
        # discipline as the tracer's NULL_SPAN fast path).
        self._sink = get_run_sink()
        self._total_epochs = max(1, len(trace))

        while True:
            # Open the next epoch (an empty one closes at once), then
            # apply the scenario events due at this step.
            while self.state is None:
                epoch = self._next_epoch()
                if epoch is None:
                    break
                self._open_epoch(*epoch, self.now_s)
                if not self._epoch_pending():
                    self._close_epoch(self.now_s)
            if self.state is None:
                break
            if scen is not None:
                scen.apply_due(self.now_s)
            self._advance()
            self._sink_sample()

        if scen is not None:
            # Restore the shared thermal/flow/sensor models to nominal:
            # CoolPimSystem reuses them across runs.
            scen.finish()
        # Tail of the last fraction level, so the time-weighted mean
        # covers the full run.
        if self.now_s > 0.0:
            self.frac_tw.update(self.frac_tw.value, self.now_s)
        self.dt_hist.observe_many(self.dts)
        for name, counter in zip(RUN_COUNTERS, counters):
            counter.inc(getattr(self, name))
        if self.traced:
            self.tracer.complete(
                "sim.run", wall_t0, _time.perf_counter(), cat="sim",
                workload=launch.name, policy=policy.name,
                epochs=self.epochs, control_steps=self.control_steps,
                warnings=self.thermal_warnings, shutdowns=self.shutdowns,
                sim_runtime_s=self.now_s, engine=self.name,
            )

        return SimulationResult(
            workload=launch.name,
            policy=policy.name,
            runtime_s=self.now_s,
            link_bytes=self.link_bytes,
            data_bytes=self.data_bytes,
            pim_ops=self.pim_ops,
            host_atomics=self.host_atomics,
            total_atomics=self.atomics_total,
            peak_dram_temp_c=self.peak_temp,
            thermal_warnings=self.thermal_warnings,
            shutdowns=self.shutdowns,
            phase_time_s=self.phase_time,
            package_energy_j=self.package_energy_j,
            fan_energy_j=fan_power_w * self.now_s,
            timeline=self.timeline,
        )

    def _advance(self) -> None:
        """Advance the open epoch by one loop iteration."""
        self._scalar_step()

    # -- epoch bookkeeping -------------------------------------------------

    def _row_of(self, batch: OpBatch) -> tuple:
        """:func:`epoch_row` of ``batch`` under this run's cache and
        saturation."""
        return epoch_row(batch, self.sim.cache, self.sim.saturation_threads)

    def _next_epoch(self) -> Optional[Tuple[OpBatch, tuple]]:
        """Pull the next epoch's ``(batch, row)`` off the trace (``None``
        at its end).

        The row is the trace's shared one, unless the scenario driver
        rescales the batch: then it is built from the rescaled batch.
        """
        trace = self.launch_trace
        index = trace.position
        batch = trace.next()
        if batch is None:
            return None
        if self.scen is not None:
            scaled = self.scen.transform_batch(batch)
            if scaled is not batch:
                return scaled, self._row_of(scaled)
        return batch, self.rows[index]

    def _begin_epoch(self, batch: OpBatch, sim0: float) -> None:
        """Count ``batch``'s epoch as opened at ``sim0``, without a fluid
        state (the macro commit's path for epochs consumed in a burst)."""
        self.atomics_total += batch.atomics
        self.epochs += 1
        self.epoch_batch = batch
        self.epoch_sim0 = sim0
        self.epoch_wall0 = _time.perf_counter() if self.traced else 0.0

    def _open_epoch(self, batch: OpBatch, row: tuple, sim0: float) -> None:
        self._begin_epoch(batch, sim0)
        self.state = _EpochState(row)
        # Integer work ledgers: the fluid drain rounds per step, so its
        # serving sums can drift from the epoch totals; the final control
        # step flushes whatever the ledgers still hold.
        self.rem_reads, self.rem_writes, self.rem_atomics, _ = row[5]
        #: Rounding remainder of the epoch's PEI writebacks (always 0.0
        #: in bypass mode), carried across quanta like the ledgers.
        self.wb_carry = 0.0

    def _close_epoch(self, end_s: float) -> None:
        if self.traced:
            batch = self.epoch_batch
            self.tracer.complete(
                "gpu.epoch", self.epoch_wall0, _time.perf_counter(),
                cat="gpu", label=batch.label,
                atomics=batch.atomics, threads=batch.threads,
                sim_start_s=self.epoch_sim0, sim_end_s=end_s,
            )
        self.state = None

    def _epoch_pending(self) -> bool:
        s = self.state
        return (
            not s.drained
            or self.rem_atomics > 0
            or self.rem_reads > 0
            or self.rem_writes > 0
        )

    # -- the control quantum -----------------------------------------------

    def _serve_quantum(self, key: tuple) -> tuple:
        """The per-quantum traffic model, as a pure function of ``key``.

        ``key`` is ``(reads, writes, atomics, atomics_ret, compute_cycles,
        rem_reads, rem_writes, rem_atomics, wb_carry, mlp, divergence,
        fraction, link_gbs, dram_gbs, fu_cap, energy_scale)``: the open
        epoch's fluid remainder, its integer work ledgers, the rounding
        remainder of its PEI writebacks and its service constants, the
        offloading fraction, the flow model's capacities at the current
        phase, and the DRAM energy scale. Returns ``(dt_ns, dt_s,
        energy_j, reads, writes, atomics, atomics_ret, compute_cycles,
        rem_reads, rem_writes, rem_atomics, wb_carry, rec)`` — the
        interval, its package energy, the post-step fluid state, ledgers
        and writeback remainder — where
        ``rec`` is the served traffic ``(dt_ns, host_atomics, pim_ops,
        pim_ops_ret, host_raw, link_bytes, data_bytes, ext_gbs, int_gbs,
        pim_rate)``; its byte counts include the PEI writebacks of the
        served offloaded ops.

        Demand, service time, traffic rates and power come from the
        component models' count cores (:meth:`CacheModel.demand_counts`,
        :func:`~repro.hmc.flow.demand_time_ns`,
        :meth:`SmArray.issue_time_ns`, :func:`~repro.hmc.flow.demand_bytes`,
        :func:`~repro.hmc.flow.rates_of`, :meth:`PowerModel.package_w`),
        which keep their dataclasses' guards; only the served share, the
        ledger clamp and the final-step flush are computed here, and no
        dataclass is built. The scalar step calls it every quantum; the
        macro engine memoizes it on ``key``, which purity allows.
        """
        (reads, writes, atomics, atomics_ret, compute_cycles,
         rem_reads, rem_writes, rem_atomics, wb_carry, mlp, divergence,
         fraction, link_gbs, dram_gbs, fu_cap, energy_scale) = key
        sim = self.sim
        cache = sim.cache
        atomics_dem = max(0, int(round(atomics)))
        writes_dem = max(0, int(round(writes)))
        d_reads, _, d_host, d_pim, d_pimr = demand = cache.demand_counts(
            max(0, int(round(reads))), writes_dem, atomics_dem,
            min(int(round(atomics_ret)), int(round(atomics))), fraction,
        )
        t_mem_ns = demand_time_ns(*demand, link_gbs, dram_gbs, fu_cap)
        if mlp > 0.0:
            t_mem_ns /= mlp
        t_cmp_ns = sim.sm.issue_time_ns(int(compute_cycles), divergence)
        # Host-executed atomics serialize at the L2 ROP units.
        t_atm_ns = d_host / sim.gpu.host_atomic_ops_per_ns
        t_total_ns = max(t_mem_ns, t_cmp_ns, t_atm_ns, 1.0)

        dt_ns = min(CONTROL_DT_S * 1e9, t_total_ns)
        share = dt_ns / t_total_ns
        served_reads = min(int(round(d_reads * share)), rem_reads)
        # Plain writes only: PEI writebacks (in the demand's writes)
        # follow the offloaded ops served below, not the writes ledger.
        served_writes = min(int(round(writes_dem * share)), rem_writes)
        served_host = int(round(d_host * share))
        served_pim = int(round(d_pim * share))
        served_pim_ret = int(round(d_pimr * share))
        host_raw = int(round((atomics_dem - (d_pim + d_pimr)) * share))
        # Clamp against the ledger (rounding drift), cutting the host
        # accounting before offloaded traffic.
        over = served_pim + served_pim_ret + host_raw - rem_atomics
        if over > 0:
            cut = min(over, host_raw)
            host_raw -= cut
            over -= cut
            cut = min(over, served_pim)
            served_pim -= cut
            served_pim_ret -= over - cut
        if share >= 1.0:
            # Residual flush: whatever the integer ledgers still hold is
            # served in this last quantum instead of being dropped with
            # the sub-0.5 fluid remainder.
            served_reads = rem_reads
            served_writes = rem_writes
            leftover = rem_atomics - (served_pim + served_pim_ret + host_raw)
            extra_pim = min(leftover, int(round(leftover * fraction)))
            extra_host = leftover - extra_pim
            served_pim += extra_pim
            host_raw += extra_host
            served_host += int(round(
                extra_host * cache.host_atomic_coalescing
            ))
        served_pim_all = served_pim + served_pim_ret
        writebacks, wb_carry = cache.writebacks(served_pim_all, wb_carry)
        served_all_writes = served_writes + writebacks
        link_bytes, data_bytes, dram_bytes = demand_bytes(
            served_reads, served_all_writes, served_host, served_pim,
            served_pim_ret,
        )
        ext_gbs, int_gbs, pim_rate = rates_of(
            link_bytes, dram_bytes, served_pim_all, dt_ns
        )
        power_w = sim.thermal.power.package_w(
            ext_gbs, int_gbs, pim_rate, energy_scale
        )
        keep = 1.0 - share
        return (
            dt_ns, dt_ns * 1e-9, power_w * dt_ns * 1e-9,
            reads * keep, writes * keep, atomics * keep, atomics_ret * keep,
            compute_cycles * keep,
            rem_reads - served_reads, rem_writes - served_writes,
            rem_atomics - (served_pim_all + host_raw),
            wb_carry,
            (dt_ns, served_host, served_pim, served_pim_ret, host_raw,
             link_bytes, data_bytes, ext_gbs, int_gbs, pim_rate),
        )

    def _thermal_quantum(
        self, dt_s: float, traffic_point: TrafficPoint, energy_scale: float
    ) -> float:
        """Integrate one interval's traffic power; returns the peak DRAM
        temperature (°C) the step's decisions read.

        Steps run on the fixed control quantum (one cached LU);
        sub-quantum intervals accumulate as debt and are flushed with the
        current traffic point — at most one quantum of lag versus the
        100 µs sensor period.
        """
        thermal = self.sim.thermal
        self.thermal_debt_s += dt_s
        temp_c = thermal.peak_dram_c()
        while self.thermal_debt_s >= CONTROL_DT_S:
            temp_c = thermal.step(
                traffic_point, dram_energy_scale=energy_scale
            )
            self.thermal_debt_s -= CONTROL_DT_S
            self.thermal_solver_steps += 1
        return temp_c

    def _scalar_step(self) -> None:
        """One control quantum of the paper's loop: offload fraction →
        HMC traffic → thermal step → sensor sample → warning → throttle."""
        sim = self.sim
        flow = sim.flow
        state = self.state
        policy = self.policy
        exempt = self.exempt
        traced = self.traced

        fraction = policy.pim_fraction(self.now_s)
        if fraction != self.frac_tw.value:
            self.frac_tw.update(fraction, self.now_s)
        energy_scale = (
            1.0 if exempt else flow.policy.dram_energy_scale(flow.phase)
        )
        (dt_ns, dt_s, energy_j, state.reads, state.writes, state.atomics,
         state.atomics_ret, state.compute_cycles, self.rem_reads,
         self.rem_writes, self.rem_atomics, self.wb_carry,
         rec) = self._serve_quantum((
            state.reads, state.writes, state.atomics, state.atomics_ret,
            state.compute_cycles, self.rem_reads, self.rem_writes,
            self.rem_atomics, self.wb_carry, state.mlp, state.divergence,
            fraction,
            *flow.capacities(), energy_scale,
        ))
        (_, s_host, s_pim, s_pimr, host_raw,
         link_bytes, data_bytes, ext_gbs, int_gbs, pim_rate) = rec
        self.host_atomics_assigned += host_raw

        if not exempt:
            temp_c = self._thermal_quantum(
                dt_s,
                TrafficPoint(
                    external_gbs=ext_gbs,
                    internal_dram_gbs=int_gbs,
                    pim_rate_ops_ns=pim_rate,
                ),
                energy_scale,
            )
            self.peak_temp = max(self.peak_temp, temp_c)
            phase = flow.update_phase(temp_c)
            if sim.sensor.observe(temp_c, self.now_s):
                self.thermal_warnings += 1
                if traced:
                    self.tracer.instant(
                        "sim.thermal_warning", cat="sim",
                        sim_time_ns=self.now_s * 1e9, clock="sim",
                        temp_c=sim.sensor.last_temp_c,
                    )
                policy.on_thermal_warning(self.now_s, sim.sensor.last_temp_c)
            if phase is TemperaturePhase.SHUTDOWN:
                # Conservative overheat policy: full stop, long recovery,
                # restart cold (Sec. III-A).
                self.shutdowns += 1
                if traced:
                    self.tracer.instant(
                        "sim.shutdown", cat="sim",
                        sim_time_ns=self.now_s * 1e9, clock="sim",
                        temp_c=temp_c,
                    )
                self.now_s += SHUTDOWN_RECOVERY_S
                self.phase_time[TemperaturePhase.SHUTDOWN.name] += (
                    SHUTDOWN_RECOVERY_S
                )
                sim.thermal.warm_start(TrafficPoint.idle())
                flow.phase = TemperaturePhase.NORMAL
                sim.sensor.reset()
            self.last_temp_c = temp_c
        else:
            phase = TemperaturePhase.NORMAL
            temp_c = sim.thermal.ambient_c

        self.package_energy_j += energy_j
        self.link_bytes += link_bytes
        self.data_bytes += data_bytes
        self.pim_ops += s_pim + s_pimr
        self.host_atomics += s_host
        self.phase_time[phase.name] += dt_s
        self.now_s += dt_s
        self.control_steps += 1
        self.dts.append(dt_ns)

        if self.now_s >= self.next_sample:
            self.timeline.append((self.now_s, temp_c, pim_rate, fraction))
            # Snap to the fixed grid: the next sample is due at the first
            # grid point strictly after now, so sample spacing does not
            # drift with step size (Fig. 14 comparability).
            self.next_sample = (
                math.floor(self.now_s / TIMELINE_DT_S) + 1.0
            ) * TIMELINE_DT_S

        if not self._epoch_pending():
            self._close_epoch(self.now_s)

    def _sink_sample(self) -> None:
        """Offer the live sink a sample of the committed run state."""
        sink = self._sink
        if sink is not None and self.now_s >= sink.next_due_s:
            pool = getattr(self.policy, "pool", None)
            sink.emit_sample({
                "t_s": self.now_s,
                "progress": self.launch_trace.position / self._total_epochs,
                "dram_c": self.last_temp_c,
                "pim_fraction": self.frac_tw.value,
                "tokens": pool.size if pool is not None else None,
                "warnings": self.thermal_warnings,
                "shutdowns": self.shutdowns,
                "avg_link_gbs": (
                    self.link_bytes / self.now_s / 1e9
                    if self.now_s > 0 else 0.0
                ),
                "phase": self.sim.flow.phase.name,
                "engine": self.name,
            })


class SystemSimulator:
    """Co-simulation engine for one GPU + one HMC 2.0 cube."""

    def __init__(
        self,
        gpu: GpuConfig = GPU_DEFAULT,
        hmc_config: HmcConfig = HMC_2_0,
        cache: Optional[CacheModel] = None,
        flow: Optional[HmcFlowModel] = None,
        thermal: Optional[HmcThermalModel] = None,
        sensor: Optional[ThermalSensor] = None,
        saturation_threads: int = 1500,
        engine: str = "macro",
        scenario=None,
    ) -> None:
        if engine not in ("macro", "stepped"):
            raise ValueError(
                f"engine must be 'macro' or 'stepped', got {engine!r}"
            )
        if saturation_threads <= 0:
            raise ValueError(
                f"saturation_threads must be positive: {saturation_threads}"
            )
        self.gpu = gpu
        self.hmc_config = hmc_config
        self.cache = cache or CacheModel(gpu)
        self.flow = flow or HmcFlowModel(hmc_config)
        self.thermal = thermal or HmcThermalModel(hmc_config)
        self.sensor = sensor or ThermalSensor()
        self.sm = SmArray(gpu)
        #: Concurrent memory streams needed to saturate the memory system
        #: (peak bandwidth x memory latency / line size ~ 1500 in-flight
        #: 64 B requests): epochs with smaller frontiers achieve
        #: proportionally less bandwidth. This is what keeps
        #: small-frontier graphs (road networks) thermally benign.
        self.saturation_threads = saturation_threads
        #: Per-simulator stat registry; each run() resets and refills the
        #: ``sim.*`` stats, so the last run's numbers are always current.
        self.stats = StatRegistry()
        #: Execution engine: ``"macro"`` (vectorized bursts between
        #: horizon events, the default) or ``"stepped"`` (the scalar
        #: reference loop, kept as the equivalence oracle).
        self.engine = engine
        #: Optional :class:`~repro.scenarios.Scenario` fault-injection
        #: stream, applied identically by both engines through one
        #: per-run :class:`~repro.scenarios.ScenarioDriver` (the single
        #: injection hook — nothing else in the loop knows about faults).
        self.scenario = scenario

    def _scenario_driver(self):
        """Fresh per-run driver for the configured scenario (or None)."""
        if self.scenario is None:
            return None
        from repro.scenarios.driver import ScenarioDriver

        return ScenarioDriver(self.scenario, self)

    # -- main entry -----------------------------------------------------------------

    def run(self, launch: KernelLaunch, policy: "OffloadPolicy") -> SimulationResult:
        """Execute the launch under ``policy``; returns run aggregates."""
        wall_t0 = _time.perf_counter()
        if self.engine == "macro":
            from repro.gpu.macro import MacroEngine

            engine = MacroEngine(self)
        else:
            engine = SteppedEngine(self)
        result = engine.run(launch, policy)
        self._record_run_telemetry(_time.perf_counter() - wall_t0)
        return result

    def _record_run_telemetry(self, wall_s: float) -> None:
        """Fold run aggregates into the process-wide telemetry registry.

        One handful of counter bumps per *run* (never per step), so the
        fleet-level series — scraped at ``GET /metrics`` and shipped
        from pool workers through the scheduler's delta pipe — cost
        nothing measurable against the control loop.
        """
        from repro.telemetry import get_registry
        from repro.telemetry.registry import counter_series

        reg = get_registry()
        labels = {"engine": self.engine}
        reg.counter(
            "repro_sim_runs_total", "Completed simulator runs", ("engine",)
        ).labels(**labels).inc()
        # One naming rule: every per-run sim.<name> counter is summed
        # into repro_sim_<name>_total{engine}.
        for name, stat in self.stats.scoped("sim").items():
            if isinstance(stat, Counter):
                reg.counter(
                    counter_series(name),
                    f"Per-run {name} summed over runs", ("engine",),
                ).labels(**labels).inc(stat.value)
        reg.histogram(
            "repro_sim_run_wall_seconds",
            "Wall-clock duration of simulator runs", ("engine",),
        ).labels(**labels).observe(wall_s)
