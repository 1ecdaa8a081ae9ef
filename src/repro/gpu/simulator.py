"""Full-system co-simulation: GPU + HMC flow model + thermal + policy.

The simulator drains each workload epoch as a fluid: every control quantum
(default 25 µs) it asks the policy for the current PIM offloading
fraction, splits the epoch's remaining atomics between host execution and
PIM packets, computes the served share from the HMC flow model's
bottleneck analysis, integrates the thermal RC network with the interval's
traffic-driven power, updates the temperature phase (DRAM derating), and
delivers thermal warnings to the policy — closing CoolPIM's feedback loop
(Fig. 6).

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

from repro.gpu.caches import CacheModel, MemoryTraffic
from repro.gpu.config import GPU_DEFAULT, GpuConfig
from repro.gpu.kernel import KernelLaunch
from repro.gpu.sm import SmArray
from repro.hmc.config import HMC_2_0, HmcConfig
from repro.hmc.dram_timing import TemperaturePhase
from repro.hmc.flow import HmcFlowModel, TrafficDemand
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

    def bandwidth_ratio(self, baseline: "SimulationResult") -> float:
        """Link-traffic bandwidth normalized to ``baseline`` (Fig. 11)."""
        base = baseline.avg_link_bandwidth_gbs
        return self.avg_link_bandwidth_gbs / base if base > 0 else 0.0

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


class _EpochState:
    """Mutable fluid remainder of one epoch, plus its two per-epoch
    service constants: memory-level parallelism and warp divergence."""

    def __init__(
        self, batch: OpBatch, traffic: MemoryTraffic, saturation_threads: int
    ) -> None:
        self.reads = float(traffic.reads)
        self.writes = float(traffic.writes)
        self.atomics = float(traffic.atomics)
        self.atomics_ret = float(traffic.atomics_with_return)
        self.compute_cycles = float(batch.compute_cycles)
        # Small frontiers can't keep enough requests in flight to
        # saturate the memory system.
        self.mlp = min(1.0, batch.threads / saturation_threads)
        self.divergence = batch.divergent_warp_ratio

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
            sim.thermal.warm_start(sim.warm_start)
        sim.flow.phase = TemperaturePhase.NORMAL
        sim.flow.set_thermal_warning(False)

        policy.bind(sim)
        policy.begin(launch, now_s=0.0)

        self.tracer = get_tracer()
        self.traced = self.tracer.enabled
        wall_t0 = _time.perf_counter()
        # The run's sim.* stats: each run resets and refills them, so the
        # last run's numbers are always current.
        scope = sim.stats.scoped("sim")
        self.dt_hist = scope.histogram(
            "control_dt_ns", linear_bounds(0.0, sim.control_dt_s * 1e9 * 1.01, 64)
        )
        self.dt_hist.reset()
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
        # Live telemetry: resolved once per run; when no sink is
        # installed the per-step cost is a single None test (the same
        # discipline as the tracer's NULL_SPAN fast path).
        self._sink = get_run_sink()
        self._total_epochs = max(1, len(trace))

        while True:
            # Open the next epoch (an empty one closes at once), then
            # apply the scenario events due at this step.
            while self.state is None:
                batch = trace.next()
                if batch is None:
                    break
                if scen is not None:
                    batch = scen.transform_batch(batch)
                self._open_epoch(batch, self.now_s)
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

    def _open_epoch(
        self, batch: OpBatch, sim0: float,
        traffic: Optional[MemoryTraffic] = None,
    ) -> None:
        self.batch = batch
        self.atomics_total += batch.atomics
        if traffic is None:
            traffic = self.sim.cache.filter(batch)
        self.state = _EpochState(batch, traffic, self.sim.saturation_threads)
        # Integer work ledgers: the fluid drain rounds per step, so its
        # serving sums can drift from the epoch totals; the final control
        # step flushes whatever the ledgers still hold.
        self.rem_reads = traffic.reads
        self.rem_writes = traffic.writes
        self.rem_atomics = traffic.atomics
        self.epochs += 1
        self.epoch_sim0 = sim0
        self.epoch_wall0 = _time.perf_counter() if self.traced else 0.0

    def _close_epoch(self, end_s: float) -> None:
        if self.traced:
            self.tracer.complete(
                "gpu.epoch", self.epoch_wall0, _time.perf_counter(),
                cat="gpu", label=self.batch.label,
                atomics=self.batch.atomics, threads=self.batch.threads,
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
        rem_reads, rem_writes, rem_atomics, mlp, divergence, fraction,
        link_gbs, dram_gbs, fu_cap, energy_scale)``: the open epoch's
        fluid remainder, its integer work ledgers and service constants,
        the offloading fraction, the flow model's capacities at the
        current phase, and the DRAM energy scale. Returns ``(dt_ns, dt_s,
        energy_j, reads, writes, atomics, atomics_ret, compute_cycles,
        rem_reads, rem_writes, rem_atomics, rec)`` — the interval, its
        package energy, the post-step fluid state and ledgers — where
        ``rec`` is the served traffic ``(dt_ns, reads, writes,
        host_atomics, pim_ops, pim_ops_ret, host_raw, link_bytes,
        data_bytes, ext_gbs, int_gbs, pim_rate)``.

        Demand, service time, traffic rates and power come from the
        component models; only the served share, the ledger clamp and the
        final-step flush are computed here. The scalar step calls it every
        quantum; the macro engine memoizes it on ``key``, which purity
        allows.
        """
        (reads, writes, atomics, atomics_ret, compute_cycles,
         rem_reads, rem_writes, rem_atomics, mlp, divergence, fraction,
         link_gbs, dram_gbs, fu_cap, energy_scale) = key
        sim = self.sim
        atomics_dem = max(0, int(round(atomics)))
        demand = sim.cache.demand(MemoryTraffic(
            reads=max(0, int(round(reads))),
            writes=max(0, int(round(writes))),
            atomics=atomics_dem,
            atomics_with_return=min(
                int(round(atomics_ret)), int(round(atomics))
            ),
        ), fraction)
        t_mem_ns = HmcFlowModel.bottleneck_time_ns(
            demand, link_gbs, dram_gbs, fu_cap
        )
        if mlp > 0.0:
            t_mem_ns /= mlp
        t_cmp_ns = sim.sm.issue_time_ns(int(compute_cycles), divergence)
        # Host-executed atomics serialize at the L2 ROP units.
        t_atm_ns = demand.host_atomics / sim.gpu.host_atomic_ops_per_ns
        t_total_ns = max(t_mem_ns, t_cmp_ns, t_atm_ns, 1.0)

        dt_ns = min(sim.control_dt_s * 1e9, t_total_ns)
        share = dt_ns / t_total_ns
        served_reads = min(int(round(demand.reads * share)), rem_reads)
        served_writes = min(int(round(demand.writes * share)), rem_writes)
        served_host = int(round(demand.host_atomics * share))
        served_pim = int(round(demand.pim_ops * share))
        served_pim_ret = int(round(demand.pim_ops_ret * share))
        host_raw = int(round((atomics_dem - demand.total_pim) * share))
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
                extra_host * sim.cache.host_atomic_coalescing
            ))
        served = TrafficDemand(
            reads=served_reads,
            writes=served_writes,
            host_atomics=served_host,
            pim_ops=served_pim,
            pim_ops_ret=served_pim_ret,
        )
        ext_gbs, int_gbs, pim_rate = sim.flow.traffic_rates(served, dt_ns)
        power_w = sim.thermal.power.package_total_w(
            TrafficPoint(
                external_gbs=ext_gbs,
                internal_dram_gbs=int_gbs,
                pim_rate_ops_ns=pim_rate,
            ),
            energy_scale,
        )
        keep = 1.0 - share
        return (
            dt_ns, dt_ns * 1e-9, power_w * dt_ns * 1e-9,
            reads * keep, writes * keep, atomics * keep, atomics_ret * keep,
            compute_cycles * keep,
            rem_reads - served_reads, rem_writes - served_writes,
            rem_atomics - (served_pim + served_pim_ret + host_raw),
            (dt_ns, served_reads, served_writes, served_host, served_pim,
             served_pim_ret, host_raw, served.link_bytes(),
             served.external_data_bytes(), ext_gbs, int_gbs, pim_rate),
        )

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
         self.rem_writes, self.rem_atomics, rec) = self._serve_quantum((
            state.reads, state.writes, state.atomics, state.atomics_ret,
            state.compute_cycles, self.rem_reads, self.rem_writes,
            self.rem_atomics, state.mlp, state.divergence, fraction,
            *flow.capacities(), energy_scale,
        ))
        (_, s_reads, s_writes, s_host, s_pim, s_pimr, host_raw,
         link_bytes, data_bytes, ext_gbs, int_gbs, pim_rate) = rec
        self.host_atomics_assigned += host_raw

        # Thermal integration with this interval's traffic power. Steps
        # run on the fixed control quantum (one cached LU); sub-quantum
        # intervals accumulate as debt and are flushed with the current
        # traffic point — at most one quantum of lag versus the 100 µs
        # sensor period.
        if not exempt:
            traffic_point = TrafficPoint(
                external_gbs=ext_gbs,
                internal_dram_gbs=int_gbs,
                pim_rate_ops_ns=pim_rate,
            )
            self.thermal_debt_s += dt_s
            temp_c = sim.thermal.peak_dram_c()
            while self.thermal_debt_s >= sim.control_dt_s:
                temp_c = sim.thermal.step(
                    traffic_point,
                    sim.control_dt_s,
                    dram_energy_scale=energy_scale,
                )
                self.thermal_debt_s -= sim.control_dt_s
                self.thermal_solver_steps += 1
            self.peak_temp = max(self.peak_temp, temp_c)
            phase = flow.update_phase(temp_c)
            warning = sim.sensor.observe(temp_c, self.now_s)
            flow.set_thermal_warning(warning)
            if warning:
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
                flow.set_thermal_warning(False)
            self.last_temp_c = temp_c
        else:
            phase = TemperaturePhase.NORMAL
            temp_c = sim.thermal.ambient_c

        self.package_energy_j += energy_j
        flow.record(
            TrafficDemand(
                reads=s_reads, writes=s_writes, host_atomics=s_host,
                pim_ops=s_pim, pim_ops_ret=s_pimr,
            ),
            dt_ns,
        )
        self.link_bytes += link_bytes
        self.data_bytes += data_bytes
        self.pim_ops += s_pim + s_pimr
        self.host_atomics += s_host
        self.phase_time[phase.name] += dt_s
        self.now_s += dt_s
        self.control_steps += 1
        self.dt_hist.observe(dt_ns)

        if self.now_s >= self.next_sample:
            self.timeline.append((self.now_s, temp_c, pim_rate, fraction))
            # Snap to the fixed grid: the next sample is due at the first
            # grid point strictly after now, so sample spacing does not
            # drift with step size (Fig. 14 comparability).
            self.next_sample = (
                math.floor(self.now_s / sim.timeline_dt_s) + 1.0
            ) * sim.timeline_dt_s

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
        control_dt_s: float = CONTROL_DT_S,
        timeline_dt_s: float = 250e-6,
        warm_start: Optional[TrafficPoint] = None,
        saturation_threads: int = 1500,
        engine: str = "macro",
        scenario=None,
    ) -> None:
        if control_dt_s <= 0:
            raise ValueError(f"control quantum must be positive: {control_dt_s}")
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
        self.control_dt_s = control_dt_s
        self.timeline_dt_s = timeline_dt_s
        #: Concurrent memory streams needed to saturate the memory system
        #: (peak bandwidth x memory latency / line size ~ 1500 in-flight
        #: 64 B requests): epochs with smaller frontiers achieve
        #: proportionally less bandwidth. This is what keeps
        #: small-frontier graphs (road networks) thermally benign.
        self.saturation_threads = saturation_threads
        # The evaluation measures kernels from a query stream on a busy
        # device, not a cold one: warm-start at a moderately-loaded steady
        # point (Fig. 14's thermal warning lands ~2.5 ms into the run).
        self.warm_start = warm_start or TrafficPoint.streaming(240.0)
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
