"""Macro-stepping fast path for :class:`~repro.gpu.simulator.SystemSimulator`.

The scalar reference engine advances one 25 µs control quantum per Python
iteration, paying a full sparse thermal solve (~0.3 ms on the 2,432-node
network, one BLAS thread on a 2-vCPU Xeon) plus the interval-model
arithmetic every step. Between *horizon events* nothing in
the loop actually branches: the policy's offloading fraction is constant
(policies publish a :meth:`~repro.core.policies.OffloadPolicy.fraction_horizon`),
the temperature phase holds, and the sensor only matters at its 100 µs
sample points. This engine exploits that:

1. **Speculate** — replay the control loop for up to a few thousand
   quanta, recording every per-step quantity. Each quantum's traffic
   comes from the scalar step's own function,
   :meth:`~repro.gpu.simulator.SteppedEngine._serve_quantum` (the count
   cores of the cache, flow and power models, no dataclass built),
   memoized per run on the epoch fluid state and the burst constants; the
   time, debt and energy accumulators add in the scalar loop's order, so
   committed integers and times are exactly what the reference engine
   would produce. Epoch boundaries are crossed freely: a crossed epoch's
   fresh state is its row of the trace's epoch rows
   (:func:`~repro.gpu.simulator.epoch_row`), and the commit builds a
   mutable state only for the epoch it leaves open. The trace cursor is
   restored with :meth:`~repro.sim.trace.TraceCursor.seek` on abort.
2. **March** — advance the thermal state for all speculated quanta at once
   in the reduced eigenbasis (:mod:`repro.thermal.propagator`): one small
   dense recurrence plus one GEMM for per-quantum peak DRAM temperatures,
   instead of one sparse solve per quantum.
3. **Validate** — check the marched temperatures keep the temperature
   phase, sensor thresholds, and warning state unchanged, with a
   ``MARGIN_C`` guard band (the reduced trajectory is accurate to ~1e-9 °C,
   the margin is 1e-6 °C). The first violating quantum truncates the burst.
4. **Commit** — walk the rare events (sensor samples, timeline points,
   warning instants), delivering each warning sample's policy callback
   for real and keeping the prefix only while the policy's fresh hints
   say the burst would start the same; then apply the kept prefix: bulk
   integer aggregates, pre-accumulated float totals (energy and phase
   time — simulated with the same sequential adds the scalar loop
   performs), and one reduced thermal state.

Steps the burst cannot prove safe — ambiguous phase/threshold
crossings, thermal shutdowns, warning callbacks the policy acts on
outside a sample, pending-fraction applications — fall back to the
scalar step. That step is not a copy: :class:`MacroEngine` subclasses
the stepped engine's run driver
(:class:`~repro.gpu.simulator.SteppedEngine`) and takes its
``_scalar_step`` as is but for one hook, ``_thermal_quantum``: the
step's substeps are marched in the reduced basis as a burst's are, and
kept when the temperature is decisive (``MARGIN_C`` from every phase
and sensor threshold, not SHUTDOWN). Otherwise, and in a
perturbed-sensor window, the cached reduced state is installed and the
exact solver takes the step.
Temperatures agree with the stepped engine's within 1e-9 °C; every other
output, and every ``sim.*`` stat but the burst histogram, is bit-equal
(``assert_engines_agree`` in ``tests/engines.py``).
"""

from __future__ import annotations

import math
import time as _time
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.core.policies import OffloadPolicy

from repro.gpu.kernel import KernelLaunch
from repro.gpu.simulator import (
    TIMELINE_DT_S, SimulationResult, SteppedEngine, SystemSimulator,
)
from repro.hmc.dram_timing import TemperaturePhase
from repro.thermal.operators import CONTROL_DT_S

#: Speculation window bounds (quanta). The window starts small, grows
#: geometrically on fully-committed bursts, and collapses after a
#: validation truncation (the trajectory is near a threshold).
SPEC_CAP_MIN = 64
SPEC_CAP_MAX = 4096

#: ``sim.macro_burst_steps`` bucket bounds: powers of two up to the
#: largest speculation window, so a burst's length is resolved to
#: within a factor of two at every scale.
BURST_BOUNDS = tuple(float(1 << k) for k in range(SPEC_CAP_MAX.bit_length()))

#: Guard band (°C) between a marched temperature and any decision
#: threshold (phase boundary, sensor warn/clear). The reduced trajectory
#: tracks the exact solver to ~1e-9 °C, so a quantum within the band is
#: simply re-run exactly rather than risking a flipped decision.
MARGIN_C = 1e-6

#: Floor of the speculation window after a validation truncation: near a
#: threshold the window tracks ~2× the last committed length, so failed
#: speculation work stays proportional to committed work.
SPEC_CAP_NEAR = 8

#: Entry bound of the per-run step memo (~1.2 KB an entry). A run that
#: fills it starts it afresh; values never depend on the memo's history,
#: so the bound only caps memory on very long runs.
STEP_MEMO_MAX = 1 << 14


def power_weights(es, amb_c, nsub, ext_gbs, int_gbs, pim_rate) -> np.ndarray:
    """(6, Σ nsub) power-basis weights of thermal substeps for
    :meth:`~repro.thermal.propagator.ReducedPropagator.march`.

    Quantum k's traffic rates repeat over its ``nsub[k]`` substeps, in
    the propagator's input order ``(1, s, ext, s·int, s·pim, T_amb)``
    (:meth:`~repro.thermal.model.HmcThermalModel.propagator`) under DRAM
    energy scale ``es`` and boundary temperature ``amb_c``.
    """
    rates = np.repeat(
        np.array((ext_gbs, int_gbs, pim_rate), dtype=float),
        np.asarray(nsub, dtype=np.int64), axis=1,
    )
    coeffs = np.empty((6, rates.shape[1]))
    coeffs[0] = 1.0
    coeffs[1] = es
    coeffs[2:5] = rates
    coeffs[3:5] *= es
    coeffs[5] = amb_c
    return coeffs


class MacroEngine(SteppedEngine):
    """The stepped run driver plus vectorized bursts.

    Constructed per :meth:`SystemSimulator.run` call. It inherits the run
    set-up, epoch bookkeeping, scalar step, live sample and result from
    :class:`~repro.gpu.simulator.SteppedEngine`, and adds only what
    belongs to bursts.
    """

    name = "macro"

    def __init__(self, sim: SystemSimulator) -> None:
        super().__init__(sim)
        # Burst machinery.
        self.spec_cap = SPEC_CAP_MIN
        self._prop = None
        self._prop_bad = False
        #: Per-run certified peak readout (created with the propagator).
        #: Per-run on purpose: its mode/candidate state depends on the
        #: burst history, so a run's floats never depend on other runs.
        self._reader = None
        # Reduced-state cache: eigen-coordinates of the thermal state and
        # its peak DRAM temperature, valid while no exact solver step has
        # touched the model since the last burst commit or reduced scalar
        # quantum. While valid, bursts and scalar quanta skip both the
        # projection and the full-state reconstruction; the node state is
        # materialized lazily.
        self._z = None
        self._z_peak = 0.0

    # -- run driver overrides ----------------------------------------------

    def run(self, launch: KernelLaunch, policy: "OffloadPolicy") -> SimulationResult:
        self.burst_hist = self.sim.stats.scoped("sim").histogram(
            "macro_burst_steps", BURST_BOUNDS
        )
        self.burst_hist.reset()
        # Per-run step memo of _speculate (key → served-traffic block).
        # Its values depend only on the key, but it lives for this run
        # alone: nothing outside the run can grow or observe it.
        self._memo = {}
        result = super().run(launch, policy)
        self._memo = None
        self._materialize()
        return result

    def _advance(self) -> None:
        """A burst where one is provably equal to scalar steps, else one
        scalar step (whose thermal quantum stays reduced when it can)."""
        if not self._try_burst():
            self._scalar_step()

    def _thermal_quantum(self, dt_s, traffic_point, energy_scale) -> float:
        """The scalar step's thermal quantum, in the reduced basis when
        that provably changes nothing.

        The step's substeps are counted as the scalar loop counts them and
        marched from :meth:`_reduced_start` as a burst marches them. The
        result is kept when its temperature is :meth:`_decisive`: every
        decision the step takes from it is then the exact solver's. Else
        the cached state, if any, is installed and the exact solver takes
        the step.
        """
        z, temp_c = self._reduced_start()
        if z is not None:
            debt = self.thermal_debt_s + dt_s
            nsub = 0
            while debt >= CONTROL_DT_S:
                debt -= CONTROL_DT_S
                nsub += 1
            if nsub:
                Z = self._prop.march(z, power_weights(
                    energy_scale, self.sim.thermal.effective_ambient_c,
                    (nsub,), (traffic_point.external_gbs,),
                    (traffic_point.internal_dram_gbs,),
                    (traffic_point.pim_rate_ops_ns,),
                ))
                z = Z[:, -1]
                temp_c = float(self._reader.peaks(Z)[-1])
            if self._decisive(temp_c):
                self._z = z
                self._z_peak = temp_c
                self.thermal_debt_s = debt
                self.thermal_solver_steps += nsub
                return temp_c
        self._materialize()
        return super()._thermal_quantum(dt_s, traffic_point, energy_scale)

    def _reduced_start(self) -> Tuple[Optional[np.ndarray], float]:
        """``(z, peak)`` a reduced thermal quantum starts from, or
        ``(None, 0.0)`` when the quantum must be exact: in a
        perturbed-sensor window (each sample must be the oracle's) or
        without a healthy basis (a failed projection marks it bad, as
        in a burst).

        The cached state when there is one; else a projection of the
        exact state — one projection costs less than the exact solve the
        next quantum would otherwise take.
        """
        scen = self.scen
        if scen is not None and scen.sensor_perturbed():
            return None, 0.0
        if self._z is not None:
            return self._z, self._z_peak
        prop = self._prop
        if prop is None or self._prop_bad or not prop.healthy:
            return None, 0.0
        thermal = self.sim.thermal
        z, _resid = prop.project(thermal.state)
        if z is None:
            self._prop_bad = True
        return z, thermal.peak_dram_c()

    def _decisive(self, temp_c: float) -> bool:
        """Whether every decision a scalar step takes from ``temp_c`` is
        the exact solver's: the temperature is at least ``MARGIN_C`` from
        each phase threshold and the sensor's warn and clear thresholds,
        and not in the SHUTDOWN phase (whose recovery restarts the exact
        state)."""
        sim = self.sim
        pol = sim.flow.policy
        if pol.phase(temp_c) is TemperaturePhase.SHUTDOWN:
            return False
        sensor = sim.sensor
        thresholds = (
            (pol.conservative_shutdown_c,) if pol.conservative_shutdown
            else pol.thresholds_c
        )
        return all(
            abs(temp_c - t) >= MARGIN_C
            for t in (*thresholds, sensor.warn_threshold_c,
                      sensor.clear_threshold_c)
        )

    # -- burst helpers ------------------------------------------------------

    def _materialize(self) -> None:
        """Install the cached reduced state into the thermal model.

        Called before anything reads or advances the node-temperature
        state directly (an exact scalar quantum, end of run). Afterwards
        the cache is dropped: the exact solver is about to evolve the
        state, so the next reduced quantum or burst re-projects.
        """
        if self._z is not None:
            self.sim.thermal.set_transient_state(
                self._prop.reconstruct(self._z)
            )
            self._z = None

    def _phase_band(self, phase: TemperaturePhase) -> Tuple[Optional[float], float]:
        """(lower, upper) temperature bounds within which ``phase`` holds.

        ``None`` lower bound means unbounded below. The burst validator
        requires every marched temperature to stay inside the band (with
        margin) so the phase — and with it every hoisted capacity and the
        energy scale — provably never changes mid-burst.
        """
        pol = self.sim.flow.policy
        if pol.conservative_shutdown:
            return None, pol.conservative_shutdown_c
        t0, t1, t2 = pol.thresholds_c
        if phase is TemperaturePhase.NORMAL:
            return None, t0
        if phase is TemperaturePhase.EXTENDED:
            return t0, t1
        return t1, t2

    # -- burst path --------------------------------------------------------
    #
    # One burst = begin → speculate → march → validate → commit, one
    # method per stage. ``_Burst`` carries one burst's inputs and outputs
    # between the stages.

    def _spec_begin(self) -> "Optional[_Burst]":
        """Resolve burst preconditions and hoist the burst-scoped inputs.

        Returns ``None`` when no burst may start here: unhealthy reduced
        basis, shutdown recovery, a perturbed sensor window (scalar
        oracle path), or a warning the policy may act on this very step.
        """
        sim = self.sim
        exempt = self.exempt
        policy = self.policy
        flow = sim.flow
        if not exempt:
            if self._prop_bad:
                return None
            if self._prop is None:
                self._prop = sim.thermal.propagator()
                self._reader = self._prop.peak_reader()
            if not self._prop.healthy:
                self._prop_bad = True
                return None
        if flow.is_shutdown:
            return None
        scen = self.scen
        if scen is not None and scen.sensor_perturbed():
            # Sensor-fault windows (noise/dropout) run on the scalar
            # oracle path: each sample must pass through the real,
            # perturbed sensor at its exact instant so both engines draw
            # the same noise variates in the same order.
            return None

        b = _Burst()
        b.wall_b0 = _time.perf_counter() if self.traced else 0.0
        b.t0 = t0 = self.now_s
        # The burst's first quantum makes the real policy call (it may
        # apply a pending change); subsequent quanta reuse the value under
        # the fraction_horizon purity contract.
        b.fraction = policy.pim_fraction(t0)
        end_t = policy.fraction_horizon(t0)
        if scen is not None:
            # Extended horizon contract: an injection instant is a hard
            # commit boundary — a burst may not speculate across it.
            nxt = scen.next_event_s()
            if nxt < end_t:
                end_t = nxt
        b.warning = warning = sim.sensor.warning
        b.samples_safe = True
        if warning:
            wn_cur = policy.warning_noop_until(t0, sim.sensor.last_temp_c)
            if wn_cur <= t0:
                return None  # the policy may act this very step
            if wn_cur < end_t:
                end_t = wn_cur
            # A sensor sample inside the burst replaces the temperature the
            # per-step warning callbacks would carry. Skipping those
            # callbacks is only safe if they are no-ops for *any*
            # temperature to burst end. Otherwise the burst still runs
            # through its samples: the commit delivers each sample's
            # callback for real, with the marched temperature, and keeps
            # the prefix only as far as the policy's fresh hints allow.
            b.samples_safe = policy.warning_noop_until(t0, None) >= end_t
        b.end_t = end_t
        b.phase0 = flow.phase
        b.caps = flow.capacities()
        b.es = 1.0 if exempt else flow.policy.dram_energy_scale(b.phase0)
        # Boundary forcing for the marched thermal states: scenario
        # ambient/cooling offsets enter here (and only here) — identical
        # to the exact solver's `B * ambient_c` term, and equal to
        # the ambient when no offset is active.
        b.amb_forcing = sim.thermal.effective_ambient_c
        b.cap = self.spec_cap
        b.pos0 = self.launch_trace.position
        b.pt0 = self.phase_time[b.phase0.name]
        b.steps = []
        b.entries = []
        b.cum_sub = 0
        return b

    def _speculate(self, b: "_Burst") -> None:
        """Scalar speculation: replay the control loop into ``b.steps``.

        Each quantum's traffic is :meth:`_serve_quantum`, the scalar
        step's own function, memoized per run (``self._memo``) on its key:
        the epoch's fluid state and the burst constants. Only the time,
        debt, sample and energy/phase-time accumulators are
        replayed here, sequentially, exactly as the scalar loop adds
        them. Each step records ``(rec, t_start, t_end, nsub, tidx,
        sflag, tlf, pkg_acc, pt_acc, debt, next_tl, value)``,
        where ``value`` is the :meth:`_serve_quantum` value (its entries
        3..11 are the post-step epoch state) and ``rec`` its per-step
        traffic record.
        """
        sim = self.sim
        exempt = self.exempt
        fraction = b.fraction
        end_t = b.end_t
        period = sim.sensor.sample_period_s
        next_epoch = self._next_epoch
        link_gbs, dram_gbs, fu_cap = b.caps
        es = b.es
        serve = self._serve_quantum
        memo = self._memo
        memo_get = memo.get
        hits = 0

        # Epoch-local speculation state (copies; committed on success).
        st = self.state
        sr, sw_, sa = st.reads, st.writes, st.atomics
        sar, scc = st.atomics_ret, st.compute_cycles
        rr, rw, ra = self.rem_reads, self.rem_writes, self.rem_atomics
        rwb = self.wb_carry
        mlp, div = st.mlp, st.divergence
        tnow = b.t0
        debt = self.thermal_debt_s
        # Replicates the sensor's own `now - last >= period` comparison.
        nsamp = sim.sensor._last_sample_time
        next_tl = self.next_sample
        pkg_acc = self.package_energy_j
        pt_acc = b.pt0
        cap = b.cap
        entries = b.entries
        steps = b.steps
        cum_sub = 0

        while True:
            if len(steps) >= cap:
                b.stop = "cap"
                break
            if steps and tnow >= end_t:
                b.stop = "horizon"
                break
            if not (sr >= 0.5 or sw_ >= 0.5 or sa >= 0.5 or scc >= 1.0
                    or ra > 0 or rr > 0 or rw > 0):
                epoch = next_epoch()
                if epoch is None:
                    b.stop = "trace_end"
                    break
                entries.append((len(steps), *epoch))
                (sr, sw_, sa, sar, scc, (rr, rw, ra, _), mlp,
                 div) = epoch[1]
                rwb = 0.0
                continue

            key = (sr, sw_, sa, sar, scc, rr, rw, ra, rwb, mlp, div,
                   fraction, link_gbs, dram_gbs, fu_cap, es)
            value = memo_get(key)
            if value is None:
                value = serve(key)
                if len(memo) >= STEP_MEMO_MAX:
                    memo.clear()
                memo[key] = value
            else:
                hits += 1
            (dt_ns, dt_s, e_inc, sr, sw_, sa, sar, scc, rr, rw, ra, rwb,
             rec) = value

            if not exempt:
                sflag = tnow - nsamp >= period
                if sflag:
                    nsamp = tnow
                debt += dt_s
                nsub = 0
                while debt >= CONTROL_DT_S:
                    debt -= CONTROL_DT_S
                    nsub += 1
                cum_sub += nsub
                tidx = cum_sub - 1
            else:
                nsub = 0
                tidx = -1
                sflag = False

            pkg_acc += e_inc
            pt_acc += dt_s
            t_start = tnow
            tnow = tnow + dt_s
            tlf = tnow >= next_tl
            if tlf:
                next_tl = (math.floor(tnow / TIMELINE_DT_S) + 1.0) * TIMELINE_DT_S

            steps.append((
                rec, t_start, tnow, nsub, tidx, sflag, tlf,
                pkg_acc, pt_acc, debt, next_tl, value,
            ))

        b.cum_sub = cum_sub
        b.memo_hits = hits

    def _march_coeffs(self, b: "_Burst", cols, rcols) -> Optional[tuple]:
        """Thermal-march inputs: ``(z0, t0_peak, coeffs)``.

        ``coeffs`` is the (6, cum_sub) power-basis weight matrix of the
        burst's thermal substeps (``None`` when the burst spans none).
        Returns ``None`` when the thermal state cannot be represented in
        the reduced basis — the caller reverts to exact stepping.
        """
        sim = self.sim
        if self._z is not None:
            z0 = self._z
            t0_peak = self._z_peak
        else:
            t0_peak = sim.thermal.peak_dram_c()
            z0, _resid = self._prop.project(sim.thermal.state)
            if z0 is None:
                return None
        if b.cum_sub == 0:
            return z0, t0_peak, None
        return z0, t0_peak, power_weights(
            b.es, b.amb_forcing, cols[3], rcols[7], rcols[8], rcols[9]
        )

    def _temps_of(self, b: "_Burst", cols, peaks, t0_peak) -> np.ndarray:
        """Per-step decision temperatures from the marched peaks.

        A step with no thermal substep sees the temperature left by the
        last substep before it (or the burst-entry peak).
        """
        tidx_arr = np.asarray(cols[4], dtype=np.int64)
        return np.concatenate(([t0_peak], peaks))[tidx_arr + 1]

    def _validate(self, b: "_Burst", cols, temps) -> tuple:
        """Longest provable prefix: ``(j, flip_stop, phase_stop)``.

        ``j`` is the committed length; ``flip_stop`` marks a decisive
        sensor-hysteresis flip on the final step, ``phase_stop`` a
        decisive temperature-phase crossing (the new phase).
        """
        sim = self.sim
        flow = sim.flow
        K = len(b.steps)
        warning = b.warning
        lo, hi = self._phase_band(b.phase0)
        # Quanta inside the band continue the burst. A quantum
        # decisively *outside* it may end the burst instead of
        # failing it: the oracle applies the phase change after the
        # step's thermal solve, so the crossing step itself runs
        # entirely under the old phase and only later quanta see the
        # new capacities. Anything within MARGIN_C of a boundary is
        # ambiguous and falls back to the exact solver.
        bad = (temps >= hi - MARGIN_C) & (temps < hi + MARGIN_C)
        stop = temps >= hi + MARGIN_C
        if lo is not None:
            bad |= (temps >= lo - MARGIN_C) & (temps < lo + MARGIN_C)
            stop |= temps < lo - MARGIN_C
        sflag_arr = np.fromiter(cols[5], dtype=bool, count=K)
        # Sensor hysteresis: a sample decisively across the warn or
        # clear threshold flips the warning state — again only later
        # quanta (plus the flip step's own callback, delivered at
        # commit) observe it, so the flip step can be the burst's
        # last.
        if warning:
            thr = sim.sensor.clear_threshold_c
            flips = sflag_arr & (temps < thr - MARGIN_C)
        else:
            thr = sim.sensor.warn_threshold_c
            flips = sflag_arr & (temps >= thr + MARGIN_C)
        bad |= (
            sflag_arr
            & (temps >= thr - MARGIN_C)
            & (temps < thr + MARGIN_C)
        )
        stop |= flips
        viol = np.nonzero(bad)[0]
        j = int(viol[0]) if viol.size else K
        flip_stop = False
        phase_stop: Optional[TemperaturePhase] = None
        cand = np.nonzero(stop[:j])[0]
        if cand.size:
            f = int(cand[0])
            t_f = float(temps[f])
            # A shutdown crossing needs the scalar step's recovery
            # branch; and a multi-band jump may land inside another
            # threshold's margin — guard every decision threshold.
            if self._decisive(t_f):
                j = f + 1
                flip_stop = bool(flips[f])
                new_phase = flow.policy.phase(t_f)
                if new_phase is not b.phase0:
                    phase_stop = new_phase
            else:
                j = min(j, f)
        return j, flip_stop, phase_stop

    def _deliver(self, b: "_Burst", j: int, flip_stop: bool, temps) -> int:
        """Walk the validated prefix's rare events; returns the kept length.

        Per step, in the scalar loop's order: the sensor sample, the
        warning instant, the timeline point, and — at each sample while
        the warning is set and samples are not provably safe — the real
        ``on_thermal_warning`` call with the freshly sensed temperature.
        After such a call the prefix goes on only while a fresh
        :meth:`_spec_begin` at the next quantum would start this same
        burst: the fraction must stay pure past the next quantum and
        unchanged, and the next quantum's repeated callback must be a
        no-op. Later steps are clipped at the new horizon / no-op end.
        The first step not kept ends the burst (``stop == "policy"``).
        """
        sim = self.sim
        policy = self.policy
        sensor = sim.sensor
        steps = b.steps
        warning = b.warning
        fraction = b.fraction
        traced = self.traced
        deliver = warning and not b.samples_safe
        last = j - 1
        limit = math.inf
        for k in range(j):
            stp = steps[k]
            t_k = stp[1]
            if t_k >= limit:
                b.stop = "policy"
                return k
            if stp[5]:
                sensor.observe(float(temps[k]), t_k)
            flipped = flip_stop and k == last
            if traced and warning != flipped:
                self.tracer.instant(
                    "sim.thermal_warning", cat="sim",
                    sim_time_ns=t_k * 1e9, clock="sim",
                    temp_c=sensor.last_temp_c,
                )
            if stp[6]:
                self.timeline.append(
                    (stp[2], float(temps[k]), stp[0][9], fraction)
                )
            if deliver and stp[5] and not flipped:
                policy.on_thermal_warning(t_k, sensor.last_temp_c)
                if k == last:
                    continue
                t_next = stp[2]
                # Horizon first: it is what makes pim_fraction pure here.
                horizon = policy.fraction_horizon(t_k)
                if horizon > t_next and policy.pim_fraction(t_k) == fraction:
                    noop = policy.warning_noop_until(
                        t_next, sensor.last_temp_c
                    )
                    if noop > t_next:
                        limit = min(horizon, noop)
                        continue
                b.stop = "policy"
                return k + 1
        return j

    def _commit(
        self, b: "_Burst", cols, rcols, j: int, flip_stop: bool,
        phase_stop, Z, peaks, temps,
    ) -> int:
        """Apply the validated prefix of ``j`` quanta; returns the
        committed length (shorter when the policy ends the prefix)."""
        sim = self.sim
        flow = sim.flow
        exempt = self.exempt
        policy = self.policy
        warning = b.warning
        fraction = b.fraction
        steps = b.steps
        K = len(steps)
        kept = self._deliver(b, j, flip_stop, temps)
        if kept < j:
            j = kept
            flip_stop = False
            phase_stop = None
        full = j == K
        if not exempt:
            committed_sub = sum(cols[3][:j])
            if committed_sub > 0:
                # Keep the state in reduced coordinates; it is
                # materialized lazily before the next exact solver use.
                self._z = Z[:, committed_sub - 1]
                self._z_peak = float(peaks[committed_sub - 1])
        else:
            committed_sub = 0

        end_now = cols[2][j - 1]
        committed_entries = [
            e for e in b.entries if e[0] < j or (full and e[0] <= j)
        ]
        self.launch_trace.seek(b.pos0 + len(committed_entries))
        last = len(committed_entries) - 1
        for n, (idx, batch, row) in enumerate(committed_entries):
            t_at = cols[1][idx] if idx < j else end_now
            self._close_epoch(t_at)
            if n < last:
                # Consumed inside the burst: counted (and traced), but
                # only the epoch left open gets a fluid state.
                self._begin_epoch(batch, t_at)
            else:
                self._open_epoch(batch, row, t_at)

        # Fluid remainder and integer ledgers after the last committed
        # quantum (the sequence of float ops matches the scalar loop).
        # When the burst ended right after an epoch advance (a committed
        # entry starting at step j), the open epoch is fresh and has no
        # recorded post-state to restore — leave it untouched.
        if not (committed_entries and committed_entries[-1][0] == j):
            st = self.state
            (st.reads, st.writes, st.atomics, st.atomics_ret,
             st.compute_cycles, self.rem_reads, self.rem_writes,
             self.rem_atomics, self.wb_carry) = cols[11][j - 1][3:12]

        self.now_s = end_now
        self.package_energy_j = cols[7][j - 1]
        if phase_stop is not None:
            # The crossing step's dt accrues to the *new* phase (the
            # oracle bills phase time after updating the phase).
            self.phase_time[b.phase0.name] = (
                cols[8][j - 2] if j > 1 else b.pt0
            )
        else:
            self.phase_time[b.phase0.name] = cols[8][j - 1]
        self.thermal_debt_s = cols[9][j - 1]
        self.next_sample = cols[10][j - 1]

        sh_sum = sum(rcols[1][:j])
        sp_sum = sum(rcols[2][:j])
        spr_sum = sum(rcols[3][:j])
        self.link_bytes += sum(rcols[5][:j])
        self.data_bytes += sum(rcols[6][:j])
        self.pim_ops += sp_sum + spr_sum
        self.host_atomics += sh_sum
        self.host_atomics_assigned += sum(rcols[4][:j])
        self.control_steps += j
        self.thermal_solver_steps += committed_sub
        if flip_stop:
            # The final step's sample flipped the warning: the oracle
            # counts that step under the *new* state.
            self.thermal_warnings += (j - 1) if warning else 1
        elif warning:
            self.thermal_warnings += j
        self.peak_temp = max(self.peak_temp, float(temps[:j].max()))
        self.last_temp_c = float(temps[j - 1])
        if fraction != self.frac_tw.value:
            self.frac_tw.update(fraction, b.t0)
        self.dts.extend(rcols[0][:j])

        if phase_stop is not None:
            flow.phase = phase_stop
            self.phase_time[phase_stop.name] += rcols[0][j - 1] * 1e-9
        if flip_stop and not warning:
            # Newly-set warning: deliver the flip step's callback (the
            # sample walk updated the sensor), exactly as the scalar
            # loop would at that step.
            policy.on_thermal_warning(steps[j - 1][1], sim.sensor.last_temp_c)

        if not self._epoch_pending():
            self._close_epoch(self.now_s)

        self.burst_hist.observe(j)
        if self.traced:
            self.tracer.complete(
                "sim.macro_burst", b.wall_b0, _time.perf_counter(),
                cat="sim", steps=j, speculated=K,
                thermal_substeps=committed_sub,
                sim_start_s=b.t0, sim_end_s=end_now,
                stop=b.stop, memo_hits=b.memo_hits,
            )

        if b.stop == "policy":
            # The policy's own reaction ended the prefix: not a
            # misprediction, so the window stays as it is.
            return j
        if full and K == b.cap:
            self.spec_cap = min(b.cap * 4, SPEC_CAP_MAX)
        elif not full:
            if flip_stop or phase_stop is not None:
                # Decisive boundary stop: a successful commit up to a real
                # event, not a misprediction. Reuse the window across the
                # boundary, sized to ~2× what this burst committed, instead
                # of collapsing to SPEC_CAP_NEAR and re-growing 4×-per-burst
                # from scratch (the regrowth stalls a policy that keeps
                # crossing thresholds — HW-DynT's warning churn).
                self.spec_cap = max(SPEC_CAP_NEAR, min(b.cap, 2 * j))
            else:
                # Truncated by validation: the trajectory is riding a
                # threshold ambiguously — keep the next attempt's wasted
                # speculation proportional to what it commits.
                self.spec_cap = max(SPEC_CAP_NEAR, min(SPEC_CAP_MIN, 2 * j))
        return j

    def _try_burst(self) -> int:
        """Speculate/march/validate/commit one burst; returns committed
        quanta (0 → the caller takes a scalar step)."""
        b = self._spec_begin()
        if b is None:
            return 0
        self._speculate(b)
        if not b.steps:
            self.launch_trace.seek(b.pos0)
            return 0
        cols = list(zip(*b.steps))
        rcols = list(zip(*cols[0]))
        K = len(b.steps)
        if self.exempt:
            Z, peaks = None, np.empty(0)
            temps = np.full(K, self.sim.thermal.ambient_c)
            j = K
            flip_stop = False
            phase_stop = None
        else:
            mc = self._march_coeffs(b, cols, rcols)
            if mc is None:
                self._prop_bad = True
                self.launch_trace.seek(b.pos0)
                return 0
            z0, t0_peak, coeffs = mc
            if coeffs is None:
                Z, peaks = None, np.empty(0)
            else:
                Z = self._prop.march(z0, coeffs)
                peaks = self._reader.peaks(Z)
            temps = self._temps_of(b, cols, peaks, t0_peak)
            j, flip_stop, phase_stop = self._validate(b, cols, temps)

        if j == 0:
            # The very next quantum is too close to a threshold: the
            # scalar step takes it, and the next window starts small.
            self.launch_trace.seek(b.pos0)
            self.spec_cap = SPEC_CAP_NEAR
            return 0
        if flip_stop:
            b.stop = "flip"
        elif phase_stop is not None:
            b.stop = "phase"
        elif j < K:
            b.stop = "validation"
        return self._commit(
            b, cols, rcols, j, flip_stop, phase_stop, Z, peaks, temps
        )


class _Burst:
    """One burst's stage-to-stage carrier (see the burst path above).

    ``stop`` says why the burst ended: ``cap`` (speculation window),
    ``horizon`` (fraction/no-op/scenario horizon), ``trace_end``,
    ``validation`` (a quantum too close to a threshold), ``phase``,
    ``flip`` (sensor hysteresis) or ``policy`` (a delivered warning
    changed what a fresh burst would do).
    """

    __slots__ = (
        "t0", "fraction", "end_t", "warning", "samples_safe", "phase0",
        "es", "amb_forcing", "caps", "cap",
        "pos0", "pt0", "wall_b0", "steps", "entries", "cum_sub",
        "stop", "memo_hits",
    )
