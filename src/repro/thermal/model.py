"""Thermal model facade used by experiments and the co-simulation.

Wraps floorplan + stack + RC network + solvers into the queries the rest
of the system needs:

- :meth:`HmcThermalModel.steady_peak_dram_c` — Fig. 4/5-style operating
  points (peak DRAM die temperature at a traffic level).
- :meth:`HmcThermalModel.step` — transient integration for the feedback
  control loop (Fig. 14).
- :meth:`HmcThermalModel.heatmap` — per-layer temperature fields (Fig. 3).
- Surface-temperature estimates for the prototype experiments (Fig. 1/2).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.hmc.config import HMC_2_0, HmcConfig
from repro.obs.tracer import get_tracer
from repro.thermal.cooling import COMMODITY_SERVER, CoolingSolution
from repro.thermal.operators import CONTROL_DT_S, get_operators, get_propagator
from repro.thermal.propagator import ReducedPropagator
from repro.thermal.power import PowerModel, TrafficPoint
from repro.thermal.rc_network import DEFAULT_INTERFACE_SCALE, RcNetwork
from repro.thermal.solver import TransientSolver
from repro.thermal.stack import StackSpec


class HmcThermalModel:
    """Compact thermal model of one HMC package under a cooling solution.

    The expensive operators (assembled RC network, steady LU, the step LU
    of the control quantum, power bases and reduced propagators) come from
    the process-level cache in :mod:`repro.thermal.operators`, so the
    dozens of models a sweep constructs share one assembly and
    factorization per package/cooling combination. Transient state is
    per-instance; it advances by :data:`~repro.thermal.operators.CONTROL_DT_S`
    per step.
    """

    def __init__(
        self,
        config: HmcConfig = HMC_2_0,
        cooling: CoolingSolution = COMMODITY_SERVER,
        ambient_c: float = 25.0,
        sub: int = 2,
        power_model: Optional[PowerModel] = None,
        interface_scale: float = DEFAULT_INTERFACE_SCALE,
    ) -> None:
        self.config = config
        self.cooling = cooling
        self.ambient_c = ambient_c
        self.power = power_model or PowerModel(config)
        ops = get_operators(
            config, cooling, sub=sub,
            interface_scale=interface_scale, ambient_c=ambient_c,
        )
        self._ops = ops
        self.stack: StackSpec = ops.stack
        self.floorplan = ops.floorplan
        self.network: RcNetwork = ops.network
        self._dram_index = ops.dram_index
        self._steady = ops.steady
        self._transient = TransientSolver(
            self.network, CONTROL_DT_S, ambient_c=ambient_c, lu=ops.step_lu
        )
        self._basis_vecs: Optional[Tuple[np.ndarray, ...]] = None
        self._last_T: Optional[np.ndarray] = None

    # -- power plumbing ---------------------------------------------------------

    def _basis(self) -> Tuple[np.ndarray, ...]:
        """Cached linear power basis for uniform vault weights.

        Node power is linear in (external GB/s, internal GB/s, PIM rate):
        ``P = Plogic0 + s·Pdram0 + ext·Vext + s·int·Vint + s·pim·Vpim``
        where ``s`` is the hot-phase DRAM energy scale — the per-step
        power-map assembly reduces to a few AXPYs. The basis is a pure
        function of the power-model constants and the shared
        floorplan/network, so models over the same operators (sweep
        systems) reuse one assembly from the bundle's memo.
        """
        if self._basis_vecs is None:
            key = self._power_fingerprint()
            basis = self._ops.bases.get(key)
            if basis is None:
                basis = self._ops.bases[key] = self._build_basis()
            self._basis_vecs = basis
        return self._basis_vecs

    def _build_basis(self) -> Tuple[np.ndarray, ...]:
        """Assemble ``(p0_logic, p0_dram, v_ext, v_int, v_pim)``.

        The DRAM-affected components (static DRAM, internal traffic, PIM
        ops — the latter dominated by DRAM activation energy) carry the
        energy scale; logic static and SerDes switching do not.
        """

        def vec(pm: PowerModel, t: TrafficPoint) -> np.ndarray:
            maps = pm.layer_power_maps(self.floorplan, t)
            return self.network.power_vector(maps)

        pm = self.power
        pm_dram_only = PowerModel(
            pm.config,
            dram_energy_per_bit=pm.dram_energy_per_bit,
            logic_energy_per_bit=pm.logic_energy_per_bit,
            fu_energy_per_bit=pm.fu_energy_per_bit,
            static_logic_w=0.0,
            static_dram_total_w=pm.static_dram_total_w,
        )
        p0 = vec(pm, TrafficPoint.idle())
        p0_dram = vec(pm_dram_only, TrafficPoint.idle())
        p0_logic = p0 - p0_dram
        v_ext = vec(pm, TrafficPoint(external_gbs=1.0)) - p0
        v_int = vec(pm, TrafficPoint(internal_dram_gbs=1.0)) - p0
        v_pim = vec(pm, TrafficPoint(pim_rate_ops_ns=1.0)) - p0
        return (p0_logic, p0_dram, v_ext, v_int, v_pim)

    def _power_vector(
        self,
        traffic: TrafficPoint,
        vault_weights: Optional[np.ndarray] = None,
        dram_energy_scale: float = 1.0,
    ) -> np.ndarray:
        if dram_energy_scale < 0:
            raise ValueError(f"negative energy scale: {dram_energy_scale}")
        if vault_weights is None:
            p0_logic, p0_dram, v_ext, v_int, v_pim = self._basis()
            s = dram_energy_scale
            return (
                p0_logic
                + s * p0_dram
                + traffic.external_gbs * v_ext
                + s * traffic.internal_dram_gbs * v_int
                + s * traffic.pim_rate_ops_ns * v_pim
            )
        if dram_energy_scale != 1.0:
            raise NotImplementedError(
                "hot-phase energy scaling requires uniform vault weights"
            )
        maps = self.power.layer_power_maps(self.floorplan, traffic, vault_weights)
        return self.network.power_vector(maps)

    # -- steady-state queries --------------------------------------------------

    def steady_state(
        self, traffic: TrafficPoint, vault_weights: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Full steady node-temperature vector for an operating point."""
        with get_tracer().span(
            "thermal.steady_solve", cat="thermal",
            nodes=self.network.num_nodes,
        ):
            T = self._steady.solve(self._power_vector(traffic, vault_weights))
        self._last_T = T
        return T

    def _peak_dram(self, T: np.ndarray) -> float:
        """Peak DRAM-die temperature of a node state: one gather and max
        over the bundle's DRAM node index."""
        return float(T[self._dram_index].max())

    def steady_peak_dram_c(
        self, traffic: TrafficPoint, vault_weights: Optional[np.ndarray] = None
    ) -> float:
        """Peak DRAM-die temperature at steady state (Fig. 4/5 metric)."""
        return self._peak_dram(self.steady_state(traffic, vault_weights))

    def steady_surface_c(self, traffic: TrafficPoint) -> float:
        """Package-surface (spreader-top) temperature — what a thermal
        camera sees in the prototype experiments (Fig. 1/2)."""
        T = self.steady_state(traffic)
        net = self.network
        surf = net.layer_temps(T, net.layer_index["spreader"])
        return float(surf.max())

    def junction_from_surface_c(self, surface_c: float, power_w: float) -> float:
        """Estimate die temperature from a surface measurement using a
        typical surface-to-junction resistance (Sec. III-A: 5–10 °C hotter
        at ~20 W — i.e. ~0.35 °C/W)."""
        return surface_c + 0.35 * power_w

    # -- transient interface -----------------------------------------------------

    @property
    def state(self) -> np.ndarray:
        return self._transient.T

    # -- scenario injection ------------------------------------------------------

    def set_ambient_offset(self, delta_c: float) -> None:
        """Shift the boundary (case/ambient) temperature by ``delta_c``.

        Scenario injection uses this for both ambient excursions and
        heat-sink degradation: a degraded sink raises the effective
        case-to-ambient resistance, which to first order (lumped, fixed
        reference power ``P_ref``) is an additive boundary-temperature
        penalty ``ΔT = ΔR_sink · P_ref``. The offset only enters the
        transient forcing term (``B · ambient``) — the conductance
        network, operator caches, and reduced propagators are untouched,
        so the macro fast path stays valid; with ``delta_c == 0`` the
        forcing is bit-identical to the unperturbed model. Steady-state
        helpers (warm start, shutdown recovery) keep the nominal ambient
        in both engines.
        """
        self._transient.ambient_c = self.ambient_c + delta_c

    @property
    def effective_ambient_c(self) -> float:
        """Boundary temperature currently driving the transient solver."""
        return self._transient.ambient_c

    def warm_start(self, traffic: TrafficPoint) -> None:
        """Initialize the transient state at the steady point of ``traffic``."""
        self._transient.set_state(self.steady_state(traffic))

    def step(self, traffic: TrafficPoint, dram_energy_scale: float = 1.0) -> float:
        """Advance the transient by one control quantum; returns peak DRAM
        temp (°C).

        ``dram_energy_scale`` applies the hot-phase energy penalty
        (doubled refresh + leakage above 85 °C, see
        :meth:`repro.hmc.dram_timing.TemperaturePhasePolicy.dram_energy_scale`).
        """
        P = self._power_vector(traffic, dram_energy_scale=dram_energy_scale)
        T = self._transient.step(P)
        self._last_T = T
        return self._peak_dram(T)

    def peak_dram_c(self) -> float:
        """Peak DRAM temperature of the current transient state."""
        return self._peak_dram(self._transient.T)

    def set_transient_state(self, T: np.ndarray) -> None:
        """Install a node-temperature state (macro-engine burst commit)."""
        self._transient.set_state(T)
        self._last_T = self._transient.T

    # -- reduced propagation -----------------------------------------------------

    def _power_fingerprint(self) -> tuple:
        """Every :class:`PowerModel` input of :meth:`_basis` — the key of
        the shared power-basis memo and of the propagators built on it.
        ``config`` is in it because the power maps read its vault and
        DRAM-die counts."""
        pm = self.power
        return (
            pm.config,
            pm.dram_energy_per_bit, pm.logic_energy_per_bit,
            pm.fu_energy_per_bit, pm.static_logic_w, pm.static_dram_total_w,
        )

    def propagator(self) -> ReducedPropagator:
        """Reduced K-step propagator of the control quantum (see
        :mod:`repro.thermal.propagator`), shared through the operator
        bundle.

        Forcing-basis columns are ordered ``(p0_logic, p0_dram, v_ext,
        v_int, v_pim, B)``, so a step's coefficient vector under energy
        scale ``s`` and ambient ``T_amb`` is
        ``(1, s, ext_gbs, s·int_gbs, s·pim_rate, T_amb)`` — matching
        :meth:`_power_vector` plus the boundary term.
        """
        inputs = np.column_stack([*self._basis(), self.network.B])
        return get_propagator(self._ops, inputs, self._power_fingerprint())

    # -- maps ---------------------------------------------------------------------

    def heatmap(self, layer_name: str) -> np.ndarray:
        """(ny, nx) temperature field of a layer from the last solve."""
        if self._last_T is None:
            raise RuntimeError("no solve has been performed yet")
        net = self.network
        if layer_name not in net.layer_index:
            raise KeyError(
                f"unknown layer {layer_name!r}; have {sorted(net.layer_index)}"
            )
        return net.layer_temps(self._last_T, net.layer_index[layer_name]).copy()

    def all_heatmaps(self) -> Dict[str, np.ndarray]:
        return {name: self.heatmap(name) for name in self.network.layer_index}
