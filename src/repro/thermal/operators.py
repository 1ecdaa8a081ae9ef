"""Process-level shared thermal operators.

A parameter sweep (``repro batch``, the evaluation matrix, sensitivity
studies) constructs dozens of :class:`~repro.thermal.model.HmcThermalModel`
instances whose expensive pieces — the assembled RC network and the sparse
LU factorizations — depend only on ``(config, cooling, sub,
interface_scale, ambient, board_resistance)``. This module memoizes those
pieces per process so every model over the same physical package reuses
one assembly, one steady-state factorization, and one step factorization
for the control quantum :data:`CONTROL_DT_S`, the only step size of the
thermal transient.

Sharing is safe because all shared state is immutable after construction:
the network matrices are never mutated, :class:`SteadySolver` is stateless
after its LU, and the step LU, power bases and propagators are only ever
*added*. Mutable integration state (``TransientSolver.T``) stays per-model.

Each process fills its cache on first use; a pool worker forked from a
parent that already holds operators (see :func:`prewarm`) inherits
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse.linalg as spla

from repro.hmc.config import HmcConfig
from repro.obs.tracer import get_tracer
from repro.thermal.cooling import CoolingSolution
from repro.thermal.floorplan import Floorplan
from repro.thermal.rc_network import (
    BOARD_RESISTANCE_C_W,
    DEFAULT_INTERFACE_SCALE,
    RcNetwork,
    build_network,
)
from repro.thermal.propagator import ReducedPropagator
from repro.thermal.solver import SteadySolver, factorize_step
from repro.thermal.stack import StackSpec, build_stack

#: Control quantum (s) of the co-simulator
#: (:class:`~repro.gpu.simulator.SystemSimulator`, both engines) and the
#: step size of every thermal transient: one step LU per bundle serves
#: every run.
CONTROL_DT_S = 25e-6

#: (config, cooling, sub, interface_scale, ambient, board_resistance).
#: The SuperLU options are not in it: they are one module constant,
#: :data:`repro.thermal.solver.SPLU_OPTIONS`, the same for every bundle.
OperatorKey = Tuple[HmcConfig, CoolingSolution, int, float, float, float]


@dataclass
class ThermalOperators:
    """Operator bundle for one package.

    Immutable after construction except for the additive caches: the step
    LU (built once, on first transient use, so steady-only bundles never
    pay for it), the power bases and the reduced propagators only ever
    gain entries (and a propagator only ever *extends* its basis).
    """

    stack: StackSpec
    floorplan: Floorplan
    network: RcNetwork
    steady: SteadySolver
    #: Node indices of every DRAM layer, layers in name order: the
    #: thermal models' peak-DRAM readout and the propagators' output rows.
    dram_index: np.ndarray
    #: Power bases keyed by power fingerprint (see
    #: ``HmcThermalModel._basis``).
    bases: Dict[Tuple, Tuple[np.ndarray, ...]] = field(default_factory=dict)
    #: Reduced K-step propagators keyed by power fingerprint — see
    #: :func:`get_propagator`. Ambient is not in the key: it is part of
    #: the bundle's own key, and enters a march only as a forcing
    #: coefficient.
    propagators: Dict[Tuple, ReducedPropagator] = field(default_factory=dict)
    _step_lu: Optional[spla.SuperLU] = field(default=None, repr=False)

    def step_lu(self) -> spla.SuperLU:
        """The implicit-Euler factorization for :data:`CONTROL_DT_S`."""
        if self._step_lu is None:
            self._step_lu = factorize_step(self.network, CONTROL_DT_S)
        return self._step_lu


def get_propagator(
    ops: ThermalOperators,
    inputs: np.ndarray,
    fingerprint: Tuple,
) -> ReducedPropagator:
    """Memoized :class:`ReducedPropagator` of the control quantum for one
    (bundle, basis).

    ``inputs`` are the forcing basis columns (the thermal model's power
    basis plus the ambient boundary vector); ``fingerprint`` must identify
    their provenance (every power-model input, see
    ``HmcThermalModel._power_fingerprint``) so models with altered
    calibration don't share a basis built for different vectors.
    """
    prop = ops.propagators.get(fingerprint)
    if prop is None:
        prop = ReducedPropagator(
            ops.network, ops.step_lu(), CONTROL_DT_S, inputs, ops.dram_index
        )
        ops.propagators[fingerprint] = prop
    return prop


_CACHE: Dict[OperatorKey, ThermalOperators] = {}
_HITS = 0
_MISSES = 0


def get_operators(
    config: HmcConfig,
    cooling: CoolingSolution,
    sub: int = 2,
    interface_scale: float = DEFAULT_INTERFACE_SCALE,
    ambient_c: float = 25.0,
    board_resistance_c_w: float = BOARD_RESISTANCE_C_W,
) -> ThermalOperators:
    """Memoized network + solver operators for one package/cooling combo."""
    global _HITS, _MISSES
    key: OperatorKey = (
        config,
        cooling,
        int(sub),
        float(interface_scale),
        float(ambient_c),
        float(board_resistance_c_w),
    )
    ops = _CACHE.get(key)
    if ops is not None:
        _HITS += 1
        return ops
    _MISSES += 1
    with get_tracer().span(
        "thermal.operators_build", cat="thermal",
        cooling=cooling.name, sub=int(sub),
    ):
        stack = build_stack(config)
        floorplan = Floorplan.for_config(config, sub=sub)
        network = build_network(
            stack,
            floorplan,
            sink_resistance_c_w=cooling.thermal_resistance_c_w,
            interface_scale=interface_scale,
            board_resistance_c_w=board_resistance_c_w,
        )
        ops = ThermalOperators(
            stack=stack,
            floorplan=floorplan,
            network=network,
            steady=SteadySolver(network, ambient_c=ambient_c),
            dram_index=np.concatenate([
                np.arange(network.num_nodes)[network.layer_slice(idx)]
                for name, idx in sorted(network.layer_index.items())
                if name.startswith("dram")
            ]),
        )
    _CACHE[key] = ops
    return ops


def prewarm(config: HmcConfig, cooling: CoolingSolution, **kwargs) -> ThermalOperators:
    """Build operators ahead of use, including the control-quantum step LU
    (what a first transient run would otherwise build on demand)."""
    ops = get_operators(config, cooling, **kwargs)
    ops.step_lu()
    return ops


def cache_stats() -> Dict[str, int]:
    """Process-level cache counters (diagnostics and tests).

    ``step_lus`` counts the bundles whose step LU has been factorized, so
    a metrics snapshot shows both operator reuse (one assembly per
    package) and step-factorization reuse (at most one LU per package).
    """
    return {
        "entries": len(_CACHE),
        "hits": _HITS,
        "misses": _MISSES,
        "step_lus": sum(ops._step_lu is not None for ops in _CACHE.values()),
        "propagators": sum(len(ops.propagators) for ops in _CACHE.values()),
        "propagator_extensions": sum(
            p.extensions for ops in _CACHE.values()
            for p in ops.propagators.values()
        ),
    }


def clear_cache() -> None:
    """Drop all shared operators (tests and long-lived tooling)."""
    global _HITS, _MISSES
    _CACHE.clear()
    _HITS = 0
    _MISSES = 0
