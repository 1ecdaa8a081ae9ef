"""Steady-state and transient solvers for the RC thermal network.

Steady state solves ``G·T = P + B·T_amb`` with a sparse factorization.
Transients use implicit (backward) Euler, unconditionally stable for this
stiff system:

    (C/dt + G) T_{n+1} = (C/dt) T_n + P + B·T_amb

Both matrices, ``G`` and ``C/dt + G``, are exactly symmetric and
diagonally dominant; both are factorized with SuperLU's symmetric path
(:data:`SPLU_OPTIONS`). A :class:`TransientSolver` has one step size, so
it needs one step LU; solvers over the same package share the operator
bundle's (see :mod:`repro.thermal.operators`). The steady solver keeps
its last few solutions, so every run's warm start from the same operating
point costs one solve per solver.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from types import MappingProxyType
from typing import Callable, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.obs.tracer import get_tracer
from repro.thermal.rc_network import RcNetwork

#: SuperLU options of every thermal factorization: a minimum-degree
#: ordering on ``A^T + A`` with diagonal pivots, which is exact for the
#: symmetric, diagonally dominant thermal matrices. On the HMC 2.0
#: ``sub=2`` network (2,432 nodes) it roughly halves the L+U fill of
#: SuperLU's default COLAMD ordering (424,936 -> 227,292 nonzeros) and the
#: time of each triangular solve with it.
SPLU_OPTIONS = MappingProxyType({
    "permc_spec": "MMD_AT_PLUS_A",
    "diag_pivot_thresh": 0.0,
    "options": MappingProxyType({"SymmetricMode": True}),
})

#: Steady solutions a :class:`SteadySolver` keeps, least recently used
#: evicted first (~20 KB each on the HMC 2.0 network).
STEADY_MEMO_ENTRIES = 8


def factorize_step(network: RcNetwork, dt_s: float) -> spla.SuperLU:
    """SuperLU factorization of the implicit-Euler step matrix ``C/dt + G``."""
    with get_tracer().span(
        "thermal.lu_factorize", cat="thermal", dt_s=dt_s, nodes=network.num_nodes
    ):
        A = sp.csc_matrix(sp.diags(network.C / dt_s) + network.G)
        return spla.splu(A, **SPLU_OPTIONS)


class SteadySolver:
    """Cached-factorization steady-state solver.

    Immutable after construction (the LU depends only on ``G``, the
    forcing only on ``B`` and ``ambient_c``), so one instance can be
    shared by any number of thermal models over the same network, and a
    solution depends only on ``P``: :meth:`solve` memoizes its last
    :data:`STEADY_MEMO_ENTRIES` results under the exact bytes of ``P``.
    """

    def __init__(self, network: RcNetwork, ambient_c: float = 25.0) -> None:
        self.network = network
        self.ambient_c = ambient_c
        self._lu = spla.splu(sp.csc_matrix(network.G), **SPLU_OPTIONS)
        self._memo: "OrderedDict[Tuple[str, bytes], np.ndarray]" = OrderedDict()
        self._memo_lock = threading.Lock()

    def solve(self, P: np.ndarray) -> np.ndarray:
        """Steady temperatures (°C) for node power vector ``P`` (W).

        The returned array is read-only: it may be shared with every
        other caller that solves the same ``P``.
        """
        net = self.network
        if P.shape != (net.num_nodes,):
            raise ValueError(f"P has shape {P.shape}, expected ({net.num_nodes},)")
        key = (P.dtype.str, P.tobytes())
        with self._memo_lock:
            T = self._memo.get(key)
            if T is not None:
                self._memo.move_to_end(key)
                return T
        T = self._lu.solve(P + net.B * self.ambient_c)
        T.setflags(write=False)
        with self._memo_lock:
            self._memo[key] = T
            while len(self._memo) > STEADY_MEMO_ENTRIES:
                self._memo.popitem(last=False)
        return T


class TransientSolver:
    """Implicit-Euler integrator with one fixed step size.

    The step LU is built on the first :meth:`step`, unless ``lu`` supplies
    it: a zero-argument callable returning a factorization of ``C/dt + G``
    for this network and ``dt_s`` (the operator bundle's shared, lazily
    built LU). The solver's own state (``T``) is never shared.
    """

    def __init__(
        self,
        network: RcNetwork,
        dt_s: float,
        ambient_c: float = 25.0,
        initial_c: Optional[float] = None,
        lu: Optional[Callable[[], spla.SuperLU]] = None,
    ) -> None:
        if dt_s <= 0:
            raise ValueError(f"dt must be positive: {dt_s}")
        self.network = network
        self.dt_s = dt_s
        self.ambient_c = ambient_c
        self.T = np.full(network.num_nodes, ambient_c if initial_c is None else initial_c)
        self._lu_source = lu or (lambda: factorize_step(network, dt_s))
        self._lu: Optional[spla.SuperLU] = None

    def set_state(self, T: np.ndarray) -> None:
        if T.shape != self.T.shape:
            raise ValueError(f"T has shape {T.shape}, expected {self.T.shape}")
        self.T = T.copy()

    def step(self, P: np.ndarray) -> np.ndarray:
        """Advance one implicit-Euler step of ``dt_s`` seconds."""
        net = self.network
        if P.shape != (net.num_nodes,):
            raise ValueError(f"P has shape {P.shape}, expected ({net.num_nodes},)")
        lu = self._lu
        if lu is None:
            lu = self._lu = self._lu_source()
        rhs = net.C / self.dt_s * self.T + P + net.B * self.ambient_c
        self.T = lu.solve(rhs)
        return self.T
