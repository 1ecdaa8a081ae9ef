"""Steady-state and transient solvers for the RC thermal network.

Steady state solves ``G·T = P + B·T_amb`` with a sparse factorization.
Transients use implicit (backward) Euler, unconditionally stable for this
stiff system:

    (C/dt + G) T_{n+1} = (C/dt) T_n + P + B·T_amb

Step factorizations are cached per ``dt`` in a bounded, quantized-key
:class:`StepLuCache`, so fixed-step co-simulation pays one LU per run and
adaptive stepping cannot leak a factorization per distinct float ``dt``.
The cache object can be shared between solvers over the same network
(see :mod:`repro.thermal.operators`). The steady solver keeps its last
few solutions, so every run's warm start from the same operating point
costs one solve per solver.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.obs.tracer import get_tracer
from repro.thermal.rc_network import RcNetwork

#: Default bound on cached step factorizations per solver/cache.
DEFAULT_MAX_STEP_LUS = 8

#: Steady solutions a :class:`SteadySolver` keeps, least recently used
#: evicted first (~20 KB each on the HMC 2.0 network).
STEADY_MEMO_ENTRIES = 8

#: Significant digits kept when keying LUs by dt: steps closer than one
#: part in 1e9 share a factorization (far below any physical difference).
_DT_KEY_DIGITS = 9


def _dt_key(dt_s: float) -> float:
    """Quantize ``dt`` to a cache key with bounded relative precision."""
    return float(f"{dt_s:.{_DT_KEY_DIGITS}g}")


class StepLuCache:
    """Bounded LRU cache of implicit-Euler step factorizations.

    Keys are :func:`_dt_key`-quantized step sizes; values are SuperLU
    factorizations of ``C/dt + G``. Bounded so adaptive-stepping callers
    that sweep many distinct ``dt`` values recycle the oldest entries
    instead of leaking a full factorization each.
    """

    def __init__(self, network: RcNetwork, max_entries: int = DEFAULT_MAX_STEP_LUS):
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive: {max_entries}")
        self.network = network
        self.max_entries = max_entries
        self._lus: "OrderedDict[float, spla.SuperLU]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._lus)

    def get(self, dt_s: float) -> spla.SuperLU:
        key = _dt_key(dt_s)
        lu = self._lus.get(key)
        if lu is not None:
            self.hits += 1
            self._lus.move_to_end(key)
            return lu
        self.misses += 1
        net = self.network
        with get_tracer().span(
            "thermal.lu_factorize", cat="thermal", dt_s=key, nodes=net.num_nodes
        ):
            A = sp.csc_matrix(sp.diags(net.C / key) + net.G)
            lu = spla.splu(A)
        self._lus[key] = lu
        while len(self._lus) > self.max_entries:
            self._lus.popitem(last=False)
        return lu


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
        self._lu = spla.splu(sp.csc_matrix(network.G))
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
    """Implicit-Euler transient integrator with a bounded per-dt LU cache.

    ``lu_cache`` may be a shared :class:`StepLuCache` (must wrap the same
    network); the solver's own state (``T``) is never shared.
    """

    def __init__(
        self,
        network: RcNetwork,
        ambient_c: float = 25.0,
        initial_c: Optional[float] = None,
        lu_cache: Optional[StepLuCache] = None,
    ) -> None:
        if lu_cache is not None and lu_cache.network is not network:
            raise ValueError("shared lu_cache wraps a different network")
        self.network = network
        self.ambient_c = ambient_c
        self.T = np.full(network.num_nodes, ambient_c if initial_c is None else initial_c)
        self._lus = lu_cache if lu_cache is not None else StepLuCache(network)

    def set_state(self, T: np.ndarray) -> None:
        if T.shape != self.T.shape:
            raise ValueError(f"T has shape {T.shape}, expected {self.T.shape}")
        self.T = T.copy()

    def _lu_for(self, dt_s: float) -> spla.SuperLU:
        return self._lus.get(dt_s)

    def _check(self, P: np.ndarray, dt_s: float) -> None:
        if dt_s <= 0:
            raise ValueError(f"dt must be positive: {dt_s}")
        if P.shape != (self.network.num_nodes,):
            raise ValueError(
                f"P has shape {P.shape}, expected ({self.network.num_nodes},)"
            )

    def step(self, P: np.ndarray, dt_s: float) -> np.ndarray:
        """Advance one implicit-Euler step of ``dt_s`` seconds."""
        self._check(P, dt_s)
        net = self.network
        lu = self._lu_for(dt_s)
        rhs = net.C / dt_s * self.T + P + net.B * self.ambient_c
        self.T = lu.solve(rhs)
        return self.T

    def _integrate(
        self,
        P: np.ndarray,
        dt_s: float,
        max_steps: int,
        tol_c: Optional[float] = None,
    ) -> Tuple[np.ndarray, int]:
        """Shared constant-power integration loop.

        Validation, the LU lookup, ``C/dt`` and the T-independent RHS
        terms are hoisted out of the loop, so each step is one AXPY plus
        one triangular solve. Returns ``(T, steps_taken)``; with ``tol_c``
        set, stops early once the per-step update falls below it.
        """
        self._check(P, dt_s)
        net = self.network
        lu = self._lu_for(dt_s)
        c_over_dt = net.C / dt_s
        base_rhs = P + net.B * self.ambient_c
        T = self.T
        taken = 0
        with get_tracer().span(
            "thermal.integrate", cat="thermal", dt_s=dt_s, max_steps=max_steps
        ) as span:
            for _ in range(max_steps):
                T_next = lu.solve(c_over_dt * T + base_rhs)
                taken += 1
                converged = (
                    tol_c is not None and float(np.max(np.abs(T_next - T))) < tol_c
                )
                T = T_next
                if converged:
                    break
            span.set(steps=taken)
        self.T = T
        return T, taken

    def run(self, P: np.ndarray, duration_s: float, dt_s: float) -> np.ndarray:
        """Integrate a constant power vector for ``duration_s``."""
        steps = int(round(duration_s / dt_s))
        if steps <= 0:
            return self.T
        T, _ = self._integrate(P, dt_s, steps)
        return T

    def run_to_steady(
        self,
        P: np.ndarray,
        dt_s: float,
        tol_c: float = 1e-4,
        max_steps: int = 100_000,
    ) -> Tuple[np.ndarray, int]:
        """Integrate constant power until the transient settles.

        Steps until the largest per-step temperature change drops below
        ``tol_c`` (°C) or ``max_steps`` elapse; returns ``(T, steps)``.
        Feedback-loop experiments use this to reach a thermal operating
        point without paying per-step Python overhead or guessing a
        duration.
        """
        if tol_c <= 0:
            raise ValueError(f"tol_c must be positive: {tol_c}")
        return self._integrate(P, dt_s, max_steps, tol_c=tol_c)

    def dominant_time_constant_s(self) -> float:
        """Estimate of the slowest thermal time constant (diagnostic).

        Uses the ratio of total capacitance to total boundary conductance —
        an upper bound on the settling timescale of the package.
        """
        net = self.network
        return float(net.C.sum() / net.B.sum())
