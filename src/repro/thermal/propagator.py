"""Reduced-order K-step propagator for the implicit-Euler thermal step.

The co-simulation's hot path applies one cached step operator per 25 µs
control quantum:

    T_{k+1} = A⁻¹ (D T_k + P_k + B·T_amb),   A = C/dt + G,  D = diag(C/dt)

with ``P_k`` drawn from a six-vector power basis (logic static, DRAM
static, external-, internal-, PIM-traffic responses, ambient boundary).
Each application costs a full sparse triangular solve — the dominant term
of the scalar loop. This module collapses K such steps into dense
arithmetic in a small invariant subspace:

- Symmetrize: with ``x = D^{1/2} T`` the step becomes ``x' = S x + c``
  where ``S = D^{1/2} A⁻¹ D^{1/2}`` is symmetric positive definite with
  spectrum in (0, 1) (``G`` is symmetric, ``C > 0``).
- Build an orthonormal basis ``W`` from block-Krylov chains of the six
  forcing images ``D^{1/2} A⁻¹ v_i`` (batched multi-RHS LU solves), and
  eigendecompose the reduced operator ``S_r = WᵀSW = V Λ Vᵀ``.
- A K-step trajectory then costs one (r×K) diagonal recurrence plus one
  dense GEMM to read out per-step peak DRAM temperatures — microseconds
  per quantum instead of a ~0.3 ms solve (2,432-node network, one BLAS
  thread on a 2-vCPU Xeon).

States outside the span (a warm-start steady point after a shutdown,
altered power constants) are detected by the projection residual and
healed by extending the basis with the state's own Krylov chain;
callers see ``project`` fail closed, never a silently wrong trajectory.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.obs.tracer import get_tracer
from repro.thermal.rc_network import RcNetwork

#: Default projection-residual tolerance (°C, inf-norm) above which a
#: state is considered outside the basis and triggers an extension.
DEFAULT_PROJECT_TOL_C = 1e-7

#: Default cap on the reduced rank; extensions beyond it mark the
#: propagator unhealthy so callers fall back to exact stepping.
DEFAULT_MAX_RANK = 480

#: Krylov blocks grown from the forcing seeds at build time (rank is at
#: most ``CHAIN_DEPTH × (n_inputs + 1)``). Chosen by the depth study in
#: docs/ARCHITECTURE.md: the smallest depth with no basis extension on
#: the benchmark workloads, unchanged benchmark digests, and a
#: macro − stepped deviation on the same rounding floor as deeper chains.
CHAIN_DEPTH = 12

#: Krylov chain length grown from an out-of-span state per extension.
#: Measured on skewed-vault steady states and rough perturbations at
#: ``CHAIN_DEPTH`` 12: marches of up to 2,000 quanta from the absorbed
#: state stay within 4e-7 °C of exact stepping (a 16-step chain: up to
#: 1e-3 °C).
EXTEND_DEPTH = 32

#: Relative column-norm threshold below which a candidate Krylov
#: direction is considered numerically contained in the basis.
_DROP_TOL = 1e-10


class ReducedPropagator:
    """Shared reduced-order propagator for one (network, LU, dt) triple.

    The object is cheap to *use* concurrently from many simulator runs
    (projection/marching never mutate), while :meth:`project` may *extend*
    the basis in place — single-threaded per process, like the operator
    caches it lives beside.
    """

    def __init__(
        self,
        network: RcNetwork,
        lu,
        dt_s: float,
        inputs: np.ndarray,
        dram_index: np.ndarray,
    ) -> None:
        if inputs.ndim != 2 or inputs.shape[0] != network.num_nodes:
            raise ValueError(
                f"inputs must be (num_nodes, n_inputs), got {inputs.shape}"
            )
        self.network = network
        self.lu = lu
        self.dt_s = float(dt_s)
        self.project_tol_c = DEFAULT_PROJECT_TOL_C
        self.max_rank = DEFAULT_MAX_RANK
        self.healthy = True
        self.extensions = 0
        self._d = network.C / self.dt_s
        self._sd = np.sqrt(self._d)
        self._dram_index = np.asarray(dram_index, dtype=int)
        # Forcing images in x-space: c_i = D^{1/2} A⁻¹ v_i.
        self._forcing = self._sd[:, None] * lu.solve(np.ascontiguousarray(inputs))
        with get_tracer().span(
            "thermal.propagator_build", cat="thermal",
            nodes=network.num_nodes, n_inputs=inputs.shape[1],
        ) as span:
            seeds = np.column_stack([self._forcing, self._sd])
            empty = np.empty((network.num_nodes, 0))
            self._W, self._SW = self._grow_basis(empty, empty, seeds,
                                                 CHAIN_DEPTH)
            self._finalize()
            span.set(rank=self.rank)

    # -- construction ------------------------------------------------------

    @property
    def rank(self) -> int:
        return self._W.shape[1]

    def _apply_s(self, X: np.ndarray) -> np.ndarray:
        """S @ X via the cached LU (batched multi-RHS solve)."""
        return self._sd[:, None] * self.lu.solve(
            np.ascontiguousarray(self._sd[:, None] * X)
        )

    @staticmethod
    def _orthonormalize(W: np.ndarray, block: np.ndarray) -> np.ndarray:
        """New orthonormal directions of ``block`` against ``W`` (may be
        empty). Two rounds of classical Gram-Schmidt, then a QR with
        small-column dropping."""
        norms = np.linalg.norm(block, axis=0)
        keep = norms > 0
        if not keep.all():
            block = block[:, keep]
            norms = norms[keep]
        if block.shape[1] == 0:
            return block
        block = block / norms
        for _ in range(2):
            if W.shape[1]:
                block = block - W @ (W.T @ block)
        q, r = np.linalg.qr(block)
        mags = np.abs(np.diag(r))
        cols = mags > _DROP_TOL
        return q[:, cols]

    def _grow_basis(
        self, W: np.ndarray, SW: np.ndarray, seeds: np.ndarray, depth: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Block-Krylov growth: append chains S^k·seeds until directions
        converge, ``depth`` is reached, or the rank cap binds.

        Returns the grown ``(W, S·W)``. Each appended block's image is
        both its columns of ``S·W`` and the seed of the next block, so
        ``S·W`` is carried along rather than recomputed.
        """
        block = self._orthonormalize(W, seeds)
        parts: List[np.ndarray] = [W] if W.shape[1] else []
        images: List[np.ndarray] = [SW] if SW.shape[1] else []
        rank = W.shape[1]
        for _ in range(depth):
            if block.shape[1] == 0 or rank >= self.max_rank:
                break
            room = self.max_rank - rank
            block = block[:, :room]
            parts.append(block)
            images.append(self._apply_s(block))
            rank += block.shape[1]
            block = self._orthonormalize(np.column_stack(parts), images[-1])
        if not parts:
            return W, SW
        return np.column_stack(parts), np.column_stack(images)

    def _finalize(self) -> None:
        """Reduced operator, eigenbasis, and projected I/O maps."""
        W = self._W
        S_r = W.T @ self._SW
        S_r = 0.5 * (S_r + S_r.T)
        lam, V = np.linalg.eigh(S_r)
        self._lam = lam
        #: n×r map straight between node space and eigen-coordinates.
        self._WV = W @ V
        self._proj_in = self._WV.T @ self._forcing       # (r, n_inputs)
        out = self._WV[self._dram_index] / self._sd[self._dram_index, None]
        self._out = np.ascontiguousarray(out)            # (n_dram, r)
        #: Per-mode readout column norms — the Lipschitz constants bounding
        #: how much a unit of eigen-coordinate ``m`` can move any DRAM
        #: node's temperature. :class:`PeakReader` certifies its mode
        #: truncation against these.
        self._out_colnorms = np.linalg.norm(self._out, axis=0)

    def _extend(self, x: np.ndarray) -> None:
        """Self-heal: absorb an out-of-span state into the basis.

        The basis gains the Krylov chain of the state itself, so
        ``S^k x`` lies in it for ``k < EXTEND_DEPTH``. A chain seeded at
        the projection residual alone would not do: the basis is not
        S-invariant, so the image of the state's in-span part leaves it.
        """
        before = self.rank
        empty = np.empty((self._W.shape[0], 0))
        chain, _ = self._grow_basis(empty, empty, x[:, None], EXTEND_DEPTH)
        self._W, self._SW = self._grow_basis(self._W, self._SW, chain, 1)
        if self.rank == before:
            self.healthy = False
            return
        self.extensions += 1
        if self.rank >= self.max_rank:
            # The cap bound the chain short; marching could drift. Fail
            # closed — callers revert to exact stepping.
            self.healthy = False
        self._finalize()

    # -- runtime interface --------------------------------------------------

    def project(self, T: np.ndarray) -> Tuple[Optional[np.ndarray], float]:
        """Eigen-coordinates of a node-temperature state.

        Returns ``(z, residual_inf_c)``. If the state lies outside the
        basis beyond ``project_tol_c`` the basis is extended (bounded by
        ``max_rank``) and the projection retried; an unhealable state
        returns ``(None, residual)`` so the caller falls back to exact
        stepping rather than marching a wrong trajectory.
        """
        x = self._sd * T
        for _ in range(2):
            z = self._WV.T @ x
            resid_x = x - self._WV @ z
            resid_c = float(np.abs(resid_x / self._sd).max())
            if resid_c <= self.project_tol_c:
                return z, resid_c
            if not self.healthy:
                break
            self._extend(x)
        return None, resid_c

    def reconstruct(self, z: np.ndarray) -> np.ndarray:
        """Node-temperature state from eigen-coordinates."""
        return (self._WV @ z) / self._sd

    def march(self, z0: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """Advance K quanta; returns the (r, K) post-step trajectory,
        C-contiguous.

        ``coeffs`` is (n_inputs, K): column k holds the power-basis
        weights of quantum k, so the forcing term is ``proj_in @ coeffs``
        and each step is a diagonal update ``z ← Λz + h_k``. The steps
        are written in place as contiguous rows of a (K, r) buffer. The
        result is a contiguous copy of its transpose, not a view: the
        peak readout's GEMM rounds differently on a transposed operand.
        """
        H = np.ascontiguousarray((self._proj_in @ coeffs).T)
        Zt = np.empty((H.shape[0], self._lam.size))
        z = z0
        lam = self._lam
        for k in range(H.shape[0]):
            row = Zt[k]
            np.multiply(lam, z, out=row)
            np.add(row, H[k], out=row)
            z = row
        return np.ascontiguousarray(Zt.T)

    def dram_peaks(self, Z: np.ndarray) -> np.ndarray:
        """Per-step peak DRAM temperature (°C) of a marched trajectory.

        The plain full readout. Hot-path callers that issue many readouts
        per run (the macro engine) should hold a
        :class:`PeakReader` instead — same values for the same call
        sequence, at a fraction of the flops.
        """
        return (self._out @ Z).max(axis=0)

    def peak_reader(self) -> "PeakReader":
        """A fresh per-run certified peak readout over this basis."""
        return PeakReader(self)

    def dram_peak_of(self, z: np.ndarray) -> float:
        """Peak DRAM temperature of a single eigen-coordinate state."""
        return float((self._out @ z).max())




class PeakReader:
    """Per-run certified truncated-mode peak readout over a shared basis.

    The macro engine's dominant GEMM is the per-burst peak readout
    ``(out @ Z).max(axis=0)`` — ``(n_dram, r) @ (r, K)`` with
    ``n_dram ≈ 1024`` rows of which only the hottest plateau of nodes can
    ever win the max, and ``r = 48`` eigenmodes (at ``CHAIN_DEPTH``) of
    which only a few dozen carry any readout weight along a real
    trajectory. The reader
    exploits both axes, with every shortcut *certified* so the returned
    floats are exact row readouts, never approximations:

    - **Mode truncation.** ``Z`` is already in the eigenbasis, so the
      readout splits by mode: ``T_i(k) = out[i, S]·Z[S, k] + e_ik`` with
      ``|e_ik| ≤ Σ_{m∉S} ‖out[:, m]‖·|Z[m, k]|`` — a cheap abs-GEMV
      against precomputed column norms. The kept set ``S`` grows
      deterministically whenever the tail bound exceeds the budget.
    - **Row dominance.** Over a bounding box of the truncated
      coordinates seen so far, each row's deficit against a reference
      hot row is bounded above by interval arithmetic
      (``D·mid + |D|·halfwidth``). Rows that cannot close the deficit
      anywhere in the box are excluded once, not re-tested per call; a
      call whose coordinates stay inside the box pays only the subset
      readout. Box misses re-center and re-pad the box — warm-started
      runs typically rebuild once.
    - The surviving candidate rows are read out **exactly** (full-rank
      subset GEMM) and their max returned.

    The candidate max equals the full-readout max *as a real number* —
    the bounds are exact — but a row-subset GEMM is not bitwise equal to
    the same rows of a full GEMM, and the mode-set/box state depends on
    the run's burst history. Both are why the reader is per-run: a run
    replaying the same burst sequence through its own reader sees the
    identical mode sets, boxes, candidate sets, and output floats, call
    for call. Selection error is covered by the certified bounds plus
    ``SLACK_C`` of float headroom, far below the 1e-6 °C decision
    margins.
    """

    #: Certification budget (°C): worst-case readout error of the
    #: truncated-mode approximation before candidate slack is applied.
    #: Loose on purpose — it widens the candidate set, never the result:
    #: rows within the budget of the apex are read out exactly anyway.
    TOL_C = 2e-3
    #: Float headroom (°C) on the exclusion threshold, absorbing rounding
    #: of the interval-arithmetic deficit bounds themselves.
    SLACK_C = 1e-6
    #: Modes kept initially and added per tail-bound miss.
    MODES_INIT = 32
    MODES_GROW = 16
    #: Mode-set ceiling; beyond it the reader falls back to full
    #: readouts for the rest of the run.
    MAX_MODES = 128
    #: Box padding: span-relative, magnitude-relative, and absolute —
    #: sized so a warm-started run's drift stays inside one box.
    PAD_SPAN = 0.5
    PAD_REL = 0.1
    PAD_ABS = 0.2

    def __init__(self, prop: ReducedPropagator) -> None:
        self._prop = prop
        self._S: Optional[np.ndarray] = None      # kept modes, sorted
        self._rest: Optional[np.ndarray] = None   # dropped modes
        self._w_rest: Optional[np.ndarray] = None  # their column norms
        self._BS: Optional[np.ndarray] = None     # out[:, S], contiguous
        self._lo: Optional[np.ndarray] = None     # coordinate box, (q,)
        self._hi: Optional[np.ndarray] = None
        self._cand: Optional[np.ndarray] = None   # surviving row indices
        self._Osub: Optional[np.ndarray] = None   # out[cand], contiguous
        self.dead = False
        self.full_readouts = 0
        self.pruned_readouts = 0
        self.rebuilds = 0

    def _set_modes(self, S: np.ndarray) -> None:
        prop = self._prop
        self._S = np.sort(S)
        self._rest = np.setdiff1d(
            np.arange(prop.rank, dtype=np.intp), self._S
        )
        self._w_rest = np.ascontiguousarray(prop._out_colnorms[self._rest])
        self._BS = np.ascontiguousarray(prop._out[:, self._S])
        # New coordinates invalidate the box and the dominance bounds.
        self._lo = None
        self._hi = None
        self._cand = None
        if self._S.size > self.MAX_MODES:
            self.dead = True

    def _grow_modes(self, Z: np.ndarray, room: int) -> None:
        """Deterministically absorb the strongest dropped modes."""
        contrib = self._prop._out_colnorms * np.abs(Z).max(axis=1)
        if self._S is not None:
            contrib[self._S] = -1.0
        take = np.argsort(contrib, kind="stable")[-room:]
        S = take if self._S is None else np.concatenate([self._S, take])
        self._set_modes(S)

    def _rebuild_box(self, cmin: np.ndarray, cmax: np.ndarray) -> None:
        """Re-center the box on the current call and re-derive candidates.

        For each row the deficit against a reference hot row is bounded
        above over the whole box by interval arithmetic: with
        ``D = BS − BS[jref]``, ``max_c D·c = D·mid + |D|·halfwidth``.
        Any row whose bound sits below ``−(2·TOL_C + SLACK_C)`` cannot
        reach the apex anywhere in the box (both rows carry ≤ TOL_C of
        truncation error) and is excluded until the box or mode set
        changes.
        """
        pad = (
            self.PAD_SPAN * (cmax - cmin)
            + self.PAD_REL * np.abs(0.5 * (cmin + cmax))
            + self.PAD_ABS
        )
        self._lo = cmin - pad
        self._hi = cmax + pad
        mid = 0.5 * (self._lo + self._hi)
        half = 0.5 * (self._hi - self._lo)
        BS = self._BS
        jref = int((BS @ mid).argmax())
        D = BS - BS[jref]
        ub = D @ mid + np.abs(D) @ half
        cand = np.nonzero(ub > -(2.0 * self.TOL_C + self.SLACK_C))[0]
        n = BS.shape[0]
        if cand.size * 2 > n:
            # Near-degenerate regime (e.g. a cold uniform state): the
            # subset would not pay for itself — serve this box with full
            # readouts instead of materializing most of ``out``.
            self._cand = None
            self._Osub = None
        else:
            self._cand = cand
            self._Osub = np.ascontiguousarray(self._prop._out[cand])
        self.rebuilds += 1

    def peaks(self, Z: np.ndarray) -> np.ndarray:
        """Per-step peak DRAM °C; same values as the run's full readouts.

        Deterministic given the sequence of trajectories this reader has
        served.
        """
        prop = self._prop
        out = prop._out
        if self.dead or Z.shape[1] == 0 or out.shape[0] <= 8:
            self.full_readouts += 1
            return (out @ Z).max(axis=0)
        for attempt in range(2):
            if self._S is None:
                self._grow_modes(Z, self.MODES_INIT)
            tail = self._w_rest @ np.abs(Z[self._rest])
            if float(tail.max(initial=0.0)) > self.TOL_C:
                if attempt == 0 and not self.dead:
                    self._grow_modes(Z, self.MODES_GROW)
                    continue
                break
            C = Z[self._S]
            cmin = C.min(axis=1)
            cmax = C.max(axis=1)
            if (
                self._lo is None
                or (cmin < self._lo).any()
                or (cmax > self._hi).any()
            ):
                self._rebuild_box(cmin, cmax)
            if self._Osub is None:
                break
            self.pruned_readouts += 1
            return (self._Osub @ Z).max(axis=0)
        self.full_readouts += 1
        return (out @ Z).max(axis=0)
