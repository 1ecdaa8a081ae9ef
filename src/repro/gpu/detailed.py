"""Detailed co-simulation: the event-level cube as the protocol oracle.

The fluid simulator (:mod:`repro.gpu.simulator`) models traffic as rates;
this mode expands each epoch's post-cache traffic into *individual
transactions* against :class:`repro.hmc.cube.HmcCube` — real packets on
real links, real bank occupancy, functional PIM execution — submitted one
by one through :meth:`HmcCube.submit`. It checks the protocol and the
flow model's bulk runtime; the thermal model belongs to the fluid
engines alone.

Addresses are synthesized per epoch: streaming reads/writes stride
across vaults; atomics scatter over a property region sized by the
epoch's thread count, reproducing hub-style bank reuse on small regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.core.policies import OffloadPolicy

from repro.gpu.caches import CacheModel
from repro.gpu.config import GPU_DEFAULT, GpuConfig
from repro.gpu.kernel import KernelLaunch
from repro.hmc.config import HMC_2_0, HmcConfig
from repro.hmc.cube import HmcCube
from repro.hmc.isa import PimInstruction, PimOpcode
from repro.hmc.packet import FLIT_BYTES, PacketType, Request
from repro.sim.stats import StatRegistry, linear_bounds

#: Address-space layout (byte offsets into the cube).
STREAM_REGION = 0
PROPERTY_REGION = 4 << 30  # uncacheable offloading-target data

#: Transaction kinds of a synthesized epoch stream.
_READ, _WRITE, _PIM = 0, 1, 2

#: Shared all-zero write line (streaming writes carry no modelled data).
_ZERO_LINE = b"\0" * 64


@dataclass
class DetailedResult:
    """Aggregates of one detailed run."""

    workload: str
    policy: str
    runtime_s: float
    transactions: int
    pim_ops: int
    host_atomics: int
    mean_latency_ns: float
    link_flits: int
    #: Achieved external-link bandwidth (all FLITs over the run time).
    ext_bandwidth_gbs: float = 0.0


class DetailedSimulator:
    """Transaction-level co-simulation of one launch."""

    def __init__(
        self,
        gpu: GpuConfig = GPU_DEFAULT,
        hmc_config: HmcConfig = HMC_2_0,
        cache: Optional[CacheModel] = None,
        max_transactions: int = 1_000_000,
        seed: int = 0,
    ) -> None:
        self.gpu = gpu
        self.hmc_config = hmc_config
        self.cache = cache or CacheModel(gpu)
        self.max_transactions = max_transactions
        self.seed = seed
        #: Per-simulator stat registry (``detailed.*`` scope); each run()
        #: resets and refills it.
        self.stats = StatRegistry()

    # -- address synthesis ----------------------------------------------------

    def _addresses(self, rng: np.random.Generator, count: int, region: int,
                   span_bytes: int, stride: int) -> np.ndarray:
        if count == 0:
            return np.empty(0, dtype=np.int64)
        slots = max(1, span_bytes // stride)
        return region + rng.integers(0, slots, size=count) * stride

    def _epoch_stream(
        self, rng: np.random.Generator, demand, threads: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Synthesize one epoch's transaction stream as parallel arrays.

        Returns ``(kinds, addresses, is_host_member)`` already shuffled
        into issue order. Host atomics appear as read+write pairs; the
        boolean marker tracks their members through the shuffle so
        truncated epochs can account *submitted* host atomics.
        """
        # 32 B-aligned addresses: the vault interleave granularity is
        # 32 B, so coarser strides would alias onto a subset of vaults.
        span = max(4096, threads * 64)
        reads = self._addresses(rng, demand.reads, STREAM_REGION, 64 << 20, 32)
        writes = self._addresses(rng, demand.writes, STREAM_REGION + (1 << 30),
                                 64 << 20, 32)
        hosts = self._addresses(rng, 2 * demand.host_atomics,
                                PROPERTY_REGION, span, 32)
        pims = self._addresses(rng, demand.total_pim, PROPERTY_REGION,
                               span, 16)

        addrs = np.concatenate((reads, writes, hosts, pims))
        kinds = np.concatenate((
            np.full(reads.size, _READ, dtype=np.int64),
            np.full(writes.size, _WRITE, dtype=np.int64),
            # host atomic = read + write pair
            np.tile([_READ, _WRITE], hosts.size // 2).astype(np.int64),
            np.full(pims.size, _PIM, dtype=np.int64),
        ))
        is_host = np.zeros(addrs.size, dtype=bool)
        is_host[reads.size + writes.size : reads.size + writes.size + hosts.size] = True

        perm = rng.permutation(addrs.size)  # avoid phase-locking with links
        return kinds[perm], addrs[perm], is_host[perm]

    # -- main loop --------------------------------------------------------------

    def run(self, launch: KernelLaunch, policy: "OffloadPolicy") -> DetailedResult:
        """Run the launch transaction-by-transaction."""
        launch.trace.rewind()
        rng = np.random.default_rng(self.seed)
        cube = HmcCube(self.hmc_config)
        policy.begin(launch, now_s=0.0)

        stats = self.stats.scoped("detailed")
        batch_hist = stats.histogram(
            "epoch_batch_txns", linear_bounds(0.0, 65536.0, 64)
        )
        batch_hist.reset()

        now_ns = 0.0
        txns = 0
        pim_total = 0
        host_members = 0  # submitted host-atomic member transactions
        latency_sum = 0.0

        while txns < self.max_transactions:
            batch = launch.trace.next()
            if batch is None:
                break
            traffic = self.cache.filter(batch)
            fraction = policy.pim_fraction(now_ns * 1e-9)
            demand = self.cache.demand(traffic, fraction)
            kinds, addrs, is_host = self._epoch_stream(rng, demand, batch.threads)
            batch_hist.observe(kinds.size)

            # Open-loop issue: the GPU's memory-level parallelism keeps the
            # links fed, so every transaction of the epoch is offered at
            # the epoch start and the cube's queues provide the backpressure.
            epoch_start = now_ns
            epoch_end = now_ns
            for kind, a, host in zip(kinds.tolist(), addrs.tolist(),
                                     is_host.tolist()):
                if txns >= self.max_transactions:
                    break
                if kind == _PIM:
                    inst = PimInstruction(PimOpcode.ADD_IMM, address=a, immediate=1)
                    rsp = cube.submit(Request(PacketType.PIM, address=a, pim=inst),
                                      epoch_start)
                    pim_total += 1
                elif kind == _WRITE:
                    # Only host-atomic writes carry (zero) payloads: they
                    # functionally clear property-region operands.
                    rsp = cube.submit(Request(PacketType.WRITE64, address=a),
                                      epoch_start,
                                      payload=_ZERO_LINE if host else None)
                else:
                    rsp = cube.submit(Request(PacketType.READ64, address=a),
                                      epoch_start)
                host_members += host
                latency_sum += rsp.latency_ns
                epoch_end = max(epoch_end, rsp.complete_time_ns)
                txns += 1
            now_ns = max(now_ns, epoch_end)

        return DetailedResult(
            workload=launch.name,
            policy=policy.name,
            runtime_s=now_ns * 1e-9,
            transactions=txns,
            pim_ops=pim_total,
            # Count whole pairs actually submitted: a cap can truncate
            # mid-epoch, so the offered demand overstates them.
            host_atomics=host_members // 2,
            mean_latency_ns=latency_sum / txns if txns else 0.0,
            link_flits=cube.links.total_flits(),
            ext_bandwidth_gbs=(
                cube.links.total_flits() * FLIT_BYTES / now_ns if now_ns > 0 else 0.0
            ),
        )
