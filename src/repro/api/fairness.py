"""Multi-tenant fair queueing: weighted stride scheduling + priority aging.

This layer sits between the HTTP submission endpoints and the worker
fleet. Each tenant owns a FIFO queue; the dispatcher asks :meth:`FairQueue.pop`
which tenant goes next. Selection is **stride scheduling**: every tenant
carries a virtual time that advances by ``1 / weight`` per dispatched
job, and the runnable tenant with the smallest virtual time wins — over a
window, tenants therefore receive service proportional to their weights
regardless of how fast they submit.

Two guards keep one tenant from starving or flooding the pool:

- **Priority aging** — a queued head item earns ``aging_rate`` virtual
  seconds of credit per wall second it waits, so even a weight-0.1 tenant
  behind a firehose tenant is served eventually (its effective virtual
  time sinks below the flood's).
- **Quotas** — ``max_queued`` bounds a tenant's backlog (submission past
  it raises :class:`QuotaExceeded` → HTTP 429) and ``max_running``
  optionally caps its concurrently executing jobs.

The queue is plain synchronous code driven from the service's event loop
(single-threaded access); it takes an injectable ``clock`` so tests can
freeze aging.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional, Tuple


class QuotaExceeded(Exception):
    """A tenant tried to queue past its ``max_queued`` quota."""

    def __init__(self, tenant: str, limit: int) -> None:
        super().__init__(
            f"tenant {tenant!r} has {limit} queued job(s), quota reached"
        )
        self.tenant = tenant
        self.limit = limit


@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant scheduling parameters."""

    #: Relative service share (stride = 1/weight).
    weight: float = 1.0
    #: Maximum queued (not yet running) jobs; submissions past it → 429.
    max_queued: int = 64
    #: Optional cap on concurrently running jobs for this tenant.
    max_running: Optional[int] = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("tenant weight must be positive")
        if self.max_queued < 1:
            raise ValueError("max_queued must be >= 1")


@dataclass
class _TenantState:
    policy: TenantPolicy
    queue: Deque[Tuple[Any, float]] = field(default_factory=deque)
    #: Stride-scheduling virtual time (advances 1/weight per dispatch).
    vtime: float = 0.0
    submitted: int = 0
    dispatched: int = 0
    rejected: int = 0


class FairQueue:
    """Weighted multi-tenant queue with aging and quotas."""

    def __init__(
        self,
        policies: Optional[Mapping[str, TenantPolicy]] = None,
        default_policy: Optional[TenantPolicy] = None,
        aging_rate: float = 0.05,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.default_policy = default_policy or TenantPolicy()
        self.aging_rate = aging_rate
        self.clock = clock
        self._tenants: Dict[str, _TenantState] = {}
        for name, policy in (policies or {}).items():
            self._tenants[name] = _TenantState(policy=policy)
        #: Smallest vtime ever dispatched; newly active tenants join here
        #: so an idle tenant cannot bank unbounded credit.
        self._global_vtime = 0.0

    # -- tenant bookkeeping ------------------------------------------------

    def _state(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            state = _TenantState(policy=self.default_policy)
            self._tenants[tenant] = state
        return state

    def policy_for(self, tenant: str) -> TenantPolicy:
        return self._state(tenant).policy

    def oldest_wait_s(self, tenant: str) -> float:
        """Seconds the tenant's queue head has been waiting (0 if empty).

        The ``/metrics`` wait-age gauge: a rising value under steady
        dispatch means the tenant is being out-weighted.
        """
        state = self._tenants.get(tenant)
        if state is None or not state.queue:
            return 0.0
        _, enqueued = state.queue[0]
        return max(0.0, self.clock() - enqueued)

    def capacity_for(self, tenant: str) -> int:
        """Remaining queue slots before the tenant's quota trips."""
        state = self._state(tenant)
        return max(0, state.policy.max_queued - len(state.queue))

    def __len__(self) -> int:
        return sum(len(s.queue) for s in self._tenants.values())

    # -- submit / dispatch -------------------------------------------------

    def submit(self, tenant: str, item: Any) -> int:
        """Enqueue ``item`` for ``tenant``; returns its queue position.

        Raises :class:`QuotaExceeded` when the tenant's backlog is full
        (the item is **not** queued).
        """
        state = self._state(tenant)
        if len(state.queue) >= state.policy.max_queued:
            state.rejected += 1
            raise QuotaExceeded(tenant, state.policy.max_queued)
        if not state.queue:
            # Re-activating tenant: join at the current virtual time so
            # idleness doesn't accumulate into a service burst.
            state.vtime = max(state.vtime, self._global_vtime)
        state.queue.append((item, self.clock()))
        state.submitted += 1
        return len(state.queue) - 1

    def _effective_vtime(self, state: _TenantState, now: float) -> float:
        _, enqueued = state.queue[0]
        aged = self.aging_rate * max(0.0, now - enqueued)
        return state.vtime - aged

    def pop(
        self, running_by_tenant: Optional[Mapping[str, int]] = None
    ) -> Optional[Tuple[str, Any]]:
        """Dispatch the next item, or ``None`` when nothing is runnable.

        ``running_by_tenant`` (tenant → currently running jobs) enforces
        per-tenant ``max_running`` caps.
        """
        running = running_by_tenant or {}
        now = self.clock()
        best: Optional[Tuple[float, str]] = None
        for name in sorted(self._tenants):  # sorted → deterministic ties
            state = self._tenants[name]
            if not state.queue:
                continue
            cap = state.policy.max_running
            if cap is not None and running.get(name, 0) >= cap:
                continue
            score = self._effective_vtime(state, now)
            if best is None or score < best[0]:
                best = (score, name)
        if best is None:
            return None
        name = best[1]
        state = self._tenants[name]
        item, _ = state.queue.popleft()
        # The winner's pre-dispatch vtime is the current service front:
        # tenants re-activating later join there, not behind everyone's
        # accumulated totals.
        self._global_vtime = max(self._global_vtime, state.vtime)
        state.vtime += 1.0 / state.policy.weight
        state.dispatched += 1
        return name, item

    def drain(self) -> List[Tuple[str, Any]]:
        """Remove and return every queued item (shutdown path)."""
        drained: List[Tuple[str, Any]] = []
        for name in sorted(self._tenants):
            state = self._tenants[name]
            while state.queue:
                item, _ = state.queue.popleft()
                drained.append((name, item))
        return drained

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-tenant counters for the admin endpoint."""
        out: Dict[str, Dict[str, Any]] = {}
        for name in sorted(self._tenants):
            state = self._tenants[name]
            out[name] = {
                "weight": state.policy.weight,
                "max_queued": state.policy.max_queued,
                "max_running": state.policy.max_running,
                "queued": len(state.queue),
                "submitted": state.submitted,
                "dispatched": state.dispatched,
                "rejected": state.rejected,
            }
        return out
