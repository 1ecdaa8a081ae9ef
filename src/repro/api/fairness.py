"""Multi-tenant queueing: per-tenant FIFOs served round robin, one quota.

This layer sits between the HTTP submission endpoints and the worker
fleet. Each tenant owns a FIFO queue; the dispatcher asks
:meth:`FairQueue.pop` for the next item. Tenants with queued work form a
ring in the order they became active, and each pop serves the ring's
head and moves it to the back while it still has work — so a tenant
with queued work waits at most one item per other active tenant, however
fast the others submit. A tenant that goes idle leaves the ring and
rejoins at its back (served within one round), banking no credit.

One quota, ``max_queued``, bounds every tenant's backlog: a submission
past it raises :class:`QuotaExceeded` (→ HTTP 429). With a single tenant
the queue is plain FIFO.

The queue is plain synchronous code driven from the service's event loop
(single-threaded access).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple


class QuotaExceeded(Exception):
    """A tenant tried to queue past its ``max_queued`` quota: one job
    with the backlog full, or a sweep of ``sweep_jobs`` jobs that does
    not fit the room left."""

    def __init__(self, tenant: str, limit: int, sweep_jobs: int = 0) -> None:
        super().__init__(
            f"sweep of {sweep_jobs} job(s) exceeds the quota of {limit} "
            f"queued job(s) of tenant {tenant!r}"
            if sweep_jobs else
            f"tenant {tenant!r} has {limit} queued job(s), quota reached"
        )
        self.tenant = tenant
        self.limit = limit


@dataclass
class _TenantState:
    queue: Deque[Tuple[Any, float]] = field(default_factory=deque)
    submitted: int = 0
    dispatched: int = 0
    rejected: int = 0


class FairQueue:
    """Round-robin multi-tenant queue under one per-tenant quota."""

    def __init__(self, max_queued: int = 64) -> None:
        if max_queued < 1:
            raise ValueError("max_queued must be >= 1")
        #: Maximum queued (not yet running) jobs per tenant.
        self.max_queued = max_queued
        self._tenants: Dict[str, _TenantState] = {}
        #: Tenants with queued work, in service order.
        self._active: Deque[str] = deque()

    def _state(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            state = self._tenants[tenant] = _TenantState()
        return state

    def oldest_wait_s(self, tenant: str) -> float:
        """Seconds the tenant's queue head has been waiting (0 if empty).

        The ``/metrics`` wait-age gauge.
        """
        state = self._tenants.get(tenant)
        if state is None or not state.queue:
            return 0.0
        _, enqueued = state.queue[0]
        return max(0.0, time.monotonic() - enqueued)

    def capacity_for(self, tenant: str) -> int:
        """Remaining queue slots before the tenant's quota trips."""
        return max(0, self.max_queued - len(self._state(tenant).queue))

    def admit_sweep(self, tenant: str, jobs: int) -> None:
        """Refuse a sweep of ``jobs`` jobs that does not fit the tenant's
        remaining quota (all-or-nothing): counts the refusal in the
        tenant's ``rejected`` and raises :class:`QuotaExceeded`."""
        if jobs > self.capacity_for(tenant):
            self._state(tenant).rejected += 1
            raise QuotaExceeded(tenant, self.max_queued, sweep_jobs=jobs)

    def __len__(self) -> int:
        return sum(len(s.queue) for s in self._tenants.values())

    # -- submit / dispatch -------------------------------------------------

    def submit(self, tenant: str, item: Any) -> int:
        """Enqueue ``item`` for ``tenant``; returns its queue position.

        Raises :class:`QuotaExceeded` when the tenant's backlog is full
        (the item is **not** queued).
        """
        state = self._state(tenant)
        if len(state.queue) >= self.max_queued:
            state.rejected += 1
            raise QuotaExceeded(tenant, self.max_queued)
        if not state.queue:
            self._active.append(tenant)
        state.queue.append((item, time.monotonic()))
        state.submitted += 1
        return len(state.queue) - 1

    def pop(self) -> Optional[Tuple[str, Any]]:
        """Dispatch the next item, or ``None`` when nothing is queued."""
        if not self._active:
            return None
        name = self._active.popleft()
        state = self._tenants[name]
        item, _ = state.queue.popleft()
        if state.queue:
            self._active.append(name)
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
        self._active.clear()
        return drained

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant counters for the admin endpoint."""
        return {
            name: {
                "queued": len(state.queue),
                "submitted": state.submitted,
                "dispatched": state.dispatched,
                "rejected": state.rejected,
            }
            for name, state in sorted(self._tenants.items())
        }
