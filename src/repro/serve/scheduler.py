"""Weighted deficit round-robin over per-tenant request queues.

Classic DRR (Shreedhar & Varghese) adapted to request scheduling: each
tenant owns a FIFO queue and a *deficit* counter.  Every scheduling
round visits active tenants in fixed registration order, credits each
visited tenant ``quantum * weight``, and drains requests while the
deficit covers their cost.  Over a saturated server each tenant's
long-run service share converges to its weight share, yet an idle
tenant costs nothing and a newly-active one is served within a round —
no tenant can starve another regardless of submission rate.

Admission control also lives here: each tenant's queue is bounded by
its ``quota``, and the scheduler tracks the global queue depth so the
server can enforce its total bound.  Both checks are pure functions of
queue occupancy at submit time, which is what makes rejects
deterministic (the acceptance criterion for the overflow tests).

The class is deliberately not thread-safe: the server drives it under
its own condition lock, keeping one lock ordering for queue state.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.analysis import locksan

__all__ = ["DeficitRoundRobin", "TenantQueue"]


class TenantQueue:
    """One tenant's queue, weight, quota, and deficit counter."""

    def __init__(self, name: str, weight: float, quota: int) -> None:
        if weight <= 0:
            raise ValueError(f"tenant weight must be positive, got {weight}")
        if quota < 1:
            raise ValueError(f"tenant quota must be >= 1, got {quota}")
        self.name = name
        self.weight = float(weight)
        self.quota = int(quota)
        self.deficit = 0.0
        self.queue: Deque[Tuple[Any, float]] = deque()
        self.enqueued = 0
        #: Scheduler grants — counts every ``select()`` pop, including
        #: re-grants of requests the server re-queued on pool
        #: saturation, so it can exceed ``enqueued`` under load.
        self.served = 0

    def __len__(self) -> int:
        return len(self.queue)


class DeficitRoundRobin:
    """Fair selector over registered tenants.  Not thread-safe."""

    def __init__(self, quantum: float = 1.0) -> None:
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        self.quantum = float(quantum)
        #: Shared-state name for the lock sanitizer: the class is not
        #: thread-safe by contract, so every access is noted and the
        #: sanitizer proves the server really does wrap each one in its
        #: condition lock.
        self._state = locksan.scoped_name("drr.state")
        self._tenants: Dict[str, TenantQueue] = {}
        #: Fixed visit order (registration order) — determinism matters
        #: more than per-round shuffling for reproducible benchmarks.
        self._order: List[str] = []
        self._cursor = 0

    # -- registration ------------------------------------------------------

    def register(self, name: str, weight: float = 1.0,
                 quota: int = 8) -> TenantQueue:
        locksan.access(self._state)
        if name in self._tenants:
            raise ValueError(f"tenant {name!r} already registered")
        tenant = TenantQueue(name, weight, quota)
        self._tenants[name] = tenant
        self._order.append(name)
        return tenant

    def tenant(self, name: str) -> TenantQueue:
        try:
            return self._tenants[name]
        except KeyError:
            raise KeyError(f"unknown tenant {name!r}; register() it first"
                           ) from None

    def tenants(self) -> List[str]:
        return list(self._order)

    # -- queue state -------------------------------------------------------

    def queued(self) -> int:
        """Requests waiting across all tenants."""
        locksan.access(self._state, write=False)
        return sum(len(t.queue) for t in self._tenants.values())

    def enqueue(self, name: str, item: Any, cost: float = 1.0) -> None:
        """Append to the tenant's queue; caller checks admission first."""
        locksan.access(self._state)
        tenant = self.tenant(name)
        if len(tenant.queue) >= tenant.quota:
            raise OverflowError(
                f"tenant {name!r} queue is full "
                f"({tenant.quota} requests)"
            )
        tenant.queue.append((item, float(cost)))
        tenant.enqueued += 1

    def requeue_front(self, name: str, item: Any, cost: float = 1.0) -> None:
        """Put a deferred item back at the *front* (pool saturation).

        Bypasses the quota: the item was already admitted once and must
        not be rejected — or reordered behind later arrivals — because
        the pool happened to be busy.
        """
        locksan.access(self._state)
        tenant = self.tenant(name)
        tenant.queue.appendleft((item, float(cost)))

    # -- selection ---------------------------------------------------------

    def select(self, max_items: int) -> List[Tuple[str, Any]]:
        """Pick up to ``max_items`` requests for the next batch.

        One DRR round starting at the rotating cursor; tenants with
        empty queues have their deficit reset (idle credit must not
        accumulate — that is what bounds latency for the others).
        """
        locksan.access(self._state)
        if max_items < 1:
            return []
        picked: List[Tuple[str, Any]] = []
        n = len(self._order)
        if n == 0:
            return picked
        # Visit every tenant at most once per call, starting after the
        # last visited tenant so service is round-robin across calls.
        for step in range(n):
            if len(picked) >= max_items:
                break
            name = self._order[(self._cursor + step) % n]
            tenant = self._tenants[name]
            if not tenant.queue:
                tenant.deficit = 0.0
                continue
            tenant.deficit += self.quantum * tenant.weight
            while tenant.queue and len(picked) < max_items:
                item, cost = tenant.queue[0]
                if cost > tenant.deficit:
                    break
                tenant.queue.popleft()
                tenant.deficit -= cost
                tenant.served += 1
                picked.append((name, item))
        self._cursor = (self._cursor + 1) % n
        return picked
