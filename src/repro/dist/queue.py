"""Lease-based work queue for distributed sweep cells.

The coordinator owns one :class:`LeaseQueue`; connection handlers lease
batches of cells to workers and feed results back.  The queue guarantees
the two distributed invariants the bench enforces:

* **No lost cells.**  Every enqueued ticket is eventually delivered —
  either a result payload or an exception.  A dead or stalled worker's
  lease expires (missed heartbeats) or is released (connection drop) and
  its unfinished tickets re-enter the *front* of the queue with a retry
  count; a ticket that exhausts ``max_retries`` delivers a
  :class:`~repro.errors.ReproError` instead of hanging forever.
* **No double-counted cells.**  A result is accepted only from the lease
  that currently owns the ticket; anything else — a late result from an
  expired lease, a second copy after a retry already landed — increments
  ``duplicates_dropped`` and is discarded.  Delivery is exactly-once per
  ticket by construction.

Tickets are queue-assigned monotonic integers; cells of one
:meth:`~repro.dist.coordinator.RemoteCellExecutor.run_cells` call share a
``group`` token so a lease never mixes cells of different calls (and so
never mixes context digests: the worker simulates a lease under one
context).

Locking: all state lives behind one condition variable; delivery
callbacks are collected under the lock but *invoked outside it*, so a
callback may re-enter the queue (e.g. a future's waiter immediately
submitting more work) without deadlocking.  The one callable run under
the lock is a lease's size rule (see :meth:`LeaseQueue.lease`), which
must not call back into the queue.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (Callable, Deque, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro.errors import ReproError

#: ``deliver`` receives either the raw result payload (bytes) or an
#: exception; consumers dispatch on type.
Deliver = Callable[[object], None]


@dataclass
class WorkItem:
    """One enqueued cell: identity, routing, and its delivery callback."""

    ticket: int
    digest: str
    group: int
    spec: object
    wire_spec: Dict[str, object]
    deliver: Deliver
    retries: int = 0


@dataclass
class Lease:
    """A batch of cells granted to one worker, with a liveness deadline."""

    lease_id: int
    worker: str
    digest: str
    deadline: float
    items: Dict[int, WorkItem] = field(default_factory=dict)

    @property
    def tickets(self) -> List[int]:
        return list(self.items)


class LeaseQueue:
    """Thread-safe cell queue with leases, heartbeats, and retry bounds."""

    def __init__(self, lease_timeout: float = 30.0, max_retries: int = 2,
                 clock: Callable[[], float] = time.monotonic):
        self.lease_timeout = lease_timeout
        self.max_retries = max_retries
        self._clock = clock
        self._cond = threading.Condition()
        self._pending: Deque[WorkItem] = deque()
        self._leases: Dict[int, Lease] = {}
        self._done: set = set()
        self._next_ticket = 0
        self._next_lease = 0
        self._closed = False
        #: Times a ticket was re-queued after a lost/expired lease.
        self.retries = 0
        #: Late or repeated results discarded without delivery.
        self.duplicates_dropped = 0
        #: Tickets delivered a result payload.
        self.completed = 0
        #: Tickets delivered an exception (retry budget exhausted or a
        #: deterministic simulation error reported by a worker).
        self.failed = 0

    # -- producer side ------------------------------------------------------
    def add_batch(self, digest: str, group: int,
                  items: Sequence[Tuple[object, Dict[str, object],
                                        Deliver]]) -> List[int]:
        """Enqueue ``(spec, wire_spec, deliver)`` triples; returns tickets."""
        with self._cond:
            if self._closed:
                raise ReproError("lease queue is closed")
            tickets: List[int] = []
            for spec, wire_spec, deliver in items:
                ticket = self._next_ticket
                self._next_ticket += 1
                self._pending.append(WorkItem(
                    ticket=ticket, digest=digest, group=group, spec=spec,
                    wire_spec=wire_spec, deliver=deliver))
                tickets.append(ticket)
            self._cond.notify_all()
            return tickets

    @property
    def pending(self) -> int:
        with self._cond:
            return len(self._pending)

    @property
    def active_leases(self) -> int:
        with self._cond:
            return len(self._leases)

    # -- worker side (via connection handlers) ------------------------------
    def lease(self, worker: str,
              max_cells: Union[int, Callable[[int], int]],
              timeout: Optional[float] = None) -> Optional[Lease]:
        """Grant up to ``max_cells`` homogeneous pending cells.

        Blocks up to ``timeout`` for work (``None`` = forever); returns
        ``None`` on timeout or once the queue is closed.  The batch is
        the longest prefix run of pending items sharing the head item's
        ``(digest, group)`` — skipping over non-matching items
        would reorder delivery priorities for no benefit, since each
        group is homogeneous by construction.

        ``max_cells`` may be a callable taking the pending count: it is
        called under the queue lock once work is there, so a lease is
        sized by the work it is granted from, not by the (often empty)
        queue the worker saw when it started waiting.
        """
        deadline = None if timeout is None else self._clock() + timeout
        with self._cond:
            while not self._pending:
                if self._closed:
                    return None
                if deadline is not None:
                    remaining = deadline - self._clock()
                    if remaining <= 0:
                        return None
                    self._cond.wait(remaining)
                else:
                    self._cond.wait()
            if self._closed:
                return None
            if callable(max_cells):
                max_cells = max_cells(len(self._pending))
            head = self._pending[0]
            lease = Lease(
                lease_id=self._next_lease, worker=worker,
                digest=head.digest,
                deadline=self._clock() + self.lease_timeout)
            self._next_lease += 1
            while self._pending and len(lease.items) < max(1, max_cells):
                item = self._pending[0]
                if (item.digest, item.group) != (head.digest, head.group):
                    break
                self._pending.popleft()
                lease.items[item.ticket] = item
            self._leases[lease.lease_id] = lease
            return lease

    def heartbeat(self, lease_id: int) -> bool:
        """Extend a lease's deadline; ``False`` if it no longer exists."""
        with self._cond:
            lease = self._leases.get(lease_id)
            if lease is None:
                return False
            lease.deadline = self._clock() + self.lease_timeout
            return True

    def complete(self, lease_id: int, ticket: int, payload: bytes) -> bool:
        """Deliver one ticket's result; ``False`` for dropped duplicates.

        Only the lease currently owning the ticket may complete it — a
        late result from an expired/released lease is dropped even if
        the retry has not finished yet (the retry will deliver it), so
        a ticket can never deliver twice.
        """
        with self._cond:
            lease = self._leases.get(lease_id)
            item = lease.items.pop(ticket, None) if lease is not None \
                else None
            if item is None:
                self.duplicates_dropped += 1
                return False
            self._done.add(ticket)
            self.completed += 1
            if lease is not None and not lease.items:
                del self._leases[lease_id]
        item.deliver(payload)
        return True

    def fail_tickets(self, lease_id: int, tickets: Sequence[int],
                     message: str) -> int:
        """Deliver a deterministic worker-reported error to tickets.

        Used for simulation errors (not worker death): retrying a
        deterministic failure wastes a worker, so the error is terminal.
        Returns the number of tickets actually failed (stale duplicates
        are dropped, as in :meth:`complete`).
        """
        failed: List[WorkItem] = []
        with self._cond:
            lease = self._leases.get(lease_id)
            for ticket in tickets:
                item = lease.items.pop(ticket, None) if lease is not None \
                    else None
                if item is None:
                    self.duplicates_dropped += 1
                    continue
                self._done.add(ticket)
                self.failed += 1
                failed.append(item)
            if lease is not None and not lease.items:
                self._leases.pop(lease_id, None)
        error = ReproError(message)
        for item in failed:
            item.deliver(error)
        return len(failed)

    # -- liveness -----------------------------------------------------------
    def release_lease(self, lease_id: int, reason: str = "released") -> int:
        """Return a lease's unfinished cells to the queue (worker died)."""
        with self._cond:
            lease = self._leases.pop(lease_id, None)
            items = list(lease.items.values()) if lease is not None else []
            requeued, exhausted = self._requeue_locked(items)
        self._fail_exhausted(exhausted, reason)
        return requeued

    def release_worker(self, worker: str, reason: str = "disconnect"
                       ) -> int:
        """Release every lease held by ``worker``; returns the number
        of in-flight tickets released (requeued, or failed once past
        their retry budget)."""
        with self._cond:
            items: List[WorkItem] = []
            for lease_id in [lid for lid, lease in self._leases.items()
                             if lease.worker == worker]:
                items.extend(self._leases.pop(lease_id).items.values())
            _, exhausted = self._requeue_locked(items)
        self._fail_exhausted(exhausted, reason)
        return len(items)

    def expire(self, now: Optional[float] = None) -> int:
        """Requeue cells of every lease past its deadline."""
        now = self._clock() if now is None else now
        with self._cond:
            items: List[WorkItem] = []
            for lease_id in [lid for lid, lease in self._leases.items()
                             if lease.deadline < now]:
                items.extend(self._leases.pop(lease_id).items.values())
            requeued, exhausted = self._requeue_locked(items)
        self._fail_exhausted(exhausted, "lease expired")
        return requeued

    def _requeue_locked(self, items: List[WorkItem]
                        ) -> Tuple[int, List[WorkItem]]:
        """Requeue (front) items, splitting off retry-budget-exhausted
        ones for the caller to fail *outside* the lock."""
        requeued = 0
        exhausted: List[WorkItem] = []
        for item in reversed(items):
            item.retries += 1
            if item.retries > self.max_retries:
                self._done.add(item.ticket)
                self.failed += 1
                exhausted.append(item)
                continue
            self.retries += 1
            requeued += 1
            self._pending.appendleft(item)
        if requeued:
            self._cond.notify_all()
        return requeued, exhausted

    def _fail_exhausted(self, items: List[WorkItem], reason: str) -> None:
        for item in items:
            item.deliver(ReproError(
                f"cell ticket {item.ticket} lost {item.retries} leases "
                f"({reason}); retry budget ({self.max_retries}) exhausted"))

    # -- group / lifecycle --------------------------------------------------
    def cancel_group(self, group: int) -> int:
        """Drop a group's still-pending cells (consumer bailed early).

        Leased cells are left to finish; their late results are dropped
        as duplicates once the consumer is gone only if the consumer's
        deliver callbacks tolerate it (ours enqueue into dead queues,
        which is harmless).
        """
        with self._cond:
            kept = deque(item for item in self._pending
                         if item.group != group)
            dropped = len(self._pending) - len(kept)
            self._pending = kept
            for lease in self._leases.values():
                for ticket in [t for t, item in lease.items.items()
                               if item.group == group]:
                    del lease.items[ticket]
                    self._done.add(ticket)
                    dropped += 1
            return dropped

    def close(self) -> None:
        """Refuse new work, wake lease waiters, fail undelivered cells."""
        with self._cond:
            self._closed = True
            orphans = list(self._pending)
            self._pending.clear()
            for lease in self._leases.values():
                orphans.extend(lease.items.values())
            self._leases.clear()
            for item in orphans:
                self._done.add(item.ticket)
                self.failed += 1
            self._cond.notify_all()
        error = ReproError("lease queue closed with undelivered cells")
        for item in orphans:
            item.deliver(error)

    @property
    def closed(self) -> bool:
        return self._closed
