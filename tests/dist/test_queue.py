"""LeaseQueue semantics: exactly-once delivery under worker churn."""

import threading
import time

import pytest

from repro.dist.queue import LeaseQueue
from repro.errors import ReproError


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class Sink:
    """Deliver-callback recorder for one enqueued cell."""

    def __init__(self):
        self.values = []

    def __call__(self, value):
        self.values.append(value)


def enqueue(queue, count, digest="d1", group=1):
    sinks = [Sink() for _ in range(count)]
    tickets = queue.add_batch(
        digest, group,
        [(f"spec{i}", {"i": i}, sinks[i]) for i in range(count)])
    return tickets, sinks


class TestLeasing:
    def test_lease_takes_homogeneous_prefix_only(self):
        queue = LeaseQueue()
        enqueue(queue, 3, group=1)
        enqueue(queue, 2, group=2)
        lease = queue.lease("w1", max_cells=10, timeout=0)
        assert len(lease.items) == 3  # stops at the group boundary
        second = queue.lease("w1", max_cells=10, timeout=0)
        assert len(second.items) == 2

    def test_lease_respects_max_cells(self):
        queue = LeaseQueue()
        enqueue(queue, 5)
        lease = queue.lease("w1", max_cells=2, timeout=0)
        assert len(lease.items) == 2
        assert queue.pending == 3

    def test_lease_timeout_returns_none_when_empty(self):
        queue = LeaseQueue()
        assert queue.lease("w1", max_cells=1, timeout=0.01) is None

    def test_callable_size_sees_the_work_a_waiter_is_granted(self):
        queue = LeaseQueue()
        seen = []

        def share(pending):
            seen.append(pending)
            return -(-pending // 4)

        box = {}
        waiter = threading.Thread(
            target=lambda: box.setdefault(
                "lease", queue.lease("w1", share, timeout=10)))
        waiter.start()
        time.sleep(0.05)  # the waiter blocks on an empty queue
        enqueue(queue, 40)
        waiter.join(timeout=10)
        assert seen == [40]
        assert len(box["lease"].items) == 10


class TestExactlyOnce:
    def test_complete_delivers_once_and_drops_duplicates(self):
        queue = LeaseQueue()
        tickets, sinks = enqueue(queue, 1)
        lease = queue.lease("w1", max_cells=1, timeout=0)
        assert queue.complete(lease.lease_id, tickets[0], b"payload")
        # Same ticket again: the lease no longer owns it.
        assert not queue.complete(lease.lease_id, tickets[0], b"again")
        assert sinks[0].values == [b"payload"]
        assert queue.completed == 1
        assert queue.duplicates_dropped == 1

    def test_late_result_from_released_lease_dropped(self):
        queue = LeaseQueue()
        tickets, sinks = enqueue(queue, 2)
        lost = queue.lease("w1", max_cells=2, timeout=0)
        assert queue.release_lease(lost.lease_id) == 2
        assert queue.retries == 2
        # The dead worker's results arrive late: dropped, not delivered.
        assert not queue.complete(lost.lease_id, tickets[0], b"stale")
        assert queue.duplicates_dropped == 1
        # The retry lease delivers normally, exactly once per ticket.
        retry = queue.lease("w2", max_cells=2, timeout=0)
        assert sorted(retry.tickets) == sorted(tickets)
        for ticket in retry.tickets:
            assert queue.complete(retry.lease_id, ticket, b"fresh")
        assert all(sink.values == [b"fresh"] for sink in sinks)
        assert queue.completed == 2

    def test_release_requeues_to_front(self):
        queue = LeaseQueue()
        first_tickets, _ = enqueue(queue, 1, group=1)
        lease = queue.lease("w1", max_cells=1, timeout=0)
        enqueue(queue, 1, group=2)
        queue.release_lease(lease.lease_id)
        # The lost cell outranks the younger pending one.
        retry = queue.lease("w2", max_cells=5, timeout=0)
        assert retry.tickets == first_tickets


class TestLiveness:
    def test_expiry_requeues_after_deadline(self):
        clock = FakeClock()
        queue = LeaseQueue(lease_timeout=10.0, clock=clock)
        tickets, sinks = enqueue(queue, 1)
        stale = queue.lease("w1", max_cells=1, timeout=0)
        clock.advance(5.0)
        assert queue.expire() == 0  # still inside the deadline
        clock.advance(6.0)
        assert queue.expire() == 1
        assert queue.retries == 1
        # A heartbeat for the expired lease is refused.
        assert not queue.heartbeat(stale.lease_id)
        retry = queue.lease("w2", max_cells=1, timeout=0)
        assert queue.complete(retry.lease_id, tickets[0], b"ok")
        assert sinks[0].values == [b"ok"]

    def test_heartbeat_extends_deadline(self):
        clock = FakeClock()
        queue = LeaseQueue(lease_timeout=10.0, clock=clock)
        enqueue(queue, 1)
        lease = queue.lease("w1", max_cells=1, timeout=0)
        clock.advance(8.0)
        assert queue.heartbeat(lease.lease_id)
        clock.advance(8.0)  # 16s total, but extended at t=8
        assert queue.expire() == 0
        clock.advance(3.0)
        assert queue.expire() == 1

    def test_release_worker_covers_all_its_leases(self):
        queue = LeaseQueue()
        enqueue(queue, 1, group=1)
        enqueue(queue, 1, group=2)
        queue.lease("w1", max_cells=1, timeout=0)
        queue.lease("w1", max_cells=1, timeout=0)
        assert queue.active_leases == 2
        assert queue.release_worker("w1") == 2
        assert queue.active_leases == 0
        assert queue.pending == 2

    def test_release_worker_counts_tickets_past_their_budget(self):
        queue = LeaseQueue(max_retries=0)
        _, sinks = enqueue(queue, 3)
        queue.lease("w1", max_cells=3, timeout=0)
        assert queue.release_worker("w1") == 3
        assert queue.failed == 3 and queue.pending == 0
        assert all(isinstance(sink.values[0], ReproError) for sink in sinks)


class TestFailurePaths:
    def test_retry_budget_exhaustion_delivers_error(self):
        queue = LeaseQueue(max_retries=1)
        _, sinks = enqueue(queue, 1)
        for _ in range(2):  # budget of 1 retry → second loss is terminal
            lease = queue.lease("w1", max_cells=1, timeout=0)
            queue.release_lease(lease.lease_id)
        assert queue.retries == 1
        assert queue.failed == 1
        assert len(sinks[0].values) == 1
        assert isinstance(sinks[0].values[0], ReproError)
        assert "retry budget" in str(sinks[0].values[0])

    def test_fail_tickets_is_terminal_not_retried(self):
        queue = LeaseQueue()
        tickets, sinks = enqueue(queue, 2)
        lease = queue.lease("w1", max_cells=2, timeout=0)
        assert queue.fail_tickets(lease.lease_id, tickets, "bad cell") == 2
        assert queue.failed == 2
        assert queue.pending == 0  # deterministic errors do not requeue
        for sink in sinks:
            assert isinstance(sink.values[0], ReproError)
            assert "bad cell" in str(sink.values[0])

    def test_close_fails_orphans_and_refuses_new_work(self):
        queue = LeaseQueue()
        _, pending_sinks = enqueue(queue, 1, group=1)
        enqueue(queue, 1, group=2)
        queue.lease("w1", max_cells=1, timeout=0)
        queue.close()
        assert queue.closed
        for sink in pending_sinks:
            assert isinstance(sink.values[0], ReproError)
        with pytest.raises(ReproError, match="closed"):
            enqueue(queue, 1)
        assert queue.lease("w1", max_cells=1, timeout=0) is None

    def test_cancel_group_drops_only_that_group(self):
        queue = LeaseQueue()
        enqueue(queue, 3, group=1)
        enqueue(queue, 2, group=2)
        assert queue.cancel_group(1) == 3
        assert queue.pending == 2
        lease = queue.lease("w1", max_cells=10, timeout=0)
        assert len(lease.items) == 2
