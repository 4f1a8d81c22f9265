"""Distributed sweep execution: lease queue, workers, resumable sweeps.

The package slots a multi-host worker backend behind the existing
``CellExecutor`` seam (ROADMAP item 1):

* :mod:`repro.dist.wire` — length-prefixed TCP frames; cell outcomes
  travel as the CTR1 bytes of :mod:`repro.analysis.transport`, so
  distributed results are bit-identical to in-process ones.  Both ends
  of a connection set ``TCP_NODELAY`` through
  :func:`~repro.dist.wire.tune_socket`.
* :mod:`repro.dist.queue` — the :class:`~repro.dist.queue.LeaseQueue`:
  deadlines, heartbeats, bounded retries, exactly-once delivery.
* :mod:`repro.dist.coordinator` —
  :class:`~repro.dist.coordinator.RemoteCellExecutor`, a drop-in
  ``run_cells`` / ``submit_cell`` executor backed by the fleet.
* :mod:`repro.dist.worker` — the ``rtdvs worker`` pull loop.
* :mod:`repro.dist.journal` — durable request journal enabling
  ``rtdvs submit --resume REQUEST_ID``.
"""

from repro.dist.coordinator import RemoteCellExecutor
from repro.dist.journal import (JournalError, JournalWriter, SweepJournal,
                                validate_request_id)
from repro.dist.queue import Lease, LeaseQueue, WorkItem
from repro.dist.wire import (WIRE_VERSION, WireError, context_from_wire,
                             context_to_wire, pack_frame, recv_frame,
                             send_frame, spec_from_wire, spec_to_wire,
                             unpack_frame)
from repro.dist.worker import WorkerError, parse_connect, run_worker

__all__ = [
    "RemoteCellExecutor",
    "LeaseQueue",
    "Lease",
    "WorkItem",
    "SweepJournal",
    "JournalWriter",
    "JournalError",
    "validate_request_id",
    "run_worker",
    "parse_connect",
    "WorkerError",
    "WireError",
    "WIRE_VERSION",
    "pack_frame",
    "unpack_frame",
    "send_frame",
    "recv_frame",
    "context_to_wire",
    "context_from_wire",
    "spec_to_wire",
    "spec_from_wire",
]
