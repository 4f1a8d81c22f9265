"""``rtdvs worker``: engine validation, the re-dial schedule, and RM
cells that leave numpy unimported.

The worker re-dials on the service client's schedule
(:func:`repro.service.client.backoff_delay`); ``sleep`` is injected so
every back-off decision is observed without waiting.
"""

import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.dist import WORKER_ENGINES, WorkerError, run_worker
from repro.dist.wire import recv_frame, send_frame
from repro.service.client import BACKOFF_CAP, backoff_delay


def refusing_port():
    """A loopback port nothing listens on (bind, then close)."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestEngines:
    def test_worker_engines_are_auto_plus_sweep_engines(self):
        assert WORKER_ENGINES == ("auto", "scalar", "block")

    def test_batch_engine_rejected(self):
        with pytest.raises(WorkerError,
                           match="unknown worker engine 'batch'"):
            run_worker("127.0.0.1", refusing_port(), engine="batch")


#: A fresh interpreter loads the worker module and runs a lease's worth
#: of staticRM/ccRM cells through the worker's own entry point; both
#: policies run the RM response-time analysis at setup.
_WORKER_RM_SNIPPET = """
import sys
import repro.dist.worker
from repro.analysis.batch import encode_cells
from repro.analysis.sweep import SweepConfig, sweep_cell_specs, sweep_context
config = SweepConfig(policies=("staticRM", "ccRM"), n_tasks=8, n_sets=2,
                     utilizations=(0.5, 0.8), duration=200.0, seed=11)
encoded, _ = encode_cells(sweep_context(config), sweep_cell_specs(config))
print(len(encoded), "numpy" in sys.modules)
"""


class TestNumpyFree:
    def test_rm_cells_leave_numpy_unimported(self):
        src = Path(__file__).resolve().parents[2] / "src"
        env = {key: value for key, value in os.environ.items()
               if key != "RTDVS_NO_NUMPY"}
        env["PYTHONPATH"] = str(src)
        proc = subprocess.run([sys.executable, "-c", _WORKER_RM_SNIPPET],
                              capture_output=True, text=True, env=env,
                              check=True)
        assert proc.stdout.split() == ["4", "False"]


class TestRedialSchedule:
    def test_refused_connection_backs_off_then_fails(self):
        port = refusing_port()
        sleeps = []
        with pytest.raises(WorkerError, match="cannot reach"):
            run_worker("127.0.0.1", port, reconnect=4,
                       reconnect_delay=0.1, connect_timeout=1.0,
                       sleep=sleeps.append)
        assert sleeps == [backoff_delay("127.0.0.1", port, attempt,
                                        base=0.1, cap=BACKOFF_CAP)
                          for attempt in range(4)]

    def test_zero_reconnects_fails_without_sleeping(self):
        sleeps = []
        with pytest.raises(WorkerError, match="cannot reach"):
            run_worker("127.0.0.1", refusing_port(), connect_timeout=1.0,
                       sleep=sleeps.append)
        assert sleeps == []

    def test_dropped_connections_redial_on_the_same_schedule(self):
        # A coordinator that welcomes each worker and hangs up: every
        # drop spends one re-dial, and a spent budget returns the stats.
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen()
        port = server.getsockname()[1]

        def coordinator():
            for _ in range(3):
                conn, _ = server.accept()
                with conn:
                    recv_frame(conn)  # hello
                    send_frame(conn, "welcome",
                               {"worker_id": "w", "heartbeat": 5.0})

        thread = threading.Thread(target=coordinator, daemon=True)
        thread.start()
        sleeps = []
        try:
            stats = run_worker("127.0.0.1", port, reconnect=2,
                               reconnect_delay=0.05, sleep=sleeps.append)
        finally:
            thread.join(timeout=10)
            server.close()
        assert stats["reconnects"] == 2
        assert stats["leases"] == 0
        assert sleeps == [backoff_delay("127.0.0.1", port, attempt,
                                        base=0.05, cap=BACKOFF_CAP)
                          for attempt in range(2)]
