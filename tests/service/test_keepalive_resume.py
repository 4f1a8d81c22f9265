"""Keep-alive connection reuse, result-encode reuse, and journaled
resume — in-process via ServiceThread, plus subprocess tests: one
kill-the-coordinator-then-``--resume`` end to end, and a SIGTERM
shutdown that must take the worker pool down with the server."""

import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.analysis.cellcache import CellCache
from repro.dist.journal import SweepJournal
from repro.service import ServiceThread, SweepService, SweepServiceClient

TINY_SPEC = {"n_tasks": 3, "n_sets_quick": 2, "duration_quick": 100.0,
             "utilizations": [0.5, 0.9]}
TINY_CELLS = 4


def tiny_service(tmp_path, **kwargs):
    return SweepService(cache=CellCache(str(tmp_path / "cells")), **kwargs)


def tables_only(result_event):
    return {key: result_event[key]
            for key in ("scenario", "panel", "xs", "labels",
                        "raw", "normalized", "rm_fallbacks")}


class TestKeepAlive:
    def test_one_connection_serves_many_requests(self, tmp_path):
        service = tiny_service(tmp_path)
        with ServiceThread(service) as handle:
            with SweepServiceClient(port=handle.port) as client:
                first = client.submit_collect({"spec": TINY_SPEC})
                second = client.submit_collect({"spec": TINY_SPEC})
                client.healthz()
                stats = client.stats()
        assert first["done"]["simulated_cells"] == TINY_CELLS
        assert second["done"]["cache_hits"] == TINY_CELLS
        # Four HTTP requests, one TCP connection.
        assert stats["requests"] == 2
        assert stats["connections"] == 1
        assert ([tables_only(r) for r in first["results"]]
                == [tables_only(r) for r in second["results"]])

    def test_result_event_encoding_reused_across_requests(self, tmp_path):
        service = tiny_service(tmp_path)
        with ServiceThread(service) as handle:
            with SweepServiceClient(port=handle.port) as client:
                first = client.submit_collect({"spec": TINY_SPEC})
                second = client.submit_collect({"spec": TINY_SPEC})
        assert service.stats.result_reuses == 1
        assert ([tables_only(r) for r in first["results"]]
                == [tables_only(r) for r in second["results"]])

    def test_connection_close_client_still_served(self, tmp_path):
        import http.client
        service = tiny_service(tmp_path)
        with ServiceThread(service) as handle:
            conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                              timeout=30)
            conn.request("POST", "/v1/sweep",
                         body=json.dumps({"spec": TINY_SPEC}),
                         headers={"Content-Type": "application/json",
                                  "Connection": "close"})
            response = conn.getresponse()
            events = [json.loads(line) for line in response if line.strip()]
            conn.close()
        assert events[-1]["event"] == "done"
        assert events[-1]["simulated_cells"] == TINY_CELLS


class TestJournaledRequests:
    def test_request_id_journals_and_resume_skips_everything(self,
                                                             tmp_path):
        service = tiny_service(tmp_path)
        with ServiceThread(service) as handle:
            with SweepServiceClient(port=handle.port) as client:
                first = client.submit_collect(
                    {"spec": TINY_SPEC, "request_id": "r1"})
                resumed = client.submit_collect(
                    {"resume": True, "request_id": "r1"})
        assert first["done"]["request_id"] == "r1"
        assert first["done"]["journal_done"] == TINY_CELLS
        assert first["done"]["journal_skipped"] == 0
        started = resumed["events"][0]
        assert started["resumed"] is True
        assert resumed["done"]["simulated_cells"] == 0
        assert resumed["done"]["journal_skipped"] == TINY_CELLS
        assert ([tables_only(r) for r in first["results"]]
                == [tables_only(r) for r in resumed["results"]])

    def test_journal_naming_an_engine_no_longer_parses(self, tmp_path):
        # Protocol 1 requests could name "engine"; protocol 2 has no such
        # key, so resuming a journal that stored one fails loudly.
        from repro.service import ServiceError
        service = tiny_service(tmp_path)
        writer = SweepJournal(tmp_path / "cells" / "journal").create(
            "b1", {"spec": TINY_SPEC, "engine": "block"})
        writer.close()
        with ServiceThread(service) as handle:
            with SweepServiceClient(port=handle.port) as client:
                with pytest.raises(
                        ServiceError,
                        match=r"no longer parses: .*\['engine'\]"
                        ) as excinfo:
                    client.submit_collect(
                        {"resume": True, "request_id": "b1"})
                stats = client.stats()
        assert excinfo.value.status == 400
        assert stats["simulated_cells"] == 0
        assert stats["cells_served"] == 0

    def test_journal_survives_a_fresh_service_on_same_cache(self,
                                                            tmp_path):
        with ServiceThread(tiny_service(tmp_path)) as handle:
            with SweepServiceClient(port=handle.port) as client:
                client.submit_collect(
                    {"spec": TINY_SPEC, "request_id": "r1"})
        # "Restart": a brand-new service over the same cache dir.
        with ServiceThread(tiny_service(tmp_path)) as handle:
            with SweepServiceClient(port=handle.port) as client:
                resumed = client.submit_collect(
                    {"resume": True, "request_id": "r1"})
        assert resumed["done"]["simulated_cells"] == 0
        assert resumed["done"]["journal_skipped"] == TINY_CELLS

    def test_duplicate_request_id_rejected(self, tmp_path):
        from repro.service import ServiceError
        with ServiceThread(tiny_service(tmp_path)) as handle:
            with SweepServiceClient(port=handle.port) as client:
                client.submit_collect(
                    {"spec": TINY_SPEC, "request_id": "r1"})
                with pytest.raises(ServiceError, match="already exists"):
                    client.submit_collect(
                        {"spec": TINY_SPEC, "request_id": "r1"})

    def test_resume_unknown_id_rejected(self, tmp_path):
        from repro.service import ServiceError
        with ServiceThread(tiny_service(tmp_path)) as handle:
            with SweepServiceClient(port=handle.port) as client:
                with pytest.raises(ServiceError, match="no journal"):
                    client.submit_collect(
                        {"resume": True, "request_id": "ghost"})

    def test_journaling_needs_a_cache(self, tmp_path):
        from repro.service import ServiceError
        with ServiceThread(SweepService(cache=None)) as handle:
            with SweepServiceClient(port=handle.port) as client:
                with pytest.raises(ServiceError, match="cache"):
                    client.submit_collect(
                        {"spec": TINY_SPEC, "request_id": "r1"})


READY_RE = re.compile(r"rtdvs-serve ready host=(?P<host>\S+) "
                      r"port=(?P<port>\d+)")

# More cells than the tiny spec, so the SIGKILL lands mid-run with high
# probability; the assertions stay valid even if the run finished first.
KILL_SPEC = {"n_tasks": 3, "n_sets_quick": 3, "duration_quick": 200.0,
             "utilizations": [0.5, 0.7, 0.8, 0.9]}
KILL_CELLS = 12


def start_serve(cache_dir, workers=1):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-dir", str(cache_dir), "--workers", str(workers)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, cwd=os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))))
    line = process.stdout.readline()
    match = READY_RE.search(line)
    assert match, f"no ready line: {line!r}"
    return process, int(match.group("port"))


class TestKillCoordinatorResume:
    def test_killed_coordinator_resume_re_simulates_nothing_journaled(
            self, tmp_path):
        cache_dir = tmp_path / "cells"
        serve, port = start_serve(cache_dir)
        try:
            with SweepServiceClient(port=port, timeout=120) as client:
                events = client.submit(
                    {"spec": KILL_SPEC, "request_id": "kill1",
                     "stream_every": 1})
                # Let a couple of cells land, then kill the coordinator
                # mid-request (SIGKILL: no cleanup, journal must cope).
                seen = 0
                try:
                    for event in events:
                        if event["event"] in ("partial", "result"):
                            seen += 1
                        if seen >= 2:
                            break
                except Exception:
                    pass  # stream may tear as the server dies
                serve.send_signal(signal.SIGKILL)
                serve.wait(timeout=30)
        finally:
            if serve.poll() is None:
                serve.kill()

        journal = SweepJournal(cache_dir / "journal")
        _, completed_before, _ = journal.load("kill1")
        done_before = len(completed_before)

        serve2, port2 = start_serve(cache_dir)
        try:
            with SweepServiceClient(port=port2, timeout=120) as client:
                resumed = client.submit_collect(
                    {"resume": True, "request_id": "kill1"})
        finally:
            serve2.send_signal(signal.SIGTERM)
            try:
                serve2.wait(timeout=30)
            except subprocess.TimeoutExpired:
                serve2.kill()
        done = resumed["done"]
        assert resumed["events"][0]["resumed"] is True
        # Zero journaled cells re-simulated: everything the first run
        # journaled is answered from cache, the rest simulates fresh.
        assert done["journal_skipped"] == done_before
        assert done["simulated_cells"] <= KILL_CELLS - done_before
        assert done["simulated_cells"] + done["cache_hits"] == KILL_CELLS
        assert done["journal_done"] == KILL_CELLS


def _children(pid):
    """Pids whose parent is ``pid`` (read from ``/proc``)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def _running(pid):
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
class TestServeSigterm:
    def test_sigterm_stops_server_and_pool_workers(self, tmp_path):
        serve, port = start_serve(tmp_path / "cells", workers=2)
        try:
            with SweepServiceClient(port=port, timeout=120) as client:
                client.submit_collect({"spec": TINY_SPEC})
            workers = _children(serve.pid)
            assert workers, "the cold request never started a pool worker"
            serve.send_signal(signal.SIGTERM)
            returncode = serve.wait(timeout=30)
        finally:
            if serve.poll() is None:
                serve.kill()
        deadline = time.monotonic() + 10.0
        while any(_running(pid) for pid in workers) \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        orphans = [pid for pid in workers if _running(pid)]
        for pid in orphans:  # do not leak them past a failing run
            os.kill(pid, signal.SIGKILL)
        assert orphans == []
        assert returncode == 0
