"""Sweep server HTTP API: submission, polling, streaming, stats."""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.request import urlopen

import pytest

from repro.errors import ConfigurationError
from repro.jobspec import task_from_spec
from repro.runtime import ResultCache, SimTask
from repro.serve import ServeClient, ServeError, SweepServer, parse_submit
from repro.serve.server import MAX_BODY_BYTES
from tests.conftest import tiny_job


def _tiny_tasks(systems=("none", "recomputation")):
    job = tiny_job()
    return [SimTask(label=f"serve/{system}", job=job, system=system)
            for system in systems]


def _raw_request(server, method, path, headers=()):
    """Send a request with exactly ``headers`` and no body."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.putrequest(method, path)
        for name, value in headers:
            conn.putheader(name, value)
        conn.endheaders()
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


@pytest.fixture
def server():
    srv = SweepServer(port=0, jobs=2).start()
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    return ServeClient(server.url, timeout=30.0)


# -- request schemas ---------------------------------------------------------


class TestParseSubmit:
    def test_tasks_body(self):
        request = parse_submit({
            "tenant": "alice",
            "priority": 2,
            "tasks": [{"model": "bert-0.35", "server": "dgx1",
                       "system": "mpress"}],
        })
        assert request.tenant == "alice"
        assert request.priority == 2
        assert len(request.tasks) == 1
        assert request.tasks[0].system == "mpress"

    def test_preset_body(self):
        request = parse_submit({"preset": "hybrid-dgx1"})
        assert request.tenant == "default"
        assert len(request.tasks) == 3

    def test_needs_exactly_one_of_preset_or_tasks(self):
        with pytest.raises(ConfigurationError):
            parse_submit({"tenant": "a"})
        with pytest.raises(ConfigurationError):
            parse_submit({"preset": "fig7", "tasks": []})

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            parse_submit({"preset": "fig7", "shard": 3})

    def test_rejects_bad_tenant_and_priority(self):
        with pytest.raises(ConfigurationError):
            parse_submit({"preset": "fig7", "tenant": ""})
        with pytest.raises(ConfigurationError):
            parse_submit({"preset": "fig7", "priority": "high"})

    def test_rejects_empty_task_list(self):
        with pytest.raises(ConfigurationError):
            parse_submit({"tasks": []})


class TestTaskFromSpec:
    def test_plain_task(self):
        task = task_from_spec({"model": "bert-0.35", "server": "dgx1"})
        assert task.system == "mpress"
        assert task.label == "bert-0.35/dgx1/mpress"
        assert task.cluster is None and task.hybrid is None

    def test_system_label_and_faults(self):
        task = task_from_spec({
            "model": "bert-0.64", "server": "dgx1",
            "system": "recomputation", "faults_seed": 7,
            "faults_horizon": 10.0, "label": "named",
        })
        assert task.label == "named"
        assert task.faults is not None and len(task.faults) > 0

    def test_faults_seed_is_deterministic(self):
        spec = {"model": "bert-0.64", "server": "dgx1",
                "system": "recomputation", "faults_seed": 3}
        assert (task_from_spec(spec).cache_key()
                == task_from_spec(spec).cache_key())

    def test_cluster_spec_lowers_to_cluster_task(self):
        task = task_from_spec({
            "model": "gpt-5.3", "server": "dgx1", "nodes": 2,
            "tp": 2, "dp": 2, "pp": 2, "system": "mpress",
        })
        assert task.cluster is not None
        assert task.cluster_config.tp == 2
        assert "tp=2" in task.label

    def test_hybrid_spec(self):
        task = task_from_spec({
            "model": "bert-0.35", "server": "dgx1",
            "system": "recomputation", "hybrid_dp": 2,
        })
        assert task.hybrid is not None and task.hybrid.dp == 2

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            task_from_spec({"model": "bert-0.35", "server": "dgx1",
                            "sustem": "mpress"})

    def test_spec_key_matches_direct_construction(self):
        # The HTTP deserialization path must hit the same cache
        # entries as tasks built in python.
        from repro.hardware.server import dgx1_server
        from repro.job import pipedream_job
        from repro.models import bert_variant

        direct = SimTask(label="x", job=pipedream_job(
            bert_variant(0.35), dgx1_server()), system="recomputation")
        spec = task_from_spec({"model": "bert-0.35", "server": "dgx1",
                               "system": "recomputation"})
        assert direct.cache_key() == spec.cache_key()


# -- HTTP endpoints ----------------------------------------------------------


class TestEndpoints:
    def test_health(self, client):
        assert client.health()["ok"] is True

    def test_unknown_endpoint_is_404(self, server, client):
        with pytest.raises(ServeError) as info:
            client._request("/v1/nope")
        assert info.value.status == 404

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServeError) as info:
            client.job("j999999")
        assert info.value.status == 404

    def test_invalid_submit_is_400(self, client):
        with pytest.raises(ServeError) as info:
            client.submit(tasks=[{"model": "bert-0.35"}])  # missing server
        assert info.value.status == 400
        assert "server" in str(info.value)

    def test_invalid_json_body_is_400(self, client):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            f"{client.base_url}/v1/jobs", data=b"{nope",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400

    def test_malformed_content_length_is_400(self, server, client):
        for length in ("abc", "-5"):
            status, payload = _raw_request(server, "POST", "/v1/jobs",
                                           [("Content-Length", length)])
            assert status == 400, length
            assert "Content-Length" in payload["error"]
        assert client.health()["ok"] is True

    def test_oversized_body_is_413(self, server, client):
        # The cap is checked before the body is read, so no body is sent.
        status, payload = _raw_request(
            server, "POST", "/v1/jobs",
            [("Content-Length", str(MAX_BODY_BYTES + 1))])
        assert status == 413
        assert str(MAX_BODY_BYTES) in payload["error"]
        assert client.health()["ok"] is True

    def test_malformed_wait_timeout_is_400(self, server):
        job = server.submit("alice", 0, _tiny_tasks(("none",)))
        for timeout in ("abc", "nan", "inf", "-1"):
            status, payload = _raw_request(
                server, "GET", f"/v1/jobs/{job.id}/wait?timeout={timeout}")
            assert status == 400, timeout
            assert "timeout" in payload["error"]

    def test_submit_poll_wait_lifecycle(self, server, client):
        job = server.submit("alice", 0, _tiny_tasks())
        detail = client.wait(job.id, timeout=60.0, results="full")
        assert detail["status"] == "done"
        assert detail["total"] == 2 and detail["done"] == 2
        assert detail["failed"] == 0
        assert [row["label"] for row in detail["tasks"]] \
            == ["serve/none", "serve/recomputation"]
        assert all(row["ok"] for row in detail["tasks"])
        assert all(record["ok"] for record in detail["records"])

    def test_results_levels(self, server, client):
        job = server.submit("alice", 0, _tiny_tasks(("none",)))
        client.wait(job.id, timeout=60.0)
        assert "tasks" not in client.job(job.id, results="none")
        summary = client.job(job.id, results="summary")
        assert "tasks" in summary and "records" not in summary
        assert "records" in client.job(job.id, results="full")

    def test_bad_results_level_is_400(self, server, client):
        job = server.submit("alice", 0, _tiny_tasks(("none",)))
        with pytest.raises(ServeError) as info:
            client.job(job.id, results="everything")
        assert info.value.status == 400

    def test_jobs_listing(self, server, client):
        first = server.submit("alice", 0, _tiny_tasks(("none",)))
        second = server.submit("bob", 1, _tiny_tasks(("none",)))
        listed = {row["id"]: row for row in client.jobs()}
        assert set(listed) >= {first.id, second.id}
        assert listed[second.id]["tenant"] == "bob"
        assert listed[second.id]["priority"] == 1

    def test_http_submit_runs_real_spec(self, client):
        # End-to-end through deserialization: one real DGX-1 cell.
        job_id = client.submit(
            tasks=[{"model": "bert-0.35", "server": "dgx1",
                    "system": "none"}],
            tenant="alice")
        detail = client.wait(job_id, timeout=120.0, results="full")
        assert detail["status"] == "done" and detail["failed"] == 0
        assert detail["records"][0]["system"] == "none"

    def test_events_stream_reports_progress_to_completion(self, server,
                                                          client):
        job = server.submit("alice", 0, _tiny_tasks())
        events = list(client.events(job.id, timeout=60.0))
        assert events, "stream produced no events"
        assert events[-1]["status"] == "done"
        assert events[-1]["done"] == 2
        # Versions are monotonically increasing along the stream.
        versions = [event["version"] for event in events]
        assert versions == sorted(versions)

    def test_events_client_leaving_mid_stream_is_quiet(self, server,
                                                       client, capsys):
        """A client that resets the connection after the first event
        costs the server nothing: the job completes, later requests
        are answered, and no traceback reaches stderr."""
        gate = threading.Event()
        execute = server.backend.execute

        def gated(task):
            gate.wait(timeout=60)
            return execute(task)

        server.backend.execute = gated   # hold the job until the client leaves
        job = server.submit("alice", 0, _tiny_tasks())
        sock = socket.create_connection((server.host, server.port),
                                        timeout=10)
        sock.sendall(f"GET /v1/jobs/{job.id}/events HTTP/1.1\r\n"
                     f"Host: {server.host}\r\n\r\n".encode("ascii"))
        reader = sock.makefile("rb")
        while reader.readline() not in (b"\r\n", b""):
            pass                                    # status + headers
        assert json.loads(reader.readline())["id"] == job.id
        # Linger 0: close with a reset, not a FIN.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
        reader.close()
        sock.close()
        gate.set()
        assert client.wait(job.id, timeout=120.0)["status"] == "done"
        assert client.health()["ok"]
        deadline = time.monotonic() + 10
        while any("process_request" in thread.name
                  for thread in threading.enumerate()):
            assert time.monotonic() < deadline, "a request handler hangs"
            time.sleep(0.05)
        assert "Traceback" not in capsys.readouterr().err

    def test_stats_shape(self, server, client):
        job = server.submit("alice", 0, _tiny_tasks(("none",)))
        client.wait(job.id, timeout=60.0)
        stats = client.stats()
        assert stats["backend"]["executed"] >= 1
        assert stats["tenants"]["alice"]["tasks"] >= 1
        assert stats["jobs"]["total"] >= 1
        assert stats["cache"] is None       # this server has no cache
        assert "backlog" in stats["scheduler"]

    def test_wait_timeout_returns_current_state(self, server):
        # A zero-ish timeout long-poll answers immediately with the
        # job still queued/running rather than hanging.
        job = server.submit("alice", 0, _tiny_tasks())
        with urlopen(f"{server.url}/v1/jobs/{job.id}/wait?timeout=0.01",
                     timeout=10) as response:
            payload = json.loads(response.read())
        assert payload["id"] == job.id
        assert payload["status"] in ("queued", "running", "done")


class TestSharedCache:
    def test_warm_repeat_is_served_from_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        server = SweepServer(port=0, jobs=2, cache=cache).start()
        try:
            client = ServeClient(server.url)
            tasks = _tiny_tasks()
            cold = client.wait(server.submit("alice", 0, tasks).id,
                               timeout=60.0, results="full")
            warm = client.wait(server.submit("bob", 0, tasks).id,
                               timeout=60.0, results="full")
            assert cold["executed"] == 2 and cold["cached"] == 0
            assert warm["executed"] == 0 and warm["cached"] == 2
            assert json.dumps(cold["records"], sort_keys=True) \
                == json.dumps(warm["records"], sort_keys=True)
            stats = server.stats()
            assert stats["cache"]["hits"] == 2
            assert stats["cache"]["hit_rate"] == 0.5
        finally:
            server.stop()

    def test_submit_validation(self, server):
        with pytest.raises(ConfigurationError):
            server.submit("alice", 0, [])


class TestRemoteSweep:
    def test_grid_specs_are_grid_ordered(self):
        from repro.analysis import remote_sweep_specs

        specs = remote_sweep_specs(["bert-0.35", "bert-0.64"],
                                   ["none", "mpress"])
        assert [s["label"] for s in specs] == [
            "bert-0.35/none", "bert-0.35/mpress",
            "bert-0.64/none", "bert-0.64/mpress",
        ]
        assert all(s["server"] == "dgx1" for s in specs)

    def test_remote_sweep_returns_cells(self, server):
        from repro.analysis import remote_sweep

        report = remote_sweep(server.url, ["bert-0.35"], ["none"],
                              timeout=120.0)
        assert report.failed == 0
        assert report.executed == 1
        cell = report.cells[0]
        assert (cell.model, cell.system) == ("bert-0.35", "none")
        assert cell.ok and cell.tflops > 0


# -- process lifecycle -------------------------------------------------------


def _children(pid):
    """PIDs whose parent is ``pid`` (read from /proc)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def _alive(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
class TestShutdown:
    def test_sigterm_stops_server_and_pool_workers(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "2", "--quiet"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env,
        )
        workers = []
        try:
            match = re.search(r"listening on (http://\S+)",
                              proc.stdout.readline())
            assert match, "server did not announce its URL"
            client = ServeClient(match.group(1), timeout=60.0)
            # One real task makes the executor fork its pool.
            job_id = client.submit(tasks=[{"model": "bert-0.35",
                                           "server": "dgx1",
                                           "system": "none"}])
            assert client.wait(job_id, timeout=120.0)["status"] == "done"
            workers = _children(proc.pid)
            assert len(workers) == 2, workers

            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
            deadline = time.monotonic() + 10
            while any(map(_alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not [pid for pid in workers if _alive(pid)]
        finally:
            for pid in [proc.pid] + workers:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
            proc.wait(timeout=10)
            proc.stdout.close()
