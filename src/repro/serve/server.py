"""The sweep server: planning-as-a-service over stdlib HTTP.

``repro serve`` boots one :class:`SweepServer`: a ThreadingHTTPServer
front end, ``jobs`` dispatcher threads pulling task units from a
:class:`~repro.serve.scheduler.FairShareScheduler`, and one shared
:class:`~repro.runtime.pool.TaskExecutor` (persistent process pool,
shared result cache, in-flight coalescing).  Every sweep preset and
job spec the CLI understands is thereby a network workload.

API (all JSON; see docs/serving.md):

* ``GET  /healthz`` — liveness.
* ``POST /v1/jobs`` — submit a preset or task list; returns the job id.
* ``GET  /v1/jobs`` — job summaries.
* ``GET  /v1/jobs/<id>?results=none|summary|full`` — status, per-task
  progress, and (with ``full``) the simulation records.
* ``GET  /v1/jobs/<id>/wait?timeout=S&results=...`` — long-poll until
  the job completes (or the timeout lapses), then the same payload.
  ``S`` must be a finite number of seconds >= 0.
* ``GET  /v1/jobs/<id>/events`` — newline-delimited JSON progress
  stream, one summary per state change, closing when the job is done.
* ``GET  /v1/stats`` — backend counters, cache stats (hit rate,
  evictions), per-tenant accounting, scheduler backlog.

A malformed request is answered 400 (or 413 for a body over
``MAX_BODY_BYTES``), never with a dropped connection.
"""

from __future__ import annotations

import json
import math
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Sequence
from urllib.parse import parse_qs, urlparse

from repro.errors import ConfigurationError
from repro.runtime.cache import ResultCache
from repro.runtime.pool import TaskExecutor, TaskOutcome
from repro.runtime.task import SimTask
from repro.serve.scheduler import FairShareScheduler, TaskUnit
from repro.serve.schemas import parse_submit
from repro.serve.state import JobRegistry, JobState

_RESULT_LEVELS = ("none", "summary", "full")

# Largest accepted POST body; a job of a few thousand task specs fits.
MAX_BODY_BYTES = 8 * 2**20


class SweepServer:
    """Long-running multi-tenant sweep service (see module docstring)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 jobs: int = 1, cache: Optional[ResultCache] = None,
                 retries: int = 2, verbose: bool = False):
        if jobs < 1:
            raise ConfigurationError("server jobs must be >= 1")
        self.jobs = jobs
        self.backend = TaskExecutor(workers=jobs, cache=cache,
                                    retries=retries)
        self.scheduler = FairShareScheduler()
        self.registry = JobRegistry()
        self.verbose = verbose
        self.started = time.time()
        self._stopping = threading.Event()
        self._dispatchers: List[threading.Thread] = []
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.sweep_server = self
        self._http_thread: Optional[threading.Thread] = None

    # -- addressing --------------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "SweepServer":
        """Start dispatchers and the HTTP listener (non-blocking)."""
        for n in range(self.jobs):
            thread = threading.Thread(target=self._dispatch_loop,
                                      name=f"serve-dispatch-{n}",
                                      daemon=True)
            thread.start()
            self._dispatchers.append(thread)
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="serve-http", daemon=True)
        self._http_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting and executing; drains dispatchers."""
        self._stopping.set()
        self.scheduler.close()
        for thread in self._dispatchers:
            thread.join(timeout=30)
        self.backend.shutdown()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._http_thread is not None:
            self._http_thread.join(timeout=10)

    def serve_forever(self) -> None:
        """Block until SIGINT or SIGTERM, then stop (the CLI entry point).

        Called from the main thread, SIGTERM is routed into the same
        stop path as Ctrl-C for the duration of the call, so the pool
        workers are shut down rather than orphaned; the previous
        SIGTERM handler is restored on the way out.
        """
        previous = None
        try:
            if threading.current_thread() is threading.main_thread():
                previous = signal.signal(signal.SIGTERM, self._on_sigterm)
            while not self._stopping.is_set():
                time.sleep(0.5)
        except (KeyboardInterrupt, _Terminated):
            pass
        finally:
            self.stop()
            if previous is not None:
                signal.signal(signal.SIGTERM, previous)

    def _on_sigterm(self, signum, frame) -> None:
        # A SIGTERM arriving while stop() already runs must not cut
        # the shutdown short.
        if not self._stopping.is_set():
            raise _Terminated

    # -- submission --------------------------------------------------------

    def submit(self, tenant: str, priority: int,
               tasks: Sequence[SimTask]) -> JobState:
        """Accept one job: register it and enqueue its task units."""
        if self._stopping.is_set():
            raise ConfigurationError("server is shutting down")
        if not tasks:
            raise ConfigurationError("a job needs at least one task")
        job = self.registry.create(tenant, priority, tasks)
        self.scheduler.submit([
            TaskUnit(tenant=tenant, job_id=job.id, index=index, task=task,
                     priority=priority)
            for index, task in enumerate(tasks)
        ])
        return job

    # -- dispatch ----------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            unit = self.scheduler.next_unit()
            if unit is None:
                return
            self.registry.mark_running(unit.job_id, unit.index)
            try:
                outcome = self.backend.execute(unit.task)
            except Exception as exc:    # noqa: BLE001 — server must survive
                outcome = TaskOutcome(
                    task=unit.task, record=None, source="error",
                    error=f"{type(exc).__name__}: {exc}")
            self.registry.record(unit.job_id, unit.index, outcome)

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict:
        cache = self.backend.cache
        summaries = self.registry.summaries()
        return {
            "server": {
                "started": self.started,
                "uptime": time.time() - self.started,
                "jobs_slots": self.jobs,
            },
            "backend": self.backend.counters(),
            "cache": cache.stats_dict() if cache is not None else None,
            "scheduler": {
                "backlog": self.scheduler.backlog(),
                "service": self.scheduler.service(),
            },
            "tenants": self.registry.tenants(),
            "jobs": {
                "total": len(summaries),
                "done": sum(1 for s in summaries if s["status"] == "done"),
                "running": sum(1 for s in summaries
                               if s["status"] == "running"),
                "queued": sum(1 for s in summaries
                              if s["status"] == "queued"),
            },
        }


class _Terminated(Exception):
    """Raised by the SIGTERM handler to leave :meth:`SweepServer.serve_forever`."""


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"

    @property
    def sweep(self) -> SweepServer:
        return self.server.sweep_server

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.sweep.verbose:
            super().log_message(format, *args)

    # -- plumbing ----------------------------------------------------------

    def _send_json(self, payload, status: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def _query(self) -> Dict[str, str]:
        parsed = parse_qs(urlparse(self.path).query)
        return {key: values[-1] for key, values in parsed.items()}

    def _results_level(self, query: Dict[str, str], default="summary"):
        level = query.get("results", default)
        if level not in _RESULT_LEVELS:
            raise ConfigurationError(
                f"results must be one of {_RESULT_LEVELS}")
        return level

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        path = urlparse(self.path).path.rstrip("/")
        try:
            if path == "/healthz":
                self._send_json({"ok": True, "service": "repro-serve"})
            elif path == "/v1/stats":
                self._send_json(self.sweep.stats())
            elif path == "/v1/jobs":
                self._send_json({"jobs": self.sweep.registry.summaries()})
            elif path.startswith("/v1/jobs/"):
                self._get_job(path[len("/v1/jobs/"):])
            else:
                self._send_error_json(404, f"no such endpoint: {path}")
        except ConfigurationError as error:
            self._send_error_json(400, str(error))
        except BrokenPipeError:     # pragma: no cover — client went away
            self.close_connection = True

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        path = urlparse(self.path).path.rstrip("/")
        try:
            if path == "/v1/jobs":
                self._submit_job()
            else:
                self._send_error_json(404, f"no such endpoint: {path}")
        except ConfigurationError as error:
            self._send_error_json(400, str(error))
        except BrokenPipeError:     # pragma: no cover — client went away
            self.close_connection = True

    def _submit_job(self) -> None:
        declared = (self.headers.get("Content-Length") or "0").strip()
        length = int(declared) if declared.isdecimal() else -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # The body stays unread, so this connection cannot carry
            # another request.
            self.close_connection = True
            if length < 0:
                raise ConfigurationError(
                    f"invalid Content-Length: {declared!r}")
            self._send_error_json(
                413, f"request body exceeds {MAX_BODY_BYTES} bytes")
            return
        raw = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(raw.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ConfigurationError(f"invalid JSON body ({error})")
        request = parse_submit(payload)
        job = self.sweep.submit(request.tenant, request.priority,
                                request.tasks)
        self._send_json(job.summary(), status=202)

    def _get_job(self, tail: str) -> None:
        query = self._query()
        parts = tail.split("/")
        job_id = parts[0]
        action = parts[1] if len(parts) > 1 else None
        registry = self.sweep.registry
        if registry.get(job_id) is None:
            self._send_error_json(404, f"no such job: {job_id}")
            return
        if action is None:
            level = self._results_level(query)
            self._send_json(registry.detail(job_id, results=level))
        elif action == "wait":
            timeout = _parse_timeout(query.get("timeout", "60"))
            registry.wait(job_id, until_done=True, timeout=timeout)
            level = self._results_level(query)
            self._send_json(registry.detail(job_id, results=level))
        elif action == "events":
            self._stream_events(job_id)
        else:
            self._send_error_json(404, f"no such job action: {action}")

    def _stream_events(self, job_id: str) -> None:
        """Newline-delimited JSON progress stream until the job is done.

        Close-delimited (``Connection: close``, no Content-Length), so
        any HTTP client that can read lines can follow progress.  A
        client that goes away ends the stream quietly; the job runs on.
        """
        registry = self.sweep.registry
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        version = -1
        while True:
            summary = registry.wait(job_id, after_version=version,
                                    timeout=0.5)
            if summary is None:     # pragma: no cover — job vanished
                return
            if summary["version"] > version or summary["status"] == "done":
                try:
                    self.wfile.write(
                        (json.dumps(summary, sort_keys=True) + "\n")
                        .encode("utf-8"))
                    self.wfile.flush()
                except (BrokenPipeError, ConnectionResetError):
                    return
                version = summary["version"]
                if summary["status"] == "done":
                    return
            if self.sweep._stopping.is_set():
                return


def _parse_timeout(raw: str) -> float:
    try:
        timeout = float(raw)
    except ValueError:
        timeout = -1.0
    if not 0 <= timeout < math.inf:     # also rejects nan
        raise ConfigurationError(
            f"timeout must be a finite number of seconds >= 0, not {raw!r}")
    return timeout


def serve(host: str = "127.0.0.1", port: int = 8787, jobs: int = 1,
          cache: Optional[ResultCache] = None, retries: int = 2,
          verbose: bool = False) -> SweepServer:
    """Build and start a server (the programmatic entry point)."""
    server = SweepServer(host=host, port=port, jobs=jobs, cache=cache,
                         retries=retries, verbose=verbose)
    return server.start()
