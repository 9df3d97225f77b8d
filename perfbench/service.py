"""sweep-service: a closed-loop load on ``repro serve --jobs 1``.

Two tenants, each on one keep-alive HTTP connection, submit one task
per job and wait on ``/wait`` before the next submission, the way
sweep callers use the service.  The server runs in its own process
group, so stopping it also stops its worker pool.

The simulations run in the server's pool worker, where the benchmark
cannot put a probe.  So the server tree is pinned to one CPU, and a
probe process pinned to the same CPU samples its speed while the load
runs.  (A probe in the client itself measured the client's GIL
contention instead.)
"""

from __future__ import annotations

import http.client
import json
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

import calib
import inputs
from stats import describe, percentile

SETUP_BOOTS = 3
_BOOT_TIMEOUT_S = 60.0
_JOB_TIMEOUT_S = 120.0


class Server:
    """One ``repro serve`` subprocess with its own cache directory."""

    def __init__(self, cache_dir: str, env: Dict[str, str], cpu: int):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "1", "--cache", cache_dir, "--quiet"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, start_new_session=True)
        # The pool worker, forked after the server's imports, inherits it.
        calib.pin(self.proc, cpu)
        self.host, self.port = self._read_address()
        self.boot_s = self._await_healthy()

    def _read_address(self) -> Tuple[str, int]:
        line = self.proc.stdout.readline()
        match = re.search(r"listening on http://([^:\s]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not announce its address: {line!r}")
        return match.group(1), int(match.group(2))

    def _await_healthy(self) -> float:
        deadline = self.start + _BOOT_TIMEOUT_S
        while time.perf_counter() < deadline:
            try:
                if self.connection().get("/healthz").get("ok"):
                    return time.perf_counter() - self.start
            except OSError:
                time.sleep(0.005)
        self.stop()
        raise RuntimeError("server never reported healthy")

    def connection(self) -> "Connection":
        return Connection(self.host, self.port)

    def stop(self) -> None:
        """SIGINT runs the server's own shutdown; whatever is left of
        its process group is killed, and every member waited for."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                pass
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            if self.proc.poll() is None:
                self.proc.wait(timeout=5)
            time.sleep(0.05)
        self.proc.wait()
        self.proc.stdout.close()


class Connection:
    """One keep-alive HTTP/1.1 connection speaking JSON."""

    def __init__(self, host: str, port: int):
        self.http = http.client.HTTPConnection(host, port,
                                               timeout=_JOB_TIMEOUT_S + 30)

    def _call(self, method: str, path: str, body=None) -> Dict:
        # Bytes, so http.client sends headers and body in one segment.
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.http.request(method, path, body=payload, headers=headers)
        response = self.http.getresponse()
        data = response.read()
        if not 200 <= response.status < 300:
            raise RuntimeError(f"{method} {path}: HTTP {response.status} {data!r}")
        return json.loads(data)

    def get(self, path: str) -> Dict:
        return self._call("GET", path)

    def post(self, path: str, body: Dict) -> Dict:
        return self._call("POST", path, body)

    def run_job(self, tenant: str, specs: List[Dict]) -> Tuple[Dict, float, float]:
        """Submit and wait; returns (detail, submit_s, wait_s)."""
        start = time.perf_counter()
        job_id = self.post("/v1/jobs", {"tenant": tenant, "tasks": specs})["id"]
        submitted = time.perf_counter()
        deadline = submitted + _JOB_TIMEOUT_S
        while True:
            detail = self.get(f"/v1/jobs/{job_id}/wait?timeout=30&results=full")
            if detail["status"] == "done" or time.perf_counter() > deadline:
                break
        return detail, submitted - start, time.perf_counter() - submitted

    def close(self) -> None:
        self.http.close()


def _tenant_loop(server: Server, tenant: str, plan: List[Dict],
                 deadline: float, out: List[Dict]) -> None:
    conn = server.connection()
    try:
        for spec in plan:
            if time.perf_counter() >= deadline:
                break
            try:
                detail, submit_s, wait_s = conn.run_job(tenant, [spec])
                out.append({"spec": spec, "detail": detail,
                            "submit_s": submit_s, "wait_s": wait_s})
            except (OSError, RuntimeError, ValueError,
                    http.client.HTTPException) as error:
                out.append({"spec": spec, "error": repr(error)})
    finally:
        conn.close()


def run(workdir: str, env: Dict[str, str], seed: int, seconds: float) -> Dict:
    """Boot, warm, load for ``seconds``, check; returns raw figures."""
    boots: List[float] = []
    server = prober = None
    cpu = max(os.sched_getaffinity(0))
    try:
        for boot in range(SETUP_BOOTS):
            server = Server(os.path.join(workdir, f"cache{boot}"), env, cpu)
            boots.append(server.boot_s)
            if boot < SETUP_BOOTS - 1:
                server.stop()
                server = None
        conn = server.connection()
        warm, _, _ = conn.run_job("warmup", inputs.warmup_specs())
        before = conn.get("/v1/stats")
        conn.close()

        plans = inputs.service_mix(seed)
        results: List[List[Dict]] = [[] for _ in plans]
        prober = calib.Prober(cpu)
        start = time.perf_counter()
        deadline = start + seconds
        threads = [threading.Thread(target=_tenant_loop,
                                    args=(server, f"tenant{t}", plans[t],
                                          deadline, results[t]))
                   for t in range(len(plans))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        probes, prober = prober.stop(), None
        conn = server.connection()
        after = conn.get("/v1/stats")
        conn.close()
    finally:
        if prober is not None:
            prober.stop()
        if server is not None:
            server.stop()
    rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    jobs = [job for tenant in results for job in tenant]
    return {
        "boots_s": boots,
        "warm_errors": [t["error"] for t in warm["tasks"] if t["error"]],
        "jobs": jobs,
        "elapsed_s": elapsed,
        "probe_s": probes,
        "stats_before": before,
        "stats_after": after,
        "rss_mib": rss_mib,
    }


def check(raw: Dict) -> Tuple[List[str], int]:
    """Output checks; returns (failures, failed job count)."""
    from repro.jobspec import task_from_spec

    failures: List[str] = []
    failed = 0
    first: Dict[str, str] = {}      # cache key -> its first record
    for job in raw["jobs"]:
        detail = job.get("detail")
        if detail is None:
            failed += 1
            failures.append(f"job raised: {job['error']}")
            continue
        if detail["status"] != "done" or detail["failed"]:
            failed += 1
            failures.append(f"job {detail['id']} ended {detail['status']} "
                            f"with {detail['failed']} failed tasks")
            continue
        key = task_from_spec(job["spec"]).cache_key()
        record = json.dumps(detail["records"][0], sort_keys=True)
        if first.setdefault(key, record) != record:
            failed += 1
            failures.append(f"repeated key returned a different record: {key}")
    if raw["warm_errors"]:
        failures.append(f"warm-up job failed: {raw['warm_errors']}")
    executed = (raw["stats_after"]["backend"]["executed"]
                - raw["stats_before"]["backend"]["executed"])
    warm = {task_from_spec(spec).cache_key() for spec in inputs.warmup_specs()}
    fresh = set(first) - warm
    if executed != len(fresh):
        failures.append(f"server executed {executed} tasks for "
                        f"{len(fresh)} distinct new keys")
    return failures, failed


def figures(raw: Dict) -> Dict:
    """Host-side and per-layer figures of one service run.  With no
    completed job there is no latency to report: the timing figures
    are left out, which makes the run incorrect."""
    speed = calib.speed_factor(raw["probe_s"])
    done = [job for job in raw["jobs"] if "detail" in job]
    b0, b1 = raw["stats_before"]["backend"], raw["stats_after"]["backend"]
    c0, c1 = raw["stats_before"]["cache"], raw["stats_after"]["cache"]
    hits = c1["hits"] - c0["hits"]
    lookups = hits + c1["misses"] - c0["misses"]
    out = {
        "speed": speed,
        "setup_s": statistics.median(raw["boots_s"]) / speed,
        "rss_mib": raw["rss_mib"],
        "n": len(done),
        "layers": {
            # Load-phase deltas, except the cache's size at the end.
            "serve.executed": b1["executed"] - b0["executed"],
            "serve.cached": b1["cache_hits"] - b0["cache_hits"],
            "serve.coalesced": b1["coalesced"] - b0["coalesced"],
            "serve.failed": sum(j["detail"]["failed"] for j in done),
            "serve.backend.failures": b1["failures"] - b0["failures"],
            "serve.backend.pool_generations":
                b1["pool_generations"] - b0["pool_generations"],
            "runtime.cache.hit_ratio": hits / lookups if lookups else 0.0,
            "runtime.cache.entries": c1["entries"],
            "runtime.cache.bytes": c1["total_bytes"],
        },
    }
    if not done:
        return out
    latencies = [(job["submit_s"] + job["wait_s"]) * 1e3 for job in done]
    out.update({
        "latency_raw_ms": statistics.median(latencies),
        "latency_ms": statistics.median(latencies) / speed,
        "latency_summary": describe([ms / speed for ms in latencies]),
        "ops_per_s": len(done) / raw["elapsed_s"] * speed,
    })
    out["layers"].update({
        "serve.submit_ms": statistics.median(j["submit_s"] * 1e3 for j in done),
        "serve.wait_ms": statistics.median(j["wait_s"] * 1e3 for j in done),
        "serve.job_p90_ms": percentile(latencies, 90),
    })
    return out
