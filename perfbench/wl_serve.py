"""The ``serve`` workload: a warm ``repro serve`` under a closed loop.

Set-up starts a ``repro serve`` child process on a small world (the
CLI's defaults apart from the world size and corpus cap below, and
``--seed`` when the run names a world seed), waits
for it to listen, and requests every one of its 254 distinct resources
once: ``/tables/1..11`` plus every ``category x source x destination``
``/influence`` filter.  Those warm-up bodies and ETags are the expected
outputs.  Set-up is repeated and every server but the last is stopped.

The timed part is a series of bursts of a fixed number of requests.
One client keeps one keep-alive connection, a closed loop (the next
request leaves when the previous reply is read).  The
traffic is a Zipf mix over the 254 resources, popularity falling in
their listed order, drawn from the run's seed; about 30% carry
``If-None-Match`` with the resource's ETag and expect 304, and every
``METRICS_EVERY``-th request scrapes ``/metrics``.  Replies are checked
after each burst: every 200 body equals that resource's warm-up body
with the same ETag, every 304 is empty.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import select
import signal
import statistics
import subprocess
import sys
from time import perf_counter
from urllib.parse import urlencode

import benchstats
from common import (
    ROOT,
    Outcome,
    RunSpec,
    child_env,
    peak_rss_mb,
    reset_peak_rss,
)
from spans import Tracer

#: World size and corpus cap of the served study (the CI serve smoke's).
SERVE_FLAGS = ("--stories-alt", "60", "--stories-main", "150",
               "--twitter-users", "80", "--reddit-users", "70",
               "--max-urls", "8")
SETUP_REPEATS = 3
#: Server and client share one CPU.  Both are bound by one interpreter
#: lock each; on separate CPUs every reply crosses CPUs to wake the
#: waiting side, which made the rate vary up to twofold between runs.
#: On that one CPU a second connection adds no capacity, only a second
#: client thread contending for the client's interpreter lock.
CPU = {min(os.sched_getaffinity(0))}
BURST_REQUESTS = 3000
CONDITIONAL_SHARE = 0.3
METRICS_EVERY = 50
ZIPF_EXPONENT = 1.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
REQUEST_TIMEOUT_S = 30.0


def resources() -> list[str]:
    """Every distinct cacheable resource the service answers."""
    from repro.config import HAWKES_PROCESSES
    paths = [f"/tables/{table}" for table in range(1, 12)]
    for category in (None, "alternative", "mainstream"):
        for source in (None, *HAWKES_PROCESSES):
            for destination in (None, *HAWKES_PROCESSES):
                query = {name: value for name, value in (
                    ("category", category), ("source", source),
                    ("destination", destination)) if value is not None}
                paths.append("/influence"
                             + (f"?{urlencode(query)}" if query else ""))
    return paths


class Server:
    """A ``repro serve`` child process on an ephemeral port."""

    def __init__(self, spec: RunSpec) -> None:
        self._log = open(spec.work / "serve.err", "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *spec.world_flags(),
             "--port", "0", *SERVE_FLAGS],
            stdout=subprocess.PIPE, stderr=self._log, env=child_env(),
            cwd=ROOT)
        # Before the interpreter has started any thread: all inherit it.
        os.sched_setaffinity(self.proc.pid, CPU)
        try:
            line = self._first_line()
            match = re.search(r"http://([^/:]+):(\d+)/", line)
            if match is None:
                raise RuntimeError(f"unexpected serve banner {line!r}")
        except Exception:
            self.stop()
            raise
        self.host, self.port = match.group(1), int(match.group(2))

    def _first_line(self) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    START_TIMEOUT_S)
        if not ready:
            raise RuntimeError("repro serve did not start listening")
        return self.proc.stdout.readline().decode("utf-8", "replace")

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
            code = code if code != 0 else -1
        self.proc.stdout.close()
        self._log.close()
        return code


class Connection:
    """One keep-alive HTTP/1.1 connection of the client."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port,
                                               timeout=REQUEST_TIMEOUT_S)

    def get(self, path: str, etag: str | None = None):
        """(status, ETag, body); a transport failure gives status None."""
        headers = {"If-None-Match": etag} if etag else {}
        try:
            self.conn.request("GET", path, headers=headers)
            response = self.conn.getresponse()
            body = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()
            return None, None, f"{type(exc).__name__}: {exc}".encode()
        return response.status, response.getheader("ETag"), body

    def close(self) -> None:
        self.conn.close()


def _plan(seed: int, burst: int, paths: list[str]) -> list[tuple[str, bool]]:
    """The seeded request mix of one burst: (path, conditional) pairs."""
    rng = random.Random(f"serve:{seed}:{burst}")
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT
               for rank in range(len(paths))]
    chosen = rng.choices(paths, weights=weights, k=BURST_REQUESTS)
    plan = []
    for i, path in enumerate(chosen):
        if i % METRICS_EVERY == METRICS_EVERY - 1:
            plan.append(("/metrics", False))
        else:
            plan.append((path, rng.random() < CONDITIONAL_SHARE))
    return plan


def _burst(connection: Connection, plan, warm: dict,
           tracer: Tracer | None = None):
    """Run one burst; (wall seconds, latencies, replies) in plan order."""
    replies, latencies = [], []
    get = connection.get
    if tracer is not None:
        get = tracer.wrap(get, "request")
    began = perf_counter()
    for path, conditional in plan:
        etag = warm[path][0] if conditional else None
        start = perf_counter()
        replies.append(get(path, etag))
        latencies.append(perf_counter() - start)
    return perf_counter() - began, latencies, replies


def _check_replies(plan, replies, warm: dict, outcome: Outcome) -> int:
    """Count every wrong reply as a failed request; returns 304s seen."""
    not_modified = 0
    for (path, conditional), (status, etag, body) in zip(plan, replies):
        outcome.attempted += 1
        if path == "/metrics":
            ok = status == 200 and body.startswith(b"#")
        elif conditional:
            ok = status == 304 and body == b"" and etag == warm[path][0]
            not_modified += status == 304
        else:
            ok = status == 200 and (etag, body) == warm[path]
        if not ok:
            outcome.failed += 1
            if len(outcome.problems) < 10:
                outcome.problems.append(
                    f"GET {path} (conditional={conditional}) -> {status} "
                    f"{body[:120]!r}")
    return not_modified


def _handle_seconds(connection: Connection) -> tuple[float, int]:
    """Server-side request-handling seconds and count so far."""
    status, _, body = connection.get("/metrics?format=json")
    if status != 200:
        raise RuntimeError(f"/metrics?format=json -> {status}")
    family = json.loads(body)["metrics"]["repro_http_request_seconds"]
    return (sum(sample["sum"] for sample in family["samples"]),
            sum(sample["count"] for sample in family["samples"]))


def _start_warm(spec: RunSpec, paths: list[str], outcome: Outcome):
    """Start a server and fetch every resource once; (server, warm map)."""
    server = Server(spec)
    connection = Connection(server.host, server.port)
    warm = {}
    try:
        for path in paths:
            status, etag, body = connection.get(path)
            ok = status == 200 and etag is not None and bool(body)
            if outcome.check(ok, f"warm-up GET {path} -> {status} "
                                 f"{body[:120]!r}"):
                warm[path] = (etag, body)
    except BaseException:
        server.stop()
        raise
    finally:
        connection.close()
    return server, warm


def run(spec: RunSpec) -> Outcome:
    outcome = Outcome()
    paths = resources()
    setup, server = [], None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                outcome.check(server.stop() == 0,
                              "repro serve did not exit cleanly")
            start = perf_counter()
            server, warm = _start_warm(spec, paths, outcome)
            setup.append(perf_counter() - start)
        if outcome.failed:
            return outcome
        _measure(spec, server, paths, warm, outcome)
    finally:
        if server is not None:
            outcome.check(server.stop() == 0,
                          "repro serve did not exit cleanly")
    outcome.metrics["setup_s"] = benchstats.median(setup)
    outcome.samples["setup_s"] = setup
    outcome.sizes.update({"resources": len(paths),
                          "burst_requests": BURST_REQUESTS,
                          "connections": 1})
    return outcome


def _measure(spec: RunSpec, server: Server, paths: list[str], warm: dict,
             outcome: Outcome) -> None:
    probe = Connection(server.host, server.port)
    connection = Connection(server.host, server.port)
    own_cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, CPU)
    try:
        reset_peak_rss(server.proc.pid)
        handled_before = _handle_seconds(probe)
        walls, latencies, not_modified, requests = [], [], 0, 0
        began = perf_counter()
        while not walls or perf_counter() - began < spec.seconds:
            plan = _plan(spec.seed, len(walls), paths)
            wall, burst_latencies, replies = _burst(connection, plan, warm)
            walls.append(wall)
            latencies.extend(burst_latencies)
            requests += len(plan)
            not_modified += _check_replies(plan, replies, warm, outcome)
        handled_after = _handle_seconds(probe)
        peak = peak_rss_mb(server.proc.pid)

        handle_s = handled_after[0] - handled_before[0]
        handled = handled_after[1] - handled_before[1]
        outcome.check(len(latencies) >= 1000,
                      f"{len(latencies)} latency samples leave fewer than "
                      "ten beyond the p99")
        percentiles = statistics.quantiles(latencies, n=100,
                                           method="inclusive")
        wall = benchstats.median(walls)
        client_mean_ms = 1000.0 * sum(latencies) / len(latencies)
        handle_ms = 1000.0 * handle_s / handled if handled else 0.0
        outcome.metrics.update({
            "wall_s": wall,
            "peak_rss_mb": peak,
            "req_per_s": benchstats.median(
                [BURST_REQUESTS / w for w in walls]),
            "latency_p50_ms": 1000.0 * percentiles[49],
            "latency_p99_ms": 1000.0 * percentiles[98],
            "latency.samples": len(latencies),
            "service.handle_ms_mean": handle_ms,
            "http.overhead_ms": client_mean_ms - handle_ms,
            "responses.not_modified_ratio": not_modified / requests,
        })
        outcome.samples["wall_s"] = walls
        if spec.trace:
            traced = []
            began = perf_counter()
            while not traced or perf_counter() - began < spec.seconds:
                plan = _plan(spec.seed, len(traced), paths)
                burst_wall, _, replies = _burst(connection, plan, warm,
                                                Tracer())
                traced.append(burst_wall)
                _check_replies(plan, replies, warm, outcome)
            outcome.metrics["trace.overhead_s"] = (
                benchstats.median(traced) - wall)
    finally:
        os.sched_setaffinity(0, own_cpus)
        probe.close()
        connection.close()
