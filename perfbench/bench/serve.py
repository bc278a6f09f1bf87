"""``serve``: an HTTP/JSON closed loop against the real serving stack.

The stack runs in processes of its own: ``repro gateway --max-workers 2``
dispatching batches to one loopback ``repro-worker``.  The load generator
is this process, with two threads each holding one keep-alive
``http.client`` connection; each sends its next request only after the
previous reply's body is read.  Latency is client send -> body read.
"""

from __future__ import annotations

import http.client
import json
import re
import signal
import subprocess
import sys
import threading
import time

from . import common, generate
from .checks import AnalyticReference, check_http_reply

CLIENTS = 2
BOOTS = 3
READY_TIMEOUT_S = 60.0
_WORKER_READY = re.compile(r"repro-worker ready on (\S+:\d+)")
_GATEWAY_READY = re.compile(r"repro gateway ready on http://([\d.]+):(\d+)/")


class Stack:
    """One gateway + one worker, booted as subprocesses of this process."""

    def __init__(self, traced: bool, tag: str):
        self.traced = traced
        self.tag = tag
        self.procs: list[subprocess.Popen] = []
        self.logs = []
        self.address: tuple[str, int] | None = None

    def _spawn(self, role: str, argv: list[str], pattern):
        common.WORK.mkdir(parents=True, exist_ok=True)
        log_path = common.WORK / f"serve-{self.tag}-{role}.log"
        log = open(log_path, "w+b")
        self.logs.append(log)
        proc = subprocess.Popen(
            [sys.executable, "-m", *argv], cwd=common.ROOT,
            env=common.program_env(), stdin=subprocess.DEVNULL,
            stdout=log, stderr=subprocess.STDOUT)
        self.procs.append(proc)
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            match = pattern.search(log_path.read_text(errors="replace"))
            if match:
                return match
            if proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(
            f"{role} did not become ready; log tail:\n"
            + log_path.read_text(errors="replace")[-2000:])

    def boot(self) -> None:
        worker = self._spawn("worker", ["repro.service.worker", "--port", "0"],
                             _WORKER_READY).group(1)
        argv = ["repro.service.cli", "gateway", "--max-workers", "2",
                "--remote-worker", worker, "--port", "0", "--http-port", "0"]
        if not self.traced:
            argv.append("--no-tracing")
        match = self._spawn("gateway", argv, _GATEWAY_READY)
        self.address = (match.group(1), int(match.group(2)))

    def peak_rss_mb(self) -> float:
        return sum(common.pid_peak_rss_mb(p.pid) for p in self.procs)

    def stop(self) -> None:
        for proc in reversed(self.procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
        for proc in self.procs:
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for log in self.logs:
            log.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def _connection(stack: Stack) -> http.client.HTTPConnection:
    return http.client.HTTPConnection(*stack.address, timeout=120)


def _exchange(conn, method: str, path: str, body: bytes | None = None,
              trace_id: str | None = None) -> tuple[int, bytes]:
    headers = {"Content-Type": "application/json"}
    if trace_id is not None:
        headers["X-Request-ID"] = trace_id
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def get_json(stack: Stack, path: str) -> dict:
    conn = _connection(stack)
    try:
        status, body = _exchange(conn, "GET", path)
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(body)


def warm_up(stack: Stack, seed: int) -> None:
    """Post every warm-up request once; the hot set lands in the cache."""
    conn = _connection(stack)
    try:
        for fields in generate.serve_warmup(seed):
            path = "/v1/batch" if "targets" in fields else "/v1/search"
            status, body = _exchange(conn, "POST", path,
                                     json.dumps(fields).encode())
            if status != 200:
                raise RuntimeError(f"warm-up {fields} answered {status}: "
                                   f"{body[:300]!r}")
    finally:
        conn.close()


def closed_loop(stack: Stack, requests, seconds: float,
                fetch_traces: bool = False) -> tuple[list[dict], float]:
    """Drive *requests* for *seconds*; returns ``(records, wall_s)``.

    *requests* yields ``(index, (kind, path, fields))``, as
    ``enumerate(generate.serve_requests(seed))`` does; the index names the
    request's trace.  With *fetch_traces* each reply is followed, outside
    the timed region, by ``GET /v1/trace/{id}`` on the same connection (on
    an untraced stack that answers 404, so both stacks see the same
    request pattern).
    """
    lock = threading.Lock()
    records: list[dict] = []
    errors: list[BaseException] = []
    t_start = time.perf_counter()
    deadline = t_start + seconds

    def client() -> None:
        conn = _connection(stack)
        try:
            while time.perf_counter() < deadline:
                with lock:
                    index, (kind, path, fields) = next(requests)
                body = json.dumps(fields).encode()
                trace_id = f"pb-{index}"
                record = {"index": index, "kind": kind, "fields": fields,
                          "status": 0, "body": b"", "spans": None}
                t0 = time.perf_counter()
                try:
                    record["status"], record["body"] = _exchange(
                        conn, "POST", path, body, trace_id)
                except (OSError, http.client.HTTPException) as exc:
                    record["error"] = f"{type(exc).__name__}: {exc}"
                    conn.close()
                    conn = _connection(stack)
                record["latency_s"] = time.perf_counter() - t0
                if fetch_traces and "error" not in record:
                    status, raw = _exchange(conn, "GET",
                                            f"/v1/trace/{trace_id}")
                    if status == 200:
                        record["spans"] = json.loads(raw)["spans"]
                records.append(record)
        except BaseException as exc:  # surfaced by the caller
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t_start
    if errors:
        raise errors[0]
    records.sort(key=lambda r: r["index"])
    return records, wall


def verify(records: list[dict], reference: AnalyticReference) -> list[str]:
    """Check every reply; marks ``record["ok"]`` and returns the problems."""
    problems = []
    for record in records:
        if "error" in record:
            problem = record["error"]
        else:
            try:
                reply = json.loads(record["body"])
            except ValueError:
                reply = None
            problem = check_http_reply(reference, record["kind"],
                                       record["fields"], record["status"],
                                       reply)
        record["ok"] = problem is None
        if problem is not None:
            problems.append(f"{record['kind']} #{record['index']}: {problem}")
    return problems


def boot_warm(seed: int, traced: bool, tag: str) -> Stack:
    """A booted and warmed stack; the caller stops it."""
    stack = Stack(traced, tag)
    try:
        stack.boot()
        warm_up(stack, seed)
    except BaseException:
        stack.stop()
        raise
    return stack


def run(seed: int, seconds: float) -> dict:
    """The untraced end-to-end run."""
    # Set-up is booted several times; the median boot plus the warm-up of
    # the stack that is measured is the reported set-up time.
    boots = []
    for i in range(BOOTS - 1):
        with Stack(False, f"boot{i}") as extra:
            t0 = time.perf_counter()
            extra.boot()
            boots.append(time.perf_counter() - t0)
    with Stack(False, "run") as stack:
        t0 = time.perf_counter()
        stack.boot()
        boots.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        warm_up(stack, seed)
        warm_s = time.perf_counter() - t0
        records, wall = closed_loop(
            stack, enumerate(generate.serve_requests(seed)), seconds)
        stats = get_json(stack, "/stats")
        rss = stack.peak_rss_mb()
    problems = verify(records, AnalyticReference())
    overall = common.latency_summary([r["latency_s"] for r in records])
    per_class = {
        kind: common.latency_summary(
            [r["latency_s"] for r in records if r["kind"] == kind])
        for kind in generate.SERVE_CLASSES
    }
    metrics = {
        "setup_s": common.median(boots) + warm_s,
        "p50_ms": overall["p50_ms"],
        "tail_ms": overall["tail_ms"],
        "throughput_per_s": len(records) / wall,
        "peak_rss_mb": rss,
        **{f"{k}_p50_ms": per_class[k]["p50_ms"] for k in per_class},
    }
    return {
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "problems": problems,
        "metrics": metrics,
        "detail": {"latency": overall, "classes": per_class,
                   "boots_s": boots, "warm_s": warm_s, "wall_s": wall,
                   "cache_hits": stats.get("cache_hits"),
                   "submitted": stats.get("submitted")},
    }
