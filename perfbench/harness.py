"""Process, client, statistics and span plumbing shared by the workloads.

Everything the benchmark spawns or creates is owned by a :class:`Workspace`:
temporary catalog roots live under ``.perfbench-work/`` in the checkout,
every child process is killed and reaped on exit (also when the run fails),
and a child that dies while the run still needs it fails the run loudly.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: The checkout the benchmark runs in (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"

#: Client-side timeout of one request; a hung request counts as failed.
REQUEST_TIMEOUT_SECONDS = 30.0
#: How long a spawned server may take to print its address and turn healthy.
STARTUP_TIMEOUT_SECONDS = 60.0

_ADDRESS = re.compile(r"on (http://[\d.]+:(\d+))")


class BenchError(Exception):
    """A run that cannot produce a trustworthy result; it exits non-zero."""


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1]); ``0.0`` when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def describe(label: str, values_ms: Sequence[float]) -> str:
    """One stderr line: p50, p95 and p99 with the sample count behind them."""
    count = len(values_ms)
    beyond = count - int(0.99 * count)
    return (
        f"{label}: p50 {percentile(values_ms, 0.5):.3f} ms, "
        f"p95 {percentile(values_ms, 0.95):.3f} ms, "
        f"p99 {percentile(values_ms, 0.99):.3f} ms "
        f"(n={count}, {beyond} samples beyond p99)"
    )


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# /proc readers
# ---------------------------------------------------------------------------


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def io_wchar(pid: int) -> int:
    """Bytes the process has passed to write-like syscalls so far."""
    with open(f"/proc/{pid}/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise BenchError(f"no wchar for pid {pid}")


def disk_bytes(root: Path) -> int:
    """Bytes allocated on disk to every file under ``root``."""
    total = 0
    for directory, _, files in os.walk(root):
        for name in files:
            try:
                total += os.lstat(os.path.join(directory, name)).st_blocks * 512
            except FileNotFoundError:
                continue
    return total


# ---------------------------------------------------------------------------
# HTTP client
# ---------------------------------------------------------------------------


class _CountingConnection(http.client.HTTPConnection):
    """An ``HTTPConnection`` that counts and times every TCP connect."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.connects = 0
        self.connect_seconds = 0.0

    def connect(self) -> None:
        started = time.perf_counter()
        super().connect()
        self.connect_seconds += time.perf_counter() - started
        self.connects += 1


class Client:
    """One client connection, kept alive whenever the server allows it.

    ``http.client`` reopens the socket by itself after a response that
    closes the connection (HTTP/1.0), so :attr:`connects` per request is the
    server's keep-alive behaviour seen from outside.
    """

    def __init__(self, url: str, timeout: float = REQUEST_TIMEOUT_SECONDS):
        match = re.match(r"http://([^:/]+):(\d+)", url)
        if match is None:
            raise BenchError(f"bad server url {url!r}")
        self._connection = _CountingConnection(
            match.group(1), int(match.group(2)), timeout=timeout
        )

    @property
    def connects(self) -> int:
        return self._connection.connects

    @property
    def connect_seconds(self) -> float:
        return self._connection.connect_seconds

    def request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, Dict[str, str], bytes]:
        """Send one request; returns ``(status, lower-cased headers, body)``.

        Raises ``OSError`` / ``http.client.HTTPException`` on transport
        failure (timeouts included) after dropping the connection.
        """
        headers = {"Content-Type": "text/plain; charset=utf-8"} if body is not None else {}
        try:
            self._connection.request(method, path, body=body, headers=headers)
            response = self._connection.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException):
            self._connection.close()
            raise
        return (
            response.status,
            {key.lower(): value for key, value in response.getheaders()},
            payload,
        )

    def get_json(self, path: str) -> Tuple[int, dict]:
        status, _, payload = self.request("GET", path)
        return status, json.loads(payload.decode("utf-8"))

    def close(self) -> None:
        self._connection.close()


# ---------------------------------------------------------------------------
# Spans (the traced run only)
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory spans around the benchmark's calls into each layer.

    A span records its name, the op it belongs to (one trace per op), its
    parent span, and start/end on the ``perf_counter`` clock.  Nothing is
    written until :meth:`write` at the end of the run.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, op: int) -> Iterator[dict]:
        record = {
            "name": name,
            "op": op,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations_ms(self, name: str) -> List[float]:
        return [
            (span["end"] - span["start"]) * 1e3
            for span in self.spans
            if span["name"] == name and span["end"] is not None
        ]

    def by_op(self, name: str) -> Dict[int, float]:
        """Duration (ms) of the span called ``name`` in each op."""
        return {
            span["op"]: (span["end"] - span["start"]) * 1e3
            for span in self.spans
            if span["name"] == name and span["end"] is not None
        }

    def accounting_gap(
        self, total: str, layers: Sequence[str], constant_ms: float = 0.0
    ) -> Tuple[float, float, float]:
        """Paired per-op layer accounting against the ``total`` span.

        For every op, the durations of its ``layers`` spans plus
        ``constant_ms`` (layers only measured as a difference of medians)
        are compared with its ``total`` span.  Returns ``(median layer sum,
        median total, median per-op gap / median total)``.
        """
        totals = self.by_op(total)
        spans = [self.by_op(name) for name in layers]
        sums = {op: constant_ms + sum(span[op] for span in spans) for op in totals}
        reference = median(list(totals.values()))
        gaps = [sums[op] - totals[op] for op in totals]
        return median(list(sums.values())), reference, median(gaps) / reference

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Processes and temporary roots
# ---------------------------------------------------------------------------


class Child:
    """One spawned ``python -m repro`` process with its log file."""

    def __init__(self, name: str, process: subprocess.Popen, log_path: Path):
        self.name = name
        self.process = process
        self.log_path = log_path
        self.url = ""

    @property
    def pid(self) -> int:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.poll() is None

    def log_tail(self, lines: int = 20) -> str:
        try:
            text = self.log_path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for name in ("REPRO_FAULTS", "REPRO_TRACE_LOG", "REPRO_CATALOG_ROOT"):
        env.pop(name, None)
    return env


class Workspace:
    """Owns the run's temporary directory and child processes.

    ``close()`` kills and reaps every child still running and removes the
    temporary directory; it runs on every exit path (``with`` block).
    """

    def __init__(self) -> None:
        WORK.mkdir(parents=True, exist_ok=True)
        self.directory = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        self.children: List[Child] = []
        self._counter = 0

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def tempdir(self, label: str) -> Path:
        self._counter += 1
        path = self.directory / f"{label}-{self._counter}"
        path.mkdir()
        return path

    def spawn(self, name: str, args: Sequence[str]) -> Child:
        """Start ``python -m repro <args>`` and wait for its address line."""
        self._counter += 1
        log_path = self.directory / f"{name}-{self._counter}.log"
        with open(log_path, "wb") as log_handle:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro", *args],
                stdin=subprocess.DEVNULL,
                stdout=log_handle,
                stderr=subprocess.STDOUT,
                env=child_env(),
                cwd=str(self.directory),
            )
        child = Child(name, process, log_path)
        self.children.append(child)
        deadline = time.monotonic() + STARTUP_TIMEOUT_SECONDS
        while time.monotonic() < deadline:
            match = _ADDRESS.search(child.log_tail(5))
            if match is not None:
                child.url = match.group(1)
                return child
            if not child.alive():
                break
            time.sleep(0.002)
        raise BenchError(
            f"{name} did not start (exit {process.poll()}):\n{child.log_tail()}"
        )

    def check_alive(self) -> None:
        """Fail the run if any child this workspace still needs has died."""
        for child in self.children:
            if not child.alive():
                raise BenchError(
                    f"{child.name} (pid {child.pid}) died mid-run with exit "
                    f"{child.process.returncode}:\n{child.log_tail()}"
                )

    def stop(self, child: Child) -> None:
        """Terminate one child and wait until it has exited."""
        if child.alive():
            child.process.send_signal(signal.SIGTERM)
            try:
                child.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                child.process.kill()
                child.process.wait()
        else:
            child.process.wait()
        if child in self.children:
            self.children.remove(child)

    def close(self) -> None:
        for child in list(self.children):
            self.stop(child)
        shutil.rmtree(self.directory, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass


def wait_until(
    check: Callable[[], bool], timeout: float, what: str, workspace: Workspace
) -> float:
    """Poll ``check`` until it holds; returns the seconds waited."""
    started = time.perf_counter()
    while True:
        workspace.check_alive()
        try:
            if check():
                return time.perf_counter() - started
        except (OSError, http.client.HTTPException, ValueError):
            pass
        if time.perf_counter() - started > timeout:
            raise BenchError(f"timed out after {timeout:.0f}s waiting for {what}")
        time.sleep(0.005)


def roundtrip(client: Client) -> None:
    """One ``GET /healthz``: the HTTP layer's cost without any composing work."""
    status, _, _ = client.request("GET", "/healthz")
    if status != 200:
        raise BenchError(f"/healthz answered {status}")


def server_deltas(before: dict, after: dict) -> Dict[str, float]:
    """Per-request server means between two ``GET /metrics`` snapshots."""

    def mean_ms(histogram: str) -> float:
        old, new = before["histograms"][histogram], after["histograms"][histogram]
        return (new["sum"] - old["sum"]) * 1e3 / max(new["count"] - old["count"], 1)

    batches = after["batching"]["batches"] - before["batching"]["batches"]
    items = after["batching"]["batched_items"] - before["batching"]["batched_items"]
    return {
        "server.queue_ms": mean_ms("queue_seconds"),
        "server.execute_ms": mean_ms("execution_seconds"),
        "server.batch_size_mean": items / max(batches, 1),
        "catalog.shard_lock_ms": mean_ms("shard_lock_seconds"),
        "journal.fsync_ms": mean_ms("journal_fsync_seconds"),
    }


def healthy(url: str) -> bool:
    client = Client(url, timeout=5.0)
    try:
        status, _, _ = client.request("GET", "/healthz")
    finally:
        client.close()
    return status == 200


def get_json(url: str, path: str) -> dict:
    client = Client(url, timeout=10.0)
    try:
        status, payload = client.get_json(path)
    finally:
        client.close()
    if status != 200:
        raise BenchError(f"GET {url}{path} answered {status}")
    return payload


# ---------------------------------------------------------------------------
# Closed-loop load
# ---------------------------------------------------------------------------


class Op:
    """One completed (or failed) client operation.

    ``key`` names the input it sent (a pool index, a ``pre-<j>`` number, or
    a ``(history, hop)`` pair) so its output can be checked afterwards.
    """

    __slots__ = ("kind", "key", "latency", "finished", "status", "headers", "body", "error")

    def __init__(self, kind: str, key: object):
        self.kind = kind
        self.key = key
        self.latency = 0.0
        self.finished = 0.0
        self.status = 0
        self.headers: Dict[str, str] = {}
        self.body = b""
        self.error: Optional[str] = None

    def timed_request(self, client: Client, method: str, path: str, body: Optional[bytes] = None) -> "Op":
        started = time.perf_counter()
        try:
            self.status, self.headers, self.body = client.request(method, path, body)
        except (OSError, http.client.HTTPException) as exc:
            self.error = f"{type(exc).__name__}: {exc}"
        self.finished = time.perf_counter()
        self.latency = self.finished - started
        return self


def closed_loop(
    clients: int,
    seconds: float,
    step: Callable[[int, int], Op],
    workspace: Workspace,
) -> Tuple[List[Op], float, float]:
    """Run ``clients`` closed-loop callers for ``seconds``.

    ``step(client, n)`` performs a client's ``n``-th operation and returns
    it; a caller sends its next operation only after the previous one
    completed.  Returns ``(ops, wall_seconds, client_cpu_seconds)``.  A child
    process dying mid-run stops the callers and fails the run.
    """
    ops: List[Op] = []
    lock = threading.Lock()
    stop = threading.Event()
    failures: List[BaseException] = []
    deadline = time.perf_counter() + seconds

    def caller(index: int) -> None:
        n = 0
        try:
            while not stop.is_set() and time.perf_counter() < deadline:
                op = step(index, n)
                n += 1
                with lock:
                    ops.append(op)
        except BaseException as exc:  # noqa: BLE001 - re-raised on the main thread
            failures.append(exc)
            stop.set()

    threads = [
        threading.Thread(target=caller, args=(index,), name=f"perfbench-client-{index}")
        for index in range(clients)
    ]
    cpu_started = time.process_time()
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    try:
        # Join (rather than sleep) between liveness checks, so the call
        # returns as soon as the last caller has finished.
        for thread in threads:
            while thread.is_alive():
                try:
                    workspace.check_alive()
                except BenchError:
                    stop.set()
                    raise
                thread.join(timeout=0.05)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=REQUEST_TIMEOUT_SECONDS + 5)
    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    if failures:
        raise BenchError(f"client thread failed: {failures[0]!r}")
    return ops, wall, cpu

