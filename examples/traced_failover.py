"""Distributed tracing through a failover: one write, one tree, three processes.

PR 9 made failover unattended; this walkthrough makes it *legible*.  Three
real processes — a primary, a follower tailing its journal, and a router
fronting both — each sink their spans into their own JSONL file
(``REPRO_TRACE_LOG``).  Writes flow through the router, the primary is
SIGKILLed mid-story, the follower is promoted, and then the punchline: the
three sinks are merged with :func:`repro.obs.merge_spans` and an
acknowledged write's *single* trace tree is printed — router relay, primary
ingress, journal append, and the follower's apply, stitched across process
boundaries by trace headers and journal stamps.

Run with::

    python examples/traced_failover.py [work_dir]

Without an argument a temporary directory is used (and cleaned up); pass a
path to keep the trace sinks for your own ``repro trace`` experiments.
"""

import json
import os
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

from repro import obs

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")

_PRIMARY = """
import sys, time
from repro.catalog import MappingCatalog
from repro.service import CompositionService, ServiceConfig, ServiceHTTPServer

catalog = MappingCatalog(sys.argv[1])
service = CompositionService(catalog, ServiceConfig())
service.start()
server = ServiceHTTPServer(service, port=0)
server.start()
print(f"ready {server.address[1]}", flush=True)
while True:
    time.sleep(1)
"""

_FOLLOWER = """
import sys, time
from repro.catalog import MappingCatalog
from repro.service import (
    CompositionService, ReplicationFollower, ServiceConfig, ServiceHTTPServer,
    open_source,
)

catalog = MappingCatalog(sys.argv[1])
follower = ReplicationFollower(
    catalog, open_source(sys.argv[2]), poll_interval_seconds=0.05
).start()
service = CompositionService(catalog, ServiceConfig())
service.start()
server = ServiceHTTPServer(service, port=0, follower=follower)
server.start()
print(f"ready {server.address[1]}", flush=True)
while True:
    time.sleep(1)
"""

_ROUTER = """
import sys, time
from repro.service import RouterHTTPServer

router = RouterHTTPServer(
    sys.argv[1:], port=0, health_interval_seconds=0.1, health_timeout_seconds=1.0
).start()
print(f"ready {router.address[1]}", flush=True)
while True:
    time.sleep(1)
"""


def spawn(code: str, *args: str, service: str, sink: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env[obs.SERVICE_ENV_VAR] = service
    env[obs.LOG_ENV_VAR] = str(sink)
    proc = subprocess.Popen(
        [sys.executable, "-c", code, *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    line = proc.stdout.readline()
    assert line.startswith("ready "), f"{service} did not come up: {line!r}"
    port = int(line.split()[1])
    print(f"{service:<8s} up at http://127.0.0.1:{port}  (sink: {sink.name})")
    return proc, f"http://127.0.0.1:{port}"


def post(url: str, body: bytes = b"") -> tuple[int, dict]:
    request = urllib.request.Request(url, data=body, method="POST")
    with urllib.request.urlopen(request, timeout=30) as response:
        response.read()
        return response.status, dict(response.headers)


def get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.loads(response.read().decode())


def wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


def main() -> None:
    if len(sys.argv) > 1:
        run(Path(sys.argv[1]))
    else:
        with tempfile.TemporaryDirectory() as root:
            run(Path(root))


def run(work_dir: Path) -> None:
    from repro.engine import ChainGrower
    from repro.textio.records import chain_to_text

    sinks = {role: work_dir / f"trace-{role}.jsonl" for role in
             ("primary", "follower", "router")}
    procs = []
    try:
        # -- 1. three processes, three sinks --------------------------------
        primary, primary_base = spawn(
            _PRIMARY, str(work_dir / "primary"),
            service="primary", sink=sinks["primary"],
        )
        procs.append(primary)
        follower, follower_base = spawn(
            _FOLLOWER, str(work_dir / "replica"), str(work_dir / "primary"),
            service="follower", sink=sinks["follower"],
        )
        procs.append(follower)
        router, router_base = spawn(
            _ROUTER, primary_base, follower_base,
            service="router", sink=sinks["router"],
        )
        procs.append(router)
        print()

        # -- 2. writes through the router; the response names the trace ----
        grower = ChainGrower(seed=2006, schema_size=8)
        hops = tuple(grower.grow_many(8))
        traced = {}
        for index in range(3):
            name = f"edit-{index}"
            status, headers = post(
                f"{router_base}/compose?store={name}",
                chain_to_text(hops[index : index + 4]).encode(),
            )
            assert status == 200
            traced[name] = headers[obs.TRACE_ID_HEADER]
            print(f"write {name!r} acknowledged — trace {traced[name][:12]}…")

        # Let the follower mirror every journal entry (its apply spans are
        # the cross-process leaves of the trees we are about to print).
        wait_for(
            lambda: get_json(f"{follower_base}/healthz")
            .get("replication", {}).get("lag_entries") == 0
        )

        # -- 3. SIGKILL the primary; promote the follower -------------------
        print("\nSIGKILLing the primary...")
        primary.kill()
        primary.wait(timeout=30)
        status, _ = post(f"{follower_base}/admin/promote")
        assert status == 200
        print("follower promoted; router will observe the role flip")

        # -- 4. merge the three sinks into one tree per trace ---------------
        spans = obs.load_spans([str(path) for path in sinks.values()])
        traces = obs.merge_spans(spans)
        name, trace_id = next(iter(traced.items()))
        print(f"\nthe acknowledged write {name!r}, reassembled from "
              f"{len(sinks)} sinks:\n")
        print(obs.format_trace(trace_id, traces[trace_id]))

        problems = obs.verify(
            {tid: traces[tid] for tid in traced.values() if tid in traces},
            require=["router.request", "http.request",
                     "journal.append", "replica.apply"],
        )
        assert not problems, problems
        print("\nevery acknowledged write has a complete, orphan-free tree "
              "spanning all three processes")
        print(f"(try: repro trace {' '.join(str(p) for p in sinks.values())})")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.communicate()


if __name__ == "__main__":
    main()
