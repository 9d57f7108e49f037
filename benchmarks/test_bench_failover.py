"""Benchmark: the kill-the-primary failover drill, measured.

``service_chaos`` proves one shared root survives a sick disk; this drill
proves the *replicated* tier survives losing the primary outright.  Three
processes — a primary service, a follower tailing its journal, and the
health-routing front tier — take a write load through the router; the
primary is SIGKILLed mid-load (with a seeded fault schedule tearing journal
appends underneath it first), the follower is promoted, and the load
finishes through the promoted replica.

The books that must balance (gated exactly by ``check_regression.py``):

* **zero lost versions** — every write acknowledged through the router
  before the kill is present in the promoted catalog;
* **fingerprint identity** — the promoted catalog's stored versions carry
  exactly the fingerprints a single-process reference run produces, so
  replication + promotion changed nothing about the content;
* the structural shape of the drill (process count, write counts).

Reported for the trajectory but not gated (they measure the host): the
requests/second sustained through the router before and after failover, the
journal entries the promotion's final catch-up drained, and the wall time
from SIGKILL to the first write through the promoted replica.
"""

import json
import os
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.catalog import MappingCatalog
from repro.engine import ChainGrower, compose_chain
from repro.textio.records import chain_to_text

PROCESSES = 3
WRITES_BEFORE_KILL = 4
WRITES_AFTER_PROMOTE = 4
NUM_HOPS = 4
SCHEMA_SIZE = 8

#: Seeded journal chaos on the primary: ~10% of appends tear (bounded), the
#: catalog's retry heals every tear — acknowledged still means journaled.
FAULT_SCHEDULE = "seed=13;journal.append.torn:torn:p=0.1:limit=3"

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

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


def _spawn(code, *args, env=None):
    return subprocess.Popen(
        [sys.executable, "-c", code, *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _await_ready(proc):
    line = proc.stdout.readline()
    assert line.startswith("ready "), f"worker did not come up: {line!r}"
    return int(line.split()[1])


def _post(url, body=b"", timeout=120):
    request = urllib.request.Request(url, data=body, method="POST")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, response.read().decode(), dict(response.headers)


def _get_json(url, timeout=30):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode())


def test_bench_service_failover(benchmark, bench_params, bench_record, tmp_path):
    grower = ChainGrower(seed=bench_params["seed"] + 19, schema_size=SCHEMA_SIZE)
    hops = tuple(grower.grow_many(NUM_HOPS + WRITES_BEFORE_KILL + WRITES_AFTER_PROMOTE))
    total_writes = WRITES_BEFORE_KILL + WRITES_AFTER_PROMOTE
    chains = [hops[index : index + NUM_HOPS] for index in range(total_writes)]

    primary_root = tmp_path / "primary"
    follower_root = tmp_path / "follower"

    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    primary_env = dict(env)
    primary_env["REPRO_FAULTS"] = FAULT_SCHEDULE
    primary_env["REPRO_FAULTS_LOG"] = str(tmp_path / "primary-faults.jsonl")

    procs = []
    try:
        primary = _spawn(_PRIMARY, str(primary_root), env=primary_env)
        procs.append(primary)
        primary_base = f"http://127.0.0.1:{_await_ready(primary)}"
        follower = _spawn(_FOLLOWER, str(follower_root), str(primary_root), env=env)
        procs.append(follower)
        follower_base = f"http://127.0.0.1:{_await_ready(follower)}"
        router = _spawn(_ROUTER, primary_base, follower_base, env=env)
        procs.append(router)
        router_base = f"http://127.0.0.1:{_await_ready(router)}"

        # Phase 1: write load through the router against the live primary.
        acknowledged = []
        phase1_started = time.perf_counter()
        for index in range(WRITES_BEFORE_KILL):
            name = f"drill-{index}"
            status, _, headers = _post(
                f"{router_base}/compose?store={name}",
                chain_to_text(chains[index]).encode(),
            )
            assert status == 200
            if "X-Repro-Store-Dropped" not in headers:
                acknowledged.append(name)
        phase1_seconds = time.perf_counter() - phase1_started

        # The primary dies mid-load: SIGKILL, no cleanup, no flush.
        lag_payload = _get_json(f"{follower_base}/healthz")
        killed_at = time.perf_counter()
        primary.kill()
        primary.wait(timeout=60)

        # Promote the follower; its final catch-up drains the dead primary's
        # journal from disk.
        promote_started = time.perf_counter()
        _, body, _ = _post(f"{follower_base}/admin/promote")
        promote_report = json.loads(body)
        promote_seconds = time.perf_counter() - promote_started
        assert promote_report["promoted"] is True

        # Wait for the router's health loop to observe the role flip, then
        # finish the load through the promoted replica.
        first_write_seconds = None
        for index in range(WRITES_BEFORE_KILL, total_writes):
            name = f"drill-{index}"
            body = chain_to_text(chains[index]).encode()
            while True:
                try:
                    status, _, headers = _post(
                        f"{router_base}/compose?store={name}", body
                    )
                    break
                except urllib.error.HTTPError as exc:
                    if exc.code != 503:
                        raise
                    time.sleep(0.05)  # the router has not seen the promotion yet
            assert status == 200
            if first_write_seconds is None:
                first_write_seconds = time.perf_counter() - killed_at
            if "X-Repro-Store-Dropped" not in headers:
                acknowledged.append(name)
        phase2_seconds = time.perf_counter() - killed_at
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)

        router_status = _get_json(f"{router_base}/router/status")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.communicate()

    # Zero lost versions, fingerprint-identical to a single-process reference.
    promoted = MappingCatalog(follower_root)
    reference_root = tmp_path / "reference"
    reference = MappingCatalog(reference_root)
    outputs_identical = True
    lost_versions = 0
    for index, name in enumerate(f"drill-{n}" for n in range(total_writes)):
        if name not in acknowledged:
            continue
        composed = compose_chain(chains[index]).to_mapping_with_residue()
        expected = reference.put_mapping(name, composed).fingerprint
        if name not in promoted.names("mapping"):
            lost_versions += 1
            continue
        if promoted.entry("mapping", name).fingerprint != expected:
            outputs_identical = False
    assert lost_versions == 0, f"failover lost {lost_versions} acknowledged writes"
    assert outputs_identical, "promoted catalog diverged from the reference"

    writes_per_second = len(acknowledged) / max(phase1_seconds + phase2_seconds, 1e-9)
    replication = lag_payload.get("replication", {})

    bench_record(
        "service_failover",
        processes=PROCESSES,
        writes_total=total_writes,
        writes_acknowledged=len(acknowledged),
        lost_versions=lost_versions,
        outputs_identical=outputs_identical,
        failovers_observed=router_status["failovers_observed"],
        request_retries=router_status["request_retries"],
        catch_up_entries=promote_report["entries_applied"],
        lag_before_kill=replication.get("lag_entries"),
        promote_seconds=round(promote_seconds, 4),
        first_write_after_kill_seconds=round(first_write_seconds or 0.0, 4),
        failover_seconds=round(phase2_seconds, 4),
        writes_per_second=round(writes_per_second, 4),
    )
