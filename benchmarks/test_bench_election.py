"""Benchmark: the unattended kill-and-recover drill, measured.

``service_failover`` measures failover with an operator in the loop (the
drill POSTs ``/admin/promote``).  This drill removes the operator: primary
and candidate both run a :class:`~repro.service.election.LeaderElector` over
a shared election directory, the primary is SIGKILLed mid-load, and the
candidate must win the ``leader`` lease race and self-promote with a fresh
fencing epoch — no promote call anywhere in this file.

The books that must balance (gated exactly by ``check_regression.py``):

* **zero lost versions** — every write acknowledged through the router
  before the kill survives in the self-promoted catalog;
* **fingerprint identity** — the promoted catalog matches a single-process
  reference run exactly;
* **fencing works** — the resurrected ex-primary's write attempt is
  refused (counted as ``stale_epoch_rejected``), not silently accepted;
* the structural shape of the drill (process count, write counts).

Reported for the trajectory but not gated (they measure the host):
``election_seconds`` — SIGKILL to the first write accepted through the
self-promoted replica, the time a client is without a writable backend with
nobody watching — plus the raw throughput numbers.
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
ELECTION_TIMEOUT = 1.0

#: Seeded chaos on both sides: the primary's journal appends tear (healed by
#: the retry policy), the candidate's lease writes and election race run
#: slowed — the election must still win inside its timeout budget.
PRIMARY_FAULTS = "seed=13;journal.append.torn:torn:p=0.1:limit=3"
CANDIDATE_FAULTS = (
    "seed=13;lease.write:slow:p=0.3:ms=5;election.acquire:slow:p=0.5:ms=10"
)

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

_PRIMARY = """
import sys, time
from repro.catalog import MappingCatalog
from repro.service import (
    CompositionService, LeaderElector, ServiceConfig, ServiceHTTPServer,
)

catalog = MappingCatalog(sys.argv[1])
elector = LeaderElector(
    catalog, election_dir=sys.argv[2], election_timeout_seconds=float(sys.argv[3])
).start()
service = CompositionService(catalog, ServiceConfig())
service.start()
server = ServiceHTTPServer(service, port=0, elector=elector)
server.start()
print(f"ready {server.address[1]}", flush=True)
while True:
    time.sleep(1)
"""

_CANDIDATE = """
import sys, time
from repro.catalog import MappingCatalog
from repro.service import (
    CompositionService, LeaderElector, ReplicationFollower, ServiceConfig,
    ServiceHTTPServer, open_source,
)

catalog = MappingCatalog(sys.argv[1])
follower = ReplicationFollower(
    catalog, open_source(sys.argv[2]), poll_interval_seconds=0.05
).start()
elector = LeaderElector(
    catalog,
    follower=follower,
    election_dir=sys.argv[3],
    source_root=sys.argv[2],
    primary_url=sys.argv[4],
    election_timeout_seconds=float(sys.argv[5]),
    health_timeout_seconds=0.5,
).start()
service = CompositionService(catalog, ServiceConfig())
service.start()
server = ServiceHTTPServer(service, port=0, follower=follower, elector=elector)
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


def test_bench_service_election(benchmark, bench_params, bench_record, tmp_path):
    grower = ChainGrower(seed=bench_params["seed"] + 23, schema_size=SCHEMA_SIZE)
    hops = tuple(grower.grow_many(NUM_HOPS + WRITES_BEFORE_KILL + WRITES_AFTER_PROMOTE))
    total_writes = WRITES_BEFORE_KILL + WRITES_AFTER_PROMOTE
    chains = [hops[index : index + NUM_HOPS] for index in range(total_writes)]

    primary_root = tmp_path / "primary"
    candidate_root = tmp_path / "candidate"
    election_dir = tmp_path / "election"

    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    primary_env = dict(env)
    primary_env["REPRO_FAULTS"] = PRIMARY_FAULTS
    primary_env["REPRO_FAULTS_LOG"] = str(tmp_path / "primary-faults.jsonl")
    candidate_env = dict(env)
    candidate_env["REPRO_FAULTS"] = CANDIDATE_FAULTS
    candidate_env["REPRO_FAULTS_LOG"] = str(tmp_path / "candidate-faults.jsonl")

    stale_epoch_rejected = 0
    procs = []
    try:
        primary = _spawn(
            _PRIMARY,
            str(primary_root),
            str(election_dir),
            str(ELECTION_TIMEOUT),
            env=primary_env,
        )
        procs.append(primary)
        primary_base = f"http://127.0.0.1:{_await_ready(primary)}"
        candidate = _spawn(
            _CANDIDATE,
            str(candidate_root),
            str(primary_root),
            str(election_dir),
            primary_base,
            str(ELECTION_TIMEOUT),
            env=candidate_env,
        )
        procs.append(candidate)
        candidate_base = f"http://127.0.0.1:{_await_ready(candidate)}"
        router = _spawn(_ROUTER, primary_base, candidate_base, env=env)
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

        # The primary dies mid-load: SIGKILL, no cleanup, no flush — and no
        # operator.  The candidate's elector must do the whole recovery.
        killed_at = time.perf_counter()
        primary.kill()
        primary.wait(timeout=60)

        # Finish the load through the router.  503s are the router waiting
        # for the election; the first accepted write stamps the headline
        # number: SIGKILL to writable again, with nobody watching.
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
                    time.sleep(0.05)  # the election has not finished yet
            assert status == 200
            if first_write_seconds is None:
                first_write_seconds = time.perf_counter() - killed_at
            if "X-Repro-Store-Dropped" not in headers:
                acknowledged.append(name)
        phase2_seconds = time.perf_counter() - killed_at
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)

        candidate_health = _get_json(f"{candidate_base}/healthz")
        assert candidate_health["election"]["role"] == "leader"
        assert candidate_health["election"]["elections_won"] == 1
        router_status = _get_json(f"{router_base}/router/status")

        # Epilogue: resurrect the ex-primary over its fenced root and count
        # its refused zombie write.
        zombie = _spawn(
            _PRIMARY,
            str(primary_root),
            str(tmp_path / "zombie-election"),
            str(ELECTION_TIMEOUT),
            env=env,
        )
        procs.append(zombie)
        zombie_base = f"http://127.0.0.1:{_await_ready(zombie)}"
        try:
            _post(
                f"{zombie_base}/compose?store=zombie-write",
                chain_to_text(chains[0]).encode(),
            )
        except urllib.error.HTTPError as exc:
            if exc.code == 409:
                stale_epoch_rejected = 1
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.communicate()

    # Zero lost versions, fingerprint-identical to a single-process reference.
    promoted = MappingCatalog(candidate_root)
    reference = MappingCatalog(tmp_path / "reference")
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
    assert lost_versions == 0, f"unattended failover lost {lost_versions} writes"
    assert outputs_identical, "promoted catalog diverged from the reference"
    assert stale_epoch_rejected == 1, "the zombie ex-primary was not fenced"
    assert "zombie-write" not in promoted.names("mapping")

    writes_per_second = len(acknowledged) / max(phase1_seconds + phase2_seconds, 1e-9)

    bench_record(
        "service_election",
        processes=PROCESSES,
        writes_total=total_writes,
        writes_acknowledged=len(acknowledged),
        lost_versions=lost_versions,
        outputs_identical=outputs_identical,
        stale_epoch_rejected=stale_epoch_rejected,
        failovers_observed=router_status["failovers_observed"],
        election_timeout_seconds=ELECTION_TIMEOUT,
        election_seconds=round(first_write_seconds or 0.0, 4),
        recovery_seconds=round(phase2_seconds, 4),
        writes_per_second=round(writes_per_second, 4),
    )
