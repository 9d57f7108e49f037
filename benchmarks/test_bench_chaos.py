"""Benchmark: the service tier under an injected fault schedule.

``service_swarm`` proves multi-process sharing is correct on a healthy disk;
this benchmark is the same claim on a *sick* one.  N service processes share
one catalog root while a seeded :mod:`repro.faults` schedule makes writes
fail transiently, fsyncs error, and checkpoint I/O stall — the failure modes
the retry policy, the circuit breaker and the lease table exist for — and the
books must still balance:

* every constraint text served by every worker is byte-identical to a direct
  in-process ``compose_chain`` — faults are retried or degraded around, they
  never change answers;
* the shared swarm log holds exactly N x ROUNDS versions — **zero lost
  updates** despite injected EIO inside the writes themselves;
* identical composed content still deduplicates to one catalog version;
* cross-process leases serialize the claimed work (each worker claims its
  round's job key before executing).

Recorded as the ``service_chaos`` workload in BENCH_compose.json: the
structural metrics (processes, rounds, request count, output identity, lost
versions, dedup) are gated exactly by ``check_regression.py``; the sustained
requests/second under faults and the number of faults survived are reported
for the trajectory but not gated (they measure the host and the schedule's
dice, not the algorithm).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.catalog import MappingCatalog
from repro.engine import ChainGrower, compose_chain

#: Fixed (not env-tunable) so the gated structural metrics are deterministic.
PROCESSES = 2
ROUNDS = 3
NUM_HOPS = 6
SCHEMA_SIZE = 8

#: The fault schedule every worker runs under: seeded, so each worker's
#: per-point decisions replay across runs (interleaving between workers is
#: the only nondeterminism, and the assertions are interleaving-independent).
FAULT_SCHEDULE = (
    "seed=13;"
    "storage.write.begin:eio:p=0.08;"
    "storage.fsync:eio:p=0.04;"
    "checkpoint.persist:eio:p=0.15;"
    "checkpoint.load:slow:p=0.1:ms=1;"
    "catalog.shard.read:slow:p=0.05:ms=1"
)

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: One chaos worker: argv = root, output json path, worker tag, rounds.
#: Catalog puts get a small app-level retry loop on top of the built-in
#: per-write retries: with p=0.08 per write and 4 attempts inside, exhaustion
#: is rare but possible over a long run, and a worker dying to injected bad
#: luck would fail the zero-lost-versions accounting for the wrong reason.
_WORKER = """
import json, sys, time
from repro.catalog import MappingCatalog
from repro.schema.signature import RelationSchema, Signature
from repro.service import CompositionService, ServiceConfig

root, out_path, tag, rounds = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
catalog = MappingCatalog(root)

def put_retrying(op, attempts=8):
    for attempt in range(attempts):
        try:
            return op()
        except OSError:
            if attempt == attempts - 1:
                raise
            time.sleep(0.005 * (attempt + 1))

served = set()
requests = 0
started = time.perf_counter()
config = ServiceConfig(
    admission="block",
    deadline_seconds=120.0,
    lease_ttl_seconds=10.0,
)
with CompositionService(catalog, config) as svc:
    for round_index in range(rounds):
        result = svc.compose_catalog("chain", "history")
        requests += 1
        served.add(result.constraints.to_text())
        composed = svc.compose_chain(catalog.get_chain("history"))
        put_retrying(lambda: catalog.put_mapping(
            "composed", composed.to_mapping_with_residue()
        ))
        put_retrying(lambda: catalog.put_schema(
            "chaos-log",
            Signature((RelationSchema(f"L_{tag}_{round_index}", 1 + round_index % 4),)),
        ))
    lease_stats = svc.leases.stats() if svc.leases is not None else {}
elapsed = time.perf_counter() - started
payload = {
    "requests": requests,
    "seconds": elapsed,
    "served": sorted(served),
    "retries": catalog.stats()["retries"],
    "leases": lease_stats,
}
with open(out_path, "w") as handle:
    json.dump(payload, handle)
"""


def test_bench_service_chaos(benchmark, bench_params, bench_record, tmp_path):
    grower = ChainGrower(seed=bench_params["seed"] + 7, schema_size=SCHEMA_SIZE)
    chain = tuple(grower.grow_many(NUM_HOPS + 1))

    root = tmp_path / "shared-catalog"
    catalog = MappingCatalog(root)
    catalog.put_chain("history", chain)

    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_FAULTS"] = FAULT_SCHEDULE

    def run_chaos():
        workers = []
        outputs = []
        for index in range(PROCESSES):
            out_path = tmp_path / f"worker-{index}.json"
            fault_log = tmp_path / f"faults-{index}.jsonl"
            worker_env = dict(env)
            worker_env["REPRO_FAULTS_LOG"] = str(fault_log)
            outputs.append((out_path, fault_log))
            workers.append(
                subprocess.Popen(
                    [
                        sys.executable,
                        "-c",
                        _WORKER,
                        str(root),
                        str(out_path),
                        f"w{index}",
                        str(ROUNDS),
                    ],
                    env=worker_env,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                )
            )
        for worker in workers:
            out, err = worker.communicate(timeout=600)
            assert worker.returncode == 0, f"chaos worker failed:\n{out}\n{err}"
        reports = [json.loads(path.read_text()) for path, _ in outputs]
        faults_fired = sum(
            len(log.read_text().splitlines()) for _, log in outputs if log.exists()
        )
        return reports, faults_fired

    chaos_started = time.perf_counter()
    reports, faults_fired = run_chaos()
    chaos_seconds = time.perf_counter() - chaos_started
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    # Byte-identity: under the full schedule, every served text matches a
    # direct fault-free compose.
    reference = compose_chain(chain).constraints.to_text()
    outputs_identical = all(report["served"] == [reference] for report in reports)
    assert outputs_identical

    # No lost updates: N processes x ROUNDS distinct puts survived the faults.
    after = MappingCatalog(root)
    log_versions = len(after.versions("schema", "chaos-log"))
    lost_versions = PROCESSES * ROUNDS - log_versions
    assert lost_versions == 0, f"lost {lost_versions} chaos-log versions"
    # ...and identical composed content still deduplicated to one version.
    composed_versions = [e.version for e in after.versions("mapping", "composed")]
    assert composed_versions == [1]

    requests_total = sum(report["requests"] for report in reports)
    assert requests_total == PROCESSES * ROUNDS
    requests_per_second = requests_total / max(chaos_seconds, 1e-9)
    retries_absorbed = sum(
        report["retries"]["transient_errors"] for report in reports
    )

    bench_record(
        "service_chaos",
        processes=PROCESSES,
        rounds=ROUNDS,
        requests_total=requests_total,
        outputs_identical=outputs_identical,
        lost_versions=lost_versions,
        composed_versions=len(composed_versions),
        faults_fired=faults_fired,
        retries_absorbed=retries_absorbed,
        chaos_seconds=round(chaos_seconds, 4),
        requests_per_second=round(requests_per_second, 4),
    )
