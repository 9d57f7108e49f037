"""Benchmark: a multi-process client swarm against one shared catalog.

The tentpole claim of the multi-process catalog: several *service processes*
can share one on-disk root — per-shard file locks serialize index writes, so
no version is ever lost, and the persistent checkpoint store is a common
accelerator — without changing a single output byte.  This benchmark is that
claim under load:

* the parent registers two mapping chains in a fresh catalog root;
* N worker *processes* start (real ``subprocess`` children, each with its own
  :class:`MappingCatalog` handle and its own :class:`CompositionService`) and
  hammer the shared root concurrently: every round each worker serves both
  stored chains through its service, stores the composed mapping of the
  first chain under one shared name, and appends a distinct version to a
  shared ``swarm-log`` schema;
* the parent then checks the books: every constraint text served by every
  worker is byte-identical to a direct in-process ``compose_chain``; the
  shared composed mapping deduplicated to exactly one version (identical
  content from N processes is one catalog version, not N); and the swarm log
  holds exactly N x ROUNDS versions — **zero lost updates**.

Recorded as the ``service_swarm`` workload in BENCH_compose.json next to
``service_warm_restart``: the structural metrics (process count, request
count, output identity, lost versions) are gated exactly by
``check_regression.py``; the sustained requests/second is reported for the
trajectory but not gated (it measures the host, not the algorithm).
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
PROCESSES = 3
ROUNDS = 3
NUM_HOPS = 8
SCHEMA_SIZE = 10

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: One swarm worker: argv = root, output json path, worker tag, rounds.
_WORKER = """
import json, sys, time
from repro.catalog import MappingCatalog
from repro.schema.signature import RelationSchema, Signature
from repro.service import CompositionService, ServiceConfig

root, out_path, tag, rounds = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
catalog = MappingCatalog(root)
served = {}
requests = 0
started = time.perf_counter()
config = ServiceConfig(admission="block", deadline_seconds=120.0)
with CompositionService(catalog, config) as svc:
    for round_index in range(rounds):
        for name in ("history-a", "history-b"):
            result = svc.compose_catalog("chain", name)
            requests += 1
            served.setdefault(name, set()).add(result.constraints.to_text())
        composed = svc.compose_chain(catalog.get_chain("history-a"))
        catalog.put_mapping("composed", composed.to_mapping_with_residue())
        catalog.put_schema(
            "swarm-log",
            Signature((RelationSchema(f"L_{tag}_{round_index}", 1 + round_index % 4),)),
        )
elapsed = time.perf_counter() - started
payload = {
    "requests": requests,
    "seconds": elapsed,
    "served": {name: sorted(texts) for name, texts in served.items()},
}
with open(out_path, "w") as handle:
    json.dump(payload, handle)
"""


def test_bench_service_swarm(benchmark, bench_params, bench_record, tmp_path):
    grower = ChainGrower(seed=bench_params["seed"], schema_size=SCHEMA_SIZE)
    chain_a = tuple(grower.grow_many(NUM_HOPS + 1))
    grower_b = ChainGrower(seed=bench_params["seed"] + 1, schema_size=SCHEMA_SIZE)
    chain_b = tuple(grower_b.grow_many(NUM_HOPS + 1))

    root = tmp_path / "shared-catalog"
    catalog = MappingCatalog(root)
    catalog.put_chain("history-a", chain_a)
    catalog.put_chain("history-b", chain_b)

    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")

    def run_swarm():
        workers = []
        outputs = []
        for index in range(PROCESSES):
            out_path = tmp_path / f"worker-{index}.json"
            outputs.append(out_path)
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
                    env=env,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                )
            )
        for worker in workers:
            out, err = worker.communicate(timeout=600)
            assert worker.returncode == 0, f"swarm worker failed:\n{out}\n{err}"
        return [json.loads(path.read_text()) for path in outputs]

    swarm_started = time.perf_counter()
    reports = run_swarm()
    swarm_seconds = time.perf_counter() - swarm_started
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    # Byte-identity: every text any worker served matches direct compose.
    reference = {
        "history-a": compose_chain(chain_a).constraints.to_text(),
        "history-b": compose_chain(chain_b).constraints.to_text(),
    }
    outputs_identical = all(
        report["served"][name] == [reference[name]]
        for report in reports
        for name in reference
    )
    assert outputs_identical

    # No lost updates: N processes x ROUNDS distinct puts = that many versions.
    after = MappingCatalog(root)
    log_versions = len(after.versions("schema", "swarm-log"))
    lost_versions = PROCESSES * ROUNDS - log_versions
    assert lost_versions == 0, f"lost {lost_versions} swarm-log versions"
    # ...and identical content from N processes deduplicated to one version.
    composed_versions = [e.version for e in after.versions("mapping", "composed")]
    assert composed_versions == [1]

    requests_total = sum(report["requests"] for report in reports)
    assert requests_total == PROCESSES * ROUNDS * 2
    requests_per_second = requests_total / max(swarm_seconds, 1e-9)

    bench_record(
        "service_swarm",
        processes=PROCESSES,
        rounds=ROUNDS,
        requests_total=requests_total,
        outputs_identical=outputs_identical,
        lost_versions=lost_versions,
        composed_versions=len(composed_versions),
        swarm_seconds=round(swarm_seconds, 4),
        requests_per_second=round(requests_per_second, 4),
    )
