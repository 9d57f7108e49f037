"""Catalog + service walkthrough: register → compose → restart → warm recompose.

The library becomes a *system* when its state outlives the process: this
example registers an evolving mapping chain in a disk-backed
:class:`~repro.catalog.MappingCatalog`, serves compositions through a
:class:`~repro.service.CompositionService` (cold — every hop computed, every
checkpoint written through to disk), then tears the whole serving stack down
and rebuilds it on the same catalog root.  A fresh catalog + service instance
is exactly what a new process constructs after a restart, and the warm
recomposition replays **zero** hops: the persistent checkpoint store answers
the deepest prefix probe from disk, byte-identically.

The final act is the schema-evolution loop: one more edit is registered as a
new catalog *version* (history is never overwritten), and recomposing the
grown chain replays only the new hop.

Run with::

    python examples/catalog_service.py [catalog_root]

Without an argument a temporary directory is used (and cleaned up); pass a
path to keep the catalog around and re-run the example against it.
"""

import sys
import tempfile
import time

from repro.catalog import MappingCatalog
from repro.engine import ChainGrower
from repro.service import CompositionService, ServiceConfig


def serve_once(root, name="history"):
    """One serving-stack lifetime: construct on ``root``, compose, tear down."""
    catalog = MappingCatalog(root)
    with CompositionService(catalog, ServiceConfig()) as service:
        started = time.perf_counter()
        result = service.compose_catalog("chain", name)
        elapsed = time.perf_counter() - started
    return catalog, result, elapsed


def main() -> None:
    if len(sys.argv) > 1:
        run(sys.argv[1])
    else:
        with tempfile.TemporaryDirectory() as root:
            run(root)


def run(root: str) -> None:
    # -- 1. register: an evolving chain becomes a named catalog entry -----------
    grower = ChainGrower(seed=2006, schema_size=10)
    mappings = grower.grow_many(12)
    catalog = MappingCatalog(root)
    entry = catalog.put_chain("history", mappings, description="12 simulated edits")
    print(f"registered {entry.kind}/{entry.name} v{entry.version} "
          f"({len(mappings)} mappings, fingerprint {entry.fingerprint[:12]})")

    # -- 2. compose (cold): the service computes every hop ----------------------
    _, cold, cold_seconds = serve_once(root)
    print(f"\ncold serve : {cold_seconds * 1000:7.1f} ms, "
          f"reused {cold.reused_hops}/{len(cold.hops)} hops")
    print(f"             checkpoints on disk: {catalog.checkpoints.disk_entries()}")

    # -- 3. restart: a brand-new stack on the same root --------------------------
    # (A new MappingCatalog + CompositionService is exactly what a restarted
    # process builds; nothing in-memory survives from step 2.)
    _, warm, warm_seconds = serve_once(root)
    identical = warm.constraints.to_text() == cold.constraints.to_text()
    print(f"warm serve : {warm_seconds * 1000:7.1f} ms, "
          f"reused {warm.reused_hops}/{len(warm.hops)} hops "
          f"({cold_seconds / warm_seconds:.1f}x faster, "
          f"byte-identical: {identical})")

    # -- 4. evolve: one more edit is a new catalog version -----------------------
    extended = mappings + grower.grow_many(1)
    entry = catalog.put_chain("history", extended)
    print(f"\nregistered one more edit as {entry.kind}/{entry.name} v{entry.version} "
          f"(v1 history is preserved: "
          f"{[e.version for e in catalog.versions('chain', 'history')]})")

    _, grown, grown_seconds = serve_once(root)
    print(f"grown serve: {grown_seconds * 1000:7.1f} ms, "
          f"reused {grown.reused_hops}/{len(grown.hops)} hops "
          f"(only the new hop was composed)")


if __name__ == "__main__":
    main()
