"""Tests for the disk-backed mapping catalog and the persistent checkpoint store."""

import json

import pytest

from repro.catalog import MappingCatalog, PersistentCheckpointStore
from repro.compose.composer import compose
from repro.compose.config import ComposerConfig
from repro.engine import ChainGrower, compose_chain
from repro.engine.checkpoint import CheckpointStore
from repro.exceptions import CatalogError
from repro.literature.problems import problem_by_name
from repro.schema.signature import RelationSchema, Signature
from repro.textio.records import chain_to_text, mapping_to_text


@pytest.fixture()
def chain():
    return tuple(ChainGrower(seed=5, schema_size=4).grow_many(5))


@pytest.fixture()
def catalog(tmp_path):
    return MappingCatalog(tmp_path / "catalog")


class TestVersioning:
    def test_identical_content_dedupes(self, catalog, chain):
        first = catalog.put_mapping("m", chain[0])
        second = catalog.put_mapping("m", chain[0])
        assert first.version == second.version == 1
        assert first.fingerprint == second.fingerprint
        assert len(catalog.versions("mapping", "m")) == 1

    def test_changed_content_appends_version(self, catalog, chain):
        catalog.put_mapping("m", chain[0])
        entry = catalog.put_mapping("m", chain[1])
        assert entry.version == 2
        assert catalog.get_mapping("m") == chain[1]
        assert catalog.get_mapping("m", version=1) == chain[0]

    def test_history_is_never_lost(self, catalog, chain):
        for mapping in chain:
            catalog.put_mapping("evolving", mapping)
        versions = catalog.versions("mapping", "evolving")
        assert [entry.version for entry in versions] == [1, 2, 3, 4, 5]
        for entry, mapping in zip(versions, chain):
            assert catalog.get_mapping("evolving", entry.version) == mapping

    def test_fingerprint_lookup(self, catalog, chain):
        entry = catalog.put_mapping("m", chain[0])
        matches = catalog.find_fingerprint(entry.fingerprint)
        assert matches == (entry,)
        assert entry.fingerprint == chain[0].fingerprint().hex()

    def test_unknown_entries_rejected(self, catalog):
        with pytest.raises(CatalogError):
            catalog.get_mapping("missing")
        with pytest.raises(CatalogError):
            catalog.text("bogus-kind", "x")

    def test_unknown_version_rejected(self, catalog, chain):
        catalog.put_mapping("m", chain[0])
        with pytest.raises(CatalogError):
            catalog.get_mapping("m", version=7)

    def test_invalid_names_rejected(self, catalog, chain):
        for bad in ("", "../escape", "a/b", "a b", "-leading", "x" * 200):
            with pytest.raises(CatalogError):
                catalog.put_mapping(bad, chain[0])


class TestPersistence:
    def test_all_kinds_survive_reopen(self, tmp_path, chain):
        problem = problem_by_name("example1_movies").problem
        result = compose(problem)
        catalog = MappingCatalog(tmp_path / "cat")
        catalog.put_schema("s", chain[0].input_signature, description="first schema")
        catalog.put_mapping("m", chain[0])
        catalog.put_chain("c", chain)
        catalog.put_problem("p", problem)
        catalog.put_result("r", result)

        reopened = MappingCatalog(tmp_path / "cat")
        assert reopened.get_schema("s") == chain[0].input_signature
        assert reopened.get_mapping("m") == chain[0]
        assert reopened.get_chain("c") == chain
        assert reopened.get_problem("p").sigma12 == problem.sigma12
        assert reopened.get_result("r") == result
        assert len(reopened) == 5

    def test_index_is_valid_json(self, catalog, chain):
        catalog.put_mapping("m", chain[0])
        shards = sorted((catalog.root / "index").glob("shard-*.json"))
        assert shards, "putting an entry must create an index shard"
        found = {}
        for shard in shards:
            payload = json.loads(shard.read_text())
            assert payload["schema_version"] == 2
            for kind, by_name in payload["entries"].items():
                found.setdefault(kind, {}).update(by_name)
        assert found["mapping"]["m"][0]["version"] == 1

    def test_legacy_single_file_index_is_migrated(self, tmp_path, chain):
        catalog = MappingCatalog(tmp_path / "catalog")
        catalog.put_mapping("m", chain[0])
        catalog.put_mapping("m", chain[1])
        catalog.put_schema("s", chain[0].input_signature)
        # Rebuild a schema-version-1 single-file index from the shards, drop
        # the shards, and reopen: the catalog must migrate transparently.
        entries = {}
        for shard in (catalog.root / "index").glob("shard-*.json"):
            for kind, by_name in json.loads(shard.read_text())["entries"].items():
                entries.setdefault(kind, {}).update(by_name)
            shard.unlink()
        legacy = catalog.root / "catalog.json"
        legacy.write_text(json.dumps({"schema_version": 1, "entries": entries}))
        reopened = MappingCatalog(tmp_path / "catalog")
        assert not legacy.exists()
        assert reopened.get_mapping("m") == chain[1]
        assert reopened.get_mapping("m", version=1) == chain[0]
        assert reopened.get_schema("s") == chain[0].input_signature

    def test_record_files_are_the_text_format(self, catalog, chain):
        entry = catalog.put_mapping("m", chain[0], description="readable on disk")
        stored = (catalog.root / entry.path).read_text()
        assert stored == mapping_to_text(chain[0], name="m", description="readable on disk")

    def test_result_dedupe_ignores_timings(self, catalog):
        problem = problem_by_name("example1_movies").problem
        first = catalog.put_result("r", compose(problem))
        second = catalog.put_result("r", compose(problem))
        assert first.version == second.version == 1

    def test_add_text_ingests_and_validates(self, catalog, chain):
        entry = catalog.add_text(mapping_to_text(chain[0], name="imported"))
        assert entry.kind == "mapping" and entry.name == "imported"
        with pytest.raises(CatalogError):
            catalog.add_text("# kind: mapping\n[input]\nR/2\n")  # malformed
        with pytest.raises(CatalogError):
            catalog.add_text(mapping_to_text(chain[0]))  # nameless

    def test_stats(self, catalog, chain):
        catalog.put_mapping("m", chain[0])
        catalog.put_chain("c", chain)
        stats = catalog.stats()
        assert stats["kinds"]["mapping"] == {"names": 1, "versions": 1}
        assert stats["total_versions"] == 2


class TestDeltaChains:
    def test_versions_reconstruct_exactly(self, catalog, chain):
        catalog.put_chain("c", chain[:2])
        catalog.put_chain("c", chain[:4])
        catalog.put_chain("c", chain)
        assert catalog.get_chain("c", version=1) == chain[:2]
        assert catalog.get_chain("c", version=2) == chain[:4]
        assert catalog.get_chain("c") == chain

    def test_later_versions_are_stored_as_deltas(self, catalog, chain):
        catalog.put_chain("c", chain[:2])
        catalog.put_chain("c", chain[:4])
        catalog.put_chain("c", chain)
        assert "# kind: chain\n" in catalog.raw_text("chain", "c", version=1)
        for version in (2, 3):
            raw = catalog.raw_text("chain", "c", version=version)
            assert "# kind: chain-delta" in raw
        # An n-edit append-one-hop history stores O(n) hops, not O(n^2): the
        # v3 edit appended one hop, so its delta carries exactly one hop.
        assert catalog.raw_text("chain", "c", version=3).count("[constraints.") == 1
        full_current = len(chain_to_text(chain, name="c"))
        delta_size = len(catalog.raw_text("chain", "c", version=3))
        assert delta_size < full_current

    def test_text_materializes_deltas(self, catalog, chain):
        catalog.put_chain("c", chain[:3], description="evolving")
        catalog.put_chain("c", chain, description="evolving")
        materialized = catalog.text("chain", "c")
        assert materialized == chain_to_text(chain, name="c", description="evolving")
        # Materialized text is self-contained: re-ingesting it elsewhere works.
        other = MappingCatalog(catalog.root.parent / "other")
        assert other.add_text(materialized).kind == "chain"
        assert other.get_chain("c") == chain

    def test_revert_appends_with_the_original_fingerprint(self, catalog, chain):
        catalog.put_chain("c", chain[:3])
        catalog.put_chain("c", chain)
        entry = catalog.put_chain("c", chain[:3])  # revert to the old content
        assert entry.version == 3  # only the *latest* version dedupes
        assert entry.fingerprint == catalog.entry("chain", "c", 1).fingerprint
        assert catalog.get_chain("c", version=3) == chain[:3]

    def test_suffix_replacement_delta(self, catalog, chain):
        catalog.put_chain("c", chain)
        catalog.put_chain("c", chain[:3])
        entry = catalog.put_chain("c", chain)  # replace the suffix back
        assert entry.version == 3
        assert "# kind: chain-delta" in catalog.raw_text("chain", "c", version=3)
        assert catalog.get_chain("c", version=3) == chain
        assert catalog.get_chain("c", version=2) == chain[:3]

    def test_damaged_base_file_does_not_poison_new_versions(self, catalog, chain):
        catalog.put_chain("c", chain[:3])
        entry = catalog.put_chain("c", chain[:4])
        (catalog.root / catalog.entry("chain", "c", 1).path).write_text("garbage")
        stored = catalog.put_chain("c", chain)  # base unreadable -> full record
        assert stored.version == entry.version + 1
        assert "# kind: chain\n" in catalog.raw_text("chain", "c", version=stored.version)
        assert catalog.get_chain("c") == chain


class TestCatalogGC:
    def test_result_gc_keeps_newest_versions(self, catalog):
        first = compose(problem_by_name("example1_movies").problem)
        second = compose(problem_by_name("example3_inclusion_chain").problem)
        catalog.put_result("r", first)
        catalog.put_result("r", second)
        report = catalog.gc(result_keep_versions=1, dry_run=True)
        assert report["results"]["removed"] == 1
        assert len(catalog.versions("result", "r")) == 2  # dry run touches nothing
        report = catalog.gc(result_keep_versions=1)
        assert report["results"] == {"examined": 2, "removed": 1, "retained": 1}
        assert [e.version for e in catalog.versions("result", "r")] == [2]
        assert catalog.get_result("r").constraints.to_text() == second.constraints.to_text()
        with pytest.raises(CatalogError):
            catalog.get_result("r", version=1)

    def test_result_gc_age_bound_spares_recent_versions(self, catalog):
        catalog.put_result("r", compose(problem_by_name("example1_movies").problem))
        catalog.put_result("r", compose(problem_by_name("example3_inclusion_chain").problem))
        report = catalog.gc(result_keep_versions=1, result_max_age_seconds=3600)
        assert report["results"]["removed"] == 0  # both versions are younger than 1h
        assert len(catalog.versions("result", "r")) == 2

    def test_checkpoint_gc_bounds_disk_and_keeps_prefix_reuse(self, tmp_path, chain):
        hops = len(chain) - 1
        catalog = MappingCatalog(tmp_path / "catalog")
        compose_chain(chain, checkpoints=catalog.checkpoints)
        assert catalog.checkpoints.disk_entries() == hops
        report = catalog.gc(checkpoint_max_files=2)
        assert report["checkpoints"]["removed"] == hops - 2
        assert catalog.checkpoints.disk_entries() == 2
        # LRU retains the most recently written = deepest checkpoints, and a
        # checkpoint is a self-contained state: prefix reuse still covers the
        # whole chain from the single deepest file.
        fresh = MappingCatalog(tmp_path / "catalog")
        result = compose_chain(chain, checkpoints=fresh.checkpoints)
        assert result.reused_hops == hops

    def test_checkpoint_gc_by_age(self, tmp_path, chain):
        import os as _os
        import time as _time

        catalog = MappingCatalog(tmp_path / "catalog")
        compose_chain(chain, checkpoints=catalog.checkpoints)
        paths = sorted((tmp_path / "catalog" / "checkpoints").glob("*.ckpt"))
        stale = _time.time() - 7200
        for path in paths[:2]:
            _os.utime(path, (stale, stale))
        report = catalog.gc(checkpoint_max_age_seconds=3600)
        assert report["checkpoints"]["removed"] == 2
        assert catalog.checkpoints.disk_entries() == len(chain) - 1 - 2


class TestPersistentCheckpoints:
    def test_run_chains_does_not_scan_the_directory(self, tmp_path, chain, monkeypatch):
        import os
        from pathlib import Path

        from repro.engine.batch import BatchComposer

        store = PersistentCheckpointStore(tmp_path / "ckpt")
        scans = []
        for owner, name in ((Path, "glob"), (Path, "iterdir"), (os, "scandir"), (os, "listdir")):
            real = getattr(owner, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                scans.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, spy)
        report = BatchComposer(checkpoints=store).run_chains([chain, chain[:-1]])
        assert report.all_succeeded
        assert store.disk_writes == len(chain) - 1
        assert scans == []
        assert "disk_entries" not in report.checkpoint_stats
        monkeypatch.undo()
        assert store.disk_entries() == len(chain) - 1  # the count is on demand

    def test_writes_through_and_reads_back(self, tmp_path, chain):
        store = PersistentCheckpointStore(tmp_path / "ckpt")
        result = compose_chain(chain, checkpoints=store)
        assert store.disk_writes == len(result.hops)
        assert store.disk_entries() == len(result.hops)

        fresh = PersistentCheckpointStore(tmp_path / "ckpt")
        warm = compose_chain(chain, checkpoints=fresh)
        assert warm.reused_hops == len(warm.hops)
        assert warm.constraints.to_text() == result.constraints.to_text()
        assert fresh.disk_hits == 1  # the deepest prefix probe answered from disk

    def test_restart_reuse_via_catalog(self, tmp_path, chain):
        catalog = MappingCatalog(tmp_path / "cat")
        catalog.put_chain("history", chain)
        cold = compose_chain(catalog.get_chain("history"), checkpoints=catalog.checkpoints)
        assert cold.reused_hops == 0

        restarted = MappingCatalog(tmp_path / "cat")  # fresh instance = new process
        warm = compose_chain(
            restarted.get_chain("history"), checkpoints=restarted.checkpoints
        )
        assert warm.reused_hops == len(warm.hops)
        assert warm.constraints.to_text() == cold.constraints.to_text()
        assert tuple(warm.residual_symbols) == tuple(cold.residual_symbols)

    def test_shorter_chain_reuses_the_stored_prefix(self, tmp_path, chain):
        store = PersistentCheckpointStore(tmp_path / "ckpt")
        compose_chain(chain, checkpoints=store)

        fresh = PersistentCheckpointStore(tmp_path / "ckpt")
        result = compose_chain(chain[:-1], checkpoints=fresh)
        assert result.reused_hops == len(result.hops)  # strict prefix fully reused
        assert fresh.disk_hits == 1

    def test_config_change_invalidates(self, tmp_path, chain):
        store = PersistentCheckpointStore(tmp_path / "ckpt")
        compose_chain(chain, checkpoints=store)
        fresh = PersistentCheckpointStore(tmp_path / "ckpt")
        other = compose_chain(chain, ComposerConfig.cost_guided(), checkpoints=fresh)
        assert other.reused_hops == 0

    def test_corrupt_file_is_a_miss(self, tmp_path, chain):
        store = PersistentCheckpointStore(tmp_path / "ckpt")
        compose_chain(chain, checkpoints=store)
        for path in (tmp_path / "ckpt").glob("*.ckpt"):
            path.write_bytes(b"not a pickle")
        fresh = PersistentCheckpointStore(tmp_path / "ckpt")
        result = compose_chain(chain, checkpoints=fresh)
        assert result.reused_hops == 0  # corrupt files ignored, outputs recomputed
        assert result.constraints.to_text()
        # The corrupt files must not be permanent: the failed loads discard
        # them, so the recompute's put() rewrites valid checkpoints that the
        # next process can reuse.
        assert fresh.disk_invalid > 0
        rewarmed = PersistentCheckpointStore(tmp_path / "ckpt")
        again = compose_chain(chain, checkpoints=rewarmed)
        assert again.reused_hops == len(chain) - 1  # every hop checkpoint valid again
        assert again.constraints.to_text() == result.constraints.to_text()

    def test_outputs_identical_with_and_without_store(self, tmp_path, chain):
        bare = compose_chain(chain)
        stored = compose_chain(
            chain, checkpoints=PersistentCheckpointStore(tmp_path / "ckpt")
        )
        memory = compose_chain(chain, checkpoints=CheckpointStore())
        assert (
            bare.constraints.to_text()
            == stored.constraints.to_text()
            == memory.constraints.to_text()
        )

    def test_warm_and_purge(self, tmp_path, chain):
        store = PersistentCheckpointStore(tmp_path / "ckpt")
        compose_chain(chain, checkpoints=store)
        on_disk = store.disk_entries()

        fresh = PersistentCheckpointStore(tmp_path / "ckpt")
        assert fresh.purge() == on_disk
        assert fresh.disk_entries() == 0
        assert compose_chain(chain, checkpoints=fresh).reused_hops == 0

    def test_memory_eviction_falls_back_to_disk(self, tmp_path, chain):
        store = PersistentCheckpointStore(tmp_path / "ckpt", max_entries=2)
        result = compose_chain(chain, checkpoints=store)
        # The bounded memory table evicted, but the files remain.
        assert store.disk_entries() == len(result.hops)
        warm = compose_chain(chain, checkpoints=store)
        assert warm.reused_hops == len(warm.hops)
