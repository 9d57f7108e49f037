"""Tests for catalog replication: journal sources, followers, and promotion."""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.catalog import MappingCatalog
from repro.engine import ChainGrower
from repro.exceptions import ReplicationError
from repro.service import (
    CompositionService,
    HTTPJournalSource,
    LocalJournalSource,
    ReplicationFollower,
    ServiceConfig,
    ServiceHTTPServer,
    open_source,
)
from repro.service.replica import JournalSource


def _wait_for(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture()
def mappings():
    return tuple(ChainGrower(seed=7, schema_size=4).grow_many(6))


@pytest.fixture()
def primary(tmp_path):
    return MappingCatalog(tmp_path / "primary")


@pytest.fixture()
def replica_catalog(tmp_path):
    return MappingCatalog(tmp_path / "replica")


@pytest.fixture()
def primary_server(primary):
    service = CompositionService(primary, ServiceConfig())
    service.start()
    server = ServiceHTTPServer(service, port=0)
    server.start()
    host, port = server.address
    yield primary, f"http://{host}:{port}"
    server.stop()
    service.stop()


def _assert_mirrored(primary, replica, kinds=("mapping", "chain")):
    for kind in kinds:
        assert replica.names(kind) == primary.names(kind)
        for name in primary.names(kind):
            ours = [e.fingerprint for e in replica.versions(kind, name)]
            theirs = [e.fingerprint for e in primary.versions(kind, name)]
            assert ours == theirs


class TestSources:
    def test_open_source_selects_by_scheme(self, tmp_path):
        root = tmp_path / "cat"
        MappingCatalog(root)
        assert isinstance(open_source(root), LocalJournalSource)
        assert isinstance(open_source(f"file://{root}"), LocalJournalSource)
        assert isinstance(open_source("http://127.0.0.1:9"), HTTPJournalSource)
        assert isinstance(open_source("https://example.test"), HTTPJournalSource)

    def test_open_source_rejects_missing_root_and_odd_schemes(self, tmp_path):
        with pytest.raises(ReplicationError):
            open_source(tmp_path / "no-such-root")
        with pytest.raises(ReplicationError):
            open_source("ftp://example.test")

    def test_local_source_reads_live_journal(self, primary, mappings):
        primary.put_mapping("m", mappings[0])
        source = LocalJournalSource(primary.root)
        shard = primary._shard_id("mapping", "m")
        entries = source.read_since(shard, 0)
        assert [entry["op"] for entry in entries] == ["put"]
        assert source.last_seqs()[shard] == 1

    def test_http_source_round_trip(self, primary_server, mappings):
        primary, base = primary_server
        primary.put_mapping("m", mappings[0])
        source = HTTPJournalSource(base)
        shard = primary._shard_id("mapping", "m")
        entries = source.read_since(shard, 0)
        assert [entry["name"] for entry in entries] == ["m"]
        assert source.read_since(shard, since=1) == []
        assert source.last_seqs()[shard] == 1


class TestFollower:
    def test_catch_up_mirrors_local_source(self, primary, replica_catalog, mappings):
        for index, mapping in enumerate(mappings):
            primary.put_mapping(f"m-{index % 3}", mapping)
        primary.put_chain("chain", mappings[:3])
        follower = ReplicationFollower(replica_catalog, LocalJournalSource(primary.root))
        applied = follower.catch_up()
        assert applied > 0
        _assert_mirrored(primary, replica_catalog)
        assert follower.lag() == 0
        assert follower.verify_failures == 0
        # Nothing new: another pass applies zero entries.
        assert follower.catch_up() == 0

    def test_background_tail_follows_new_writes(self, primary, replica_catalog, mappings):
        with ReplicationFollower(
            replica_catalog, LocalJournalSource(primary.root), poll_interval_seconds=0.02
        ) as follower:
            assert follower.is_running
            primary.put_mapping("live", mappings[0])
            assert _wait_for(lambda: replica_catalog.names("mapping") == ("live",))
        assert not follower.is_running
        assert replica_catalog.get_mapping("live") == mappings[0]

    def test_restart_resumes_from_own_journal(self, primary, replica_catalog, mappings):
        primary.put_mapping("m", mappings[0])
        source = LocalJournalSource(primary.root)
        ReplicationFollower(replica_catalog, source).catch_up()
        primary.put_mapping("m", mappings[1])
        # A brand-new follower over the same catalog resumes from the cursor
        # persisted in its own journal — it does not re-apply entry 1.
        fresh = ReplicationFollower(replica_catalog, source)
        assert fresh.catch_up() == 1
        assert fresh.entries_skipped == 0
        _assert_mirrored(primary, replica_catalog, kinds=("mapping",))

    def test_unreachable_source_counts_not_crashes(self, replica_catalog, tmp_path):
        source = HTTPJournalSource("http://127.0.0.1:1", timeout_seconds=0.2)
        follower = ReplicationFollower(
            replica_catalog, source, poll_interval_seconds=0.02
        )
        with pytest.raises(ReplicationError):
            follower.catch_up()
        follower.start()
        assert _wait_for(lambda: follower.poll_failures > 0)
        follower.stop()
        status = follower.status()
        assert status["source_reachable"] is False
        assert status["lag_entries"] is None

    def test_verification_failure_is_counted_and_raised(
        self, primary, replica_catalog, mappings
    ):
        primary.put_mapping("m", mappings[0])
        shard = primary._shard_id("mapping", "m")
        (entry,) = primary.journal.read_since(shard)
        corrupted = dict(entry)
        corrupted["record"] = dict(entry["record"], fingerprint="0" * 32)
        follower = ReplicationFollower(replica_catalog, LocalJournalSource(primary.root))
        with pytest.raises(ReplicationError):
            follower._apply(shard, corrupted)
        assert follower.verify_failures == 1

    def test_parameters_validated(self, replica_catalog, primary):
        source = LocalJournalSource(primary.root)
        with pytest.raises(ReplicationError):
            ReplicationFollower(replica_catalog, source, poll_interval_seconds=0)
        with pytest.raises(ReplicationError):
            ReplicationFollower(replica_catalog, source, batch_limit=0)

    def test_batched_catch_up_pages_through_backlog(
        self, primary, replica_catalog, mappings
    ):
        for index, mapping in enumerate(mappings):
            primary.put_mapping("hot", mapping)  # one name: one shard backlog
        follower = ReplicationFollower(
            replica_catalog, LocalJournalSource(primary.root), batch_limit=2
        )
        assert follower.catch_up() == len(mappings)
        _assert_mirrored(primary, replica_catalog, kinds=("mapping",))


class TestPromotion:
    def test_promote_stops_tailing_and_reports(self, primary, replica_catalog, mappings):
        primary.put_mapping("m", mappings[0])
        follower = ReplicationFollower(
            replica_catalog, LocalJournalSource(primary.root), poll_interval_seconds=0.02
        ).start()
        assert _wait_for(lambda: follower.lag() == 0)
        report = follower.promote()
        assert report["promoted"] is True
        assert report["final_catch_up_error"] is None
        assert not follower.is_running
        assert follower.promoted
        assert follower.status()["role"] == "primary"
        with pytest.raises(ReplicationError):
            follower.start()

    def test_promote_tolerates_dead_source(self, replica_catalog):
        source = HTTPJournalSource("http://127.0.0.1:1", timeout_seconds=0.2)
        follower = ReplicationFollower(replica_catalog, source)
        report = follower.promote()
        assert report["promoted"] is True
        assert report["final_catch_up_error"] is not None

    def test_promoted_catalog_continues_sequence_space(
        self, primary, replica_catalog, mappings
    ):
        primary.put_mapping("m", mappings[0])
        follower = ReplicationFollower(replica_catalog, LocalJournalSource(primary.root))
        follower.catch_up()
        follower.promote()
        shard = replica_catalog._shard_id("mapping", "m")
        before = replica_catalog.journal.last_seq(shard)
        replica_catalog.put_mapping("m", mappings[1])
        assert replica_catalog.journal.last_seq(shard) == before + 1
        # A second-generation follower can tail the promoted root in turn.
        grandchild = MappingCatalog(replica_catalog.root.parent / "grandchild")
        second = ReplicationFollower(grandchild, LocalJournalSource(replica_catalog.root))
        second.catch_up()
        _assert_mirrored(replica_catalog, grandchild, kinds=("mapping",))


class TestFollowerHTTP:
    @pytest.fixture()
    def replicated_stack(self, primary_server, tmp_path):
        primary, primary_base = primary_server
        catalog = MappingCatalog(tmp_path / "follower-cat")
        follower = ReplicationFollower(
            catalog, HTTPJournalSource(primary_base), poll_interval_seconds=0.02
        ).start()
        service = CompositionService(catalog, ServiceConfig())
        service.start()
        server = ServiceHTTPServer(service, port=0, follower=follower)
        server.start()
        host, port = server.address
        yield primary, primary_base, catalog, follower, f"http://{host}:{port}"
        server.stop()
        service.stop()
        if not follower.promoted:
            follower.stop()

    def _get_json(self, url):
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, json.loads(response.read().decode())

    def test_follower_replicates_over_http(self, replicated_stack, mappings):
        primary, _, catalog, follower, _ = replicated_stack
        primary.put_mapping("m", mappings[0])
        assert _wait_for(lambda: catalog.names("mapping") == ("m",))
        assert catalog.get_mapping("m") == mappings[0]
        assert follower.entries_applied >= 1

    def test_roles_and_replication_in_health_and_metrics(self, replicated_stack):
        _, primary_base, _, _, follower_base = replicated_stack
        _, health = self._get_json(primary_base + "/healthz")
        assert health["role"] == "primary"
        assert "replication" not in health
        _, health = self._get_json(follower_base + "/healthz")
        assert health["role"] == "follower"
        assert health["replication"]["source_reachable"] is True
        _, metrics = self._get_json(follower_base + "/metrics")
        assert metrics["role"] == "follower"
        assert metrics["replication"]["verify_failures"] == 0

    def test_follower_rejects_store_writes(self, replicated_stack):
        from repro.literature.problems import problem_by_name
        from repro.textio.format import problem_to_text

        _, _, _, _, follower_base = replicated_stack
        problem = problem_by_name("example1_movies").problem
        request = urllib.request.Request(
            follower_base + "/compose?store=x",
            data=problem_to_text(problem).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 409

    def test_promote_endpoint(self, replicated_stack):
        _, _, _, follower, follower_base = replicated_stack
        request = urllib.request.Request(follower_base + "/admin/promote", method="POST")
        with urllib.request.urlopen(request, timeout=30) as response:
            report = json.loads(response.read().decode())
        assert report["promoted"] is True
        assert follower.promoted
        _, health = self._get_json(follower_base + "/healthz")
        assert health["role"] == "primary"
        # A second promote is an idempotent acknowledgement.
        with urllib.request.urlopen(request, timeout=30) as response:
            again = json.loads(response.read().decode())
        assert again == {"promoted": True, "already": True}

    def test_promote_on_non_follower_is_409(self, primary_server):
        _, base = primary_server
        request = urllib.request.Request(base + "/admin/promote", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 409

    def test_journal_endpoint_shapes(self, primary_server, mappings):
        primary, base = primary_server
        primary.put_mapping("m", mappings[0])
        shard = primary._shard_id("mapping", "m")
        _, payload = self._get_json(f"{base}/journal/{shard}?since=0")
        assert payload["shard"] == shard
        assert payload["last_seq"] == 1
        assert [entry["op"] for entry in payload["entries"]] == ["put"]
        _, lag_only = self._get_json(f"{base}/journal/{shard}?since=0&limit=0")
        assert lag_only["entries"] == []
        assert lag_only["last_seq"] == 1
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base}/journal/999", timeout=30)
        assert excinfo.value.code in (400, 404)


class TestSourceABC:
    def test_abstract_methods_raise(self):
        source = JournalSource()
        with pytest.raises(NotImplementedError):
            source.read_since(0, 0)
        with pytest.raises(NotImplementedError):
            source.last_seqs()
