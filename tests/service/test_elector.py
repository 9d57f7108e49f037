"""Tests for lease-based leader election (``repro serve --election``)."""

import time

import pytest

from repro.catalog import MappingCatalog
from repro.catalog.leases import LeaseTable
from repro.engine import ChainGrower
from repro.exceptions import ServiceError, StaleEpochError
from repro.service import (
    CompositionService,
    HTTPJournalSource,
    LeaderElector,
    ReplicationFollower,
    ServiceConfig,
    ServiceHTTPServer,
)
from repro.service.election import LEADER_LEASE_KEY
from repro.service.replica import LocalJournalSource


def _wait_for(predicate, timeout=15.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _mappings(count, seed=9):
    return list(ChainGrower(seed=seed, schema_size=4).grow_many(count))


class TestValidation:
    def test_timeouts_must_be_positive(self, tmp_path):
        catalog = MappingCatalog(tmp_path / "cat")
        with pytest.raises(ServiceError):
            LeaderElector(catalog, election_timeout_seconds=0)
        with pytest.raises(ServiceError):
            LeaderElector(catalog, poll_interval_seconds=-1)

    def test_defaults_derive_from_election_timeout(self, tmp_path):
        catalog = MappingCatalog(tmp_path / "cat")
        elector = LeaderElector(catalog, election_timeout_seconds=8.0)
        assert elector.poll_interval_seconds == 2.0
        assert elector.leases.directory == catalog.root / "election"
        assert elector.is_leader  # no follower: this process is the primary


class TestLeaderMode:
    """Tick-level tests: drive the loop body directly, no thread."""

    def test_leader_acquires_then_renews_the_lease(self, tmp_path):
        catalog = MappingCatalog(tmp_path / "cat")
        elector = LeaderElector(catalog, election_timeout_seconds=1.0)
        elector._leader_tick()
        assert LEADER_LEASE_KEY in elector.leases.held()
        elector._leader_tick()
        assert elector.renewals == 1
        assert elector.renew_failures == 0
        assert elector.status()["role"] == "leader"
        elector.leases.release_all()

    def test_leader_deposed_when_lease_is_taken_over(self, tmp_path):
        catalog = MappingCatalog(tmp_path / "cat")
        elector = LeaderElector(catalog, election_timeout_seconds=1.0)
        elector._leader_tick()  # acquire
        # A usurper whose clock says our lease already expired (the
        # real-world shape: we SIGSTOPped past the TTL) takes the key over.
        usurper = LeaseTable(
            elector.leases.directory,
            owner="usurper",
            ttl_seconds=30,
            clock=lambda: time.time() + 3600,
        )
        assert usurper.acquire(LEADER_LEASE_KEY) is not None
        elector._leader_tick()  # renew comes back False
        assert elector.renew_failures == 1
        assert elector.deposed
        assert not elector.is_leader
        assert elector.status()["role"] == "deposed"
        # A deposed leader never tries to re-acquire.
        elector._leader_tick()
        assert LEADER_LEASE_KEY not in elector.leases.held()


class TestCandidateMode:
    def _replicated_pair(self, tmp_path):
        primary = MappingCatalog(tmp_path / "primary")
        for index, mapping in enumerate(_mappings(3)):
            primary.put_mapping(f"map-{index}", mapping)
        replica = MappingCatalog(tmp_path / "replica")
        follower = ReplicationFollower(
            replica, LocalJournalSource(primary.root / "journal")
        )
        follower.catch_up()
        return primary, replica, follower

    def test_silent_primary_triggers_promotion_and_fencing(self, tmp_path):
        primary, replica, follower = self._replicated_pair(tmp_path)
        elector = LeaderElector(
            replica,
            follower=follower,
            election_dir=tmp_path / "election",
            source_root=primary.root,
            election_timeout_seconds=0.2,
        )
        assert not elector.is_leader
        # The primary has been silent longer than the election timeout
        # (a local-root follower judges liveness by its own poll outcomes).
        follower._source_reachable = False
        elector._last_alive_monotonic = time.monotonic() - 10
        elector._candidate_tick()
        assert elector.elections_won == 1
        assert elector.is_leader
        assert follower.promoted
        assert elector.promotion_report["promoted"] is True
        # Promotion minted a fencing epoch and tombstoned the old root.
        assert replica.epoch == 1
        assert elector.fenced_source_epoch == 1
        with pytest.raises(StaleEpochError):
            primary.put_mapping("zombie", _mappings(1, seed=77)[0])

    def test_losing_the_race_is_not_an_error(self, tmp_path):
        primary, replica, follower = self._replicated_pair(tmp_path)
        rival = LeaseTable(tmp_path / "election", owner="rival", ttl_seconds=30)
        rival.acquire(LEADER_LEASE_KEY)
        elector = LeaderElector(
            replica,
            follower=follower,
            election_dir=tmp_path / "election",
            election_timeout_seconds=0.2,
        )
        # An unexpired peer lease counts as a live leader: no election.
        elector._last_alive_monotonic = time.monotonic() - 10
        elector._candidate_tick()
        assert elector.elections_started == 0
        assert not elector.is_leader
        # Forced into the race anyway, the loser backs off and resets its
        # silence clock instead of erroring.
        elector._run_election()
        assert elector.elections_lost == 1
        assert not elector.is_leader
        assert not follower.promoted
        assert elector.status()["primary_silence_seconds"] < 0.2

    def test_manual_promote_is_adopted(self, tmp_path):
        primary, replica, follower = self._replicated_pair(tmp_path)
        follower.promote()  # the operator beat the elector to it
        elector = LeaderElector(
            replica,
            follower=follower,
            election_dir=tmp_path / "election",
            election_timeout_seconds=0.2,
        )
        elector._candidate_tick()
        assert elector.is_leader
        assert elector.elections_started == 0  # adopted, not raced
        assert replica.epoch >= 1


class TestUnattendedFailoverInProcess:
    """The whole loop, threads and HTTP included, inside one process."""

    def test_follower_self_promotes_when_the_primary_dies(self, tmp_path):
        primary_catalog = MappingCatalog(tmp_path / "primary")
        primary_service = CompositionService(
            primary_catalog, ServiceConfig()
        )
        primary_service.start()
        primary_server = ServiceHTTPServer(primary_service, port=0)
        primary_server.start()
        host, port = primary_server.address
        primary_base = f"http://{host}:{port}"

        (mapping,) = _mappings(1)
        primary_catalog.put_mapping("durable", mapping)

        replica_catalog = MappingCatalog(tmp_path / "replica")
        follower = ReplicationFollower(
            replica_catalog,
            HTTPJournalSource(primary_base),
            poll_interval_seconds=0.05,
        ).start()
        elector = LeaderElector(
            replica_catalog,
            follower=follower,
            election_dir=tmp_path / "election",
            source_root=primary_catalog.root,
            primary_url=primary_base,
            election_timeout_seconds=0.4,
            health_timeout_seconds=0.5,
        ).start()
        replica_service = CompositionService(
            replica_catalog, ServiceConfig()
        )
        replica_service.start()
        replica_server = ServiceHTTPServer(
            replica_service, port=0, follower=follower, elector=elector
        )
        replica_server.start()
        try:
            assert _wait_for(lambda: "durable" in replica_catalog.names("mapping"))
            assert not elector.is_leader  # live primary: still a candidate

            # The primary dies without warning and nobody calls
            # /admin/promote: the elector must win on its own.
            primary_server.stop()
            primary_service.stop()
            assert _wait_for(lambda: elector.is_leader)
            assert follower.promoted
            assert replica_catalog.epoch >= 1
            assert (
                replica_catalog.get_mapping("durable").fingerprint()
                == mapping.fingerprint()
            )
            # The promoted node now answers as a healthy primary with the
            # new epoch, so a router would route writes to it.
            health = replica_service.health()
            assert health["status"] == "ok"
            assert elector.status()["role"] == "leader"
            # ... and the fenced ex-primary cannot accept zombie writes.
            with pytest.raises(StaleEpochError):
                primary_catalog.put_mapping("zombie", _mappings(1, seed=5)[0])
        finally:
            replica_server.stop()
            elector.stop()
            if not follower.promoted:
                follower.stop()
            replica_service.stop()
