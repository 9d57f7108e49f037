"""Tests for the concurrent composition service.

The load-bearing guarantee: the service adds scheduling — queueing,
deduplication, caller-runs execution, concurrency — but never semantics.  Every
payload must be byte-identical to calling ``compose`` / ``compose_chain``
directly, including under concurrent overlapping submissions (the
acceptance-criterion proof lives in :class:`TestConcurrentClients`).
"""

import sys
import threading
import time

import pytest

from repro.catalog import MappingCatalog
from repro.compose.composer import compose
from repro.compose.config import ComposerConfig
from repro.engine import ChainGrower, compose_chain
from repro.engine.workloads import WorkloadConfig, generate_workload, pairwise_problems
from repro.exceptions import (
    ServiceDeadlineError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.literature.problems import problem_by_name
from repro.service import CompositionService, ServiceConfig


def _constraints_text(result) -> str:
    return result.constraints.to_text()


@pytest.fixture()
def chains():
    return [tuple(problem.mappings) for problem in generate_workload(
        WorkloadConfig(num_problems=6, min_chain_length=3, max_chain_length=4, seed=17)
    )]


@pytest.fixture()
def service():
    with CompositionService() as svc:
        yield svc


class TestBasics:
    def test_problem_identical_to_direct_compose(self, service):
        problem = problem_by_name("example1_movies").problem
        direct = compose(problem)
        served = service.compose(problem)
        assert _constraints_text(served) == _constraints_text(direct)
        assert served.residual_sigma2 == direct.residual_sigma2
        assert served.attempted_symbols == direct.attempted_symbols

    def test_chain_identical_to_direct_compose_chain(self, service, chains):
        for chain in chains[:3]:
            direct = compose_chain(chain)
            served = service.compose_chain(chain)
            assert _constraints_text(served) == _constraints_text(direct)
            assert served.residual_symbols == direct.residual_symbols

    def test_partitioned_request(self, service):
        problem = problem_by_name("glav_chain").problem
        direct = compose(problem, ComposerConfig.cost_guided())
        served = service.compose(problem, ComposerConfig.cost_guided())
        assert _constraints_text(served) == _constraints_text(direct)

    def test_per_request_config_override(self, service):
        problem = problem_by_name("glav_chain").problem
        fixed = service.compose(problem)
        cost = service.compose(problem, config=ComposerConfig.cost_guided())
        assert fixed.components == 0
        assert cost.components >= 1
        # Different configs never coalesce onto each other.
        assert _constraints_text(fixed) == _constraints_text(
            compose(problem, ComposerConfig())
        )

    def test_submissions_queue_before_start(self, chains):
        svc = CompositionService()
        ticket = svc.submit_chain(chains[0])  # accepted, waits for the loop
        assert not ticket.done()
        svc.start()
        assert _constraints_text(ticket.result(60)) == _constraints_text(
            compose_chain(chains[0])
        )
        svc.stop()
        with pytest.raises(ServiceError):
            svc.submit_chain(chains[0])  # a stopped service refuses work

    def test_failure_is_reported_not_swallowed(self, service, chains):
        # An unsatisfiable submission: empty chains are rejected immediately.
        with pytest.raises(ServiceError):
            service.submit_chain(())

    def test_stop_drains_queue(self, chains):
        svc = CompositionService(config=ServiceConfig())
        svc.start()
        tickets = [svc.submit_chain(chain) for chain in chains]
        svc.stop()  # drain=True: everything already queued is served
        assert all(ticket.done() for ticket in tickets)
        for chain, ticket in zip(chains, tickets):
            assert _constraints_text(ticket.result(0)) == _constraints_text(
                compose_chain(chain)
            )


class TestDeduplication:
    def test_identical_requests_coalesce(self, chains):
        # Submitted before start(): every duplicate finds the first queued.
        svc = CompositionService()
        tickets = [svc.submit_chain(chains[0]) for _ in range(20)]
        with svc:
            results = [ticket.result(60) for ticket in tickets]
        assert all(ticket.coalesced for ticket in tickets[1:])
        reference = _constraints_text(compose_chain(chains[0]))
        assert all(_constraints_text(result) == reference for result in results)
        metrics = svc.metrics()
        assert metrics["requests"]["deduplicated"] >= 1
        assert metrics["requests"]["submitted"] == 20

    def test_different_configs_do_not_coalesce(self, service):
        problem = problem_by_name("glav_chain").problem
        a = service.submit_problem(problem)
        b = service.submit_problem(problem, config=ComposerConfig.cost_guided())
        assert not b.coalesced or not a.coalesced
        assert a.result(60).components == 0
        assert b.result(60).components >= 1


class TestAdmissionControl:
    def test_overload_rejected_deterministically(self, chains):
        # The loop is not running yet, so the queue fills deterministically.
        config = ServiceConfig(max_pending=2)
        svc = CompositionService(config=config)
        first = svc.submit_chain(chains[0])
        second = svc.submit_chain(chains[1])
        with pytest.raises(ServiceOverloadedError):
            svc.submit_chain(chains[2])
        # Coalesced duplicates ride on an existing item: still admitted.
        duplicate = svc.submit_chain(chains[0])
        assert duplicate.coalesced
        assert svc.metrics()["requests"]["rejected"] == 1

        svc.start()
        svc.stop()  # drain serves the admitted items
        for chain, ticket in ((chains[0], first), (chains[1], second), (chains[0], duplicate)):
            assert _constraints_text(ticket.result(0)) == _constraints_text(
                compose_chain(chain)
            )


class TestBlockingAdmission:
    def test_deadline_expires_deterministically(self, chains):
        # Loop not running: the queue can never drain, so a blocked request
        # must ride out its whole deadline and then fail.
        config = ServiceConfig(max_pending=1, admission="block")
        svc = CompositionService(config=config)
        svc.submit_chain(chains[0])
        with pytest.raises(ServiceDeadlineError):
            svc.submit_chain(chains[1], deadline_seconds=0.05)
        metrics = svc.metrics()["requests"]
        assert metrics["blocked"] == 1
        assert metrics["deadline_expired"] == 1
        assert metrics["rejected"] == 0

    def test_deadline_error_is_an_overload_error(self):
        # HTTP keeps answering 429: the deadline error is a refinement of
        # overload, not a new failure class.
        assert issubclass(ServiceDeadlineError, ServiceOverloadedError)

    def test_service_wide_deadline_applies(self, chains):
        config = ServiceConfig(max_pending=1, admission="block", deadline_seconds=0.05)
        svc = CompositionService(config=config)
        svc.submit_chain(chains[0])
        with pytest.raises(ServiceDeadlineError):
            svc.submit_chain(chains[1])

    def test_blocked_submission_admitted_when_space_frees(self, chains):
        config = ServiceConfig(max_pending=1, admission="block")
        svc = CompositionService(config=config)
        first = svc.submit_chain(chains[0])
        admitted = {}

        def blocked_submit():
            admitted["ticket"] = svc.submit_chain(chains[1])

        waiter = threading.Thread(target=blocked_submit)
        waiter.start()
        time.sleep(0.05)
        assert waiter.is_alive()  # genuinely blocked, not rejected
        svc.start()  # draining the queue frees space and admits the waiter
        waiter.join(timeout=30)
        assert not waiter.is_alive()
        svc.stop()
        assert _constraints_text(first.result(0)) == _constraints_text(
            compose_chain(chains[0])
        )
        assert _constraints_text(admitted["ticket"].result(30)) == _constraints_text(
            compose_chain(chains[1])
        )
        assert svc.metrics()["requests"]["blocked"] == 1

    def test_stop_wakes_blocked_submitters(self, chains):
        config = ServiceConfig(max_pending=1, admission="block")
        svc = CompositionService(config=config)
        svc.submit_chain(chains[0])
        outcome = {}

        def blocked_submit():
            try:
                svc.submit_chain(chains[1])
            except ServiceError as exc:
                outcome["error"] = exc

        waiter = threading.Thread(target=blocked_submit)
        waiter.start()
        time.sleep(0.05)
        svc.stop(drain=False)
        waiter.join(timeout=30)
        assert not waiter.is_alive()
        assert isinstance(outcome["error"], ServiceError)

    def test_expired_deadline_beats_stop_wakeup(self, chains):
        # The race: a waiter whose deadline has already expired is woken by
        # stop()'s broadcast (or by the drain freeing space).  The outcome
        # must be deterministic — once the budget is spent the waiter gets
        # ServiceDeadlineError, never the generic "service is stopped" error,
        # whichever signal wins the wakeup.
        for _ in range(20):
            config = ServiceConfig(max_pending=1, admission="block")
            svc = CompositionService(config=config)
            svc.submit_chain(chains[0])
            outcome = {}
            started = threading.Event()

            def blocked_submit():
                started.set()
                try:
                    svc.submit_chain(chains[1], deadline_seconds=0.05)
                except ServiceError as exc:
                    outcome["error"] = exc

            waiter = threading.Thread(target=blocked_submit)
            waiter.start()
            started.wait()
            # Let the deadline expire while the waiter sleeps, then fire the
            # shutdown broadcast so both wake reasons arrive together.
            time.sleep(0.1)
            svc.stop(drain=False)
            waiter.join(timeout=30)
            assert not waiter.is_alive()
            assert isinstance(outcome["error"], ServiceDeadlineError), outcome[
                "error"
            ]

    def test_blocking_identical_results_under_burst(self, chains):
        # A tiny queue with blocking admission: every client eventually gets
        # a byte-identical result — blocking changes timing, never payloads.
        config = ServiceConfig(max_pending=1, admission="block")
        expected = {
            index: _constraints_text(compose_chain(chain))
            for index, chain in enumerate(chains)
        }
        results = {}
        errors = []
        with CompositionService(config=config) as svc:

            def client(index):
                try:
                    results[index] = _constraints_text(
                        svc.compose_chain(chains[index], timeout=120)
                    )
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(len(chains))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert not errors
        assert results == expected


class TestServiceGC:
    def test_run_gc_bounds_checkpoints_and_counts(self, tmp_path, chains):
        catalog = MappingCatalog(tmp_path / "cat")
        config = ServiceConfig(gc_checkpoint_max_files=1, gc_grace_seconds=0.0)
        with CompositionService(catalog, config) as svc:
            for chain in chains[:3]:
                svc.compose_chain(chain)
            assert catalog.checkpoints.disk_entries() > 1
            report = svc.run_gc()
        assert report["checkpoints"]["retained"] == 1
        assert catalog.checkpoints.disk_entries() == 1
        gc_metrics = svc.metrics()["gc"]
        assert gc_metrics["sweeps"] == 1
        assert gc_metrics["checkpoints_removed"] == report["checkpoints"]["removed"]

    def test_background_sweep_runs_periodically(self, tmp_path, chains):
        catalog = MappingCatalog(tmp_path / "cat")
        config = ServiceConfig(
            gc_interval_seconds=0.05, gc_checkpoint_max_files=1, gc_grace_seconds=0.0
        )
        with CompositionService(catalog, config) as svc:
            svc.compose_chain(chains[0])
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                metrics = svc.metrics()["gc"]
                if metrics["sweeps"] >= 1 and catalog.checkpoints.disk_entries() <= 1:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("background sweep never bounded the checkpoint files")
        # Stopping the service stops the sweeper with it.
        sweeps = svc.metrics()["gc"]["sweeps"]
        time.sleep(0.15)
        assert svc.metrics()["gc"]["sweeps"] == sweeps

    def test_run_gc_without_catalog_is_a_noop(self, service):
        assert service.run_gc() is None


class TestConcurrentClients:
    def test_overlapping_concurrent_clients_byte_identical_to_serial(self, chains):
        """Acceptance criterion: N concurrent clients with overlapping requests
        receive results byte-identical to serial execution."""
        problems = [problem_by_name("example1_movies").problem,
                    problem_by_name("glav_chain").problem]
        serial_chain = {
            index: _constraints_text(compose_chain(chain))
            for index, chain in enumerate(chains)
        }
        serial_problem = {
            index: _constraints_text(compose(problem))
            for index, problem in enumerate(problems)
        }

        num_clients = 8
        outcomes = [[] for _ in range(num_clients)]
        errors = []
        with CompositionService() as svc:
            barrier = threading.Barrier(num_clients)

            def client(client_index: int) -> None:
                try:
                    barrier.wait(10)
                    # Every client walks the same workload, offset so requests
                    # overlap heavily but not identically.
                    for step in range(len(chains)):
                        chain_index = (client_index + step) % len(chains)
                        ticket = svc.submit_chain(chains[chain_index])
                        problem_index = (client_index + step) % len(problems)
                        problem_ticket = svc.submit_problem(problems[problem_index])
                        outcomes[client_index].append(
                            ("chain", chain_index, ticket.result(120))
                        )
                        outcomes[client_index].append(
                            ("problem", problem_index, problem_ticket.result(120))
                        )
                except Exception as exc:  # noqa: BLE001 - surface in the main thread
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(num_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert not errors
        for per_client in outcomes:
            assert len(per_client) == 2 * len(chains)
            for kind, index, result in per_client:
                expected = serial_chain[index] if kind == "chain" else serial_problem[index]
                assert _constraints_text(result) == expected

        metrics = svc.metrics()
        assert metrics["requests"]["completed"] >= 1
        assert metrics["requests"]["deduplicated"] >= 1  # overlap must coalesce
        assert metrics["requests"]["failed"] == 0


class TestCatalogIntegration:
    def test_served_chains_warm_the_persistent_store(self, tmp_path, chains):
        catalog = MappingCatalog(tmp_path / "cat")
        catalog.put_chain("history", chains[0])
        with CompositionService(catalog) as svc:
            cold = svc.compose_catalog("chain", "history")
        assert cold.reused_hops == 0

        restarted = MappingCatalog(tmp_path / "cat")
        with CompositionService(restarted) as svc:
            warm = svc.compose_catalog("chain", "history")
        assert warm.reused_hops == len(warm.hops)
        assert _constraints_text(warm) == _constraints_text(cold)

    def test_compose_catalog_requires_catalog(self, service):
        with pytest.raises(ServiceError):
            service.compose_catalog("chain", "x")


class TestMetrics:
    def test_snapshot_shape(self, service, chains):
        service.compose_chain(chains[0])
        metrics = service.metrics()
        assert set(metrics) == {
            "requests", "batching", "latency", "phases", "expression_cache",
            "checkpoints", "gc", "degradation", "replication", "breaker", "leases",
            "tracing", "histograms",
        }
        assert metrics["requests"]["completed"] == 1
        assert metrics["batching"]["batches"] == 1
        assert metrics["phases"]  # per-phase buckets aggregated from the hops
        assert metrics["latency"]["execution_seconds_total"] > 0
        assert metrics["checkpoints"]["entries"] >= 1


class TestCallerRuns:
    """Blocking calls compose on the caller's thread, one at a time."""

    @pytest.fixture()
    def problems(self):
        chain = generate_workload(
            WorkloadConfig(num_problems=1, min_chain_length=7, max_chain_length=7, seed=23)
        )[0]
        return pairwise_problems(chain)

    @staticmethod
    def _instrument(monkeypatch, before=None):
        """Wrap the engine's compose(); returns the list of executing threads."""
        import repro.engine.batch as batch

        threads = []
        real = batch.compose

        def instrumented(problem, config=None):
            threads.append(threading.get_ident())
            if before is not None:
                before()
            return real(problem, config)

        monkeypatch.setattr(batch, "compose", instrumented)
        return threads

    def test_blocking_compose_runs_on_the_callers_thread(self, service, problems, monkeypatch):
        threads = self._instrument(monkeypatch)
        service.compose(problems[0])
        worker = threading.Thread(target=service.compose, args=(problems[1],))
        worker.start()
        worker.join(60)
        assert not worker.is_alive()
        assert threads == [threading.get_ident(), worker.ident]

    def test_concurrent_identical_composes_execute_once(self, service, problems, monkeypatch):
        num_callers = 6
        release = threading.Event()
        # The owner holds its execution open until every other caller has
        # coalesced onto it, so the dedup count is deterministic.
        threads = self._instrument(monkeypatch, before=lambda: release.wait(60))
        results = []

        def caller():
            results.append(_constraints_text(service.compose(problems[0], timeout=60)))

        callers = [threading.Thread(target=caller) for _ in range(num_callers)]
        for thread in callers:
            thread.start()
        deadline = time.monotonic() + 30
        while service.metrics()["requests"]["deduplicated"] < num_callers - 1:
            assert time.monotonic() < deadline, "callers never coalesced"
            time.sleep(0.005)
        release.set()
        for thread in callers:
            thread.join(60)
        assert not any(thread.is_alive() for thread in callers)
        assert len(threads) == 1
        assert results == [_constraints_text(compose(problems[0]))] * num_callers
        metrics = service.metrics()
        assert metrics["requests"]["deduplicated"] == num_callers - 1
        assert metrics["batching"]["batches"] == 1

    def test_different_requests_never_execute_at_the_same_time(
        self, service, problems, monkeypatch
    ):
        lock = threading.Lock()
        state = {"active": 0, "peak": 0}

        def overlapping():
            with lock:
                state["active"] += 1
                state["peak"] = max(state["peak"], state["active"])
            time.sleep(0.02)  # a window for a second execution to overlap
            with lock:
                state["active"] -= 1

        threads = self._instrument(monkeypatch, before=overlapping)
        barrier = threading.Barrier(len(problems))
        results = {}

        def caller(index):
            barrier.wait(30)
            results[index] = _constraints_text(service.compose(problems[index]))

        callers = [threading.Thread(target=caller, args=(i,)) for i in range(len(problems))]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(60)
        assert not any(thread.is_alive() for thread in callers)
        assert len(threads) == len(problems)
        assert len(set(threads)) == len(problems)  # each on its own caller
        assert state["peak"] == 1
        assert results == {
            index: _constraints_text(compose(problem)) for index, problem in enumerate(problems)
        }

    def test_admission_counters_survive_a_thread_storm(self, problems):
        # More callers than cores, mixing blocking and async calls on
        # overlapping keys, with rapid thread switching: a lost update to
        # the pending count or the in-flight table would leave residue.
        expected = [_constraints_text(compose(problem)) for problem in problems]
        results, errors = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with CompositionService(config=ServiceConfig(max_pending=4, admission="block")) as svc:

                def caller(index):
                    try:
                        for step in range(6):
                            which = (index + step) % len(problems)
                            if step % 2:
                                result = svc.submit_problem(problems[which]).result(60)
                            else:
                                result = svc.compose(problems[which], timeout=60)
                            results.append(_constraints_text(result) == expected[which])
                    except Exception as exc:  # noqa: BLE001 - surfaced below
                        errors.append(exc)

                callers = [threading.Thread(target=caller, args=(i,)) for i in range(12)]
                for thread in callers:
                    thread.start()
                for thread in callers:
                    thread.join(120)
                assert not any(thread.is_alive() for thread in callers)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert results == [True] * 12 * 6
        metrics = svc.metrics()["requests"]
        assert metrics["pending"] == 0 and metrics["in_flight"] == 0
        assert metrics["completed"] + metrics["deduplicated"] == metrics["submitted"] == 72
