"""Tests for the concurrent composition service.

The load-bearing guarantee: the service adds scheduling — admission,
deduplication, caller-runs execution, concurrency — but never semantics.  Every
payload must be byte-identical to calling ``compose`` / ``compose_chain``
directly, including under concurrent overlapping requests (the
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


@pytest.fixture()
def problems():
    chain = generate_workload(
        WorkloadConfig(num_problems=1, min_chain_length=7, max_chain_length=7, seed=23)
    )[0]
    return pairwise_problems(chain)


def _instrument(monkeypatch, before=None):
    """Wrap the engine's compose()/compose_chain(); returns the executing threads.

    ``before`` runs inside each execution (under the service's execution
    lock): a ``release.wait`` there holds one execution open, so later
    requests pile up behind it deterministically.
    """
    import repro.engine.batch as batch

    threads = []

    def wrap(real):
        def instrumented(*args, **kwargs):
            threads.append(threading.get_ident())
            if before is not None:
                before()
            return real(*args, **kwargs)

        return instrumented

    monkeypatch.setattr(batch, "compose", wrap(batch.compose))
    monkeypatch.setattr(batch, "compose_chain", wrap(batch.compose_chain))
    return threads


class _Call:
    """One blocking service call running on its own thread."""

    def __init__(self, fn, *args):
        self.value = None
        self.error = None
        self.thread = threading.Thread(target=self._run, args=(fn, args))
        self.thread.start()

    def _run(self, fn, args):
        try:
            self.value = fn(*args)
        except Exception as exc:  # noqa: BLE001 - inspected by the test
            self.error = exc

    def result(self):
        self.thread.join(60)
        assert not self.thread.is_alive(), "call never returned"
        if self.error is not None:
            raise self.error
        return self.value


def _await_metric(svc, name, value):
    """Poll ``metrics()["requests"][name]`` until it equals ``value``."""
    deadline = time.monotonic() + 30
    while svc.metrics()["requests"][name] != value:
        assert time.monotonic() < deadline, f"requests.{name} never reached {value}"
        time.sleep(0.002)


def _fill(svc, problems):
    """Hold ``problems[0]`` executing and ``problems[1]`` waiting for the lock.

    Needs an instrumented, held execution; with ``max_pending=1`` the
    service is then exactly at its admission bound.
    """
    first = _Call(svc.compose, problems[0])
    _await_metric(svc, "submitted", 1)
    _await_metric(svc, "pending", 0)  # first now holds the lock
    second = _Call(svc.compose, problems[1])
    _await_metric(svc, "pending", 1)
    return first, second


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

    def test_failure_is_reported_not_swallowed(self, service, chains):
        # An unsatisfiable request: empty chains are rejected immediately.
        with pytest.raises(ServiceError):
            service.compose_chain(())

    def test_stopped_service_refuses_work(self, chains):
        svc = CompositionService().start()
        svc.stop()
        assert not svc.is_running
        with pytest.raises(ServiceError):
            svc.compose_chain(chains[0])


class TestDeduplication:
    def test_identical_requests_coalesce(self, service, chains, monkeypatch):
        # The owner holds its execution open until every duplicate has
        # coalesced onto it, so the dedup count is deterministic.
        release = threading.Event()
        threads = _instrument(monkeypatch, before=lambda: release.wait(60))
        calls = [_Call(service.compose_chain, chains[0]) for _ in range(20)]
        _await_metric(service, "deduplicated", 19)
        release.set()
        results = [call.result() for call in calls]
        assert len(threads) == 1
        reference = _constraints_text(compose_chain(chains[0]))
        assert all(_constraints_text(result) == reference for result in results)
        metrics = service.metrics()
        assert metrics["requests"]["deduplicated"] == 19
        assert metrics["requests"]["submitted"] == 20

    def test_different_configs_do_not_coalesce(self, service, monkeypatch):
        problem = problem_by_name("glav_chain").problem
        release = threading.Event()
        threads = _instrument(monkeypatch, before=lambda: release.wait(60))
        fixed = _Call(service.compose, problem)
        _await_metric(service, "submitted", 1)
        _await_metric(service, "pending", 0)  # fixed now holds the lock
        cost = _Call(service.compose, problem, ComposerConfig.cost_guided())
        # Admitted as its own request, waiting behind the held execution.
        _await_metric(service, "pending", 1)
        release.set()
        assert fixed.result().components == 0
        assert cost.result().components >= 1
        assert len(threads) == 2
        assert service.metrics()["requests"]["deduplicated"] == 0


class TestAdmissionControl:
    def test_overload_rejected_deterministically(self, problems, monkeypatch):
        # One execution held open, one request waiting for the lock: the
        # admission bound is reached deterministically.
        release = threading.Event()
        _instrument(monkeypatch, before=lambda: release.wait(60))
        with CompositionService(config=ServiceConfig(max_pending=1)) as svc:
            first, second = _fill(svc, problems)
            with pytest.raises(ServiceOverloadedError):
                svc.compose(problems[2])
            # Coalesced duplicates ride on an existing item: still admitted.
            duplicate = _Call(svc.compose, problems[1])
            _await_metric(svc, "deduplicated", 1)
            assert svc.metrics()["requests"]["rejected"] == 1
            release.set()
            for index, call in ((0, first), (1, second), (1, duplicate)):
                assert _constraints_text(call.result()) == _constraints_text(
                    compose(problems[index])
                )


class TestBlockingAdmission:
    def test_deadline_expires_deterministically(self, problems, monkeypatch):
        # The held execution never finishes within the deadline, so a
        # blocked request must ride out its whole deadline and then fail.
        release = threading.Event()
        _instrument(monkeypatch, before=lambda: release.wait(60))
        config = ServiceConfig(max_pending=1, admission="block", deadline_seconds=0.05)
        with CompositionService(config=config) as svc:
            calls = _fill(svc, problems)
            with pytest.raises(ServiceDeadlineError):
                svc.compose(problems[2])
            metrics = svc.metrics()["requests"]
            release.set()
            for call in calls:
                call.result()
        assert metrics["blocked"] == 1
        assert metrics["deadline_expired"] == 1
        assert metrics["rejected"] == 0

    def test_deadline_error_is_an_overload_error(self):
        # HTTP keeps answering 429: the deadline error is a refinement of
        # overload, not a new failure class.
        assert issubclass(ServiceDeadlineError, ServiceOverloadedError)

    def test_service_wide_deadline_applies(self, problems, monkeypatch):
        release = threading.Event()
        _instrument(monkeypatch, before=lambda: release.wait(60))
        config = ServiceConfig(max_pending=1, admission="block", deadline_seconds=0.2)
        with CompositionService(config=config) as svc:
            calls = _fill(svc, problems)
            started = time.monotonic()
            with pytest.raises(ServiceDeadlineError):
                svc.compose(problems[2])
            waited = time.monotonic() - started
            release.set()
            for call in calls:
                call.result()
        # Blocked for the whole budget, not rejected at once.
        assert 0.2 <= waited < 30

    def test_blocked_submission_admitted_when_space_frees(self, problems, monkeypatch):
        release = threading.Event()
        _instrument(monkeypatch, before=lambda: release.wait(60))
        config = ServiceConfig(max_pending=1, admission="block")
        with CompositionService(config=config) as svc:
            first, second = _fill(svc, problems)
            blocked = _Call(svc.compose, problems[2])
            _await_metric(svc, "blocked", 1)
            assert blocked.thread.is_alive()  # genuinely blocked, not rejected
            release.set()  # the held execution finishes, the waiter moves up
            for index, call in enumerate((first, second, blocked)):
                assert _constraints_text(call.result()) == _constraints_text(
                    compose(problems[index])
                )
        assert svc.metrics()["requests"]["blocked"] == 1

    def test_stop_wakes_blocked_submitters(self, problems, monkeypatch):
        release = threading.Event()
        _instrument(monkeypatch, before=lambda: release.wait(60))
        config = ServiceConfig(max_pending=1, admission="block")
        svc = CompositionService(config=config).start()
        first, second = _fill(svc, problems)
        blocked = _Call(svc.compose, problems[2])
        _await_metric(svc, "blocked", 1)
        svc.stop()
        blocked.thread.join(30)
        assert not blocked.thread.is_alive()
        assert type(blocked.error) is ServiceError
        # Requests admitted before stop() still compose and answer.
        release.set()
        for index, call in enumerate((first, second)):
            assert _constraints_text(call.result()) == _constraints_text(
                compose(problems[index])
            )

    def test_expired_deadline_beats_stop_wakeup(self, problems, monkeypatch):
        # The race: a waiter whose deadline has already expired is woken by
        # stop()'s broadcast (or by space freeing).  The outcome must be
        # deterministic — once the budget is spent the waiter gets
        # ServiceDeadlineError, never the generic "service is stopped" error,
        # whichever signal wins the wakeup.
        gate = {}
        _instrument(monkeypatch, before=lambda: gate["release"].wait(60))
        for _ in range(20):
            gate["release"] = threading.Event()
            config = ServiceConfig(max_pending=1, admission="block", deadline_seconds=0.05)
            svc = CompositionService(config=config).start()
            calls = _fill(svc, problems)
            blocked = _Call(svc.compose, problems[2])
            _await_metric(svc, "blocked", 1)
            # Let the deadline expire while the waiter sleeps, then fire the
            # shutdown broadcast so both wake reasons arrive together.
            time.sleep(0.1)
            svc.stop()
            blocked.thread.join(30)
            assert not blocked.thread.is_alive()
            assert isinstance(blocked.error, ServiceDeadlineError), blocked.error
            gate["release"].set()
            for call in calls:
                call.result()

    def test_blocking_identical_results_under_burst(self, chains):
        # A tiny admission bound with blocking admission: every client
        # eventually gets a byte-identical result — blocking changes timing,
        # never payloads.
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
                    results[index] = _constraints_text(svc.compose_chain(chains[index]))
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
    def test_overlapping_concurrent_clients_byte_identical_to_serial(self, chains, monkeypatch):
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
        # The first execution is held until every client has made its first
        # request, so the first round overlaps for certain (clients 0 and 6
        # ask for the same chain).
        first_round = threading.Event()
        _instrument(monkeypatch, before=lambda: first_round.wait(60))
        with CompositionService() as svc:

            def client(client_index: int) -> None:
                try:
                    # Every client walks the same workload, offset so requests
                    # overlap heavily but not identically.
                    for step in range(len(chains)):
                        chain_index = (client_index + step) % len(chains)
                        outcomes[client_index].append(
                            ("chain", chain_index, svc.compose_chain(chains[chain_index]))
                        )
                        problem_index = (client_index + step) % len(problems)
                        outcomes[client_index].append(
                            ("problem", problem_index, svc.compose(problems[problem_index]))
                        )
                except Exception as exc:  # noqa: BLE001 - surface in the main thread
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(num_clients)
            ]
            for thread in threads:
                thread.start()
            _await_metric(svc, "submitted", num_clients)
            first_round.set()
            for thread in threads:
                thread.join(120)
            assert not any(thread.is_alive() for thread in threads)

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
            "requests", "batching", "phases", "expression_cache",
            "checkpoints", "gc", "degradation", "replication", "breaker", "leases",
            "tracing", "histograms",
        }
        assert metrics["requests"]["completed"] == 1
        assert metrics["batching"]["batches"] == 1
        assert metrics["phases"]  # per-phase buckets aggregated from the hops
        execution = metrics["histograms"]["execution_seconds"]
        assert execution["count"] == 1 and execution["sum"] > 0
        assert metrics["histograms"]["queue_seconds"]["count"] == 1
        assert metrics["checkpoints"]["entries"] >= 1


class TestCallerRuns:
    """Blocking calls compose on the caller's thread, one at a time."""

    def test_blocking_compose_runs_on_the_callers_thread(self, service, problems, monkeypatch):
        threads = _instrument(monkeypatch)
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
        threads = _instrument(monkeypatch, before=lambda: release.wait(60))
        results = []

        def caller():
            results.append(_constraints_text(service.compose(problems[0])))

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

        threads = _instrument(monkeypatch, before=overlapping)
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
        # More callers than cores and than the admission bound, on
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
                            result = svc.compose(problems[which])
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
