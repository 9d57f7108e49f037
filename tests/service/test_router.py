"""Tests for the health-routing front tier (``repro route``)."""

import http.client
import json
import re
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.catalog import MappingCatalog
from repro.compose.composer import compose
from repro.engine import ChainGrower
from repro.engine.workloads import WorkloadConfig, generate_workload, pairwise_problems
from repro.exceptions import ServiceError
from repro.literature.problems import problem_by_name
from repro.service import (
    CompositionService,
    HTTPJournalSource,
    ReplicationFollower,
    RouterHTTPServer,
    ServiceConfig,
    ServiceHTTPServer,
)
from repro.service.router import BackendState
from repro.textio.format import problem_to_text
from repro.textio.records import result_to_text


def _wait_for(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class _Stack:
    """One backend: catalog + service + HTTP server, with optional follower."""

    def __init__(self, root, follower=None):
        self.catalog = MappingCatalog(root)
        self.follower = follower
        self.service = CompositionService(self.catalog, ServiceConfig())
        self.service.start()
        self.server = ServiceHTTPServer(self.service, port=0, follower=follower)
        self.server.start()
        host, port = self.server.address
        self.base = f"http://{host}:{port}"

    def stop(self):
        self.server.stop()
        self.service.stop()
        if self.follower is not None and not self.follower.promoted:
            self.follower.stop()


@pytest.fixture()
def primary(tmp_path):
    stack = _Stack(tmp_path / "primary")
    yield stack
    stack.stop()


@pytest.fixture()
def follower_stack(primary, tmp_path):
    catalog = MappingCatalog(tmp_path / "follower")
    follower = ReplicationFollower(
        catalog, HTTPJournalSource(primary.base), poll_interval_seconds=0.02
    ).start()
    stack = _Stack.__new__(_Stack)
    stack.catalog = catalog
    stack.follower = follower
    stack.service = CompositionService(catalog, ServiceConfig())
    stack.service.start()
    stack.server = ServiceHTTPServer(stack.service, port=0, follower=follower)
    stack.server.start()
    host, port = stack.server.address
    stack.base = f"http://{host}:{port}"
    yield stack
    stack.stop()


def _get(url, timeout=30):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.read().decode(), dict(response.headers)


def _post(url, body=b"", timeout=60):
    request = urllib.request.Request(url, data=body, method="POST")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, response.read().decode(), dict(response.headers)


class TestCandidateSelection:
    def _backend(self, url, healthy=True, reachable=True, role="primary"):
        state = BackendState(url)
        state.healthy = healthy
        state.reachable = reachable
        state.role = role
        return state

    def _router(self, backends):
        router = RouterHTTPServer.__new__(RouterHTTPServer)
        router.backends = backends
        import threading

        router._lock = threading.Lock()
        router._rotation = 0
        return router

    def test_reads_prefer_followers_then_primary_then_degraded(self):
        follower = self._backend("http://f", role="follower")
        primary = self._backend("http://p")
        degraded = self._backend("http://d", healthy=False)
        router = self._router([degraded, primary, follower])
        order = [b.url for b in router._read_candidates()]
        assert order == ["http://f", "http://p", "http://d"]

    def test_reads_rotate_among_followers(self):
        followers = [
            self._backend(f"http://f{n}", role="follower") for n in range(3)
        ]
        router = self._router(followers)
        first = [b.url for b in router._read_candidates()]
        second = [b.url for b in router._read_candidates()]
        assert sorted(first) == sorted(second)
        assert first != second  # the rotation moved

    def test_writes_only_go_to_primaries(self):
        follower = self._backend("http://f", role="follower")
        primary = self._backend("http://p")
        degraded_primary = self._backend("http://dp", healthy=False)
        router = self._router([follower, degraded_primary, primary])
        order = [b.url for b in router._write_candidates()]
        assert order == ["http://p", "http://dp"]

    def test_unreachable_backends_are_never_candidates(self):
        dead = self._backend("http://dead", healthy=False, reachable=False)
        router = self._router([dead])
        assert router._read_candidates() == []
        assert router._write_candidates() == []

    def test_writes_prefer_the_highest_epoch_primary(self):
        old = self._backend("http://old")
        promoted = self._backend("http://promoted")
        promoted.epoch = 2
        old.epoch = 1
        router = self._router([old, promoted])
        order = [b.url for b in router._write_candidates()]
        assert order == ["http://promoted", "http://old"]

    def test_equal_epochs_preserve_configured_order(self):
        first = self._backend("http://first")
        second = self._backend("http://second")
        router = self._router([first, second])
        order = [b.url for b in router._write_candidates()]
        assert order == ["http://first", "http://second"]

    def test_idempotency_rules(self):
        assert RouterHTTPServer._idempotent("GET", "/metrics")
        assert RouterHTTPServer._idempotent("POST", "/compose")
        assert RouterHTTPServer._idempotent("POST", "/compose?store=x")
        assert not RouterHTTPServer._idempotent("POST", "/admin/promote")

    def test_constructor_validation(self):
        with pytest.raises(ServiceError):
            RouterHTTPServer([])
        with pytest.raises(ServiceError):
            RouterHTTPServer(["http://x"], health_interval_seconds=0)
        with pytest.raises(ServiceError):
            RouterHTTPServer(["http://x"], min_consecutive_ok=0)


class TestRouting:
    def test_routes_reads_and_writes(self, primary, follower_stack):
        with RouterHTTPServer(
            [primary.base, follower_stack.base], port=0, health_interval_seconds=0.05
        ) as router:
            host, port = router.address
            base = f"http://{host}:{port}"
            # Reads go to the healthy follower first.
            status, _, headers = _get(base + "/healthz")
            assert status == 200
            assert headers["x-repro-backend"] == follower_stack.base
            # Writes (a stored composition) go to the primary.
            problem = problem_by_name("example1_movies").problem
            status, _, headers = _post(
                base + "/compose?store=routed", problem_to_text(problem).encode()
            )
            assert status == 200
            assert headers["x-repro-backend"] == primary.base
            assert "routed" in primary.catalog.names("result")
            # ... and the stored problem replicates to the follower.
            assert _wait_for(
                lambda: "routed" in follower_stack.catalog.names("result")
            )

    def test_router_status_reports_backends(self, primary):
        with RouterHTTPServer([primary.base], port=0) as router:
            host, port = router.address
            _, body, _ = _get(f"http://{host}:{port}/router/status")
            status = json.loads(body)
            (backend,) = status["backends"]
            assert backend["url"] == primary.base
            assert backend["healthy"] is True
            assert backend["role"] == "primary"
            assert status["failovers_observed"] == 0

    def test_backend_errors_are_relayed_verbatim(self, primary):
        with RouterHTTPServer([primary.base], port=0) as router:
            host, port = router.address
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"http://{host}:{port}/no/such/endpoint")
            assert excinfo.value.code == 404
            # An answering backend is authoritative: no retry was counted.
            assert router.request_retries == 0

    def test_dead_backend_read_retries_to_survivor(self, primary, tmp_path):
        doomed = _Stack(tmp_path / "doomed")
        with RouterHTTPServer(
            [doomed.base, primary.base], port=0, health_interval_seconds=30
        ) as router:
            doomed.stop()
            host, port = router.address
            # The health loop races the stop() above (start() runs one
            # synchronous pass and the loop thread runs another before its
            # first wait), so halt it and pin the router's belief — doomed
            # healthy, tried first.  The request itself is then what
            # discovers the death.
            router._health_stop.set()
            router._health_thread.join()
            state = next(b for b in router.backends if b.url == doomed.base)
            state.healthy = True
            state.reachable = True
            router.backends.sort(key=lambda b: b.url != doomed.base)
            status, _, headers = _get(f"http://{host}:{port}/healthz")
            assert status == 200
            assert headers["x-repro-backend"] == primary.base
            assert headers["x-repro-retries"] == "1"
            assert router.request_retries == 1
            # The failed backend was marked down immediately.
            state = next(b for b in router.backends if b.url == doomed.base)
            assert state.reachable is False

    def test_no_backend_means_503_with_retry_after(self, tmp_path):
        stack = _Stack(tmp_path / "gone")
        base = stack.base
        stack.stop()
        with RouterHTTPServer([base], port=0, health_interval_seconds=30) as router:
            host, port = router.address
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"http://{host}:{port}/healthz")
            assert excinfo.value.code == 503
            assert int(excinfo.value.headers["Retry-After"]) >= 1
            assert router.requests_failed == 1

    def test_non_idempotent_post_is_not_retried(self, primary, tmp_path):
        doomed = _Stack(tmp_path / "doomed")
        with RouterHTTPServer(
            [doomed.base, primary.base], port=0, health_interval_seconds=30
        ) as router:
            doomed.stop()
            # Halt the health loop and pin the router's belief, as in
            # test_dead_backend_read_retries_to_survivor above.
            router._health_stop.set()
            router._health_thread.join()
            state = next(b for b in router.backends if b.url == doomed.base)
            state.healthy = True
            state.reachable = True
            router.backends.sort(key=lambda b: b.url != doomed.base)
            host, port = router.address
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(f"http://{host}:{port}/admin/promote")
            assert excinfo.value.code == 503
            assert router.request_retries == 0


class TestFlapDamping:
    def test_recovering_backend_needs_consecutive_ok_polls(self, primary):
        with RouterHTTPServer(
            [primary.base], port=0, health_interval_seconds=30
        ) as router:
            # Halt the health loop so the polls below are the only ones.
            router._health_stop.set()
            router._health_thread.join()
            (backend,) = router.backends
            # Pretend the backend just came back from an unreachable streak.
            backend.healthy = False
            backend.consecutive_failures = 3
            backend.consecutive_ok = 0
            router.check_backend(backend)
            assert backend.consecutive_ok == 1
            assert backend.healthy is False  # one OK poll is not enough
            router.check_backend(backend)
            assert backend.consecutive_ok == 2
            assert backend.healthy is True
            assert backend.consecutive_failures == 0
            assert backend.last_poll_at is not None

    def test_cold_start_backend_is_healthy_on_first_poll(self, primary):
        with RouterHTTPServer(
            [primary.base], port=0, health_interval_seconds=30, min_consecutive_ok=3
        ) as router:
            # start() runs a synchronous check_all: never-failed backends
            # enter rotation on their very first OK poll.
            (backend,) = router.backends
            assert backend.healthy is True
            assert backend.consecutive_ok >= 1

    def test_status_exposes_damping_fields(self, primary):
        with RouterHTTPServer([primary.base], port=0) as router:
            host, port = router.address
            _, body, _ = _get(f"http://{host}:{port}/router/status")
            (backend,) = json.loads(body)["backends"]
            assert backend["consecutive_ok"] >= 1
            assert backend["last_poll_at"] is not None
            assert backend["epoch"] == 0


class TestFailover:
    def test_promotion_is_observed_and_writes_flow(self, primary, follower_stack):
        with RouterHTTPServer(
            [primary.base, follower_stack.base], port=0, health_interval_seconds=0.05
        ) as router:
            host, port = router.address
            base = f"http://{host}:{port}"
            assert _wait_for(
                lambda: any(b.role == "follower" for b in router.backends)
            )
            # The primary dies; the operator promotes the follower directly.
            primary.stop()
            _post(follower_stack.base + "/admin/promote")
            assert _wait_for(
                lambda: any(
                    b.role == "primary" and b.healthy and b.url == follower_stack.base
                    for b in router.backends
                )
            )
            assert router.failovers >= 1
            # Writes flow again — through the promoted replica.
            problem = problem_by_name("example1_movies").problem
            status, _, headers = _post(
                base + "/compose?store=after-failover",
                problem_to_text(problem).encode(),
            )
            assert status == 200
            assert headers["x-repro-backend"] == follower_stack.base
            assert "after-failover" in follower_stack.catalog.names("result")
            _, body, _ = _get(base + "/router/status")
            assert json.loads(body)["failovers_observed"] >= 1


class TestTracing:
    def test_trace_id_survives_idempotent_retry(self, primary, tmp_path):
        """A write retried onto the second backend keeps its trace id.

        The router starts the trace at ingress; each forwarding attempt is
        its own span carrying the same trace id in the outbound headers, so
        the attempt that dies and the attempt that succeeds — and the
        backend's own spans — all land in one tree.
        """
        from repro import obs

        doomed = _Stack(tmp_path / "doomed")
        with RouterHTTPServer(
            [doomed.base, primary.base], port=0, health_interval_seconds=30
        ) as router:
            doomed.stop()
            # Halt the health loop and pin the router's belief, as in
            # test_dead_backend_read_retries_to_survivor above.
            router._health_stop.set()
            router._health_thread.join()
            state = next(b for b in router.backends if b.url == doomed.base)
            state.healthy = True
            state.reachable = True
            router.backends.sort(key=lambda b: b.url != doomed.base)
            host, port = router.address
            problem = problem_by_name("example1_movies").problem
            status, _, headers = _post(
                f"http://{host}:{port}/compose", problem_to_text(problem).encode()
            )
            assert status == 200
            assert headers["x-repro-retries"] == "1"
            trace_id = headers[obs.TRACE_ID_HEADER]
            assert trace_id
            # Router and backend run in this process, so the process-global
            # ring holds both sides of the story.
            records = obs.recorder().spans(trace_id)
            attempts = [r for r in records if r["name"] == "router.attempt"]
            assert len(attempts) == 2  # the death and the survivor
            assert len({a["span_id"] for a in attempts}) == 2
            assert {a["attrs"]["backend"] for a in attempts} == {
                doomed.base,
                primary.base,
            }
            dead = next(a for a in attempts if a["attrs"]["backend"] == doomed.base)
            assert dead["attrs"].get("unreachable") is True
            # The surviving backend's ingress span joined the router's trace,
            # parented on the attempt that reached it.
            ingress = [r for r in records if r["name"] == "http.request"]
            assert ingress, "backend recorded no http.request span in the trace"
            survivor = next(
                a for a in attempts if a["attrs"]["backend"] == primary.base
            )
            assert any(r["parent_id"] == survivor["span_id"] for r in ingress)

    def test_poll_loop_failure_bumps_the_status_counter(self, primary):
        with RouterHTTPServer(
            [primary.base], port=0, health_interval_seconds=0.01
        ) as router:
            # Patch the started instance: start()'s own synchronous pass has
            # already run, so only the background loop sees the explosion.
            def exploding_check_all():
                raise RuntimeError("probe exploded")

            router.check_all = exploding_check_all
            host, port = router.address
            assert _wait_for(lambda: router.poll_failures >= 1)
            _, body, _ = _get(f"http://{host}:{port}/router/status")
            assert json.loads(body)["poll_failures"] >= 1


class _CountingConnection(http.client.HTTPConnection):
    """An ``HTTPConnection`` that counts its TCP connects."""

    connects = 0

    def connect(self):
        self.connects += 1
        super().connect()


def _timing_free(record: str) -> str:
    return re.sub(r"\d+\.\d+(e-?\d+)?", "<seconds>", record)


class TestKeepAlive:
    def test_one_router_connection_serves_many_composes(self, primary):
        problems = pairwise_problems(
            generate_workload(
                WorkloadConfig(num_problems=1, min_chain_length=21, max_chain_length=21, seed=4)
            )[0]
        )
        with RouterHTTPServer([primary.base], port=0) as router:
            connection = _CountingConnection(*router.address, timeout=30)
            try:
                for problem in problems:
                    connection.request("POST", "/compose", body=problem_to_text(problem))
                    response = connection.getresponse()
                    body = response.read().decode()
                    assert response.status == 200
                    assert response.getheader("Connection") is None
                    assert _timing_free(body) == _timing_free(result_to_text(compose(problem)))
            finally:
                connection.close()
        assert len(problems) == 20
        assert connection.connects == 1

    def test_body_to_an_unknown_path_does_not_desync_the_connection(self, primary):
        problem = problem_by_name("example1_movies").problem
        with RouterHTTPServer([primary.base], port=0) as router:
            connection = http.client.HTTPConnection(*router.address, timeout=30)
            try:
                connection.request("POST", "/nope", body=problem_to_text(problem))
                first = connection.getresponse()
                first.read()
                assert first.status == 404
                connection.request("POST", "/compose", body=problem_to_text(problem))
                second = connection.getresponse()
                text = second.read().decode()
            finally:
                connection.close()
        # Either the router consumed the body and kept the connection, or
        # it told the client to reconnect.
        assert first.getheader("Connection") in (None, "close")
        assert second.status == 200
        assert _timing_free(text) == _timing_free(result_to_text(compose(problem)))

    def test_idle_router_connection_is_dropped_after_the_read_timeout(
        self, primary, monkeypatch
    ):
        from repro.service.httpio import READ_TIMEOUT_SECONDS
        from repro.service.router import _RouterHandler

        assert _RouterHandler.timeout == READ_TIMEOUT_SECONDS
        bound = 0.5  # same mechanism, shorter bound
        monkeypatch.setattr(_RouterHandler, "timeout", bound)
        with RouterHTTPServer([primary.base], port=0) as router:
            host, port = router.address
            with socket.create_connection((host, port), timeout=30) as client:
                client.sendall(b"GET /router/status HTTP/1.1\r\nHost: test\r\n\r\n")
                started = time.monotonic()
                reader = client.makefile("rb")
                assert reader.readline().split()[1] == b"200"
                assert _get(f"http://{host}:{port}/healthz")[0] == 200
                remainder = reader.read()  # EOF once the idle socket is dropped
                elapsed = time.monotonic() - started
        assert remainder.endswith(b"}\n")
        assert bound <= elapsed < bound + 5.0
