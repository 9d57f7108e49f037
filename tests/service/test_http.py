"""Tests for the HTTP front-end — including the service smoke contract.

The smoke contract CI relies on: start the service, submit one composition
over HTTP, and the answer must be byte-identical to a direct ``compose()``.
"""

import contextlib
import http.client
import json
import re
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.catalog import MappingCatalog
from repro.compose.composer import compose
from repro.engine import ChainGrower, compose_chain
from repro.engine.workloads import WorkloadConfig, generate_workload, pairwise_problems
from repro.literature.problems import problem_by_name
from repro.service import (
    CompositionService,
    RouterHTTPServer,
    ServiceConfig,
    ServiceHTTPServer,
)
from repro.textio.format import problem_to_text
from repro.textio.records import (
    chain_to_text,
    mapping_from_text,
    result_from_text,
    result_to_text,
    signature_to_text,
)


@pytest.fixture()
def stack(tmp_path):
    catalog = MappingCatalog(tmp_path / "cat")
    service = CompositionService(catalog, ServiceConfig())
    service.start()
    server = ServiceHTTPServer(service, port=0)  # ephemeral port
    server.start()
    host, port = server.address
    yield catalog, service, f"http://{host}:{port}"
    server.stop()
    service.stop()


def _get(url: str):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, response.read().decode()


def _post(url: str, body: str):
    request = urllib.request.Request(url, data=body.encode(), method="POST")
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, response.read().decode(), dict(response.headers)


@contextlib.contextmanager
def _router_over(base: str):
    """A router fronting one service; yields the router's base URL."""
    with RouterHTTPServer([base], port=0, health_interval_seconds=30) as router:
        host, port = router.address
        yield f"http://{host}:{port}"


def _post_declaring(base: str, content_length: str):
    """POST /compose with a raw Content-Length header and no body."""
    host, port = base.removeprefix("http://").split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        connection.putrequest("POST", "/compose")
        connection.putheader("Content-Length", content_length)
        connection.endheaders()
        response = connection.getresponse()
        return response.status, response.read().decode()
    finally:
        connection.close()


class TestEndpoints:
    def test_healthz(self, stack):
        _, _, base = stack
        status, body = _get(base + "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["reasons"] == []
        assert health["breaker"]["state"] == "closed"
        assert "storage" in health and "gc" in health

    def test_healthz_degraded_when_breaker_open(self, stack):
        _, service, base = stack
        service.breaker.force_open("test: storage down")
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(base + "/healthz")
            assert excinfo.value.code == 503
            health = json.loads(excinfo.value.read().decode())
            assert health["status"] == "degraded"
            assert any("breaker" in reason for reason in health["reasons"])
        finally:
            service.breaker.record_success()

    def test_smoke_compose_byte_identical_to_direct(self, stack):
        """Submit one composition; assert byte-identity with direct compose()."""
        _, _, base = stack
        problem = problem_by_name("example1_movies").problem
        status, text, headers = _post(base + "/compose", problem_to_text(problem))
        assert status == 200
        served = result_from_text(text)
        direct = compose(problem)
        assert served.constraints.to_text() == direct.constraints.to_text()
        assert served.residual_sigma2 == direct.residual_sigma2
        assert headers["X-Repro-Eliminated"] == str(len(direct.eliminated_symbols))

    def test_compose_chain_record(self, stack):
        _, _, base = stack
        chain = ChainGrower(seed=21, schema_size=4).grow_many(4)
        status, text, headers = _post(base + "/compose", chain_to_text(chain))
        assert status == 200
        direct = compose_chain(chain)
        assert mapping_from_text(text) == direct.to_mapping_with_residue()
        assert headers["X-Repro-Hops"] == str(len(direct.hops))

    def test_compose_stores_in_catalog(self, stack):
        catalog, _, base = stack
        problem = problem_by_name("glav_chain").problem
        status, _, _ = _post(
            base + "/compose?store=glav&order=cost", problem_to_text(problem)
        )
        assert status == 200
        stored = catalog.get_result("glav")
        assert stored.components >= 1  # served through the planner

    def test_metrics_endpoint(self, stack):
        _, _, base = stack
        problem = problem_by_name("example1_movies").problem
        _post(base + "/compose", problem_to_text(problem))
        status, body = _get(base + "/metrics")
        assert status == 200
        metrics = json.loads(body)
        assert metrics["requests"]["completed"] >= 1
        assert "checkpoints" in metrics and "phases" in metrics

    def test_catalog_endpoints(self, stack):
        catalog, _, base = stack
        chain = ChainGrower(seed=22, schema_size=3).grow_many(3)
        catalog.put_chain("history", chain)
        catalog.put_schema("first", chain[0].input_signature)

        status, body = _get(base + "/catalog")
        listing = json.loads(body)
        assert status == 200
        assert {entry["name"] for entry in listing["entries"]} == {"history", "first"}

        status, body = _get(base + "/catalog/schema/first")
        assert status == 200
        assert body == catalog.text("schema", "first")
        assert body == signature_to_text(chain[0].input_signature, name="first")

    def test_errors(self, stack):
        _, _, base = stack
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/catalog/mapping/missing")
        assert excinfo.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/nope")
        assert excinfo.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base + "/compose", "[garbage\n")
        assert excinfo.value.code == 400

    def test_malformed_content_length_is_400(self, stack):
        from repro.service.httpio import MAX_BODY_BYTES

        _, _, base = stack
        cases = (
            ("not-a-number", 400, "malformed"),
            ("-5", 400, "negative"),
            ("0", 400, "body required"),
            (str(MAX_BODY_BYTES + 1), 413, "too large"),
        )
        with _router_over(base) as router_base:
            # A zero length passes the router (bodiless POSTs such as
            # /admin/promote are relayed) and the service refuses it.
            for server_base in (base, router_base):
                for content_length, status, message in cases:
                    answer = _post_declaring(server_base, content_length)
                    assert answer[0] == status, (server_base, content_length, answer)
                    assert message in answer[1], (server_base, content_length, answer)


class TestSlowClients:
    @pytest.mark.parametrize("front", ["service", "router"])
    def test_stalled_body_is_dropped_within_the_read_timeout(
        self, stack, monkeypatch, front
    ):
        from repro.service import http as service_http
        from repro.service import router as service_router
        from repro.service.httpio import READ_TIMEOUT_SECONDS

        handler = service_http._Handler if front == "service" else service_router._RouterHandler
        assert handler.timeout == READ_TIMEOUT_SECONDS
        # Same mechanism, shorter bound, so the test stays fast.
        bound = 0.5
        monkeypatch.setattr(handler, "timeout", bound)
        _, _, service_base = stack
        with contextlib.ExitStack() as fronts:
            base = (
                service_base
                if front == "service"
                else fronts.enter_context(_router_over(service_base))
            )
            host, port = base.removeprefix("http://").split(":")
            client = socket.create_connection((host, int(port)), timeout=30)
            try:
                # Declare 1000 bytes, send 7, then stall.
                client.sendall(
                    b"POST /compose HTTP/1.1\r\nHost: test\r\n"
                    b"Content-Length: 1000\r\n\r\npartial"
                )
                started = time.monotonic()
                # The stalled connection pins only its own thread.
                assert _get(base + "/healthz")[0] == 200
                received = b""
                while True:
                    chunk = client.recv(4096)
                    if not chunk:
                        break
                    received += chunk
                elapsed = time.monotonic() - started
            finally:
                client.close()
        assert received.split(b"\r\n", 1)[0].split()[1] == b"408"
        assert elapsed < bound + 5.0

    def test_body_cut_short_is_400(self, stack):
        _, _, base = stack
        host, port = base.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=30) as client:
            # Declare 1000 bytes, send 7, then close the sending side: the
            # truncated record must not be composed.
            client.sendall(
                b"POST /compose HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: 1000\r\n\r\npartial"
            )
            client.shutdown(socket.SHUT_WR)
            received = client.makefile("rb").read()
        assert received.split(b"\r\n", 1)[0].split()[1] == b"400"
        assert b"shorter than its Content-Length" in received


class _CountingConnection(http.client.HTTPConnection):
    """An ``HTTPConnection`` that counts its TCP connects."""

    connects = 0

    def connect(self):
        self.connects += 1
        super().connect()


def _connection(base: str) -> _CountingConnection:
    host, port = base.removeprefix("http://").split(":")
    return _CountingConnection(host, int(port), timeout=30)


def _timing_free(record: str) -> str:
    return re.sub(r"\d+\.\d+(e-?\d+)?", "<seconds>", record)


def _exchange(connection, method: str, path: str, body: bytes = None):
    connection.request(method, path, body=body)
    response = connection.getresponse()
    return response.status, response.read(), response.getheader("Connection")


class TestKeepAlive:
    def test_one_connection_serves_many_composes(self, stack):
        _, _, base = stack
        workload = WorkloadConfig(
            num_problems=1, min_chain_length=21, max_chain_length=21, seed=3
        )
        problems = pairwise_problems(generate_workload(workload)[0])
        connection = _connection(base)
        try:
            answers = [
                _exchange(connection, "POST", "/compose", problem_to_text(problem).encode())
                for problem in problems
            ]
        finally:
            connection.close()
        assert len(answers) == 20
        assert connection.connects == 1
        for problem, (status, body, close) in zip(problems, answers):
            assert (status, close) == (200, None)
            # Byte-identical to a direct compose() up to the wall-clock fields.
            assert _timing_free(body.decode()) == _timing_free(result_to_text(compose(problem)))

    def test_unread_body_closes_the_connection(self, stack):
        _, _, base = stack
        problem = problem_to_text(problem_by_name("example1_movies").problem).encode()
        connection = _connection(base)
        try:
            # The 404 leaves the body unread: its bytes must not be parsed
            # as the next request on a kept-alive socket.
            status, _, close = _exchange(connection, "POST", "/nope", problem)
            assert (status, close) == (404, "close")
            status, text, _ = _exchange(connection, "POST", "/compose", problem)
        finally:
            connection.close()
        assert status == 200
        assert result_from_text(text.decode()).constraints.to_text() == compose(
            problem_by_name("example1_movies").problem
        ).constraints.to_text()

    def test_idle_connection_is_dropped_after_the_read_timeout(self, stack, monkeypatch):
        from repro.service import http as service_http
        from repro.service.httpio import READ_TIMEOUT_SECONDS

        assert service_http._Handler.timeout == READ_TIMEOUT_SECONDS
        bound = 0.5  # same mechanism, shorter bound
        monkeypatch.setattr(service_http._Handler, "timeout", bound)
        _, _, base = stack
        host, port = base.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=30) as client:
            client.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            started = time.monotonic()
            reader = client.makefile("rb")
            assert reader.readline().split()[1] == b"200"
            # Kept alive, then idle: other clients are still served ...
            assert _get(base + "/healthz")[0] == 200
            # ... and the server closes the idle socket (EOF after the answer).
            remainder = reader.read()
            elapsed = time.monotonic() - started
        assert remainder.endswith(b"}\n")
        assert bound <= elapsed < bound + 5.0


class TestTraceEcho:
    def test_router_503_carries_the_router_trace_id(self):
        # Reserve a port and close it again: nothing listens there, so the
        # router has no backend to relay to and answers the 503 itself.
        with socket.socket() as reserved:
            reserved.bind(("127.0.0.1", 0))
            dead_port = reserved.getsockname()[1]
        with _router_over(f"http://127.0.0.1:{dead_port}") as router_base:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(router_base + "/compose", "[problem]\n")
        assert excinfo.value.code == 503
        trace_id = excinfo.value.headers[obs.TRACE_ID_HEADER]
        span_id = excinfo.value.headers[obs.SPAN_ID_HEADER]
        assert trace_id and span_id
        # The echo names the router's own ingress span.
        ingress = {
            record["span_id"]
            for record in obs.recorder().spans(trace_id)
            if record["name"] == "router.request"
        }
        assert ingress == {span_id}

    def test_service_answers_echo_the_trace_id_once(self, stack):
        _, _, base = stack
        problem = problem_by_name("example1_movies").problem
        with _router_over(base) as router_base:
            for server_base in (base, router_base):
                request = urllib.request.Request(
                    server_base + "/compose",
                    data=problem_to_text(problem).encode(),
                    method="POST",
                )
                with urllib.request.urlopen(request, timeout=60) as response:
                    assert len(response.headers.get_all(obs.TRACE_ID_HEADER)) == 1
                    assert len(response.headers.get_all(obs.SPAN_ID_HEADER)) == 1


class TestRetryAfter:
    """Degraded answers tell clients *when* to come back (satellite of PR 8)."""

    def test_degraded_healthz_carries_retry_after(self, stack):
        import math

        _, service, base = stack
        service.breaker.force_open("test: storage down")
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(base + "/healthz")
            assert excinfo.value.code == 503
            expected = max(1, math.ceil(service.config.breaker_recovery_seconds))
            assert int(excinfo.value.headers["Retry-After"]) == expected
        finally:
            service.breaker.record_success()

    def test_store_dropped_carries_retry_after(self, stack):
        _, service, base = stack
        problem = problem_by_name("example1_movies").problem
        service.breaker.force_open("test: storage down")
        try:
            status, _, headers = _post(
                base + "/compose?store=dropped", problem_to_text(problem)
            )
            # The composition still succeeds; only durability degraded.
            assert status == 200
            assert headers["X-Repro-Store-Dropped"] == "1"
            assert int(headers["Retry-After"]) >= 1
        finally:
            service.breaker.record_success()

    def test_overloaded_submission_carries_retry_after(self, tmp_path):
        from repro.catalog import MappingCatalog
        from repro.service import CompositionService, ServiceConfig, ServiceHTTPServer

        catalog = MappingCatalog(tmp_path / "cat")
        service = CompositionService(
            catalog,
            ServiceConfig(max_pending=1),
        )
        # Deliberately NOT started: the queue never drains, so the second
        # submission over HTTP is rejected at admission.
        server = ServiceHTTPServer(service, port=0)
        server.start()
        try:
            host, port = server.address
            base = f"http://{host}:{port}"
            service.submit_problem(problem_by_name("example1_movies").problem)
            # A *different* problem: an identical one would coalesce with the
            # in-flight ticket instead of being admission-rejected.
            other = problem_by_name("example3_inclusion_chain").problem
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(base + "/compose", problem_to_text(other))
            assert excinfo.value.code == 429
            assert int(excinfo.value.headers["Retry-After"]) >= 1
        finally:
            server.stop()


class TestReplicaAcks:
    """``ack_level=replica``: acks wait for a follower, or degrade to 202."""

    @pytest.fixture()
    def rstack(self, tmp_path):
        catalog = MappingCatalog(tmp_path / "cat")
        service = CompositionService(
            catalog,
            ServiceConfig(
                ack_level="replica",
                replica_ack_timeout_seconds=0.2,
            ),
        )
        service.start()
        server = ServiceHTTPServer(service, port=0)
        server.start()
        host, port = server.address
        yield catalog, service, f"http://{host}:{port}"
        server.stop()
        service.stop()

    def test_ack_level_validation(self):
        from repro.exceptions import EngineError

        with pytest.raises(EngineError):
            ServiceConfig(ack_level="paxos")
        with pytest.raises(EngineError):
            ServiceConfig(replica_ack_timeout_seconds=0)

    def test_store_without_followers_degrades_to_202(self, rstack):
        catalog, _, base = rstack
        problem = problem_by_name("example1_movies").problem
        status, _, headers = _post(
            base + "/compose?store=pending", problem_to_text(problem)
        )
        assert status == 202
        assert headers["x-repro-ack-pending"] == "1"
        assert headers["x-repro-epoch"] == "0"
        # The write is durable on the primary either way.
        assert "pending" in catalog.names("result")

    def test_store_with_caught_up_follower_acks_200(self, rstack):
        catalog, service, base = rstack
        # A follower far ahead on every shard: the ack wait is satisfied
        # the moment the entry lands.
        for shard in range(16):
            service.record_follower_applied("f1", shard, 10**9)
        problem = problem_by_name("example1_movies").problem
        status, _, headers = _post(
            base + "/compose?store=acked", problem_to_text(problem)
        )
        assert status == 200
        assert "x-repro-ack-pending" not in headers
        assert headers["x-repro-epoch"] == "0"
        metrics = service.metrics()
        assert metrics["replication"]["replica_acks_satisfied"] >= 1

    def test_journal_poll_piggybacks_the_ack(self, rstack):
        catalog, service, base = rstack
        status, _ = _get(base + "/journal/3?since=0&follower=f1&applied=7")
        assert status == 200
        assert service.replica_applied_seq(3) == 7
        # ... and the floor is persisted for GC retention.
        acks = json.loads((catalog.journal.directory / "replica-acks.json").read_text())
        assert acks["followers"]["f1"]["applied"]["3"] == 7

    def test_stale_epoch_store_is_409(self, rstack):
        catalog, service, base = rstack
        catalog.journal.fence(1)  # a promoted replica outranks this root
        problem = problem_by_name("example1_movies").problem
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base + "/compose?store=zombie", problem_to_text(problem))
        assert excinfo.value.code == 409
        assert "zombie" not in catalog.names("result")
        # Fencing is not storage sickness: the breaker stays closed.
        assert service.breaker.state == "closed"
        metrics = service.metrics()
        assert metrics["replication"]["stale_epoch_rejected"] == 1

    def test_metrics_and_health_report_the_epoch(self, stack):
        catalog, _, base = stack
        catalog.bump_epoch()
        _, body = _get(base + "/metrics")
        assert json.loads(body)["epoch"] == 1
        _, body = _get(base + "/healthz")
        assert json.loads(body)["epoch"] == 1


class TestThreadFailureCounters:
    def test_gc_sweep_failures_surface_in_health_and_metrics(self, stack):
        _, service, base = stack
        service.metrics_store.record_gc_sweep_failure("OSError")
        service._gc_consecutive_failures = 2
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(base + "/healthz")
            assert excinfo.value.code == 503
            health = json.loads(excinfo.value.read().decode())
            assert any("gc sweep failing (2 consecutive)" in r for r in health["reasons"])
            assert health["gc"]["sweep_failures"] == 1
            assert health["gc"]["consecutive_failures"] == 2
            _, body = _get(base + "/metrics")
            metrics = json.loads(body)
            assert metrics["gc"]["gc_sweep_failures"] == 1
            assert metrics["gc"]["gc_sweep_failure_types"] == {"OSError": 1}
        finally:
            service._gc_consecutive_failures = 0

    def test_failing_gc_sweep_keeps_the_loop_alive(self, tmp_path):
        from repro.catalog import MappingCatalog
        from repro.service import CompositionService, ServiceConfig

        catalog = MappingCatalog(tmp_path / "cat")
        service = CompositionService(
            catalog,
            ServiceConfig(gc_interval_seconds=0.01),
        )

        def broken_gc(**kwargs):
            raise OSError("injected sweep failure")

        catalog.gc = broken_gc
        service.start()
        try:
            import time as _time

            deadline = _time.monotonic() + 10
            while _time.monotonic() < deadline:
                if service.metrics_store.gc_sweep_failures >= 2:
                    break
                _time.sleep(0.01)
            assert service.metrics_store.gc_sweep_failures >= 2
            assert service._gc_thread.is_alive()
            health = service.health()
            assert health["status"] == "degraded"
            assert any("gc sweep failing" in r for r in health["reasons"])
        finally:
            service.stop()
