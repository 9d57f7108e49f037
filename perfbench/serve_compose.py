"""serve_compose: two closed-loop clients POST distinct problems to one ``repro serve``.

Per-request overhead dominates: record-text parse, queue and micro-batch
wait, the composition, serialization, and a fresh TCP connection per
request while the server speaks HTTP/1.0.  The catalog, journal, router and
replica stay idle (empty root, no ``?store=``).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List

import inputs
import metrics
from harness import (
    OUT,
    REQUEST_TIMEOUT_SECONDS,
    STARTUP_TIMEOUT_SECONDS,
    BenchError,
    Client,
    Op,
    Tracer,
    Workspace,
    closed_loop,
    describe,
    get_json,
    healthy,
    log,
    median,
    percentile,
    roundtrip,
    server_deltas,
    vm_hwm_mb,
    wait_until,
)

CLIENTS = 2
SETUP_REPEATS = 9
#: Inputs of the single-client passes of the traced run.
SOLO_OPS = 150


class Expected:
    """Direct in-process compositions of the pool, computed once per input."""

    def __init__(self, texts: List[str], corrupt: bool):
        self.texts = texts
        self.corrupt = corrupt
        self._canonical: Dict[int, str] = {}

    def check(self, index: int, body: bytes) -> bool:
        from repro.compose.composer import compose
        from repro.textio.format import problem_from_text
        from repro.textio.records import result_to_text

        if index not in self._canonical:
            text = result_to_text(compose(problem_from_text(self.texts[index])))
            if self.corrupt and index == 0:
                text += "# deliberately wrong expectation\n"
            self._canonical[index] = inputs.timing_free(text)
        return inputs.timing_free(body.decode("utf-8")) == self._canonical[index]


def _start_server(workspace: Workspace):
    root = workspace.tempdir("root")
    started = time.perf_counter()
    server = workspace.spawn("serve", ["--root", str(root), "serve", "--port", "0"])
    wait_until(lambda: healthy(server.url), STARTUP_TIMEOUT_SECONDS, "serve /healthz", workspace)
    return server, time.perf_counter() - started


def _ok(op: Op, expected: Expected) -> bool:
    return op.error is None and op.status == 200 and expected.check(op.key, op.body)


def run(seed: int, seconds: float, trace: bool, tiny: bool, corrupt: bool) -> dict:
    pool_size = 40 if tiny else inputs.COMPOSE_POOL
    texts = inputs.compose_problem_texts(seed, pool_size + inputs.COMPOSE_WARMUP)
    pool = [text.encode("utf-8") for text in texts[:pool_size]]
    expected = Expected(texts[:pool_size], corrupt)

    with Workspace() as workspace:
        setups = []
        repeats = 1 if (trace or tiny) else SETUP_REPEATS
        for attempt in range(repeats):
            server, seconds_to_ready = _start_server(workspace)
            setups.append(seconds_to_ready)
            if attempt < repeats - 1:
                workspace.stop(server)

        warm = Client(server.url)
        for text in texts[pool_size:]:
            status, _, _ = warm.request("POST", "/compose", text.encode("utf-8"))
            if status != 200:
                raise BenchError(f"warm-up request answered {status}")
        warm.close()

        before = get_json(server.url, "/metrics") if trace else None
        clients = [Client(server.url) for _ in range(CLIENTS)]
        counter = [0]
        lock = threading.Lock()

        def step(client: int, _n: int) -> Op:
            with lock:
                index = counter[0] % pool_size
                counter[0] += 1
            return Op("compose", index).timed_request(
                clients[client], "POST", "/compose", pool[index]
            )

        ops, wall, cpu = closed_loop(CLIENTS, seconds, step, workspace)
        workspace.check_alive()
        peak_rss = vm_hwm_mb(server.pid)
        connects = sum(client.connects for client in clients)
        connect_seconds = sum(client.connect_seconds for client in clients)
        for client in clients:
            client.close()

        if trace:
            after = get_json(server.url, "/metrics")
            layers = _traced(workspace, server, texts, pool, expected, before, after)
            workspace.check_alive()

    if not ops:
        raise BenchError("no operation completed")
    ok = [_ok(op, expected) for op in ops]
    good = sum(ok)
    failed = len(ops) - good
    # A failed request counts as missing any latency limit.
    latencies = [
        (op.latency if passed else REQUEST_TIMEOUT_SECONDS) * 1e3
        for op, passed in zip(ops, ok)
    ]
    log(describe(f"serve_compose seed {seed}", latencies))
    log("serve_compose set-ups (s): " + " ".join(f"{v:.3f}" for v in setups))

    if not trace:
        values = {
            "setup_s": median(setups),
            "throughput_ops_s": good / wall,
            "latency_p50_ms": percentile(latencies, 0.5),
            "success_rate": good / len(ops),
            "peak_rss_mb": peak_rss,
        }
        return metrics.result(failed == 0, len(ops), failed, values, trace=False)

    values, solo_attempted, solo_failed = layers
    values["http.connects_per_op"] = connects / len(ops)
    values["http.connect_ms"] = connect_seconds * 1e3 / max(connects, 1)
    values["loadgen.cpu_frac"] = cpu / wall
    values["latency_p95_ms"] = percentile(latencies, 0.95)
    values["latency_p99_ms"] = percentile(latencies, 0.99)
    attempted = len(ops) + solo_attempted
    values["error_rate"] = (failed + solo_failed) / attempted
    failed += solo_failed
    return metrics.result(failed == 0, attempted, failed, values, trace=True)


def _traced(workspace, server, texts, pool, expected, before, after):
    """Single-client passes (untraced, then traced) plus in-process layer calls."""
    from repro.catalog import MappingCatalog
    from repro.compose.composer import compose
    from repro.service import CompositionService, ServiceConfig
    from repro.textio.format import problem_from_text
    from repro.textio.records import result_to_text

    values = metrics.idle_layers()
    values.update(server_deltas(before, after))

    solo = range(min(SOLO_OPS, len(pool)))
    client = Client(server.url)
    untraced: List[Op] = [
        Op("compose", index).timed_request(client, "POST", "/compose", pool[index])
        for index in solo
    ]

    # The in-process service is configured like the CLI's ``serve`` and
    # brought to the served state: it composes the whole pool once, as the
    # server did under load.
    service = CompositionService(
        MappingCatalog(workspace.tempdir("inproc")), ServiceConfig()
    ).start()
    tracer = Tracer()
    traced: List[Op] = []
    results = []
    try:
        for text in texts:
            service.compose(problem_from_text(text))
        for index in solo:
            text = texts[index]
            with tracer.span("op", index):
                with tracer.span("http.compose", index):
                    op = Op("compose", index).timed_request(
                        client, "POST", "/compose", pool[index]
                    )
                traced.append(op)
                with tracer.span("http.roundtrip", index):
                    roundtrip(client)
                with tracer.span("textio.parse", index):
                    problem = problem_from_text(text)
                with tracer.span("compose.call", index):
                    result = compose(problem)
                with tracer.span("textio.serialize", index):
                    result_to_text(result)
                with tracer.span("server.service_compose", index):
                    service.compose(problem)
            results.append(result)
    finally:
        service.stop()
        client.close()

    untraced_ms = median([op.latency * 1e3 for op in untraced])
    traced_ms = median([op.latency * 1e3 for op in traced])
    for name, key in (
        ("http.roundtrip", "http.roundtrip_ms"),
        ("textio.parse", "textio.parse_ms"),
        ("compose.call", "compose.call_ms"),
        ("textio.serialize", "textio.serialize_ms"),
    ):
        values[key] = median(tracer.durations_ms(name))
    values["server.overhead_ms"] = (
        median(tracer.durations_ms("server.service_compose")) - values["compose.call_ms"]
    )
    values.update(metrics.compose_layers(results))
    values["trace.overhead_frac"] = (traced_ms - untraced_ms) / untraced_ms
    layer_sum, http_ms, gap = tracer.accounting_gap(
        "http.compose",
        # CompositionService.compose is server overhead plus the compose call.
        ("http.roundtrip", "textio.parse", "server.service_compose", "textio.serialize"),
    )
    values["trace.accounting_gap_frac"] = gap
    log(
        f"serve_compose accounting: layers {layer_sum:.3f} ms vs single-client "
        f"HTTP p50 {http_ms:.3f} ms (paired gap {gap:+.1%})"
    )
    tracer.write(OUT / "serve_compose.spans.jsonl")
    solo_ops = untraced + traced
    solo_failed = sum(1 for op in solo_ops if not _ok(op, expected))
    return values, len(solo_ops), solo_failed
