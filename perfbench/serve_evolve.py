"""serve_evolve: schema evolution through the replicated tier.

Two closed-loop clients talk to ``repro route``, which fronts a primary
(journal acks, fsync per write) and an HTTP ``--follow`` follower.  The
primary root is pre-filled with ``pre-<j>`` mappings before start-up.  Each
client alternates a write — ``POST /compose?store=<history>`` with the
history's chain grown by one hop, so one hop is composed and the rest reused
from checkpoints — and a read of a random ``pre-<j>``, which the router
sends to the follower.
"""

from __future__ import annotations

import math
import os
import shutil
import signal
import time
from typing import Dict, List, Tuple

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
    disk_bytes,
    get_json,
    healthy,
    io_wchar,
    log,
    median,
    percentile,
    roundtrip,
    server_deltas,
    vm_hwm_mb,
    wait_until,
)

CLIENTS = 2
SETUP_REPEATS = 5
#: Writes (and as many reads) of each single-client pass of the traced run.
SOLO_WRITES = 120
#: Histories for this many writes per second per client are generated
#: before the timed window: a fixed ceiling, ~3.5x the rate the clients
#: reached when the benchmark was defined (~16.5 writes/s each).  A client
#: that outruns it generates more inside the window, and the run says so.
MAX_WRITES_PER_SECOND = 60


class Writer:
    """Walks a client's histories: write ``n`` is the next hop of the current one."""

    def __init__(self, seed: int, prefix: str, ahead: int = 1):
        self.seed = seed
        self.prefix = prefix
        self.histories: Dict[str, inputs.History] = {}
        self._number = 0
        self._hop = 0
        self._ahead = ahead
        #: Histories generated on demand, after the ``ahead`` made up front.
        self.late = 0
        for number in range(ahead):
            self._history(number)

    def _history(self, number: int) -> inputs.History:
        label = f"{self.prefix}{number}"
        if label not in self.histories:
            self.histories[label] = inputs.history(self.seed, label)
            self.late += number >= self._ahead
        return self.histories[label]

    def next(self) -> Tuple[str, int, bytes]:
        """``(history name, hop index, chain text)`` of the next write."""
        history = self._history(self._number)
        hop = self._hop
        self._hop += 1
        if self._hop == inputs.EVOLVE_MAX_HOPS:
            self._number += 1
            self._hop = 0
        return history.name, hop, history.texts[hop]


class Stack:
    """A primary, an HTTP follower and a router over both."""

    def __init__(self, workspace: Workspace, primary_root, follower_root, primary, follower, router):
        self.workspace = workspace
        self.primary_root = primary_root
        self.follower_root = follower_root
        self.primary = primary
        self.follower = follower
        self.router = router

    def stop(self) -> None:
        for child in (self.router, self.follower, self.primary):
            self.workspace.stop(child)


def _setup(workspace: Workspace, prefill) -> Tuple[Stack, float, float]:
    """Pre-fill, start the tier, wait until it is replicated and routable.

    Returns ``(stack, setup seconds, follower bootstrap seconds)``.
    """
    from repro.catalog import MappingCatalog

    primary_root = workspace.tempdir("primary")
    follower_root = workspace.tempdir("follower")
    started = time.perf_counter()
    catalog = MappingCatalog(primary_root)
    for index, mapping in enumerate(prefill):
        catalog.put_mapping(f"pre-{index}", mapping)
    primary = workspace.spawn("primary", ["--root", str(primary_root), "serve", "--port", "0"])
    wait_until(lambda: healthy(primary.url), STARTUP_TIMEOUT_SECONDS, "primary /healthz", workspace)
    follower = workspace.spawn(
        "follower",
        ["--root", str(follower_root), "serve", "--port", "0", "--follow", primary.url],
    )
    follower_up = time.perf_counter()
    router = workspace.spawn(
        "router",
        ["route", "--backend", primary.url, "--backend", follower.url, "--port", "0"],
    )

    def replicated() -> bool:
        health = get_json(follower.url, "/healthz")
        return health.get("replication", {}).get("lag_entries") == 0

    wait_until(replicated, 120.0, "follower catch-up", workspace)
    bootstrap = time.perf_counter() - follower_up

    def routable() -> bool:
        status = get_json(router.url, "/router/status")
        roles = sorted(backend["role"] for backend in status["backends"] if backend["healthy"])
        return roles == ["follower", "primary"]

    wait_until(routable, STARTUP_TIMEOUT_SECONDS, "router health", workspace)
    return (
        Stack(workspace, primary_root, follower_root, primary, follower, router),
        time.perf_counter() - started,
        bootstrap,
    )


class Verifier:
    """Expected outputs: stored pre-fill texts and in-process chain compositions."""

    def __init__(self, primary_root, writers: List[Writer], corrupt: bool):
        from repro.catalog import MappingCatalog

        self.primary = MappingCatalog(primary_root)
        self.histories: Dict[str, inputs.History] = {}
        for writer in writers:
            self.histories.update(writer.histories)
        self.corrupt = corrupt
        self._reads: Dict[int, bytes] = {}
        self._writes: Dict[Tuple[str, int], bytes] = {}
        self._stored: Dict[str, set] = {}

    def read_ok(self, op: Op) -> bool:
        if op.error is not None or op.status != 200:
            return False
        if op.key not in self._reads:
            self._reads[op.key] = self.primary.text("mapping", f"pre-{op.key}").encode("utf-8")
        return op.body == self._reads[op.key]

    def expected_write(self, name: str, hop: int) -> bytes:
        """The composed mapping text of history ``name`` after ``hop + 1`` hops."""
        if (name, hop) not in self._writes:
            from repro.engine import CheckpointStore, compose_chain
            from repro.textio.records import mapping_to_text

            history = self.histories[name]
            store = CheckpointStore()
            for depth in range(inputs.EVOLVE_MAX_HOPS):
                composed = compose_chain(history.mappings[: depth + 2], checkpoints=store)
                text = mapping_to_text(composed.to_mapping_with_residue(), name=name)
                self._writes[(name, depth)] = text.encode("utf-8")
            if self.corrupt:
                first = sorted(self.histories)[0]
                if name == first:
                    self._writes[(name, 0)] += b"# deliberately wrong expectation\n"
        return self._writes[(name, hop)]

    def write_ok(self, op: Op) -> bool:
        """The response is the right composition and the primary stored it."""
        if op.error is not None or op.status != 200:
            return False
        name, hop = op.key
        if op.body != self.expected_write(name, hop):
            return False
        if name not in self._stored:
            self._stored[name] = {
                self.primary.text("mapping", name, entry.version).encode("utf-8")
                for entry in self.primary.versions("mapping", name)
            }
        return op.body in self._stored[name]


def _writer_ops(writer: Writer, client: Client, reader, prefill: int):
    """A step function alternating a write and a read on one client."""

    def step(n: int) -> Op:
        if n % 2 == 0:
            name, hop, text = writer.next()
            return Op("write", (name, hop)).timed_request(
                client, "POST", f"/compose?store={name}", text
            )
        j = reader.randrange(prefill)
        return Op("read", j).timed_request(client, "GET", f"/catalog/mapping/pre-{j}")

    return step


def run(seed: int, seconds: float, trace: bool, tiny: bool, corrupt: bool) -> dict:
    prefill_count = 30 if tiny else inputs.EVOLVE_PREFILL
    prefill = inputs.prefill_mappings(seed, prefill_count)
    ahead = math.ceil(seconds * MAX_WRITES_PER_SECOND / inputs.EVOLVE_MAX_HOPS) + 1
    writers = [Writer(seed, f"h{index}-", ahead) for index in range(CLIENTS)]
    readers = [inputs.read_picker(seed, index, prefill_count) for index in range(CLIENTS)]

    with Workspace() as workspace:
        setups = []
        repeats = 1 if (trace or tiny) else SETUP_REPEATS
        for attempt in range(repeats):
            stack, seconds_to_ready, bootstrap = _setup(workspace, prefill)
            setups.append(seconds_to_ready)
            if attempt < repeats - 1:
                stack.stop()

        warm = Client(stack.router.url)
        warm_writer = Writer(seed, "warm-")
        for _ in range(3):
            name, _, text = warm_writer.next()
            for method, path, body in (
                ("POST", f"/compose?store={name}", text),
                ("GET", "/catalog/mapping/pre-0", None),
            ):
                status, _, _ = warm.request(method, path, body)
                if status != 200:
                    raise BenchError(f"warm-up {method} {path} answered {status}")
        warm.close()

        if trace:
            before = _snapshot(stack)
        clients = [Client(stack.router.url) for _ in range(CLIENTS)]
        steps = [
            _writer_ops(writers[index], clients[index], readers[index], prefill_count)
            for index in range(CLIENTS)
        ]
        ops, wall, cpu = closed_loop(CLIENTS, seconds, lambda c, n: steps[c](n), workspace)
        # Catch-up is timed from the last acknowledged write: poll first.
        acked = [op for op in ops if op.kind == "write" and op.error is None and op.status == 200]
        catchup = _catch_up(stack, acked)
        workspace.check_alive()
        if trace:
            after = _snapshot(stack)
        peak_rss = vm_hwm_mb(stack.primary.pid)
        connects = sum(client.connects for client in clients)
        connect_seconds = sum(client.connect_seconds for client in clients)
        for client in clients:
            client.close()
        late = sum(writer.late for writer in writers)
        if late:
            log(f"serve_evolve: {late} histories were generated inside the timed window")

        layers: Dict[str, float] = {}
        solo_ops: List[Op] = []
        solo_writers: List[Writer] = []
        if trace:
            service = _served_state_service(workspace, stack, acked, writers)
            try:
                solo_ops, solo_writers, layers, tracer = _solo_passes(
                    workspace, stack, seed, prefill_count, service, 8 if tiny else SOLO_WRITES
                )
            finally:
                service.stop()
            _catch_up(stack, [op for op in solo_ops if op.kind == "write" and op.status == 200])
        stack.stop()

        verifier = Verifier(stack.primary_root, writers + solo_writers, corrupt)
        mirrored, unverified = _follower_state(stack.follower_root)
        checked = [
            (
                op,
                verifier.write_ok(op) and op.body in mirrored.get(op.key[0], ())
                if op.kind == "write"
                else verifier.read_ok(op),
            )
            for op in ops + solo_ops
        ]
        if trace:
            layers["space_amp"] = _space_amp(stack.primary_root)
            tracer.write(OUT / "serve_evolve.spans.jsonl")

    if not ops:
        raise BenchError("no operation completed")
    load_checked = checked[: len(ops)]
    good = sum(ok for _, ok in load_checked)
    writes_ms = _latencies(load_checked, "write")
    reads_ms = _latencies(load_checked, "read")
    log(describe(f"serve_evolve seed {seed} writes", writes_ms))
    log(describe(f"serve_evolve seed {seed} reads", reads_ms))
    log("serve_evolve set-ups (s): " + " ".join(f"{v:.3f}" for v in setups))
    if unverified:
        log(f"serve_evolve: {unverified} follower versions fail MappingCatalog.verify")

    # A follower version that fails verification counts as one more failed op.
    if not trace:
        failed = len(ops) - good + unverified
        values = {
            "setup_s": median(setups),
            "throughput_ops_s": good / wall,
            "latency_p50_ms": percentile(writes_ms, 0.5),
            "success_rate": good / (len(ops) + unverified),
            "peak_rss_mb": peak_rss,
        }
        return metrics.result(failed == 0, len(ops) + unverified, failed, values, trace=False)

    values = layers
    values.update(_load_layers(before, after, acked, wall, cpu))
    values["http.connects_per_op"] = connects / len(ops)
    values["http.connect_ms"] = connect_seconds * 1e3 / max(connects, 1)
    values["replica.bootstrap_s"] = bootstrap
    values["replica.catchup_s"] = catchup
    values["latency_p95_ms"] = percentile(writes_ms, 0.95)
    values["latency_p99_ms"] = percentile(writes_ms, 0.99)
    values["read_p50_ms"] = percentile(reads_ms, 0.5)
    values["read_p99_ms"] = percentile(reads_ms, 0.99)
    attempted = len(checked) + unverified
    failed = sum(not ok for _, ok in checked) + unverified
    values["error_rate"] = failed / attempted
    return metrics.result(failed == 0, attempted, failed, values, trace=True)


def _latencies(checked, kind: str) -> List[float]:
    # A failed operation counts as missing any latency limit.
    return [
        (op.latency if ok else REQUEST_TIMEOUT_SECONDS) * 1e3
        for op, ok in checked
        if op.kind == kind
    ]


def _catch_up(stack: Stack, acked: List[Op]) -> float:
    """Seconds until the follower serves the last acknowledged write, then lag 0."""
    if not acked:
        return 0.0
    last = max(acked, key=lambda op: op.finished)
    name = last.key[0]
    follower = Client(stack.follower.url, timeout=5.0)

    def serves_last() -> bool:
        status, _, body = follower.request("GET", f"/catalog/mapping/{name}")
        return status == 200 and body == last.body

    try:
        wait_until(serves_last, 60.0, "follower to serve the last write", stack.workspace)
        seconds = time.perf_counter() - last.finished
    finally:
        follower.close()
    wait_until(
        lambda: get_json(stack.follower.url, "/healthz")["replication"]["lag_entries"] == 0,
        60.0,
        "follower lag 0",
        stack.workspace,
    )
    return seconds


def _follower_state(follower_root) -> Tuple[Dict[str, set], int]:
    """Every version the follower holds, by name, and how many fail ``verify``."""
    from repro.catalog import MappingCatalog

    follower = MappingCatalog(follower_root)
    mirrored: Dict[str, set] = {}
    unverified = 0
    for name in follower.names("mapping"):
        texts = set()
        for entry in follower.versions("mapping", name):
            unverified += not follower.verify("mapping", name, entry.version)
            texts.add(follower.text("mapping", name, entry.version).encode("utf-8"))
        mirrored[name] = texts
    return mirrored, unverified


def _snapshot(stack: Stack) -> dict:
    return {
        "metrics": get_json(stack.primary.url, "/metrics"),
        "router": get_json(stack.router.url, "/router/status"),
        "wchar": io_wchar(stack.primary.pid),
    }


def _load_layers(before, after, acked, wall, cpu) -> Dict[str, float]:
    values = server_deltas(before["metrics"], after["metrics"])
    values["router.retries"] = after["router"]["request_retries"] - before["router"]["request_retries"]
    values["loadgen.cpu_frac"] = cpu / wall
    acked_bytes = sum(len(op.body) for op in acked)
    values["catalog.write_amp"] = (after["wchar"] - before["wchar"]) / max(acked_bytes, 1)
    hops = sum(int(op.headers.get("x-repro-hops", 0)) for op in acked)
    reused = sum(int(op.headers.get("x-repro-reused-hops", 0)) for op in acked)
    values["engine.hops_reused_frac"] = reused / max(hops, 1)
    return values


def _served_state_service(workspace: Workspace, stack: Stack, acked: List[Op], writers: List[Writer]):
    """An in-process service in the state the load left the primary in.

    The primary root is copied (the primary is idle) without its
    checkpoints, and the service replays the acknowledged writes' chains in
    the order they were served.  It then holds a catalog of the served size
    and the caches the serving process built, which make a served
    composition markedly slower than a fresh process's.
    """
    from repro.catalog import MappingCatalog
    from repro.service import CompositionService, ServiceConfig

    root = workspace.tempdir("served")
    shutil.copytree(
        stack.primary_root, root, dirs_exist_ok=True, ignore=shutil.ignore_patterns("checkpoints")
    )
    service = CompositionService(MappingCatalog(root), ServiceConfig()).start()
    try:
        _replay(service, acked, writers)
    except BaseException:
        service.stop()
        raise
    return service


def _replay(service, writes: List[Op], writers: List[Writer]) -> None:
    """Compose ``writes``' chains through ``service``, in the order served."""
    histories = {name: history for writer in writers for name, history in writer.histories.items()}
    for op in sorted(writes, key=lambda op: op.finished):
        name, hop = op.key
        service.compose_chain(histories[name].mappings[: hop + 2])


def _solo_passes(workspace: Workspace, stack: Stack, seed: int, prefill: int, service, solo: int):
    """Single-client passes: router vs direct (untraced), then a traced pass.

    The traced pass calls each layer in-process on the same inputs: the
    engine with a persistent checkpoint store like the server's, ``service``
    (configured like the CLI's ``serve``, in the served state), the same
    puts on an empty root, and reads of the live follower root.
    """
    from repro.catalog import MappingCatalog
    from repro.engine import compose_chain
    from repro.service import CompositionService, ServiceConfig
    from repro.textio.records import chain_from_text, mapping_to_text

    reader = inputs.read_picker(seed, 99, prefill)
    via_router = Client(stack.router.url)
    to_primary = Client(stack.primary.url)
    to_follower = Client(stack.follower.url)
    routed_writer = Writer(seed, "sr-")
    direct_writer = Writer(seed, "sd-")
    traced_writer = Writer(seed, "st-")
    ops: List[Op] = []
    timing: Dict[str, List[float]] = {"rw": [], "rr": [], "dw": [], "dr": []}
    for index in range(solo):
        j = reader.randrange(prefill)
        for label, writer, write_client, read_client in (
            ("r", routed_writer, via_router, via_router),
            ("d", direct_writer, to_primary, to_follower),
        ):
            name, hop, text = writer.next()
            write = Op("write", (name, hop)).timed_request(
                write_client, "POST", f"/compose?store={name}", text
            )
            read = Op("read", j).timed_request(read_client, "GET", f"/catalog/mapping/pre-{j}")
            ops += [write, read]
            timing[label + "w"].append(write.latency * 1e3)
            timing[label + "r"].append(read.latency * 1e3)
    values = metrics.idle_layers()
    write_relay = median(timing["rw"]) - median(timing["dw"])
    read_relay = median(timing["rr"]) - median(timing["dr"])
    values["router.relay_ms"] = (write_relay + read_relay) / 2
    solo_write_ms = median(timing["rw"])
    # Keep the in-process service in step with the server, which has just
    # composed these writes too.
    _replay(service, [op for op in ops if op.kind == "write"], [routed_writer, direct_writer])

    engine_catalog = MappingCatalog(workspace.tempdir("engine"))
    empty = CompositionService(MappingCatalog(workspace.tempdir("empty")), ServiceConfig())
    follower = MappingCatalog(stack.follower_root)
    tracer = Tracer()
    traced: List[Op] = []
    hops = []
    try:
        for index in range(solo):
            name, hop, text = traced_writer.next()
            with tracer.span("op", index):
                with tracer.span("http.write", index):
                    op = Op("write", (name, hop)).timed_request(
                        via_router, "POST", f"/compose?store={name}", text
                    )
                traced.append(op)
                with tracer.span("http.roundtrip", index):
                    roundtrip(to_primary)
                with tracer.span("textio.parse", index):
                    mappings = chain_from_text(text.decode("utf-8"))
                with tracer.span("engine.compose_chain", index) as span:
                    composed = compose_chain(mappings, checkpoints=engine_catalog.checkpoints)
                span["new_hop_ms"] = composed.hops[-1].elapsed_seconds * 1e3
                mapping = composed.to_mapping_with_residue()
                with tracer.span("textio.serialize", index):
                    mapping_to_text(mapping, name=name)
                with tracer.span("server.service_compose_chain", index):
                    service.compose_chain(mappings)
                for label, target in (("catalog.put", service), ("catalog.put_empty", empty)):
                    with tracer.span(label, index):
                        if target.store_mapping_entry(name, mapping) is None:
                            raise BenchError(f"{label}: store_mapping_entry dropped the write")
                with tracer.span("catalog.read", index):
                    follower.text("mapping", f"pre-{reader.randrange(prefill)}")
            hops.append(composed.hops[-1])
        quiet_writer = Writer(seed, "sq-")
        interference, quiet_ops = _replica_interference(stack, to_primary, quiet_writer, solo)
    finally:
        for client in (via_router, to_primary, to_follower):
            client.close()
    ops += traced + quiet_ops
    values["replica.interference_ms"] = interference

    chain_spans = [s for s in tracer.spans if s["name"] == "engine.compose_chain"]
    totals = [(s["end"] - s["start"]) * 1e3 for s in chain_spans]
    new_hops = [s["new_hop_ms"] for s in chain_spans]
    values["engine.hop_ms"] = median(new_hops)
    values["engine.reuse_overhead_ms"] = median([t - h for t, h in zip(totals, new_hops)])
    values["server.overhead_ms"] = (
        median(tracer.durations_ms("server.service_compose_chain")) - median(totals)
    )
    for span_name, key in (
        ("http.roundtrip", "http.roundtrip_ms"),
        ("textio.parse", "textio.parse_ms"),
        ("textio.serialize", "textio.serialize_ms"),
        ("catalog.put", "catalog.put_ms"),
        ("catalog.read", "catalog.read_ms"),
    ):
        values[key] = median(tracer.durations_ms(span_name))
    values["catalog.put_growth"] = values["catalog.put_ms"] / median(
        tracer.durations_ms("catalog.put_empty")
    )
    values["compose.call_ms"] = median([hop.result.elapsed_seconds * 1e3 for hop in hops])
    values.update(metrics.compose_layers([hop.result for hop in hops]))
    traced_ms = median([op.latency * 1e3 for op in traced])
    values["trace.overhead_frac"] = (traced_ms - solo_write_ms) / solo_write_ms
    # CompositionService.compose_chain is server overhead plus the engine.
    layer_sum, traced_write_ms, gap = tracer.accounting_gap(
        "http.write",
        ("http.roundtrip", "textio.parse", "server.service_compose_chain", "textio.serialize", "catalog.put"),
        constant_ms=values["router.relay_ms"] + interference,
    )
    values["trace.accounting_gap_frac"] = gap
    log(
        f"serve_evolve write accounting: layers {layer_sum:.3f} ms vs single-client "
        f"write p50 {traced_write_ms:.3f} ms (paired gap {gap:+.1%})"
    )
    return ops, [routed_writer, direct_writer, traced_writer, quiet_writer], values, tracer


def _replica_interference(stack: Stack, client: Client, writer: Writer, solo: int) -> Tuple[float, List[Op]]:
    """What a tailing follower costs the primary's write path.

    Direct writes to the primary, in alternating blocks with the follower
    running and paused (``SIGSTOP``); returns the difference of the block
    medians (ms) and the writes, which are verified like every other.
    """
    running: List[float] = []
    paused: List[float] = []
    ops: List[Op] = []
    blocks = 4
    for block in range(blocks):
        pause = block % 2 == 1
        if pause:
            os.kill(stack.follower.pid, signal.SIGSTOP)
        try:
            for index in range(solo // blocks):
                name, hop, text = writer.next()
                op = Op("write", (name, hop)).timed_request(
                    client, "POST", f"/compose?store={name}", text
                )
                ops.append(op)
                (paused if pause else running).append(op.latency * 1e3)
        finally:
            if pause:
                os.kill(stack.follower.pid, signal.SIGCONT)
    return median(running) - median(paused), ops


def _space_amp(primary_root) -> float:
    """Bytes on disk under the primary root over bytes of record text stored."""
    from repro.catalog import MappingCatalog

    primary = MappingCatalog(primary_root)
    stored = sum(
        len(primary.text("mapping", name, entry.version).encode("utf-8"))
        for name in primary.names("mapping")
        for entry in primary.versions("mapping", name)
    )
    return disk_bytes(primary_root) / max(stored, 1)
