"""A minimal HTTP front-end for the composition service (stdlib only).

``repro serve`` binds this to a port.  The surface is intentionally small and
text-first — everything speaks the plain-text record formats of
:mod:`repro.textio`, so ``curl`` is a complete client:

* ``GET /healthz`` — the service's *real* health as JSON: ``200`` with
  ``"status": "ok"`` when healthy, ``503`` with ``"status": "degraded"`` plus
  the reasons (storage circuit breaker open, service not running, GC sweep
  overdue), the breaker snapshot, the last GC sweep age, and the storage
  error counters.  Load balancers key on the status code; operators read the
  body.
* ``GET /metrics`` — the service's metrics snapshot as JSON;
  ``?format=prometheus`` answers the Prometheus text exposition instead
  (labeled counters plus ``repro_*_seconds`` histogram bucket/sum/count
  triples).
* ``GET /trace`` — the in-memory span ring as JSON (``?trace_id=...``
  filters to one trace) — the live window into :mod:`repro.obs`; the JSONL
  sinks (``REPRO_TRACE_LOG``) are the durable one.
* ``GET /catalog`` — JSON listing of the latest catalog entries
  (``?kind=mapping`` filters).
* ``GET /catalog/<kind>/<name>`` — the stored record text
  (``?version=N`` selects an old version).
* ``GET /journal/<shard>?since=<seq>`` — the catalog's replication journal
  entries of one index shard with sequence numbers past ``since``
  (``&limit=N`` bounds the page; ``limit=0`` asks only for ``last_seq``) —
  the endpoint a :class:`~repro.service.replica.ReplicationFollower` tails
  over HTTP.  Pollers piggyback ``&follower=<id>&applied=<seq>``; the
  server feeds that into the service's replica-ack table, which is how
  ``ack_level="replica"`` writes learn they are mirrored.
* ``POST /compose`` — body is a record text: a composition problem (the
  paper's task format) is composed and answered with a ``result`` record; a
  ``chain`` record is chain-composed and answered with a ``mapping`` record
  of the composed output (residual symbols folded into the input signature),
  plus ``X-Repro-*`` headers with hop-reuse counts.  ``?order=cost`` serves
  the request through the cost-guided planner; ``?store=<name>`` also
  registers the result in the catalog.  Stored writes carry an
  ``x-repro-epoch`` header (the writer's fencing epoch); a write rejected
  because this node's epoch is stale (a fenced zombie ex-primary) answers
  ``409``.  With ``ServiceConfig(ack_level="replica")`` the ack is held
  until a follower confirms the entry applied — a confirmation that misses
  its deadline degrades to ``202`` with ``x-repro-ack-pending: 1`` (the
  write is journal-durable, its mirroring just unconfirmed).
* ``POST /admin/promote`` — on a follower (``repro serve --follow``), stop
  tailing and become the primary, minting the next fencing epoch; answers
  the promotion report.  ``409`` on a server that is not a follower.  With
  ``repro serve --election`` this endpoint remains as a manual override —
  the elector notices the promotion and assumes leader duties.

A server given a follower reports its role (``primary`` or ``follower``) and
replication status in ``/healthz`` and ``/metrics`` — the router keys its
read/write routing on the role — and rejects ``?store=`` writes with ``409``
while still following (a follower's catalog mirrors its primary; writing to
it locally would fork the replicated sequence space).

Requests funnel through the shared :class:`CompositionService`, so HTTP
clients get the same admission control, deduplication and metrics as
in-process callers.  Each connection has its own handler thread, and a
``POST /compose`` composes on it: the service runs one composition at a
time, so a request waits only for the composition ahead of it.
Connections are persistent HTTP/1.1 (:mod:`repro.service.httpio`), so a
client pays the TCP connect once, not per request.  Overload answers
``429``, malformed records ``400``, unknown entries ``404``; ``429`` and
degraded ``503`` responses carry a ``Retry-After`` header derived from the
breaker probe interval so clients and routers back off instead of
hammering a recovering node.
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time
from http.server import ThreadingHTTPServer
from typing import TYPE_CHECKING, Callable, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro import obs
from repro.compose.config import ComposerConfig
from repro.exceptions import (
    CatalogError,
    ParseError,
    ReproError,
    ServiceOverloadedError,
    StaleEpochError,
)
from repro.service.httpio import HTTPServerHost, RequestHandler, read_body
from repro.service.server import CompositionService

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (replica imports catalog)
    from repro.service.election import LeaderElector
    from repro.service.replica import ReplicationFollower
from repro.textio.format import problem_from_text
from repro.textio.records import chain_from_text, detect_kind, mapping_to_text, result_to_text

__all__ = ["ServiceHTTPServer"]


class _Handler(RequestHandler):
    # ``self.server`` is the ThreadingHTTPServer; ServiceHTTPServer pins the
    # ``service`` and ``verbose`` attributes onto it before serving starts.

    # -- plumbing ------------------------------------------------------------------

    def _send(self, status: int, body: bytes, content_type: str, headers: Tuple[Tuple[str, str], ...] = ()) -> None:
        self._last_status = status
        super()._send(status, body, content_type, headers)

    def _traced(self, method: str, inner: Callable[[], None]) -> None:
        """Run one request inside an ingress span.

        A POST with no incoming context starts a fresh trace (it is the
        write path — the thing worth explaining after the fact); a GET only
        joins a trace that rode in on the headers, so router health polls
        and follower journal tails stay out of the sinks entirely.
        """
        self._last_status = 0
        incoming = obs.extract_context(self.headers)
        started = time.perf_counter()
        with obs.span(
            "http.request",
            parent=incoming,
            new_trace=(method == "POST"),
            record_start=True,
            method=method,
            path=self.path,
        ) as handle:
            context = handle.context
            try:
                inner()
            finally:
                handle.set("status", self._last_status)
        duration = time.perf_counter() - started
        self._access_record(method, duration, context)
        self._slow_trace(duration, context)

    def _access_record(self, method: str, duration: float, context) -> None:
        sink = self.server.access_sink
        if sink is None:
            return
        sink.write(
            {
                "ts": time.time(),
                "method": method,
                "path": self.path,
                "status": self._last_status,
                "duration": duration,
                "trace_id": context.trace_id if context is not None else None,
                "client": self.client_address[0],
            }
        )

    def _slow_trace(self, duration: float, context) -> None:
        """Dump the full span tree of an over-threshold request to stderr."""
        threshold = self.server.service.config.slow_trace_seconds
        if threshold is None or duration < threshold or context is None:
            return
        self.server.service.metrics_store.record_slow_request()
        records = obs.recorder().spans(context.trace_id)
        traces = obs.merge_spans(records)
        try:
            sys.stderr.write(
                f"slow request ({duration:.3f}s >= {threshold:.3f}s):\n"
                + obs.format_trace(
                    context.trace_id, traces.get(context.trace_id, records)
                )
                + "\n"
            )
        except OSError:  # pragma: no cover - stderr gone; telemetry stays silent
            pass

    def _retry_after(self) -> Tuple[Tuple[str, str], ...]:
        """A ``Retry-After`` of one breaker probe interval (never below 1s).

        Attached to degraded ``503``s and overload/breaker rejections: the
        probe interval is exactly how often the node re-checks whether it
        recovered, so it is the soonest a retry could see a different answer.
        """
        seconds = self.server.service.config.breaker_recovery_seconds
        return (("Retry-After", str(max(1, math.ceil(seconds)))),)

    # -- routes --------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._traced("GET", self._do_get)

    def _do_get(self) -> None:
        url = urlsplit(self.path)
        parts = [part for part in url.path.split("/") if part]
        try:
            if parts == ["healthz"]:
                health = self._health()
                if health["status"] == "ok":
                    self._send_json(200, health)
                else:
                    self._send_json(503, health, headers=self._retry_after())
            elif parts == ["metrics"]:
                query = parse_qs(url.query)
                if query.get("format", [None])[0] == "prometheus":
                    self._send(
                        200,
                        self.server.service.metrics_prometheus().encode("utf-8"),
                        "text/plain; version=0.0.4; charset=utf-8",
                    )
                    return
                metrics = self.server.service.metrics()
                follower = self.server.follower
                metrics["role"] = self.server.role
                metrics["epoch"] = self._epoch()
                if follower is not None:
                    replication = dict(metrics.get("replication", {}))
                    replication.update(follower.status())
                    metrics["replication"] = replication
                if self.server.elector is not None:
                    metrics["election"] = self.server.elector.status()
                self._send_json(200, metrics)
            elif parts == ["trace"]:
                query = parse_qs(url.query)
                trace_id = query.get("trace_id", [None])[0]
                spans = obs.recorder().spans(trace_id)
                self._send_json(200, {"spans": spans, "count": len(spans)})
            elif parts == ["catalog"]:
                self._get_catalog_listing(parse_qs(url.query))
            elif len(parts) == 3 and parts[0] == "catalog":
                self._get_catalog_record(parts[1], parts[2], parse_qs(url.query))
            elif len(parts) == 2 and parts[0] == "journal":
                self._get_journal(parts[1], parse_qs(url.query))
            else:
                self._send_text(404, f"unknown path {url.path!r}\n")
        except CatalogError as exc:
            self._send_text(404, f"{exc}\n")
        except ReproError as exc:
            self._send_text(400, f"{exc}\n")

    def _epoch(self) -> int:
        """The catalog's fencing epoch (0 without a catalog or before any)."""
        catalog = self.server.service.catalog
        if catalog is None:
            return 0
        try:
            return catalog.epoch
        except (CatalogError, OSError):  # pragma: no cover - unreadable marker
            return 0

    def _health(self) -> dict:
        """The service health, extended with this server's replication view."""
        health = self.server.service.health()
        health["role"] = self.server.role
        health["epoch"] = self._epoch()
        follower = self.server.follower
        if follower is not None:
            status = follower.status()
            health["replication"] = status
            # A follower with an unreachable source stays *healthy* — it is
            # the failover target and must keep serving reads — but one whose
            # applied entries failed verification is lying about its data.
            if status["verify_failures"]:
                health["reasons"] = list(health["reasons"]) + [
                    f"replication verify failures: {status['verify_failures']}"
                ]
                health["status"] = "degraded"
        elector = self.server.elector
        if elector is not None:
            status = elector.status()
            health["election"] = status
            if status["deposed"]:
                # A deposed leader's lease was taken over: a newer leader
                # exists and writes here would be fenced — degrade so the
                # router routes writes away.
                health["reasons"] = list(health["reasons"]) + [
                    "leader lease lost (deposed by a newer leader)"
                ]
                health["status"] = "degraded"
        return health

    def _get_journal(self, shard_text: str, query) -> None:
        catalog = self.server.service.catalog
        if catalog is None:
            self._send_text(404, "this service has no catalog attached\n")
            return
        try:
            shard = int(shard_text)
        except ValueError:
            self._send_text(400, "journal shard must be an integer\n")
            return
        since = 0
        limit: Optional[int] = None
        try:
            if "since" in query:
                since = int(query["since"][0])
            if "limit" in query:
                limit = int(query["limit"][0])
        except ValueError:
            self._send_text(400, "since and limit must be integers\n")
            return
        follower_id = query.get("follower", [None])[0]
        if follower_id:
            # The poller's applied-seq piggyback: its replay cursor *is* its
            # ack.  Feeds ack_level="replica" write waits and the GC floor.
            try:
                applied = int(query.get("applied", [str(since)])[0])
            except ValueError:
                applied = since
            self.server.service.record_follower_applied(follower_id, shard, applied)
        journal = catalog.journal
        entries = [] if limit == 0 else journal.read_since(shard, since, limit=limit)
        self._send_json(
            200,
            {
                "shard": shard,
                "since": since,
                "entries": entries,
                "last_seq": journal.last_seq(shard),
            },
        )

    def _get_catalog_listing(self, query) -> None:
        catalog = self.server.service.catalog
        if catalog is None:
            self._send_text(404, "this service has no catalog attached\n")
            return
        kind = query.get("kind", [None])[0]
        entries = [
            {
                "kind": entry.kind,
                "name": entry.name,
                "version": entry.version,
                "fingerprint": entry.fingerprint,
                "created_at": entry.created_at,
            }
            for entry in catalog.entries(kind)
        ]
        self._send_json(200, {"entries": entries, "stats": catalog.stats()})

    def _get_catalog_record(self, kind: str, name: str, query) -> None:
        catalog = self.server.service.catalog
        if catalog is None:
            self._send_text(404, "this service has no catalog attached\n")
            return
        version: Optional[int] = None
        if "version" in query:
            try:
                version = int(query["version"][0])
            except ValueError:
                self._send_text(400, "version must be an integer\n")
                return
        self._send_text(200, catalog.text(kind, name, version))

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._traced("POST", self._do_post)

    def _do_post(self) -> None:
        url = urlsplit(self.path)
        if url.path.rstrip("/") == "/admin/promote":
            self._promote()
            return
        if url.path.rstrip("/") != "/compose":
            self._send_text(404, f"unknown path {url.path!r}\n")
            return
        body = read_body(self)
        if body is None:
            return
        text = body.decode("utf-8", errors="replace")
        query = parse_qs(url.query)
        config: Optional[ComposerConfig] = None
        if query.get("order", [None])[0] == "cost":
            config = ComposerConfig.cost_guided()
        store_as = query.get("store", [None])[0]
        if store_as and self.server.role == "follower":
            # A follower's catalog mirrors its primary; a local write would
            # fork the replicated sequence space.  Composing without storing
            # is fine — that is what followers are for.
            self._send_text(
                409,
                "this server is a replication follower; "
                "write through the primary (or promote this follower first)\n",
            )
            return
        try:
            self._compose(text, config, store_as)
        except ServiceOverloadedError as exc:
            self._send_text(429, f"{exc}\n", headers=self._retry_after())
        except StaleEpochError as exc:
            # Fencing: this node's epoch has been outranked by a promoted
            # replica — it must not accept writes anymore.
            self._send_text(409, f"{exc}\n")
        except (ParseError, ReproError) as exc:
            self._send_text(400, f"{exc}\n")

    def _promote(self) -> None:
        follower = self.server.follower
        if follower is None:
            self._send_text(409, "this server is not a replication follower\n")
            return
        if follower.promoted:
            self._send_json(200, {"promoted": True, "already": True})
            return
        report = dict(follower.promote())
        catalog = self.server.service.catalog
        if catalog is not None:
            # Promotion mints the next fencing epoch: from here on this
            # node's journal entries and write acks outrank the old
            # primary's, and its zombie (if it ever wakes) is rejected.
            try:
                report["epoch"] = catalog.bump_epoch()
            except (CatalogError, OSError) as exc:
                report["epoch_error"] = str(exc)
        self._send_json(200, report)

    def _store(self, catalog_kind: str, store_as: str, store_op, headers: list) -> int:
        """Run one breaker-gated catalog store; returns the response status.

        A stored write stamps ``x-repro-epoch``; a dropped one (breaker
        open) flags ``X-Repro-Store-Dropped``.  With ``ack_level="replica"``
        the call then blocks for a follower's applied confirmation and
        degrades to ``202 + x-repro-ack-pending`` when none arrives in time.
        :class:`StaleEpochError` propagates to ``do_POST``'s 409 handler.
        """
        service = self.server.service
        entry = store_op()
        if entry is None:
            headers.append(("X-Repro-Store-Dropped", "1"))
            headers.extend(self._retry_after())
            return 200
        headers.append(("x-repro-epoch", str(self._epoch())))
        if service.config.ack_level == "replica":
            if not service.await_replica_ack(catalog_kind, store_as, entry):
                headers.append(("x-repro-ack-pending", "1"))
                return 202
        return 200

    def _compose(self, text: str, config: Optional[ComposerConfig], store_as: Optional[str]) -> None:
        service = self.server.service
        kind = detect_kind(text)
        if kind == "problem":
            result = service.compose(problem_from_text(text), config)
            headers = [
                ("X-Repro-Eliminated", str(len(result.eliminated_symbols))),
                ("X-Repro-Residual", str(len(result.remaining_symbols))),
            ]
            status = 200
            if store_as and service.catalog is not None:
                # Routed through the breaker-gated write: a degraded service
                # still answers the composition, it just could not store it.
                status = self._store(
                    "result",
                    store_as,
                    lambda: service.store_result_entry(store_as, result),
                    headers,
                )
            self._send_text(
                status, result_to_text(result, name=store_as or ""), headers=tuple(headers)
            )
        elif kind == "chain":
            chain_result = service.compose_chain(chain_from_text(text), config)
            composed = chain_result.to_mapping_with_residue()
            headers = [
                ("X-Repro-Hops", str(len(chain_result.hops))),
                ("X-Repro-Reused-Hops", str(chain_result.reused_hops)),
                ("X-Repro-Residual", str(len(chain_result.residual_signature))),
            ]
            status = 200
            if store_as and service.catalog is not None:
                status = self._store(
                    "mapping",
                    store_as,
                    lambda: service.store_mapping_entry(store_as, composed),
                    headers,
                )
            self._send_text(
                status, mapping_to_text(composed, name=store_as or ""), headers=tuple(headers)
            )
        else:
            self._send_text(
                400, f"cannot compose a {kind!r} record (expected problem or chain)\n"
            )


class _AccessSink:
    """Append-only JSONL access log with the fault-audit fail-silent contract.

    One record per finished request.  Any OSError silences the sink for
    the rest of the process — the access log is an audit convenience and
    must never turn request serving into an I/O casualty.
    """

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._handle = None
        self._failed = False

    def write(self, record: dict) -> None:
        with self._lock:
            if self._failed:
                return
            try:
                if self._handle is None:
                    self._handle = open(self.path, "a", encoding="utf-8")
                self._handle.write(json.dumps(record, sort_keys=True) + "\n")
                self._handle.flush()
            except OSError:
                self._failed = True

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None


class _ServiceHTTPD(ThreadingHTTPServer):
    """The stdlib server plus the attributes handlers reach through ``self.server``."""

    service: CompositionService
    verbose: bool
    follower: "Optional[ReplicationFollower]" = None
    elector: "Optional[LeaderElector]" = None
    access_sink: Optional[_AccessSink] = None

    @property
    def role(self) -> str:
        """``follower`` while tailing a primary, ``primary`` otherwise.

        A promoted follower flips to ``primary`` — the router's health loop
        observes the flip on its next ``/healthz`` poll and routes writes
        here.
        """
        if self.follower is not None and not self.follower.promoted:
            return "follower"
        return "primary"


class ServiceHTTPServer(HTTPServerHost):
    """Serves one composition service over HTTP (start the service too).

    With a ``follower``, the server reports the ``follower`` role (until
    promotion), exposes its replication status, and rejects local catalog
    writes — the HTTP face of ``repro serve --follow``.
    """

    def __init__(
        self,
        service: CompositionService,
        host: str = "127.0.0.1",
        port: int = 8075,
        verbose: bool = False,
        follower: "Optional[ReplicationFollower]" = None,
        elector: "Optional[LeaderElector]" = None,
        access_log: Optional[str] = None,
    ):
        super().__init__(_ServiceHTTPD((host, port), _Handler), "repro-http")
        self.service = service
        self.follower = follower
        self.elector = elector
        self._access_sink = _AccessSink(access_log) if access_log else None
        # Handlers reach the service through their ``server`` attribute.
        self._httpd.service = service
        self._httpd.verbose = verbose
        self._httpd.follower = follower
        self._httpd.elector = elector
        self._httpd.access_sink = self._access_sink

    def _on_close(self) -> None:
        if self._access_sink is not None:
            self._access_sink.close()
