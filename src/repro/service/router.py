"""A health-routing HTTP front tier over replicated composition services.

``repro route --backend <url> ...`` binds this router in front of one primary
and any number of followers.  It is deliberately small and stdlib-only — the
same "curl is a complete client" contract as the service itself:

* every backend is health-checked on its ``/healthz`` every
  ``health_interval_seconds``; the JSON body's ``role`` field (``primary`` or
  ``follower``; absent means ``primary``, so pre-replication services route
  unchanged) decides what traffic it may receive;
* **reads** (every ``GET``) prefer healthy followers (rotating among them to
  spread load), then the healthy primary, then — rather than failing — any
  backend that still answers, even degraded;
* **writes** (every ``POST``) go only to backends reporting the ``primary``
  role, so a follower never forks the replicated sequence space; among
  several primaries the *highest fencing epoch* wins — after an election a
  resurrected zombie ex-primary may still call itself ``primary``, but the
  freshly promoted backend's higher epoch (learned from the same health
  polls) routes writes away from it;
* **flap damping**: a backend that dropped off the network must answer
  ``min_consecutive_ok`` consecutive healthy polls (default 2) before it
  re-enters rotation, so a flapping backend does not oscillate traffic;
  ``/router/status`` exposes each backend's ``consecutive_ok`` streak and
  last-poll timestamp;
* **retries**: idempotent requests — ``GET``, and ``POST /compose`` (the
  composition is deterministic in its inputs) — are transparently retried on
  the next candidate when a backend drops the connection, so clients of a
  dying primary observe a retry, not an error.  A backend that *answers* is
  authoritative: HTTP error responses (4xx/5xx) are relayed, not retried;
* **failover**: when the primary dies and an operator (or the drill in the
  chaos suite) promotes a follower — ``POST /admin/promote`` directly on the
  follower — the next health check observes the new ``role: primary`` and
  writes flow again.  No router restart, no configuration change.

``GET /router/status`` reports the live backend table.  When no backend can
take a request the router answers ``503`` with a ``Retry-After`` of one
health interval.  Fault point: ``router.backend`` fires before each proxied
attempt (the chaos suite uses it to kill specific attempts).
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple
from urllib.error import HTTPError, URLError
from urllib.request import Request, urlopen

from repro import faults, obs
from repro.exceptions import ServiceError
from repro.service.httpio import HTTPServerHost, RequestHandler, read_body

__all__ = ["BackendState", "RouterHTTPServer"]

#: Headers that must not be forwarded verbatim from a proxied response
#: (the router's own writer sets the length and the connection handling).
_HOP_HEADERS = {
    "connection", "keep-alive", "transfer-encoding", "content-length", "server", "date",
}


class BackendState:
    """What the router knows about one backend (mutated by the health loop)."""

    __slots__ = (
        "url",
        "healthy",
        "reachable",
        "role",
        "status",
        "epoch",
        "consecutive_failures",
        "consecutive_ok",
        "last_checked_monotonic",
        "last_poll_at",
        "last_error",
    )

    def __init__(self, url: str):
        self.url = url.rstrip("/")
        self.healthy = False
        self.reachable = False
        self.role = "primary"
        self.status = "unknown"
        self.epoch = 0
        self.consecutive_failures = 0
        self.consecutive_ok = 0
        self.last_checked_monotonic: Optional[float] = None
        self.last_poll_at: Optional[float] = None
        self.last_error: Optional[str] = None

    def snapshot(self) -> dict:
        age = None
        if self.last_checked_monotonic is not None:
            age = time.monotonic() - self.last_checked_monotonic
        return {
            "url": self.url,
            "healthy": self.healthy,
            "reachable": self.reachable,
            "role": self.role,
            "status": self.status,
            "epoch": self.epoch,
            "consecutive_failures": self.consecutive_failures,
            "consecutive_ok": self.consecutive_ok,
            "last_checked_age_seconds": age,
            "last_poll_at": self.last_poll_at,
            "last_error": self.last_error,
        }


class _RouterHandler(RequestHandler):
    # ``self.server`` is the ThreadingHTTPServer; RouterHTTPServer pins the
    # ``router`` and ``verbose`` attributes onto it before serving starts.

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path.rstrip("/") == "/router/status":
            self._send_json(200, self.server.router.status())
            return
        self._proxy("GET", body=None)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        # Bodiless POSTs (``/admin/promote``) are relayed as they are.
        body = read_body(self, required=False)
        if body is not None:
            self._proxy("POST", body=body)

    def _proxy(self, method: str, body: Optional[bytes]) -> None:
        router: "RouterHTTPServer" = self.server.router
        # Trace ingress for the tier: a POST arriving without a context is a
        # fresh write — the router starts the trace, and every relay attempt
        # (including retries onto other backends) becomes a child span whose
        # identity rides the outbound x-repro-trace-id/span-id headers.
        incoming = obs.extract_context(self.headers)
        with obs.span(
            "router.request",
            parent=incoming,
            new_trace=(method == "POST"),
            record_start=True,
            method=method,
            path=self.path,
        ):
            try:
                status, payload, headers = router.forward(
                    method,
                    self.path,
                    body,
                    content_type=self.headers.get("Content-Type"),
                )
            except ServiceError as exc:
                self._send_text(
                    503,
                    f"{exc}\n",
                    headers=(("Retry-After", router.retry_after_value()),),
                )
                return
            self._send(
                status,
                payload,
                headers.pop("content-type", "text/plain; charset=utf-8"),
                tuple(headers.items()),
            )


class RouterHTTPServer(HTTPServerHost):
    """The stdlib front tier: health-checked routing over service backends."""

    def __init__(
        self,
        backends: List[str],
        host: str = "127.0.0.1",
        port: int = 8076,
        health_interval_seconds: float = 0.5,
        health_timeout_seconds: float = 2.0,
        request_timeout_seconds: float = 60.0,
        min_consecutive_ok: int = 2,
        verbose: bool = False,
    ):
        if not backends:
            raise ServiceError("the router needs at least one --backend URL")
        if health_interval_seconds <= 0:
            raise ServiceError("health_interval_seconds must be positive")
        if min_consecutive_ok < 1:
            raise ServiceError("min_consecutive_ok must be positive")
        self.backends = [BackendState(url) for url in backends]
        self.health_interval_seconds = health_interval_seconds
        self.health_timeout_seconds = health_timeout_seconds
        self.request_timeout_seconds = request_timeout_seconds
        self.min_consecutive_ok = min_consecutive_ok
        self._lock = threading.Lock()
        self._rotation = 0
        self._health_stop = threading.Event()
        self._health_thread: Optional[threading.Thread] = None
        self.requests_routed = 0
        self.request_retries = 0
        self.requests_failed = 0
        self.failovers = 0
        self.poll_failures = 0
        self._last_write_backend: Optional[str] = None
        super().__init__(ThreadingHTTPServer((host, port), _RouterHandler), "repro-router")
        self._httpd.router = self  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]

    def retry_after_value(self) -> str:
        return str(max(1, math.ceil(self.health_interval_seconds)))

    # -- health checking -----------------------------------------------------------

    def check_backend(self, backend: BackendState) -> None:
        """One health probe of one backend; updates its state in place."""
        backend.last_checked_monotonic = time.monotonic()
        backend.last_poll_at = time.time()
        try:
            with urlopen(
                f"{backend.url}/healthz", timeout=self.health_timeout_seconds
            ) as response:
                payload = json.loads(response.read().decode("utf-8"))
                status_code = response.status
        except HTTPError as exc:
            # A 503 from /healthz is still an *answering* backend: degraded,
            # reachable, last-resort routable for reads.
            try:
                payload = json.loads(exc.read().decode("utf-8"))
            except (ValueError, OSError):
                payload = {}
            status_code = exc.code
        except (URLError, OSError, ValueError) as exc:
            backend.reachable = False
            backend.healthy = False
            backend.status = "unreachable"
            backend.consecutive_failures += 1
            backend.consecutive_ok = 0
            backend.last_error = str(exc)
            return
        backend.reachable = True
        ok = status_code == 200
        backend.consecutive_ok = backend.consecutive_ok + 1 if ok else 0
        backend.status = str(payload.get("status", "unknown"))
        try:
            backend.epoch = int(payload.get("epoch", backend.epoch) or 0)
        except (TypeError, ValueError):
            pass
        new_role = str(payload.get("role", "primary"))
        if new_role != backend.role and new_role == "primary":
            # A follower reported itself primary: a promotion happened.
            with self._lock:
                self.failovers += 1
        backend.role = new_role
        if ok and backend.consecutive_failures and backend.consecutive_ok < self.min_consecutive_ok:
            # Flap damping: a backend coming back from unreachable must
            # string together min_consecutive_ok healthy polls before it
            # re-enters rotation, so a flapping process does not oscillate
            # traffic.  It stays reachable (last-resort read routable).
            backend.healthy = False
            return
        backend.healthy = ok
        backend.consecutive_failures = 0
        backend.last_error = None

    def check_all(self) -> None:
        for backend in self.backends:
            self.check_backend(backend)

    def _health_loop(self) -> None:
        while not self._health_stop.is_set():
            try:
                self.check_all()
            except Exception:  # noqa: BLE001 - a bad probe must not kill the loop
                # Counted, not just swallowed: a poll loop that keeps blowing
                # up would otherwise leave the backend table silently stale.
                with self._lock:
                    self.poll_failures += 1
            self._health_stop.wait(self.health_interval_seconds)

    # -- candidate selection -------------------------------------------------------

    def _read_candidates(self) -> List[BackendState]:
        healthy_followers = [
            b for b in self.backends if b.healthy and b.role == "follower"
        ]
        healthy_primaries = [
            b for b in self.backends if b.healthy and b.role == "primary"
        ]
        degraded = [b for b in self.backends if b.reachable and not b.healthy]
        with self._lock:
            self._rotation += 1
            rotation = self._rotation
        if healthy_followers:
            # Rotate among followers so reads spread across the fleet.
            offset = rotation % len(healthy_followers)
            healthy_followers = healthy_followers[offset:] + healthy_followers[:offset]
        return healthy_followers + healthy_primaries + degraded

    def _write_candidates(self) -> List[BackendState]:
        primaries = [b for b in self.backends if b.role == "primary"]
        healthy = [b for b in primaries if b.healthy]
        degraded = [b for b in primaries if b.reachable and not b.healthy]
        # The highest fencing epoch is authoritative: after an election the
        # promoted backend outranks a zombie ex-primary that still answers
        # and still calls itself primary.  Stable sort: all-zero epochs (no
        # election ever) keep the configured order.
        healthy.sort(key=lambda b: -b.epoch)
        degraded.sort(key=lambda b: -b.epoch)
        return healthy + degraded

    # -- forwarding ----------------------------------------------------------------

    @staticmethod
    def _idempotent(method: str, path: str) -> bool:
        # GET never mutates; POST /compose is deterministic in its inputs
        # (re-running it on another backend yields the identical answer, and
        # a ?store= re-store dedupes by content fingerprint), so a dropped
        # connection is safely retried.  Other POSTs (e.g. /admin/promote)
        # are not replayed.
        return method == "GET" or path.split("?")[0].rstrip("/") == "/compose"

    def forward(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        content_type: Optional[str] = None,
    ) -> Tuple[int, bytes, Dict[str, str]]:
        """Route one request; returns ``(status, body, headers)``.

        Raises :class:`~repro.exceptions.ServiceError` when no backend can
        take it (the handler answers 503 + Retry-After).
        """
        candidates = (
            self._read_candidates() if method == "GET" else self._write_candidates()
        )
        retriable = self._idempotent(method, path)
        last_error: Optional[str] = None
        for attempt, backend in enumerate(candidates):
            # One span per relay attempt: retries share the trace id but get
            # fresh span ids, and each attempt's identity is what rides the
            # outbound headers — so the backend that finally answers parents
            # its ingress span on the exact attempt that reached it.
            with obs.span(
                "router.attempt", backend=backend.url, attempt=attempt
            ) as handle:
                try:
                    faults.fire("router.backend", url=backend.url, path=path)
                    request = Request(backend.url + path, data=body, method=method)
                    if content_type:
                        request.add_header("Content-Type", content_type)
                    if handle.context is not None:
                        for key, value in handle.context.headers().items():
                            request.add_header(key, value)
                    with urlopen(request, timeout=self.request_timeout_seconds) as response:
                        payload = response.read()
                        headers = {
                            key.lower(): value
                            for key, value in response.headers.items()
                            if key.lower() not in _HOP_HEADERS
                        }
                        status = response.status
                except HTTPError as exc:
                    # The backend answered: relay its error verbatim — it is the
                    # authoritative response (a 400 is the client's problem, a
                    # 429/503 carries the backend's own Retry-After).
                    payload = exc.read()
                    headers = {
                        key.lower(): value
                        for key, value in exc.headers.items()
                        if key.lower() not in _HOP_HEADERS
                    }
                    status = exc.code
                except (URLError, OSError) as exc:
                    # The backend is gone mid-request.  Mark it down immediately
                    # (no waiting for the next health tick) and move on.
                    backend.reachable = False
                    backend.healthy = False
                    backend.status = "unreachable"
                    backend.consecutive_failures += 1
                    backend.last_error = last_error = str(exc)
                    handle.set("unreachable", True)
                    if retriable:
                        with self._lock:
                            self.request_retries += 1
                        continue
                    break
            with self._lock:
                self.requests_routed += 1
                if method == "POST":
                    self._last_write_backend = backend.url
            headers["x-repro-backend"] = backend.url
            if attempt:
                headers["x-repro-retries"] = str(attempt)
            return status, payload, headers
        with self._lock:
            self.requests_failed += 1
        detail = f" (last error: {last_error})" if last_error else ""
        raise ServiceError(
            f"no backend can take {method} {path.split('?')[0]} right now{detail}"
        )

    # -- introspection -------------------------------------------------------------

    def status(self) -> dict:
        with self._lock:
            counters = {
                "requests_routed": self.requests_routed,
                "request_retries": self.request_retries,
                "requests_failed": self.requests_failed,
                "failovers_observed": self.failovers,
                "poll_failures": self.poll_failures,
                "last_write_backend": self._last_write_backend,
            }
        return {
            "backends": [backend.snapshot() for backend in self.backends],
            "health_interval_seconds": self.health_interval_seconds,
            **counters,
        }

    # -- lifecycle -----------------------------------------------------------------

    def _on_start(self) -> None:
        """Health-check synchronously (routable the moment serving starts),
        then keep checking in a background thread."""
        self.check_all()
        if self._health_thread is None or not self._health_thread.is_alive():
            self._health_stop.clear()
            self._health_thread = threading.Thread(
                target=self._health_loop, name="repro-router-health", daemon=True
            )
            self._health_thread.start()

    def _on_close(self) -> None:
        self._health_stop.set()
        if self._health_thread is not None:
            self._health_thread.join()
            self._health_thread = None
