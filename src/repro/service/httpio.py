"""The HTTP plumbing shared by the service and router handlers.

:class:`RequestHandler` is the base of both: persistent HTTP/1.1
connections, the per-socket-operation timeout, access logging gated on the
server's ``verbose`` flag, and the response writers, which echo the
request's trace identity on every answer.

Connections are kept alive: a client sends request after request over one
socket (``TCP_NODELAY`` set, each answer's status line, headers and body
written in one ``sendall``).  An answer that leaves a declared request body
unread — a ``404`` to a ``POST`` with a body, a refused body — carries
``Connection: close`` and ends the connection, because the unread bytes
would otherwise be parsed as the next request.

Both handlers accept ``POST`` bodies of a declared ``Content-Length`` and
must bound what a client can make them do:

* a body larger than :data:`MAX_BODY_BYTES` is refused with ``413`` before
  a byte of it is read;
* a missing, malformed, negative or (where a body is required) zero length
  is refused with ``400``;
* every socket operation on a client connection times out after
  :data:`READ_TIMEOUT_SECONDS` (the handlers' ``timeout``), so a client that
  declares a length and then stalls cannot pin a handler thread: the read
  is abandoned, the client gets ``408`` if it still listens, and the
  connection is closed.  The same timeout drops a kept-alive connection
  that sits idle between requests.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro import obs

__all__ = [
    "MAX_BODY_BYTES", "READ_TIMEOUT_SECONDS", "HTTPServerHost", "RequestHandler", "read_body",
]

#: Largest request body either handler accepts.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Per-operation socket timeout of a client connection.
READ_TIMEOUT_SECONDS = 10.0


_TRACE_HEADERS = frozenset((obs.TRACE_ID_HEADER, obs.SPAN_ID_HEADER))


class RequestHandler(BaseHTTPRequestHandler):
    """Base handler of the service and the router.

    ``self.server`` carries a ``verbose`` attribute, pinned on by the server
    that owns the handler class.
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = READ_TIMEOUT_SECONDS

    def parse_request(self) -> bool:
        self.body_read = False
        return super().parse_request()

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)

    def _send(self, status: int, body: bytes, content_type: str, headers: Tuple[Tuple[str, str], ...] = ()) -> None:
        context = obs.current()
        if context is not None:
            # Echo this request's trace identity so clients (and the router's
            # relay loop) can correlate the response with the span tree.  It
            # replaces any echo relayed from a backend: the client correlates
            # with the outermost ingress span, the root of the merged tree.
            headers = tuple(
                (key, value) for key, value in headers if key.lower() not in _TRACE_HEADERS
            ) + ((obs.TRACE_ID_HEADER, context.trace_id), (obs.SPAN_ID_HEADER, context.span_id))
        if not self.body_read and (
            self.headers.get("Content-Length", "0").strip() != "0"
            or "Transfer-Encoding" in self.headers
        ):
            self.close_connection = True
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in headers:
            self.send_header(key, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        # end_headers() plus the body, flushed as one write.
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def _send_text(self, status: int, text: str, headers: Tuple[Tuple[str, str], ...] = ()) -> None:
        self._send(status, text.encode("utf-8"), "text/plain; charset=utf-8", headers)

    def _send_json(self, status: int, payload: object, headers: Tuple[Tuple[str, str], ...] = ()) -> None:
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        self._send(status, body.encode("utf-8"), "application/json", headers)


class HTTPServerHost:
    """Owns one :class:`ThreadingHTTPServer`, the base of both servers.

    Serve it in a background thread (:meth:`start` / :meth:`stop`, or as a
    context manager) or on the calling thread (:meth:`serve_forever`, the
    CLI).  Subclasses hook :meth:`_on_start` (before serving either way) and
    :meth:`_on_close` (once the listening socket is released).
    """

    def __init__(self, httpd: ThreadingHTTPServer, thread_name: str):
        self._httpd = httpd
        self._httpd.daemon_threads = True
        self._thread_name = thread_name
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — useful with ``port=0`` (ephemeral)."""
        return self._httpd.server_address[:2]

    def _on_start(self) -> None:
        pass

    def _on_close(self) -> None:
        pass

    def start(self):
        """Serve in a background thread (idempotent); returns ``self``."""
        self._on_start()
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, name=self._thread_name, daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.close()

    def close(self) -> None:
        """Release the listening socket (idempotent; safe after any exit path).

        Without this the port stays held until process exit — an interrupted
        foreground :meth:`serve_forever` (Ctrl-C) must close the socket before
        the CLI goes on to drain the service.
        """
        if not self._closed:
            self._closed = True
            self._httpd.server_close()
            self._on_close()

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (the CLI's ``serve``/``route``)."""
        self._on_start()
        try:
            self._httpd.serve_forever()
        finally:
            self.close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def read_body(handler: RequestHandler, required: bool = True) -> Optional[bytes]:
    """Read the request body of ``handler``'s current request.

    Returns the body, or ``None`` after answering the client with the error
    itself.  ``required=False`` accepts a zero length (an empty body).
    Every error path closes the connection, since the body stays unread.
    """
    try:
        length = int(handler.headers.get("Content-Length", "0"))
    except ValueError:
        return _refuse(handler, 400, "malformed Content-Length header\n")
    if length > MAX_BODY_BYTES:
        return _refuse(
            handler,
            413,
            f"request body too large: {length} bytes (the limit is {MAX_BODY_BYTES})\n",
        )
    if length < 0:
        return _refuse(handler, 400, "negative Content-Length header\n")
    if length == 0:
        if required:
            return _refuse(handler, 400, "request body required (a record text)\n")
        return b""
    try:
        body = handler.rfile.read(length)
    except TimeoutError:
        return _refuse(
            handler, 408, f"request body not received within {handler.timeout} s\n"
        )
    if len(body) < length:
        return _refuse(handler, 400, "request body shorter than its Content-Length\n")
    handler.body_read = True
    return body


def _refuse(handler: RequestHandler, status: int, message: str) -> None:
    handler.close_connection = True
    try:
        handler._send_text(status, message)
    except OSError:
        pass  # the client is already gone; closing is all that is left
    return None
