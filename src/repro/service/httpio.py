"""The HTTP plumbing shared by the service and router handlers.

:class:`RequestHandler` is the base of both: the per-socket-operation
timeout, access logging gated on the server's ``verbose`` flag, and the
response writers, which echo the request's trace identity on every answer.

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
  connection is closed.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler
from typing import Optional, Tuple

from repro import obs

__all__ = ["MAX_BODY_BYTES", "READ_TIMEOUT_SECONDS", "RequestHandler", "read_body"]

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

    timeout = READ_TIMEOUT_SECONDS

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
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in headers:
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str, headers: Tuple[Tuple[str, str], ...] = ()) -> None:
        self._send(status, text.encode("utf-8"), "text/plain; charset=utf-8", headers)

    def _send_json(self, status: int, payload: object, headers: Tuple[Tuple[str, str], ...] = ()) -> None:
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        self._send(status, body.encode("utf-8"), "application/json", headers)


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
    return body


def _refuse(handler: RequestHandler, status: int, message: str) -> None:
    handler.close_connection = True
    try:
        handler._send_text(status, message)
    except OSError:
        pass  # the client is already gone; closing is all that is left
    return None
