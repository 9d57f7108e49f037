"""Request-body reading shared by the service and router HTTP handlers.

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

from http.server import BaseHTTPRequestHandler
from typing import Optional

__all__ = ["MAX_BODY_BYTES", "READ_TIMEOUT_SECONDS", "read_body"]

#: Largest request body either handler accepts.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Per-operation socket timeout of a client connection.
READ_TIMEOUT_SECONDS = 10.0


def read_body(handler: BaseHTTPRequestHandler, required: bool = True) -> Optional[bytes]:
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


def _refuse(handler: BaseHTTPRequestHandler, status: int, message: str) -> None:
    handler.close_connection = True
    try:
        handler._send_text(status, message)
    except OSError:
        pass  # the client is already gone; closing is all that is left
    return None
