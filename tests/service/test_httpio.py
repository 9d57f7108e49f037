"""Unit tests for the request-body reader shared by both HTTP handlers.

``read_body`` only needs a handler's ``headers``, ``rfile``, ``timeout``,
``close_connection`` and ``_send_text``; a small stand-in provides them so
every refusal path is checked without a socket.
"""

import io

import pytest

from repro.service.httpio import MAX_BODY_BYTES, READ_TIMEOUT_SECONDS, read_body


class _Reader:
    """An ``rfile`` that records how much was asked of it."""

    def __init__(self, data=b"", error=None):
        self._data = io.BytesIO(data)
        self._error = error
        self.requested = []

    def read(self, size):
        self.requested.append(size)
        if self._error is not None:
            raise self._error
        return self._data.read(size)


class _Handler:
    timeout = READ_TIMEOUT_SECONDS

    def __init__(self, length=None, data=b"", error=None, send_error=None):
        self.headers = {} if length is None else {"Content-Length": str(length)}
        self.rfile = _Reader(data, error)
        self.close_connection = False
        self.sent = []
        self._send_error = send_error

    def _send_text(self, status, text):
        if self._send_error is not None:
            raise self._send_error
        self.sent.append((status, text))


def test_reads_exactly_the_declared_length():
    handler = _Handler(length=5, data=b"hello, and more")
    assert read_body(handler) == b"hello"
    assert handler.rfile.requested == [5]
    assert handler.sent == []
    assert handler.close_connection is False


def test_oversize_body_is_413_before_any_read():
    handler = _Handler(length=MAX_BODY_BYTES + 1, data=b"x")
    assert read_body(handler) is None
    ((status, text),) = handler.sent
    assert status == 413
    assert "too large" in text and str(MAX_BODY_BYTES) in text
    assert handler.rfile.requested == []
    assert handler.close_connection is True


@pytest.mark.parametrize(
    "length, message",
    [("abc", "malformed"), ("-1", "negative"), ("0", "required"), (None, "required")],
)
def test_bad_lengths_are_400_without_a_read(length, message):
    handler = _Handler(length=length)
    assert read_body(handler) is None
    ((status, text),) = handler.sent
    assert status == 400
    assert message in text
    assert handler.rfile.requested == []
    assert handler.close_connection is True


def test_zero_length_is_an_empty_body_when_not_required():
    handler = _Handler(length=0)
    assert read_body(handler, required=False) == b""
    assert handler.sent == []
    assert handler.close_connection is False


def test_body_shorter_than_its_length_is_400():
    handler = _Handler(length=10, data=b"short")
    assert read_body(handler) is None
    assert [status for status, _ in handler.sent] == [400]
    assert handler.close_connection is True


def test_stalled_read_is_408_and_closes():
    handler = _Handler(length=10, error=TimeoutError("timed out"))
    assert read_body(handler) is None
    ((status, text),) = handler.sent
    assert status == 408
    assert str(READ_TIMEOUT_SECONDS) in text
    assert handler.close_connection is True


def test_refusal_tolerates_a_client_that_is_gone():
    handler = _Handler(
        length=10, error=TimeoutError("timed out"), send_error=BrokenPipeError()
    )
    assert read_body(handler) is None
    assert handler.close_connection is True
