"""A fail-silent, append-only JSONL file.

The one sink behind the trace log (``REPRO_TRACE_LOG``), the HTTP access
log (``repro serve --access-log``) and the fault audit log
(``REPRO_FAULTS_LOG``): one JSON object per line, flushed per line, and any
``OSError`` silences the sink for the rest of the process — a log is an
audit convenience and must never become a fault of its own.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict


class JsonlAppender:
    """Append JSON records to ``path``, one per line (thread-safe).

    The file is opened lazily on the first record, so an unused sink never
    touches the disk.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._handle = None
        self._failed = False

    def append(self, record: Dict[str, Any]) -> None:
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

    def sync(self) -> None:
        """Flush and fsync what has been appended (before a deliberate crash)."""
        with self._lock:
            if self._handle is None:
                return
            try:
                self._handle.flush()
                os.fsync(self._handle.fileno())
            except OSError:
                pass

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None
