"""Observability: request-scoped tracing, sinks, and cross-process merging.

``repro.obs.trace`` records spans into a bounded ring plus an optional
JSONL sink; ``repro.obs.merge`` reassembles the sinks of router, primary,
and followers into one tree per trace id; ``repro.obs.jsonl`` is the
fail-silent JSONL appender behind every log file (traces, HTTP access,
fault audit).  The package imports nothing else from ``repro``, so any
layer may use it.
"""

from repro.obs.jsonl import JsonlAppender

from repro.obs.trace import (
    LOG_ENV_VAR,
    SERVICE_ENV_VAR,
    SPAN_ID_HEADER,
    TRACE_ID_HEADER,
    SpanContext,
    TraceRecorder,
    ambient,
    configure,
    current,
    extract_context,
    new_span_id,
    new_trace_id,
    record_span,
    recorder,
    span,
)
from repro.obs.merge import (
    build_tree,
    format_trace,
    load_spans,
    merge_spans,
    verify,
)

__all__ = [
    "JsonlAppender",
    "LOG_ENV_VAR",
    "SERVICE_ENV_VAR",
    "SPAN_ID_HEADER",
    "TRACE_ID_HEADER",
    "SpanContext",
    "TraceRecorder",
    "ambient",
    "build_tree",
    "configure",
    "current",
    "extract_context",
    "format_trace",
    "load_spans",
    "merge_spans",
    "new_span_id",
    "new_trace_id",
    "record_span",
    "recorder",
    "span",
    "verify",
]
