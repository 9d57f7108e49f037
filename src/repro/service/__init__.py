"""The composition service: a concurrent serving front-end over the engine.

* :mod:`repro.service.server` — :class:`CompositionService`: a request queue
  with admission control, in-flight deduplication (identical fingerprints
  coalesce to one computation), caller-runs execution — one composition
  at a time, on the calling thread, through
  :class:`~repro.engine.batch.BatchComposer` — per-request
  :class:`~repro.compose.config.ComposerConfig` overrides, and durable hop
  checkpoints when backed by a :class:`~repro.catalog.MappingCatalog`;
* :mod:`repro.service.metrics` — the metrics the service aggregates
  (hit rates, per-phase timings, queue/batch statistics, degradation
  counters, labeled latency histograms with a Prometheus text exposition);
  request-scoped tracing lives in :mod:`repro.obs` and is threaded through
  every layer here — HTTP ingress spans, queue/execution spans, journal and
  shard-lock spans, follower applies joining the originating write's trace;
* :mod:`repro.service.breaker` — :class:`CircuitBreaker`, the storage
  circuit breaker behind graceful degradation: a sick disk flips the service
  to memory-only serving instead of wedging it, and a background probe
  closes the breaker when storage recovers;
* :mod:`repro.service.http` — a stdlib HTTP front-end exposing ``/compose``,
  ``/catalog``, ``/metrics``, ``/journal/<shard>`` and a truthful
  ``/healthz`` (the CLI's ``repro serve``);
* :mod:`repro.service.replica` — :class:`ReplicationFollower`, the follower
  mode behind ``repro serve --follow``: tail a primary's catalog journal
  (local root or HTTP), mirror it with post-apply fingerprint verification,
  report replication lag, promote on demand;
* :mod:`repro.service.router` — :class:`RouterHTTPServer`, the
  health-routing front tier behind ``repro route``: reads to healthy
  followers, writes to the highest-epoch primary, retries of idempotent
  requests on dead backends, automatic failover to a promoted replica;
* :mod:`repro.service.election` — :class:`LeaderElector`, unattended
  failover behind ``repro serve --election``: candidates watch primary
  health, race for the ``leader`` lease when it goes silent, and the winner
  self-promotes with a fresh fencing epoch (no ``/admin/promote`` needed).
"""

from repro.service.breaker import CircuitBreaker
from repro.service.election import LeaderElector
from repro.service.http import ServiceHTTPServer
from repro.service.metrics import ServiceMetrics
from repro.service.replica import (
    HTTPJournalSource,
    LocalJournalSource,
    ReplicationFollower,
    open_source,
)
from repro.service.router import RouterHTTPServer
from repro.service.server import CompositionService, ServiceConfig, Ticket

__all__ = [
    "CircuitBreaker",
    "CompositionService",
    "HTTPJournalSource",
    "LeaderElector",
    "LocalJournalSource",
    "ReplicationFollower",
    "RouterHTTPServer",
    "ServiceConfig",
    "ServiceHTTPServer",
    "ServiceMetrics",
    "Ticket",
    "open_source",
]
