"""Thread-safe metrics for the composition service.

One :class:`ServiceMetrics` instance rides on each
:class:`~repro.service.server.CompositionService`; every execution feeds it
and :meth:`ServiceMetrics.snapshot` renders everything as one plain dict —
the payload of the HTTP ``/metrics`` endpoint and the CLI's ``metrics``
output.  Collected:

* request counters — submitted, completed, failed, timed out, coalesced into
  an in-flight duplicate, rejected by admission control, blocked waiting for
  queue space, expired past their admission deadline;
* batching — number of executions (``batches``) and items they ran (one
  each: requests execute one at a time);
* latency — cumulative queue-wait and execution seconds (with means);
* composition phases — the per-phase wall-clock buckets of every served
  result (:mod:`repro.compose.phases`), summed; and
* engine stores — expression-cache hits/misses accumulated over batch
  reports, plus a live view of the (possibly persistent) checkpoint store;
* garbage collection — background-sweep counts and what they removed; and
* degradation — batch-execution failures *by exception type* (a blanket
  ``except`` that only bumped one opaque counter hid which failure mode was
  firing), catalog writes dropped by the open circuit breaker or failed
  against the disk, storage health probes, and lease-claim failures; and
* replication — replica acks satisfied vs timed out (``ack_level="replica"``
  writes) and local writes rejected with a stale fencing epoch (a fenced
  zombie ex-primary trying to write past a newer leader).
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, List, Optional, Tuple

__all__ = ["LatencyHistogram", "ServiceMetrics", "DEFAULT_BUCKETS"]

# Prometheus-style cumulative latency buckets (seconds).  Spanning 1ms to
# 30s covers everything from an expression-cache hit to an election under
# a fault schedule; +Inf is implicit in the rendering.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)


class LatencyHistogram:
    """A fixed-bucket cumulative histogram (Prometheus semantics).

    ``counts[i]`` tallies observations ``<= bounds[i]``; observations
    past the last bound only land in the implicit +Inf bucket (``count``
    minus the last cumulative count).  Not internally locked — callers
    observe under the owning :class:`ServiceMetrics` lock.
    """

    __slots__ = ("bounds", "_bucket_counts", "count", "total")

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds = bounds
        self._bucket_counts = [0] * len(bounds)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        value = max(0.0, value)
        self.count += 1
        self.total += value
        index = bisect.bisect_left(self.bounds, value)
        if index < len(self._bucket_counts):
            self._bucket_counts[index] += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` per bucket, +Inf excluded."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self._bucket_counts):
            running += count
            out.append((bound, running))
        return out

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": (self.total / self.count) if self.count else 0.0,
            "buckets": {f"{bound:g}": c for bound, c in self.cumulative()},
        }


class ServiceMetrics:
    """Aggregated counters of one service instance (all methods thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.timed_out = 0
        self.deduplicated = 0
        self.rejected = 0
        self.blocked = 0
        self.deadline_expired = 0
        self.gc_sweeps = 0
        self.gc_checkpoints_removed = 0
        self.gc_results_removed = 0
        self.gc_chains_removed = 0
        self.gc_sweep_failures = 0
        self._gc_sweep_failure_types: Dict[str, int] = {}
        self.batches = 0
        self.batched_items = 0
        self.queue_seconds = 0.0
        self.execution_seconds = 0.0
        self._phase_seconds: Dict[str, float] = {}
        self._cache_hits = 0.0
        self._cache_misses = 0.0
        self.batch_failures = 0
        self.batch_failed_items = 0
        self._batch_failure_types: Dict[str, int] = {}
        self.catalog_writes = 0
        self.catalog_writes_dropped = 0
        self.catalog_write_failures = 0
        self._catalog_write_failure_types: Dict[str, int] = {}
        self.probes = 0
        self.probe_failures = 0
        self.lease_claim_failures = 0
        self.replica_acks_satisfied = 0
        self.replica_acks_timed_out = 0
        self.stale_epoch_rejected = 0
        self.slow_requests = 0
        # Labeled latency histograms; keys double as the Prometheus metric
        # stems (``repro_<key>`` with _bucket/_sum/_count samples).
        self.histograms: Dict[str, LatencyHistogram] = {
            "queue_seconds": LatencyHistogram(),
            "execution_seconds": LatencyHistogram(),
            "journal_fsync_seconds": LatencyHistogram(),
            "shard_lock_seconds": LatencyHistogram(),
            "replication_lag_seconds": LatencyHistogram(),
            "election_seconds": LatencyHistogram(),
        }

    # -- recording -----------------------------------------------------------------

    def record_submitted(self, coalesced: bool = False) -> None:
        with self._lock:
            self.submitted += 1
            if coalesced:
                self.deduplicated += 1

    def record_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def record_blocked(self) -> None:
        """One request entered the blocking-admission wait (counted once)."""
        with self._lock:
            self.blocked += 1

    def record_deadline_expired(self) -> None:
        with self._lock:
            self.deadline_expired += 1

    def record_gc(self, report: dict) -> None:
        """Accumulate one :meth:`MappingCatalog.gc` report (sweep or manual)."""
        with self._lock:
            self.gc_sweeps += 1
            self.gc_checkpoints_removed += report.get("checkpoints", {}).get("removed", 0)
            self.gc_results_removed += report.get("results", {}).get("removed", 0)
            self.gc_chains_removed += report.get("chains", {}).get("removed", 0)

    def record_gc_sweep_failure(self, error_type: str) -> None:
        """One background GC sweep raised (the loop survives; this counts it)."""
        with self._lock:
            self.gc_sweep_failures += 1
            self._gc_sweep_failure_types[error_type] = (
                self._gc_sweep_failure_types.get(error_type, 0) + 1
            )

    def record_batch(self, size: int, cache_stats: Optional[dict]) -> None:
        with self._lock:
            self.batches += 1
            self.batched_items += size
            if cache_stats:
                self._cache_hits += cache_stats.get("hits", 0)
                self._cache_misses += cache_stats.get("misses", 0)

    def record_batch_failure(self, error_type: str, items: int) -> None:
        """One execution died, failing ``items`` work items.

        ``error_type`` is the exception class name — the point of this
        counter is that "batch execution failed" stops being one opaque
        number and becomes a per-failure-mode tally.
        """
        with self._lock:
            self.batch_failures += 1
            self.batch_failed_items += items
            self._batch_failure_types[error_type] = (
                self._batch_failure_types.get(error_type, 0) + 1
            )

    def record_catalog_write(self) -> None:
        with self._lock:
            self.catalog_writes += 1

    def record_catalog_write_dropped(self) -> None:
        """A catalog write was skipped because the circuit breaker is open."""
        with self._lock:
            self.catalog_writes_dropped += 1

    def record_catalog_write_failure(self, error_type: str) -> None:
        with self._lock:
            self.catalog_write_failures += 1
            self._catalog_write_failure_types[error_type] = (
                self._catalog_write_failure_types.get(error_type, 0) + 1
            )

    def record_probe(self, ok: bool) -> None:
        """One storage health probe (breaker recovery) completed."""
        with self._lock:
            self.probes += 1
            if not ok:
                self.probe_failures += 1

    def record_lease_claim_failure(self) -> None:
        """A cross-process lease claim failed; work proceeded unclaimed."""
        with self._lock:
            self.lease_claim_failures += 1

    def record_replica_ack(self, satisfied: bool) -> None:
        """One ``ack_level="replica"`` wait resolved (confirmed or timed out)."""
        with self._lock:
            if satisfied:
                self.replica_acks_satisfied += 1
            else:
                self.replica_acks_timed_out += 1

    def record_stale_epoch_rejected(self) -> None:
        """A local write was refused because this writer's epoch is stale."""
        with self._lock:
            self.stale_epoch_rejected += 1

    def record_slow_request(self) -> None:
        """One request crossed ``slow_trace_seconds`` and had its trace dumped."""
        with self._lock:
            self.slow_requests += 1

    def observe(self, histogram: str, value: float) -> None:
        """Feed one observation into a labeled histogram (unknown names ignored).

        Unknown names are dropped rather than raised: observations arrive
        from span listeners bridging other layers, and a misnamed span
        must not fail the request that recorded them.
        """
        with self._lock:
            hist = self.histograms.get(histogram)
            if hist is not None:
                hist.observe(value)

    def record_completed(
        self,
        status: str,
        queue_seconds: float,
        execution_seconds: float,
        phase_seconds=(),
    ) -> None:
        """Record one finished request (``status`` is a ``ProblemStatus`` value)."""
        with self._lock:
            if status == "succeeded":
                self.completed += 1
            elif status == "timed_out":
                self.timed_out += 1
            else:
                self.failed += 1
            self.queue_seconds += queue_seconds
            self.execution_seconds += execution_seconds
            self.histograms["queue_seconds"].observe(queue_seconds)
            self.histograms["execution_seconds"].observe(execution_seconds)
            for phase, seconds in phase_seconds:
                self._phase_seconds[phase] = self._phase_seconds.get(phase, 0.0) + seconds

    # -- reading -------------------------------------------------------------------

    def snapshot(
        self,
        pending: int = 0,
        in_flight: int = 0,
        checkpoint_stats: Optional[dict] = None,
        breaker: Optional[dict] = None,
        leases: Optional[dict] = None,
    ) -> dict:
        """Everything as one JSON-serializable dict."""
        with self._lock:
            finished = self.completed + self.failed + self.timed_out
            cache_total = self._cache_hits + self._cache_misses
            return {
                "requests": {
                    "submitted": self.submitted,
                    "completed": self.completed,
                    "failed": self.failed,
                    "timed_out": self.timed_out,
                    "deduplicated": self.deduplicated,
                    "rejected": self.rejected,
                    "blocked": self.blocked,
                    "deadline_expired": self.deadline_expired,
                    "pending": pending,
                    "in_flight": in_flight,
                },
                "batching": {
                    "batches": self.batches,
                    "batched_items": self.batched_items,
                    "mean_batch_size": (
                        self.batched_items / self.batches if self.batches else 0.0
                    ),
                },
                "latency": {
                    "queue_seconds_total": self.queue_seconds,
                    "execution_seconds_total": self.execution_seconds,
                    "mean_queue_seconds": (
                        self.queue_seconds / finished if finished else 0.0
                    ),
                    "mean_execution_seconds": (
                        self.execution_seconds / finished if finished else 0.0
                    ),
                },
                "phases": dict(sorted(self._phase_seconds.items())),
                "expression_cache": {
                    "hits": self._cache_hits,
                    "misses": self._cache_misses,
                    "hit_rate": (self._cache_hits / cache_total if cache_total else 0.0),
                },
                "checkpoints": dict(checkpoint_stats) if checkpoint_stats else {},
                "gc": {
                    "sweeps": self.gc_sweeps,
                    "checkpoints_removed": self.gc_checkpoints_removed,
                    "results_removed": self.gc_results_removed,
                    "chains_removed": self.gc_chains_removed,
                    "gc_sweep_failures": self.gc_sweep_failures,
                    "gc_sweep_failure_types": dict(
                        sorted(self._gc_sweep_failure_types.items())
                    ),
                },
                "degradation": {
                    "batch_failures": self.batch_failures,
                    "batch_failed_items": self.batch_failed_items,
                    "batch_failure_types": dict(sorted(self._batch_failure_types.items())),
                    "catalog_writes": self.catalog_writes,
                    "catalog_writes_dropped": self.catalog_writes_dropped,
                    "catalog_write_failures": self.catalog_write_failures,
                    "catalog_write_failure_types": dict(
                        sorted(self._catalog_write_failure_types.items())
                    ),
                    "probes": self.probes,
                    "probe_failures": self.probe_failures,
                    "lease_claim_failures": self.lease_claim_failures,
                },
                "replication": {
                    "replica_acks_satisfied": self.replica_acks_satisfied,
                    "replica_acks_timed_out": self.replica_acks_timed_out,
                    "stale_epoch_rejected": self.stale_epoch_rejected,
                },
                "breaker": dict(breaker) if breaker else {},
                "leases": dict(leases) if leases else {},
                "tracing": {
                    "slow_requests": self.slow_requests,
                },
                "histograms": {
                    name: hist.snapshot()
                    for name, hist in sorted(self.histograms.items())
                },
            }

    def render_prometheus(
        self,
        pending: int = 0,
        in_flight: int = 0,
        checkpoint_stats: Optional[dict] = None,
        breaker: Optional[dict] = None,
        leases: Optional[dict] = None,
    ) -> str:
        """The Prometheus text exposition format (``/metrics?format=prometheus``).

        Flat counters become ``repro_<section>_<name>``; dict-valued
        tallies become one labeled sample per key; each histogram renders
        the conventional ``_bucket``/``_sum``/``_count`` triple with an
        explicit ``+Inf`` bucket.
        """
        snap = self.snapshot(
            pending=pending,
            in_flight=in_flight,
            checkpoint_stats=checkpoint_stats,
            breaker=breaker,
            leases=leases,
        )
        with self._lock:
            histograms = {
                name: (hist.cumulative(), hist.count, hist.total)
                for name, hist in sorted(self.histograms.items())
            }
        lines: List[str] = []

        def escape(value: str) -> str:
            return value.replace("\\", "\\\\").replace('"', '\\"')

        def emit(section: str, name: str, value) -> None:
            metric = f"repro_{section}_{name}"
            if isinstance(value, bool):
                lines.append(f"# TYPE {metric} gauge")
                lines.append(f"{metric} {int(value)}")
            elif isinstance(value, (int, float)):
                lines.append(f"# TYPE {metric} gauge")
                lines.append(f"{metric} {value}")
            elif isinstance(value, dict):
                if not value:
                    return
                samples = [
                    (k, v) for k, v in sorted(value.items())
                    if isinstance(v, (int, float)) and not isinstance(v, bool)
                ]
                if not samples:
                    return
                lines.append(f"# TYPE {metric} gauge")
                for key, v in samples:
                    lines.append(f'{metric}{{key="{escape(str(key))}"}} {v}')

        for section, content in snap.items():
            if section == "histograms":
                continue
            if isinstance(content, dict):
                for name, value in content.items():
                    emit(section, name, value)
            else:
                emit("service", section, content)

        for name, (cumulative, count, total) in histograms.items():
            metric = f"repro_{name}"
            lines.append(f"# TYPE {metric} histogram")
            for bound, bucket_count in cumulative:
                lines.append(f'{metric}_bucket{{le="{bound:g}"}} {bucket_count}')
            lines.append(f'{metric}_bucket{{le="+Inf"}} {count}')
            lines.append(f"{metric}_sum {total}")
            lines.append(f"{metric}_count {count}")

        return "\n".join(lines) + "\n"
