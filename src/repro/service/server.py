"""The composition service: a concurrent serving front-end over the engine.

The ROADMAP's north star is a *system*, not a library: many clients submit
composition work concurrently, and the engine's accelerators — the shared
expression cache, hop checkpoints, the cost-guided planner — should work for
all of them at once.  :class:`CompositionService` is that front-end:

* **request queue with admission control** — submissions return a
  :class:`Ticket` immediately; when the queue is at ``max_pending`` work
  items, new requests are rejected with
  :class:`~repro.exceptions.ServiceOverloadedError`
  (``admission="reject"``, the default) or *block until space frees*
  (``admission="block"``), optionally bounded by a per-request deadline
  after which :class:`~repro.exceptions.ServiceDeadlineError` is raised —
  bursty clients wait instead of erroring, with bounded patience;
* **deduplication** — every request is keyed by the content fingerprint of
  its inputs plus its effective :class:`ComposerConfig`; a request whose key
  matches one that is queued *or currently executing* coalesces onto that
  computation and receives the same payload (sound because composition is
  deterministic in exactly those inputs);
* **caller-runs execution** — a blocking ``compose`` / ``compose_chain``
  composes on the calling thread (an HTTP connection thread, say) through
  :class:`~repro.engine.batch.BatchComposer`, under one service-wide lock
  that keeps one composition running at a time; async ``submit_*`` requests
  queue for a drain thread that executes them the same way;
* **per-request configuration** — a submission may carry its own
  ``ComposerConfig``; configs are part of the dedup key and the grouping, so
  requests only share work when their results would be identical;
* **durability** — given a :class:`~repro.catalog.MappingCatalog`, chain
  requests record hop checkpoints in the catalog's *persistent* store
  (written through on every hop), so a restarted service answers warm;
* **tunable write acknowledgements** — ``ServiceConfig(ack_level)`` picks
  what a write ack promises: ``"journal"`` (fsynced into the local WAL) or
  ``"replica"`` (additionally confirmed applied by at least one follower,
  learned from the applied-seq followers piggyback on their journal polls,
  with a bounded wait degrading to an explicit pending ack);
* **bounded disk growth** — with a catalog attached and
  ``gc_interval_seconds`` set, a background sweep runs
  :meth:`~repro.catalog.MappingCatalog.gc` periodically (checkpoint age/LRU
  eviction, old result versions), so a long-lived service does not grow its
  catalog without bound; and
* **metrics** — :meth:`CompositionService.metrics` surfaces queue depths,
  dedup/rejection counters, batch sizes, cache/checkpoint hit rates and the
  summed per-phase timings of everything served
  (:mod:`repro.service.metrics`).

Results are byte-identical to calling :func:`repro.compose.compose` /
:func:`repro.engine.compose_chain` directly — the service only adds
scheduling, never semantics (``tests/service/test_service.py`` asserts this
under concurrent overlapping load).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.algebra.digest import DIGEST_SIZE
from repro.catalog.catalog import MappingCatalog
from repro.catalog.checkpoints import PersistentCheckpointStore
from repro.catalog.leases import Lease, LeaseTable
from repro.catalog.storage import atomic_write_bytes, atomic_write_text
from repro.compose.config import ComposerConfig
from repro.engine.batch import BatchComposer, BatchConfig, BatchItemResult, ProblemStatus
from repro.engine.checkpoint import CheckpointStore
from repro.engine.fingerprint import chain_fingerprint
from repro.exceptions import (
    CatalogError,
    EngineError,
    LeaseUnavailableError,
    ServiceDeadlineError,
    ServiceError,
    ServiceOverloadedError,
    StaleEpochError,
)
from repro import obs
from repro.compose import phases
from repro.mapping.composition_problem import CompositionProblem
from repro.mapping.mapping import Mapping
from repro.service.breaker import CircuitBreaker
from repro.service.metrics import ServiceMetrics

# Span names whose durations the service mirrors into its labeled latency
# histograms.  The catalog and election layers record the spans without
# knowing about ServiceMetrics; the recorder listener registered in
# ``CompositionService.start()`` is the only coupling point.
_SPAN_HISTOGRAMS = {
    "journal.append": "journal_fsync_seconds",
    "catalog.shard_lock": "shard_lock_seconds",
    "election.transition": "election_seconds",
}

__all__ = ["ServiceConfig", "Ticket", "CompositionService"]



@dataclass(frozen=True)
class ServiceConfig:
    """Tunable parameters of a :class:`CompositionService`.

    Attributes
    ----------
    max_pending:
        Admission bound: maximum number of *distinct* work items admitted
        but not yet executing — queued async submissions plus blocking
        callers waiting for the execution lock.  Coalesced duplicates ride
        along for free.
    admission:
        What happens to a submission past the bound: ``"reject"`` (the
        default) raises :class:`ServiceOverloadedError` immediately;
        ``"block"`` waits for the queue to drain below ``max_pending``.
    deadline_seconds:
        With ``admission="block"``, how long a submission may wait for queue
        space before :class:`~repro.exceptions.ServiceDeadlineError` is
        raised; ``None`` waits indefinitely.  Each ``submit_*`` call may
        override it per request.
    timeout_seconds:
        Soft per-request budget, forwarded to the underlying
        :class:`~repro.engine.batch.BatchConfig`.
    composer_config:
        The default :class:`ComposerConfig` for requests that do not carry
        their own override.
    share_expression_cache / cache_max_entries:
        Expression-cache settings of each execution, as in
        :class:`~repro.engine.batch.BatchConfig`.
    gc_interval_seconds:
        With a catalog attached, run :meth:`~repro.catalog.MappingCatalog.gc`
        in a background sweep every this many seconds (``None``, the default,
        disables the sweep).  The remaining ``gc_*`` fields are the sweep's
        policy and mirror the ``gc`` parameters.
    gc_grace_seconds:
        Age floor for every sweep: checkpoints used and result versions
        written within the last ``gc_grace_seconds`` are never evicted.  The
        default (5 seconds) makes the cross-process "sweep races a peer's
        fresh write" window impossible at serving time; pass ``0.0`` to
        restore unconditional eviction (tests, offline compaction).
    breaker_failure_threshold / breaker_recovery_seconds:
        Circuit-breaker policy over catalog disk writes: after this many
        *consecutive* write failures the service stops touching the disk and
        serves memory-only (``/healthz`` reports ``degraded``); a background
        probe re-checks storage every ``breaker_recovery_seconds`` and closes
        the breaker on success.
    lease_ttl_seconds:
        When set (and a catalog is attached), the service claims each
        request-group key in a cross-process
        :class:`~repro.catalog.leases.LeaseTable` under
        ``<catalog root>/leases`` before executing it, so two service
        processes fed the same request do the work once while the claim is
        live.  A lease outlives crashes by at most ``lease_ttl_seconds`` —
        dead owners stop renewing and peers take over.  ``None`` (default)
        disables cross-process claims.
    lease_wait_seconds:
        How long a submission waits for a peer's live claim before doing the
        work itself anyway (the result is deterministic, so a duplicated
        composition is wasted CPU, never a wrong answer).  Defaults to
        ``4 * lease_ttl_seconds``.
    ack_level:
        Durability level of write acknowledgements: ``"journal"`` (the
        default) acks once the entry is fsynced into the local WAL;
        ``"replica"`` additionally holds the ack until at least one follower
        reports the entry's seq applied (followers piggyback their applied
        seq on journal poll requests).  A write whose replica ack does not
        arrive within ``replica_ack_timeout_seconds`` is *degraded*, not
        failed: the HTTP layer answers ``202`` with ``x-repro-ack-pending``.
    replica_ack_timeout_seconds:
        How long an ``ack_level="replica"`` write waits for a follower to
        confirm before falling back to the degraded journal-only ack.
    slow_trace_seconds:
        When set, any HTTP request whose wall-clock crosses this threshold
        has its full span tree dumped to stderr (and counted in
        ``tracing.slow_requests``) — the always-on flight recorder for tail
        latency.  ``None`` (default) disables the hook.
    """

    max_pending: int = 1024
    admission: str = "reject"
    deadline_seconds: Optional[float] = None
    timeout_seconds: Optional[float] = None
    composer_config: ComposerConfig = field(default_factory=ComposerConfig)
    share_expression_cache: bool = True
    cache_max_entries: int = 200_000
    gc_interval_seconds: Optional[float] = None
    gc_checkpoint_max_files: Optional[int] = None
    gc_checkpoint_max_age_seconds: Optional[float] = None
    gc_result_max_age_seconds: Optional[float] = None
    gc_result_keep_versions: Optional[int] = None
    gc_chain_max_age_seconds: Optional[float] = None
    gc_chain_keep_versions: Optional[int] = None
    gc_journal_max_segments: Optional[int] = None
    gc_journal_max_age_seconds: Optional[float] = None
    gc_grace_seconds: float = 5.0
    breaker_failure_threshold: int = 3
    breaker_recovery_seconds: float = 1.0
    lease_ttl_seconds: Optional[float] = None
    lease_wait_seconds: Optional[float] = None
    ack_level: str = "journal"
    replica_ack_timeout_seconds: float = 2.0
    slow_trace_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise EngineError("max_pending must be positive")
        if self.admission not in ("reject", "block"):
            raise EngineError(
                f"admission must be 'reject' or 'block', not {self.admission!r}"
            )
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise EngineError("deadline_seconds must be positive")
        if self.gc_interval_seconds is not None and self.gc_interval_seconds <= 0:
            raise EngineError("gc_interval_seconds must be positive")
        if self.gc_checkpoint_max_files is not None and self.gc_checkpoint_max_files < 0:
            raise EngineError("gc_checkpoint_max_files must be non-negative")
        if self.gc_result_keep_versions is not None and self.gc_result_keep_versions < 1:
            raise EngineError("gc_result_keep_versions must be positive")
        if self.gc_chain_keep_versions is not None and self.gc_chain_keep_versions < 1:
            raise EngineError("gc_chain_keep_versions must be positive")
        if self.gc_journal_max_segments is not None and self.gc_journal_max_segments < 1:
            raise EngineError("gc_journal_max_segments must be positive")
        if self.gc_grace_seconds < 0:
            raise EngineError("gc_grace_seconds must be non-negative")
        if self.breaker_failure_threshold < 1:
            raise EngineError("breaker_failure_threshold must be positive")
        if self.breaker_recovery_seconds < 0:
            raise EngineError("breaker_recovery_seconds must be non-negative")
        if self.lease_ttl_seconds is not None and self.lease_ttl_seconds <= 0:
            raise EngineError("lease_ttl_seconds must be positive")
        if self.lease_wait_seconds is not None and self.lease_wait_seconds < 0:
            raise EngineError("lease_wait_seconds must be non-negative")
        if self.ack_level not in ("journal", "replica"):
            raise EngineError(
                f"ack_level must be 'journal' or 'replica', not {self.ack_level!r}"
            )
        if self.replica_ack_timeout_seconds <= 0:
            raise EngineError("replica_ack_timeout_seconds must be positive")
        if self.slow_trace_seconds is not None and self.slow_trace_seconds < 0:
            raise EngineError("slow_trace_seconds must be non-negative")


class Ticket:
    """A claim on one submitted request (a minimal, thread-safe future).

    ``coalesced`` is ``True`` when this submission deduplicated onto an
    already in-flight identical request.  :meth:`result` blocks until the
    request's execution delivers, then returns the payload
    (:class:`~repro.compose.result.CompositionResult` or
    :class:`~repro.engine.chain.ChainResult`) or raises
    :class:`~repro.exceptions.ServiceError`.
    """

    def __init__(self, coalesced: bool = False):
        self._event = threading.Event()
        self._payload: object = None
        self._error: Optional[ServiceError] = None
        self.coalesced = coalesced

    def done(self) -> bool:
        """``True`` once a payload or an error has been delivered."""
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> object:
        """Block for the payload (raises ``ServiceError`` on failure/timeout)."""
        if not self._event.wait(timeout):
            raise ServiceError(f"no result within {timeout} seconds")
        if self._error is not None:
            raise self._error
        return self._payload

    def _deliver(self, payload: object) -> None:
        self._payload = payload
        self._event.set()

    def _fail(self, error: ServiceError) -> None:
        self._error = error
        self._event.set()


class _WorkItem:
    """One distinct admitted computation and every ticket coalesced onto it."""

    __slots__ = ("key", "kind", "payload", "config", "tickets", "enqueued_at", "enqueued_wall", "trace")

    def __init__(self, key: bytes, kind: str, payload: object, config: ComposerConfig):
        self.key = key
        self.kind = kind
        self.payload = payload
        self.config = config
        self.tickets: List[Ticket] = []
        self.enqueued_at = time.perf_counter()
        # The submitting thread's span context (if the request rode in under
        # a trace): an async item executes on the drain thread, so queue-wait
        # and execution spans are recorded retroactively against this parent.
        self.enqueued_wall = time.time()
        self.trace = obs.current()


class CompositionService:
    """A concurrent composition server over one (optional) catalog.

    Parameters
    ----------
    catalog:
        When given, chain requests use the catalog's persistent checkpoint
        store (hop reuse survives restarts) and :meth:`compose_catalog` can
        serve stored problems and chains by name.  Without a catalog the
        service keeps a process-local in-memory checkpoint store.
    config:
        Service tuning; see :class:`ServiceConfig`.
    """

    def __init__(
        self,
        catalog: Optional[MappingCatalog] = None,
        config: Optional[ServiceConfig] = None,
    ):
        self.catalog = catalog
        self.config = config or ServiceConfig()
        self.metrics_store = ServiceMetrics()
        self.checkpoints: CheckpointStore = (
            catalog.checkpoints if catalog is not None else CheckpointStore()
        )
        self._lock = threading.Lock()
        self._work_available = threading.Condition(self._lock)
        self._space_available = threading.Condition(self._lock)
        # Async submissions awaiting the drain thread.
        self._queue: Deque[_WorkItem] = deque()
        # Admitted items not yet executing (queued or waiting for the lock).
        self._pending = 0
        self._in_flight: Dict[bytes, _WorkItem] = {}
        # Held for the whole of one execution: one composition at a time.
        self._execution_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._gc_thread: Optional[threading.Thread] = None
        self._gc_stop = threading.Event()
        self._stopping = False
        self._last_gc_monotonic: Optional[float] = None
        self._started_monotonic: Optional[float] = None
        self._gc_consecutive_failures = 0
        # Graceful degradation: the breaker gates every catalog disk write;
        # while open the service serves memory-only and /healthz says so.
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            recovery_seconds=self.config.breaker_recovery_seconds,
        )
        if isinstance(self.checkpoints, PersistentCheckpointStore):
            self.checkpoints.set_degradation_hooks(
                gate=self.breaker.allow,
                on_failure=self.breaker.record_failure,
                on_success=self.breaker.record_success,
            )
        self._probe_thread: Optional[threading.Thread] = None
        self._probe_stop = threading.Event()
        # Cross-process claims (optional): one lease per request key.
        self.leases: Optional[LeaseTable] = None
        if catalog is not None and self.config.lease_ttl_seconds is not None:
            self.leases = LeaseTable(
                catalog.root / "leases", ttl_seconds=self.config.lease_ttl_seconds
            )
        # Replica acknowledgements: follower-id -> {"applied": {shard: seq}}.
        # Fed by followers piggybacking applied-seq on journal polls; waited
        # on by ack_level="replica" writes, persisted (throttled) next to the
        # journal so GC keeps unmirrored segments.
        self._ack_cond = threading.Condition()
        self._replica_acks: Dict[str, dict] = {}
        self._acks_persisted_monotonic: Optional[float] = None

    # -- telemetry bridge ----------------------------------------------------------

    def _span_listener(self, record: dict) -> None:
        """Mirror catalog/election span durations into labeled histograms.

        Those layers record spans without importing ServiceMetrics; this
        listener (registered on the process recorder while the service
        runs) is the only coupling point.
        """
        histogram = _SPAN_HISTOGRAMS.get(record.get("name"))
        duration = record.get("duration")
        if histogram is not None and duration is not None:
            self.metrics_store.observe(histogram, duration)

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> "CompositionService":
        """Start the drain thread of async submissions (idempotent); returns ``self``."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return self
            self._stopping = False
            self._started_monotonic = time.monotonic()
            self._thread = threading.Thread(
                target=self._drain_loop, name="repro-composition-service", daemon=True
            )
            self._thread.start()
            if (
                self.catalog is not None
                and self.config.gc_interval_seconds is not None
                and (self._gc_thread is None or not self._gc_thread.is_alive())
            ):
                self._gc_stop.clear()
                self._gc_thread = threading.Thread(
                    target=self._gc_loop, name="repro-service-gc", daemon=True
                )
                self._gc_thread.start()
            if self.catalog is not None and (
                self._probe_thread is None or not self._probe_thread.is_alive()
            ):
                self._probe_stop.clear()
                self._probe_thread = threading.Thread(
                    target=self._probe_loop, name="repro-service-probe", daemon=True
                )
                self._probe_thread.start()
        if self.leases is not None:
            self.leases.start_heartbeat()
        obs.recorder().add_listener(self._span_listener)
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the service.

        With ``drain`` (the default) every async submission already queued
        is served first; otherwise queued requests fail with
        :class:`ServiceError`.  Submissions blocked in admission are woken
        and fail with :class:`ServiceError` (the service is stopping, space
        will never free for them).
        """
        obs.recorder().remove_listener(self._span_listener)
        self._gc_stop.set()
        self._probe_stop.set()
        with self._lock:
            if not drain:
                while self._queue:
                    self._drop(self._queue.popleft())
            self._stopping = True
            self._work_available.notify_all()
            self._space_available.notify_all()
            thread = self._thread
            gc_thread = self._gc_thread
            probe_thread = self._probe_thread
        if thread is not None:
            thread.join()
        if gc_thread is not None:
            gc_thread.join()
        if probe_thread is not None:
            probe_thread.join()
        if self.leases is not None:
            self.leases.stop_heartbeat()
            self.leases.release_all()
        with self._lock:
            self._thread = None
            self._gc_thread = None
            self._probe_thread = None

    def __enter__(self) -> "CompositionService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def is_running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    # -- submission ----------------------------------------------------------------

    def submit_problem(
        self,
        problem: CompositionProblem,
        config: Optional[ComposerConfig] = None,
        deadline_seconds: Optional[float] = None,
    ) -> Ticket:
        """Queue one composition problem; returns with a ticket once admitted.

        Pass ``ComposerConfig.cost_guided()`` as ``config`` to compose with
        the cost-guided planner.  ``deadline_seconds`` overrides the service-wide admission deadline
        for this request (meaningful with ``admission="block"``).

        Submissions are accepted before :meth:`start` (they queue and are
        served once the drain thread runs) but refused after :meth:`stop`.
        """
        return self._submit("problem", problem, config, deadline_seconds, caller_runs=False)

    def submit_chain(
        self,
        mappings: Sequence[Mapping],
        config: Optional[ComposerConfig] = None,
        deadline_seconds: Optional[float] = None,
    ) -> Ticket:
        """Queue one chained composition; returns with a ticket once admitted."""
        return self._submit("chain", tuple(mappings), config, deadline_seconds, caller_runs=False)

    def compose(
        self,
        problem: CompositionProblem,
        config: Optional[ComposerConfig] = None,
        timeout: Optional[float] = None,
    ):
        """Compose one problem on the calling thread (or share the result of an
        identical in-flight request).  A caller whose ``timeout`` passes while
        it waits for the execution lock leaves its request to the drain thread.
        """
        return self._submit(
            "problem", problem, config, None, caller_runs=True, timeout=timeout
        ).result(timeout)

    def compose_chain(
        self,
        mappings: Sequence[Mapping],
        config: Optional[ComposerConfig] = None,
        timeout: Optional[float] = None,
    ):
        """Compose one chain on the calling thread (see :meth:`compose`)."""
        return self._submit(
            "chain", tuple(mappings), config, None, caller_runs=True, timeout=timeout
        ).result(timeout)

    def compose_catalog(
        self,
        kind: str,
        name: str,
        version: Optional[int] = None,
        config: Optional[ComposerConfig] = None,
        timeout: Optional[float] = None,
    ):
        """Serve a stored catalog ``problem`` or ``chain`` by name."""
        if self.catalog is None:
            raise ServiceError("this service has no catalog attached")
        if kind == "problem":
            return self.compose(self.catalog.get_problem(name, version), config, timeout=timeout)
        if kind == "chain":
            return self.compose_chain(self.catalog.get_chain(name, version), config, timeout=timeout)
        raise ServiceError(f"cannot compose catalog kind {kind!r} (expected problem or chain)")

    def _submit(
        self,
        kind: str,
        payload,
        config: Optional[ComposerConfig],
        deadline_seconds: Optional[float],
        caller_runs: bool,
        timeout: Optional[float] = None,
    ) -> Ticket:
        """Admit one request; queue it, or (``caller_runs``) execute it here."""
        if kind == "chain":
            if not payload:
                raise ServiceError("cannot submit an empty chain")
            content = chain_fingerprint(payload)
        else:
            content = payload.fingerprint()
        effective = config or self.config.composer_config
        h = blake2b(digest_size=DIGEST_SIZE)
        h.update(kind.encode())
        h.update(content)
        h.update(effective.fingerprint())
        ticket, item = self._admit(
            h.digest(), kind, payload, effective, deadline_seconds, queued=not caller_runs
        )
        if item is not None and caller_runs and not self._execute(item, timeout):
            with self._lock:
                if self._stopping:
                    self._drop(item)
                else:
                    self._queue.append(item)
                    self._work_available.notify()
            raise ServiceError(f"no result within {timeout} seconds")
        return ticket

    def _admit(
        self,
        key: bytes,
        kind: str,
        payload: object,
        config: ComposerConfig,
        deadline_seconds: Optional[float],
        queued: bool,
    ) -> Tuple[Ticket, Optional[_WorkItem]]:
        """Admission and single-flight dedup: the caller's ticket, plus the new
        item it owns unless it coalesced (a ``queued`` item goes to the drain
        thread, otherwise the caller executes it)."""
        budget = (
            deadline_seconds
            if deadline_seconds is not None
            else self.config.deadline_seconds
        )
        deadline = time.monotonic() + budget if budget is not None else None
        blocked = False
        with self._lock:
            while True:
                # A waiter whose deadline has expired gets ServiceDeadlineError
                # *whatever* woke it — space freeing, a shutdown broadcast, a
                # spurious wakeup.  Checking the deadline before the stop flag
                # makes the deadline-expiry-races-stop() outcome deterministic:
                # once the budget is spent, the answer is "deadline", never
                # sometimes-"stopped".
                remaining = None if deadline is None else deadline - time.monotonic()
                if blocked and remaining is not None and remaining <= 0:
                    self.metrics_store.record_deadline_expired()
                    raise ServiceDeadlineError(
                        f"queue stayed at capacity ({self.config.max_pending} pending) "
                        f"for the whole {budget}-second admission deadline"
                    )
                # Before the first start() submissions simply accumulate in
                # the queue; only a *stopped* service refuses work.
                if self._stopping:
                    raise ServiceError("the service is stopped; call start() first")
                existing = self._in_flight.get(key)
                if existing is not None:
                    # Identical in-flight request (queued or executing): coalesce.
                    ticket = Ticket(coalesced=True)
                    existing.tickets.append(ticket)
                    self.metrics_store.record_submitted(coalesced=True)
                    return ticket, None
                if self._pending < self.config.max_pending:
                    break
                if self.config.admission == "reject":
                    self.metrics_store.record_rejected()
                    raise ServiceOverloadedError(
                        f"request queue is at capacity ({self.config.max_pending} pending)"
                    )
                if remaining is not None and remaining <= 0:
                    self.metrics_store.record_deadline_expired()
                    raise ServiceDeadlineError(
                        f"queue stayed at capacity ({self.config.max_pending} pending) "
                        f"for the whole {budget}-second admission deadline"
                    )
                if not blocked:
                    blocked = True
                    self.metrics_store.record_blocked()
                self._space_available.wait(remaining)
            item = _WorkItem(key, kind, payload, config)
            ticket = Ticket()
            item.tickets.append(ticket)
            self._in_flight[key] = item
            self._pending += 1
            self.metrics_store.record_submitted()
            if queued:
                self._queue.append(item)
                self._work_available.notify()
            return ticket, item

    # -- execution -----------------------------------------------------------------

    def _drain_loop(self) -> None:
        """Execute queued async submissions one at a time until stopped and drained."""
        while True:
            with self._lock:
                while not self._queue and not self._stopping:
                    self._work_available.wait()
                if not self._queue:
                    return  # stopping and drained
                item = self._queue.popleft()
            self._execute(item)

    def _execute(self, item: _WorkItem, timeout: Optional[float] = None) -> bool:
        """Execute one work item under the execution lock and deliver its tickets.

        The only function that executes work items; ``False`` means the lock
        was not acquired within ``timeout`` and nothing ran.
        """
        lease = self._claim_lease(item)
        try:
            if not self._execution_lock.acquire(timeout=-1 if timeout is None else timeout):
                return False
            try:
                started = time.perf_counter()
                with self._lock:
                    self._pending -= 1
                    self._space_available.notify()
                failure: Optional[Exception] = None
                try:
                    composer = BatchComposer(
                        BatchConfig(
                            timeout_seconds=self.config.timeout_seconds,
                            composer_config=item.config,
                            share_expression_cache=self.config.share_expression_cache,
                            cache_max_entries=self.config.cache_max_entries,
                        ),
                        checkpoints=self.checkpoints,
                    )
                    run = composer.run_chains if item.kind == "chain" else composer.run
                    report = run([item.payload])
                except Exception as exc:  # noqa: BLE001 - fails its tickets, not the service
                    failure = exc
                execution_seconds = time.perf_counter() - started
            finally:
                self._execution_lock.release()
        finally:
            self._release_lease(lease)
        queue_seconds = started - item.enqueued_at
        if failure is not None:
            # Record the exception type so /metrics distinguishes a sick
            # disk from a code bug, and surface it in every ticket's error.
            self.metrics_store.record_batch_failure(type(failure).__name__, 1)
            error = ServiceError(
                f"execution failed with {type(failure).__name__}: {failure!r}"
            )
            self._finish(item, None, error, queue_seconds, execution_seconds)
            return True
        self.metrics_store.record_batch(size=1, cache_stats=report.cache_stats)
        outcome = report.items[0]
        error = None if outcome.status is ProblemStatus.SUCCEEDED else _item_error(outcome)
        self._finish(item, outcome, error, queue_seconds, outcome.elapsed_seconds)
        return True

    # -- cross-process claims --------------------------------------------------------

    def _claim_lease(self, item: _WorkItem) -> Optional[Lease]:
        """Claim the item's request key before executing it.

        While a claim is live, a peer service process serving the identical
        request waits instead of recomputing — cross-process deduplication
        with crash tolerance (a dead claimant's leases expire and are taken
        over).  Claim failures *degrade*, never block: an unclaimable key
        (live peer past the wait bound, lease-table I/O error) is executed
        unclaimed — composition is deterministic, so the worst case is
        duplicated CPU, and refusing to serve would turn a dedup optimization
        into an availability bug.
        """
        if self.leases is None:
            return None
        wait = (
            self.config.lease_wait_seconds
            if self.config.lease_wait_seconds is not None
            else 4.0 * (self.config.lease_ttl_seconds or 0.0)
        )
        try:
            return self.leases.wait_acquire(item.key.hex(), timeout=wait)
        except (LeaseUnavailableError, CatalogError, OSError):
            self.metrics_store.record_lease_claim_failure()
            return None

    def _release_lease(self, lease: Optional[Lease]) -> None:
        if self.leases is None or lease is None:
            return
        try:
            self.leases.release(lease.key)
        except (CatalogError, OSError):  # pragma: no cover - best-effort
            pass

    def _drop(self, item: _WorkItem) -> None:
        """Fail an admitted item that will never execute (caller holds ``_lock``)."""
        self._pending -= 1
        self._in_flight.pop(item.key, None)
        for ticket in item.tickets:
            ticket._fail(ServiceError("service stopped before serving"))

    def _finish(
        self,
        item: _WorkItem,
        outcome: Optional[BatchItemResult],
        error: Optional[ServiceError],
        queue_seconds: float,
        execution_seconds: float,
    ) -> None:
        # Pop from the in-flight table *before* delivering: once tickets are
        # woken, an identical new request must start a fresh computation
        # rather than coalesce onto this finished one.
        with self._lock:
            self._in_flight.pop(item.key, None)
            tickets = list(item.tickets)
        payload = outcome.result if outcome is not None and error is None else None
        status = (
            outcome.status.value
            if outcome is not None
            else ProblemStatus.FAILED.value
        )
        for ticket in tickets:
            if error is None:
                ticket._deliver(payload)
            else:
                ticket._fail(error)
        self.metrics_store.record_completed(
            status=status,
            queue_seconds=queue_seconds,
            execution_seconds=execution_seconds,
            phase_seconds=_phase_seconds(payload),
        )
        if item.trace is not None:
            # Recorded retroactively against the submitter's context (an
            # async item executes on the drain thread): queue wait, then
            # execution, with the composition's per-phase buckets bridged as
            # children of the execution span.
            obs.record_span(
                "service.queue",
                parent=item.trace,
                started_at=item.enqueued_wall,
                duration=queue_seconds,
                kind=item.kind,
            )
            execute = obs.record_span(
                "service.execute",
                parent=item.trace,
                started_at=item.enqueued_wall + queue_seconds,
                duration=execution_seconds,
                kind=item.kind,
                status_value=status,
            )
            phase_start = item.enqueued_wall + queue_seconds
            for phase, seconds in _phase_seconds(payload):
                obs.record_span(
                    phases.span_name(phase),
                    parent=execute,
                    started_at=phase_start,
                    duration=seconds,
                )

    # -- garbage collection --------------------------------------------------------

    def run_gc(self) -> Optional[dict]:
        """Run one catalog GC pass with the configured policy; returns the report.

        No-op (returns ``None``) without a catalog.  The background sweep
        calls this every ``gc_interval_seconds``; it is also safe to call
        manually at any time — GC only removes rebuildable checkpoints and
        old result versions, never current state.
        """
        if self.catalog is None:
            return None
        report = self.catalog.gc(
            checkpoint_max_files=self.config.gc_checkpoint_max_files,
            checkpoint_max_age_seconds=self.config.gc_checkpoint_max_age_seconds,
            result_max_age_seconds=self.config.gc_result_max_age_seconds,
            result_keep_versions=self.config.gc_result_keep_versions,
            chain_max_age_seconds=self.config.gc_chain_max_age_seconds,
            chain_keep_versions=self.config.gc_chain_keep_versions,
            journal_max_segments=self.config.gc_journal_max_segments,
            journal_max_age_seconds=self.config.gc_journal_max_age_seconds,
            grace_seconds=self.config.gc_grace_seconds,
        )
        self._last_gc_monotonic = time.monotonic()
        self.metrics_store.record_gc(report)
        return report

    def _gc_loop(self) -> None:
        interval = self.config.gc_interval_seconds
        while not self._gc_stop.wait(interval):
            try:
                self.run_gc()
            except Exception as exc:  # noqa: BLE001 - a failed sweep must not kill the loop
                # Counted, not swallowed: /metrics tallies the failures by
                # type and /healthz flags a sweep that keeps failing.
                self.metrics_store.record_gc_sweep_failure(type(exc).__name__)
                self._gc_consecutive_failures += 1
                continue
            self._gc_consecutive_failures = 0

    # -- graceful degradation --------------------------------------------------------

    def store_result(self, name: str, result) -> bool:
        """Store a composition result, gated by the breaker; ``True`` if stored.

        A degraded service (breaker open) *drops* the write — counted in
        ``catalog_writes_dropped`` — and keeps serving; a failed write feeds
        the breaker and is counted by exception type.  The composition result
        the caller holds is unaffected either way.
        """
        if self.catalog is None:
            return False
        return self._catalog_write(lambda: self.catalog.put_result(name, result))

    def store_mapping(self, name: str, mapping) -> bool:
        """Store a composed mapping, gated by the breaker; ``True`` if stored."""
        if self.catalog is None:
            return False
        return self._catalog_write(lambda: self.catalog.put_mapping(name, mapping))

    def store_result_entry(self, name: str, result):
        """Like :meth:`store_result` but returns the :class:`CatalogEntry`.

        ``None`` means the write was dropped (breaker open) or failed; the
        entry's ``journal_seq`` is what an ``ack_level="replica"`` caller
        waits on.  :class:`~repro.exceptions.StaleEpochError` propagates.
        """
        if self.catalog is None:
            return None
        box: list = []
        ok = self._catalog_write(lambda: box.append(self.catalog.put_result(name, result)))
        return box[0] if ok and box else None

    def store_mapping_entry(self, name: str, mapping):
        """Like :meth:`store_mapping` but returns the :class:`CatalogEntry`."""
        if self.catalog is None:
            return None
        box: list = []
        ok = self._catalog_write(lambda: box.append(self.catalog.put_mapping(name, mapping)))
        return box[0] if ok and box else None

    def _catalog_write(self, op) -> bool:
        if not self.breaker.allow():
            self.metrics_store.record_catalog_write_dropped()
            return False
        try:
            op()
        except StaleEpochError:
            # A fencing rejection, not storage sickness: the disk is fine,
            # this *writer* has been outranked.  Propagate (the HTTP layer
            # answers 409) without tripping the breaker into memory-only
            # mode.
            self.metrics_store.record_stale_epoch_rejected()
            raise
        except (CatalogError, OSError) as exc:
            self.breaker.record_failure(exc)
            self.metrics_store.record_catalog_write_failure(type(exc).__name__)
            return False
        self.breaker.record_success()
        self.metrics_store.record_catalog_write()
        return True

    # -- replica acknowledgements ----------------------------------------------------

    def journal_shard(self, kind: str, name: str) -> int:
        """The journal shard a ``kind/name`` write lands in."""
        return MappingCatalog._shard_id(kind, name)

    def record_follower_applied(self, follower_id: str, shard: int, applied: int) -> None:
        """A follower reported it has applied ``shard`` up to seq ``applied``.

        Called by the HTTP layer for every journal poll carrying the
        ``follower``/``applied`` piggyback.  Wakes every write waiting on a
        replica ack and (throttled) persists the floor next to the journal
        for GC's retention rule.
        """
        with self._ack_cond:
            follower = self._replica_acks.setdefault(follower_id, {"applied": {}})
            previous = int(follower["applied"].get(shard, 0))
            if applied > previous:
                follower["applied"][shard] = int(applied)
            follower["updated_at"] = time.time()
            self._ack_cond.notify_all()
        self._persist_replica_acks()

    def replica_applied_seq(self, shard: int) -> int:
        """The highest seq *any* follower has confirmed applied for ``shard``."""
        with self._ack_cond:
            return self._replica_applied_locked(shard)

    def _replica_applied_locked(self, shard: int) -> int:
        best = 0
        for follower in self._replica_acks.values():
            best = max(best, int(follower.get("applied", {}).get(shard, 0)))
        return best

    def await_replica_ack(
        self, kind: str, name: str, entry, timeout: Optional[float] = None
    ) -> bool:
        """Block until a follower confirms ``entry``'s journal seq; ``True`` if acked.

        ``False`` means the ack did not arrive within the budget — the write
        is journal-durable but not yet known mirrored (the HTTP layer's
        ``202 + x-repro-ack-pending`` degraded ack).  Entries that never
        journaled (deduped writes, no catalog) are trivially acked.
        """
        seq = getattr(entry, "journal_seq", None)
        if seq is None:
            return True
        shard = self.journal_shard(kind, name)
        budget = (
            timeout if timeout is not None else self.config.replica_ack_timeout_seconds
        )
        started = time.monotonic()
        deadline = started + budget
        with self._ack_cond:
            while self._replica_applied_locked(shard) < seq:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.metrics_store.record_replica_ack(satisfied=False)
                    self.metrics_store.observe(
                        "replication_lag_seconds", time.monotonic() - started
                    )
                    return False
                self._ack_cond.wait(remaining)
        self.metrics_store.record_replica_ack(satisfied=True)
        self.metrics_store.observe("replication_lag_seconds", time.monotonic() - started)
        return True

    def _persist_replica_acks(self, min_interval_seconds: float = 0.25) -> None:
        """Throttled write of ``replica-acks.json`` next to the journal.

        Only an ``ack_level="replica"`` primary persists: the file's presence
        is what activates :meth:`CatalogJournal.replica_ack_floor`'s GC
        retention rule, and a journal-ack deployment must not pay that floor.
        """
        if self.catalog is None or self.config.ack_level != "replica":
            return
        now = time.monotonic()
        with self._ack_cond:
            last = self._acks_persisted_monotonic
            if last is not None and now - last < min_interval_seconds:
                return
            self._acks_persisted_monotonic = now
            payload = {
                "followers": {
                    follower_id: {
                        "applied": {
                            str(shard): seq
                            for shard, seq in sorted(state.get("applied", {}).items())
                        },
                        "updated_at": state.get("updated_at"),
                    }
                    for follower_id, state in self._replica_acks.items()
                }
            }
        try:
            directory = self.catalog.journal.directory
            directory.mkdir(parents=True, exist_ok=True)
            atomic_write_text(
                directory / "replica-acks.json",
                json.dumps(payload, sort_keys=True) + "\n",
            )
        except (CatalogError, OSError):  # pragma: no cover - best-effort metadata
            pass

    def probe_storage(self) -> bool:
        """Write-and-read a probe file under the catalog root; feeds the breaker.

        This is how an *open* breaker discovers the disk came back: the
        background probe loop calls it every ``breaker_recovery_seconds``
        while the breaker is not closed.  Safe to call manually.
        """
        if self.catalog is None:
            return True
        path = self.catalog.root / ".health-probe"
        try:
            atomic_write_bytes(path, b"ok")
            ok = path.read_bytes() == b"ok"
        except OSError as exc:
            self.breaker.record_failure(exc)
            self.metrics_store.record_probe(ok=False)
            return False
        if ok:
            self.breaker.record_success()
        else:  # pragma: no cover - a torn probe read
            self.breaker.record_failure()
        self.metrics_store.record_probe(ok=ok)
        return ok

    def _probe_loop(self) -> None:
        interval = max(self.config.breaker_recovery_seconds, 0.05)
        while not self._probe_stop.wait(interval):
            if self.breaker.state == "closed":
                continue  # healthy: no need to touch the disk
            try:
                self.probe_storage()
            except Exception:  # noqa: BLE001 - a failed probe must not kill the loop
                continue

    # -- introspection -------------------------------------------------------------

    def health(self) -> dict:
        """The service's real health: ``ok`` or ``degraded``, with reasons.

        Degraded means the service still answers compositions but some
        durability promise is suspended: the storage breaker is open (disk
        writes are being dropped), the service is not running (async
        submissions are not being drained), or the
        configured GC sweep has not completed within two intervals.
        """
        breaker = self.breaker.snapshot()
        reasons = []
        if breaker["state"] != "closed":
            reasons.append(
                f"storage breaker {breaker['state']} "
                f"(last failure: {breaker['last_failure']})"
            )
        if not self.is_running:
            reasons.append("service is not running")
        last_gc_age: Optional[float] = None
        if self._last_gc_monotonic is not None:
            last_gc_age = time.monotonic() - self._last_gc_monotonic
        interval = self.config.gc_interval_seconds
        if interval is not None and self.catalog is not None:
            if last_gc_age is None:
                # No sweep yet: a freshly started service is not overdue —
                # only one that has been running past two intervals is.
                started = self._started_monotonic
                if started is not None and time.monotonic() - started > 2 * interval:
                    reasons.append("gc sweep overdue")
            elif last_gc_age > 2 * interval:
                reasons.append("gc sweep overdue")
        if self._gc_consecutive_failures:
            reasons.append(
                f"gc sweep failing ({self._gc_consecutive_failures} consecutive)"
            )
        lease_stats = self.leases.stats() if self.leases is not None else None
        if lease_stats and lease_stats.get("heartbeat_consecutive_failures"):
            reasons.append(
                "lease heartbeat failing "
                f"({lease_stats['heartbeat_consecutive_failures']} consecutive)"
            )
        snapshot = self.metrics_store
        health: dict = {
            "status": "degraded" if reasons else "ok",
            "reasons": reasons,
            "breaker": breaker,
            "gc": {
                "last_sweep_age_seconds": last_gc_age,
                "interval_seconds": interval,
                "sweeps": snapshot.gc_sweeps,
                "sweep_failures": snapshot.gc_sweep_failures,
                "consecutive_failures": self._gc_consecutive_failures,
            },
            "storage": {
                "catalog_writes": snapshot.catalog_writes,
                "catalog_writes_dropped": snapshot.catalog_writes_dropped,
                "catalog_write_failures": snapshot.catalog_write_failures,
                "probes": snapshot.probes,
                "probe_failures": snapshot.probe_failures,
            },
        }
        if lease_stats is not None:
            health["leases"] = lease_stats
        return health

    def metrics(self) -> dict:
        """A JSON-serializable snapshot of everything the service measures."""
        return self.metrics_store.snapshot(**self._snapshot_inputs())

    def metrics_prometheus(self) -> str:
        """The metrics snapshot in the Prometheus text exposition format."""
        return self.metrics_store.render_prometheus(**self._snapshot_inputs())

    def _snapshot_inputs(self) -> dict:
        with self._lock:
            pending = self._pending
            in_flight = len(self._in_flight)
        checkpoint_stats = self.checkpoints.stats()
        if isinstance(self.checkpoints, PersistentCheckpointStore):
            # Counting files scans the directory: done per /metrics read,
            # never per execution.
            checkpoint_stats["disk_entries"] = self.checkpoints.disk_entries()
        return {
            "pending": pending,
            "in_flight": in_flight,
            "checkpoint_stats": checkpoint_stats,
            "breaker": self.breaker.snapshot(),
            "leases": self.leases.stats() if self.leases is not None else None,
        }

    def __repr__(self) -> str:
        state = "running" if self.is_running else "stopped"
        return f"<CompositionService ({state}): {self._pending} pending>"


def _item_error(outcome: BatchItemResult) -> ServiceError:
    if outcome.status is ProblemStatus.TIMED_OUT:
        return ServiceError(f"request timed out: {outcome.error}")
    return ServiceError(outcome.error or "composition failed")


def _phase_seconds(payload: object):
    """The per-phase buckets of a served payload (chains sum over their hops)."""
    if payload is None:
        return ()
    if hasattr(payload, "phase_seconds") and not hasattr(payload, "hops"):
        return payload.phase_seconds
    if hasattr(payload, "hops"):
        totals: Dict[str, float] = {}
        for hop in payload.hops:
            for phase, seconds in hop.result.phase_seconds:
                totals[phase] = totals.get(phase, 0.0) + seconds
        return tuple(sorted(totals.items()))
    return ()
