"""Per-phase wall-clock accounting for COMPOSE.

``CompositionResult.elapsed_seconds`` answers "how long did the composition
take"; the figures and the benchmark trajectory also want to know *where* the
time went — normalization vs. view unfolding vs. left/right compose vs.
deskolemization vs. the final simplification pass.  Threading timer objects
through every sub-step signature would couple all of them to bookkeeping, so
the buckets live here instead: :func:`collect_phases` opens a thread-local
bucket dictionary for the duration of one composition, and :func:`timed`
charges a block's wall-clock to a named bucket when a collection is active
(and is a no-op — one attribute probe — otherwise, so standalone ``eliminate``
calls pay nothing).

Buckets *nest* rather than partition: ``eliminate`` covers the whole
per-symbol attempt, ``left_compose``/``right_compose`` are inside it, and
``normalize``/``deskolemize`` are inside those.  ``planner`` (cost-guided
compositions only) covers plan construction — the co-occurrence partition and
the component sub-problem assembly — and is a sibling of ``eliminate``, so
planning overhead is directly comparable to the elimination work it saves.
Consumers compare siblings (e.g. ``normalize`` against ``left_compose``), not
the sum against the total.

The collection is thread-local, so batch workers running compositions
concurrently never mix buckets.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator

__all__ = ["PHASES", "SPAN_PREFIX", "charge", "collect_phases", "span_name", "timed"]

#: The bucket names the composition pipeline charges (see module docstring for
#: the nesting).  ``timed`` accepts any name; this tuple documents the ones
#: the library itself produces.
PHASES = (
    "planner",
    "eliminate",
    "view_unfolding",
    "left_compose",
    "right_compose",
    "normalize",
    "deskolemize",
    "simplify",
)

#: Phase buckets bridged into request traces carry this span-name prefix
#: (``compose.phase.normalize`` etc.) — see :func:`span_name`.
SPAN_PREFIX = "compose.phase."


def span_name(phase: str) -> str:
    """The trace span name of one phase bucket.

    The service bridges each served request's buckets into its span tree as
    children of the execution span; keeping the name derivation here means
    the tracing layer and any future consumer agree on the mapping.
    """
    return SPAN_PREFIX + phase


_local = threading.local()


@contextmanager
def collect_phases() -> Iterator[Dict[str, float]]:
    """Open a fresh bucket dictionary for the duration of the block.

    Yields the dictionary being filled; it is complete when the block exits.
    Collections nest per thread — a composition running inside another (not a
    thing the library does today) would charge its phases to its own buckets,
    and the outer collection resumes afterwards.
    """
    previous = getattr(_local, "buckets", None)
    buckets: Dict[str, float] = {}
    _local.buckets = buckets
    try:
        yield buckets
    finally:
        _local.buckets = previous


class _PhaseTimer:
    """Hand-rolled context manager: ``timed`` sits inside the per-symbol hot
    loop, where a generator-based ``@contextmanager`` frame is measurable."""

    __slots__ = ("name", "buckets", "started")

    def __init__(self, name: str):
        self.name = name

    def __enter__(self) -> None:
        self.buckets = getattr(_local, "buckets", None)
        if self.buckets is not None:
            self.started = time.perf_counter()

    def __exit__(self, *exc) -> bool:
        buckets = self.buckets
        if buckets is not None:
            buckets[self.name] = (
                buckets.get(self.name, 0.0) + time.perf_counter() - self.started
            )
        return False


def timed(name: str) -> _PhaseTimer:
    """Charge the block's wall-clock time to bucket ``name``, if collecting."""
    return _PhaseTimer(name)


def charge(name: str, seconds: float) -> None:
    """Add an already-measured duration to bucket ``name``, if collecting.

    For callers that measure a span anyway: ``eliminate`` times every attempt
    for its :class:`~repro.compose.result.EliminationOutcome` and charges the
    same number to ``eliminate``, so each attempt is timed once.
    """
    buckets = getattr(_local, "buckets", None)
    if buckets is not None:
        buckets[name] = buckets.get(name, 0.0) + seconds
