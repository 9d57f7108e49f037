"""A disk-backed hop-checkpoint store: chain-prefix reuse that survives restarts.

:class:`~repro.engine.checkpoint.CheckpointStore` makes recomposition after a
schema edit near-linear — but its entries die with the Python process, so a
restarted service pays the full from-scratch cost for chains it has composed
hundreds of times.  :class:`PersistentCheckpointStore` mirrors every recorded
checkpoint to a file named by its content token:

* :meth:`put` writes through — the in-memory table is updated as before, and
  the pickled checkpoint is written atomically to ``<token.hex>.ckpt`` (first
  write wins; tokens are content digests, so a file that exists is already
  correct);
* :meth:`get` reads through — an in-memory miss falls back to disk and, when
  the file exists and validates, installs the loaded checkpoint in memory.

Tokens are deterministic content digests (:mod:`repro.engine.fingerprint`),
so checkpoints written by one process are recognized verbatim by the next.
The store remains a pure accelerator:
deleting any file (or the whole directory) is always safe, and composition
outputs are byte-identical with the store hot, cold, warm-from-disk or
absent.

The store is a *pure accelerator*, and its failure behaviour follows from
that: a disk write that keeps failing (after the
:class:`~repro.retry.RetryPolicy` gives up on transient errors) is counted
in ``disk_errors`` and **swallowed** — the composition that produced the
checkpoint already succeeded, and failing it over a cache write would invert
the dependency.  :meth:`set_degradation_hooks` lets the service tier wire a
circuit breaker in: a ``gate`` that returns ``False`` skips disk writes
entirely (counted in ``disk_skipped``), and ``on_failure`` / ``on_success``
listeners observe every persist outcome so the breaker can open and close.

Files are pickles and are trusted exactly as far as the catalog directory
is: load checkpoints only from directories you write yourself.
"""

from __future__ import annotations

import os
import pickle
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from repro import faults
from repro.catalog.storage import atomic_write_bytes
from repro.engine.checkpoint import (
    DEFAULT_MAX_CHECKPOINTS,
    ChainCheckpoint,
    CheckpointStore,
)
from repro.retry import RetryPolicy, RetryStats

__all__ = ["PersistentCheckpointStore"]

#: Leading element of every pickled checkpoint file; files whose magic or
#: format version disagree are treated as absent (never an error).
_MAGIC = "repro-checkpoint"
_FORMAT_VERSION = 1

_SUFFIX = ".ckpt"


class PersistentCheckpointStore(CheckpointStore):
    """A :class:`CheckpointStore` mirrored to a directory of checkpoint files.

    Parameters
    ----------
    directory:
        Where checkpoint files live (created if missing).  The catalog places
        this under its root as ``checkpoints/``.
    max_entries:
        Bound on the *in-memory* table, exactly as in the base class; the
        wholesale in-memory eviction never touches the files, so an evicted
        entry is transparently reloaded on its next probe.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        max_entries: int = DEFAULT_MAX_CHECKPOINTS,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        super().__init__(max_entries=max_entries)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.disk_hits = 0
        self.disk_writes = 0
        self.disk_invalid = 0
        self.disk_errors = 0
        self.disk_skipped = 0
        self._retry = retry_policy or RetryPolicy()
        self.retry_stats = RetryStats()
        self._write_gate: Optional[Callable[[], bool]] = None
        self._on_persist_failure: Optional[Callable[[BaseException], None]] = None
        self._on_persist_success: Optional[Callable[[], None]] = None

    def set_degradation_hooks(
        self,
        gate: Optional[Callable[[], bool]] = None,
        on_failure: Optional[Callable[[BaseException], None]] = None,
        on_success: Optional[Callable[[], None]] = None,
    ) -> None:
        """Wire a circuit breaker (or any health tracker) into disk persists.

        ``gate`` is consulted before every disk write; ``False`` skips the
        write (the in-memory entry is unaffected) and bumps ``disk_skipped``.
        ``on_failure(exc)`` / ``on_success()`` fire after each attempted
        persist, *including* the no-op touch of an already-present file.
        """
        self._write_gate = gate
        self._on_persist_failure = on_failure
        self._on_persist_success = on_success

    # -- persistence hooks ---------------------------------------------------------

    def _path(self, token: bytes) -> Path:
        return self.directory / (token.hex() + _SUFFIX)

    def _load_fallback(self, token: bytes) -> Optional[ChainCheckpoint]:
        path = self._path(token)
        try:
            faults.fire("checkpoint.load", path=str(path))
            data = path.read_bytes()
        except OSError:
            return None
        try:
            magic, version, checkpoint = pickle.loads(data)
        except Exception:  # noqa: BLE001 - a corrupt file is a miss, not a crash
            self._discard_invalid(path)
            return None
        if magic != _MAGIC or version != _FORMAT_VERSION:
            self._discard_invalid(path)
            return None
        if not isinstance(checkpoint, ChainCheckpoint) or checkpoint.token != token:
            self._discard_invalid(path)
            return None
        self.disk_hits += 1
        self._touch(path)
        return checkpoint

    def _discard_invalid(self, path: Path) -> None:
        # A file that exists but does not load would otherwise be permanent:
        # _persist skips existing paths (content-keyed, first write wins), so
        # without this unlink the corrupt file could never be rewritten and
        # its checkpoint would be lost forever.  Removing it turns the next
        # put() into a fresh write.
        self.disk_invalid += 1
        try:
            path.unlink()
        except OSError:
            pass

    @staticmethod
    def _touch(path: Path) -> None:
        # Freshen the mtime so gc()'s LRU ordering sees recently *used*
        # checkpoints as recent, not just recently written ones.
        try:
            os.utime(path, None)
        except OSError:
            pass

    def _persist(self, checkpoint: ChainCheckpoint) -> None:
        if self._write_gate is not None and not self._write_gate():
            self.disk_skipped += 1
            return
        path = self._path(checkpoint.token)
        if path.exists():
            # Content-keyed: an existing file already holds this state (a
            # corrupt file cannot linger here — _load_fallback unlinks it).
            self._touch(path)
            if self._on_persist_success is not None:
                self._on_persist_success()
            return
        payload = pickle.dumps(
            (_MAGIC, _FORMAT_VERSION, checkpoint), protocol=pickle.HIGHEST_PROTOCOL
        )

        def write() -> None:
            faults.fire("checkpoint.persist", path=str(path))
            atomic_write_bytes(path, payload)

        try:
            self._retry.run(
                write,
                stats=self.retry_stats,
                description=f"persist checkpoint {path.name}",
            )
        except (OSError, pickle.PicklingError) as exc:
            # The store is a pure accelerator: the composition this checkpoint
            # came from already succeeded, so a cache write must never fail
            # it.  Count the error, tell the breaker, keep going memory-only.
            self.disk_errors += 1
            if self._on_persist_failure is not None:
                self._on_persist_failure(exc)
            return
        self.disk_writes += 1
        if self._on_persist_success is not None:
            self._on_persist_success()

    # -- disk management -----------------------------------------------------------

    def disk_entries(self) -> int:
        """Number of checkpoint files currently on disk."""
        return sum(1 for _ in self.directory.glob("*" + _SUFFIX))

    def gc(
        self,
        max_files: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
        grace_seconds: float = 0.0,
        dry_run: bool = False,
    ) -> Dict[str, int]:
        """Bound the on-disk checkpoint footprint by age and/or LRU count.

        ``max_age_seconds`` removes every file whose mtime is older than that
        (mtimes are freshened on every hit, so this is time-since-last-use,
        not time-since-creation); ``max_files`` then keeps only the most
        recently used files up to the bound.  ``grace_seconds`` is an age
        floor over both rules: a file used within the last ``grace_seconds``
        is never deleted, even if that leaves more than ``max_files`` behind —
        it closes the cross-process race where one process sweeps a
        checkpoint another process wrote (and is about to read back)
        milliseconds ago.  Removed tokens are dropped from the in-memory
        table too, so :meth:`stats` stays honest.

        Deleting checkpoints is always safe — the store is a pure
        accelerator, and every *retained* file keeps working: checkpoints are
        independent, content-keyed states, so prefix reuse needs only the
        deepest matching file, not an unbroken set.  With ``dry_run`` nothing
        is deleted; the report counts what would be.

        Returns ``{"examined": ..., "removed": ..., "retained": ...}``.
        """
        if max_files is not None and max_files < 0:
            raise ValueError("max_files must be non-negative")
        if max_age_seconds is not None and max_age_seconds < 0:
            raise ValueError("max_age_seconds must be non-negative")
        if grace_seconds < 0:
            raise ValueError("grace_seconds must be non-negative")
        aged = []
        protected = 0
        now = time.time()
        for path in self.directory.glob("*" + _SUFFIX):
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue  # deleted concurrently
            if grace_seconds > 0 and now - mtime < grace_seconds:
                protected += 1
                continue  # inside the grace window: exempt from every rule
            aged.append((mtime, path))
        aged.sort()  # least recently used first
        doomed = []
        if max_age_seconds is not None:
            while aged and now - aged[0][0] > max_age_seconds:
                doomed.append(aged.pop(0)[1])
        if max_files is not None and len(aged) + protected > max_files:
            excess = min(len(aged) + protected - max_files, len(aged))
            doomed.extend(path for _, path in aged[:excess])
            del aged[:excess]
        removed = 0
        if not dry_run:
            for path in doomed:
                try:
                    path.unlink()
                except OSError:
                    continue
                removed += 1
                try:
                    token = bytes.fromhex(path.name[: -len(_SUFFIX)])
                except ValueError:
                    continue
                self._entries.pop(token, None)
        else:
            removed = len(doomed)
        return {
            "examined": len(aged) + len(doomed) + protected,
            "removed": removed,
            "retained": len(aged) + protected,
        }

    def purge(self) -> int:
        """Delete every checkpoint file (and the in-memory table); returns count.

        Always safe — the store is a pure accelerator — but unlike
        :meth:`clear` this removes the durable state too.
        """
        removed = 0
        for path in self.directory.glob("*" + _SUFFIX):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self.clear()
        return removed

    def clear(self) -> None:
        """Drop the in-memory table and reset all counters (files are kept)."""
        super().clear()
        self.disk_hits = self.disk_writes = self.disk_invalid = 0
        self.disk_errors = self.disk_skipped = 0

    def stats(self) -> Dict[str, float]:
        """The in-memory counters; :meth:`disk_entries` counts the files."""
        stats = super().stats()
        stats.update(
            {
                "disk_hits": self.disk_hits,
                "disk_writes": self.disk_writes,
                "disk_invalid": self.disk_invalid,
                "disk_errors": self.disk_errors,
                "disk_skipped": self.disk_skipped,
                "retries": self.retry_stats.snapshot(),
            }
        )
        return stats

    def __repr__(self) -> str:
        return (
            f"<PersistentCheckpointStore at {str(self.directory)!r}: "
            f"{len(self._entries)} in memory, {self.disk_entries()} on disk>"
        )
