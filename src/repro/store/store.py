"""The content-addressed artifact store: one file owns all persistence.

An :class:`ArtifactStore` is an append-only JSONL file of
:class:`~repro.store.record.StoreRecord` envelopes, keyed by ``(kind,
key)`` with last-record-wins semantics.  It is the single durability layer
behind the campaign run store (``campaign-header`` / ``campaign-job``
records), the synthesis evaluation cache (``synth-eval``), archived runner
payloads (``payload``) and DSE probes (``dse-probe``) -- see
``docs/file-formats.md``.

Durability model (inherited from the campaign store and now shared by
everyone): records are appended via O_APPEND in a single write and
flushed, so a kill tears at most the final line; loading tolerates exactly
that torn tail (:mod:`repro.store.jsonl`).  Because appends never rewrite
existing bytes, per-worker shard files are safe to produce concurrently
and fold together afterwards with :meth:`ArtifactStore.merge`.

Maintenance is offline: :meth:`compact` rewrites the file without
superseded duplicate keys (write-to-temp then :func:`os.replace`, so a
kill mid-compaction leaves the original intact), and :meth:`gc` applies a
size/age policy on top of compaction.

    >>> store = ArtifactStore()               # in-memory: no durability
    >>> from repro.store.record import StoreRecord
    >>> store.put(StoreRecord("payload", "ab12", 1, {"x": 1}))
    >>> store.get("payload", "ab12").body
    {'x': 1}
    >>> len(store)
    1
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.store.jsonl import (append_line, parse_jsonl_tail,
                               truncate_torn_tail)
from repro.store.lock import FileLock
from repro.store.record import StoreRecord, is_store_record


@dataclass(frozen=True)
class GcPolicy:
    """Size/age retention policy applied by :meth:`ArtifactStore.gc`.

    Attributes:
        max_bytes: target upper bound on the compacted file size; oldest
            unpinned records are dropped until the store fits (``None`` =
            unbounded).
        max_records: like ``max_bytes`` but counting records.
        max_age_s: drop records whose envelope timestamp ``t`` is older
            than this many seconds; records without a timestamp never
            age out (``None`` = no age limit).
        pinned_kinds: kinds never dropped by size/age pressure (campaign
            headers by default -- dropping one would orphan every job
            record of its campaign).
    """

    max_bytes: int | None = None
    max_records: int | None = None
    max_age_s: float | None = None
    pinned_kinds: tuple[str, ...] = ("campaign-header",)


@dataclass
class StoreReport:
    """Outcome of a maintenance operation (compact/gc/verify/merge)."""

    num_records: int = 0
    dropped: int = 0
    skipped_lines: int = 0
    torn_tail: bool = False
    bytes_before: int = 0
    bytes_after: int = 0
    kinds: dict = field(default_factory=dict)


class _NullLock:
    """Context-manager stand-in when locking is disabled (in-memory stores)."""

    def __enter__(self) -> "_NullLock":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def acquire(self) -> None:
        return None

    def release(self) -> None:
        return None


class ArtifactStore:
    """Append-only content-addressed record store over one JSONL file.

    Args:
        path: backing file; ``None`` keeps everything in memory (no
            durability -- the same protocol, useful for API runs and
            tests).
        fsync: fsync every append (durability past the OS cache).
        locking: coordinate with other writer processes through an
            advisory ``<path>.lock`` sidecar (:mod:`repro.store.lock`).
            Appends, torn-tail truncation and compaction rewrites take
            the lock, so several service workers or daemons can share one
            store file without interleaving torn records.  Disable only
            for provably single-writer files (saves two syscalls per
            append).

    Attributes:
        path: the backing file (or ``None``).
        records: ``(kind, key) -> StoreRecord``, last record wins; the
            dict preserves first-appearance order, which is file order.
        skipped_lines: lines dropped by a tolerant load.
    """

    def __init__(self, path: str | Path | None = None,
                 fsync: bool = False, locking: bool = True) -> None:
        self.path = Path(path) if path is not None else None
        self.fsync = fsync
        self.locking = locking and self.path is not None
        self._lock = FileLock(self.path) if self.locking else None
        self.records: dict[tuple[str, str], StoreRecord] = {}
        self.skipped_lines = 0
        self._duplicates = 0

    def lock(self) -> FileLock | _NullLock:
        """The store's advisory inter-process lock (no-op when disabled).

        Exposed so multi-step read-modify-write sequences (a service
        daemon folding shards, an operator script) can hold the lock
        across several store calls; the lock is reentrant, so the calls'
        own acquisitions nest for free.
        """
        return self._lock if self._lock is not None else _NullLock()

    # -------------------------------------------------------------- loading

    @classmethod
    def load(cls, path: str | Path, tolerant: bool = False,
             fsync: bool = False) -> "ArtifactStore":
        """Open an existing store file read-only (torn tail ignored).

        Args:
            path: the store file.
            tolerant: skip unparseable / non-envelope lines instead of
                raising (the evaluation-cache mode); strict mode raises on
                mid-file corruption and on lines that are valid JSON but
                not store envelopes.

        Raises:
            FileNotFoundError: no file at ``path``.
            ValueError: strict mode only -- corrupt before the final
                line, or a non-envelope record.
        """
        store = cls(path, fsync=fsync)
        store._read(tolerant=tolerant)
        return store

    def open_for_append(self, tolerant: bool = False) -> "ArtifactStore":
        """Load the backing file (if any) and clear any torn tail.

        Unlike :meth:`load` this prepares the file for appends: a torn
        trailing line is truncated away so future appends start on a
        clean boundary.  Missing files are simply empty stores.  The
        load-truncate window runs under the store's advisory file lock
        (when ``locking`` is on), so a concurrent writer's fresh appends
        can never be mistaken for a torn tail and rewritten away.
        Returns ``self`` for chaining.
        """
        if self.path is None:
            return self
        with self.lock():
            if not self.path.exists():
                return self
            _, complete, tail = self._read(tolerant=tolerant)
            truncate_torn_tail(self.path, complete, tail)
        return self

    def _read(self, tolerant: bool) -> tuple[list[dict], list[bytes], bytes]:
        records, complete, tail, skipped = parse_jsonl_tail(
            self.path, tolerant=tolerant)
        self.records.clear()
        self._duplicates = 0
        kept: list[bytes] = []
        for envelope, line in zip(records, complete):
            if not is_store_record(envelope):
                if not tolerant:
                    raise ValueError(
                        f"store file {self.path} contains a non-envelope "
                        f"record: {str(envelope)[:80]!r}")
                skipped += 1
                continue
            record = StoreRecord.from_dict(envelope)
            if record.identity in self.records:
                self._duplicates += 1
            self.records[record.identity] = record
            kept.append(line)
        self.skipped_lines = skipped
        return records, complete, tail

    # -------------------------------------------------------------- writing

    def put(self, record: StoreRecord) -> None:
        """Add one record (appended to disk and flushed immediately)."""
        if record.identity in self.records:
            self._duplicates += 1
        self.records[record.identity] = record
        if self.path is not None:
            with self.lock():
                append_line(self.path, record.to_line(), fsync=self.fsync)

    def put_many(self, records: Iterable[StoreRecord]) -> int:
        """Add several records in one appending pass; returns the count."""
        added = 0
        lines = []
        for record in records:
            if record.identity in self.records:
                self._duplicates += 1
            self.records[record.identity] = record
            lines.append(record.to_line())
            added += 1
        if self.path is not None and lines:
            from repro.store.jsonl import append_lines

            with self.lock():
                append_lines(self.path, lines, fsync=self.fsync)
        return added

    # -------------------------------------------------------------- reading

    def get(self, kind: str, key: str) -> StoreRecord | None:
        """The current record under ``(kind, key)``, or ``None``."""
        return self.records.get((kind, key))

    def kind(self, kind: str) -> Iterator[StoreRecord]:
        """All current records of one kind, in first-appearance order."""
        return (record for record in self.records.values()
                if record.kind == kind)

    def kinds(self) -> dict[str, int]:
        """Histogram of record kinds."""
        histogram: dict[str, int] = {}
        for record in self.records.values():
            histogram[record.kind] = histogram.get(record.kind, 0) + 1
        return histogram

    def __len__(self) -> int:
        return len(self.records)

    def __contains__(self, identity: tuple[str, str]) -> bool:
        return identity in self.records

    # -------------------------------------------------------- maintenance

    def compact(self) -> StoreReport:
        """Rewrite the file without superseded duplicates (atomic rename).

        The surviving record of every ``(kind, key)`` is the last one
        appended; output order is first-appearance order, so a campaign
        header stays ahead of its job records.  The rewrite goes to a
        temporary sibling and lands via :func:`os.replace` -- a kill
        mid-compaction leaves the original file untouched.
        """
        report = StoreReport(num_records=len(self.records),
                            dropped=self._duplicates,
                            skipped_lines=self.skipped_lines,
                            kinds=self.kinds())
        if self.path is None:
            self._duplicates = 0
            return report
        report.bytes_before = (self.path.stat().st_size
                               if self.path.exists() else 0)
        self._rewrite(self.records.values())
        report.bytes_after = self.path.stat().st_size
        self._duplicates = 0
        self.skipped_lines = 0
        return report

    def gc(self, policy: GcPolicy, now: float | None = None) -> StoreReport:
        """Apply a size/age retention policy (implies compaction).

        Records are dropped in this order until the policy is satisfied:
        first everything past ``max_age_s`` (by envelope timestamp ``t``;
        untimestamped records never age out), then -- under size pressure
        -- the oldest unpinned records by append order.  ``pinned_kinds``
        survive everything.

        Args:
            policy: the retention policy.
            now: reference time for the age check (defaults to
                :func:`time.time`).
        """
        now = time.time() if now is None else now
        survivors: dict[tuple[str, str], StoreRecord] = {}
        dropped = 0
        for identity, record in self.records.items():
            expired = (policy.max_age_s is not None
                       and record.t is not None
                       and now - record.t > policy.max_age_s)
            if expired and record.kind not in policy.pinned_kinds:
                dropped += 1
                continue
            survivors[identity] = record

        def over_budget() -> bool:
            if policy.max_records is not None \
                    and len(survivors) > policy.max_records:
                return True
            if policy.max_bytes is not None:
                size = sum(len(r.to_line()) for r in survivors.values())
                return size > policy.max_bytes
            return False

        # Oldest-first eviction under size pressure, pinned kinds immune.
        for identity in list(survivors):
            if not over_budget():
                break
            if survivors[identity].kind in policy.pinned_kinds:
                continue
            del survivors[identity]
            dropped += 1

        report = StoreReport(num_records=len(survivors),
                            dropped=dropped + self._duplicates,
                            skipped_lines=self.skipped_lines)
        if self.path is not None:
            report.bytes_before = (self.path.stat().st_size
                                   if self.path.exists() else 0)
        self.records = survivors
        report.kinds = self.kinds()
        if self.path is not None:
            self._rewrite(self.records.values())
            report.bytes_after = self.path.stat().st_size
        self._duplicates = 0
        self.skipped_lines = 0
        return report

    def merge(self, shard_paths: Sequence[str | Path],
              tolerant: bool = True) -> int:
        """Fold per-worker shard files into this store.

        Every shard record whose ``(kind, key)`` this store has not seen
        is appended; known identities are kept as-is (the main store
        wins, so merging is idempotent).  Shards with torn tails load
        fine -- their torn line is simply ignored.

        Returns:
            Number of records appended.
        """
        fresh: list[StoreRecord] = []
        for shard_path in shard_paths:
            shard = ArtifactStore.load(shard_path, tolerant=tolerant)
            for record in shard.records.values():
                if record.identity not in self.records \
                        and all(record.identity != r.identity for r in fresh):
                    fresh.append(record)
        return self.put_many(fresh)

    def verify(self) -> StoreReport:
        """Re-check the backing file and report its health.

        Returns a :class:`StoreReport` with the record count, duplicate
        (superseded) count, tolerated skipped lines, torn-tail flag and
        kind histogram.  Never modifies the file.

        Raises:
            ValueError: mid-file corruption (strict parse).
        """
        report = StoreReport(num_records=len(self.records),
                            dropped=self._duplicates,
                            kinds=self.kinds())
        if self.path is None or not self.path.exists():
            return report
        records, _, tail, _ = parse_jsonl_tail(self.path, tolerant=False)
        seen: dict[tuple[str, str], int] = {}
        invalid = 0
        for envelope in records:
            if not is_store_record(envelope):
                invalid += 1
                continue
            identity = (envelope["kind"], envelope["key"])
            seen[identity] = seen.get(identity, 0) + 1
        report.num_records = len(seen)
        report.dropped = sum(count - 1 for count in seen.values())
        report.skipped_lines = invalid
        report.torn_tail = bool(tail)
        report.bytes_before = report.bytes_after = self.path.stat().st_size
        kinds: dict[str, int] = {}
        for kind, _ in seen:
            kinds[kind] = kinds.get(kind, 0) + 1
        report.kinds = kinds
        return report

    def _rewrite(self, records: Iterable[StoreRecord]) -> None:
        """Write ``records`` to a temp sibling and atomically replace.

        Runs under the advisory lock: replacing the file while another
        process appends through an O_APPEND descriptor would strand its
        appends in the unlinked inode.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        temporary = self.path.with_name(self.path.name + ".compact-tmp")
        with self.lock():
            with temporary.open("w") as handle:
                for record in records:
                    handle.write(record.to_line())
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temporary, self.path)


__all__ = ["ArtifactStore", "GcPolicy", "StoreReport"]
