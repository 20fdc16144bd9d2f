"""The unified content-addressed artifact store.

One store module owns every byte the reproduction persists.  The three
formerly separate layers -- the campaign run store, the evaluation cache's
disk JSONL and the runner ``--json`` payload archive -- are all views over
one append-only JSONL file of ``(kind, key, schema, body)`` record
envelopes keyed by content hash (campaign job id, subgraph structural
fingerprint x backend signature, payload digest, DSE probe key).

* :mod:`repro.store.record` -- the envelope, the content-key scheme and
  the ``payload`` records that archive runner ``--json`` payloads;
* :mod:`repro.store.jsonl` -- crash-safe O_APPEND writes and the
  torn-trailing-line-tolerant parser (shared durability semantics);
* :mod:`repro.store.store` -- :class:`ArtifactStore`: last-wins key
  lookup, offline compaction (atomic rewrite-and-rename), size/age GC,
  and per-worker shard :meth:`~ArtifactStore.merge` for distributed
  executors;
* :mod:`repro.store.cli` -- the ``runner store`` subcommand
  (``ls`` / ``verify`` / ``compact`` / ``gc``).

Each record kind's body schema and key helpers live with the code that
owns the kind (:mod:`repro.campaign.store`, :mod:`repro.synth.cache`,
:mod:`repro.dse.search`, :mod:`repro.service.protocol`).  See
``docs/file-formats.md`` for the on-disk format.
"""

from repro.store.jsonl import (append_line, append_lines, parse_jsonl_tail,
                               truncate_torn_tail)
from repro.store.lock import FileLock, LockTimeoutError
from repro.store.record import (KEY_BYTES, STORE_KINDS, StoreRecord,
                                canonical_json, content_key, is_store_record,
                                payload_key, payload_record)
from repro.store.store import ArtifactStore, GcPolicy, StoreReport

__all__ = [
    "ArtifactStore",
    "FileLock",
    "GcPolicy",
    "LockTimeoutError",
    "KEY_BYTES",
    "STORE_KINDS",
    "StoreRecord",
    "StoreReport",
    "append_line",
    "append_lines",
    "canonical_json",
    "content_key",
    "is_store_record",
    "parse_jsonl_tail",
    "payload_key",
    "payload_record",
    "truncate_torn_tail",
]
