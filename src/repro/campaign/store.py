"""Resumable JSON-lines result store for campaign points.

One line per completed point::

    {"key": <content hash>, "campaign": ..., "spec": {...},
     "seed": ..., "result": {...}, "telemetry": {...}}

Completed points stream in as workers finish, so an interrupted
campaign loses at most the in-flight points; rerunning with the same
spec skips everything already on disk (checkpoint/resume).  The
*canonical* view — records sorted by content key with the telemetry
field stripped — is scheduling-independent: a 4-worker run and a serial
run of the same spec produce byte-identical canonical dumps, which the
determinism tests and the perf canary both enforce (DESIGN.md §8).

When metrics are enabled (DESIGN.md §9) each record's ``telemetry``
additionally carries a ``metrics`` snapshot of the point's per-process
registry; living under ``telemetry`` keeps it out of the canonical view,
so enabling metrics never changes a store's fingerprint.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set, Union

from repro.errors import ConfigurationError

#: Per-record fields that legitimately differ between runs (wall-clock
#: timings, worker identity) and are excluded from the canonical view.
TELEMETRY_FIELDS = ("telemetry",)


class ResultStore:
    """Content-keyed store of completed campaign points.

    Args:
        path: JSONL file backing the store; parent directories are
            created on first append.  ``None`` keeps the store purely
            in memory (examples, tests).
    """

    def __init__(self, path: Optional[Union[str, Path]] = None):
        self.path = Path(path) if path is not None else None
        self._records: Dict[str, Dict[str, Any]] = {}
        if self.path is not None and self.path.exists():
            self._load()

    # -- persistence ---------------------------------------------------

    def _load(self) -> None:
        """Read back completed points, dropping any torn trailing line
        an interrupted run may have left behind."""
        kept: List[str] = []
        dropped = 0
        text = self.path.read_text()
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                key = record["key"]
            except (json.JSONDecodeError, KeyError, TypeError):
                dropped += 1
                continue
            self._records[key] = record
            kept.append(line)
        if dropped or not text.endswith("\n"):
            # Compact away the torn lines so the file is clean JSONL
            # again.  A complete last record without its newline is
            # rewritten too: the next append would otherwise land on
            # its line and the following load would drop both.
            self.path.write_text("".join(line + "\n" for line in kept))

    def append(self, record: Dict[str, Any]) -> None:
        """Add one completed point and flush it to disk immediately."""
        if "key" not in record:
            raise ConfigurationError("store records need a 'key' field")
        self._records[record["key"]] = record
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
                fh.flush()

    def invalidate(self) -> None:
        """Forget everything (``--fresh``): clears memory and deletes
        the backing file."""
        self._records.clear()
        if self.path is not None and self.path.exists():
            self.path.unlink()

    # -- read access ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self._records.values())

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        return self._records.get(key)

    def completed_keys(self) -> Set[str]:
        return set(self._records)

    def metrics_for(self, key: str) -> Optional[Dict[str, Any]]:
        """A point's metrics snapshot, or None if the point is missing
        or was run with metrics disabled."""
        record = self._records.get(key)
        if record is None:
            return None
        return record.get("telemetry", {}).get("metrics")

    # -- canonical (scheduling-independent) view -----------------------

    def canonical_records(self) -> List[Dict[str, Any]]:
        """Records sorted by content key, telemetry stripped."""
        cleaned = []
        for key in sorted(self._records):
            record = {
                k: v for k, v in self._records[key].items() if k not in TELEMETRY_FIELDS
            }
            cleaned.append(record)
        return cleaned

    def canonical_bytes(self) -> bytes:
        """Deterministic byte serialization of the canonical view."""
        lines = [
            json.dumps(record, sort_keys=True, separators=(",", ":"))
            for record in self.canonical_records()
        ]
        return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""

    def fingerprint(self) -> str:
        """sha256 of :meth:`canonical_bytes` — equal fingerprints mean
        equal results, whatever the worker count or completion order."""
        return hashlib.sha256(self.canonical_bytes()).hexdigest()
