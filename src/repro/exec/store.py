"""Persistent, content-addressed result store.

One JSON file per job digest under a root directory (by convention
``benchmarks/results/cache/``).  Each entry records a schema version, the
digest it was written under, optional metadata (the spec, for humans), and
the payload — so a warm sweep replays entirely from disk and a cold cell
is simulated exactly once across *all* harness invocations.

Robustness rules:

* **Schema versioning** — entries written by an incompatible payload
  layout are treated as absent and quarantined, never misread.
* **Corrupt-entry recovery** — truncated or garbled files (killed writer,
  disk hiccup) are detected on load, moved into ``quarantine/`` for
  post-mortem, and the cell is recomputed.
* **Atomic writes** — entries are written to a temp file and renamed, so a
  crash mid-write can never leave a half-entry under a valid digest name.
* **Explicit invalidation** — parameter/config changes land at different
  digests automatically; :meth:`ResultStore.invalidate` and
  :meth:`ResultStore.clear` drop entries by hand.
* **Thread-safe accounting** — one store instance may be shared across
  threads (the serving tier reads it from the event loop while drain
  tasks write): entries are atomic-replace on disk, temp names are
  unique per (process, write), and the hit/miss/write/quarantine
  counters mutate under a lock so concurrent accounting stays exact.
* **Shared read-through tier** — a store built with ``shared=`` checks a
  second (typically cluster-wide) store on a local miss, *promotes* the
  entry into its own directory so the next read is local, and mirrors
  its own writes into the tier.  This is how sharded serve workers
  exchange warmth: every shard keeps a private directory for locality,
  but a result computed by any shard is readable by all of them — a key
  remapped to a ring successor after a shard death is served warm, not
  recomputed.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

#: Bump whenever the payload layout written by the codecs changes shape.
SCHEMA_VERSION = 1

#: The store root ``sweep``/``control``/``serve``/``campaign`` share by default.
DEFAULT_CACHE = "benchmarks/results/cache"

# Process-global: two store instances over the SAME directory (e.g. two
# shards' views of one shared tier) must never mint the same temp name.
_TMP_SEQ = itertools.count(1)


@dataclass
class StoreStats:
    """Hit/miss/recovery counters over this store instance's lifetime."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    quarantined: int = 0
    shared_hits: int = 0      # read-through hits served by the shared tier

    def as_dict(self) -> dict[str, int]:
        """Counters as a plain dict (for telemetry export)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "quarantined": self.quarantined,
            "shared_hits": self.shared_hits,
        }


class ResultStore:
    """On-disk cache of job payloads, addressed by content digest."""

    def __init__(self, root: str | Path, schema_version: int = SCHEMA_VERSION,
                 shared: "ResultStore | str | Path | None" = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.schema_version = schema_version
        if shared is not None and not isinstance(shared, ResultStore):
            shared = ResultStore(shared, schema_version)
        if shared is not None and shared.root == self.root:
            raise ValueError("a store cannot use itself as its shared tier")
        self.shared = shared
        self.stats = StoreStats()
        self._stats_lock = threading.Lock()

    def path_for(self, digest: str) -> Path:
        """The entry file a digest maps to."""
        return self.root / f"{digest}.json"

    @property
    def quarantine_dir(self) -> Path:
        """Where unreadable entries are moved for post-mortem."""
        return self.root / "quarantine"

    # -- read ---------------------------------------------------------------

    def load(self, digest: str) -> Optional[dict]:
        """The payload stored under ``digest``, or None (miss).

        A present-but-unreadable entry (corrupt JSON, truncated file, wrong
        schema version, digest mismatch) is quarantined and reported as a
        miss, so callers transparently recompute.  With a ``shared`` tier,
        a local miss falls through to the tier; a tier hit is *promoted*
        (written into this store's own directory) so the next read is
        local, and counted as both a hit and a ``shared_hit``.
        """
        path = self.path_for(digest)
        try:
            entry = json.loads(path.read_text())
            if entry.get("schema") != self.schema_version:
                raise ValueError(f"schema {entry.get('schema')!r}, "
                                 f"store expects {self.schema_version}")
            if entry.get("digest") != digest:
                raise ValueError("entry digest does not match its filename")
            payload = entry["payload"]
        except FileNotFoundError:
            return self._load_shared(digest)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                UnicodeDecodeError, OSError):
            self._quarantine(path)
            return self._load_shared(digest)
        with self._stats_lock:
            self.stats.hits += 1
        return payload

    def _load_shared(self, digest: str) -> Optional[dict]:
        """Read-through to the shared tier after a local miss."""
        if self.shared is not None:
            payload = self.shared.load(digest)
            if payload is not None:
                self._write_entry(digest, payload,
                                  meta={"promoted_from": str(self.shared.root)})
                with self._stats_lock:
                    self.stats.hits += 1
                    self.stats.shared_hits += 1
                return payload
        with self._stats_lock:
            self.stats.misses += 1
        return None

    def _quarantine(self, path: Path) -> None:
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        target = self.quarantine_dir / path.name
        n = 0
        while target.exists():
            n += 1
            target = self.quarantine_dir / f"{path.stem}.{n}{path.suffix}"
        try:
            path.rename(target)
        except OSError:  # pragma: no cover - racing deleter
            return
        with self._stats_lock:
            self.stats.quarantined += 1

    # -- write --------------------------------------------------------------

    def save(self, digest: str, payload: dict,
             meta: Optional[dict] = None) -> Path:
        """Persist ``payload`` under ``digest`` (atomic replace).

        With a ``shared`` tier the entry is mirrored into the tier too, so
        results computed behind this store become visible to every store
        reading through the same tier.
        """
        path = self._write_entry(digest, payload, meta)
        if self.shared is not None:
            self.shared.save(digest, payload, meta)
        return path

    def _write_entry(self, digest: str, payload: dict,
                     meta: Optional[dict] = None) -> Path:
        """Atomic write into this store's own directory only."""
        path = self.path_for(digest)
        entry = {
            "schema": self.schema_version,
            "digest": digest,
            "meta": meta or {},
            "payload": payload,
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{next(_TMP_SEQ)}")
        tmp.write_text(json.dumps(entry, indent=1) + "\n")
        tmp.replace(path)
        with self._stats_lock:
            self.stats.writes += 1
        return path

    # -- maintenance --------------------------------------------------------

    def invalidate(self, digest: str) -> bool:
        """Drop one entry; True if it existed."""
        path = self.path_for(digest)
        try:
            path.unlink()
        except FileNotFoundError:
            return False
        return True

    def clear(self) -> int:
        """Drop every entry (quarantine included); returns the count."""
        count = 0
        for path in list(self.entries()):
            path.unlink()
            count += 1
        if self.quarantine_dir.exists():
            for path in self.quarantine_dir.glob("*.json"):
                path.unlink()
        return count

    def entries(self) -> Iterator[Path]:
        """Entry files currently on disk (quarantine excluded)."""
        return iter(sorted(self.root.glob("*.json")))

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (f"ResultStore({str(self.root)!r}, entries={len(self)}, "
                f"stats={self.stats})")
