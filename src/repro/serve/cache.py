"""The deterministic draw cache: (model version, n, seed, format, render
chunking) → bytes.

Under the counter-based Philox streams a draw is a pure function of
``(model bytes, n, seed)``, and the registry's version ids *are* the
model bytes (content digests) — so a rendered response is immutable and
perfectly cacheable.  A body longer than one render chunk can differ
in the last bits of numerical sub-model heads with the chunking, so
the key covers the server's ``chunk_rows`` too.  The cache stores each
response body as one file plus a tiny ``.meta.json`` sidecar carrying
its **strong ETag** (the sha256 of the body) and content type;
``If-None-Match`` revalidation is an index lookup away and never
re-touches the engine.

Bounded: ``max_bytes`` caps the total body bytes on disk; insertion
evicts least-recently-*served* entries first.  The index is in-memory
(rebuilt from the directory on startup, oldest-mtime first) and guarded
by one lock; bodies are written to a temp file in the same directory
and published with ``os.replace`` so readers never observe a torn
entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.faults import fault_point

#: Default size bound: 256 MiB of cached response bodies.
DEFAULT_MAX_BYTES = 256 << 20

_META_SUFFIX = ".meta.json"


def draw_key(version: str, n, seed, fmt: str, chunk_rows) -> str:
    """The cache key of one deterministic draw request.

    ``version`` is the registry's content-digest version id, so the key
    covers the model bytes; ``n``/``seed`` may be ``None`` (the
    artifact's defaults — themselves part of the model bytes), and so
    may ``chunk_rows``, the rows per render chunk (the backend's
    default).
    """
    raw = f"{version}|n={n}|seed={seed}|fmt={fmt}|chunk_rows={chunk_rows}"
    return hashlib.sha256(raw.encode()).hexdigest()[:32]


def body_etag(path: str) -> str:
    """Strong ETag of a response body: quoted sha256 of the bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return f'"{digest.hexdigest()}"'


@dataclass(frozen=True)
class CachedDraw:
    """One materialized response: the body file plus its HTTP facts."""

    key: str
    path: str
    etag: str
    nbytes: int
    content_type: str


class DrawCache:
    """Size-bounded LRU store of rendered draw responses."""

    def __init__(self, cache_dir: str, max_bytes: int = DEFAULT_MAX_BYTES):
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.cache_dir = cache_dir
        self.max_bytes = int(max_bytes)
        os.makedirs(cache_dir, exist_ok=True)
        self._lock = threading.Lock()
        self._index: OrderedDict[str, CachedDraw] = OrderedDict()
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Entries dropped at rebuild because their bytes no longer
        #: hash to their recorded ETag (truncated/corrupted on disk).
        self.corrupt_dropped = 0
        self._scan()

    # -- lookup ---------------------------------------------------------
    def get(self, key: str) -> CachedDraw | None:
        """The cached response for ``key``, refreshing its LRU slot.

        Counts a hit or miss — call once per served request.
        """
        with self._lock:
            entry = self._index.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._index.move_to_end(key)
            self.hits += 1
            return entry

    def peek(self, key: str) -> CachedDraw | None:
        """Like :meth:`get` but with no hit/miss accounting."""
        with self._lock:
            return self._index.get(key)

    # -- insertion ------------------------------------------------------
    def begin(self, key: str) -> str:
        """A private temp path (same directory, atomically publishable)
        for rendering the body of ``key``."""
        return os.path.join(
            self.cache_dir,
            f".tmp-{key}-{os.getpid()}-{threading.get_ident()}")

    def put(self, key: str, tmp_path: str, content_type: str) -> CachedDraw:
        """Publish a rendered body; returns the committed entry.

        Hashes the body for the strong ETag, moves the file into place,
        writes the meta sidecar, and evicts LRU entries past
        ``max_bytes``.  A concurrent identical ``put`` (same key ⇒ same
        bytes, by determinism) simply replaces the file.
        """
        fault_point("cache.put")
        etag = body_etag(tmp_path)
        nbytes = os.path.getsize(tmp_path)
        path = os.path.join(self.cache_dir, key)
        entry = CachedDraw(key=key, path=path, etag=etag, nbytes=nbytes,
                           content_type=content_type)
        os.replace(tmp_path, path)
        with open(path + _META_SUFFIX + ".tmp", "w") as f:
            json.dump({"etag": etag, "content_type": content_type}, f)
        os.replace(path + _META_SUFFIX + ".tmp", path + _META_SUFFIX)
        with self._lock:
            old = self._index.pop(key, None)
            if old is not None:
                self.total_bytes -= old.nbytes
            self._index[key] = entry
            self.total_bytes += nbytes
            self._evict_locked()
        return entry

    def discard(self, tmp_path: str) -> None:
        """Drop a failed render's temp file, if it got as far as disk."""
        try:
            os.unlink(tmp_path)
        except FileNotFoundError:
            pass

    # -- internals ------------------------------------------------------
    def _evict_locked(self) -> None:
        while self.total_bytes > self.max_bytes and len(self._index) > 1:
            key, entry = self._index.popitem(last=False)
            self.total_bytes -= entry.nbytes
            self.evictions += 1
            for path in (entry.path, entry.path + _META_SUFFIX):
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    pass
        # A single entry larger than the whole budget still serves (it
        # is already rendered); it just evicts everything else.

    def _scan(self) -> None:
        """Rebuild the index from disk, oldest served (mtime) first.

        Every candidate body is re-hashed against the ETag its sidecar
        recorded; a mismatch (truncated write, bit rot, a partial copy)
        deletes the entry and bumps ``corrupt_dropped`` instead of ever
        serving corrupted bytes with a strong validator.
        """
        entries = []
        for name in os.listdir(self.cache_dir):
            if name.endswith(_META_SUFFIX) or name.startswith("."):
                continue
            path = os.path.join(self.cache_dir, name)
            meta_path = path + _META_SUFFIX
            if not os.path.isfile(path) or not os.path.isfile(meta_path):
                continue
            try:
                with open(meta_path) as f:
                    meta = json.load(f)
                recorded = meta["etag"]
                actual = body_etag(path)
            except (OSError, ValueError, KeyError):
                continue
            if actual != recorded:
                self.corrupt_dropped += 1
                for stale in (path, meta_path):
                    try:
                        os.unlink(stale)
                    except OSError:
                        pass
                continue
            entries.append((os.path.getmtime(path), CachedDraw(
                key=name, path=path, etag=recorded,
                nbytes=os.path.getsize(path),
                content_type=meta.get("content_type",
                                      "application/octet-stream"))))
        entries.sort(key=lambda pair: pair[0])
        for _, entry in entries:
            self._index[entry.key] = entry
            self.total_bytes += entry.nbytes
        with self._lock:
            self._evict_locked()

    # -- metrics --------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._index),
                "bytes": self.total_bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "corrupt_dropped": self.corrupt_dropped,
                "hit_rate": round(self.hits / total, 4) if total else 0.0,
            }
