"""Named + versioned model artifacts on disk, with a hot cache.

The registry owns the serving layer's artifact lifecycle so the engine
can stay a pure library.  On disk a registered model is::

    <models_dir>/<name>/<version>.kamino          # native Kamino v2
    <models_dir>/<name>/<version>.synth           # repro.synth/1 payload
    <models_dir>/<name>/<version>.schema.json     # public schema sidecar
    <models_dir>/<name>/<version>.dcs.txt         # optional DC sidecar

``version`` is a **content digest** (the first 12 hex chars of the
model file's sha256), so a version id names exactly one set of bytes:
re-registering identical bytes is a no-op, a changed artifact gets a
new version, and the draw cache can key responses off the version
alone.  The schema (and DCs) ride as sidecars because the artifact
formats deliberately exclude the public inputs (see
:meth:`FittedSynthesizer.save <repro.synth.protocol.FittedSynthesizer.save>`).

Loaded artifacts live in an in-memory **hot cache**: LRU over
``(name, version)``, lazily populated on first request, bounded by
``hot_limit``.  Concurrent cold requests for the same model coalesce
onto one load (per-key single-flight locks) — no duplicate loads, no
torn reads.  All six registered backends serve through the one
:func:`repro.synth.load_fitted` dispatch; ``peek_method`` decides the
``.kamino`` / ``.synth`` suffix at registration time, so a lookup reads
no artifact bytes (a ``.synth`` method is peeked once per path).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.faults import fault_point
from repro.io.dc_text import load_dcs
from repro.io.schema_json import load_relation
from repro.synth import load_fitted, peek_method, resolve_backend
from repro.synth.registry import BackendUnavailable

#: Model-file suffix by artifact format: native Kamino model v2 files
#: keep their own loader; everything else is a ``repro.synth/1`` payload.
NATIVE_SUFFIX = ".kamino"
SYNTH_SUFFIX = ".synth"
_MODEL_SUFFIXES = (NATIVE_SUFFIX, SYNTH_SUFFIX)

#: Hex chars of the sha256 content digest used as the version id.
VERSION_DIGEST_CHARS = 12


class UnknownModelError(KeyError):
    """No registered model matches the requested (name, version)."""


class QuarantinedModelError(RuntimeError):
    """The artifact failed digest or load verification.

    Raised on every request for the (name, version) after the failing
    load, so clients get one clear error instead of the server
    re-reading broken bytes (or worse, a raw traceback) per request.
    Re-registering a good artifact produces a new content-digest
    version, which is not quarantined.
    """

    def __init__(self, name: str, version: str, reason: str):
        self.name = name
        self.version = version
        self.reason = reason
        super().__init__(
            f"model {name}:{version} is quarantined: {reason}")


def content_version(path: str) -> str:
    """The content-digest version id of an artifact file."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:VERSION_DIGEST_CHARS]


def _safe_name(name: str) -> str:
    if not name or name != os.path.basename(name) or name.startswith("."):
        raise ValueError(f"invalid model name {name!r}")
    return name


@dataclass(frozen=True)
class ModelRecord:
    """One registered (name, version): paths plus cheap metadata."""

    name: str
    version: str
    method: str
    path: str
    schema_path: str
    dcs_path: str | None

    @property
    def nbytes(self) -> int:
        return os.path.getsize(self.path)

    def supports_native_stream(self) -> bool | None:
        """Whether this model's fitted class streams natively.

        Resolved from the backend class (no artifact load); ``None``
        when the backend itself is unavailable (missing optional dep).
        """
        try:
            cls = resolve_backend(self.method).fitted_class()
        except (BackendUnavailable, KeyError, NotImplementedError):
            return None
        return bool(getattr(cls, "supports_native_stream", False))


class LoadedModel:
    """A hot registry entry: the record plus its fitted artifact."""

    __slots__ = ("record", "fitted", "relation", "dcs")

    def __init__(self, record: ModelRecord, fitted, relation, dcs):
        self.record = record
        self.fitted = fitted
        self.relation = relation
        self.dcs = dcs


class ModelRegistry:
    """Disk-backed model store + bounded in-memory hot cache.

    ``hot_limit`` bounds how many fitted artifacts stay resident; the
    least-recently-*requested* entry is evicted first (an in-flight
    draw keeps its own reference, so eviction never tears a running
    request).
    """

    def __init__(self, models_dir: str, hot_limit: int = 8):
        if hot_limit < 1:
            raise ValueError(f"hot_limit must be >= 1, got {hot_limit}")
        self.models_dir = models_dir
        self.hot_limit = int(hot_limit)
        os.makedirs(models_dir, exist_ok=True)
        self._lock = threading.Lock()
        self._hot: OrderedDict[tuple[str, str], LoadedModel] = OrderedDict()
        self._load_locks: dict[tuple[str, str], threading.Lock] = {}
        #: Completed artifact loads per (name, version) — the registry
        #: concurrency tests pin "parallel cold requests load once".
        self.load_counts: dict[tuple[str, str], int] = {}
        #: (name, version) -> reason for every artifact that failed
        #: digest/load verification; requests for them fail fast.
        self.quarantined: dict[tuple[str, str], str] = {}
        #: ``.synth`` path -> backend method; the file name is its
        #: content digest, so the peeked method never goes stale.
        self._methods: dict[str, str] = {}

    # -- registration ---------------------------------------------------
    def register(self, name: str, model_path: str, schema_path: str,
                 dcs_path: str | None = None) -> ModelRecord:
        """Copy an artifact (plus sidecars) into the store.

        Returns the record; registering bytes that are already present
        under ``name`` is an idempotent no-op returning the existing
        version.
        """
        name = _safe_name(name)
        for path in filter(None, (model_path, schema_path, dcs_path)):
            if not os.path.isfile(path):
                raise FileNotFoundError(path)
        method = peek_method(model_path) or "kamino"
        suffix = NATIVE_SUFFIX if method == "kamino" else SYNTH_SUFFIX
        version = content_version(model_path)
        directory = os.path.join(self.models_dir, name)
        os.makedirs(directory, exist_ok=True)
        base = os.path.join(directory, version)
        dest_dcs = base + ".dcs.txt" if dcs_path else None
        record = ModelRecord(name=name, version=version, method=method,
                             path=base + suffix,
                             schema_path=base + ".schema.json",
                             dcs_path=dest_dcs)
        if not os.path.exists(record.path):
            _copy_atomic(model_path, record.path)
        _copy_atomic(schema_path, record.schema_path)
        if dcs_path:
            _copy_atomic(dcs_path, dest_dcs)
        return record

    # -- lookup ---------------------------------------------------------
    def model_names(self) -> list[str]:
        try:
            entries = sorted(os.listdir(self.models_dir))
        except FileNotFoundError:
            return []
        return [e for e in entries
                if os.path.isdir(os.path.join(self.models_dir, e))
                and not e.startswith((".", "_"))]

    def versions(self, name: str) -> list[ModelRecord]:
        """All registered versions of ``name``, oldest registered first."""
        directory = os.path.join(self.models_dir, _safe_name(name))
        records = []
        try:
            entries = os.listdir(directory)
        except FileNotFoundError:
            raise UnknownModelError(f"unknown model {name!r}") from None
        for entry in sorted(entries):
            stem, suffix = os.path.splitext(entry)
            if suffix not in _MODEL_SUFFIXES:
                continue
            path = os.path.join(directory, entry)
            base = os.path.join(directory, stem)
            dcs = base + ".dcs.txt"
            records.append(ModelRecord(
                name=name, version=stem, method=self._method(path, suffix),
                path=path, schema_path=base + ".schema.json",
                dcs_path=dcs if os.path.exists(dcs) else None))
        if not records:
            raise UnknownModelError(f"unknown model {name!r}")
        records.sort(key=lambda r: os.path.getmtime(r.path))
        return records

    def _method(self, path: str, suffix: str) -> str:
        """The backend of a stored artifact without reading it per call:
        :meth:`register` stores Kamino models as ``.kamino``, and a
        ``.synth`` payload's method is peeked once per path."""
        if suffix == NATIVE_SUFFIX:
            return "kamino"
        method = self._methods.get(path)
        if method is None:
            # Two racing first lookups both peek and store the same value.
            method = peek_method(path) or "kamino"
            self._methods[path] = method
        return method

    def resolve(self, name: str, version: str | None = None) -> ModelRecord:
        """The record for ``(name, version)``; latest when no version."""
        records = self.versions(name)
        if version is None:
            return records[-1]
        for record in records:
            if record.version == version:
                return record
        raise UnknownModelError(
            f"model {name!r} has no version {version!r} "
            f"(registered: {', '.join(r.version for r in records)})")

    def list_models(self) -> list[dict]:
        """JSON-ready description of every registered (name, version)."""
        out = []
        with self._lock:
            hot = set(self._hot)
            quarantined = dict(self.quarantined)
        for name in self.model_names():
            for record in self.versions(name):
                key = (record.name, record.version)
                out.append({
                    "name": record.name,
                    "version": record.version,
                    "method": record.method,
                    "bytes": record.nbytes,
                    "supports_native_stream":
                        record.supports_native_stream(),
                    "loaded": key in hot,
                    "quarantined": quarantined.get(key),
                })
        return out

    # -- hot cache ------------------------------------------------------
    def get(self, name: str, version: str | None = None) -> LoadedModel:
        """The loaded artifact, loading lazily on first request.

        Single-flight per (name, version): under concurrent cold
        requests exactly one thread runs the load, the rest block on it
        and share the result.

        The artifact's bytes are verified against its content-digest
        version before loading; a digest mismatch or a failing load
        quarantines the (name, version) — this and every later request
        raise :class:`QuarantinedModelError` without re-reading the
        broken file.
        """
        record = self.resolve(name, version)
        key = (record.name, record.version)
        with self._lock:
            reason = self.quarantined.get(key)
            if reason is not None:
                raise QuarantinedModelError(record.name, record.version,
                                            reason)
            hit = self._hot.get(key)
            if hit is not None:
                self._hot.move_to_end(key)
                return hit
            load_lock = self._load_locks.setdefault(key, threading.Lock())
        with load_lock:
            with self._lock:
                reason = self.quarantined.get(key)
                if reason is not None:
                    raise QuarantinedModelError(record.name,
                                                record.version, reason)
                hit = self._hot.get(key)
                if hit is not None:
                    self._hot.move_to_end(key)
                    return hit
            try:
                fault_point("registry.load")
                self._verify(record)
                loaded = LoadedModel(record, *self._load(record))
            except BackendUnavailable:
                # An environment gap (missing optional dependency), not
                # a broken artifact: don't quarantine, let the server
                # answer 501 as before.
                raise
            except Exception as exc:
                reason = f"{type(exc).__name__}: {exc}"
                with self._lock:
                    self.quarantined[key] = reason
                raise QuarantinedModelError(record.name, record.version,
                                            reason) from exc
            with self._lock:
                self._hot[key] = loaded
                self._hot.move_to_end(key)
                self.load_counts[key] = self.load_counts.get(key, 0) + 1
                while len(self._hot) > self.hot_limit:
                    self._hot.popitem(last=False)
            return loaded

    def hot_keys(self) -> list[tuple[str, str]]:
        """Resident (name, version) keys, least recently used first."""
        with self._lock:
            return list(self._hot)

    def evict(self, name: str, version: str | None = None) -> bool:
        """Drop a hot entry (the disk artifact stays registered)."""
        with self._lock:
            if version is None:
                keys = [k for k in self._hot if k[0] == name]
            else:
                keys = [(name, version)] if (name, version) in self._hot \
                    else []
            for key in keys:
                del self._hot[key]
            return bool(keys)

    def _verify(self, record: ModelRecord) -> None:
        """Check the artifact's bytes still hash to its version id."""
        actual = content_version(record.path)
        if actual != record.version:
            raise ValueError(
                f"artifact bytes hash to {actual!r} but the registered "
                f"content-digest version is {record.version!r} "
                f"(on-disk corruption or tampering)")

    def _load(self, record: ModelRecord):
        if not os.path.exists(record.schema_path):
            raise FileNotFoundError(
                f"model {record.name}:{record.version} has no schema "
                f"sidecar ({record.schema_path})")
        relation = load_relation(record.schema_path)
        dcs = load_dcs(record.dcs_path, relation=relation) \
            if record.dcs_path else []
        fitted = load_fitted(record.path, relation, dcs=dcs)
        return fitted, relation, dcs


def _copy_atomic(src: str, dest: str) -> None:
    """Copy via a temp file + rename so readers never see a torn file."""
    tmp = f"{dest}.tmp.{os.getpid()}.{threading.get_ident()}"
    shutil.copyfile(src, tmp)
    os.replace(tmp, dest)
