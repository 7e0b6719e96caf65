"""Synthesis-as-a-service: the long-running serving layer.

``fit`` is expensive and spends privacy budget; a draw is a pure
function of ``(model bytes, n, seed)`` under the engine's counter-based
Philox streams.  This package amortizes that asymmetry into a service —
the server owns artifact lifecycle, the engine stays a pure library:

* :mod:`repro.serve.registry` — named + content-digest-versioned
  artifacts on disk, an LRU hot cache of loaded fitted models,
  single-flight cold loads;
* :mod:`repro.serve.queue` — request coalescing, per-model
  serialization, bounded-depth backpressure (429/503);
* :mod:`repro.serve.cache` — the deterministic draw cache: rendered
  response bodies keyed by ``(version, n, seed, format, chunk_rows)``
  with strong ETags and LRU size bounding;
* :mod:`repro.serve.server` — the stdlib ``ThreadingHTTPServer``
  exposing ``/models``, ``/sample``, ``/healthz``, ``/metrics``
  (wired up as ``repro-kamino serve``);
* :mod:`repro.serve.metrics` — per-model counters folded from
  :class:`repro.obs.trace.RunTrace` request telemetry;
* :mod:`repro.serve.client` — the thin stdlib client the tests and CI
  smoke use.

See ``docs/SERVING.md`` for the HTTP contract.
"""

from repro.serve.cache import CachedDraw, DrawCache, body_etag, draw_key
from repro.serve.client import ServeClient, ServeResponse
from repro.serve.metrics import ServeMetrics
from repro.serve.queue import DrawExecutor, DrawTimeoutError, QueueFullError
from repro.serve.registry import (
    LoadedModel,
    ModelRecord,
    ModelRegistry,
    QuarantinedModelError,
    UnknownModelError,
    content_version,
)
from repro.serve.server import (
    CONTENT_TYPES,
    KaminoServer,
    ServeConfig,
    make_server,
)

__all__ = [
    "CONTENT_TYPES",
    "CachedDraw",
    "DrawCache",
    "DrawExecutor",
    "DrawTimeoutError",
    "KaminoServer",
    "LoadedModel",
    "ModelRecord",
    "ModelRegistry",
    "QuarantinedModelError",
    "QueueFullError",
    "ServeClient",
    "ServeConfig",
    "ServeMetrics",
    "ServeResponse",
    "UnknownModelError",
    "body_etag",
    "content_version",
    "draw_key",
    "make_server",
]
