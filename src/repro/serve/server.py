"""``repro-kamino serve`` — the long-running synthesis service.

A stdlib-only HTTP server (``http.server.ThreadingHTTPServer``, no new
runtime dependencies) over the staged engine:

====================  ==================================================
``GET /healthz``      liveness + model count
``GET /models``       every registered (name, version): method, bytes,
                      ``supports_native_stream``, hot-cache residency
``POST /models``      register a server-local artifact (JSON body:
                      ``{"name", "model", "schema", "dcs"?}`` paths)
``GET /sample``       draw: ``?model=&version=&n=&seed=&format=csv|
                      parquet|arrow|feather`` — streamed through
                      :mod:`repro.io.stream` into the draw cache, served
                      with a strong ETag (``If-None-Match`` ⇒ 304)
``GET /metrics``      Prometheus text (``?format=json`` for the JSON
                      view with recent draw traces)
====================  ==================================================

The request path composes the serve layers: the **registry** resolves
and lazily loads artifacts (single-flight, LRU hot cache), the
**executor** coalesces identical renders and applies backpressure (429
when the queue is full, 503 on timeout), and the **draw cache** turns
the Philox determinism guarantee — a draw is a pure function of
``(model bytes, n, seed)`` — into immutable cached responses that
revalidate by ETag without touching the engine.  Renders thread a
:class:`repro.obs.trace.RunTrace` through the draw and fold it into
``/metrics``.
"""

from __future__ import annotations

import csv
import errno
import io
import json
import math
import os
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.core.kamino import _non_negative_int, _positive_int
from repro.faults import FaultInjected
from repro.io.stream import (
    STREAM_SUFFIXES, decode_columns, write_table_stream,
)
from repro.obs import RunTrace
from repro.serve.cache import DEFAULT_MAX_BYTES, DrawCache, draw_key
from repro.serve.metrics import ServeMetrics
from repro.serve.queue import (
    DrawExecutor, DrawTimeoutError, QueueFullError,
)
from repro.serve.registry import (
    ModelRegistry, QuarantinedModelError, UnknownModelError,
)
from repro.synth.registry import BackendUnavailable

#: Response formats the ``format=`` query accepts, with content types.
CONTENT_TYPES = {
    "csv": "text/csv; charset=utf-8",
    "parquet": "application/vnd.apache.parquet",
    "arrow": "application/vnd.apache.arrow.file",
    "feather": "application/vnd.apache.arrow.file",
}

#: Cached responses are immutable (content-addressed model + pure draw),
#: so clients may cache them forever.
_CACHE_CONTROL = "public, max-age=31536000, immutable"

_SEND_CHUNK = 1 << 16


class ServeConfig:
    """Validated knobs of one server instance.

    Every knob is checked here, before the server touches the disk; a
    bad value raises a :class:`ValueError` naming the field.
    """

    def __init__(self, models_dir: str, cache_dir: str | None = None,
                 host: str = "127.0.0.1", port: int = 8765,
                 hot_limit: int = 8,
                 cache_max_bytes: int = DEFAULT_MAX_BYTES,
                 max_pending: int = 16, timeout: float = 120.0,
                 chunk_rows: int | None = None, quiet: bool = False):
        self.models_dir = models_dir
        self.cache_dir = cache_dir or os.path.join(models_dir, "_cache")
        self.host = host
        self.port = _non_negative_int(port, "port")
        if self.port > 65535:
            raise ValueError(f"port must be at most 65535, got {port!r}")
        self.hot_limit = _positive_int(hot_limit, "hot_limit")
        self.cache_max_bytes = _non_negative_int(cache_max_bytes,
                                                 "cache_max_bytes")
        self.max_pending = _positive_int(max_pending, "max_pending")
        try:
            self.timeout = float(timeout)
        except (TypeError, ValueError):
            self.timeout = math.nan
        if not 0 < self.timeout < math.inf:
            raise ValueError(
                f"timeout must be a finite number > 0, got {timeout!r}")
        #: Rows per streamed render chunk (None: the engine default).
        #: A body of at most one chunk is the single-shot draw; longer
        #: bodies can move in numerical sub-model heads' last bits
        #: (ROADMAP item 1), so the draw cache key covers it.
        self.chunk_rows = (None if chunk_rows is None
                           else _positive_int(chunk_rows, "chunk_rows"))
        self.quiet = bool(quiet)


class KaminoServer(ThreadingHTTPServer):
    """The composed service: registry + cache + executor + metrics."""

    daemon_threads = True

    def __init__(self, config: ServeConfig):
        self.config = config
        self.registry = ModelRegistry(config.models_dir,
                                      hot_limit=config.hot_limit)
        self.draw_cache = DrawCache(config.cache_dir,
                                    max_bytes=config.cache_max_bytes)
        self.executor = DrawExecutor(max_pending=config.max_pending,
                                     timeout=config.timeout)
        self.metrics = ServeMetrics()
        super().__init__((config.host, config.port), _Handler)

    @property
    def base_url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    # -- the render path ------------------------------------------------
    def render_draw(self, record, n, seed, fmt: str):
        """Materialize one deterministic draw into the cache.

        Runs on exactly one thread per in-flight key (executor
        coalescing); returns the committed :class:`CachedDraw`.
        """
        loaded = self.registry.get(record.name, record.version)
        trace = RunTrace(label=f"{record.name}:{record.version}")
        key = self.cache_key(record, n, seed, fmt)
        tmp = self.draw_cache.begin(key)
        start = time.perf_counter()
        try:
            chunks = self._deadline_chunks(
                self._draw_chunks(loaded, n, seed, trace), start,
                f"{record.name}:{record.version}")
            rows = write_table_stream(tmp, loaded.relation, chunks,
                                      fmt=fmt)
        except BaseException:
            self.draw_cache.discard(tmp)
            raise
        seconds = time.perf_counter() - start
        entry = self.draw_cache.put(key, tmp,
                                    content_type=CONTENT_TYPES[fmt])
        self.metrics.observe_draw(f"{record.name}:{record.version}",
                                  rows, seconds, trace=trace)
        return entry

    def cache_key(self, record, n, seed, fmt: str) -> str:
        """The draw cache key of one request under this server's render
        chunking."""
        return draw_key(record.version, n, seed, fmt,
                        self.config.chunk_rows)

    def _draw_chunks(self, loaded, n, seed, trace):
        """The table chunks of one draw: the backend's ``sample_stream``
        (bounded memory on native streamers), the one render path.  A
        body of at most ``chunk_rows`` rows is the single-shot draw's
        bytes; a longer one can differ from it in the last bits of a
        Kamino model's numerical sub-model heads (ROADMAP item 1), and
        is the same for every request.  Kamino renders trace per
        column."""
        return loaded.fitted.sample_stream(
            n=n, seed=seed, chunk_rows=self.config.chunk_rows, trace=trace)

    def _deadline_chunks(self, chunks, started: float, label: str):
        """Bound one render by the request timeout.

        The executor bounds how long a request *waits*; this bounds how
        long a render *runs* — checked between chunks, so a runaway
        draw stops within one chunk of the deadline instead of holding
        the per-model lock (and a worker thread) indefinitely.
        """
        budget = self.config.timeout
        for chunk in chunks:
            if time.perf_counter() - started > budget:
                self.metrics.observe_event("render_deadline_exceeded")
                raise DrawTimeoutError(
                    f"render of {label} exceeded the {budget:g}s "
                    f"request deadline")
            yield chunk


class _Handler(BaseHTTPRequestHandler):
    server: KaminoServer
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: a response goes out in several writes, and with
    #: Nagle on each write after the first waits for the client's ACK
    #: of the one before, which a keep-alive client delays ~40 ms.
    disable_nagle_algorithm = True

    # -- routing --------------------------------------------------------
    def do_GET(self):
        url = urlsplit(self.path)
        query = {k: v[-1] for k, v in parse_qs(url.query).items()}
        try:
            if url.path == "/healthz":
                self._healthz()
            elif url.path == "/models":
                self._list_models()
            elif url.path == "/metrics":
                self._metrics(query)
            elif url.path == "/sample":
                self._sample(query)
            else:
                self._send_error(404, f"no route {url.path!r}")
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception as exc:
            self._last_resort_500(exc)

    def do_POST(self):
        url = urlsplit(self.path)
        try:
            if url.path == "/models":
                self._register(self._read_json())
            else:
                self._send_error(404, f"no route {url.path!r}")
        except BrokenPipeError:
            pass
        except Exception as exc:
            self._last_resort_500(exc)

    # -- endpoints ------------------------------------------------------
    def _healthz(self):
        self._send_json(200, {
            "status": "ok",
            "models": len(self.server.registry.model_names()),
        })

    def _list_models(self):
        self._send_json(200, {"models": self.server.registry.list_models()})

    def _metrics(self, query):
        server = self.server
        cache_stats = server.draw_cache.stats()
        queue_stats = server.executor.stats()
        loaded = len(server.registry.hot_keys())
        if query.get("format") == "json":
            self._send_json(200, server.metrics.snapshot(
                cache_stats, queue_stats, loaded))
            return
        body = server.metrics.render_prometheus(
            cache_stats, queue_stats, loaded).encode()
        self._send_bytes(200, body,
                         "text/plain; version=0.0.4; charset=utf-8")

    def _register(self, payload: dict):
        try:
            name = payload["name"]
            model = payload["model"]
            schema = payload["schema"]
        except (KeyError, TypeError):
            self._send_error(
                400, "body must be JSON with 'name', 'model', and "
                     "'schema' (server-local paths); optional 'dcs'")
            return
        try:
            record = self.server.registry.register(
                name, model, schema, dcs_path=payload.get("dcs"))
        except (FileNotFoundError, ValueError) as exc:
            self._send_error(400, f"cannot register: {exc}")
            return
        self.server.metrics.observe_request(name, 201)
        self._send_json(201, {
            "name": record.name,
            "version": record.version,
            "method": record.method,
            "bytes": record.nbytes,
        }, count=False)

    def _sample(self, query):
        server = self.server
        model = query.get("model")
        if not model:
            self._send_error(400, "sample needs ?model=<name>")
            return
        try:
            n = _int_or_none(query.get("n"), "n")
            seed = _int_or_none(query.get("seed"), "seed")
            fmt = query.get("format", "csv")
            if fmt not in CONTENT_TYPES:
                raise ValueError(
                    f"format must be one of "
                    f"{sorted(CONTENT_TYPES)}, got {fmt!r}")
            record = server.registry.resolve(model, query.get("version"))
        except ValueError as exc:
            self._send_error(400, str(exc), model=model)
            return
        except UnknownModelError as exc:
            self._send_error(404, str(exc.args[0]), model=model)
            return
        key = server.cache_key(record, n, seed, fmt)
        entry = server.draw_cache.get(key)
        cache_state = "hit"
        if entry is None:
            cache_state = "miss"
            try:
                entry = server.executor.run(
                    key, (record.name, record.version),
                    lambda: server.render_draw(record, n, seed, fmt))
            except QueueFullError as exc:
                self._send_error(429, str(exc), model=model,
                                 retry_after=1)
                return
            except DrawTimeoutError as exc:
                self._send_error(503, str(exc), model=model,
                                 retry_after=5)
                return
            except QuarantinedModelError as exc:
                # The artifact failed digest/load verification and is
                # fenced off — a clean 503 naming the reason, never a
                # traceback.  Other versions of the model still serve.
                server.metrics.observe_event("quarantine_rejects")
                self._send_error(503, str(exc), model=model)
                return
            except BackendUnavailable as exc:
                self._send_error(501, str(exc), model=model)
                return
            except FaultInjected as exc:
                self._send_error(500, f"injected fault: {exc}",
                                 model=model)
                return
            except OSError as exc:
                if exc.errno == errno.ENOSPC:
                    # Cache disk is full: serve the draw anyway, just
                    # without caching it.
                    self._sample_degraded(record, n, seed, fmt, model)
                    return
                self._send_error(500, f"{type(exc).__name__}: {exc}",
                                 model=model)
                return
            except RuntimeError as exc:
                # e.g. a columnar format without pyarrow installed
                self._send_error(501, str(exc), model=model)
                return
            except Exception as exc:
                # Anything else: a clean JSON 500 instead of a dropped
                # connection and a handler traceback.
                self._send_error(500, f"{type(exc).__name__}: {exc}",
                                 model=model)
                return
        if_none_match = self.headers.get("If-None-Match")
        if if_none_match and _etag_matches(if_none_match, entry.etag):
            server.metrics.observe_request(model, 304)
            self.send_response(304)
            self.send_header("ETag", entry.etag)
            self.send_header("Cache-Control", _CACHE_CONTROL)
            self.send_header("X-Cache", cache_state)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        server.metrics.observe_request(model, 200)
        self.send_response(200)
        self.send_header("Content-Type", entry.content_type)
        self.send_header("Content-Length", str(entry.nbytes))
        self.send_header("ETag", entry.etag)
        self.send_header("Cache-Control", _CACHE_CONTROL)
        self.send_header("X-Cache", cache_state)
        self.send_header("X-Model-Version", record.version)
        self.end_headers()
        with open(entry.path, "rb") as f:
            for block in iter(lambda: f.read(_SEND_CHUNK), b""):
                self.wfile.write(block)

    def _sample_degraded(self, record, n, seed, fmt, model):
        """Serve a draw with the cache disk full: stream it uncached.

        CSV can be rendered chunk-by-chunk straight onto the socket
        (chunked transfer encoding, ``X-Cache: bypass``, no ETag — the
        response is correct but not revalidatable).  The columnar
        formats need a seekable file, which is exactly what we don't
        have, so they get a 503 asking the client to retry as CSV.
        """
        server = self.server
        if fmt != "csv":
            self._send_error(
                503, f"draw cache is out of disk space and {fmt!r} "
                     f"cannot be streamed uncached; retry with "
                     f"format=csv or free space", model=model,
                retry_after=30)
            return
        try:
            loaded = server.registry.get(record.name, record.version)
            chunks = server._draw_chunks(loaded, n, seed, None)
        except Exception as exc:
            self._send_error(500, f"{type(exc).__name__}: {exc}",
                             model=model)
            return
        server.metrics.observe_event("degraded_streams")
        server.metrics.observe_request(model, 200)
        self.send_response(200)
        self.send_header("Content-Type", CONTENT_TYPES["csv"])
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("X-Cache", "bypass")
        self.send_header("X-Model-Version", record.version)
        self.end_headers()
        try:
            for payload in _csv_payloads(loaded.relation, chunks):
                if not payload:
                    continue
                self.wfile.write(f"{len(payload):x}\r\n".encode())
                self.wfile.write(payload)
                self.wfile.write(b"\r\n")
            self.wfile.write(b"0\r\n\r\n")
        except BrokenPipeError:
            raise
        except Exception:
            # Headers are gone; the only honest signal left is a
            # truncated chunked body, which clients reject.
            self.close_connection = True

    # -- plumbing -------------------------------------------------------
    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        try:
            return json.loads(raw or b"{}")
        except ValueError:
            return {}

    def _send_json(self, status: int, doc: dict, count: bool = True):
        if count:
            self.server.metrics.observe_request(None, status)
        body = (json.dumps(doc, indent=2) + "\n").encode()
        self._send_bytes(status, body, "application/json")

    def _send_bytes(self, status: int, body: bytes, content_type: str):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _last_resort_500(self, exc: BaseException):
        """A clean JSON 500 for anything a route let escape.

        If the response already started (headers sent, body partially
        written) this may append bytes a client discards — still better
        than an unhandled-exception traceback and a hard reset.
        """
        try:
            self._send_error(500, f"{type(exc).__name__}: {exc}")
        except Exception:
            self.close_connection = True

    def _send_error(self, status: int, message: str,
                    model: str | None = None,
                    retry_after: int | None = None):
        self.server.metrics.observe_request(model, status)
        body = (json.dumps({"error": message}) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args):  # silenced by config.quiet
        if not self.server.config.quiet:
            super().log_message(fmt, *args)


def _csv_payloads(relation, chunks):
    """CSV bytes of a streamed draw, one payload per table chunk (plus
    a leading header payload) — the degraded, cache-bypassing render."""
    buf = io.StringIO()
    csv.writer(buf).writerow(relation.names)
    yield buf.getvalue().encode()
    for table in chunks:
        buf = io.StringIO()
        decoded = decode_columns(table)
        columns = [decoded[name].tolist() for name in relation.names]
        csv.writer(buf).writerows(zip(*columns))
        yield buf.getvalue().encode()


def _int_or_none(raw: str | None, name: str) -> int | None:
    if raw is None or raw == "":
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") \
            from None
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def _etag_matches(header: str, etag: str) -> bool:
    """Does an ``If-None-Match`` header name ``etag`` (or ``*``)?"""
    tags = {tag.strip() for tag in header.split(",")}
    return "*" in tags or etag in tags


def make_server(models_dir: str, **kwargs) -> KaminoServer:
    """Build (and bind) a server; ``port=0`` picks a free port."""
    return KaminoServer(ServeConfig(models_dir, **kwargs))


# Formats the CLI help can promise == the stream writer's suffixes.
assert set(CONTENT_TYPES) == {fmt for fmt in STREAM_SUFFIXES.values()}
