"""Tests for the serving layer (:mod:`repro.serve`).

Covers the four layers in isolation — registry (content-digest
versions, single-flight cold loads, LRU hot-cache eviction), draw cache
(strong ETags, size-bounded LRU, disk rebuild), executor (coalescing,
backpressure) — plus the end-to-end HTTP contract the acceptance
criterion names: a served draw's bytes equal the direct
``FittedKamino.sample`` export through :mod:`repro.io.stream`, a repeat
request hits the draw cache (visible in ``/metrics``), and
``If-None-Match`` revalidation returns 304.
"""

import contextlib
import http.client
import os
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from unittest import mock

import numpy as np
import pytest

import repro.faults as faults
import repro.serve.registry as registry_mod
from repro.core.kamino import Kamino
from repro.datasets import load
from repro.io.dc_text import save_dcs
from repro.io.schema_json import save_relation
from repro.io.stream import write_table_stream
from repro.serve import (
    DrawCache,
    DrawExecutor,
    DrawTimeoutError,
    KaminoServer,
    ModelRegistry,
    QuarantinedModelError,
    QueueFullError,
    ServeClient,
    ServeConfig,
    UnknownModelError,
    body_etag,
    content_version,
    draw_key,
)
from repro.synth import make_synthesizer


# ----------------------------------------------------------------------
# Shared fitted artifacts (expensive: built once per module)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tpch(tmp_path_factory):
    """A fitted tiny-tpch Kamino artifact plus its public sidecars."""
    root = tmp_path_factory.mktemp("artifacts")
    ds = load("tpch", n=60, seed=0)

    def cap(params):
        params.iterations = min(params.iterations, 6)

    fitted = Kamino(ds.relation, ds.dcs, epsilon=1.0, seed=0,
                    params_override=cap).fit(ds.table)
    paths = {
        "model": str(root / "model.npz"),
        "schema": str(root / "schema.json"),
        "dcs": str(root / "dcs.txt"),
    }
    fitted.save(paths["model"])
    save_relation(ds.relation, paths["schema"])
    save_dcs(ds.dcs, paths["dcs"], relation=ds.relation)
    return {"dataset": ds, "fitted": fitted, **paths}


@pytest.fixture(scope="module")
def privbayes(tmp_path_factory):
    """A fitted PrivBayes artifact (the ``repro.synth/1`` format)."""
    root = tmp_path_factory.mktemp("pb")
    ds = load("tpch", n=60, seed=0)
    fitted = make_synthesizer("privbayes", 1.0, seed=0).fit(ds.table)
    paths = {"model": str(root / "pb.npz"),
             "schema": str(root / "schema.json")}
    fitted.save(paths["model"])
    save_relation(ds.relation, paths["schema"])
    return {"dataset": ds, "fitted": fitted, **paths}


@pytest.fixture(scope="module")
def server(tmp_path_factory, tpch, privbayes):
    """One running server with both artifacts registered."""
    root = tmp_path_factory.mktemp("serve")
    srv = KaminoServer(ServeConfig(str(root / "models"), port=0,
                                   quiet=True, timeout=30.0))
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(srv.base_url)
    client.register("tpch", tpch["model"], tpch["schema"],
                    dcs=tpch["dcs"])
    client.register("tpch-pb", privbayes["model"], privbayes["schema"])
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


@pytest.fixture
def client(server):
    return ServeClient(server.base_url)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_register_uses_content_digest_version(tmp_path, tpch):
    registry = ModelRegistry(str(tmp_path))
    record = registry.register("m", tpch["model"], tpch["schema"],
                               dcs_path=tpch["dcs"])
    assert record.version == content_version(tpch["model"])
    assert record.method == "kamino"
    assert record.path.endswith(".kamino")
    # Idempotent: same bytes, same version, still one registered version.
    again = registry.register("m", tpch["model"], tpch["schema"])
    assert again.version == record.version
    assert len(registry.versions("m")) == 1


def test_register_synth_payload_suffix(tmp_path, privbayes):
    registry = ModelRegistry(str(tmp_path))
    record = registry.register("pb", privbayes["model"],
                               privbayes["schema"])
    assert record.method == "privbayes"
    assert record.path.endswith(".synth")
    assert record.supports_native_stream() is False


def test_registry_lookups_read_no_artifact_bytes(tmp_path, tpch,
                                                privbayes):
    """A ``.kamino`` lookup never peeks its artifact; a ``.synth`` one
    peeks once per path."""
    registry = ModelRegistry(str(tmp_path))
    registry.register("m", tpch["model"], tpch["schema"],
                      dcs_path=tpch["dcs"])
    registry.register("pb", privbayes["model"], privbayes["schema"])
    with mock.patch.object(registry_mod, "peek_method",
                           wraps=registry_mod.peek_method) as peek:
        for _ in range(3):
            assert registry.get("m").record.method == "kamino"
        assert peek.call_count == 0
        for _ in range(3):
            assert registry.resolve("pb").method == "privbayes"
        assert peek.call_count == 1


def test_registry_unknown_and_invalid_names(tmp_path, tpch):
    registry = ModelRegistry(str(tmp_path))
    with pytest.raises(UnknownModelError):
        registry.resolve("ghost")
    registry.register("m", tpch["model"], tpch["schema"])
    with pytest.raises(UnknownModelError):
        registry.resolve("m", "feedbeefcafe")
    with pytest.raises(ValueError):
        registry.register("../escape", tpch["model"], tpch["schema"])


def test_registry_parallel_cold_requests_load_once(tmp_path, tpch):
    """The ISSUE's concurrency pin: one load, no torn reads."""
    registry = ModelRegistry(str(tmp_path))
    record = registry.register("m", tpch["model"], tpch["schema"],
                               dcs_path=tpch["dcs"])
    real_load = registry._load
    calls = []

    def slow_load(rec):
        calls.append(rec.version)
        time.sleep(0.15)  # widen the race window
        return real_load(rec)

    registry._load = slow_load
    results, errors = [], []

    def worker():
        try:
            results.append(registry.get("m"))
        except Exception as exc:  # pragma: no cover - fail loudly below
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(calls) == 1
    assert registry.load_counts[("m", record.version)] == 1
    # Every thread saw the same loaded object — no torn reads.
    assert len({id(r) for r in results}) == 1
    assert results[0].fitted is not None


def test_registry_eviction_under_two_model_limit(tmp_path, tpch,
                                                 privbayes):
    registry = ModelRegistry(str(tmp_path), hot_limit=2)
    registry.register("a", tpch["model"], tpch["schema"],
                      dcs_path=tpch["dcs"])
    registry.register("b", privbayes["model"], privbayes["schema"])
    registry.register("c", tpch["model"], tpch["schema"],
                      dcs_path=tpch["dcs"])
    va = registry.get("a").record.version
    registry.get("b")
    assert [k[0] for k in registry.hot_keys()] == ["a", "b"]
    registry.get("c")  # evicts the least recently used ("a")
    assert [k[0] for k in registry.hot_keys()] == ["b", "c"]
    registry.get("a")  # cold again: reloads, evicts "b"
    assert registry.load_counts[("a", va)] == 2
    assert [k[0] for k in registry.hot_keys()] == ["c", "a"]


# ----------------------------------------------------------------------
# Draw cache
# ----------------------------------------------------------------------
def _put(cache, key, payload: bytes, content_type="text/csv"):
    tmp = cache.begin(key)
    with open(tmp, "wb") as f:
        f.write(payload)
    return cache.put(key, tmp, content_type)


def test_cache_roundtrip_and_strong_etag(tmp_path):
    cache = DrawCache(str(tmp_path))
    assert cache.get("k") is None  # miss
    entry = _put(cache, "k", b"hello,world\n")
    hit = cache.get("k")
    assert hit is entry
    assert hit.etag.startswith('"') and hit.etag.endswith('"')
    assert hit.etag == body_etag(hit.path)
    assert open(hit.path, "rb").read() == b"hello,world\n"
    stats = cache.stats()
    assert (stats["hits"], stats["misses"]) == (1, 1)
    assert stats["hit_rate"] == 0.5


def test_cache_lru_eviction_by_bytes(tmp_path):
    cache = DrawCache(str(tmp_path), max_bytes=100)
    _put(cache, "a", b"x" * 60)
    _put(cache, "b", b"y" * 60)  # a evicted: 120 > 100
    assert cache.peek("a") is None
    assert cache.peek("b") is not None
    assert cache.stats()["evictions"] == 1
    # The newest entry survives its own put even when oversized.
    entry = _put(cache, "big", b"z" * 500)
    assert cache.peek("big") is entry
    assert cache.peek("b") is None


def test_cache_rebuilds_index_from_disk(tmp_path):
    first = DrawCache(str(tmp_path))
    entry = _put(first, "k", b"payload", content_type="text/csv; x")
    reopened = DrawCache(str(tmp_path))
    found = reopened.peek("k")
    assert found is not None
    assert found.etag == entry.etag
    assert found.content_type == "text/csv; x"
    assert reopened.total_bytes == len(b"payload")


def test_draw_key_covers_every_dimension():
    base = draw_key("v1", 100, 7, "csv", None)
    assert draw_key("v1", 100, 7, "csv", None) == base
    assert draw_key("v2", 100, 7, "csv", None) != base
    assert draw_key("v1", 101, 7, "csv", None) != base
    assert draw_key("v1", 100, 8, "csv", None) != base
    assert draw_key("v1", 100, 7, "parquet", None) != base
    assert draw_key("v1", None, None, "csv", None) != base
    assert draw_key("v1", 100, 7, "csv", 64) != base
    assert draw_key("v1", 100, 7, "csv", 65) != \
        draw_key("v1", 100, 7, "csv", 64)


# ----------------------------------------------------------------------
# Executor (queue + batcher)
# ----------------------------------------------------------------------
def test_executor_coalesces_identical_requests():
    executor = DrawExecutor(max_pending=4, timeout=10.0)
    calls = []

    def render():
        calls.append(1)
        time.sleep(0.15)
        return "body"

    results = []
    threads = [
        threading.Thread(
            target=lambda: results.append(
                executor.run("k", ("m", "v"), render)))
        for _ in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(calls) == 1
    assert results == ["body"] * 4
    assert executor.coalesced == 3
    assert executor.depth == 0


def test_executor_bounded_queue_rejects():
    executor = DrawExecutor(max_pending=1, timeout=10.0)
    release = threading.Event()
    started = threading.Event()

    def blocker():
        started.set()
        release.wait(5)
        return "slow"

    t = threading.Thread(
        target=lambda: executor.run("k1", ("m", "v"), blocker))
    t.start()
    assert started.wait(5)
    with pytest.raises(QueueFullError):
        executor.run("k2", ("m", "v"), lambda: "fast")
    release.set()
    t.join()
    assert executor.rejected == 1


def test_executor_waiter_timeout():
    executor = DrawExecutor(max_pending=4, timeout=10.0)
    release = threading.Event()
    started = threading.Event()

    def blocker():
        started.set()
        release.wait(5)
        return "slow"

    t = threading.Thread(
        target=lambda: executor.run("k", ("m", "v"), blocker))
    t.start()
    assert started.wait(5)
    with pytest.raises(DrawTimeoutError):
        executor.run("k", ("m", "v"), lambda: "x", timeout=0.05)
    release.set()
    t.join()
    assert executor.timeouts == 1


def test_executor_model_lock_serializes_distinct_keys():
    executor = DrawExecutor(max_pending=4, timeout=10.0)
    release = threading.Event()
    started = threading.Event()

    def blocker():
        started.set()
        release.wait(5)
        return "a"

    t = threading.Thread(
        target=lambda: executor.run("ka", ("m", "v"), blocker))
    t.start()
    assert started.wait(5)
    # Distinct key, same model: must wait for the model lock.
    with pytest.raises(DrawTimeoutError):
        executor.run("kb", ("m", "v"), lambda: "b", timeout=0.05)
    # Distinct model renders immediately.
    assert executor.run("kc", ("other", "v"), lambda: "c") == "c"
    release.set()
    t.join()


def test_executor_propagates_render_errors():
    executor = DrawExecutor(max_pending=4, timeout=10.0)

    def boom():
        raise ValueError("render failed")

    with pytest.raises(ValueError, match="render failed"):
        executor.run("k", ("m", "v"), boom)
    assert executor.depth == 0  # failed job unregistered


# ----------------------------------------------------------------------
# Protocol-level sample_stream (the optional capability)
# ----------------------------------------------------------------------
def _concat_columns(relation, chunks):
    chunks = list(chunks)
    return {a: np.concatenate([c.column(a) for c in chunks])
            for a in relation.names}


def test_default_sample_stream_chunks_single_shot(privbayes):
    fitted = privbayes["fitted"]
    assert fitted.supports_native_stream is False
    relation = privbayes["dataset"].relation
    single = fitted.sample(50, seed=5)
    streamed = _concat_columns(
        relation, fitted.sample_stream(50, seed=5, chunk_rows=7))
    for attr in relation.names:
        np.testing.assert_array_equal(streamed[attr],
                                      single.column(attr), err_msg=attr)


def test_kamino_adapter_streams_natively(tpch):
    from repro.synth.kamino import FittedKaminoSynthesizer

    adapter = FittedKaminoSynthesizer(tpch["fitted"])
    assert adapter.supports_native_stream is True
    relation = tpch["dataset"].relation
    single = adapter.sample(40, seed=3)
    streamed = _concat_columns(
        relation, adapter.sample_stream(40, seed=3, chunk_rows=16))
    for attr in relation.names:
        np.testing.assert_array_equal(streamed[attr],
                                      single.column(attr), err_msg=attr)


def test_sample_stream_validates_chunk_rows(privbayes):
    with pytest.raises(ValueError, match="chunk_rows"):
        list(privbayes["fitted"].sample_stream(10, seed=0, chunk_rows=0))


def test_sample_stream_traced_draw_unchanged(tpch):
    from repro.obs import RunTrace
    from repro.synth.kamino import FittedKaminoSynthesizer

    adapter = FittedKaminoSynthesizer(tpch["fitted"])
    relation = tpch["dataset"].relation
    trace = RunTrace(label="stream")
    traced = _concat_columns(
        relation, adapter.sample_stream(30, seed=4, chunk_rows=8,
                                        trace=trace))
    plain = _concat_columns(
        relation, adapter.sample_stream(30, seed=4, chunk_rows=8))
    for attr in relation.names:
        np.testing.assert_array_equal(traced[attr], plain[attr])
    (run,) = trace.samples
    assert run.n == 30 and run.engine.endswith("-stream")
    assert run.seconds > 0


# ----------------------------------------------------------------------
# End-to-end HTTP contract (the acceptance criterion)
# ----------------------------------------------------------------------
def test_serving_determinism_contract(server, client, tpch, tmp_path):
    """Served bytes == direct engine export; repeat hits the cache
    (visible in /metrics); If-None-Match revalidates to 304."""
    first = client.sample("tpch", n=40, seed=3)
    assert first.status == 200
    assert first.cache_state == "miss"

    # The response bytes equal a direct FittedKamino.sample export
    # through io/stream.py.
    direct_path = tmp_path / "direct.csv"
    result = tpch["fitted"].sample(n=40, seed=3)
    write_table_stream(str(direct_path), tpch["dataset"].relation,
                       iter([result.table]), fmt="csv")
    assert first.body == direct_path.read_bytes()

    # Repeat request: served from the draw cache, byte-identical.
    before = client.metrics_json()["cache"]["hits"]
    second = client.sample("tpch", n=40, seed=3)
    assert second.status == 200
    assert second.cache_state == "hit"
    assert second.body == first.body
    assert second.etag == first.etag
    after = client.metrics_json()["cache"]
    assert after["hits"] > before
    assert after["hit_rate"] > 0

    # ETag revalidation: If-None-Match returns 304 with no body.
    third = client.sample("tpch", n=40, seed=3, etag=first.etag)
    assert third.status == 304
    assert third.body == b""
    assert third.etag == first.etag


def test_serve_renders_br2000(client, tmp_path):
    """br2000's generic soft DCs count in value-grid tables, so the
    served (streamed) render works and equals the direct export."""
    ds = load("br2000", n=60, seed=0)

    def cap(params):
        params.iterations = min(params.iterations, 6)

    fitted = Kamino(ds.relation, ds.dcs, epsilon=1.0, seed=0,
                    params_override=cap).fit(ds.table)
    paths = {name: str(tmp_path / name)
             for name in ("model.npz", "schema.json", "dcs.txt")}
    fitted.save(paths["model.npz"])
    save_relation(ds.relation, paths["schema.json"])
    save_dcs(ds.dcs, paths["dcs.txt"], relation=ds.relation)
    client.register("br2000", paths["model.npz"], paths["schema.json"],
                    dcs=paths["dcs.txt"])
    served = client.sample("br2000", n=300, seed=3)
    assert served.status == 200
    direct = tmp_path / "direct.csv"
    write_table_stream(str(direct), ds.relation,
                       iter([fitted.sample(n=300, seed=3).table]),
                       fmt="csv")
    assert served.body == direct.read_bytes()


def test_serve_renders_a_cross_attribute_dc(client, tmp_path):
    """A DC comparing two attributes counts in its violation index, so
    the served (streamed) render works — it needed the sampled prefix
    once, and answered 501 — and equals the direct export."""
    from repro.constraints import parse_dc

    ds = load("adult", n=80, seed=0)
    dcs = ds.dcs + [parse_dc("not(ti.age < tj.hours and ti.hours < tj.age)",
                             name="cross", hard=False, relation=ds.relation)]

    def cap(params):
        params.iterations = min(params.iterations, 6)

    fitted = Kamino(ds.relation, dcs, epsilon=1.0, seed=0,
                    params_override=cap).fit(ds.table)
    paths = {name: str(tmp_path / name)
             for name in ("model.npz", "schema.json", "dcs.txt")}
    fitted.save(paths["model.npz"])
    save_relation(ds.relation, paths["schema.json"])
    save_dcs(dcs, paths["dcs.txt"], relation=ds.relation)
    client.register("cross", paths["model.npz"], paths["schema.json"],
                    dcs=paths["dcs.txt"])
    served = client.sample("cross", n=300, seed=3)
    assert served.status == 200
    direct = tmp_path / "direct.csv"
    write_table_stream(str(direct), ds.relation,
                       iter([fitted.sample(n=300, seed=3).table]),
                       fmt="csv")
    assert served.body == direct.read_bytes()


def test_serve_distinct_requests_differ(client):
    a = client.sample("tpch", n=30, seed=1)
    b = client.sample("tpch", n=30, seed=2)
    c = client.sample("tpch", n=20, seed=1)
    assert a.status == b.status == c.status == 200
    assert a.body != b.body
    assert a.body.count(b"\n") - 1 == 30
    assert c.body.count(b"\n") - 1 == 20
    assert len({a.etag, b.etag, c.etag}) == 3


def test_serve_synth_payload_backend(client, privbayes, tmp_path):
    """Non-Kamino artifacts serve through the same endpoint."""
    first = client.sample("tpch-pb", n=25, seed=6)
    assert first.status == 200
    direct_path = tmp_path / "pb.csv"
    table = privbayes["fitted"].sample(25, seed=6)
    write_table_stream(str(direct_path), privbayes["dataset"].relation,
                       iter([table]), fmt="csv")
    assert first.body == direct_path.read_bytes()
    assert client.sample("tpch-pb", n=25, seed=6).cache_state == "hit"


def test_serve_models_listing(client):
    models = {m["name"]: m for m in client.models()}
    assert models["tpch"]["method"] == "kamino"
    assert models["tpch"]["supports_native_stream"] is True
    assert models["tpch-pb"]["method"] == "privbayes"
    assert models["tpch-pb"]["supports_native_stream"] is False
    assert models["tpch"]["version"]  # content digest, non-empty


def test_serve_version_pinning(client, server):
    version = server.registry.resolve("tpch").version
    pinned = client.sample("tpch", n=15, seed=0, version=version)
    assert pinned.status == 200
    assert pinned.headers.get("X-Model-Version") == version
    missing = client.sample("tpch", n=15, seed=0, version="000000000000")
    assert missing.status == 404


def test_cached_hits_make_no_artifact_peek(client, server):
    assert client.sample("tpch", n=12, seed=41).status == 200
    with mock.patch.object(registry_mod, "peek_method",
                           wraps=registry_mod.peek_method) as peek:
        hit = client.sample("tpch", n=12, seed=41)
    assert hit.status == 200 and hit.cache_state == "hit"
    assert peek.call_count == 0


def test_keep_alive_cached_hits_do_not_stall(client, server):
    """Back-to-back GETs on one connection: with Nagle on, each waited
    for the client's delayed ACK (~40 ms)."""
    path = "/sample?model=tpch&n=12&seed=42"
    assert client.sample("tpch", n=12, seed=42).status == 200
    conn = http.client.HTTPConnection(server.server_address[0],
                                      server.server_address[1], timeout=10)
    try:
        latencies = []
        for _ in range(20):
            start = time.perf_counter()
            conn.request("GET", path)
            resp = conn.getresponse()
            resp.read()
            latencies.append(time.perf_counter() - start)
            assert resp.status == 200
    finally:
        conn.close()
    assert float(np.median(latencies)) < 0.020, latencies


def test_serve_error_statuses(client):
    assert client.sample("ghost").status == 404
    assert client._request("GET", "/sample").status == 400
    assert client._request("GET", "/sample?model=tpch&n=nope").status \
        == 400
    negative = client._request("GET", "/sample?model=tpch&seed=-1")
    assert negative.status == 400
    assert b"seed must be >= 0" in negative.body
    assert client._request(
        "GET", "/sample?model=tpch&format=xml").status == 400
    assert client._request("GET", "/nowhere").status == 404


def test_serve_columnar_format_gated_without_pyarrow(client):
    try:
        import pyarrow  # noqa: F401
        pytest.skip("pyarrow installed; the columnar path would serve")
    except ImportError:
        pass
    resp = client.sample("tpch", n=10, seed=0, fmt="parquet")
    assert resp.status == 501
    assert b"pyarrow" in resp.body


def test_serve_healthz_and_prometheus_metrics(client):
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["models"] >= 2
    text = client.metrics()
    assert "kamino_serve_requests_total" in text
    assert "kamino_serve_cache_hit_rate" in text
    assert "kamino_serve_queue_depth" in text
    assert "kamino_serve_models_loaded" in text
    doc = client.metrics_json()
    assert doc["queue"]["depth"] == 0
    assert doc["models_loaded"] >= 1
    # RunTrace threading: rendered draws leave trace documents behind.
    assert doc["recent_traces"]
    assert any(s["engine"].endswith("-stream")
               for t in doc["recent_traces"] for s in t["samples"])


def test_serve_register_requires_fields(client):
    resp = client._request("POST", "/models", body=b"{}",
                           content_type="application/json")
    assert resp.status == 400
    resp = client._request(
        "POST", "/models",
        body=b'{"name": "x", "model": "/no/such", "schema": "/no"}',
        content_type="application/json")
    assert resp.status == 400


def test_cache_rebuild_drops_corrupted_entries(tmp_path):
    """Disk rebuild re-hashes every body against its recorded ETag and
    silently drops (and deletes) anything that no longer verifies."""
    cache = DrawCache(str(tmp_path))
    _put(cache, "good", b"intact payload")
    bad = _put(cache, "bad", b"original payload")
    with open(bad.path, "wb") as f:
        f.write(b"truncat")  # torn write / bit rot
    reopened = DrawCache(str(tmp_path))
    assert reopened.peek("good") is not None
    assert reopened.peek("bad") is None
    assert not os.path.exists(bad.path)
    assert reopened.stats()["corrupt_dropped"] == 1
    assert reopened.total_bytes == len(b"intact payload")


# ----------------------------------------------------------------------
# Quarantine: broken artifacts are fenced, not 500s
# ----------------------------------------------------------------------
def test_registry_quarantines_corrupt_artifact(tmp_path, tpch):
    registry = ModelRegistry(str(tmp_path))
    record = registry.register("m", tpch["model"], tpch["schema"],
                               dcs_path=tpch["dcs"])
    with open(record.path, "r+b") as f:
        f.write(b"\x00" * 64)  # clobber the stored bytes
    with pytest.raises(QuarantinedModelError) as excinfo:
        registry.get("m")
    assert "digest" in str(excinfo.value)
    assert excinfo.value.name == "m"
    # Still quarantined on the next request — no repeated load attempts.
    with pytest.raises(QuarantinedModelError):
        registry.get("m")
    assert registry.load_counts.get(("m", record.version), 0) == 0
    (listed,) = registry.list_models()
    assert listed["quarantined"]


def test_registry_quarantines_load_failure(tmp_path, tpch):
    registry = ModelRegistry(str(tmp_path))
    registry.register("m", tpch["model"], tpch["schema"],
                      dcs_path=tpch["dcs"])
    with faults.injected("registry.load=error"):
        with pytest.raises(QuarantinedModelError, match="FaultInjected"):
            registry.get("m")


@pytest.mark.parametrize("knob, value", [
    ("chunk_rows", 0),
    ("chunk_rows", 2.5),
    ("hot_limit", 0),
    ("hot_limit", 1.5),
    ("max_pending", 0),
    ("cache_max_bytes", -5),
    ("timeout", 0),
    ("timeout", -1.0),
    ("timeout", float("inf")),
    ("timeout", float("nan")),
    ("timeout", "soon"),
    ("port", 70000),
    ("port", -1),
    ("port", 80.5),
])
def test_serve_config_rejects_bad_draw_knobs(tmp_path, knob, value):
    """Caught when the server is configured, before it touches the disk,
    not as a 500 per render."""
    models = tmp_path / "models"
    with pytest.raises(ValueError, match=rf"{knob} must be"):
        ServeConfig(str(models), **{knob: value})
    assert not models.exists()


@contextlib.contextmanager
def _running_server(root, tpch, **cfg):
    srv = KaminoServer(ServeConfig(str(root), port=0, quiet=True, **cfg))
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(srv.base_url)
    client.register("tpch", tpch["model"], tpch["schema"],
                    dcs=tpch["dcs"])
    try:
        yield srv, client
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


def test_serve_quarantined_model_is_clean_503(tmp_path, tpch):
    with _running_server(tmp_path / "models", tpch) as (srv, client):
        record = srv.registry.resolve("tpch")
        with open(record.path, "r+b") as f:
            f.write(b"\x00" * 64)
        resp = client.sample("tpch", n=10, seed=0)
        assert resp.status == 503
        assert b"quarantined" in resp.body
        doc = client.metrics_json()
        assert doc["events"]["quarantine_rejects"] >= 1
        (listed,) = client.models()
        assert listed["quarantined"]
        text = client.metrics()
        assert 'kamino_serve_events_total{event="quarantine_rejects"}' \
            in text


def test_servers_at_other_chunk_rows_share_a_cache_directory(tmp_path,
                                                            tpch):
    """A body longer than one render chunk depends on ``chunk_rows``
    (numerical sub-model heads' last bits), so the cache key covers
    it: servers restarted over one models directory — one draw cache —
    at different ``chunk_rows`` each render and serve their own
    ``sample_stream`` body, never the other's cached one."""
    for chunk_rows in (7, None):
        with _running_server(tmp_path / "models", tpch,
                             chunk_rows=chunk_rows) as (srv, client):
            resp = client.sample("tpch", n=200, seed=1)
            assert resp.status == 200
            assert resp.cache_state == "miss", chunk_rows
            direct = tmp_path / f"direct-{chunk_rows}.csv"
            write_table_stream(
                str(direct), tpch["dataset"].relation,
                tpch["fitted"].sample_stream(n=200, seed=1,
                                             chunk_rows=chunk_rows))
            assert resp.body == direct.read_bytes(), chunk_rows
            again = client.sample("tpch", n=200, seed=1)
            assert again.cache_state == "hit"
            assert again.body == resp.body


# ----------------------------------------------------------------------
# ENOSPC: the draw cache fills up, draws keep serving
# ----------------------------------------------------------------------
def test_serve_enospc_degrades_to_uncached_stream(tmp_path, tpch):
    with _running_server(tmp_path / "models", tpch) as (srv, client):
        with faults.injected("cache.put=enospcx*"):
            resp = client.sample("tpch", n=40, seed=3)
        assert resp.status == 200
        assert resp.cache_state == "bypass"
        assert resp.etag is None  # uncached: no strong validator
        direct = tmp_path / "direct.csv"
        write_table_stream(str(direct), tpch["dataset"].relation,
                           iter([tpch["fitted"].sample(n=40,
                                                       seed=3).table]))
        assert resp.body == direct.read_bytes()
        assert client.metrics_json()["events"]["degraded_streams"] >= 1
        # Cache healthy again: the same request renders and caches.
        assert client.sample("tpch", n=40, seed=3).status == 200
        assert client.sample("tpch", n=40, seed=3).cache_state == "hit"


def test_serve_enospc_columnar_asks_for_csv(tmp_path, tpch):
    with _running_server(tmp_path / "models", tpch) as (srv, client):
        with faults.injected("cache.put=enospcx*"):
            resp = client.sample("tpch", n=10, seed=0, fmt="parquet")
        assert resp.status in (501, 503)  # 501 without pyarrow
        if resp.status == 503:
            assert b"csv" in resp.body
            assert resp.headers.get("Retry-After")


# ----------------------------------------------------------------------
# Render deadline + clean 500s
# ----------------------------------------------------------------------
def test_serve_render_deadline_returns_503(tmp_path, tpch):
    with _running_server(tmp_path / "models", tpch, timeout=0.2,
                         chunk_rows=8) as (srv, client):
        with faults.injected("stream.write=sleep:0.35x*"):
            resp = client.sample("tpch", n=32, seed=1)
        assert resp.status == 503
        assert b"deadline" in resp.body
        events = client.metrics_json()["events"]
        assert events["render_deadline_exceeded"] >= 1


def test_serve_render_fault_is_clean_500(tmp_path, tpch):
    with _running_server(tmp_path / "models", tpch) as (srv, client):
        with faults.injected("stream.write=error"):
            resp = client.sample("tpch", n=10, seed=0)
        assert resp.status == 500
        assert b"injected" in resp.body
        assert resp.json()["error"]  # JSON error doc, not a traceback


# ----------------------------------------------------------------------
# Client retry/backoff against a flaky stub server
# ----------------------------------------------------------------------
class _FlakyHandler(BaseHTTPRequestHandler):
    """Scripted responses: each element is (status, headers, body) or
    the string "reset" (drop the connection without answering)."""

    script: list = []
    attempts = 0

    def do_GET(self):
        self._step()

    def do_POST(self):
        self._step()

    def _step(self):
        cls = type(self)
        step = cls.script[min(cls.attempts, len(cls.script) - 1)]
        cls.attempts += 1
        if step == "reset":
            self.connection.shutdown(socket.SHUT_RDWR)
            return
        status, headers, body = step
        self.send_response(status)
        for key, value in headers.items():
            self.send_header(key, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args):
        pass


@contextlib.contextmanager
def _flaky_server(script):
    handler = type("Handler", (_FlakyHandler,),
                   {"script": script, "attempts": 0})
    srv = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{srv.server_address[1]}", handler
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


def test_client_retries_backpressure_honoring_retry_after():
    script = [(429, {"Retry-After": "0"}, b"busy"),
              (503, {}, b"still busy"),
              (200, {}, b"payload")]
    with _flaky_server(script) as (url, handler):
        sleeps = []
        client = ServeClient(url, retries=3, backoff=0.01,
                             sleep=sleeps.append)
        resp = client._request("GET", "/sample?model=m")
        assert resp.status == 200
        assert resp.body == b"payload"
        assert handler.attempts == 3
        # First wait obeyed Retry-After: 0; second used the backoff.
        assert sleeps[0] == 0.0
        assert sleeps[1] == pytest.approx(0.02)  # backoff * 2^1


def test_client_retry_attempts_are_hard_capped():
    with _flaky_server([(503, {}, b"down")]) as (url, handler):
        client = ServeClient(url, retries=2, backoff=0.001,
                             sleep=lambda s: None)
        resp = client._request("GET", "/anything")
        assert resp.status == 503  # last answer returned, not raised
        assert handler.attempts == 3  # 1 try + 2 retries, no more


def test_client_retries_connection_reset():
    script = ["reset", (200, {}, b"recovered")]
    with _flaky_server(script) as (url, handler):
        client = ServeClient(url, retries=2, backoff=0.001,
                             sleep=lambda s: None)
        resp = client._request("GET", "/x")
        assert resp.status == 200
        assert resp.body == b"recovered"
        assert handler.attempts == 2


def test_client_never_retries_posts():
    with _flaky_server([(503, {}, b"down")]) as (url, handler):
        client = ServeClient(url, retries=5, backoff=0.001,
                             sleep=lambda s: None)
        resp = client._request("POST", "/models", body=b"{}",
                               content_type="application/json")
        assert resp.status == 503
        assert handler.attempts == 1


def test_client_exhausted_transport_retries_raise():
    # A port with nothing listening: every attempt fails in transport.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    sleeps = []
    client = ServeClient(f"http://127.0.0.1:{port}", retries=2,
                         backoff=0.001, sleep=sleeps.append)
    with pytest.raises(OSError):
        client._request("GET", "/healthz")
    assert len(sleeps) == 2  # slept between the 3 attempts


def test_serve_cli_parser_wiring():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["serve", "--models-dir", "m", "--port", "0",
         "--register", "a:model.npz:schema.json",
         "--chunk-rows", "2", "--quiet"])
    assert args.models_dir == "m"
    assert args.register == ["a:model.npz:schema.json"]
    assert args.chunk_rows == 2
    assert args.fn.__name__ == "cmd_serve"
