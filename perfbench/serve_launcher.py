"""Run a ``KaminoServer`` in its own process for the ``serve`` workload.

    python3 -m perfbench.serve_launcher --models-dir D --cache-dir C \\
        [--spans spans.json]

Prints ``{"port": N}`` once the server listens, serves until a line
(or end of file) arrives on stdin, then prints ``{"peak_rss_mb": X}``.
With ``--spans`` it first wraps the serve layers' entry points (request
handling, draw cache, executor, render, registry, stream writer and the
render's chunk iterator), keeps their spans in memory and writes them
to that file on shutdown.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading

from perfbench.common import Spans, peak_rss_mb
from perfbench.probes import Patch, spanned


def install_probes(server, spans: Spans) -> Patch:
    """Span every serve layer boundary; the request id is the client's
    ``X-Bench-Id`` header."""
    import repro.serve.cache as cache
    import repro.serve.queue as executor
    import repro.serve.registry as registry
    import repro.serve.server as http_server

    patch = Patch()
    handler_cls = server.RequestHandlerClass
    do_get = handler_cls.do_GET

    def traced_get(handler):
        with spans.span("serve.request",
                        rid=handler.headers.get("X-Bench-Id")):
            return do_get(handler)

    draw_chunks = http_server.KaminoServer._draw_chunks

    def traced_chunks(self, *args, **kwargs):
        chunks = iter(draw_chunks(self, *args, **kwargs))
        while True:
            with spans.span("serve.server.render_engine"):
                chunk = next(chunks, None)
            if chunk is None:
                return
            yield chunk

    patch.set(handler_cls, "do_GET", traced_get)
    patch.set(http_server.KaminoServer, "_draw_chunks", traced_chunks)
    for owner, attr, name in (
            (cache.DrawCache, "get", "serve.cache.get"),
            (cache.DrawCache, "put", "serve.cache.put"),
            (executor.DrawExecutor, "run", "serve.queue.run"),
            (http_server.KaminoServer, "render_draw", "serve.server.render"),
            (registry.ModelRegistry, "get", "serve.registry.get"),
            (http_server, "write_table_stream", "io.stream.write")):
        patch.set(owner, attr, spanned(spans, getattr(owner, attr), name))
    return patch


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--models-dir", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    from repro.serve import KaminoServer, ServeConfig

    server = KaminoServer(ServeConfig(args.models_dir,
                                      cache_dir=args.cache_dir, port=0,
                                      quiet=True))
    spans = Spans() if args.spans else None
    patch = install_probes(server, spans) if spans else None
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    try:
        sys.stdin.readline()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(10)
        if patch is not None:
            patch.undo()
    if spans is not None:
        spans.dump(args.spans,
                   registry_loads=sum(server.registry.load_counts.values()))
    print(json.dumps({"peak_rss_mb": peak_rss_mb()}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
