"""Stream a tpch draw to CSV, round after round, in a process that holds
nothing else; the ``stream`` workload starts it.

Each round drains ``FittedKamino.sample_stream`` through
``io.stream.write_table_stream`` into one CSV file, timing every pull
from the chunk iterator and running a calibration (``common.calibrate``)
before each pull and after the last, outside the round's seconds.  One
JSON line per round goes to stdout, then one line with this process's
peak RSS.

    python3 -m perfbench.stream_child --model m.npz --schema s.json \\
        --dcs d.txt --n 200000 --chunk-rows 65536 --seed 1 \\
        --out draw.csv --seconds 16
"""

from __future__ import annotations

import argparse
import json
import os
import time


def timed_chunks(chunks, pulls: list, calibrations: list):
    """Yield ``chunks``, appending each pull's ``[start, end]`` and the
    ``[start, end]`` of the calibration run before each pull, the one
    that ends the stream too."""
    from perfbench.common import calibrate
    iterator = iter(chunks)
    while True:
        t0 = time.perf_counter()
        calibrate()
        calibrations.append([t0, time.perf_counter()])
        t0 = time.perf_counter()
        try:
            chunk = next(iterator)
        except StopIteration:
            return
        pulls.append([t0, time.perf_counter()])
        yield chunk


def pieces_between(start: float, end: float, calibrations) -> list:
    """The program's seconds between consecutive calibrations (each
    ``[start, end]``) of a round from ``start`` to ``end``; the work
    before the first and after the last counts with its neighbour."""
    edges = [start, *(t for c in calibrations for t in c), end]
    gaps = [b - a for a, b in zip(edges[::2], edges[1::2])]
    pieces = gaps[1:-1]
    pieces[0] += gaps[0]
    pieces[-1] += gaps[-1]
    return pieces


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag in ("--model", "--schema", "--dcs", "--out"):
        parser.add_argument(flag, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--chunk-rows", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    from perfbench.common import another_round, file_digest, peak_rss_mb
    from repro.core import FittedKamino
    from repro.io import load_dcs, load_relation
    from repro.io.stream import write_table_stream

    relation = load_relation(args.schema)
    dcs = load_dcs(args.dcs, relation=relation)
    fitted = FittedKamino.load(args.model, relation, dcs)
    started = time.perf_counter()
    rounds: list[float] = []
    while another_round(rounds, started, args.seconds, min_rounds=2):
        pulls: list[list[float]] = []
        calibrations: list[list[float]] = []
        t0 = time.perf_counter()
        chunks = fitted.sample_stream(n=args.n, seed=args.seed,
                                      chunk_rows=args.chunk_rows)
        rows = write_table_stream(args.out, relation,
                                  timed_chunks(chunks, pulls, calibrations),
                                  fmt="csv")
        end = time.perf_counter()
        rounds.append(end - t0)
        pieces = pieces_between(t0, end, calibrations)
        print(json.dumps({"start": t0, "seconds": sum(pieces),
                          "wall": end - t0, "pieces": pieces,
                          "rows": rows, "pulls": pulls,
                          "calibrations": calibrations,
                          "bytes": os.path.getsize(args.out),
                          "digest": file_digest(args.out)}), flush=True)
    print(json.dumps({"peak_rss_mb": peak_rss_mb()}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
