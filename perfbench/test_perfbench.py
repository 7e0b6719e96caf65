"""Tests of the benchmark harness itself (not of the program)."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from perfbench import common
from perfbench.loadgen import Request, run_open_loop

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- the percentile rule ----------------------------------------------------
@pytest.mark.parametrize("count,expected", [
    (19, None), (20, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert common.tail_percentile(count) == expected
    if expected is not None:
        assert round(count * (100 - expected) / 100, 6) >= 10


def test_a_round_starts_only_while_half_of_it_fits_the_window():
    now = time.perf_counter()
    assert common.another_round([], now, 0.0)
    assert common.another_round([10.0], now, 16.0)
    assert not common.another_round([10.0], now - 12.0, 16.0)
    assert not common.another_round([40.0], now, 16.0)
    assert common.another_round([40.0, 40.0], now - 80.0, 16.0, min_rounds=3)


def test_steady_seconds_divide_each_piece_by_its_neighbours_slowdown():
    quiet = common.CALIBRATION_S
    assert common.slowdown([quiet, 1.5 * quiet, 9 * quiet]) == \
        pytest.approx(1.5)
    # 6 s at twice quiet, then 3 s between a 2x and a 1x calibration
    assert common.steady_seconds([6.0, 3.0], [2 * quiet, 2 * quiet, quiet]) \
        == pytest.approx(3.0 + 2.0)
    with pytest.raises(ValueError):
        common.steady_seconds([1.0], [quiet])
    assert 0 < common.calibrate() < 60 * quiet


def test_stream_pieces_lie_between_calibrations():
    from perfbench.stream_child import pieces_between
    # round 0..10; calibrations at 1-2, 5-6 and 8-9
    assert pieces_between(0.0, 10.0, [[1, 2], [5, 6], [8, 9]]) == \
        pytest.approx([1 + 3, 2 + 1])


def test_serve_segments_keep_a_duplicate_with_its_twin():
    from perfbench.workload_serve import split_schedule
    requests = [Request(due, f"/r{k}") for k, due in
                enumerate([0.0, 1.9, 2.0, 2.0, 3.5, 3.99])]
    parts = split_schedule(requests, 4.0, 2)
    assert [[r.path for r in part] for part in parts] == \
        [["/r0", "/r1"], ["/r2", "/r3", "/r4", "/r5"]]
    assert [r.due for r in parts[1]] == pytest.approx([0.0, 0.0, 1.5, 1.99])


def test_percentile_interpolates_like_numpy():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    for pct in (0, 25, 50, 90, 95, 100):
        assert common.percentile(values, pct) == pytest.approx(
            np.percentile(values, pct))


# -- open-loop latency ------------------------------------------------------
class _StallingHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_GET(self):
        if self.path == "/stall":
            time.sleep(0.4)
        body = b"ok"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def stalling_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StallingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)


def test_open_loop_latency_counts_from_the_due_time(stalling_server):
    schedule = [Request(0.0, "/stall"), Request(0.1, "/fast"),
                Request(0.2, "/fast")]
    outcomes, lags = run_open_loop("127.0.0.1", stalling_server, schedule,
                                   connections=1)
    assert [o.status for o in outcomes] == [200, 200, 200]
    stalled, queued = outcomes[0], outcomes[1]
    assert stalled.latency_ms >= 390
    # Due at 0.1 s but sent only once the stall ended at ~0.4 s: the
    # wait behind the stall is latency, although its service is fast.
    assert queued.service_ms < 100
    assert queued.latency_ms >= 250
    assert queued.latency_ms - queued.service_ms >= 200
    assert max(lags) < 0.05


# -- digests and correctness checks ------------------------------------------
@pytest.fixture(scope="module")
def small_draw():
    from repro.core import Kamino
    from repro.datasets import load

    ds = load("tpch", n=60, seed=0)

    def cap(params):
        params.iterations = min(params.iterations, 6)

    fitted = Kamino(ds.relation, ds.dcs, epsilon=1.0, seed=0,
                    params_override=cap).fit(ds.table)
    return fitted, fitted.sample(n=200, seed=3).table


def test_a_one_byte_change_to_a_draw_fails_the_digest_check(small_draw):
    from repro.schema.table import Table
    fitted, table = small_draw
    columns = {a: np.array(table.column(a), copy=True)
               for a in table.relation.names}
    name = table.relation.names[-1]
    columns[name].view(np.uint8)[7] ^= 1
    changed = Table(table.relation, columns, validate=False)
    assert common.table_digest(table) == common.table_digest(
        fitted.sample(n=200, seed=3).table)
    assert common.table_digest(changed) != common.table_digest(table)


def test_a_one_byte_change_to_a_written_draw_fails_the_digest_check(
        small_draw, tmp_path):
    from repro.io.stream import write_table_stream
    fitted, table = small_draw
    path = str(tmp_path / "draw.csv")
    write_table_stream(path, fitted.relation, [table], fmt="csv")
    before = common.file_digest(path)
    with open(path, "r+b") as f:
        f.seek(40)
        byte = f.read(1)
        f.seek(40)
        f.write(bytes([byte[0] ^ 1]))
    assert common.file_digest(path) != before


def test_artifact_digest_ignores_only_the_write_time(small_draw, tmp_path):
    fitted, _ = small_draw
    paths = [str(tmp_path / f"{k}.npz") for k in range(3)]
    fitted.save(paths[0])
    time.sleep(1.1)  # a later zip timestamp
    slower = {k: v + 1.0 for k, v in fitted.fit_timings.items()}
    dataclasses.replace(fitted, fit_timings=slower).save(paths[1])
    other = dict(fitted.sampling_state)
    other["state"] = dict(other["state"], state=other["state"]["state"] + 1)
    dataclasses.replace(fitted, sampling_state=other).save(paths[2])
    with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
        assert a.read() != b.read()
    digests = [common.artifact_digest(p) for p in paths]
    assert digests[0] == digests[1] != digests[2]


class _Domain:
    def __init__(self, size):
        self.size = size


class _Table:
    """The slice of the ``Table`` API the FD check reads."""

    def __init__(self, columns, sizes):
        self._columns = {k: np.asarray(v) for k, v in columns.items()}
        self.relation = {k: type("A", (), {"domain": _Domain(s)})()
                         for k, s in sizes.items()}

    def column(self, name):
        return self._columns[name]


def test_fd_violation_is_forced_only_once_the_determinant_is_used_up():
    # FD code -> state, code drawn after state; 2 codes.
    sequence = ["state", "code"]
    fd = (["code"], "state")
    sizes = {"code": 2, "state": 3}
    exhausted = _Table({"state": [0, 1, 2], "code": [0, 1, 0]}, sizes)
    assert common._fd_violations_forced(exhausted, fd, sequence)
    spare = _Table({"state": [0, 2, 1], "code": [0, 0, 1]}, sizes)
    assert not common._fd_violations_forced(spare, fd, sequence)
    reusable = _Table({"state": [0, 1, 0, 1], "code": [0, 1, 0, 0]}, sizes)
    assert not common._fd_violations_forced(reusable, fd, sequence)
    assert not common._fd_violations_forced(exhausted, fd,
                                            ["code", "state"])


# -- spans ------------------------------------------------------------------
def test_self_time_subtracts_the_children():
    records = [
        {"id": 1, "name": "a", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 2, "name": "b", "start": 1.0, "end": 4.0, "parent": 1},
        {"id": 3, "name": "c", "start": 3.0, "end": 6.0, "parent": 1},
        {"id": 4, "name": "d", "start": 1.5, "end": 2.0, "parent": 2},
    ]
    own = common.self_times(records)
    assert own[1] == pytest.approx(5.0)
    assert own[2] == pytest.approx(2.5)
    assert own[3] == pytest.approx(3.0)


def test_nested_spans_record_parent_and_inherit_the_request_id():
    spans = common.Spans()
    with spans.span("outer", rid="r1") as outer:
        with spans.span("inner") as inner:
            pass
    by_id = {r["id"]: r for r in spans.records}
    assert by_id[inner]["parent"] == outer
    assert by_id[inner]["rid"] == "r1"
    assert by_id[outer]["parent"] is None


# -- metric names and the result line ---------------------------------------
def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_every_metric_name_is_well_formed_and_used_once():
    names = [n for n, _, _ in common.END_TO_END + common.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert common.NAME_RE.match(name), name
        assert set(name) <= set("abcdefghijklmnopqrstuvwxyz"
                                "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


def test_benchmark_json_lists_exactly_the_metrics_the_code_reports():
    doc = _benchmark_json()
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] \
        == list(common.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == list(common.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == [
        "fit", "draw", "stream", "serve"]
    assert max(m["bound"] for m in doc["end_to_end"]) == next(
        m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")


@pytest.mark.parametrize("units", [common.END_TO_END, common.PER_LAYER])
def test_the_result_line_carries_every_metric(units):
    doc = json.loads(common.result_line(True, 3, 0, {}, units))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert list(doc["metrics"]) == [n for n, _, _ in units]
    for (name, unit, _), metric in zip(units, doc["metrics"].values()):
        assert metric == {"value": 0.0, "unit": unit}


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit", "--seed",
         "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
        capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
