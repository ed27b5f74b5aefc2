"""Tests of the e2e benchmark harness itself.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py

The smoke-profile runs boot real daemons (a few seconds each).
"""

from __future__ import annotations

import asyncio
import json
import math
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench_e2e  # noqa: E402
import harness  # noqa: E402
import loadgen  # noqa: E402
import workloads as wl  # noqa: E402
from repro.core import apply_delta_to_graph  # noqa: E402
from repro.obs import MetricsRegistry, render_prometheus  # noqa: E402


class TestPercentile:
    def test_reports_value_and_sample_count(self):
        value, n = loadgen.percentile([float(v) for v in range(1, 101)], 0.5)
        assert (value, n) == (pytest.approx(50.5), 100)

    def test_p99_needs_ten_samples_beyond_it(self):
        assert loadgen.percentile([1.0] * 1000, 0.99) == (1.0, 1000)
        with pytest.raises(ValueError, match="needs 1000 samples"):
            loadgen.percentile([1.0] * 999, 0.99)

    def test_median_of_one_sample(self):
        assert loadgen.percentile([3.0], 0.5) == (3.0, 1)


class StallingServer:
    """Answers at once, except request number *stall_at*, which holds the
    whole server for *stall_s* - as a busy single search thread would."""

    def __init__(self, stall_at: int, stall_s: float):
        self.stall_at = stall_at
        self.stall_s = stall_s
        self.port = 0
        self._seen = 0
        self._ready = threading.Event()
        self._thread = threading.Thread(target=asyncio.run, args=(self._main(),))

    def __enter__(self) -> "StallingServer":
        self._thread.start()
        assert self._ready.wait(10)
        return self

    def __exit__(self, *exc) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(10)
        assert not self._thread.is_alive()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._lock = asyncio.Lock()
        server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        async with server:
            await self._stop.wait()

    async def _handle(self, reader, writer) -> None:
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = int(head.lower().split(b"content-length:")[1]
                             .split(b"\r\n")[0])
                await reader.readexactly(length)
                async with self._lock:
                    self._seen += 1
                    if self._seen - 1 == self.stall_at:
                        await asyncio.sleep(self.stall_s)
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()


def test_requests_due_during_a_stall_carry_it_in_their_latency():
    stall_at, stall_s, interval = 20, 0.2, 0.005
    ops = [
        loadgen.Op(i * interval, "read", loadgen.http_request("POST", "/x", b"{}"))
        for i in range(100)
    ]
    with StallingServer(stall_at, stall_s) as server:
        outcomes = loadgen.replay(server.port, ops, connections=2)
    assert all(out.status == 200 for out in outcomes)
    # The stall starts no earlier than the stalled request was due, so it
    # ends no earlier than that plus stall_s: everything due in between
    # waits at least until then, measured from its own release.
    stall_end = ops[stall_at].at + stall_s
    during = list(zip(ops, outcomes))[stall_at:stall_at + round(stall_s / interval)]
    for op, out in during:
        assert out.latency >= stall_end - (op.at + out.late) - 1e-6
    # Well after the stall the backlog has drained.
    assert all(out.latency < 0.1 for op, out in zip(ops, outcomes)
               if op.at > stall_end + 0.1)


class TestInputs:
    @pytest.fixture(scope="class")
    def graph(self):
        return wl.dataset(wl.workload_spec("head-zipf", "smoke")).graph

    def test_delta_stream_is_seed_deterministic(self, graph):
        first = wl.run_order(wl.delta_pool(graph, 6), 43, 1)
        assert first == wl.run_order(wl.delta_pool(graph, 6), 43, 1)
        other = wl.run_order(wl.delta_pool(graph, 6), 44, 1)
        assert other != first and sorted(map(repr, other)) == sorted(map(repr, first))

    def test_each_batch_applies_in_order_and_orders_agree(self, graph):
        finals = []
        for seed in (43, 44):
            state = graph
            for delta in wl.run_order(wl.delta_pool(graph, 6), seed, 1):
                state, applied = apply_delta_to_graph(state, delta)
                assert (applied.n_inserted, applied.n_deleted,
                        applied.n_reweighted) == (wl.EDITS_PER_DELTA,) * 3
            finals.append(state.edge_arrays())
        for a, b in zip(*finals):
            np.testing.assert_array_equal(a, b)

    def test_run_seed_only_orders_the_requests(self, graph):
        spec = wl.workload_spec("head-zipf", "smoke")
        pairs = wl.request_pairs(wl.dataset(spec), spec)
        requests = wl.read_records(pairs, 200, spec.skew, wl.INPUT_SEED)
        ordered = wl.run_order(requests, 43, 0)
        assert ordered != requests
        key = lambda r: (r["user"], r["query"])  # noqa: E731
        assert sorted(ordered, key=key) == sorted(requests, key=key)


def test_metrics_window_diffs_counters_and_histogram_means():
    registry = MetricsRegistry()
    registry.inc("search.requests", 2)
    registry.observe("serve.latency_seconds", 0.001)
    earlier = registry.snapshot()
    before = harness.Scrape(render_prometheus(earlier))
    registry.inc("search.requests", 3)
    for seconds in (0.002, 0.003, 0.02):
        registry.observe("serve.latency_seconds", seconds)
    now = registry.snapshot()
    window = harness.Window(before, harness.Scrape(render_prometheus(now)))
    assert window.count("search.requests") == 3
    assert window.ratio("search.requests", "search.requests") == 1.0
    assert window.mean("serve.latency_seconds") == pytest.approx(0.025 / 3)
    assert window.ratio("search.requests", "never.seen") == 0.0


def _set(values, correct=True, failed=0):
    """A ``--repeat`` set of one workload with one ``setup_s`` per run."""
    runs = [
        {"workload": "w", "trace": False, "exit_code": 0,
         "result": {"correct": correct, "attempted": 100, "failed": failed,
                    "metrics": {"setup_s": {"value": v, "unit": "s"}}}}
        for v in values
    ]
    return {"summary": bench_e2e.summarize(runs), "runs": runs}


def test_compare_counts_slower_wrong_or_failing_sets_as_regressions():
    spec = {"end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
    ]}
    base = _set([1.0, 1.0, 1.1])
    assert bench_e2e.compare(base, _set([1.0, 1.05, 1.0]), spec) == 0
    assert bench_e2e.compare(base, _set([2.0, 2.0, 2.1]), spec) == 1
    assert bench_e2e.compare(base, _set([1.0] * 3, correct=False), spec) == 1
    assert bench_e2e.compare(base, _set([1.0] * 3, failed=1), spec) == 1


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace, tmp_path):
    report_path = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "bench_e2e.py"), "--workload", workload,
         "--seed", "43", "--seconds", "2", "--trace", str(trace),
         "--profile", "smoke", "--output", str(report_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    wanted = harness.benchmark_spec()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    checks = json.loads(report_path.read_text())["checks"]
    assert checks["mismatches"] == 0 and checks["reads"] > 0
    # Deltas go out as a stream, or as probes in a traced run.
    if trace or wl.WORKLOADS[workload].delta_rate:
        assert checks["deltas"] > 0


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench_e2e.py", "--workload",
         "head-zipf", "--seed", "43", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
