#!/usr/bin/env python
"""Serving-daemon load benchmark: sheds under overload, never collapses.

Stands up the real ``pit-search serve`` daemon (in-process, real sockets)
over prebuilt artifacts, replays a Zipf-skewed workload against it, and
writes ``BENCH_serve.json``. Two phases:

* **capacity** - a gentle closed loop (2 client threads) measuring the
  daemon's unloaded service time and p50/p99 latency;
* **overload** - 2x as many client threads as the admission queue has
  slots, all firing back-to-back. A correctly admission-controlled
  server answers what it can and *sheds the rest with 429* - so the
  gates are: sheds happened, success p99 stays bounded by roughly
  (queue depth x service time), nothing 5xx'd, and ``/healthz`` +
  ``/readyz`` still answer 200 afterwards with an empty queue. An
  uncontrolled server would instead queue unboundedly: latency grows
  with client count and every caller eventually times out.

Mid-overload the bench also fires one hot ``POST /admin/reload`` and
requires it to succeed with zero dropped or 5xx'd requests (responses
flip from generation 1 to 2 under full load).

The workload reuses :func:`repro.datasets.replay_requests` (Zipf over
``generate_workload`` pairs, p proportional to rank^-skew) and round-trips
through the same JSONL format ``pit-search search --batch`` consumes, so
one replay file drives both the offline batch path and the daemon.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_serve.py
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke

``--smoke`` shrinks the dataset and request counts for CI: it proves the
daemon starts, serves, sheds, reloads, and drains - not absolute QPS.
"""

from __future__ import annotations

import argparse
import asyncio
import http.client
import json
import os
import sys
import tempfile
import threading
from pathlib import Path
from time import monotonic, perf_counter
from typing import Dict, List

from repro.core import (
    PITEngine,
    ServingEngine,
    save_summaries,
)
from repro.datasets import (
    data_2k,
    generate_workload,
    replay_requests,
    write_replay_jsonl,
)
from repro.obs import MetricsRegistry
from repro.serve import PITServer, ServeConfig

#: Success p99 under overload must stay below SAFETY x (queue+1) x mean
#: unloaded service time - i.e. bounded by the queue the server chose,
#: not by how many clients pile on.
SAFETY = 6.0
P99_FLOOR_S = 0.25  # timer-resolution floor for tiny smoke runs


class BenchDaemon:
    """The in-process daemon harness (same shape as the test suite's)."""

    def __init__(self, loader, config: ServeConfig):
        self.registry = MetricsRegistry()
        self.server = PITServer(loader, config, metrics=self.registry)
        self._ready = threading.Event()
        self.exit_code = None
        self._thread = threading.Thread(target=self._main, daemon=True)

    def _main(self):
        self.exit_code = asyncio.run(
            self.server.run(ready_callback=self._ready.set)
        )

    def start(self):
        self._thread.start()
        if not self._ready.wait(300):
            raise RuntimeError("daemon did not become ready")
        return self

    def stop(self) -> int:
        self.server.request_shutdown(0)
        self._thread.join(60)
        if self._thread.is_alive():
            raise RuntimeError("daemon did not drain")
        return self.exit_code


class ReplayClient:
    """Keep-alive replay client: one persistent connection per worker.

    The previous replay client opened a fresh TCP connection per request,
    so every latency sample paid connect/teardown cost the daemon's
    keep-alive framing was built to avoid - and under overload the
    accept backlog, not admission control, became the first bottleneck.
    One ``HTTPConnection`` per worker thread reuses the socket across
    requests (including 4xx responses, which the daemon answers without
    closing). A request that trips over a stale connection - the daemon
    closed it between requests - reconnects and retries once; a request
    that was answered with ``Connection: close`` just reconnects lazily
    on the next call.
    """

    def __init__(self, port: int, timeout: float = 30.0):
        self._port = port
        self._timeout = timeout
        self._conn = None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def post_search(self, record: Dict):
        """One search; returns (status, latency_s, generation|None)."""
        body = json.dumps(record)
        start = perf_counter()
        for attempt in (0, 1):
            conn = self._conn
            if conn is None:
                conn = self._conn = http.client.HTTPConnection(
                    "127.0.0.1", self._port, timeout=self._timeout
                )
            try:
                conn.request(
                    "POST", "/search", body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                data = response.read()
            except (http.client.HTTPException, OSError):
                self.close()
                if attempt:
                    raise
                continue
            latency = perf_counter() - start
            generation = None
            if response.status == 200:
                generation = json.loads(data).get("generation")
            if response.will_close:
                self.close()
            return response.status, latency, generation
        raise RuntimeError("unreachable")  # pragma: no cover


def simple_get(port: int, path: str):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def run_phase(port: int, records: List[Dict], n_clients: int) -> Dict:
    """Closed-loop replay: *n_clients* threads drain *records* together."""
    lock = threading.Lock()
    cursor = {"i": 0}
    latencies: List[float] = []
    statuses: Dict[int, int] = {}
    generations = set()

    def worker():
        client = ReplayClient(port)
        try:
            while True:
                with lock:
                    i = cursor["i"]
                    if i >= len(records):
                        return
                    cursor["i"] = i + 1
                status, latency, generation = client.post_search(records[i])
                with lock:
                    statuses[status] = statuses.get(status, 0) + 1
                    if status == 200:
                        latencies.append(latency)
                        generations.add(generation)
        finally:
            client.close()

    threads = [threading.Thread(target=worker) for _ in range(n_clients)]
    start = monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = monotonic() - start
    latencies.sort()
    successes = statuses.get(200, 0)
    return {
        "clients": n_clients,
        "requests": len(records),
        "seconds": elapsed,
        "statuses": {str(k): v for k, v in sorted(statuses.items())},
        "success_count": successes,
        "shed_count": statuses.get(429, 0),
        "server_error_count": sum(
            v for k, v in statuses.items() if k >= 500
        ),
        "success_qps": successes / elapsed if elapsed > 0 else 0.0,
        "mean_latency_ms": (
            1000.0 * sum(latencies) / len(latencies) if latencies else 0.0
        ),
        "p50_ms": 1000.0 * percentile(latencies, 0.50),
        "p99_ms": 1000.0 * percentile(latencies, 0.99),
        "generations_seen": sorted(g for g in generations if g is not None),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=600)
    parser.add_argument("--queries", type=int, default=12)
    parser.add_argument("--users", type=int, default=8)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--skew", type=float, default=1.1,
                        help="Zipf exponent of the replay mix")
    parser.add_argument("--capacity-requests", type=int, default=300)
    parser.add_argument("--overload-requests", type=int, default=900)
    parser.add_argument("--max-queue", type=int, default=16,
                        help="daemon admission capacity; overload drives "
                             "2x this many client threads")
    parser.add_argument("--summarizer", default="rcl", choices=["lrw", "rcl"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI profile")
    parser.add_argument("--output", default=None,
                        help="JSON destination (default: "
                             "benchmarks/BENCH_serve.json)")
    args = parser.parse_args(argv)

    if args.smoke:
        args.nodes = min(args.nodes, 250)
        args.queries = min(args.queries, 5)
        args.users = min(args.users, 3)
        args.capacity_requests = min(args.capacity_requests, 40)
        args.overload_requests = min(args.overload_requests, 150)
        args.max_queue = min(args.max_queue, 4)

    overload_clients = 2 * args.max_queue

    print(f"dataset: data_2k({args.nodes} nodes), workload "
          f"{args.queries} queries x {args.users} users, "
          f"skew={args.skew}, k={args.k}", flush=True)
    bundle = data_2k(seed=args.seed, n_nodes=args.nodes, with_corpus=False)
    engine = PITEngine.from_dataset(
        bundle, summarizer=args.summarizer, seed=args.seed
    )
    workers = max(1, min(4, os.cpu_count() or 1))
    tmp = tempfile.TemporaryDirectory(prefix="bench_serve_")
    artifact_dir = Path(tmp.name)
    index_dir = artifact_dir / "prop_shards"
    sums_path = artifact_dir / "sums.json"
    engine.propagation_index.build_sharded(index_dir, workers=workers)
    engine.build_summaries(workers=workers)
    save_summaries(engine.summaries, bundle.graph, sums_path)
    print(f"artifacts built -> {artifact_dir}", flush=True)

    # Zipf replay stream, round-tripped through the --batch JSONL format.
    workload = generate_workload(
        bundle, n_queries=args.queries, n_users=args.users, seed=args.seed
    )
    replay_path = artifact_dir / "replay.jsonl"
    total = args.capacity_requests + args.overload_requests
    records = replay_requests(
        workload, n_requests=total, k=args.k, skew=args.skew, seed=args.seed
    )
    write_replay_jsonl(records, replay_path)
    records = [
        json.loads(line) for line in replay_path.read_text().splitlines()
    ]
    capacity_records = records[: args.capacity_requests]
    overload_records = records[args.capacity_requests:]

    registry_holder = {}

    def loader(overrides):
        paths = {"summaries": str(sums_path), "index_dir": str(index_dir)}
        paths.update(overrides)
        return ServingEngine.from_artifacts(
            bundle.graph, bundle.topic_index, paths["summaries"],
            index_dir=paths["index_dir"],
            metrics=registry_holder["registry"],
        )

    config = ServeConfig(port=0, max_queue=args.max_queue)
    daemon = BenchDaemon(loader, config)
    registry_holder["registry"] = daemon.registry
    daemon.start()
    port = daemon.server.port
    print(f"daemon ready on 127.0.0.1:{port}", flush=True)

    # Phase 1: capacity - 2 gentle closed-loop clients.
    capacity = run_phase(port, capacity_records, n_clients=2)
    mean_service_s = capacity["mean_latency_ms"] / 1000.0
    print(f"capacity: {capacity['success_qps']:.1f} QPS, "
          f"p50 {capacity['p50_ms']:.2f}ms p99 {capacity['p99_ms']:.2f}ms",
          flush=True)

    # Phase 2: overload - 2x max_queue clients, plus one hot reload
    # fired mid-storm.
    reload_result = {}

    def hot_reload():
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            conn.request("POST", "/admin/reload", body="{}")
            response = conn.getresponse()
            reload_result["status"] = response.status
            reload_result["body"] = json.loads(response.read())
        finally:
            conn.close()

    reload_timer = threading.Timer(
        max(0.2, 0.2 * capacity["seconds"]), hot_reload
    )
    reload_timer.start()
    overload = run_phase(port, overload_records, n_clients=overload_clients)
    reload_timer.join()
    print(f"overload ({overload_clients} clients vs queue "
          f"{args.max_queue}): {overload['success_count']} ok, "
          f"{overload['shed_count']} shed (429), "
          f"p99 {overload['p99_ms']:.2f}ms", flush=True)

    p99_bound_s = max(
        P99_FLOOR_S, SAFETY * (args.max_queue + 1) * mean_service_s
    )
    healthz_status, _ = simple_get(port, "/healthz")
    readyz_status, _ = simple_get(port, "/readyz")
    metrics_status, metrics_text = simple_get(port, "/metrics")
    snapshot = daemon.registry.snapshot()
    serve_counters = {
        name: value for name, value in sorted(snapshot.counters.items())
        if name.startswith("serve.")
    }
    final_queue_depth = snapshot.gauges.get("serve.queue_depth", 0.0)
    exit_code = daemon.stop()
    tmp.cleanup()

    gates = {
        "sheds_under_overload": overload["shed_count"] > 0,
        "success_p99_bounded": (
            overload["p99_ms"] / 1000.0 <= p99_bound_s
        ),
        "no_server_errors": (
            capacity["server_error_count"] == 0
            and overload["server_error_count"] == 0
        ),
        "hot_reload_ok": reload_result.get("status") == 200,
        "reload_generation_advanced": (
            reload_result.get("body", {}).get("generation") == 2
        ),
        "healthz_ok_after_storm": healthz_status == 200,
        "readyz_ok_after_storm": readyz_status == 200,
        "metrics_ok_after_storm": (
            metrics_status == 200 and b"serve_requests" in metrics_text
        ),
        "queue_drained": final_queue_depth == 0.0,
        "clean_exit": exit_code == 0,
    }

    payload = {
        "benchmark": "serve",
        "config": {
            "n_nodes": bundle.graph.n_nodes,
            "n_edges": bundle.graph.n_edges,
            "n_topics": bundle.topic_index.n_topics,
            "n_queries": args.queries,
            "n_users": args.users,
            "k": args.k,
            "skew": args.skew,
            "summarizer": args.summarizer,
            "max_queue": args.max_queue,
            "overload_clients": overload_clients,
            "capacity_requests": args.capacity_requests,
            "overload_requests": args.overload_requests,
            "seed": args.seed,
            "cpu_count": os.cpu_count(),
            "smoke": args.smoke,
        },
        "capacity": capacity,
        "overload": overload,
        "p99_bound_ms": 1000.0 * p99_bound_s,
        "reload": reload_result,
        "serve_counters": serve_counters,
        "final_queue_depth": final_queue_depth,
        "exit_code": exit_code,
        "gates": gates,
        "ok": all(gates.values()),
    }
    output = Path(
        args.output
        if args.output is not None
        else Path(__file__).parent / "BENCH_serve.json"
    )
    output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")

    if not payload["ok"]:
        failed = [name for name, ok in gates.items() if not ok]
        print(f"GATE FAILURE: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("all gates passed: daemon sheds under 2x overload and stays "
          "responsive", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
