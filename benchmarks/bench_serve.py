#!/usr/bin/env python
"""Serving-daemon storm benchmark: sheds under overload, answer tier pays off.

Stands up the real daemon (:class:`repro.serve.LocalDaemon`: in-process,
real sockets) over prebuilt artifacts, replays a Zipf-skewed workload
against it, and writes ``BENCH_serve.json``. Phases:

* **capacity** - 2 gentle closed-loop clients against a plain daemon:
  the unloaded service time that bounds the storms' p99;
* **storms** - uncached/cached pairs of a 2x-overload storm (2x as many
  client threads as the admission queue has slots). The uncached daemon
  recomputes every request; the cached one warm-loads its answer tier
  from a precompute mined from a Zipf trace (past traffic; the storms
  replay new traffic from the same mix). Each storm fires ``POST
  /admin/reload {}`` (what SIGHUP sends) when the replay cursor crosses
  its midpoint, and workers past it wait for the swap before their
  latency clock starts, so the second half runs on generation 2. Both
  profiles run ``STORM_PAIRS`` pairs, alternating which side goes first;
* **parity** - warm cached engines vs fresh uncached engines over the
  differential seeds 7 and 1234, across a generation bump.

Gates (exit 1 unless all hold): every uncached storm sheds and keeps its
success p99 under ``SAFETY`` x (queue + 1) x the unloaded service time;
after every storm ``/healthz``, ``/readyz`` and ``/metrics`` answer 200
and the queue is empty, its reload returned 200 and generation 2
answered; every cached storm hits the answer tier >= 50%, exposes the
tier family on ``/metrics`` and answers a post-reload spot check
whose raw response bodies equal, byte for byte, the uncached engine's
answers serialized as one response object, and the p90 of every cached
storm's successes pooled is below the same pooled p90 of the uncached
storms, each side pooling at least ``MIN_POOLED_SAMPLES`` successes
(storms of the same run, never a committed number); parity is bit-exact
(results and the five work-stat fields); zero 5xx; every drain exits 0.

Run from the repo root (``--smoke`` is the CI profile: it proves the
daemon serves, sheds, reloads, warms and drains, not absolute QPS)::

    PYTHONPATH=src python benchmarks/bench_serve.py
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import sys
import tempfile
import threading
from pathlib import Path
from statistics import median
from time import monotonic, perf_counter
from typing import Dict, List, Optional

from repro.core import (
    PITEngine,
    ServingEngine,
    build_precompute,
    save_precompute,
    save_summaries,
)
from repro.datasets import (
    data_2k,
    generate_workload,
    replay_requests,
    write_replay_jsonl,
)
from repro.serve import LocalDaemon, ServeConfig

#: Success p99 of an uncached storm must stay below SAFETY x (queue+1) x
#: mean unloaded service time.
SAFETY = 6.0
P99_FLOOR_S = 0.25  # timer-resolution floor for tiny smoke runs

#: Uncached/cached storm pairs of every run, smoke included: the tail
#: gate pools their successes per side.
STORM_PAIRS = 3

#: The cached-vs-uncached tail gate compares this quantile of each side's
#: pooled successes, and needs MIN_POOLED_SAMPLES of them per side so
#: that 10 lie beyond it: an uncached storm completes only 60-90 requests,
#: too few for a p99 that is not its slowest sample.
GATE_QUANTILE = 0.90
MIN_POOLED_SAMPLES = 100

#: ``--smoke`` caps each of these options at the given value.
SMOKE_CAPS = {
    "nodes": 250, "queries": 5, "users": 3, "capacity_requests": 40,
    "trace_requests": 300, "overload_requests": 300, "max_queue": 4,
    "top_queries": 4, "top_answers": 12, "parity_requests": 60,
}

#: Answer-tier budget of the cached daemons and engines.
ANSWER_CACHE_BYTES = 32 << 20

WORK_FIELDS = (
    "topics_considered",
    "topics_pruned",
    "entries_probed",
    "expansion_rounds",
    "representatives_touched",
)


def build_stack(seed: int, n_nodes: int, directory: Path, summarizer: str):
    """One dataset and its serving artifacts: (bundle, index_dir, sums)."""
    bundle = data_2k(seed=seed, n_nodes=n_nodes, with_corpus=False)
    engine = PITEngine.from_dataset(bundle, summarizer=summarizer, seed=seed)
    workers = max(1, min(4, os.cpu_count() or 1))
    index_dir = directory / f"prop_{seed}"
    sums_path = directory / f"sums_{seed}.json"
    engine.propagation_index.build_sharded(index_dir, workers=workers)
    engine.build_summaries(workers=workers)
    save_summaries(engine.summaries, bundle.graph, sums_path)
    return bundle, index_dir, sums_path


def mine_precompute(bundle, index_dir, sums_path, records, path: Path,
                    args, k: int):
    """Mine *records* (written as a replay JSONL) into a precompute."""
    trace_path = write_replay_jsonl(records, path.with_suffix(".jsonl"))
    offline = ServingEngine.from_artifacts(
        bundle.graph, bundle.topic_index, sums_path, index_dir=index_dir
    )
    artifact = build_precompute(
        offline, trace_path,
        top_queries=args.top_queries, top_answers=args.top_answers,
        default_k=k,
    )
    save_precompute(artifact, path)
    return artifact


class ReplayClient:
    """Keep-alive replay client: one persistent connection per worker, so
    latency samples carry no connect cost. A stale connection reconnects
    and retries once; ``Connection: close`` reconnects on the next call.
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


def percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def replay(daemon: LocalDaemon, records: List[Dict], n_clients: int,
           *, reload_midway: bool = False,
           samples: Optional[List[float]] = None) -> Dict:
    """Closed-loop replay: *n_clients* threads drain *records* together.

    With *reload_midway*, ``POST /admin/reload {}`` fires once half the
    records are claimed, and workers past the midpoint wait for it to
    land before sending (and before their latency clock starts).
    """
    lock = threading.Lock()
    cursor = {"i": 0}
    latencies: List[float] = []
    statuses: Dict[int, int] = {}
    generations = set()
    midpoint = threading.Event()
    reload_done = threading.Event()
    reload_result: Dict = {}

    def reloader():
        midpoint.wait()
        try:
            status, body, _ = daemon.request("POST", "/admin/reload", {})
            reload_result.update(status=status, body=body)
        except Exception as exc:  # surfaced through the reload gate
            reload_result["error"] = repr(exc)
        finally:
            reload_done.set()

    def worker():
        client = ReplayClient(daemon.port)
        try:
            while True:
                with lock:
                    i = cursor["i"]
                    if i >= len(records):
                        return
                    cursor["i"] = i + 1
                if reload_midway and i >= len(records) // 2:
                    midpoint.set()
                    reload_done.wait()
                status, latency, generation = client.post_search(records[i])
                with lock:
                    statuses[status] = statuses.get(status, 0) + 1
                    if status == 200:
                        latencies.append(latency)
                        generations.add(generation)
        finally:
            client.close()

    helpers = [threading.Thread(target=reloader)] if reload_midway else []
    threads = [threading.Thread(target=worker) for _ in range(n_clients)]
    start = monotonic()
    for t in helpers + threads:
        t.start()
    for t in threads:
        t.join()
    midpoint.set()  # degenerate record counts: never leave the reloader hung
    for t in helpers:
        t.join()
    elapsed = monotonic() - start
    latencies.sort()
    if samples is not None:
        samples.extend(latencies)
    successes = statuses.get(200, 0)
    phase = {
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
    if reload_midway:
        phase["reload"] = reload_result
    return phase


def work_tuple(stats) -> tuple:
    return tuple(getattr(stats, f) for f in WORK_FIELDS)


def engine_parity(
    bundle, index_dir, sums_path, precompute_path, records, seed
) -> Dict:
    """Warm cached engine vs. fresh uncached engine, across a generation bump.

    Generation 2 repeats the check on a brand-new warm engine stamped
    with the next generation - what the daemon's hot swap builds.
    """

    def fresh(cached: bool, generation: int) -> ServingEngine:
        engine = ServingEngine.from_artifacts(
            bundle.graph, bundle.topic_index, sums_path,
            index_dir=index_dir,
            answer_cache_bytes=ANSWER_CACHE_BYTES if cached else None,
            precompute_path=precompute_path if cached else None,
        )
        return engine.set_reload_generation(generation)

    plain = fresh(cached=False, generation=1)
    mismatches = 0
    warm_hits = 0
    for generation in (1, 2):
        warm = fresh(cached=True, generation=generation)
        for record in records:
            got = warm.search(
                record["user"], record["query"], record["k"], with_stats=True
            )
            want = plain.search(
                record["user"], record["query"], record["k"], with_stats=True
            )
            if got[0] != want[0] or work_tuple(got[1]) != work_tuple(want[1]):
                mismatches += 1
        warm_hits += warm.tier_stats()["answers"].hits
    return {
        "seed": seed,
        "n_requests_checked": 2 * len(records),
        "generations_checked": [1, 2],
        "mismatches": mismatches,
        "warm_engine_answer_hits": warm_hits,
        "ok": mismatches == 0,
    }


def oracle_body(record, results, stats, generation: int) -> bytes:
    """A ``/search`` body as the whole response object serialized at once."""
    return (json.dumps({
        "user": record["user"],
        "query": record["query"],
        "k": record["k"],
        "results": [
            {"topic_id": r.topic_id, "label": r.label,
             "influence": r.influence}
            for r in results
        ],
        "stats": {f: getattr(stats, f) for f in WORK_FIELDS},
        "generation": generation,
    }, sort_keys=True) + "\n").encode("utf-8")


def daemon_spot_check(daemon: LocalDaemon, plain: ServingEngine,
                      records) -> Dict:
    """Post-reload daemon responses vs. a fresh uncached engine, byte for
    byte: each raw body must equal :func:`oracle_body` of the engine's
    answer at the generation the response carries."""
    mismatches = 0
    checked = 0
    conn = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=60)
    try:
        for record in records:
            conn.request("POST", "/search", body=json.dumps(record),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            body = response.read()
            if response.status != 200:
                continue  # sheds are not answers; nothing to compare
            checked += 1
            results, stats = plain.search(
                record["user"], record["query"], record["k"],
                with_stats=True,
            )
            generation = json.loads(body)["generation"]
            if body != oracle_body(record, results, stats, generation):
                mismatches += 1
    finally:
        conn.close()
    return {"checked": checked, "mismatches": mismatches,
            "ok": checked > 0 and mismatches == 0}


def after_storm(daemon: LocalDaemon) -> Dict:
    """Health, readiness, scrape and queue state once the storm is over."""
    healthz, _, _ = daemon.request("GET", "/healthz")
    readyz, _, _ = daemon.request("GET", "/readyz")
    metrics_status, metrics_text, _ = daemon.request("GET", "/metrics")
    snapshot = daemon.registry.snapshot()
    return {
        "healthz_ok": healthz == 200,
        "readyz_ok": readyz == 200,
        "metrics_ok": (
            metrics_status == 200 and b"serve_requests" in metrics_text
        ),
        "metrics_has_tier_family": (
            metrics_status == 200 and b"cache_tier_answers" in metrics_text
        ),
        "final_queue_depth": snapshot.gauges.get("serve.queue_depth", 0.0),
        "counters": {
            name: value for name, value in sorted(snapshot.counters.items())
            if name.startswith(("serve.", "cache.tier."))
        },
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
    parser.add_argument("--trace-requests", type=int, default=1200,
                        help="mined trace length (yesterday's traffic)")
    parser.add_argument("--overload-requests", type=int, default=900,
                        help="requests per storm")
    parser.add_argument("--max-queue", type=int, default=16,
                        help="daemon admission capacity; the storms drive "
                             "2x this many client threads")
    parser.add_argument("--top-queries", type=int, default=8,
                        help="head plans precomputed (of --queries distinct)")
    parser.add_argument("--top-answers", type=int, default=64,
                        help="heavy-hitter answers precomputed (partial "
                             "coverage, so write-through is exercised too)")
    parser.add_argument("--parity-requests", type=int, default=200,
                        help="records replayed per seed in the parity check")
    parser.add_argument("--summarizer", default="rcl", choices=["lrw", "rcl"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI profile")
    parser.add_argument("--output", default=None,
                        help="JSON destination (default: "
                             "benchmarks/BENCH_serve.json)")
    args = parser.parse_args(argv)

    if args.smoke:
        for name, cap in SMOKE_CAPS.items():
            setattr(args, name, min(getattr(args, name), cap))

    overload_clients = 2 * args.max_queue
    tmp = tempfile.TemporaryDirectory(prefix="bench_serve_")
    directory = Path(tmp.name)

    print(f"dataset: data_2k({args.nodes} nodes), workload "
          f"{args.queries} queries x {args.users} users, "
          f"skew={args.skew}, k={args.k}", flush=True)
    bundle, index_dir, sums_path = build_stack(
        args.seed, args.nodes, directory, args.summarizer
    )
    workload = generate_workload(
        bundle, n_queries=args.queries, n_users=args.users, seed=args.seed
    )
    # Trace = past traffic (mined offline); capacity and storm records =
    # new traffic drawn from the same Zipf mix with another seed.
    trace_records = replay_requests(
        workload, n_requests=args.trace_requests, k=args.k,
        skew=args.skew, seed=args.seed,
    )
    records = replay_requests(
        workload, n_requests=args.capacity_requests + args.overload_requests,
        k=args.k, skew=args.skew, seed=args.seed + 1,
    )
    capacity_records = records[: args.capacity_requests]
    storm_records = records[args.capacity_requests:]
    precompute_path = directory / "precompute.json"
    artifact = mine_precompute(
        bundle, index_dir, sums_path, trace_records, precompute_path,
        args, args.k,
    )
    print(f"precompute: {len(artifact.plans)} plans, "
          f"{len(artifact.answers)} answers from "
          f"{artifact.trace['n_records']} trace records "
          f"({artifact.trace['n_distinct_triples']} distinct triples)",
          flush=True)

    def start_daemon(cached: bool) -> LocalDaemon:
        paths = {"summaries": sums_path, "index_dir": index_dir}
        if cached:
            paths["precompute"] = precompute_path
        return LocalDaemon(
            bundle.graph, bundle.topic_index, paths,
            ServeConfig(max_queue=args.max_queue),
            answer_cache_bytes=ANSWER_CACHE_BYTES if cached else None,
        ).start()

    # Capacity: 2 gentle closed-loop clients against a plain daemon.
    daemon = start_daemon(cached=False)
    capacity = replay(daemon, capacity_records, n_clients=2)
    capacity["exit_code"] = daemon.stop()
    mean_service_s = capacity["mean_latency_ms"] / 1000.0
    p99_bound_s = max(
        P99_FLOOR_S, SAFETY * (args.max_queue + 1) * mean_service_s
    )
    print(f"capacity: {capacity['success_qps']:.1f} QPS, "
          f"p50 {capacity['p50_ms']:.2f}ms p99 {capacity['p99_ms']:.2f}ms "
          f"-> storm p99 bound {1000.0 * p99_bound_s:.1f}ms", flush=True)

    plain = ServingEngine.from_artifacts(
        bundle.graph, bundle.topic_index, sums_path, index_dir=index_dir
    )

    def run_storm(cached: bool, samples: List[float]) -> Dict:
        daemon = start_daemon(cached)
        storm = {"phase": replay(
            daemon, storm_records, overload_clients, reload_midway=True,
            samples=samples,
        )}
        if cached:
            storm["spot_check"] = daemon_spot_check(
                daemon, plain, storm_records[:40]
            )
        storm.update(after_storm(daemon), exit_code=daemon.stop())
        hits = storm["counters"].get("cache.tier.answers.hits", 0)
        misses = storm["counters"].get("cache.tier.answers.misses", 0)
        storm["answer_hit_ratio"] = hits / (hits + misses) if hits else 0.0
        return storm

    n_pairs = STORM_PAIRS
    print(f"storms: {n_pairs} uncached/cached pairs of "
          f"{len(storm_records)} requests, {overload_clients} clients vs "
          f"queue {args.max_queue}, reload at replay midpoint", flush=True)
    storms = {"uncached": [], "cached": []}
    pooled = {"uncached": [], "cached": []}  # success latencies, seconds
    for pair in range(n_pairs):
        # Alternate which side goes first so host drift hits both sides.
        for cached in (False, True) if pair % 2 == 0 else (True, False):
            side = "cached" if cached else "uncached"
            storm = run_storm(cached=cached, samples=pooled[side])
            storms[side].append(storm)
            print(f"pair {pair} {side:8s}: "
                  f"{storm['phase']['success_count']} ok, "
                  f"{storm['phase']['shed_count']} shed, "
                  f"p99 {storm['phase']['p99_ms']:.2f}ms, "
                  f"answer hit ratio {storm['answer_hit_ratio']:.3f}",
                  flush=True)
    every = storms["uncached"] + storms["cached"]

    # Differential parity over the two property-harness seeds.
    parity = {}
    for seed, n_nodes in ((7, 140), (1234, 120)):
        p_bundle, p_index, p_sums = build_stack(
            seed, n_nodes, directory, args.summarizer
        )
        p_workload = generate_workload(
            p_bundle, n_queries=max(4, args.queries // 2),
            n_users=max(3, args.users // 2), seed=seed,
        )
        p_trace = replay_requests(
            p_workload, n_requests=args.parity_requests, k=5,
            skew=args.skew, seed=seed,
        )
        p_pre_path = directory / f"precompute_{seed}.json"
        mine_precompute(
            p_bundle, p_index, p_sums, p_trace, p_pre_path, args, 5
        )
        parity[str(seed)] = engine_parity(
            p_bundle, p_index, p_sums, p_pre_path, p_trace, seed
        )
        print(f"parity seed {seed}: "
              f"{parity[str(seed)]['n_requests_checked']} checks across "
              f"generations {parity[str(seed)]['generations_checked']}, "
              f"{parity[str(seed)]['mismatches']} mismatches", flush=True)
    tmp.cleanup()

    cached_p99 = median(c["phase"]["p99_ms"] for c in storms["cached"])
    uncached_p99 = median(u["phase"]["p99_ms"] for u in storms["uncached"])
    pooled_tail = {
        side: 1000.0 * percentile(sorted(samples), GATE_QUANTILE)
        for side, samples in pooled.items()
    }
    gates = {
        "sheds_under_overload": all(
            u["phase"]["shed_count"] > 0 for u in storms["uncached"]
        ),
        "success_p99_bounded": all(
            u["phase"]["p99_ms"] / 1000.0 <= p99_bound_s
            for u in storms["uncached"]
        ),
        "no_server_errors": capacity["server_error_count"] == 0 and all(
            storm["phase"]["server_error_count"] == 0 for storm in every
        ),
        "hot_reload_ok": all(
            storm["phase"]["reload"].get("status") == 200 for storm in every
        ),
        "generation_bump_observed": all(
            storm["phase"]["reload"].get("body", {}).get("generation") == 2
            and 2 in storm["phase"]["generations_seen"]
            for storm in every
        ),
        "healthz_ok_after_storm": all(s["healthz_ok"] for s in every),
        "readyz_ok_after_storm": all(s["readyz_ok"] for s in every),
        "metrics_ok_after_storm": all(s["metrics_ok"] for s in every),
        "queue_drained": all(s["final_queue_depth"] == 0.0 for s in every),
        "answer_hit_ratio_ge_50pct": all(
            c["answer_hit_ratio"] >= 0.5 for c in storms["cached"]
        ),
        "cached_p90_below_uncached": (
            min(map(len, pooled.values())) >= MIN_POOLED_SAMPLES
            and pooled_tail["cached"] < pooled_tail["uncached"]
        ),
        "metrics_expose_tier_family": all(
            c["metrics_has_tier_family"] for c in storms["cached"]
        ),
        "parity_seed_7": parity["7"]["ok"],
        "parity_seed_1234": parity["1234"]["ok"],
        "daemon_spot_check_bit_exact": all(
            c["spot_check"]["ok"] for c in storms["cached"]
        ),
        "clean_exits": capacity["exit_code"] == 0 and all(
            storm["exit_code"] == 0 for storm in every
        ),
    }

    payload = {
        "benchmark": "serve",
        "config": {
            **{k: v for k, v in vars(args).items() if k != "output"},
            "n_edges": bundle.graph.n_edges,
            "n_topics": bundle.topic_index.n_topics,
            "overload_clients": overload_clients,
            "storm_pairs": n_pairs,
            "cpu_count": os.cpu_count(),
        },
        "precompute": {
            "plans": len(artifact.plans),
            "answers": len(artifact.answers),
            "trace": artifact.trace,
            "warm_bytes": artifact.memory_hint_bytes(),
        },
        "capacity": capacity,
        "p99_bound_ms": 1000.0 * p99_bound_s,
        "uncached": storms["uncached"],
        "cached": storms["cached"],
        "median_p99_ms": {"uncached": uncached_p99, "cached": cached_p99},
        "pooled_p90_ms": pooled_tail,
        "pooled_successes": {side: len(v) for side, v in pooled.items()},
        "p99_speedup": (
            uncached_p99 / cached_p99 if cached_p99 > 0 else None
        ),
        "parity": parity,
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
    print(f"all gates passed: uncached storms shed and stay bounded; "
          f"pooled p90 {pooled_tail['uncached']:.2f}ms -> "
          f"{pooled_tail['cached']:.2f}ms cached over {n_pairs} storm "
          f"pair(s) (median p99 {payload['p99_speedup']:.2f}x)",
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
