#!/usr/bin/env python
"""Answer-cache benchmark: precompute + tiered caches vs. plain serving.

Builds one serving stack (same shape as ``bench_serve.py``), mines a Zipf
workload trace into a ``pit-search precompute`` artifact, then replays the
2x-overload storm twice against the real daemon:

* **uncached** - the PR 7 configuration: no answer tier, every request
  recomputed (plans/entries/summaries still cached, as before);
* **cached** - answer tier enabled and warm-loaded from the precompute
  artifact.

Both storms fire one hot ``POST /admin/reload`` the moment the replay
cursor crosses its midpoint (cursor-triggered, not wall-clock, so the
generation bump always lands mid-storm even on fast profiles). The swap
builds a fresh engine - structural invalidation - and re-warms it from
the artifact, so the cached phase also proves the answer tier survives a
generation bump without serving anything stale.

Both phases use the keep-alive replay client and identical records, so
the p99 delta is the answer tier's doing. The full profile runs
``FULL_STORM_PAIRS`` uncached/cached pairs, alternating which side goes
first, so one slow storm cannot decide the p99 gate; smoke runs one pair.
Gates:

* answer-tier hit ratio >= 0.5 under every cached overload replay;
* median cached success p99 below the median uncached p99 (every storm
  runs on the same host in the same run; no committed number from
  another host is a gate);
* cached answers bit-exact vs. uncached search over the differential
  seeds 7 and 1234 - results and the five deterministic work-stat
  fields - including after a reload generation bump, and a daemon-level
  spot check against a fresh engine after every cached storm's reload;
* zero 5xx anywhere, every reload succeeded, generation 2 was observed
  inside every cached storm, and every daemon exited cleanly.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_answer_cache.py
    PYTHONPATH=src python benchmarks/bench_answer_cache.py --smoke
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
from time import monotonic
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).parent))

from bench_serve import BenchDaemon, ReplayClient, simple_get  # noqa: E402

from repro.core import (  # noqa: E402
    PITEngine,
    ServingEngine,
    build_precompute,
    save_precompute,
    save_summaries,
)
from repro.datasets import data_2k, generate_workload, replay_requests  # noqa: E402
from repro.serve import ServeConfig  # noqa: E402

WORK_FIELDS = (
    "topics_considered",
    "topics_pruned",
    "entries_probed",
    "expansion_rounds",
    "representatives_touched",
)

#: Uncached/cached storm pairs of a full run; a smoke run keeps one.
FULL_STORM_PAIRS = 3


def build_stack(seed: int, n_nodes: int, directory: Path, summarizer: str):
    """One dataset + artifacts, same shape as the serve bench / tests."""
    bundle = data_2k(seed=seed, n_nodes=n_nodes, with_corpus=False)
    engine = PITEngine.from_dataset(bundle, summarizer=summarizer, seed=seed)
    workers = max(1, min(4, os.cpu_count() or 1))
    index_dir = directory / f"prop_{seed}"
    sums_path = directory / f"sums_{seed}.json"
    engine.propagation_index.build_sharded(index_dir, workers=workers)
    engine.build_summaries(workers=workers)
    save_summaries(engine.summaries, bundle.graph, sums_path)
    return bundle, index_dir, sums_path


def run_storm_with_reload(
    port: int, records: List[Dict], n_clients: int
) -> Dict:
    """Closed-loop replay that hot-reloads at the replay midpoint.

    Same worker loop as ``bench_serve.run_phase``, plus a helper thread
    that fires ``POST /admin/reload`` as soon as half the records have
    been claimed. Workers that claim a record past the midpoint wait for
    the swap to land before sending it, so the second half of the replay
    is guaranteed to run against generation 2 - even on profiles fast
    enough to drain the whole record list before an engine rebuild
    finishes. (Reload *under* full concurrent load is bench_serve's
    gate; this one proves the answer tier survives the bump.) The wait
    happens before each request's latency clock starts, so it does not
    pollute the percentiles.
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
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            conn.request("POST", "/admin/reload", body="{}")
            response = conn.getresponse()
            reload_result["status"] = response.status
            reload_result["body"] = json.loads(response.read())
        except Exception as exc:  # surfaced through the reload gate
            reload_result["error"] = repr(exc)
        finally:
            conn.close()
            reload_done.set()

    def worker():
        client = ReplayClient(port)
        try:
            while True:
                with lock:
                    i = cursor["i"]
                    if i >= len(records):
                        return
                    cursor["i"] = i + 1
                if i >= len(records) // 2:
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

    reload_thread = threading.Thread(target=reloader)
    threads = [threading.Thread(target=worker) for _ in range(n_clients)]
    start = monotonic()
    reload_thread.start()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    midpoint.set()  # degenerate record counts: never leave the reloader hung
    reload_thread.join()
    elapsed = monotonic() - start
    latencies.sort()

    def pct(q: float) -> float:
        if not latencies:
            return 0.0
        return latencies[min(len(latencies) - 1, int(q * len(latencies)))]

    successes = statuses.get(200, 0)
    return {
        "clients": n_clients,
        "requests": len(records),
        "seconds": elapsed,
        "statuses": {str(k): v for k, v in sorted(statuses.items())},
        "success_count": successes,
        "shed_count": statuses.get(429, 0),
        "server_error_count": sum(v for k, v in statuses.items() if k >= 500),
        "success_qps": successes / elapsed if elapsed > 0 else 0.0,
        "mean_latency_ms": (
            1000.0 * sum(latencies) / len(latencies) if latencies else 0.0
        ),
        "p50_ms": 1000.0 * pct(0.50),
        "p99_ms": 1000.0 * pct(0.99),
        "generations_seen": sorted(g for g in generations if g is not None),
        "reload": reload_result,
    }


def work_tuple(stats) -> tuple:
    return tuple(getattr(stats, f) for f in WORK_FIELDS)


def engine_parity(
    bundle, index_dir, sums_path, precompute_path, records, seed
) -> Dict:
    """Warm cached engine vs. fresh uncached engine, across a generation bump.

    Replays *records* against an answer-tier engine warm-loaded from the
    precompute artifact and a plain engine, comparing results and the
    deterministic work stats bit-exactly. Generation 2 repeats the check
    on a brand-new warm engine stamped with the next generation - exactly
    what the daemon's hot swap builds - proving nothing cached under an
    old generation can leak through the artifact path.
    """

    def fresh(cached: bool, generation: int) -> ServingEngine:
        engine = ServingEngine.from_artifacts(
            bundle.graph, bundle.topic_index, sums_path,
            index_dir=index_dir,
            answer_cache_bytes=(32 << 20) if cached else None,
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
        warm_hits += warm.answer_cache_stats().hits
    return {
        "seed": seed,
        "n_requests_checked": 2 * len(records),
        "generations_checked": [1, 2],
        "mismatches": mismatches,
        "warm_engine_answer_hits": warm_hits,
        "ok": mismatches == 0,
    }


def daemon_spot_check(port: int, bundle, index_dir, sums_path, records) -> Dict:
    """Post-reload daemon responses vs. a fresh uncached engine."""
    plain = ServingEngine.from_artifacts(
        bundle.graph, bundle.topic_index, sums_path, index_dir=index_dir
    )
    mismatches = 0
    checked = 0
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        for record in records:
            conn.request(
                "POST", "/search", body=json.dumps(record),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            body = json.loads(response.read())
            if response.status != 200:
                continue  # sheds are not answers; nothing to compare
            checked += 1
            results, stats = plain.search(
                record["user"], record["query"], record["k"], with_stats=True
            )
            want = [
                {"topic_id": r.topic_id, "label": r.label,
                 "influence": r.influence}
                for r in results
            ]
            want_stats = {f: getattr(stats, f) for f in WORK_FIELDS}
            if body["results"] != want or body["stats"] != want_stats:
                mismatches += 1
    finally:
        conn.close()
    return {"checked": checked, "mismatches": mismatches,
            "ok": checked > 0 and mismatches == 0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=600)
    parser.add_argument("--queries", type=int, default=12)
    parser.add_argument("--users", type=int, default=8)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--skew", type=float, default=1.1)
    parser.add_argument("--trace-requests", type=int, default=1200,
                        help="mined trace length (yesterday's traffic)")
    parser.add_argument("--overload-requests", type=int, default=900)
    parser.add_argument("--max-queue", type=int, default=16,
                        help="daemon admission capacity; the storm drives "
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
    parser.add_argument("--smoke", action="store_true", help="tiny CI profile")
    parser.add_argument("--output", default=None,
                        help="JSON destination (default: "
                             "benchmarks/BENCH_answer_cache.json)")
    args = parser.parse_args(argv)

    if args.smoke:
        args.nodes = min(args.nodes, 250)
        args.queries = min(args.queries, 5)
        args.users = min(args.users, 3)
        args.trace_requests = min(args.trace_requests, 300)
        args.overload_requests = min(args.overload_requests, 150)
        args.max_queue = min(args.max_queue, 4)
        args.top_queries = min(args.top_queries, 4)
        args.top_answers = min(args.top_answers, 12)
        args.parity_requests = min(args.parity_requests, 60)

    overload_clients = 2 * args.max_queue
    tmp = tempfile.TemporaryDirectory(prefix="bench_answer_cache_")
    directory = Path(tmp.name)

    print(f"dataset: data_2k({args.nodes} nodes), workload {args.queries} "
          f"queries x {args.users} users, skew={args.skew}, k={args.k}",
          flush=True)
    bundle, index_dir, sums_path = build_stack(
        args.seed, args.nodes, directory, args.summarizer
    )

    workload = generate_workload(
        bundle, n_queries=args.queries, n_users=args.users, seed=args.seed
    )
    # Trace = past traffic (mined offline); replay = new traffic drawn
    # from the same Zipf mix with a different sampling seed.
    trace_records = replay_requests(
        workload, n_requests=args.trace_requests, k=args.k,
        skew=args.skew, seed=args.seed,
    )
    trace_path = directory / "trace.jsonl"
    trace_path.write_text(
        "".join(json.dumps(r) + "\n" for r in trace_records),
        encoding="utf-8",
    )
    replay_records = replay_requests(
        workload, n_requests=args.overload_requests, k=args.k,
        skew=args.skew, seed=args.seed + 1,
    )

    offline = ServingEngine.from_artifacts(
        bundle.graph, bundle.topic_index, sums_path, index_dir=index_dir
    )
    artifact = build_precompute(
        offline, trace_path,
        top_queries=args.top_queries, top_answers=args.top_answers,
        default_k=args.k,
    )
    precompute_path = directory / "precompute.json"
    save_precompute(artifact, precompute_path)
    print(f"precompute: {len(artifact.plans)} plans, "
          f"{len(artifact.answers)} answers from "
          f"{artifact.trace['n_records']} trace records "
          f"({artifact.trace['n_distinct_triples']} distinct triples)",
          flush=True)

    def run_storm(cached: bool) -> Dict:
        registry_holder = {}

        def loader(overrides):
            paths = {"summaries": str(sums_path), "index_dir": str(index_dir)}
            if cached:
                paths["precompute"] = str(precompute_path)
            paths.update(overrides)
            return ServingEngine.from_artifacts(
                bundle.graph, bundle.topic_index, paths["summaries"],
                index_dir=paths["index_dir"],
                answer_cache_bytes=(32 << 20) if cached else None,
                precompute_path=paths.get("precompute"),
                metrics=registry_holder["registry"],
            )

        daemon = BenchDaemon(loader, ServeConfig(
            port=0, max_queue=args.max_queue,
        ))
        registry_holder["registry"] = daemon.registry
        daemon.start()
        port = daemon.server.port

        phase = run_storm_with_reload(
            port, replay_records, n_clients=overload_clients
        )

        spot = None
        if cached:
            spot = daemon_spot_check(
                port, bundle, index_dir, sums_path,
                replay_records[: min(40, len(replay_records))],
            )

        snapshot = daemon.registry.snapshot()
        hits = snapshot.counters.get("cache.tier.answers.hits", 0)
        misses = snapshot.counters.get("cache.tier.answers.misses", 0)
        lookups = hits + misses
        hit_hist = snapshot.histograms.get(
            "cache.tier.answers.hit_latency_seconds"
        )
        healthz_status, _ = simple_get(port, "/healthz")
        metrics_status, metrics_text = simple_get(port, "/metrics")
        exit_code = daemon.stop()
        return {
            "phase": phase,
            "spot_check": spot,
            "answer_hits": hits,
            "answer_misses": misses,
            "answer_hit_ratio": (hits / lookups) if lookups else 0.0,
            "answer_hit_p99_us": (
                1e6 * hit_hist.p99
                if hit_hist is not None and hit_hist.count else None
            ),
            "plan_hits": snapshot.counters.get("cache.tier.plans.hits", 0),
            "plan_misses": snapshot.counters.get("cache.tier.plans.misses", 0),
            "tier_gauges": {
                name: value
                for name, value in sorted(snapshot.gauges.items())
                if name.startswith("cache.tier.")
            },
            "healthz_ok": healthz_status == 200,
            "metrics_has_tier_family": (
                metrics_status == 200
                and b"cache_tier_answers" in metrics_text
            ),
            "exit_code": exit_code,
        }

    n_pairs = 1 if args.smoke else FULL_STORM_PAIRS
    print(f"storms: {n_pairs} uncached/cached pairs of "
          f"{len(replay_records)} requests, {overload_clients} clients vs "
          f"queue {args.max_queue}, reload at replay midpoint", flush=True)
    storms = {"uncached": [], "cached": []}
    for pair in range(n_pairs):
        # Alternate which side goes first so host drift hits both sides.
        for cached in (False, True) if pair % 2 == 0 else (True, False):
            side = "cached" if cached else "uncached"
            storm = run_storm(cached=cached)
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
        p_trace_path = directory / f"trace_{seed}.jsonl"
        p_trace_path.write_text(
            "".join(json.dumps(r) + "\n" for r in p_trace), encoding="utf-8"
        )
        p_offline = ServingEngine.from_artifacts(
            p_bundle.graph, p_bundle.topic_index, p_sums, index_dir=p_index
        )
        p_art = build_precompute(
            p_offline, p_trace_path,
            top_queries=args.top_queries, top_answers=args.top_answers,
            default_k=5,
        )
        p_pre_path = directory / f"precompute_{seed}.json"
        save_precompute(p_art, p_pre_path)
        parity[str(seed)] = engine_parity(
            p_bundle, p_index, p_sums, p_pre_path, p_trace, seed
        )
        print(f"parity seed {seed}: "
              f"{parity[str(seed)]['n_requests_checked']} checks across "
              f"generations {parity[str(seed)]['generations_checked']}, "
              f"{parity[str(seed)]['mismatches']} mismatches", flush=True)

    cached_p99 = median(c["phase"]["p99_ms"] for c in storms["cached"])
    uncached_p99 = median(u["phase"]["p99_ms"] for u in storms["uncached"])
    gates = {
        "answer_hit_ratio_ge_50pct": all(
            c["answer_hit_ratio"] >= 0.5 for c in storms["cached"]
        ),
        "cached_p99_below_uncached": cached_p99 < uncached_p99,
        "parity_seed_7": parity["7"]["ok"],
        "parity_seed_1234": parity["1234"]["ok"],
        "daemon_spot_check_bit_exact": all(
            c["spot_check"]["ok"] for c in storms["cached"]
        ),
        "no_server_errors": all(
            storm["phase"]["server_error_count"] == 0 for storm in every
        ),
        "hot_reload_ok_both_phases": all(
            storm["phase"]["reload"].get("status") == 200 for storm in every
        ),
        "generation_bump_observed": all(
            2 in c["phase"]["generations_seen"] for c in storms["cached"]
        ),
        "metrics_expose_tier_family": all(
            c["metrics_has_tier_family"] for c in storms["cached"]
        ),
        "clean_exits": all(storm["exit_code"] == 0 for storm in every),
    }

    payload = {
        "benchmark": "answer_cache",
        "config": {
            "n_nodes": bundle.graph.n_nodes,
            "n_edges": bundle.graph.n_edges,
            "n_topics": bundle.topic_index.n_topics,
            "n_queries": args.queries,
            "n_users": args.users,
            "k": args.k,
            "skew": args.skew,
            "trace_requests": args.trace_requests,
            "overload_requests": args.overload_requests,
            "max_queue": args.max_queue,
            "overload_clients": overload_clients,
            "storm_pairs": n_pairs,
            "top_queries": args.top_queries,
            "top_answers": args.top_answers,
            "summarizer": args.summarizer,
            "seed": args.seed,
            "cpu_count": os.cpu_count(),
            "smoke": args.smoke,
        },
        "precompute": {
            "plans": len(artifact.plans),
            "answers": len(artifact.answers),
            "trace": artifact.trace,
            "warm_bytes": artifact.memory_hint_bytes(),
        },
        "uncached": storms["uncached"],
        "cached": storms["cached"],
        "median_p99_ms": {"uncached": uncached_p99, "cached": cached_p99},
        "p99_speedup": (
            uncached_p99 / cached_p99 if cached_p99 > 0 else None
        ),
        "parity": parity,
        "gates": gates,
        "ok": all(gates.values()),
    }
    tmp.cleanup()

    output = Path(
        args.output if args.output is not None
        else Path(__file__).parent / "BENCH_answer_cache.json"
    )
    output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    if not payload["ok"]:
        failed = [name for name, ok in gates.items() if not ok]
        print(f"GATE FAILURE: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"all gates passed: median p99 {uncached_p99:.2f}ms -> "
          f"{cached_p99:.2f}ms ({payload['p99_speedup']:.2f}x) over "
          f"{n_pairs} storm pair(s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
