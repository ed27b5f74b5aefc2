#!/usr/bin/env python
"""Online search benchmark (Figures 5-9 online cost, serving edition).

Times the online stage - Algorithm 10 with Algorithm 11's Expand - on a
seeded ``data_2k``-style workload and writes ``BENCH_online_search.json``:

* ``scalar`` - the pre-PR per-representative hash-probe implementation,
  retained verbatim in :mod:`tests.oracles.scalar_search`, one request at a
  time;
* ``vectorized`` - the array-native
  :class:`~repro.core.search.PersonalizedSearcher`, one request at a time
  (compiled query plans warm, as in steady-state serving);
* ``batched`` - the same searcher through
  :meth:`~repro.core.serve_facade.ServingEngine.search_batch`, requests
  grouped by keyword query.

Both sides share one propagation index and one summary store, pre-warmed
before timing, so the numbers isolate the search computation itself.
Every request is answered by both paths and compared - identical
rankings, influences (<= 1e-12), and work stats - and the benchmark exits
1 on any divergence, which is what CI's ``--smoke`` run enforces. It also
times the warm single-request loop with metrics disabled
(:func:`repro.obs.null_registry`) versus a live
:class:`~repro.obs.MetricsRegistry` and fails when instrumentation adds
more than 5% (``instrumentation_overhead`` in the JSON).

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_online_search.py
    PYTHONPATH=src python benchmarks/bench_online_search.py --smoke

``--smoke`` shrinks the dataset for CI: it proves the harness runs, the
JSON is valid, and the two paths agree, not a meaningful speedup.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

from repro.core import PITEngine
from repro.datasets import data_2k, generate_workload
from repro.obs import MetricsRegistry, null_registry

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the oracles
from tests.oracles.scalar_search import ScalarReferenceSearcher  # noqa: E402

OVERHEAD_LIMIT = 0.05  # instrumented serving may cost at most 5% extra

STAT_FIELDS = (
    "topics_considered",
    "topics_pruned",
    "entries_probed",
    "expansion_rounds",
    "representatives_touched",
)


def _check_parity(requests, k, scalar, engine) -> Dict:
    """Run every request on both paths; report the worst divergence."""
    max_influence_diff = 0.0
    mismatches: List[str] = []
    batched = engine.search_batch(requests, k=k, with_stats=True)
    for (user, query), (vec_results, vec_stats) in zip(requests, batched):
        ref_results, ref_stats = scalar.search(user, query, k)
        single_results, single_stats = engine._searcher.search(user, query, k)
        for tag, results, stats in (
            ("batched", vec_results, vec_stats),
            ("single", single_results, single_stats),
        ):
            if [(r.topic_id, r.label) for r in results] != [
                (r.topic_id, r.label) for r in ref_results
            ]:
                mismatches.append(
                    f"{tag} ranking diverged for user={user} query={query.raw!r}"
                )
                continue
            for got, want in zip(results, ref_results):
                diff = abs(got.influence - want.influence)
                max_influence_diff = max(max_influence_diff, diff)
                if diff > 1e-12:
                    mismatches.append(
                        f"{tag} influence off by {diff:.3e} for user={user} "
                        f"query={query.raw!r} topic={got.label}"
                    )
            for name in STAT_FIELDS:
                if getattr(stats, name) != getattr(ref_stats, name):
                    mismatches.append(
                        f"{tag} {name} {getattr(stats, name)} != "
                        f"{getattr(ref_stats, name)} for user={user} "
                        f"query={query.raw!r}"
                    )
    return {
        "requests": len(requests),
        "max_influence_diff": max_influence_diff,
        "mismatches": mismatches[:20],
        "ok": not mismatches,
    }


def _time_passes(run, n_requests: int, passes: int) -> Dict[str, float]:
    """Best-of-*passes* wall time for *run*; latency and QPS per request."""
    best = float("inf")
    for _ in range(passes):
        start = perf_counter()
        run()
        best = min(best, perf_counter() - start)
    return {
        "seconds": best,
        "requests": n_requests,
        "mean_latency_ms": 1000.0 * best / n_requests,
        "qps": n_requests / best if best > 0 else 0.0,
    }


def _measure_overhead(engine, requests, k: int, passes: int) -> Dict:
    """Serving cost with metrics disabled vs a live registry.

    Both sides run the same warm single-request loop best-of-*passes*;
    the only difference is the registry routed through
    :meth:`ServingEngine.set_metrics`. The instrumented side pays the real
    hot-path cost (two clock reads, one histogram observe, six counter
    adds per search), which must stay under ``OVERHEAD_LIMIT``.
    """

    def run():
        for user, query in requests:
            engine._searcher.search(user, query, k)

    try:
        engine.set_metrics(null_registry())
        disabled = _time_passes(run, len(requests), passes)
        engine.set_metrics(MetricsRegistry())
        instrumented = _time_passes(run, len(requests), passes)
    finally:
        engine.set_metrics(None)
    overhead = (
        instrumented["seconds"] / disabled["seconds"] - 1.0
        if disabled["seconds"] > 0
        else 0.0
    )
    return {
        "disabled": disabled,
        "instrumented": instrumented,
        "overhead_fraction": overhead,
        "limit": OVERHEAD_LIMIT,
        "ok": overhead < OVERHEAD_LIMIT,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=2000)
    parser.add_argument("--queries", type=int, default=20,
                        help="distinct keyword queries in the workload")
    parser.add_argument("--users", type=int, default=10,
                        help="query users (workload = queries x users)")
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--theta", type=float, default=0.002)
    parser.add_argument("--summarizer", default="lrw", choices=["lrw", "rcl"])
    parser.add_argument("--passes", type=int, default=3,
                        help="timing passes per path (best is kept)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI profile (300 nodes, 5x3 workload)")
    parser.add_argument("--output", default=None,
                        help="JSON destination (default: "
                             "benchmarks/BENCH_online_search.json)")
    args = parser.parse_args(argv)

    if args.smoke:
        args.nodes = min(args.nodes, 300)
        args.queries = min(args.queries, 5)
        args.users = min(args.users, 3)
        args.passes = min(args.passes, 2)

    print(f"dataset: data_2k({args.nodes} nodes), workload "
          f"{args.queries} queries x {args.users} users, k={args.k}",
          flush=True)
    bundle = data_2k(seed=args.seed, n_nodes=args.nodes, with_corpus=True)
    builder = PITEngine.from_dataset(
        bundle, summarizer=args.summarizer, theta=args.theta, seed=args.seed
    )
    engine = builder.serving()
    scalar = ScalarReferenceSearcher(
        builder.topic_index, builder.summary, builder.propagation_index
    )
    workload = generate_workload(
        bundle, n_queries=args.queries, n_users=args.users, seed=args.seed
    )
    requests: List[Tuple[int, object]] = list(workload.pairs())

    # Warm both paths: builds every propagation entry and summary the
    # workload touches (shared), plus the vectorized side's compiled
    # plans and array caches - steady-state serving conditions.
    for user, query in requests:
        scalar.search(user, query, args.k)
    engine.search_batch(requests, k=args.k)

    parity = _check_parity(requests, args.k, scalar, engine)
    status = "ok" if parity["ok"] else "FAILED"
    print(f"parity: {status} over {parity['requests']} requests "
          f"(max influence diff {parity['max_influence_diff']:.2e})",
          flush=True)

    def run_scalar():
        for user, query in requests:
            scalar.search(user, query, args.k)

    def run_single():
        for user, query in requests:
            engine._searcher.search(user, query, args.k)

    def run_batched():
        engine.search_batch(requests, k=args.k)

    scalar_t = _time_passes(run_scalar, len(requests), args.passes)
    print(f"scalar     : {scalar_t['mean_latency_ms']:8.3f} ms/query "
          f"({scalar_t['qps']:8.1f} QPS)", flush=True)
    single_t = _time_passes(run_single, len(requests), args.passes)
    print(f"vectorized : {single_t['mean_latency_ms']:8.3f} ms/query "
          f"({single_t['qps']:8.1f} QPS, "
          f"{scalar_t['seconds'] / single_t['seconds']:.2f}x)", flush=True)
    batched_t = _time_passes(run_batched, len(requests), args.passes)
    print(f"batched    : {batched_t['mean_latency_ms']:8.3f} ms/query "
          f"({batched_t['qps']:8.1f} QPS, "
          f"{scalar_t['seconds'] / batched_t['seconds']:.2f}x)", flush=True)

    overhead = _measure_overhead(
        engine, requests, args.k, max(args.passes, 5)
    )
    print(f"metrics overhead: {100.0 * overhead['overhead_fraction']:+.2f}% "
          f"(limit {100.0 * OVERHEAD_LIMIT:.0f}%, "
          f"{'ok' if overhead['ok'] else 'FAILED'})", flush=True)

    payload = {
        "benchmark": "online_search",
        "config": {
            "n_nodes": bundle.graph.n_nodes,
            "n_edges": bundle.graph.n_edges,
            "n_topics": bundle.topic_index.n_topics,
            "n_queries": args.queries,
            "n_users": args.users,
            "n_requests": len(requests),
            "k": args.k,
            "theta": args.theta,
            "summarizer": args.summarizer,
            "passes": args.passes,
            "seed": args.seed,
            "cpu_count": os.cpu_count(),
            "smoke": args.smoke,
        },
        "scalar": scalar_t,
        "vectorized_single": single_t,
        "vectorized_batched": batched_t,
        "speedup": {
            "single_vs_scalar": scalar_t["seconds"] / single_t["seconds"],
            "batched_vs_scalar": scalar_t["seconds"] / batched_t["seconds"],
            "batched_qps_vs_scalar_qps":
                batched_t["qps"] / scalar_t["qps"] if scalar_t["qps"] else 0.0,
        },
        "tier_stats": {
            name: c.as_dict() for name, c in engine.tier_stats().items()
        },
        "parity": parity,
        "instrumentation_overhead": overhead,
    }
    output = Path(
        args.output
        if args.output is not None
        else Path(__file__).parent / "BENCH_online_search.json"
    )
    output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")

    if not parity["ok"]:
        print("PARITY FAILURE between scalar and vectorized search",
              file=sys.stderr)
        for line in parity["mismatches"]:
            print(f"  {line}", file=sys.stderr)
        return 1
    if not overhead["ok"]:
        print(
            f"INSTRUMENTATION OVERHEAD "
            f"{100.0 * overhead['overhead_fraction']:.2f}% exceeds the "
            f"{100.0 * OVERHEAD_LIMIT:.0f}% budget",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
