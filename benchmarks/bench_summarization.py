#!/usr/bin/env python
"""Offline summarization benchmark (Figures 5-9 offline cost).

Times the offline stage - Algorithm 5 (RCL-A) and Algorithm 9 (LRW-A)
summaries - on the seeded ``data_2k`` graph and writes
``BENCH_summarization.json``:

* ``rcl.scalar`` / ``lrw.scalar`` - the pre-PR per-node / per-pair /
  per-walk implementations, retained verbatim in
  :mod:`tests.oracles.scalar_summarize`;
* ``rcl.vectorized`` / ``lrw.vectorized`` - the bitset-reachability +
  popcount-grouping + array-native-migration pipelines.

RCL-A runs in exact bounded-BFS mode (``walk_index=None``), where the
packed reachability kernel replaces one reverse BFS per topic node;
LRW-A runs against a ``L=8, R=150`` walk index, where influence
migration dominates. Every benchmarked topic is summarized by both
paths and compared bit-exactly - identical representatives and weight
floats - and the benchmark exits 1 on any divergence, which is what
CI's ``--smoke`` run enforces. The full profile additionally gates each
summarizer's serial speedup at >= 5x (the PR's acceptance bar); smoke
sizes are too small for the ratio to be meaningful, so the smoke run
checks parity only.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_summarization.py
    PYTHONPATH=src python benchmarks/bench_summarization.py --smoke

``--smoke`` shrinks the graph and topic sample for CI: it proves the
harness runs, the JSON is valid, and the two paths agree.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List

from repro.core.lrw import LRWSummarizer
from repro.core.rcl import RCLSummarizer
from repro.datasets import data_2k
from repro.obs import MetricsRegistry
from repro.walks import WalkIndex

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the oracles
from tests.oracles.scalar_summarize import (  # noqa: E402
    ScalarLRWSummarizer,
    ScalarRCLSummarizer,
)

MIN_SPEEDUP = 5.0  # acceptance bar for each summarizer, full profile only


def _bench_topics(n_topics: int, count: int) -> List[int]:
    """An evenly spread sample of *count* topic ids."""
    stride = max(1, n_topics // count)
    return list(range(0, n_topics, stride))[:count]


def _check_parity(vectorized, scalar, topics) -> Dict:
    """Summarize every topic on both paths; weights must be bit-exact."""
    max_weight_diff = 0.0
    mismatches: List[str] = []
    for topic_id in topics:
        got = dict(vectorized.summarize(topic_id).weights)
        want = dict(scalar.summarize(topic_id).weights)
        if set(got) != set(want):
            mismatches.append(
                f"topic {topic_id}: representative sets diverged "
                f"({sorted(set(got) ^ set(want))[:6]} ...)"
            )
            continue
        for rep, weight in want.items():
            diff = abs(got[rep] - weight)
            max_weight_diff = max(max_weight_diff, diff)
            if diff != 0.0:
                mismatches.append(
                    f"topic {topic_id}: weight of rep {rep} off by {diff:.3e}"
                )
    return {
        "topics": len(topics),
        "max_weight_diff": max_weight_diff,
        "mismatches": mismatches[:20],
        "ok": not mismatches,
    }


def _time_passes(summarizer, topics, passes: int) -> Dict[str, float]:
    """Best-of-*passes* wall time to summarize all *topics* serially."""
    best = float("inf")
    for _ in range(passes):
        start = perf_counter()
        for topic_id in topics:
            summarizer.summarize(topic_id)
        best = min(best, perf_counter() - start)
    return {
        "seconds": best,
        "topics": len(topics),
        "mean_ms_per_topic": 1000.0 * best / len(topics),
        "topics_per_second": len(topics) / best if best > 0 else 0.0,
    }


def _kernel_counters(vectorized, topics) -> Dict[str, float]:
    """The new obs counters observed over one instrumented pass."""
    registry = MetricsRegistry()
    vectorized.set_metrics(registry)
    try:
        for topic_id in topics:
            vectorized.summarize(topic_id)
    finally:
        vectorized.set_metrics(None)
    counters = registry.snapshot().counters
    return {
        name: counters[name]
        for name in (
            "summarize.grouping.pairs",
            "summarize.migration.absorptions",
        )
        if name in counters
    }


def _section(name, vectorized, scalar, topics, passes) -> Dict:
    # Warm once on each side: lazily built shared tables (walk paths,
    # hitting frequencies, transition matrices) must not skew a pass.
    vectorized.summarize(topics[0])
    scalar.summarize(topics[0])
    parity = _check_parity(vectorized, scalar, topics)
    status = "ok" if parity["ok"] else "FAILED"
    print(f"{name} parity: {status} over {parity['topics']} topics "
          f"(max weight diff {parity['max_weight_diff']:.2e})", flush=True)
    scalar_t = _time_passes(scalar, topics, passes)
    print(f"{name} scalar     : {scalar_t['mean_ms_per_topic']:8.2f} "
          f"ms/topic ({scalar_t['topics_per_second']:7.1f} topics/s)",
          flush=True)
    vec_t = _time_passes(vectorized, topics, passes)
    speedup = scalar_t["seconds"] / vec_t["seconds"]
    print(f"{name} vectorized : {vec_t['mean_ms_per_topic']:8.2f} "
          f"ms/topic ({vec_t['topics_per_second']:7.1f} topics/s, "
          f"{speedup:.2f}x)", flush=True)
    return {
        "scalar": scalar_t,
        "vectorized": vec_t,
        "speedup": speedup,
        "parity": parity,
        "counters": _kernel_counters(vectorized, topics),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=2000)
    parser.add_argument("--topics", type=int, default=24,
                        help="benchmarked topic sample size")
    parser.add_argument("--max-hops", type=int, default=4,
                        help="RCL-A reachability horizon")
    parser.add_argument("--sample-rate", type=float, default=0.05)
    parser.add_argument("--rep-fraction", type=float, default=0.1)
    parser.add_argument("--walk-length", type=int, default=8,
                        help="LRW-A walk index L")
    parser.add_argument("--samples-per-node", type=int, default=150,
                        help="LRW-A walk index R")
    parser.add_argument("--passes", type=int, default=3,
                        help="timing passes per path (best is kept)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI profile (300 nodes, 8 topics, "
                             "parity gate only)")
    parser.add_argument("--output", default=None,
                        help="JSON destination (default: "
                             "benchmarks/BENCH_summarization.json)")
    args = parser.parse_args(argv)

    if args.smoke:
        args.nodes = min(args.nodes, 300)
        args.topics = min(args.topics, 8)
        args.samples_per_node = min(args.samples_per_node, 25)
        args.walk_length = min(args.walk_length, 5)
        args.passes = min(args.passes, 2)

    bundle = data_2k(seed=args.seed, n_nodes=args.nodes, with_corpus=False)
    graph, topic_index = bundle.graph, bundle.topic_index
    topics = _bench_topics(topic_index.n_topics, args.topics)
    print(f"dataset: data_2k({graph.n_nodes} nodes, {graph.n_edges} edges, "
          f"{topic_index.n_topics} topics), benchmarking {len(topics)} "
          f"topics", flush=True)

    rcl_kwargs = dict(
        max_hops=args.max_hops, sample_rate=args.sample_rate,
        rep_fraction=args.rep_fraction, seed=args.seed,
    )
    rcl = _section(
        "RCL-A",
        RCLSummarizer(graph, topic_index, **rcl_kwargs),
        ScalarRCLSummarizer(graph, topic_index, **rcl_kwargs),
        topics, args.passes,
    )

    walk_index = WalkIndex(
        graph, args.walk_length, args.samples_per_node, seed=args.seed
    ).build()
    lrw = _section(
        "LRW-A",
        LRWSummarizer(
            graph, topic_index, walk_index, rep_fraction=args.rep_fraction
        ),
        ScalarLRWSummarizer(
            graph, topic_index, walk_index, rep_fraction=args.rep_fraction
        ),
        topics, args.passes,
    )

    payload = {
        "benchmark": "summarization",
        "config": {
            "n_nodes": graph.n_nodes,
            "n_edges": graph.n_edges,
            "n_topics": topic_index.n_topics,
            "benchmarked_topics": len(topics),
            "max_hops": args.max_hops,
            "sample_rate": args.sample_rate,
            "rep_fraction": args.rep_fraction,
            "walk_length": args.walk_length,
            "samples_per_node": args.samples_per_node,
            "passes": args.passes,
            "seed": args.seed,
            "cpu_count": os.cpu_count(),
            "smoke": args.smoke,
            "min_speedup": MIN_SPEEDUP,
        },
        "rcl": rcl,
        "lrw": lrw,
    }
    output = Path(
        args.output
        if args.output is not None
        else Path(__file__).parent / "BENCH_summarization.json"
    )
    output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")

    failed = False
    for name, section in (("RCL-A", rcl), ("LRW-A", lrw)):
        if not section["parity"]["ok"]:
            failed = True
            print(f"PARITY FAILURE between scalar and vectorized {name}",
                  file=sys.stderr)
            for line in section["parity"]["mismatches"]:
                print(f"  {line}", file=sys.stderr)
        if not args.smoke and section["speedup"] < MIN_SPEEDUP:
            failed = True
            print(f"{name} speedup {section['speedup']:.2f}x is below the "
                  f"{MIN_SPEEDUP:.0f}x bar", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
