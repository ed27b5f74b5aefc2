#!/usr/bin/env python
"""Dynamics benchmark: streamed graph deltas vs. from-scratch rebuild.

Exercises the incremental-dynamics path end to end and gates it on both
correctness and cost:

* **Perf leg** - one serving stack at benchmark scale streams a run of
  small delta batches. Each batch is applied twice, conceptually: once
  through :meth:`ServingEngine.apply_delta` (theta-closure affected set,
  targeted entry rebuild, surgical cache trims) and once as the
  operational alternative - a single-threaded from-scratch
  ``PropagationIndex.build_all`` over the post-delta graph. Both sides
  are timed in CPU time of the calling thread (``time.thread_time``),
  batch by batch, so a neighbour's load on the host moves neither. The
  summed costs must show **>= 5x reduction** (full profile; a smoke run's
  scale cannot support the ratio and reports it ungated). After the
  stream, every one of the n entries in the delta-maintained index is
  compared bit for bit against the final from-scratch index. The same
  batches then stream through a sharded copy of the index (256-node
  shards), whose refresh time is split into the batched entry rebuild
  (``kernel_ms_per_batch``) and the rest - splicing and writing the
  dirty segments, manifest writes (``write_ms_per_batch``); its
  entries are compared the same way.

* **Parity legs** - the differential-harness seeds 7 and 1234 (memory
  backend both, plus a sharded-backend arm) warm an answer tier, stream
  a delta, then check every warmed request against a from-scratch
  ``ServingEngine`` over (new graph, same summaries): results and the
  five deterministic work-stat fields must match exactly, so a stale
  answer can never be served.

* **Surgical invalidation** - verified against a brute-force oracle:
  every warmed query whose from-scratch answer actually changed must
  come back changed (never the stale cached value), while at least one
  unchanged answer must still be served straight from the answer tier
  (a hit, not a recompute) - trimming, not clearing.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_dynamics.py
    PYTHONPATH=src python benchmarks/bench_dynamics.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path
from time import thread_time
from typing import Dict, List, Tuple

import numpy as np

from repro.core import (
    GraphDelta,
    PITEngine,
    ServingEngine,
    apply_delta_to_graph,
)
from repro.core.propagation import PropagationIndex
from repro.core.shards import load_sharded_index, save_sharded_index
from repro.datasets import data_2k
from repro.obs import MetricsRegistry

WORK_FIELDS = (
    "topics_considered",
    "topics_pruned",
    "entries_probed",
    "expansion_rounds",
    "representatives_touched",
)

QUERY_TERMS = ("phone", "camera", "music", "laptop", "tv")


def work_tuple(stats) -> Tuple[int, ...]:
    return tuple(getattr(stats, field) for field in WORK_FIELDS)


def make_batches(
    graph, n: int, seed: int, count: int, per: int
) -> List[GraphDelta]:
    """A deterministic stream of delta batches against *graph*.

    Each batch deletes, reweights, and inserts *per* edges apiece,
    drawn from the graph state the previous batch left behind - the
    same shape the evolving-network scenario drives.
    """
    rng = np.random.default_rng(seed + 11)
    batches: List[GraphDelta] = []
    g = graph
    for _ in range(count):
        src, dst, probs = g.edge_arrays()
        picks = rng.choice(src.size, size=2 * per, replace=False)
        deletes = [(int(src[i]), int(dst[i])) for i in picks[:per]]
        reweights = [
            (
                int(src[i]),
                int(dst[i]),
                round(float(probs[i]) * 0.5 + 0.05, 6),
            )
            for i in picks[per : 2 * per]
        ]
        taken = set((src.astype(np.int64) * n + dst).tolist())
        inserts: List[Tuple[int, int, float]] = []
        while len(inserts) < per:
            a, b = int(rng.integers(n)), int(rng.integers(n))
            if a != b and a * n + b not in taken:
                taken.add(a * n + b)
                inserts.append(
                    (a, b, round(float(rng.uniform(0.05, 0.4)), 6))
                )
        delta = GraphDelta(
            inserts=tuple(inserts),
            deletes=tuple(deletes),
            reweights=tuple(reweights),
        )
        batches.append(delta)
        g, _ = apply_delta_to_graph(g, delta)
    return batches


def same_entry(a, b) -> bool:
    return (
        np.array_equal(a.sources, b.sources)
        and np.array_equal(a.probabilities, b.probabilities)
        and np.array_equal(a.marked_array, b.marked_array)
    )


def sharded_arm(
    bundle, index: PropagationIndex, batches, directory: Path
) -> Tuple[ServingEngine, Dict]:
    """Stream *batches* through a sharded copy of *index*; the refresh
    time per batch, split into the entry rebuild and the rest."""
    shard_dir = directory / "perf_shards"
    save_sharded_index(index, shard_dir, shard_nodes=256)
    registry = MetricsRegistry()
    serving = ServingEngine(
        bundle.graph,
        bundle.topic_index,
        {},
        load_sharded_index(shard_dir, bundle.graph, metrics=registry),
        answer_cache_bytes=1 << 20,
        metrics=registry,
    )
    for delta in batches:
        serving.apply_delta(delta)
    snapshot = registry.snapshot()

    def per_batch_ms(name: str) -> float:
        return 1000.0 * snapshot.histogram(name).sum / len(batches)

    apply_ms = per_batch_ms("dynamics.apply_delta_seconds")
    refresh_ms = per_batch_ms("dynamics.refresh_seconds")
    kernel_ms = per_batch_ms("dynamics.refresh_build_seconds")
    return serving, {
        "n_shards": serving.propagation_index.shards.n_shards,
        "shards_rewritten": int(
            snapshot.counters["dynamics.shards_rewritten"]
        ),
        "apply_ms_per_batch": apply_ms,
        "refresh_ms_per_batch": refresh_ms,
        "kernel_ms_per_batch": kernel_ms,
        "write_ms_per_batch": refresh_ms - kernel_ms,
    }


def perf_leg(
    seed: int,
    n_nodes: int,
    theta: float,
    n_batches: int,
    per: int,
    workers: int,
    directory: Path,
) -> Dict:
    """Stream deltas and time them against from-scratch rebuilds.

    Summaries are irrelevant to the index-refresh cost, so the stack is
    built without them; the parity legs cover the search path.
    """
    bundle = data_2k(seed=seed, n_nodes=n_nodes, with_corpus=False)
    engine = PITEngine.from_dataset(bundle, summarizer="rcl", seed=seed)
    index = PropagationIndex(
        bundle.graph,
        theta,
        max_branches=engine.propagation_index.max_branches,
        strict=engine.propagation_index.strict,
    )
    index.build_all(workers=workers)
    serving = ServingEngine(
        bundle.graph,
        bundle.topic_index,
        {},
        index,
        answer_cache_bytes=1 << 20,
    )
    batches = make_batches(bundle.graph, n_nodes, seed, n_batches, per)
    delta_seconds = 0.0
    scratch_seconds = 0.0
    affected_sizes: List[int] = []
    entries_rebuilt = 0
    scratch = None
    for delta in batches:
        start = thread_time()
        report = serving.apply_delta(delta)
        delta_seconds += thread_time() - start
        affected_sizes.append(report["affected"])
        entries_rebuilt += report.get("entries_rebuilt", report["affected"])
        start = thread_time()
        scratch = PropagationIndex(
            serving.graph,
            theta,
            max_branches=index.max_branches,
            strict=index.strict,
        )
        scratch.build_all(workers=1)
        scratch_seconds += thread_time() - start
    mismatches = sum(
        1
        for node in range(n_nodes)
        if not same_entry(
            serving.propagation_index.entry(node), scratch.entry(node)
        )
    )
    # After the timed stream, so the from-scratch baseline runs as before.
    sharded, split = sharded_arm(bundle, index, batches, directory)
    split["entry_mismatches"] = sum(
        1
        for node in range(n_nodes)
        if not same_entry(
            sharded.propagation_index.entry(node), scratch.entry(node)
        )
    )
    return {
        "n_nodes": n_nodes,
        "n_edges": serving.graph.n_edges,
        "theta": theta,
        "n_batches": n_batches,
        "edits_per_batch": 3 * per,
        "affected_sizes": affected_sizes,
        "entries_rebuilt": entries_rebuilt,
        "delta_ms_per_batch": 1000.0 * delta_seconds / n_batches,
        "scratch_ms_per_batch": 1000.0 * scratch_seconds / n_batches,
        "speedup": (
            scratch_seconds / delta_seconds if delta_seconds > 0 else None
        ),
        "entry_mismatches": mismatches,
        "sharded": split,
    }


def parity_leg(
    seed: int,
    n_nodes: int,
    theta: float,
    arm: str,
    directory: Path,
    workers: int,
) -> Dict:
    """Warm an answer tier, stream a delta, and verify against oracles.

    Checks three properties per warmed request: bit-exact parity with a
    from-scratch engine (results + work stats), never-stale against the
    brute-force per-query oracle, and at least one surviving answer-tier
    hit (surgical, not clear-all).
    """
    bundle = data_2k(seed=seed, n_nodes=n_nodes, with_corpus=False)
    registry = MetricsRegistry()
    engine = PITEngine.from_dataset(
        bundle, summarizer="rcl", seed=seed, theta=theta, metrics=registry
    )
    engine.propagation_index.build_all(workers=workers)
    engine.build_summaries(workers=workers)
    if arm == "sharded":
        shard_dir = directory / f"shards_{seed}"
        save_sharded_index(engine.propagation_index, shard_dir, shard_nodes=16)
        index = load_sharded_index(
            shard_dir, bundle.graph, cache_bytes=1 << 20
        )
    else:
        index = engine.propagation_index
    serving = engine.serving(index, answer_cache_bytes=1 << 20)
    rng = np.random.default_rng(seed)
    requests = sorted(
        {
            (int(rng.integers(n_nodes)), term)
            for term in QUERY_TERMS
            for _ in range(4)
        }
    )
    before = {
        req: serving.search(req[0], req[1], k=5, with_stats=True)
        for req in requests
    }
    batches = make_batches(bundle.graph, n_nodes, seed, 1, 3)
    report = serving.apply_delta(batches[0])
    oracle = ServingEngine(
        serving.graph,
        bundle.topic_index,
        engine.summaries,
        theta=theta,
    )
    hits_before = registry.snapshot().counters.get(
        "cache.tier.answers.hits", 0
    )
    mismatches = 0
    stale_served = 0
    changed = 0
    for req in requests:
        got = serving.search(req[0], req[1], k=5, with_stats=True)
        want = oracle.search(req[0], req[1], k=5, with_stats=True)
        if got[0] != want[0] or work_tuple(got[1]) != work_tuple(want[1]):
            mismatches += 1
        if want[0] != before[req][0]:
            changed += 1
            if got[0] == before[req][0]:
                stale_served += 1
    hits_after = registry.snapshot().counters.get(
        "cache.tier.answers.hits", 0
    )
    surviving_hits = int(hits_after - hits_before)
    return {
        "seed": seed,
        "n_nodes": n_nodes,
        "arm": arm,
        "requests_checked": len(requests),
        "affected": report["affected"],
        "reachable": report["reachable"],
        "answers_invalidated": report["answers_invalidated"],
        "answers_changed_by_delta": changed,
        "mismatches": mismatches,
        "stale_served": stale_served,
        "surviving_answer_hits": surviving_hits,
        "ok": (
            mismatches == 0 and stale_served == 0 and surviving_hits > 0
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small fast profile; perf ratio reported "
                             "but not gated")
    parser.add_argument("--output", default=None,
                        help="output JSON path (default BENCH_dynamics.json "
                             "next to this script)")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    workers = max(1, min(4, os.cpu_count() or 1))
    if args.smoke:
        perf_nodes, perf_batches = 600, 3
        parity_nodes = {7: 140, 1234: 120}
    else:
        perf_nodes, perf_batches = 4000, 6
        parity_nodes = {7: 600, 1234: 500}
    theta = 0.02

    tmp = tempfile.TemporaryDirectory(prefix="bench_dynamics_")
    directory = Path(tmp.name)
    print(f"perf leg: n={perf_nodes}, {perf_batches} batches of 3 edits, "
          f"theta={theta}", flush=True)
    perf = perf_leg(
        args.seed, perf_nodes, theta, perf_batches, 1, workers, directory
    )
    split = perf["sharded"]
    print(f"perf: delta {perf['delta_ms_per_batch']:.1f}ms/batch vs "
          f"scratch {perf['scratch_ms_per_batch']:.1f}ms/batch "
          f"({perf['speedup']:.1f}x), "
          f"{perf['entry_mismatches']} entry mismatches", flush=True)
    print(f"sharded: refresh {split['refresh_ms_per_batch']:.1f}ms/batch = "
          f"kernel {split['kernel_ms_per_batch']:.1f} + "
          f"writes {split['write_ms_per_batch']:.1f}, "
          f"{split['entry_mismatches']} entry mismatches", flush=True)
    parity = {}
    for seed, arm in ((7, "memory"), (1234, "memory"), (7, "sharded")):
        leg = parity_leg(
            seed, parity_nodes[seed], theta, arm, directory, workers
        )
        parity[f"{arm}_{seed}"] = leg
        print(f"parity {arm} seed {seed}: {leg['requests_checked']} checks, "
              f"{leg['mismatches']} mismatches, {leg['stale_served']} stale, "
              f"{leg['surviving_answer_hits']} surviving hits "
              f"({leg['answers_changed_by_delta']} answers moved)",
              flush=True)
    tmp.cleanup()

    gates = {
        "entry_parity_at_scale": perf["entry_mismatches"] == 0,
        "sharded_entry_parity_at_scale": split["entry_mismatches"] == 0,
        "parity_memory_seed_7": parity["memory_7"]["ok"],
        "parity_memory_seed_1234": parity["memory_1234"]["ok"],
        "parity_sharded_seed_7": parity["sharded_7"]["ok"],
        "never_served_stale": all(
            leg["stale_served"] == 0 for leg in parity.values()
        ),
        "surgical_survivors_everywhere": all(
            leg["surviving_answer_hits"] > 0 for leg in parity.values()
        ),
        "delta_speedup_ge_5x": (
            True if args.smoke else perf["speedup"] >= 5.0
        ),
    }
    payload = {
        "benchmark": "dynamics",
        "config": {
            "seed": args.seed,
            "theta": theta,
            "perf_nodes": perf_nodes,
            "perf_batches": perf_batches,
            "parity_nodes": parity_nodes,
            "cpu_count": os.cpu_count(),
            "smoke": args.smoke,
        },
        "perf": perf,
        "parity": parity,
        "gates": gates,
        "ok": all(gates.values()),
    }
    output = Path(
        args.output if args.output is not None
        else Path(__file__).parent / "BENCH_dynamics.json"
    )
    output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    if not payload["ok"]:
        failed = [name for name, ok in gates.items() if not ok]
        print(f"GATE FAILURE: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"all gates passed: {perf['speedup']:.1f}x cost reduction, "
          f"0 mismatches across {perf['n_nodes']} entries and "
          f"{sum(l['requests_checked'] for l in parity.values())} "
          f"warmed requests", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
