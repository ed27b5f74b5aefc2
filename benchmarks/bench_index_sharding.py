#!/usr/bin/env python
"""Sharded propagation-index benchmark: cold-open latency and bounded RSS.

Exercises the memory-mapped shard backend end-to-end on a seeded
synthetic graph and writes ``BENCH_index_sharding.json``. Each phase
runs in its own subprocess so ``ru_maxrss`` isolates that phase's peak
resident set:

* ``build-memory``  - in-memory ``build_all`` (the unmapped index, whose
  RSS grows with the whole index), digesting sampled entries;
* ``build-sharded`` - streaming ``build_sharded`` (entries are freed as
  each shard is flushed, so peak RSS stays near one shard's worth);
* ``cold-open-shard`` - manifest-only mmap open of the shard directory;
* ``serve``         - Zipf-distributed entry batch against the mmap
  backend under a small paging budget;
* ``baseline``      - graph load only, to net out interpreter + graph
  RSS from the serve gate.

Gates (enforced on full runs, recorded on ``--smoke``):

1. bounded serving RSS: the serve phase's RSS over the graph-only
   baseline must stay under the paging budget plus a fixed slack, even
   though the mapped index is far larger — and the backend's own
   resident-shard accounting must stay within the budget exactly;
2. bit-exact parity (enforced on ``--smoke`` too): a digest over sampled
   entries (sources, probabilities, marked nodes, branch counts) must be
   identical between the in-memory and mmap backends.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_index_sharding.py
    PYTHONPATH=src python benchmarks/bench_index_sharding.py --smoke

``--smoke`` shrinks the graph for CI: it proves the harness, the
subprocess phases, and the parity digest work - not the RSS bounds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

RSS_SLACK_BYTES = 64 << 20  # allocator + numpy scratch headroom

PARITY_SAMPLE = 97  # digest every 97th node (prime, so it strides shards)


def _maxrss_bytes() -> int:
    """Peak RSS of this process in bytes (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _entry_digest(index, n_nodes: int) -> str:
    sha = hashlib.sha256()
    for node in range(0, n_nodes, PARITY_SAMPLE):
        entry = index.entry(node)
        sha.update(entry.sources.tobytes())
        sha.update(entry.probabilities.tobytes())
        sha.update(entry.marked_array.tobytes())
        sha.update(entry.branches.to_bytes(8, "little"))
    return sha.hexdigest()


# --------------------------------------------------------------------------
# Subprocess phases - each prints one JSON line and exits.
# --------------------------------------------------------------------------


def _phase_build_memory(args) -> dict:
    from repro.core import PropagationIndex
    from repro.graph.io import load_npz

    graph = load_npz(args.workdir / "graph.npz")
    index = PropagationIndex(graph, args.theta)
    start = perf_counter()
    index.build_all(workers=1)
    return {
        "seconds": perf_counter() - start,
        "maxrss_bytes": _maxrss_bytes(),
        "index_bytes": index.memory_bytes(),
        "entry_digest": _entry_digest(index, graph.n_nodes),
    }


def _phase_build_sharded(args) -> dict:
    from repro.core import PropagationIndex
    from repro.graph.io import load_npz

    graph = load_npz(args.workdir / "graph.npz")
    index = PropagationIndex(graph, args.theta)
    start = perf_counter()
    index.build_sharded(args.workdir / "shards", shard_nodes=args.shard_nodes)
    return {
        "seconds": perf_counter() - start,
        "maxrss_bytes": _maxrss_bytes(),
        "index_bytes": index.last_build_stats.total_bytes,
        "n_shards": len(list((args.workdir / "shards").glob("shard-*.bin"))),
    }


def _phase_cold_open_shard(args) -> dict:
    from repro.core import load_sharded_index
    from repro.graph.io import load_npz

    graph = load_npz(args.workdir / "graph.npz")
    start = perf_counter()
    index = load_sharded_index(
        args.workdir / "shards", graph, cache_bytes=args.cache_mb << 20
    )
    seconds = perf_counter() - start
    return {
        "seconds": seconds,
        "maxrss_bytes": _maxrss_bytes(),
        "mapped_bytes": index.mapped_bytes(),
        "entry_digest": _entry_digest(index, graph.n_nodes),
    }


def _phase_serve(args) -> dict:
    import numpy as np

    from repro.core import load_sharded_index
    from repro.graph.io import load_npz
    from repro.obs import MetricsRegistry

    graph = load_npz(args.workdir / "graph.npz")
    registry = MetricsRegistry()
    index = load_sharded_index(
        args.workdir / "shards",
        graph,
        cache_bytes=args.cache_mb << 20,
        metrics=registry,
    )
    rng = np.random.default_rng(args.seed)
    # Zipf-distributed node popularity, shuffled so hot nodes scatter
    # across shards instead of clustering in shard 0.
    perm = rng.permutation(graph.n_nodes)
    ranks = rng.zipf(1.3, size=args.queries)
    nodes = perm[(ranks - 1) % graph.n_nodes]
    start = perf_counter()
    touched = 0
    for node in nodes:
        touched += index.entry(int(node)).size
    seconds = perf_counter() - start
    cache = index.shards.cache_stats()
    return {
        "seconds": seconds,
        "queries": int(args.queries),
        "queries_per_second": args.queries / seconds if seconds else 0.0,
        "members_touched": int(touched),
        "maxrss_bytes": _maxrss_bytes(),
        "mapped_bytes": index.mapped_bytes(),
        "resident_bytes": index.memory_bytes(),
        "cache": {
            "hits": cache.hits,
            "misses": cache.misses,
            "evictions": cache.evictions,
        },
    }


def _phase_baseline(args) -> dict:
    from repro.graph.io import load_npz

    graph = load_npz(args.workdir / "graph.npz")
    return {"maxrss_bytes": _maxrss_bytes(), "n_nodes": graph.n_nodes}


_PHASES = {
    "build-memory": _phase_build_memory,
    "build-sharded": _phase_build_sharded,
    "cold-open-shard": _phase_cold_open_shard,
    "serve": _phase_serve,
    "baseline": _phase_baseline,
}


def _run_phase(name: str, args) -> dict:
    cmd = [
        sys.executable,
        __file__,
        "--phase",
        name,
        "--workdir",
        str(args.workdir),
        "--theta",
        str(args.theta),
        "--shard-nodes",
        str(args.shard_nodes),
        "--cache-mb",
        str(args.cache_mb),
        "--queries",
        str(args.queries),
        "--seed",
        str(args.seed),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"phase {name} failed (exit {proc.returncode})")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    rss = result.get("maxrss_bytes")
    rss_mb = f", peak RSS {rss / (1 << 20):7.1f} MiB" if rss else ""
    seconds = result.get("seconds")
    timing = f"{seconds:8.3f}s" if seconds is not None else "        -"
    print(f"{name:16s}: {timing}{rss_mb}", flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phase", choices=sorted(_PHASES), default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--nodes", type=int, default=100_000)
    parser.add_argument("--out-degree", type=int, default=4)
    parser.add_argument("--theta", type=float, default=0.002)
    parser.add_argument("--shard-nodes", type=int, default=8192)
    parser.add_argument("--cache-mb", type=int, default=32,
                        help="shard paging budget for the serve phase")
    parser.add_argument("--queries", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI profile (2000 nodes, gates recorded "
                             "but not enforced)")
    parser.add_argument("--output", default=None,
                        help="JSON destination (default: "
                             "benchmarks/BENCH_index_sharding.json)")
    args = parser.parse_args(argv)

    if args.phase is not None:
        print(json.dumps(_PHASES[args.phase](args)))
        return 0

    if args.smoke:
        args.nodes = min(args.nodes, 2000)
        args.shard_nodes = min(args.shard_nodes, 256)
        args.cache_mb = min(args.cache_mb, 1)
        args.queries = min(args.queries, 2000)

    from repro.graph import preferential_attachment_graph
    from repro.graph.io import save_npz

    with tempfile.TemporaryDirectory(prefix="bench-shards-") as tmp:
        args.workdir = Path(tmp)
        print(f"graph: {args.nodes} nodes, out-degree {args.out_degree}, "
              f"theta {args.theta}, seed {args.seed}", flush=True)
        graph = preferential_attachment_graph(
            args.nodes, args.out_degree, seed=args.seed
        )
        save_npz(graph, args.workdir / "graph.npz")

        baseline = _run_phase("baseline", args)
        build_memory = _run_phase("build-memory", args)
        build_sharded = _run_phase("build-sharded", args)
        cold_shard = _run_phase("cold-open-shard", args)
        serve = _run_phase("serve", args)

    serve_rss_over_baseline = serve["maxrss_bytes"] - baseline["maxrss_bytes"]
    rss_budget = (args.cache_mb << 20) + RSS_SLACK_BYTES
    parity_ok = build_memory["entry_digest"] == cold_shard["entry_digest"]

    gates = {
        "serve_rss_over_baseline_bytes": {
            "value": serve_rss_over_baseline,
            "max": rss_budget,
            "ok": serve_rss_over_baseline <= rss_budget,
        },
        "serve_resident_bytes": {
            "value": serve["resident_bytes"],
            "max": args.cache_mb << 20,
            "ok": serve["resident_bytes"] <= args.cache_mb << 20,
        },
        "parity": {
            "digest": cold_shard["entry_digest"],
            "ok": parity_ok,
        },
    }

    payload = {
        "benchmark": "index_sharding",
        "config": {
            "n_nodes": graph.n_nodes,
            "n_edges": graph.n_edges,
            "out_degree": args.out_degree,
            "theta": args.theta,
            "shard_nodes": args.shard_nodes,
            "cache_mb": args.cache_mb,
            "queries": args.queries,
            "seed": args.seed,
            "smoke": args.smoke,
        },
        "baseline": baseline,
        "build_memory": build_memory,
        "build_sharded": build_sharded,
        "cold_open_shard": cold_shard,
        "serve": serve,
        "gates": gates,
    }
    output = Path(
        args.output
        if args.output is not None
        else Path(__file__).parent / "BENCH_index_sharding.json"
    )
    output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")

    print(f"cold open (mmap)       : {cold_shard['seconds'] * 1e3:8.2f} ms "
          f"(build peak RSS {build_sharded['maxrss_bytes'] / (1 << 20):.1f} "
          f"MiB streamed vs {build_memory['maxrss_bytes'] / (1 << 20):.1f} "
          f"MiB in memory)")
    print(f"serve RSS over baseline: "
          f"{serve_rss_over_baseline / (1 << 20):8.1f} MiB "
          f"(gate <= {rss_budget / (1 << 20):.0f} MiB, "
          f"index {cold_shard['mapped_bytes'] / (1 << 20):.1f} MiB mapped)")
    print(f"serve resident shards  : "
          f"{serve['resident_bytes'] / (1 << 20):8.1f} MiB "
          f"(gate <= {args.cache_mb:.0f} MiB paging budget)")
    print(f"parity                 : {'ok' if parity_ok else 'FAILED'}")

    if not parity_ok:
        print("PARITY FAILURE between in-memory and mmap backends",
              file=sys.stderr)
        return 1
    if not args.smoke and not all(g["ok"] for g in gates.values()):
        print("GATE FAILURE (see gates in JSON payload)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
