"""Offline build of one workload's artifacts, run as its own process.

    python3 benchmarks/e2e/build_child.py --workload head-zipf --out DIR

Stages, each timed around one public call: dataset -> walk index ->
summaries -> sharded Gamma -> precompute. Writes ``summaries.json``,
``shards/``, ``trace.jsonl`` and ``precompute.json`` under ``--out`` and
prints the stage timings as one JSON object on its last stdout line. The
parent reads this process's peak RSS from ``os.wait4``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

from repro.core import (  # noqa: E402
    PITEngine,
    ServingEngine,
    build_precompute,
    save_precompute,
    save_summaries,
)
from repro.datasets import write_replay_jsonl  # noqa: E402

import workloads as wl  # noqa: E402


def build(spec: wl.Workload, out: Path) -> dict:
    """Run every stage into *out*; returns ``{metric name: value}``."""
    stages = {}
    started = perf_counter()
    bundle = wl.dataset(spec)
    stages["datasets.build_s"] = perf_counter() - started

    engine = PITEngine.from_dataset(
        bundle, summarizer="lrw", theta=wl.THETA, seed=wl.DATA_SEED
    )
    started = perf_counter()
    engine.walk_index
    stages["walks.build_s"] = perf_counter() - started

    summaries = out / "summaries.json"
    started = perf_counter()
    engine.build_summaries(workers=1)
    save_summaries(engine.summaries, bundle.graph, summaries)
    stages["summarize.build_s"] = perf_counter() - started
    stages["summarize.topics_per_s"] = (
        engine.last_summary_build_stats.topics_per_second
    )

    shards = out / "shards"
    started = perf_counter()
    engine.propagation_index.build_sharded(
        shards, shard_nodes=wl.SHARD_NODES, workers=1
    )
    stages["propagation.build_s"] = perf_counter() - started
    stages["shards.index_mib"] = sum(
        f.stat().st_size for f in shards.iterdir()
    ) / (1 << 20)

    trace = write_replay_jsonl(
        wl.read_records(
            wl.request_pairs(bundle, spec), wl.TRACE_RECORDS, spec.skew,
            wl.TRACE_SEED,
        ),
        out / "trace.jsonl",
    )
    started = perf_counter()
    serving = ServingEngine.from_artifacts(
        bundle.graph, bundle.topic_index, summaries, index_dir=shards,
        theta=wl.THETA,
    )
    artifact = build_precompute(
        serving, trace, top_queries=wl.TOP_QUERIES,
        top_answers=wl.TOP_ANSWERS, default_k=wl.K,
    )
    save_precompute(artifact, out / "precompute.json")
    stages["precompute.build_s"] = perf_counter() - started
    return stages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--profile", default="full", choices=wl.PROFILES)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    stages = build(wl.workload_spec(args.workload, args.profile), args.out)
    print(json.dumps(stages), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
