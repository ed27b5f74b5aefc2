"""Command-line interface (S32): ``pit-search <command>``.

Commands
--------
``datasets``
    Print the Figure 4 dataset summary for the bundled scaled analogues.
``search``
    Build a dataset + engine and answer one PIT-Search query, or serve a
    JSONL workload of many requests (``--batch``) through the batched
    query-serving layer, reporting QPS and cache hit rates.
``build-index``
    Pre-build the full §5.1 propagation index (optionally in parallel)
    into the shard directory ``--output`` (built ``--shard-nodes`` nodes at
    a time, then cut into ``ceil(n / --shard-nodes)`` byte-balanced
    shards) for ``search``/``serve``/``precompute --index-dir``.
    The build streams completed ranges to disk (bounded RSS) and
    ``--resume`` picks an interrupted run up at range granularity; see
    ``docs/operations.md``.
``build-summaries``
    Pre-build the per-topic summaries (§3 RCL-A or §4 LRW-A), optionally
    in parallel, and persist them as a checksummed JSON artifact for
    audit or warm-start. The build checkpoints periodically
    (``--checkpoint-every``) and ``--resume`` picks up an interrupted
    run; parallel builds are byte-identical to serial ones.
``serve``
    Run the resilient serving daemon over prebuilt artifacts: a
    dependency-free asyncio HTTP/JSON server with admission control,
    per-request deadlines, request coalescing, hot artifact reload
    (``POST /admin/reload`` / SIGHUP), and graceful SIGTERM drain. See
    ``docs/operations.md`` ("Serving").
``stats``
    Run a small seeded demo workload end-to-end and emit its metrics
    snapshot - offline build phase timings, per-search latency
    percentiles, cache hit-ratio gauges - as JSON (default), Prometheus
    text, or a table (see ``docs/observability.md``).
``experiment``
    Run one of the per-figure experiments and print its table.

``search``, ``build-index``, and ``build-summaries`` accept
``--metrics-out PATH`` to write the invocation's metrics snapshot as
JSON at PATH plus Prometheus text at the ``.prom`` sibling.

Library errors (:class:`~repro.exceptions.ReproError`) surface as a
one-line ``pit-search: error: ...`` message on stderr with exit code 2,
never a traceback. Interrupts follow the shell convention ``128 +
signum`` after flushing any checkpoint: SIGINT exits 130, SIGTERM 143
(both run the same cleanup path). The ``serve`` daemon overrides this
with its graceful drain: SIGTERM drains and exits 0, SIGINT exits 130.

Examples
--------
::

    pit-search datasets --size 800
    pit-search build-index --dataset data_2k --workers 4 --shard-nodes 4096 \
        --output prop_shards/ --resume
    pit-search search --dataset data_2k --user 3 --query phone --k 5 \
        --index-dir prop_shards/ --shard-cache-mb 64
    pit-search search --dataset data_2k --batch workload.jsonl --k 5
    pit-search build-summaries --dataset data_2k --summarizer rcl \
        --workers 2 --output summaries.json --resume
    pit-search experiment --figure 5 --queries 2 --users 1
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import List, Optional

from .core.shards import DEFAULT_SHARD_NODES
from .evaluation import ExperimentConfig, ExperimentSuite
from .exceptions import DatasetError, ReproError

__all__ = ["main", "build_parser"]

DATASET_NAMES = ("data_2k", "data_350k", "data_1.2m", "data_3m")

#: Figure id -> ExperimentSuite method name.
FIGURES = {
    "4": "fig04_datasets",
    "5": "fig05_time_small",
    "6": "fig06_time_large",
    "7": "fig07_repnodes_time",
    "8": "fig08_scalability",
    "9": "fig09_scalability_double_reps",
    "10": "fig10_effectiveness_small",
    "11": "fig11_effectiveness_large",
    "12": "fig12_repnodes_precision",
    "15": "fig15_index_construction",
    "16": "fig16_construction_vs_length",
}


def _add_build_flags(parser, *, resume: str, item: str) -> None:
    """Flags shared by the resumable build commands."""
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (0 = all CPUs)")
    parser.add_argument("--resume", action="store_true",
                        help=f"resume from {resume} instead of "
                             "rebuilding from scratch")
    parser.add_argument("--max-retries", type=int, default=2, metavar="N",
                        help="fresh-process retries for crashed workers")
    parser.add_argument("--keep-going", action="store_true",
                        help=f"record {item} that still fail after the "
                             "retries and continue instead of aborting")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the build's metrics snapshot as JSON at "
                             "PATH (+ Prometheus text at the .prom sibling)")
    parser.add_argument("--seed", type=int, default=42)


# No prefix matching: a removed flag such as ``--index`` is a usage
# error, not an abbreviation of ``--index-dir``.
_Parser = functools.partial(argparse.ArgumentParser, allow_abbrev=False)


def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI definition (exposed for testing)."""
    parser = _Parser(
        prog="pit-search",
        description="Personalized Influential Topic Search (paper reproduction)",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_Parser
    )

    datasets = sub.add_parser(
        "datasets", help="print the Figure 4 dataset summary"
    )
    datasets.add_argument("--size", type=int, default=None,
                          help="override node count for every dataset")
    datasets.add_argument("--seed", type=int, default=42)

    search = sub.add_parser(
        "search", help="run one PIT-Search query (or a --batch workload)"
    )
    search.add_argument("--dataset", default="data_2k", metavar="NAME",
                        help=f"one of {', '.join(DATASET_NAMES)}")
    search.add_argument("--size", type=int, default=None)
    search.add_argument("--user", type=int, default=None,
                        help="query user (required unless --batch)")
    search.add_argument("--query", default=None,
                        help="keyword query (required unless --batch)")
    search.add_argument("--batch", default=None, metavar="PATH",
                        help="serve a JSONL workload instead of one query: "
                             'one {"user": ..., "query": ..., "k": ...} '
                             "object per line (k optional)")
    search.add_argument("--k", type=int, default=10)
    search.add_argument("--summarizer", default="lrw", choices=["lrw", "rcl"])
    search.add_argument("--theta", type=float, default=0.002)
    search.add_argument("--index-dir", default=None, metavar="DIR",
                        help="serve from a sharded index directory built by "
                             "build-index (zero-copy mmap; its theta "
                             "overrides --theta)")
    search.add_argument("--shard-cache-mb", type=int, default=256,
                        metavar="MB",
                        help="paging budget for resident shard segments "
                             "with --index-dir (default 256)")
    search.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write this invocation's metrics snapshot as "
                             "JSON at PATH (+ Prometheus text at the .prom "
                             "sibling)")
    search.add_argument("--seed", type=int, default=42)

    build_index = sub.add_parser(
        "build-index",
        help="pre-build and persist the propagation index",
    )
    build_index.add_argument("--dataset", default="data_2k", metavar="NAME",
                             help=f"one of {', '.join(DATASET_NAMES)}")
    build_index.add_argument("--size", type=int, default=None)
    build_index.add_argument("--theta", type=float, default=0.002)
    build_index.add_argument("--max-branches", type=int, default=200_000)
    build_index.add_argument("--output", required=True, metavar="DIR",
                             help="destination shard directory")
    build_index.add_argument("--shard-nodes", type=int,
                             default=DEFAULT_SHARD_NODES, metavar="N",
                             help="nodes per build range and mean nodes "
                                  "per shard (default "
                                  f"{DEFAULT_SHARD_NODES}); completed ranges "
                                  "stream to disk, bounding RSS, then are "
                                  "cut into byte-balanced shards")
    _add_build_flags(build_index, resume="the completed shards in --output",
                     item="nodes")

    build_summaries = sub.add_parser(
        "build-summaries",
        help="pre-build and persist the per-topic summaries",
    )
    build_summaries.add_argument("--dataset", default="data_2k",
                                 metavar="NAME",
                                 help=f"one of {', '.join(DATASET_NAMES)}")
    build_summaries.add_argument("--size", type=int, default=None)
    build_summaries.add_argument("--summarizer", default="lrw",
                                 choices=["lrw", "rcl"])
    build_summaries.add_argument("--walk-length", type=int, default=5,
                                 help="walk index L (also the BFS hop bound)")
    build_summaries.add_argument("--samples-per-node", type=int, default=25,
                                 help="walk index R")
    build_summaries.add_argument("--rep-fraction", type=float, default=0.1,
                                 help="representatives per topic as a "
                                      "fraction of |V_t|")
    build_summaries.add_argument("--sample-rate", type=float, default=0.05,
                                 help="RCL-A node sampling rate (ignored "
                                      "for lrw)")
    build_summaries.add_argument("--output", required=True, metavar="PATH",
                                 help="destination .json artifact")
    build_summaries.add_argument("--checkpoint", default=None, metavar="PATH",
                                 help="checkpoint file (default: <output "
                                      "stem>.ckpt.json next to --output)")
    build_summaries.add_argument("--checkpoint-every", type=int, default=16,
                                 metavar="N",
                                 help="flush completed summaries to the "
                                      "checkpoint every N topics (0 = only "
                                      "on exit)")
    _add_build_flags(build_summaries, resume="an existing checkpoint",
                     item="topics")

    diagnose = sub.add_parser(
        "diagnose", help="print summary diagnostics for a query's topics"
    )
    diagnose.add_argument("--dataset", default="data_2k", metavar="NAME",
                          help=f"one of {', '.join(DATASET_NAMES)}")
    diagnose.add_argument("--size", type=int, default=None)
    diagnose.add_argument("--query", required=True)
    diagnose.add_argument("--summarizer", default="lrw", choices=["lrw", "rcl"])
    diagnose.add_argument("--with-error", action="store_true",
                          help="also compute the Definition 1 L1 error")
    diagnose.add_argument("--seed", type=int, default=42)

    serve = sub.add_parser(
        "serve",
        help="run the HTTP/JSON serving daemon over prebuilt artifacts",
    )
    serve.add_argument("--dataset", default="data_2k", metavar="NAME",
                       help=f"one of {', '.join(DATASET_NAMES)}")
    serve.add_argument("--size", type=int, default=None)
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument("--summaries", required=True, metavar="PATH",
                       help="prebuilt summaries artifact (build-summaries)")
    serve.add_argument("--index-dir", required=True, metavar="DIR",
                       help="sharded propagation index directory "
                            "(build-index); the daemon's only source of "
                            "propagation entries")
    serve.add_argument("--shard-cache-mb", type=int, default=256, metavar="MB",
                       help="paging budget for resident shard segments "
                            "(default 256)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="listen port (0 = pick a free port)")
    serve.add_argument("--k", type=int, default=10,
                       help="default k for requests that send none")
    serve.add_argument("--theta", type=float, default=None,
                       help="expected theta of --index-dir (default: the "
                            "index's); a different value is refused")
    serve.add_argument("--max-queue", type=int, default=64, metavar="N",
                       help="admission capacity; excess requests are shed "
                            "with 429 (default 64)")
    serve.add_argument("--max-batch", type=int, default=8, metavar="N",
                       help="max requests coalesced per dispatch (default 8)")
    serve.add_argument("--default-deadline-ms", type=int, default=5000,
                       metavar="MS",
                       help="per-request deadline when the caller sends no "
                            "deadline_ms (default 5000)")
    serve.add_argument("--drain-seconds", type=float, default=10.0,
                       metavar="S",
                       help="SIGTERM waits this long for in-flight requests "
                            "before hard-cancelling (default 10)")
    serve.add_argument("--max-body-kb", type=int, default=64, metavar="KB",
                       help="request bodies above this are refused with 413")
    serve.add_argument("--answer-cache-mb", type=int, default=32, metavar="MB",
                       help="answer-tier byte budget; 0 disables the tier "
                            "(default 32)")
    serve.add_argument("--plan-cache-mb", type=int, default=128, metavar="MB",
                       help="compiled-plan tier byte budget (default 128)")
    serve.add_argument("--precompute", default=None, metavar="PATH",
                       help="precompute artifact (pit-search precompute) to "
                            "warm the plan and answer tiers from, at startup "
                            "and across reloads")

    precompute = sub.add_parser(
        "precompute",
        help="mine a workload trace and precompute head-query plans and "
             "heavy-hitter answers into a warm-load artifact",
    )
    precompute.add_argument("--dataset", default="data_2k", metavar="NAME",
                            help=f"one of {', '.join(DATASET_NAMES)}")
    precompute.add_argument("--size", type=int, default=None)
    precompute.add_argument("--seed", type=int, default=42)
    precompute.add_argument("--summaries", required=True, metavar="PATH",
                            help="prebuilt summaries artifact the daemon "
                                 "will serve")
    precompute.add_argument("--index-dir", required=True, metavar="DIR",
                            help="sharded propagation index directory the "
                                 "daemon will serve")
    precompute.add_argument("--shard-cache-mb", type=int, default=256,
                            metavar="MB")
    precompute.add_argument("--trace", required=True, metavar="PATH",
                            help="JSONL workload trace "
                                 "({'user','query','k'} records, the "
                                 "search --batch / replay format)")
    precompute.add_argument("--output", required=True, metavar="PATH",
                            help="where to write the precompute artifact")
    precompute.add_argument("--top-queries", type=int, default=64, metavar="N",
                            help="head query plans to precompile (default 64)")
    precompute.add_argument("--top-answers", type=int, default=256,
                            metavar="N",
                            help="heavy-hitter answers to precompute "
                                 "(default 256)")
    precompute.add_argument("--k", type=int, default=10,
                            help="k for trace records that carry none")
    precompute.add_argument("--metrics-out", default=None, metavar="PATH",
                            help="write a metrics JSON snapshot (+ .prom "
                                 "sibling) for the precompute run")

    stats = sub.add_parser(
        "stats",
        help="run a seeded demo workload and emit its metrics snapshot",
    )
    stats.add_argument("--dataset", default="data_2k", metavar="NAME",
                       help=f"one of {', '.join(DATASET_NAMES)}")
    stats.add_argument("--size", type=int, default=300,
                       help="node count of the demo graph (default 300)")
    stats.add_argument("--queries", type=int, default=4,
                       help="distinct keyword queries in the demo workload")
    stats.add_argument("--users", type=int, default=5,
                       help="query users in the demo workload")
    stats.add_argument("--k", type=int, default=5)
    stats.add_argument("--summarizer", default="lrw", choices=["lrw", "rcl"])
    stats.add_argument("--theta", type=float, default=0.002)
    stats.add_argument("--index-dir", default=None, metavar="DIR",
                       help="serve the demo from a sharded index directory "
                            "(skips the in-process index build; surfaces "
                            "the index.shard.* gauges)")
    stats.add_argument("--shard-cache-mb", type=int, default=256,
                       metavar="MB",
                       help="paging budget for resident shard segments "
                            "with --index-dir (default 256)")
    stats.add_argument("--format", default="json",
                       choices=["json", "prom", "table"],
                       help="stdout rendering of the snapshot")
    stats.add_argument("--output", default=None, metavar="PATH",
                       help="also write JSON at PATH + Prometheus text at "
                            "the .prom sibling")
    stats.add_argument("--seed", type=int, default=42)

    experiment = sub.add_parser(
        "experiment", help="run a per-figure experiment"
    )
    experiment.add_argument("--figure", required=True, choices=sorted(FIGURES))
    experiment.add_argument("--queries", type=int, default=2)
    experiment.add_argument("--users", type=int, default=2)
    experiment.add_argument("--size", type=int, default=None,
                            help="override node count for every dataset")
    experiment.add_argument("--seed", type=int, default=42)

    scenario = sub.add_parser(
        "scenario",
        help="replayable, oracle-gated workload scenarios "
             "(see docs/scenarios.md)",
    )
    scenario_sub = scenario.add_subparsers(
        dest="scenario_command", required=True, parser_class=_Parser
    )
    scenario_sub.add_parser("list", help="print the scenario catalogue")
    generate = scenario_sub.add_parser(
        "generate",
        help="emit a scenario's replay trace (the JSONL format "
             "search --batch, serve, and precompute consume)",
    )
    generate.add_argument("name", help="scenario name (see: scenario list)")
    generate.add_argument("--seed", type=int, default=None,
                          help="override the scenario's default seed")
    generate.add_argument("--profile", default="default",
                          help="size profile (default / smoke / ...)")
    generate.add_argument("--output", required=True, metavar="PATH",
                          help="trace JSONL destination")
    run = scenario_sub.add_parser(
        "run",
        help="generate, replay, and grade one scenario "
             "(deterministic report in engine mode)",
    )
    run.add_argument("name", help="scenario name (see: scenario list)")
    run.add_argument("--seed", type=int, default=None,
                     help="override the scenario's default seed")
    run.add_argument("--profile", default="default",
                     help="size profile (default / smoke / ...)")
    run.add_argument("--mode", default="engine",
                     choices=["engine", "daemon"],
                     help="replay through ServingEngine in process "
                          "(deterministic) or a live daemon on a "
                          "loopback socket")
    run.add_argument("--metrics-out", default=None, metavar="PATH",
                     help="write the full report JSON at PATH")
    run.add_argument("--workdir", default=None, metavar="DIR",
                     help="keep artifacts in DIR instead of a temp dir")
    return parser


def _suite(args, sizes: Optional[dict] = None) -> ExperimentSuite:
    config = ExperimentConfig(
        seed=args.seed,
        n_queries=getattr(args, "queries", 2),
        n_users=getattr(args, "users", 2),
        deviation_budget=120,
        dataset_sizes=sizes or {},
    )
    return ExperimentSuite(config)


def _sizes_for(args) -> dict:
    if getattr(args, "size", None) is None:
        return {}
    return {name: args.size
            for name in ("data_2k", "data_350k", "data_1.2m", "data_3m")}


def _run_datasets(args) -> int:
    suite = _suite(args, _sizes_for(args))
    print(suite.fig04_datasets().render())
    return 0


def _load_bundle(args):
    from .datasets import DATASETS

    try:
        factory = DATASETS[args.dataset]
    except KeyError:
        raise DatasetError(
            f"unknown dataset {args.dataset!r}; "
            f"available: {', '.join(sorted(DATASETS))}"
        ) from None
    kwargs = {}
    if getattr(args, "size", None) is not None:
        kwargs["n_nodes"] = args.size
    if args.dataset == "data_2k":
        kwargs["with_corpus"] = False
    return factory(seed=args.seed, **kwargs)


def _load_workload(path: str):
    """Parse a JSONL batch workload into ``[(user, query, k or None)]``."""
    import json

    from .exceptions import ConfigurationError

    requests = []
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigurationError(f"cannot read workload {path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            user = int(record["user"])
            query = record["query"]
            k = record.get("k")
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"{path}:{lineno}: bad workload record ({exc}); expected "
                '{"user": ..., "query": ..., "k": ...} per line'
            ) from None
        requests.append((user, str(query), None if k is None else int(k)))
    if not requests:
        raise ConfigurationError(f"workload {path} contains no requests")
    return requests


def _run_batch(args, engine) -> int:
    from time import perf_counter

    requests = _load_workload(args.batch)
    # Group by k so each group is one search_many call; requests without
    # their own k use --k. Input order is restored for the report.
    by_k = {}
    for position, (user, query, k) in enumerate(requests):
        by_k.setdefault(k if k is not None else args.k, []).append(
            (position, user, query)
        )
    outcomes = [None] * len(requests)
    start = perf_counter()
    for k, group in sorted(by_k.items()):
        answered = engine.search_batch(
            [(user, query) for _, user, query in group], k=k, with_stats=True
        )
        for (position, _, _), outcome in zip(group, answered):
            outcomes[position] = outcome
    elapsed = perf_counter() - start

    n_empty = 0
    for (user, query, k), (results, stats) in zip(requests, outcomes):
        if results:
            top = results[0]
            print(f"user={user} query={query!r}: {len(results)} topics, "
                  f"top {top.label} ({top.influence:.6f}), "
                  f"{stats.topics_pruned}/{stats.topics_considered} pruned")
        else:
            n_empty += 1
            print(f"user={user} query={query!r}: no matching topics")
    qps = len(requests) / elapsed if elapsed > 0 else float("inf")
    print(f"\nserved {len(requests)} requests in {elapsed:.3f}s "
          f"({qps:.1f} QPS, {n_empty} empty)")
    for name, cache in engine.tier_stats().items():
        print(f"cache {name}: {cache.hits} hits / {cache.misses} misses "
              f"(hit rate {cache.hit_rate:.1%}), {cache.n_items} items, "
              f"{cache.current_bytes / 1024:.1f} KiB")
    return 0


def _emit_metrics(snapshot, path: str) -> None:
    from .obs import write_metrics_files

    prom = write_metrics_files(snapshot, path)
    print(f"metrics written to {path} and {prom}")


def _run_search(args) -> int:
    from .core import PITEngine, load_sharded_index
    from .exceptions import ConfigurationError

    if args.batch is None and (args.user is None or args.query is None):
        raise ConfigurationError(
            "search needs --user and --query (or --batch for a workload)"
        )
    bundle = _load_bundle(args)
    print(bundle.describe())
    metrics = None
    if args.metrics_out is not None:
        # A private registry scopes the emitted snapshot to this
        # invocation (the process default would do too, but could carry
        # metrics from other library use in the same process).
        from .obs import MetricsRegistry

        metrics = MetricsRegistry()
    builder = PITEngine.from_dataset(
        bundle,
        summarizer=args.summarizer,
        theta=args.theta,
        seed=args.seed,
        metrics=metrics,
    )
    prebuilt = None if args.index_dir is None else load_sharded_index(
        args.index_dir, bundle.graph, cache_bytes=args.shard_cache_mb << 20
    )
    engine = builder.serving(prebuilt)
    if prebuilt is not None:
        shards = prebuilt.shards
        print(f"using sharded propagation index {args.index_dir} "
              f"({prebuilt.n_cached} entries, {shards.n_shards} shards, "
              f"{shards.mapped_bytes() / (1 << 20):.1f} MiB mapped, "
              f"theta={prebuilt.theta}, "
              f"cache budget {args.shard_cache_mb} MiB)")
    if args.batch is not None:
        code = _run_batch(args, engine)
        if args.metrics_out is not None:
            _emit_metrics(engine.metrics_snapshot(), args.metrics_out)
        return code
    results, stats = engine.search(
        args.user, args.query, k=args.k, with_stats=True
    )
    if args.metrics_out is not None:
        _emit_metrics(engine.metrics_snapshot(), args.metrics_out)
    if not results:
        print(f"no topics match query {args.query!r}")
        return 1
    print(f"\nTop-{args.k} topics for user {args.user} / query {args.query!r} "
          f"({stats.topics_considered} candidates, "
          f"{stats.topics_pruned} pruned):")
    for rank, result in enumerate(results, start=1):
        print(f"  {rank:2d}. {result.label:28s} {result.influence:.6f}")
    return 0


def _build_setup(args):
    """Dataset and metrics registry of a build command."""
    bundle = _load_bundle(args)
    print(bundle.describe())
    metrics = None
    if args.metrics_out is not None:
        from .obs import MetricsRegistry

        metrics = MetricsRegistry()
    return bundle, metrics


def _build_policy(args) -> dict:
    """Keywords of the resumable-build policy, as every build takes them."""
    return dict(
        workers=None if args.workers == 0 else args.workers,
        resume=args.resume,
        max_retries=args.max_retries,
        strict=not args.keep_going,
    )


def _run_build_index(args) -> int:
    from .core import PropagationIndex

    bundle, metrics = _build_setup(args)
    index = PropagationIndex(
        bundle.graph, args.theta, max_branches=args.max_branches,
        metrics=metrics,
    )
    # The shard manifest doubles as the checkpoint: it is rewritten after
    # every shard, so an interrupt loses at most one shard range.
    index.build_sharded(
        args.output, shard_nodes=args.shard_nodes, **_build_policy(args)
    )
    stats = index.last_build_stats
    if stats.n_resumed:
        print(f"resumed {stats.n_resumed} entries "
              f"(completed shards verified and kept)")
    print(f"built {stats.n_built} entries in {stats.wall_seconds:.2f}s "
          f"({stats.entries_per_second:.0f} entries/s, "
          f"{stats.workers} worker(s), "
          f"{stats.total_bytes / 1024:.1f} KiB in shards of "
          f"{args.shard_nodes} nodes on average) -> {args.output}")
    if stats.failed_nodes:
        print(f"warning: {stats.n_failed} entries failed to build and were "
              f"stored empty: {list(stats.failed_nodes)[:10]}",
              file=sys.stderr)
    if metrics is not None:
        metrics.set_gauge("propagation.entries_cached", stats.n_entries)
        metrics.set_gauge("propagation.index_bytes", stats.total_bytes)
        _emit_metrics(metrics.snapshot(), args.metrics_out)
    return 0


def _run_build_summaries(args) -> int:
    from .core import PITEngine, save_summaries

    bundle, metrics = _build_setup(args)
    checkpoint = Path(args.checkpoint or args.output)
    if not args.checkpoint:  # <output stem>.ckpt.json next to --output
        stem = checkpoint.name.removesuffix(".json")
        checkpoint = checkpoint.with_name(stem + ".ckpt.json")
    engine = PITEngine.from_dataset(
        bundle,
        summarizer=args.summarizer,
        walk_length=args.walk_length,
        samples_per_node=args.samples_per_node,
        rep_fraction=args.rep_fraction,
        sample_rate=args.sample_rate,
        seed=args.seed,
        metrics=metrics,
    )
    engine.build_summaries(
        checkpoint=checkpoint,
        checkpoint_every=args.checkpoint_every,
        **_build_policy(args),
    )
    save_summaries(engine.summaries, bundle.graph, args.output)
    stats = engine.last_summary_build_stats
    if stats.n_resumed:
        print(f"resumed {stats.n_resumed} summaries from {checkpoint}")
    print(f"built {stats.n_built} summaries in {stats.wall_seconds:.2f}s "
          f"({stats.topics_per_second:.1f} topics/s, "
          f"{stats.workers} worker(s), "
          f"{engine.n_summaries} total) -> {args.output}")
    if stats.failed_topics:
        print(f"warning: {stats.n_failed} summaries failed to build and "
              f"were skipped: {list(stats.failed_topics)[:10]}",
              file=sys.stderr)
    if metrics is not None:
        metrics.set_gauge("summaries.cached", engine.n_summaries)
        _emit_metrics(metrics.snapshot(), args.metrics_out)
    # The finished artifact is saved; the checkpoint is now redundant.
    checkpoint.unlink(missing_ok=True)
    return 0


def _run_diagnose(args) -> int:
    from .core import PITEngine, diagnostics_table

    bundle = _load_bundle(args)
    engine = PITEngine.from_dataset(
        bundle, summarizer=args.summarizer, seed=args.seed
    )
    topics = bundle.topic_index.related_topics(args.query)
    if not topics:
        print(f"no topics match query {args.query!r}")
        return 1
    summaries = [engine.summary(t) for t in topics]
    table = diagnostics_table(
        bundle.graph, bundle.topic_index, summaries,
        compute_error=args.with_error,
    )
    print(table.render())
    return 0


def _run_stats(args) -> int:
    import json

    from .core import PITEngine
    from .datasets import generate_workload
    from .obs import (
        MetricsRegistry,
        render_prometheus,
        render_table,
        snapshot_to_json,
    )

    bundle = _load_bundle(args)
    registry = MetricsRegistry()
    builder = PITEngine.from_dataset(
        bundle,
        summarizer=args.summarizer,
        theta=args.theta,
        seed=args.seed,
        metrics=registry,
    )
    # The demo exercises all three instrumented layers: an offline index
    # build, summarization on first use of each topic, and batched online
    # serving over a seeded workload.
    prebuilt = None
    if args.index_dir is not None:
        from .core import load_sharded_index

        prebuilt = load_sharded_index(
            args.index_dir, bundle.graph,
            cache_bytes=args.shard_cache_mb << 20,
            metrics=registry,
        )
    else:
        builder.propagation_index.build_all(workers=1)
    engine = builder.serving(prebuilt)
    workload = generate_workload(
        bundle, n_queries=args.queries, n_users=args.users, seed=args.seed
    )
    engine.search_batch(list(workload.pairs()), k=args.k)
    snapshot = engine.metrics_snapshot()
    if args.format == "json":
        print(json.dumps(snapshot_to_json(snapshot), indent=2, sort_keys=True))
    elif args.format == "prom":
        print(render_prometheus(snapshot), end="")
    else:
        for table in render_table(snapshot, title=f"{bundle.name} demo"):
            print(table.render())
            print()
    if args.output is not None:
        _emit_metrics(snapshot, args.output)
    return 0


def _run_serve(args) -> int:
    import asyncio

    from .obs import MetricsRegistry
    from .serve import PITServer, ServeConfig

    bundle = _load_bundle(args)
    print(bundle.describe(), flush=True)
    registry = MetricsRegistry()
    paths = {"summaries": args.summaries, "index_dir": args.index_dir}
    if args.precompute is not None:
        paths["precompute"] = args.precompute
    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        default_deadline_s=args.default_deadline_ms / 1000.0,
        drain_s=args.drain_seconds,
        max_body_bytes=args.max_body_kb * 1024,
        default_k=args.k,
    )
    server = PITServer(
        bundle.graph,
        bundle.topic_index,
        paths,
        config,
        metrics=registry,
        theta=args.theta,
        shard_cache_bytes=args.shard_cache_mb << 20,
        answer_cache_bytes=(
            None if args.answer_cache_mb == 0 else args.answer_cache_mb << 20
        ),
        plan_cache_bytes=args.plan_cache_mb << 20,
    )

    def _ready() -> None:
        engine = server.engines.current
        print(f"listening on http://{config.host}:{server.port}", flush=True)
        print(f"ready: generation {server.engines.generation}, "
              f"{engine.n_summaries} summaries, theta={engine.theta}",
              flush=True)

    code = asyncio.run(server.run(ready_callback=_ready))
    print(f"drained and stopped (exit {code})", flush=True)
    return code


def _run_precompute(args) -> int:
    from time import perf_counter

    from .core import ServingEngine
    from .core.precompute import build_precompute, save_precompute

    bundle = _load_bundle(args)
    print(bundle.describe())
    metrics = None
    if args.metrics_out is not None:
        from .obs import MetricsRegistry

        metrics = MetricsRegistry()
    engine = ServingEngine.from_artifacts(
        bundle.graph,
        bundle.topic_index,
        args.summaries,
        index_dir=args.index_dir,
        shard_cache_bytes=args.shard_cache_mb << 20,
        metrics=metrics,
    )
    started = perf_counter()
    artifact = build_precompute(
        engine,
        args.trace,
        top_queries=args.top_queries,
        top_answers=args.top_answers,
        default_k=args.k,
    )
    save_precompute(artifact, args.output)
    elapsed = perf_counter() - started
    trace = artifact.trace
    print(
        f"mined {trace['n_records']} requests: "
        f"{trace['n_distinct_queries']} distinct queries, "
        f"{trace['n_distinct_triples']} distinct (user, query, k) triples"
    )
    print(
        f"precomputed {len(artifact.plans)} head plans and "
        f"{len(artifact.answers)} answers in {elapsed:.2f}s "
        f"(~{artifact.memory_hint_bytes() / (1 << 20):.2f} MiB warm)"
    )
    print(f"artifact written to {args.output}")
    if metrics is not None:
        metrics.inc("precompute.trace_records", trace["n_records"])
        metrics.set_gauge("precompute.plans", len(artifact.plans))
        metrics.set_gauge("precompute.answers", len(artifact.answers))
        metrics.set_gauge(
            "precompute.warm_bytes", artifact.memory_hint_bytes()
        )
        _emit_metrics(engine.metrics_snapshot(), args.metrics_out)
    return 0


def _run_experiment(args) -> int:
    suite = _suite(args, _sizes_for(args))
    method = getattr(suite, FIGURES[args.figure])
    outcome = method()
    tables = outcome if isinstance(outcome, tuple) else (outcome,)
    for table in tables:
        print(table.render())
        print()
    return 0


def _run_scenario(args) -> int:
    """`pit-search scenario list | generate | run` (docs/scenarios.md)."""
    import json

    from .scenarios import get_scenario, list_scenarios, run_scenario

    if args.scenario_command == "list":
        for scenario in list_scenarios():
            tags = []
            if scenario.adversarial:
                tags.append("adversarial")
            if scenario.wants_precompute:
                tags.append("precompute")
            suffix = f"  [{', '.join(tags)}]" if tags else ""
            profiles = "/".join(sorted(scenario.profiles))
            print(f"{scenario.name:24s} {scenario.title}{suffix}")
            print(f"{'':24s} seed={scenario.default_seed} "
                  f"profiles={profiles}")
        return 0

    if args.scenario_command == "generate":
        data = get_scenario(args.name).generate(args.seed, args.profile)
        data.write_trace(args.output)
        print(f"{args.name}: {len(data.records)} requests, "
              f"{len(data.events)} events -> {args.output}")
        print(f"trace digest: {data.trace_digest()}")
        return 0

    report = run_scenario(
        args.name,
        seed=args.seed,
        profile=args.profile,
        mode=args.mode,
        workdir=args.workdir,
    )
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    trace = report["trace"]
    print(f"{report['scenario']} ({report['mode']}, seed {report['seed']}, "
          f"profile {report['profile']}): {trace['n_requests']} requests "
          f"in {trace['n_bursts']} bursts, {trace['n_events']} events")
    print(f"trace digest: {trace['digest']}")
    quality = report["quality"]
    print(f"quality: exact precision {quality['exact']['precision']:.3f} "
          f"(err {quality['exact']['max_influence_error']:.2e}), "
          f"summarized precision {quality['summarized']['precision']:.3f}")
    if report["replay"] is not None:
        replay = report["replay"]
        cache = replay["answer_cache"]
        print(f"replay: digest {replay['results_digest'][:16]}..., "
              f"answer hits {cache['answer_hits']}/"
              f"{cache['answer_hits'] + cache['answer_misses']}, "
              f"warm {replay['warm_answers']}")
    if report["daemon"] is not None:
        daemon = report["daemon"]
        print(f"daemon: statuses {daemon['statuses']}, "
              f"shed {daemon['shed']}, 5xx {daemon['server_errors']}")
    for name, passed in report["gates"].items():
        print(f"gate {name}: {'pass' if passed else 'FAIL'}")
    print(f"ok: {report['ok']}")
    return 0 if report["ok"] else 1


#: Exit code for the current interrupt, shell-style ``128 + signum``.
#: SIGINT's KeyboardInterrupt leaves the default 130; the SIGTERM
#: handler overwrites it with 143 before raising.
_SIGNAL_EXIT = {"code": 130}


def _signal_to_interrupt(signum, frame) -> None:
    """Route SIGTERM through the KeyboardInterrupt cleanup path.

    Checkpointed builds flush in their ``finally`` blocks on
    KeyboardInterrupt, so terminating a build politely (``kill`` / a
    supervisor's SIGTERM) preserves exactly as much work as Ctrl-C.
    """
    _SIGNAL_EXIT["code"] = 128 + signum
    raise KeyboardInterrupt


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Library failures (missing artifacts, corrupted files, bad
    parameters, failed builds - anything deriving from
    :class:`~repro.exceptions.ReproError`) print a one-line message to
    stderr and exit 2 instead of leaking a traceback. Programming errors
    still traceback, by design. SIGINT/SIGTERM share one cleanup path
    and exit ``128 + signum`` (130 / 143); the ``serve`` daemon installs
    its own loop-level handlers for a graceful drain instead.
    """
    import signal

    args = build_parser().parse_args(argv)
    handlers = {
        "datasets": _run_datasets,
        "search": _run_search,
        "build-index": _run_build_index,
        "build-summaries": _run_build_summaries,
        "diagnose": _run_diagnose,
        "serve": _run_serve,
        "precompute": _run_precompute,
        "stats": _run_stats,
        "experiment": _run_experiment,
        "scenario": _run_scenario,
    }
    _SIGNAL_EXIT["code"] = 130
    try:
        previous_sigterm = signal.signal(signal.SIGTERM, _signal_to_interrupt)
    except ValueError:  # not the main thread (embedded / test harness)
        previous_sigterm = None
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"pit-search: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Checkpointed builds have already flushed in their finally block.
        print("pit-search: interrupted (checkpoint flushed if enabled)",
              file=sys.stderr)
        return _SIGNAL_EXIT["code"]
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `pit-search ... | head`). Point
        # stdout at devnull so interpreter shutdown does not re-raise.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    finally:
        if previous_sigterm is not None:
            try:
                signal.signal(signal.SIGTERM, previous_sigterm)
            except ValueError:
                pass


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
