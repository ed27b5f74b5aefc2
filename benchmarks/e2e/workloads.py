"""Workload catalogue and seeded input generators for the e2e benchmark.

Everything the offline build fixes (dataset, theta, shard size, k, the
mined precompute trace) is a constant here, so every workload and every
seed serves the same artifacts. The requests a run sends and its delta
batches are fixed too; the run seed (``--seed``) only orders them. Which
heavy requests or costly deltas a run gets then does not change with the
seed, only when they arrive.

Imported by the benchmark harness, by the build child process and by the
harness tests; it imports ``repro`` only to generate inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core import GraphDelta
from repro.datasets import data_2k, generate_workload

#: Seed of the dataset, the query/user pool, the walk index and which
#: (user, query) pairs are popular under a Zipf mix.
DATA_SEED = 42
#: Seed of the mined precompute trace (a different day's traffic).
TRACE_SEED = 1
#: Seed of the requests and delta batches a run replays, in run-seed order.
INPUT_SEED = 2
THETA = 0.002
SHARD_NODES = 256
K = 10
#: Records in the trace the precompute stage mines.
TRACE_RECORDS = 2000
#: Precompute heads: fewer than every query and pair, so serving still
#: compiles plans and writes answers through (in the warm-up on a head mix).
TOP_QUERIES = 8
TOP_ANSWERS = 64
#: Edits of each kind (insert, delete, reweight) in one delta batch.
EDITS_PER_DELTA = 3
#: Deltas a traced run sends one after another after each read phase on
#: workloads that stream none, so the dynamics layers have samples on
#: every workload.
PROBE_DELTAS = 10
#: Distinct pairs of the trace asked before the read phase: their answers
#: are scored against BaseMatrix, and they warm the answer tier the way
#: yesterday's traffic would have.
QUALITY_PAIRS = 100


@dataclass(frozen=True)
class Workload:
    """One traffic mix over one offline build.

    ``skew`` is the Zipf exponent over the ``n_queries x n_users`` pairs
    (0 = uniform). Reads arrive open loop at a constant ``read_rps``;
    ``delta_rate`` streams that many ``POST /admin/delta`` per second into
    the same schedule.
    """

    name: str
    n_nodes: int
    n_queries: int
    n_users: int
    skew: float
    read_rps: float
    delta_rate: float = 0.0
    serve_args: Tuple[str, ...] = ()
    #: Full build + boot repetitions per run; ``setup_s`` is their median.
    setups: int = 3


WORKLOADS: Dict[str, Workload] = {
    # Nearly every answer comes from the answer tier: protocol, admission,
    # coalescing and encoding are the cost.
    "head-zipf": Workload(
        "head-zipf", 1000, 12, 8, skew=1.1, read_rps=100.0,
    ),
    # Almost every request misses the answer tier and expands through
    # Gamma with shard page-ins from a 1 MiB budget against a ~1.7 MiB
    # index: the search kernel and shard paging are the cost.
    "tail-uniform": Workload(
        "tail-uniform", 1000, 40, 500, skew=0.0, read_rps=30.0,
        serve_args=("--shard-cache-mb", "1"),
    ),
    # head-zipf's mix with a delta every 5 s: each delta holds the search
    # thread while it rewrites shards, and the answers it invalidates are
    # searched again. Those reads must stay well under half of all reads,
    # or the median sits on the edge between them and the cached ones: at
    # 50 rps with a delta every 4 s it read 1.3-2.6 ms across ten seeds.
    "delta-stream": Workload(
        "delta-stream", 1000, 12, 8, skew=1.1, read_rps=100.0,
        delta_rate=0.2,
    ),
}

#: ``smoke`` shrinks every graph to 300 nodes and builds once, so the
#: whole catalogue runs in seconds (harness tests, quick checks).
PROFILES = ("full", "smoke")


def workload_spec(name: str, profile: str = "full") -> Workload:
    """The workload *name* under *profile* (``full`` or ``smoke``)."""
    spec = WORKLOADS[name]
    if profile == "full":
        return spec
    if profile != "smoke":
        raise ValueError(f"unknown profile {profile!r}; choose from {PROFILES}")
    return replace(
        spec, n_nodes=300, n_users=min(spec.n_users, 100), read_rps=500.0,
        setups=1,
    )


def dataset(spec: Workload):
    """The workload's dataset bundle (fixed seed, no tweet corpus)."""
    return data_2k(seed=DATA_SEED, n_nodes=spec.n_nodes, with_corpus=False)


def request_pairs(bundle, spec: Workload) -> List[Tuple[int, str]]:
    """The workload's ``(user, query)`` pool, in popularity order."""
    pool = generate_workload(
        bundle, n_queries=spec.n_queries, n_users=spec.n_users, seed=DATA_SEED
    )
    pairs = [(user, query.raw) for user, query in pool.pairs()]
    order = np.random.default_rng(DATA_SEED).permutation(len(pairs))
    return [pairs[i] for i in order]


def read_records(
    pairs: Sequence[Tuple[int, str]], n: int, skew: float, seed
) -> List[Dict[str, object]]:
    """*n* search requests drawn from *pairs* (Zipf *skew*, 0 = uniform).

    Pair ``i`` of the popularity-ordered pool has weight ``(i+1)**-skew``;
    *seed* draws the sequence.
    """
    weights = np.arange(1, len(pairs) + 1, dtype=np.float64) ** -float(skew)
    picks = np.random.default_rng(seed).choice(
        len(pairs), size=n, p=weights / weights.sum()
    )
    return [
        {"user": pairs[i][0], "query": pairs[i][1], "k": K} for i in picks
    ]


def delta_pool(graph, count: int, seed=INPUT_SEED) -> List[GraphDelta]:
    """*count* delta batches that apply to *graph* in any order.

    Each batch deletes and reweights ``EDITS_PER_DELTA`` edges of *graph*
    and inserts as many edges it lacks. No edge appears in two batches,
    so every order of the pool is a valid stream and all orders end in
    the same graph.
    """
    rng = np.random.default_rng(seed)
    per = EDITS_PER_DELTA
    sources, targets, probs = graph.edge_arrays()
    n = graph.n_nodes
    picks = rng.choice(sources.size, size=2 * per * count, replace=False)
    taken = set((sources.astype(np.int64) * n + targets).tolist())
    absent: List[Tuple[int, int, float]] = []
    while len(absent) < per * count:
        a, b = (int(v) for v in rng.integers(n, size=2))
        if a != b and a * n + b not in taken:
            taken.add(a * n + b)
            absent.append((a, b, round(float(rng.uniform(0.05, 0.4)), 6)))
    deltas = []
    for j in range(count):
        edges = picks[2 * per * j: 2 * per * (j + 1)]
        deltas.append(GraphDelta(
            inserts=tuple(absent[per * j: per * (j + 1)]),
            deletes=tuple(
                (int(sources[i]), int(targets[i])) for i in edges[:per]
            ),
            reweights=tuple(
                (int(sources[i]), int(targets[i]),
                 round(float(probs[i]) * 0.5 + 0.05, 6))
                for i in edges[per:]
            ),
        ))
    return deltas


def run_order(items: Sequence, seed, stream: int) -> list:
    """*items* in the order run seed *seed* gives them (one independent
    permutation per *stream*: 0 for reads, 1 for deltas)."""
    order = np.random.default_rng([seed, stream]).permutation(len(items))
    return [items[i] for i in order]


def delta_payload(delta: GraphDelta) -> Dict[str, list]:
    """The ``POST /admin/delta`` body of *delta*."""
    return {
        "inserts": [list(edge) for edge in delta.inserts],
        "deletes": [list(edge) for edge in delta.deletes],
        "reweights": [list(edge) for edge in delta.reweights],
    }
