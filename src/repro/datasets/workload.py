"""Query workload generation (substrate S29, paper §6.2).

"We select 100 tags to represent a user's keyword queries. Each tag would
produce 500+ topics ... Then, we randomly select an additional 49 users, but
keep the 100 sampled keyword queries unchanged."

A workload here is the cross product of a set of keyword queries (tag head
tokens, preferring tokens that match many topics) and a set of query users.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .._utils import SeedLike, coerce_rng, require_in_range
from ..exceptions import ConfigurationError
from ..topics import KeywordQuery, TopicIndex, tokenize
from .twitter import DatasetBundle

__all__ = [
    "Workload",
    "generate_workload",
    "rank_query_tokens",
    "replay_requests",
    "replay_jsonl",
    "write_replay_jsonl",
]


@dataclass(frozen=True)
class Workload:
    """A reproducible set of (query, user) evaluation pairs.

    Attributes
    ----------
    queries:
        Parsed keyword queries.
    users:
        Query-user node ids.
    """

    queries: Tuple[KeywordQuery, ...]
    users: Tuple[int, ...]

    def pairs(self) -> Iterator[Tuple[int, KeywordQuery]]:
        """Iterate every ``(user, query)`` combination."""
        for user in self.users:
            for query in self.queries:
                yield user, query

    @property
    def size(self) -> int:
        """Total number of (user, query) pairs."""
        return len(self.queries) * len(self.users)


def rank_query_tokens(topic_index: TopicIndex) -> List[Tuple[str, int]]:
    """Tokens of topic labels ranked by how many topics they match.

    The paper picks query tags that "produce 500+ topics"; at scaled size we
    analogously prefer the tokens matching the most topics.
    """
    counts: Dict[str, int] = {}
    for label in topic_index.labels:
        for token in set(tokenize(label)):
            counts[token] = counts.get(token, 0) + 1
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))


def generate_workload(
    bundle: DatasetBundle,
    *,
    n_queries: int = 10,
    n_users: int = 5,
    min_topics_per_query: int = 2,
    seed: SeedLike = None,
) -> Workload:
    """Build a workload from a dataset bundle.

    Parameters
    ----------
    bundle:
        The dataset to draw queries and users from.
    n_queries:
        Number of keyword queries (paper: 100).
    n_users:
        Number of query users (paper: 50).
    min_topics_per_query:
        Only tokens matching at least this many topics qualify as queries,
        mirroring the paper's "500+ topics per tag" requirement at scale.
    seed:
        Seed or generator for user sampling.
    """
    require_in_range("n_queries", n_queries, 1)
    require_in_range("n_users", n_users, 1)
    rng = coerce_rng(seed)

    ranked = [
        token
        for token, count in rank_query_tokens(bundle.topic_index)
        if count >= min_topics_per_query
    ]
    if len(ranked) < n_queries:
        raise ConfigurationError(
            f"dataset {bundle.name} only offers {len(ranked)} query tokens with "
            f">= {min_topics_per_query} topics; requested {n_queries}"
        )
    queries = tuple(KeywordQuery.parse(token) for token in ranked[:n_queries])

    if n_users > bundle.graph.n_nodes:
        raise ConfigurationError(
            f"requested {n_users} query users from a graph with "
            f"{bundle.graph.n_nodes} nodes"
        )
    users = rng.choice(bundle.graph.n_nodes, size=n_users, replace=False)
    return Workload(queries=queries, users=tuple(int(u) for u in sorted(users)))


def replay_requests(
    workload: Workload,
    *,
    n_requests: int,
    k: int = 10,
    skew: float = 1.0,
    seed: SeedLike = None,
) -> List[Dict[str, object]]:
    """Sample a Zipf-skewed request stream from a workload.

    Real serving traffic is not uniform: a few (user, query) pairs
    dominate. This draws *n_requests* pairs from ``workload.pairs()``
    with probability proportional to ``rank ** -skew`` (rank 1 = most
    popular; ``skew=0`` is uniform, larger = more head-heavy), which is
    what makes request coalescing and caching measurable in the serving
    benchmark: the head pairs repeat, so concurrent duplicates exist.

    Returns JSONL-ready ``{"user", "query", "k"}`` dicts - the same
    record format ``pit-search search --batch`` consumes and the daemon's
    ``POST /search`` accepts, so one replay file drives both paths.
    """
    require_in_range("n_requests", n_requests, 1)
    if skew < 0:
        raise ConfigurationError(f"skew must be >= 0, got {skew}")
    rng = coerce_rng(seed)
    pairs = list(workload.pairs())
    ranks = np.arange(1, len(pairs) + 1, dtype=np.float64)
    weights = ranks ** -float(skew)
    weights /= weights.sum()
    # Shuffle once so popularity is not correlated with user id order.
    order = rng.permutation(len(pairs))
    picks = rng.choice(len(pairs), size=n_requests, p=weights)
    return [
        {
            "user": int(pairs[order[i]][0]),
            "query": pairs[order[i]][1].raw,
            "k": int(k),
        }
        for i in picks
    ]


def replay_jsonl(records: Iterable[Dict[str, object]]) -> str:
    """Canonical JSONL serialization of replay records.

    Sorted keys, compact separators, one record per line: the same seed
    always yields byte-identical output, which is what lets scenario
    traces be digested (SHA-256 over these bytes) and compared across
    runs. Every consumer of the record format - ``search --batch``, the
    daemon's ``POST /search``, and ``pit-search precompute`` - ignores
    unknown keys, so records may carry extras such as ``at_ms``.
    """
    return "".join(
        json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        for record in records
    )


def write_replay_jsonl(
    records: Iterable[Dict[str, object]], path
) -> Path:
    """Write records to *path* in the canonical JSONL form.

    The single emitter shared by the scenario suite and the trace
    ``benchmarks/bench_serve.py`` mines into its precompute - one
    serialization, one digest.
    """
    path = Path(path)
    path.write_text(replay_jsonl(records), encoding="utf-8")
    return path
