"""Summary and index-build diagnostics (library extension).

Operational tooling a user of the library needs before trusting a summary:
how much of the topic's local weight was migrated, how concentrated the
representative weights are, how far the representatives sit from the topic
nodes, and (optionally, since it costs a propagation) the Definition 1 L1
error. The engine-level report aggregates these over a set of topics.

:class:`PropagationBuildStats` is the offline-stage counterpart: build
time and throughput counters recorded by
:meth:`~repro.core.propagation.PropagationIndex.build_all`, feeding the
``benchmarks/bench_propagation_index.py`` perf trajectory.

:class:`CacheStats` is the online-serving counterpart: hit/miss/byte
accounting snapshots of the bounded LRU caches behind
:meth:`~repro.core.search.PersonalizedSearcher.search_many`, feeding the
``benchmarks/bench_online_search.py`` trajectory.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..graph import SocialGraph, hop_distances
from ..obs.registry import MetricsSnapshot
from ..topics import TopicIndex
from .summarization import TopicSummary, summarization_error

__all__ = [
    "CacheStats",
    "PropagationBuildStats",
    "SummaryBuildStats",
    "SummaryDiagnostics",
    "diagnose_summary",
    "diagnostics_table",
]


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/byte accounting snapshot of one bounded serving cache.

    Attributes
    ----------
    name:
        Which cache tier ("answers", "plans", "entries", ...).
    hits / misses:
        Lookup outcomes since the cache was created (or last cleared).
    evictions:
        Items displaced by the byte budget.
    n_items:
        Items currently resident.
    current_bytes / max_bytes:
        Resident payload bytes and the configured budget (0 = unbounded).
    """

    name: str
    hits: int
    misses: int
    evictions: int
    n_items: int
    current_bytes: int
    max_bytes: int

    @property
    def lookups(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when the cache was never consulted)."""
        total = self.lookups
        if total == 0:
            return 0.0
        return self.hits / total

    def as_dict(self) -> Dict[str, float]:
        """JSON-ready payload including the derived hit rate."""
        payload = asdict(self)
        payload["lookups"] = self.lookups
        payload["hit_rate"] = self.hit_rate
        return payload


@dataclass(frozen=True)
class PropagationBuildStats:
    """Throughput counters for one ``PropagationIndex.build_all`` call.

    Attributes
    ----------
    n_entries:
        Entries cached in the index after the call.
    n_built:
        Entries materialized by this call (cached entries are skipped).
    total_branches:
        Branch extensions performed across the built entries.
    total_members:
        ``Σ |Γ(v)|`` over the built entries.
    wall_seconds:
        Wall-clock build time.
    workers:
        Worker processes used (1 = serial in-process build).
    peak_entry_bytes:
        Largest single-entry storage footprint built by this call.
    total_bytes:
        Exact storage bytes of every cached entry after the call.
    failed_nodes:
        Nodes whose entries could not be built after the configured
        retries (empty for a fully successful build).
    n_resumed:
        Entries a resumed :meth:`~repro.core.propagation.PropagationIndex.build_sharded`
        found already published in verified shards.
    """

    n_entries: int
    n_built: int
    total_branches: int
    total_members: int
    wall_seconds: float
    workers: int
    peak_entry_bytes: int
    total_bytes: int
    failed_nodes: Tuple[int, ...] = ()
    n_resumed: int = 0

    @classmethod
    def from_metrics(
        cls,
        delta: "MetricsSnapshot",
        *,
        n_entries: int,
        workers: int,
        total_bytes: int,
        failed_nodes: Tuple[int, ...] = (),
        n_resumed: int = 0,
        phase: str = "build_all",
    ) -> "PropagationBuildStats":
        """View one build's stats out of a registry delta snapshot.

        *delta* is ``registry.snapshot().delta(before)`` taken around one
        :meth:`~repro.core.propagation.PropagationIndex.build_all` or
        ``build_sharded`` call; the ``propagation.*`` counters and the
        ``phase.propagation.<phase>.seconds`` histogram of that call's
        *phase* are the single source of truth for throughput
        accounting. Quantities a snapshot cannot express (cache size after
        the call, the worker count, which nodes failed) come in as
        keywords.

        ``peak_entry_bytes`` is read from the ``propagation.entry_bytes``
        histogram, whose ``max`` tracks the registry's lifetime - on a
        long-lived shared registry it is an upper bound over all builds,
        not only this one.
        """
        wall = delta.histogram(f"phase.propagation.{phase}.seconds")
        entry_bytes = delta.histogram("propagation.entry_bytes")
        return cls(
            n_entries=int(n_entries),
            n_built=int(delta.counter("propagation.entries_built")),
            total_branches=int(delta.counter("propagation.branches")),
            total_members=int(delta.counter("propagation.members")),
            wall_seconds=wall.sum if wall is not None else 0.0,
            workers=int(workers),
            peak_entry_bytes=(
                int(entry_bytes.max)
                if entry_bytes is not None and entry_bytes.count
                else 0
            ),
            total_bytes=int(total_bytes),
            failed_nodes=tuple(failed_nodes),
            n_resumed=int(n_resumed),
        )

    @property
    def n_failed(self) -> int:
        """Number of nodes that could not be built."""
        return len(self.failed_nodes)

    @property
    def entries_per_second(self) -> float:
        """Build throughput (0 when the call was instantaneous)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.n_built / self.wall_seconds

    @property
    def branches_per_second(self) -> float:
        """Branch-extension throughput (0 when instantaneous)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.total_branches / self.wall_seconds

    def as_dict(self) -> Dict[str, float]:
        """JSON-ready payload including the derived rates."""
        payload = asdict(self)
        payload["failed_nodes"] = list(self.failed_nodes)
        payload["n_failed"] = self.n_failed
        payload["entries_per_second"] = self.entries_per_second
        payload["branches_per_second"] = self.branches_per_second
        return payload


@dataclass(frozen=True)
class SummaryBuildStats:
    """Throughput counters for one ``PITEngine.build_summaries`` call.

    Attributes
    ----------
    n_summaries:
        Topic summaries cached on the engine after the call.
    n_built:
        Summaries built by this call (resumed/cached topics are skipped).
    wall_seconds:
        Wall-clock build time.
    workers:
        Worker processes used (1 = serial in-process build).
    failed_topics:
        Topics whose summaries could not be built after the configured
        retries (empty for a fully successful build).
    n_resumed:
        Summaries absorbed from a checkpoint before building started.
    """

    n_summaries: int
    n_built: int
    wall_seconds: float
    workers: int
    failed_topics: Tuple[int, ...] = ()
    n_resumed: int = 0

    @classmethod
    def from_metrics(
        cls,
        delta: "MetricsSnapshot",
        *,
        n_summaries: int,
        workers: int,
        failed_topics: Tuple[int, ...] = (),
        n_resumed: int = 0,
    ) -> "SummaryBuildStats":
        """View one build's stats out of a registry delta snapshot.

        *delta* is ``registry.snapshot().delta(before)`` taken around one
        :meth:`~repro.core.engine.PITEngine.build_summaries` call; the
        ``summarize.topics_built`` counter and the
        ``phase.summarize.build_all.seconds`` histogram it carries are
        the single source of truth for throughput accounting.
        """
        phase = delta.histogram("phase.summarize.build_all.seconds")
        return cls(
            n_summaries=int(n_summaries),
            n_built=int(delta.counter("summarize.topics_built")),
            wall_seconds=phase.sum if phase is not None else 0.0,
            workers=int(workers),
            failed_topics=tuple(failed_topics),
            n_resumed=int(n_resumed),
        )

    @property
    def n_failed(self) -> int:
        """Number of topics whose summaries could not be built."""
        return len(self.failed_topics)

    @property
    def topics_per_second(self) -> float:
        """Build throughput (0 when the call was instantaneous)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.n_built / self.wall_seconds

    def as_dict(self) -> Dict[str, float]:
        """JSON-ready payload including the derived rates."""
        payload = asdict(self)
        payload["failed_topics"] = list(self.failed_topics)
        payload["n_failed"] = self.n_failed
        payload["topics_per_second"] = self.topics_per_second
        return payload


@dataclass(frozen=True)
class SummaryDiagnostics:
    """Quality indicators for one topic summary.

    Attributes
    ----------
    topic_id / label:
        The topic.
    topic_size:
        ``|V_t|``.
    n_representatives:
        Summary size.
    total_weight:
        Migrated local weight (1.0 = nothing lost).
    weight_entropy:
        Normalized Shannon entropy of the weights in [0, 1]; 1 means the
        weight is spread evenly over the representatives, 0 means a single
        representative dominates.
    representative_overlap:
        Fraction of representatives that are themselves topic nodes.
    mean_distance_to_topic:
        Mean hop distance from each representative to its nearest topic
        node (0 for topic-node representatives).
    l1_error:
        Definition 1 error, when requested (None otherwise).
    """

    topic_id: int
    label: str
    topic_size: int
    n_representatives: int
    total_weight: float
    weight_entropy: float
    representative_overlap: float
    mean_distance_to_topic: float
    l1_error: Optional[float]


def _normalized_entropy(weights: Sequence[float]) -> float:
    values = np.asarray([w for w in weights if w > 0], dtype=np.float64)
    if values.size <= 1:
        return 0.0
    probabilities = values / values.sum()
    entropy = float(-(probabilities * np.log(probabilities)).sum())
    return entropy / math.log(values.size)


def diagnose_summary(
    graph: SocialGraph,
    topic_index: TopicIndex,
    summary: TopicSummary,
    *,
    compute_error: bool = False,
    error_length: int = 6,
    distance_cap: int = 6,
) -> SummaryDiagnostics:
    """Compute :class:`SummaryDiagnostics` for one summary."""
    topic_id = summary.topic_id
    label = topic_index.label(topic_id)
    topic_nodes = topic_index.topic_nodes(topic_id)
    topic_set = set(int(v) for v in topic_nodes)
    reps = summary.representatives

    if reps:
        overlap = sum(1 for r in reps if r in topic_set) / len(reps)
        distances = []
        for rep in reps:
            if rep in topic_set:
                distances.append(0)
                continue
            dist = hop_distances(graph, rep, distance_cap)
            reachable = [
                int(dist[v]) for v in topic_set if dist[v] >= 0
            ]
            distances.append(min(reachable) if reachable else distance_cap + 1)
        mean_distance = float(np.mean(distances))
    else:
        overlap = 0.0
        mean_distance = float("nan")

    error = None
    if compute_error:
        error = summarization_error(
            graph, topic_nodes, summary, length=error_length
        )
    return SummaryDiagnostics(
        topic_id=topic_id,
        label=label,
        topic_size=int(topic_nodes.size),
        n_representatives=len(reps),
        total_weight=summary.total_weight,
        weight_entropy=_normalized_entropy(list(summary.weights.values())),
        representative_overlap=overlap,
        mean_distance_to_topic=mean_distance,
        l1_error=error,
    )


def diagnostics_table(
    graph: SocialGraph,
    topic_index: TopicIndex,
    summaries: Iterable[TopicSummary],
    *,
    compute_error: bool = False,
):
    """A :class:`~repro.evaluation.reporting.Table` over many summaries."""
    from ..evaluation.reporting import Table

    table = Table(
        "Topic summary diagnostics",
        ["topic", "|V_t|", "reps", "weight", "entropy", "overlap",
         "mean dist", "L1 error"],
    )
    for summary in summaries:
        diag = diagnose_summary(
            graph, topic_index, summary, compute_error=compute_error
        )
        table.add_row([
            diag.label,
            diag.topic_size,
            diag.n_representatives,
            f"{diag.total_weight:.3f}",
            f"{diag.weight_entropy:.3f}",
            f"{diag.representative_overlap:.2f}",
            f"{diag.mean_distance_to_topic:.2f}",
            "-" if diag.l1_error is None else f"{diag.l1_error:.4f}",
        ])
    return table
