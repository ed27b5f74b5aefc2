"""Retained scalar reference implementation of the offline summarizers.

This module freezes the per-node / per-pair / per-walk summarization code
paths exactly as they stood before :mod:`repro.graph.traversal`'s bitset
kernels made :mod:`repro.core.rcl` and :mod:`repro.core.lrw` array-native
(same pattern as :mod:`tests.oracles.scalar_search` for the online stage).
It exists for two reasons:

1. **Differential testing** - ``tests/test_properties_summarization.py``
   runs the vectorized RCL-A / LRW-A pipelines against these baselines on
   seeded random graphs and asserts bit-exact groupings, representative
   sets, and summary weights.
2. **Benchmark baseline** - ``benchmarks/bench_summarization.py`` measures
   the vectorized speedup against this code and gates on parity in the
   same run.

Do not optimize this module - its value is staying the fixed reference
point. The shared pure helpers (``label_pairs``, the no-overlap
extraction, ``select_representatives``, degree sampling) are imported
rather than duplicated: they are identical in both paths, so they cannot
mask a divergence in the rewritten kernels.

The one deliberate deviation from the historical code is randomness
plumbing: :class:`ScalarRCLSummarizer` derives a per-topic generator from
``(entropy, topic_id)`` exactly like the vectorized
:class:`~repro.core.rcl.pipeline.RCLSummarizer` now does, so the two can
be compared under a common seed. Within a topic the consumption order is
unchanged (sampling first, then Rule 3 draws).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro._utils import (
    SeedLike,
    derive_topic_rng,
    normalize_rows,
    require_in_range,
    require_probability,
    spawn_entropy,
)
from repro.exceptions import ConfigurationError
from repro.graph import (
    SocialGraph,
    hop_distances,
    reverse_reachable,
    sample_nodes_by_degree,
    sample_rate_to_count,
)
from repro.topics import TopicIndex
from repro.walks import WalkIndex, first_absorption
from repro.core.lrw.repnodes import select_representatives
from repro.core.rcl.grouping import label_pairs
from repro.core.rcl.no_overlap import greedy_no_overlap, no_overlap_from_tree
from repro.core.summarization import Summarizer, TopicSummary

__all__ = [
    "scalar_compute_grouping_probabilities",
    "scalar_closeness_centrality",
    "scalar_vote_candidates",
    "scalar_select_central",
    "scalar_migration_matrix",
    "scalar_migrate_influence",
    "ScalarRCLSummarizer",
    "ScalarLRWSummarizer",
]


# ---------------------------------------------------------------------------
# RCL-A grouping (pre-bitset `rcl/grouping.py`)
# ---------------------------------------------------------------------------


def _scalar_reachability_matrix(
    graph: SocialGraph,
    topic_nodes: np.ndarray,
    sample: np.ndarray,
    max_hops: int,
    walk_index: Optional[WalkIndex],
) -> np.ndarray:
    """Boolean ``(n_t, |V'|)`` matrix of 'sample node reaches topic node'."""
    sample_positions = {int(node): j for j, node in enumerate(sample)}
    reach = np.zeros((topic_nodes.size, sample.size), dtype=bool)
    for i, node in enumerate(topic_nodes):
        if walk_index is not None:
            reachers = walk_index.reverse_reachable(int(node))
        else:
            reachers = reverse_reachable(graph, int(node), max_hops)
        for reacher in reachers:
            j = sample_positions.get(int(reacher))
            if j is not None:
                reach[i, j] = True
    return reach


def scalar_compute_grouping_probabilities(
    graph: SocialGraph,
    topic_nodes: Sequence[int],
    sample: Sequence[int],
    *,
    max_hops: int,
    walk_index: Optional[WalkIndex] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """GP+ / GP- matrices via one reverse BFS per topic node (Algorithm 1)."""
    topic_nodes = np.asarray(sorted(set(int(v) for v in topic_nodes)), dtype=np.int64)
    sample = np.asarray(sorted(set(int(v) for v in sample)), dtype=np.int64)
    if topic_nodes.size == 0:
        raise ConfigurationError("topic node set is empty")
    if sample.size == 0:
        raise ConfigurationError("sample node set V' is empty")

    reach = _scalar_reachability_matrix(
        graph, topic_nodes, sample, max_hops, walk_index
    )
    reach_f = reach.astype(np.float64)
    sample_size = float(sample.size)
    common = reach_f @ reach_f.T  # |V_uL ∩ V_vL ∩ V'| for every pair
    row = reach_f.sum(axis=1)
    gp_positive = common / sample_size
    # reaches exactly one: (|u| - common) + (|v| - common)
    gp_negative = (row[:, None] + row[None, :] - 2.0 * common) / sample_size
    np.fill_diagonal(gp_positive, 1.0)
    np.fill_diagonal(gp_negative, 0.0)
    return reach, gp_positive, gp_negative


# ---------------------------------------------------------------------------
# RCL-A centroid selection (pre-bitset `rcl/centroid.py`)
# ---------------------------------------------------------------------------


def scalar_closeness_centrality(
    graph: SocialGraph,
    node: int,
    group: Sequence[int],
    *,
    max_hops: int,
    unreachable_distance: Optional[int] = None,
) -> float:
    """Definition 3 via one forward BFS and a Python loop over the group."""
    if not group:
        raise ConfigurationError("group is empty")
    require_in_range("max_hops", max_hops, 1)
    if unreachable_distance is None:
        unreachable_distance = max_hops + 1
    dist = hop_distances(graph, node, max_hops)
    total = 0.0
    for member in group:
        d = int(dist[graph.validate_node(member)])
        total += d if d >= 0 else unreachable_distance
    if total == 0.0:
        # Only possible for a singleton group containing the node itself.
        return float("inf")
    return len(group) / total


def scalar_vote_candidates(
    graph: SocialGraph,
    group: Sequence[int],
    *,
    max_hops: int,
    walk_index: Optional[WalkIndex] = None,
    include_members: bool = True,
) -> Tuple[List[int], Dict[int, int]]:
    """Algorithm 4 lines 1-7 with a dict tally and per-member BFS."""
    if not group:
        raise ConfigurationError("group is empty")
    votes: Dict[int, int] = {}
    for member in group:
        member = graph.validate_node(member)
        if walk_index is not None:
            reachers = walk_index.reverse_reachable(member)
        else:
            reachers = reverse_reachable(graph, member, max_hops)
        for reacher in reachers:
            reacher = int(reacher)
            votes[reacher] = votes.get(reacher, 0) + 1
        if include_members:
            # A member trivially reaches itself in 0 hops.
            votes[member] = votes.get(member, 0) + 1
    if not votes:
        return [], votes
    top = max(votes.values())
    candidates = sorted(node for node, count in votes.items() if count == top)
    return candidates, votes


def scalar_select_central(
    graph: SocialGraph,
    group: Sequence[int],
    *,
    max_hops: int,
    walk_index: Optional[WalkIndex] = None,
    max_candidates: int = 8,
) -> int:
    """Algorithm 4 with one centrality BFS per surviving candidate."""
    require_in_range("max_candidates", max_candidates, 1)
    group = [graph.validate_node(v) for v in group]
    candidates, _ = scalar_vote_candidates(
        graph, group, max_hops=max_hops, walk_index=walk_index
    )
    if not candidates:
        return max(group, key=lambda v: (graph.out_degree(v), -v))
    if len(candidates) > max_candidates:
        degrees = graph.total_degrees()
        candidates = sorted(candidates, key=lambda v: (-int(degrees[v]), v))
        candidates = sorted(candidates[:max_candidates])
    best = candidates[0]
    best_score = -1.0
    for candidate in candidates:
        score = scalar_closeness_centrality(
            graph, candidate, group, max_hops=2 * max_hops
        )
        if score > best_score:
            best = candidate
            best_score = score
    return best


# ---------------------------------------------------------------------------
# LRW-A influence migration (pre-vectorization `lrw/migration.py`)
# ---------------------------------------------------------------------------


def _record_hits(
    records,
    absorbers: Set[int],
    row: int,
    column_of: Dict[int, int],
    matrix: np.ndarray,
    *,
    absorb_first: bool,
    transpose: bool,
) -> None:
    """Update ``M`` with the absorption events of one node's walks."""
    for record in records:
        if absorb_first:
            hit = first_absorption(record, absorbers)
            hits = [hit] if hit is not None else []
        else:
            path = record.path
            hits = [
                (int(path[pos]), pos)
                for pos in range(1, path.size)
                if int(path[pos]) in absorbers
            ]
        for node, distance in hits:
            closeness = 1.0 / (distance + 1.0)
            column = column_of[node]
            i, j = (column, row) if transpose else (row, column)
            if matrix[i, j] < closeness:
                matrix[i, j] = closeness


def scalar_migration_matrix(
    walk_index: WalkIndex,
    topic_nodes: Sequence[int],
    representatives: Sequence[int],
    *,
    absorb_first: bool = True,
) -> np.ndarray:
    """Algorithm 8 lines 2-12 with per-walk Python loops."""
    topics = [int(v) for v in topic_nodes]
    reps = [int(v) for v in representatives]
    if not topics:
        raise ConfigurationError("topic node set is empty")
    if not reps:
        raise ConfigurationError("representative set is empty")
    if len(set(topics)) != len(topics):
        raise ConfigurationError("topic nodes contain duplicates")
    if len(set(reps)) != len(reps):
        raise ConfigurationError("representatives contain duplicates")

    matrix = np.zeros((len(topics), len(reps)), dtype=np.float64)
    rep_set = set(reps)
    topic_set = set(topics)
    rep_column = {node: j for j, node in enumerate(reps)}
    topic_row = {node: i for i, node in enumerate(topics)}

    # Forward: topic-node walks absorbed by representatives (lines 3-7).
    for i, topic_node in enumerate(topics):
        _record_hits(
            walk_index.walks_from(topic_node),
            rep_set,
            i,
            rep_column,
            matrix,
            absorb_first=absorb_first,
            transpose=False,
        )
    # Backward: representative walks absorbing topic nodes (lines 8-12).
    for j, rep in enumerate(reps):
        _record_hits(
            walk_index.walks_from(rep),
            topic_set,
            j,
            topic_row,
            matrix,
            absorb_first=absorb_first,
            transpose=True,
        )
    # A representative that *is* a topic node absorbs itself at distance 0.
    for node in rep_set & topic_set:
        matrix[topic_row[node], rep_column[node]] = max(
            matrix[topic_row[node], rep_column[node]], 1.0
        )
    return matrix


def scalar_migrate_influence(
    topic_id: int,
    walk_index: WalkIndex,
    topic_nodes: Sequence[int],
    representatives: Sequence[int],
    *,
    absorb_first: bool = True,
) -> TopicSummary:
    """Algorithm 8 end-to-end on the scalar migration matrix."""
    matrix = scalar_migration_matrix(
        walk_index, topic_nodes, representatives, absorb_first=absorb_first
    )
    normalized = normalize_rows(matrix)
    m = normalized.shape[0]
    column_weight = normalized.sum(axis=0) / m
    reps = [int(v) for v in representatives]
    weights = {
        rep: float(w) for rep, w in zip(reps, column_weight) if w > 0.0
    }
    return TopicSummary(int(topic_id), weights)


# ---------------------------------------------------------------------------
# Frozen pipelines
# ---------------------------------------------------------------------------


class ScalarRCLSummarizer(Summarizer):
    """RCL-A assembled from the scalar kernels above (no tracing).

    Mirrors :class:`~repro.core.rcl.pipeline.RCLSummarizer` constructor
    argument for argument, including the per-topic RNG derivation, so a
    vectorized and a scalar instance built from the same seed produce
    comparable (bit-identical) output.
    """

    name = "rcl-scalar"

    def __init__(
        self,
        graph: SocialGraph,
        topic_index: TopicIndex,
        *,
        max_hops: int = 4,
        sample_rate: float = 0.05,
        rep_fraction: float = 0.05,
        walk_index: Optional[WalkIndex] = None,
        policy: str = "all",
        use_tree: bool = False,
        seed: SeedLike = None,
    ):
        require_in_range("max_hops", max_hops, 1)
        require_probability("sample_rate", sample_rate, inclusive_zero=False)
        require_probability("rep_fraction", rep_fraction, inclusive_zero=False)
        if walk_index is not None and walk_index.graph is not graph:
            raise ConfigurationError("walk_index was built for a different graph")
        self._graph = graph
        self._topic_index = topic_index
        self._max_hops = int(max_hops)
        self._sample_rate = float(sample_rate)
        self._rep_fraction = float(rep_fraction)
        self._walk_index = walk_index
        self._policy = policy
        self._use_tree = bool(use_tree)
        self._entropy = spawn_entropy(seed)

    def n_clusters_for(self, topic_id: int) -> int:
        """``C_Size`` for a topic: ``ceil(rep_fraction * |V_t|)``."""
        size = self._topic_index.topic_size(topic_id)
        return max(1, math.ceil(self._rep_fraction * size))

    def cluster_topic(self, topic_id: int) -> List[Tuple[int, ...]]:
        """Algorithm 1 (+2/3): non-overlapping groups of topic *node ids*."""
        topic_nodes = self._topic_index.topic_nodes(topic_id)
        if topic_nodes.size == 0:
            raise ConfigurationError(
                f"topic {topic_id} has no member nodes to cluster"
            )
        if topic_nodes.size == 1:
            return [(int(topic_nodes[0]),)]
        rng = derive_topic_rng(self._entropy, topic_id)
        sample_count = sample_rate_to_count(self._graph, self._sample_rate)
        sample = sample_nodes_by_degree(self._graph, sample_count, rng)
        _, gp_pos, gp_neg = scalar_compute_grouping_probabilities(
            self._graph,
            topic_nodes,
            sample,
            max_hops=self._max_hops,
            walk_index=self._walk_index,
        )
        labels = label_pairs(gp_pos, gp_neg, seed=rng)
        n_clusters = self.n_clusters_for(topic_id)
        if self._use_tree:
            position_groups = no_overlap_from_tree(
                labels, n_clusters, policy=self._policy
            )
        else:
            position_groups = greedy_no_overlap(
                labels, n_clusters, policy=self._policy
            )
        ordered = np.asarray(sorted(set(int(v) for v in topic_nodes)), dtype=np.int64)
        return [tuple(int(ordered[p]) for p in group) for group in position_groups]

    def summarize(self, topic_id: int) -> TopicSummary:
        """Algorithm 5 offline stage: groups -> centroids -> weights."""
        topic_id = self._topic_index.resolve(topic_id)
        groups = self.cluster_topic(topic_id)
        total_nodes = sum(len(g) for g in groups)
        weights: Dict[int, float] = {}
        for group in groups:
            central = scalar_select_central(
                self._graph,
                group,
                max_hops=self._max_hops,
                walk_index=self._walk_index,
            )
            share = len(group) / total_nodes
            # Two groups may elect the same centroid; their shares merge.
            weights[central] = weights.get(central, 0.0) + share
        return TopicSummary(topic_id, weights)


class ScalarLRWSummarizer(Summarizer):
    """LRW-A assembled from the scalar migration kernel (no tracing).

    Representative selection (Algorithm 7) is shared with the vectorized
    pipeline - it was already array-native - so any divergence observed in
    a differential run is attributable to the migration rewrite.
    """

    name = "lrw-scalar"

    def __init__(
        self,
        graph: SocialGraph,
        topic_index: TopicIndex,
        walk_index: WalkIndex,
        *,
        damping: float = 0.85,
        rep_fraction: float = 0.05,
        absorb_first: bool = True,
        initial: str = "restart",
        reinforcement: str = "divrank",
        candidates: str = "topic",
    ):
        require_probability("damping", damping)
        require_probability("rep_fraction", rep_fraction, inclusive_zero=False)
        if walk_index.graph is not graph:
            raise ConfigurationError("walk_index was built for a different graph")
        if not walk_index.is_built:
            walk_index.build()
        self._graph = graph
        self._topic_index = topic_index
        self._walk_index = walk_index
        self._damping = float(damping)
        self._rep_fraction = float(rep_fraction)
        self._absorb_first = bool(absorb_first)
        self._initial = initial
        self._reinforcement = reinforcement
        self._candidates = candidates

    def representatives(self, topic_id: int):
        """Algorithm 7: the ranked representative node ids for a topic."""
        topic_id = self._topic_index.resolve(topic_id)
        topic_nodes = self._topic_index.topic_nodes(topic_id)
        return select_representatives(
            self._graph,
            topic_nodes,
            self._walk_index,
            damping=self._damping,
            rep_fraction=self._rep_fraction,
            initial=self._initial,
            reinforcement=self._reinforcement,
            candidates=self._candidates,
        )

    def summarize(self, topic_id: int) -> TopicSummary:
        """Algorithm 9 offline stage: RepNodes + InfluenceMigration."""
        topic_id = self._topic_index.resolve(topic_id)
        topic_nodes = self._topic_index.topic_nodes(topic_id)
        reps = self.representatives(topic_id)
        return scalar_migrate_influence(
            topic_id,
            self._walk_index,
            [int(v) for v in topic_nodes],
            [int(v) for v in reps],
            absorb_first=self._absorb_first,
        )
