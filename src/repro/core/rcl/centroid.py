"""Centroid selection for a topic-node group - Algorithm 4 (S16).

A group's representative is the node with the best closeness centrality
with respect to the group (Definition 3). Computing exact centrality for
every graph node is Θ(|V|³), so the paper first *votes*: every node that can
reach a group member within L hops gets one vote per member it reaches, the
top voters become candidates, and exact (hop-limited) centrality is
evaluated only for them.

Both stages are batched over the group: voting popcounts one bitset
propagation (:func:`~repro.graph.traversal.reachability_bitsets`) instead
of one reverse BFS per member, and candidate centralities come from a
single :func:`~repro.graph.traversal.hop_distance_matrix` call followed by
one vectorized argmax. The historical per-member loops are retained in
``tests/oracles/scalar_summarize.py`` as the parity baseline.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..._utils import require_in_range
from ...exceptions import ConfigurationError
from ...graph import SocialGraph, hop_distance_matrix, reachability_bitsets
from ...obs.registry import MetricsRegistry, get_registry
from ...obs.tracing import trace
from ...walks import WalkIndex

__all__ = ["closeness_centrality", "select_central", "vote_candidates"]


def _group_distance_totals(
    graph: SocialGraph,
    nodes: np.ndarray,
    members: np.ndarray,
    *,
    max_hops: int,
    unreachable_distance: int,
) -> np.ndarray:
    """Summed hop distance from each of *nodes* to every group member.

    One batched propagation answers all ``len(nodes) x len(members)``
    distance questions; members unreachable within *max_hops* count as
    *unreachable_distance*. Duplicate members each contribute a column,
    matching the scalar per-member summation.
    """
    distances = hop_distance_matrix(graph, members, max_hops)[nodes]
    penalized = np.where(distances >= 0, distances, unreachable_distance)
    return penalized.sum(axis=1, dtype=np.int64)


def closeness_centrality(
    graph: SocialGraph,
    node: int,
    group: Sequence[int],
    *,
    max_hops: int,
    unreachable_distance: Optional[int] = None,
) -> float:
    """Definition 3: ``|V_g| / sum_j distance(node, group_j)``.

    Distances are forward hop counts from *node*, capped at *max_hops*
    (the paper bounds intra-group distances by ``2L``). Members unreachable
    within the cap count as *unreachable_distance* (default ``max_hops+1``),
    so candidates that miss part of the group are penalized rather than
    crashing the computation.
    """
    if not group:
        raise ConfigurationError("group is empty")
    require_in_range("max_hops", max_hops, 1)
    if unreachable_distance is None:
        unreachable_distance = max_hops + 1
    members = graph.validate_nodes(group)
    nodes = np.asarray([graph.validate_node(node)], dtype=np.int64)
    total = float(
        _group_distance_totals(
            graph,
            nodes,
            members,
            max_hops=max_hops,
            unreachable_distance=int(unreachable_distance),
        )[0]
    )
    if total == 0.0:
        # Only possible for a singleton group containing the node itself.
        return float("inf")
    return len(group) / total


def vote_candidates(
    graph: SocialGraph,
    group: Sequence[int],
    *,
    max_hops: int,
    walk_index: Optional[WalkIndex] = None,
    include_members: bool = True,
    metrics: Optional[MetricsRegistry] = None,
) -> Tuple[List[int], Dict[int, int]]:
    """Algorithm 4 lines 1-7: vote counting and top-candidate extraction.

    Every node reaching member ``v_i`` within L hops earns a vote; the
    candidates are the nodes holding the maximum vote count. Reachability
    uses the sampled walk index when given; otherwise one batched bitset
    propagation replaces the per-member reverse BFS, and the tally is a
    row-wise popcount (a duplicate member occupies its own bit, so it
    double-counts exactly like the scalar loop).

    Returns
    -------
    (candidates, votes):
        *candidates* sorted ascending; *votes* is the full tally (useful
        for diagnostics and tests).
    """
    if not group:
        raise ConfigurationError("group is empty")
    registry = metrics if metrics is not None else get_registry()
    members = graph.validate_nodes(group)
    tally = np.zeros(graph.n_nodes, dtype=np.int64)
    with trace("summarize.reachability", registry=registry):
        if walk_index is not None:
            for member in members:
                reachers = walk_index.reverse_reachable(int(member))
                tally[reachers] += 1
        else:
            bits = reachability_bitsets(graph, members, max_hops)
            tally = np.bitwise_count(bits).sum(axis=1, dtype=np.int64)
    if include_members:
        # A member trivially reaches itself in 0 hops.
        np.add.at(tally, members, 1)
    voters = np.flatnonzero(tally)
    votes = {int(v): int(tally[v]) for v in voters}
    if not votes:
        return [], votes
    top = int(tally.max())
    candidates = [int(v) for v in np.flatnonzero(tally == top)]
    return candidates, votes


def select_central(
    graph: SocialGraph,
    group: Sequence[int],
    *,
    max_hops: int,
    walk_index: Optional[WalkIndex] = None,
    max_candidates: int = 8,
    metrics: Optional[MetricsRegistry] = None,
) -> int:
    """Algorithm 4: the best central node for *group*.

    When more than *max_candidates* nodes tie for the top vote count, only
    the best-connected ones (largest total degree, then smallest id) enter
    the exact centrality evaluation - the candidate-set reduction the paper
    describes as its first optimization at the end of §3.2. The surviving
    candidates are scored with one batched distance-matrix propagation and
    a single argmax (first maximum wins, matching the scalar first-best
    scan).

    Falls back to the group member with the largest out-degree when voting
    produces no candidates (possible on sampled reachability when no walk
    reached any member).
    """
    require_in_range("max_candidates", max_candidates, 1)
    group = [int(v) for v in graph.validate_nodes(group)]
    candidates, _ = vote_candidates(
        graph, group, max_hops=max_hops, walk_index=walk_index, metrics=metrics
    )
    if not candidates:
        return max(group, key=lambda v: (graph.out_degree(v), -v))
    if len(candidates) > max_candidates:
        degrees = graph.total_degrees()
        candidates = sorted(candidates, key=lambda v: (-int(degrees[v]), v))
        candidates = sorted(candidates[:max_candidates])
    centrality_hops = 2 * max_hops
    totals = _group_distance_totals(
        graph,
        np.asarray(candidates, dtype=np.int64),
        np.asarray(group, dtype=np.int64),
        max_hops=centrality_hops,
        unreachable_distance=centrality_hops + 1,
    )
    scores = np.divide(
        float(len(group)),
        totals.astype(np.float64),
        out=np.full(totals.size, np.inf),
        where=totals > 0,
    )
    return candidates[int(np.argmax(scores))]
