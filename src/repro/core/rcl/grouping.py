"""Grouping probabilities and clustering rules - Algorithm 1 (S13).

For a pair of topic nodes ``u, v`` and a sampled node set ``V'``, the paper
partitions ``V'`` into three buckets (each sampled node lands in exactly
one):

* ``GP+``: fraction of V' reaching *both* u and v within L hops - evidence
  the pair belongs together;
* ``GP-``: fraction reaching exactly one of them - evidence for splitting;
* ``GP*``: fraction reaching neither - no evidence either way.

The clustering rules then label each pair grouped / split / randomized
(Rule 3 groups with probability ``GP+ / (GP+ + GP*)``).

Reachability sets come from either the sampled walk index (``I_L``,
Algorithm 6) or exact hop-limited reverse BFS; both are supported and the
choice is an explicit parameter. The exact branch runs one batched bitset
propagation (:func:`~repro.graph.traversal.reachability_bitsets`) for the
whole topic-node set instead of one reverse BFS per topic node; the indexed
branch resolves each ``I_L`` set against the sorted sample with a single
``searchsorted`` pass. The retained scalar loop lives in
``tests/oracles/scalar_summarize.py`` as the parity baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..._utils import SeedLike, coerce_rng
from ...exceptions import ConfigurationError
from ...graph import SocialGraph, reachability_bitsets, unpack_bitset
from ...obs.registry import MetricsRegistry, get_registry
from ...obs.tracing import trace
from ...walks import WalkIndex

__all__ = [
    "GroupingProbabilities",
    "PairwiseGrouping",
    "compute_grouping_probabilities",
    "label_pairs",
    "grouping_probability",
]


@dataclass(frozen=True)
class GroupingProbabilities:
    """The (GP+, GP-, GP*) triple for one node pair."""

    positive: float
    negative: float
    unknown: float

    def __post_init__(self):
        total = self.positive + self.negative + self.unknown
        if not np.isclose(total, 1.0, atol=1e-9):
            raise ConfigurationError(
                f"grouping probabilities must sum to 1, got {total}"
            )
        for name in ("positive", "negative", "unknown"):
            value = getattr(self, name)
            if not -1e-12 <= value <= 1.0 + 1e-12:
                raise ConfigurationError(f"{name} probability out of [0,1]: {value}")


def grouping_probability(gp: GroupingProbabilities) -> float:
    """Rule 3's randomized grouping probability ``GP+ / (GP+ + GP*)``.

    Property 1 of the paper guarantees this dominates the corresponding
    split probability whenever ``GP+ >= GP-``.
    """
    denominator = gp.positive + gp.unknown
    if denominator == 0.0:
        return 0.0
    return gp.positive / denominator


class PairwiseGrouping:
    """Dense pairwise grouping state over a topic's node set.

    Attributes
    ----------
    topic_nodes:
        The topic node ids, in index order (matrix axes refer to these
        positions).
    reach:
        Boolean matrix ``(n_t, |V'|)``: does topic node i reach sampled
        node j within L hops.
    labels:
        Symmetric ``int8`` matrix: 1 grouped, 0 split (diagonal is 1).
    """

    def __init__(
        self,
        topic_nodes: np.ndarray,
        reach: np.ndarray,
        labels: np.ndarray,
        probabilities: Optional[np.ndarray] = None,
    ):
        self.topic_nodes = topic_nodes
        self.reach = reach
        self.labels = labels
        self._probabilities = probabilities

    def grouped(self, i: int, j: int) -> bool:
        """Whether topic-node positions *i* and *j* were labelled grouped."""
        return bool(self.labels[i, j] == 1)

    def pair_probabilities(self, i: int, j: int) -> GroupingProbabilities:
        """The (GP+, GP-, GP*) triple for positions *i*, *j*."""
        if self._probabilities is None:
            raise ConfigurationError("probabilities were not retained")
        gp_pos, gp_neg = self._probabilities[i, j]
        return GroupingProbabilities(gp_pos, gp_neg, 1.0 - gp_pos - gp_neg)

    @property
    def n_topic_nodes(self) -> int:
        """Number of topic nodes covered."""
        return int(self.topic_nodes.size)


def _reachability_matrix(
    graph: SocialGraph,
    topic_nodes: np.ndarray,
    sample: np.ndarray,
    max_hops: int,
    walk_index: Optional[WalkIndex],
) -> np.ndarray:
    """Boolean ``(n_t, |V'|)`` matrix of 'sample node reaches topic node'.

    *sample* must be sorted (the caller dedups and sorts). The exact-BFS
    branch answers all ``n_t`` reverse reachability questions with one
    bitset propagation; the walk-index branch intersects each ``I_L`` set
    with the sample via ``searchsorted`` instead of per-node dict probes.
    """
    if walk_index is not None:
        reach = np.zeros((topic_nodes.size, sample.size), dtype=bool)
        for i, node in enumerate(topic_nodes):
            reachers = walk_index.reverse_reachable(int(node))
            if reachers.size == 0:
                continue
            pos = np.searchsorted(sample, reachers)
            in_range = pos < sample.size
            pos = pos[in_range]
            hits = pos[sample[pos] == reachers[in_range]]
            reach[i, hits] = True
        return reach
    bits = reachability_bitsets(graph, topic_nodes, max_hops)
    # Row v, bit i = "v reaches topic_nodes[i]"; select the sampled rows.
    return unpack_bitset(bits[sample], topic_nodes.size).T


def _pair_common_counts(reach: np.ndarray) -> np.ndarray:
    """``|V_uL ∩ V_vL ∩ V'|`` for every topic-node pair, as ``int64``.

    Packs each reachability row into uint64 words and popcounts the
    pairwise AND, so a pair costs ``ceil(|V'|/64)`` word ops instead of a
    ``|V'|``-wide float dot product.
    """
    n_t, n_s = reach.shape
    pad = (-n_s) % 64
    if pad:
        reach = np.concatenate(
            [reach, np.zeros((n_t, pad), dtype=bool)], axis=1
        )
    packed = np.packbits(reach, axis=1, bitorder="little").view(np.uint64)
    pair_and = packed[:, None, :] & packed[None, :, :]
    return np.bitwise_count(pair_and).sum(axis=2, dtype=np.int64)


def compute_grouping_probabilities(
    graph: SocialGraph,
    topic_nodes: Sequence[int],
    sample: Sequence[int],
    *,
    max_hops: int,
    walk_index: Optional[WalkIndex] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized GP+ / GP- matrices for all topic-node pairs.

    Returns
    -------
    (reach, gp_positive, gp_negative):
        *reach* is the boolean reachability matrix; the GP matrices are
        symmetric ``float64`` with an undefined diagonal (set to 1 / 0).
        ``GP*`` is implicitly ``1 - GP+ - GP-``.
    """
    registry = metrics if metrics is not None else get_registry()
    topic_nodes = np.asarray(sorted(set(int(v) for v in topic_nodes)), dtype=np.int64)
    sample = np.asarray(sorted(set(int(v) for v in sample)), dtype=np.int64)
    if topic_nodes.size == 0:
        raise ConfigurationError("topic node set is empty")
    if sample.size == 0:
        raise ConfigurationError("sample node set V' is empty")

    with trace("summarize.reachability", registry=registry):
        reach = _reachability_matrix(
            graph, topic_nodes, sample, max_hops, walk_index
        )
    # Integer intersection / row counts are exact in float64 (|V'| << 2^53),
    # so these GP values are bit-identical to the historical float matmul.
    common = _pair_common_counts(reach).astype(np.float64)
    registry.inc("summarize.grouping.pairs", topic_nodes.size * topic_nodes.size)
    sample_size = float(sample.size)
    row = reach.sum(axis=1, dtype=np.int64).astype(np.float64)
    gp_positive = common / sample_size
    # reaches exactly one: (|u| - common) + (|v| - common)
    gp_negative = (row[:, None] + row[None, :] - 2.0 * common) / sample_size
    np.fill_diagonal(gp_positive, 1.0)
    np.fill_diagonal(gp_negative, 0.0)
    return reach, gp_positive, gp_negative


def label_pairs(
    gp_positive: np.ndarray,
    gp_negative: np.ndarray,
    *,
    seed: SeedLike = None,
) -> np.ndarray:
    """Apply clustering Rules 1-3 to every pair (Algorithm 1 lines 12-21).

    Returns a symmetric ``int8`` matrix with 1 = grouped, 0 = split. The
    randomized Rule 3 draws one uniform variate per unordered pair, so the
    result is symmetric and reproducible under a fixed seed.
    """
    if gp_positive.shape != gp_negative.shape or gp_positive.ndim != 2:
        raise ConfigurationError("GP matrices must be square and congruent")
    rng = coerce_rng(seed)
    n = gp_positive.shape[0]
    gp_unknown = 1.0 - gp_positive - gp_negative
    # Rule 1: clearly in. Rule 2: clearly out - applied after Rule 1, so a
    # tie (GP+ == GP-, both >= GP*) resolves to split. Rule 3 is disjoint
    # from both (it requires GP+ < GP*, Rule 1 requires GP+ >= GP*; at
    # GP+ == GP- Rule 2 would require GP- >= GP* which contradicts Rule 3).
    rule1 = (gp_positive >= gp_negative) & (gp_positive >= gp_unknown)
    rule2 = (gp_negative >= gp_positive) & (gp_negative >= gp_unknown)
    rule3 = (gp_positive >= gp_negative) & (gp_positive < gp_unknown)
    denominator = 1.0 - gp_negative
    probability = np.divide(
        gp_positive,
        np.where(denominator > 0.0, denominator, 1.0),
        out=np.zeros_like(gp_positive),
        where=denominator > 0.0,
    )
    # One uniform draw per unordered pair, mirrored for symmetry.
    draws = rng.random((n, n))
    upper = np.triu(draws, 1)
    draws = upper + upper.T
    grouped = (rule1 & ~rule2) | (rule3 & (draws <= probability))
    labels = grouped.astype(np.int8)
    labels = np.maximum(labels, labels.T)  # defensive: keep symmetric
    np.fill_diagonal(labels, 1)
    return labels
