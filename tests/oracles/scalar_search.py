"""Retained scalar reference for Algorithms 10 & 11 (parity baseline).

This is the pre-vectorization online path, kept verbatim: per-
representative ``Γ(v)`` hash probes, a ``dict(summary.weights)`` working
copy per topic per query, ``heapq.nlargest`` for the k-th bound, and a
full sort for top-k membership. It exists for two reasons:

* the parity test suite (``tests/core/test_search_parity.py``) asserts
  that :class:`~repro.core.search.PersonalizedSearcher` returns identical
  rankings, influences (to 1e-12), and work stats;
* ``benchmarks/bench_online_search.py`` measures the vectorized kernels
  against this exact baseline.

Do not optimize this module - its value is staying the fixed reference
point. It shares :class:`~repro.core.search.SearchResult` and
:class:`~repro.core.search.SearchStats` so outputs are directly
comparable.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Mapping, Set, Tuple, Union

from repro._utils import require_in_range
from repro.exceptions import ConfigurationError
from repro.topics import KeywordQuery, TopicIndex
from repro.core.propagation import PropagationIndex
from repro.core.search import SearchResult, SearchStats
from repro.core.summarization import TopicSummary

__all__ = ["ScalarReferenceSearcher"]

SummaryProvider = Union[Mapping[int, TopicSummary], Callable[[int], TopicSummary]]


class ScalarReferenceSearcher:
    """The pre-vectorization :class:`PersonalizedSearcher`, frozen in time."""

    def __init__(
        self,
        topic_index: TopicIndex,
        summaries: SummaryProvider,
        propagation_index: PropagationIndex,
        *,
        max_expand_rounds: int = 8,
    ):
        require_in_range("max_expand_rounds", max_expand_rounds, 0)
        self._topic_index = topic_index
        self._summaries = summaries
        self._propagation = propagation_index
        self._max_expand_rounds = int(max_expand_rounds)

    # ------------------------------------------------------------------
    def _summary(self, topic_id: int) -> TopicSummary:
        if callable(self._summaries):
            return self._summaries(topic_id)
        try:
            return self._summaries[topic_id]
        except KeyError:
            raise ConfigurationError(
                f"no summary available for topic {topic_id}"
            ) from None

    @staticmethod
    def _kth_best(scores: Dict[int, float], k: int) -> float:
        """``min(T^k)`` - the k-th best current score (or -inf)."""
        if len(scores) < k:
            return float("-inf")
        return heapq.nlargest(k, scores.values())[-1]

    @staticmethod
    def _top_k_ids(scores: Dict[int, float], labels: Dict[int, str], k: int) -> Set[int]:
        ranked = sorted(scores, key=lambda t: (-scores[t], labels[t]))
        return set(ranked[:k])

    # ------------------------------------------------------------------
    def search(
        self,
        user: int,
        query: Union[str, KeywordQuery],
        k: int,
    ) -> Tuple[List[SearchResult], SearchStats]:
        """Top-k most influential q-related topics for *user*."""
        require_in_range("k", k, 1)
        stats = SearchStats()
        topic_ids = self._topic_index.related_topics(query)
        stats.topics_considered = len(topic_ids)
        if not topic_ids:
            return [], stats

        entry_v = self._propagation.entry(user)
        stats.entries_probed += 1
        gamma_v = entry_v.gamma

        labels = {t: self._topic_index.label(t) for t in topic_ids}
        heap: Dict[int, float] = {}
        remaining: Dict[int, Dict[int, float]] = {}
        remaining_weight: Dict[int, float] = {}

        # Algorithm 10 lines 4-13: aggregate in-index representatives.
        for topic_id in topic_ids:
            summary = self._summary(topic_id)
            weights = dict(summary.weights)
            influence = 0.0
            unconsumed = 0.0
            for rep in list(weights):
                stats.representatives_touched += 1
                probability = gamma_v.get(rep)
                if probability is not None:
                    influence += probability * weights.pop(rep)
                else:
                    unconsumed += weights[rep]
            heap[topic_id] = influence
            remaining[topic_id] = weights
            remaining_weight[topic_id] = unconsumed

        # Lines 14-20: initial pruning against the marked-frontier bound.
        frontier: Dict[int, float] = {
            u: gamma_v[u] for u in entry_v.marked
        }
        max_ep = max(frontier.values(), default=0.0)
        active = set(topic_ids)
        self._prune(active, heap, remaining, remaining_weight, max_ep, k, labels, stats)

        # Lines 21-22 + Algorithm 11: expand while an active topic is
        # outside the current top-k.
        expanded: Set[int] = set()
        rounds = 0
        while (
            frontier
            and rounds < self._max_expand_rounds
            and active - self._top_k_ids(heap, labels, k)
        ):
            rounds += 1
            stats.expansion_rounds += 1
            frontier = self._expand_round(
                frontier, expanded, active, heap, remaining, remaining_weight,
                k, labels, stats,
            )

        ranked = sorted(heap, key=lambda t: (-heap[t], labels[t]))[:k]
        results = [
            SearchResult(topic_id=t, label=labels[t], influence=heap[t])
            for t in ranked
        ]
        return results, stats

    # ------------------------------------------------------------------
    def _prune(
        self,
        active: Set[int],
        heap: Dict[int, float],
        remaining: Dict[int, Dict[int, float]],
        remaining_weight: Dict[int, float],
        max_ep: float,
        k: int,
        labels: Dict[int, str],
        stats: SearchStats,
    ) -> None:
        """Remove topics that can no longer change the top-k (lines 17-20)."""
        kth = self._kth_best(heap, k)
        for topic_id in list(active):
            exhausted = not remaining[topic_id]
            upper_bound = heap[topic_id] + remaining_weight[topic_id] * max_ep
            if exhausted or kth >= upper_bound:
                active.discard(topic_id)
                if not exhausted:
                    stats.topics_pruned += 1

    def _expand_round(
        self,
        frontier: Dict[int, float],
        expanded: Set[int],
        active: Set[int],
        heap: Dict[int, float],
        remaining: Dict[int, Dict[int, float]],
        remaining_weight: Dict[int, float],
        k: int,
        labels: Dict[int, str],
        stats: SearchStats,
    ) -> Dict[int, float]:
        """One Expand recursion (Algorithm 11); returns the next frontier."""
        next_frontier: Dict[int, float] = {}
        ordered = sorted(frontier, key=lambda u: (-frontier[u], u))
        for position, node in enumerate(ordered):
            if node in expanded:
                continue
            expanded.add(node)
            weight_to_v = frontier[node]
            entry_u = self._propagation.entry(node)
            stats.entries_probed += 1
            gamma_u = entry_u.gamma
            for topic_id in list(active):
                weights = remaining[topic_id]
                gained = 0.0
                consumed = 0.0
                for rep in list(weights):
                    stats.representatives_touched += 1
                    probability = gamma_u.get(rep)
                    if probability is not None:
                        weight = weights.pop(rep)
                        gained += weight_to_v * probability * weight
                        consumed += weight
                if gained:
                    heap[topic_id] += gained
                    remaining_weight[topic_id] = (
                        remaining_weight[topic_id] - consumed if weights else 0.0
                    )
            for marked in entry_u.marked:
                if marked in expanded:
                    continue
                reach = weight_to_v * gamma_u[marked]
                if reach > next_frontier.get(marked, 0.0):
                    next_frontier[marked] = reach
            pending_max = frontier[ordered[position + 1]] if position + 1 < len(ordered) else 0.0
            round_max_ep = max(pending_max, max(next_frontier.values(), default=0.0))
            self._prune(
                active, heap, remaining, remaining_weight, round_max_ep, k,
                labels, stats,
            )
            if not active - self._top_k_ids(heap, labels, k):
                return next_frontier
        max_ep = max(next_frontier.values(), default=0.0)
        self._prune(active, heap, remaining, remaining_weight, max_ep, k, labels, stats)
        return next_frontier
