"""Relevance-only topic ranking - the paper's introductory comparator.

"The most widely-accepted method is to select the relevant topics based on
the term relevance between topics and the query" (paper §1). This ranker
ignores the social network entirely: every user gets the same TF-IDF
ranking for the same query. It exists to quantify the personalization gap -
how differently PIT-Search answers compare to a one-size-fits-all keyword
search - and as the non-social arm of the hybrid ranker.

:class:`HybridRanker` combines relevance with personalized influence
(``score = relevance^(1-w) * influence^w``), the natural "personalized
keyword search" extension the paper's related-work section gestures at.
"""

from __future__ import annotations

from typing import Callable, List, Union

from .._utils import require_in_range, require_probability
from ..core.search import SearchResult
from ..exceptions import ConfigurationError
from ..graph import SocialGraph
from ..topics import KeywordQuery, TopicIndex
from ..topics.relevance import TfIdfScorer
from .base import BaselineRanker

__all__ = ["RelevanceOnlyRanker", "HybridRanker"]


class RelevanceOnlyRanker(BaselineRanker):
    """Non-personalized TF-IDF ranking of q-related topics."""

    name = "relevance"

    def __init__(self, graph: SocialGraph, topic_index: TopicIndex):
        super().__init__(graph, topic_index)
        self._scorer = TfIdfScorer(topic_index)

    def topic_influence(self, topic_id: int, user: int) -> float:
        """The TF-IDF score of the active query; user-independent.

        The template's per-topic hook has no query access, so
        :meth:`search` is overridden instead; this method exists only to
        satisfy the interface and scores a topic against its own label
        (always 1.0 for a non-empty label).
        """
        return 1.0

    def search(
        self,
        user: int,
        query: Union[str, KeywordQuery],
        k: int = 10,
    ) -> List[SearchResult]:
        """TF-IDF top-k among the q-related topics (same for every user)."""
        require_in_range("k", k, 1)
        self._graph._check_node(user)
        related = set(self._topic_index.related_topics(query))
        ranked = [
            SearchResult(
                topic_id=topic_id,
                label=self._topic_index.label(topic_id),
                influence=score,
            )
            for topic_id, score in self._scorer.rank(query, self._topic_index.n_topics)
            if topic_id in related
        ]
        return ranked[:k]


class HybridRanker:
    """Geometric blend of term relevance and personalized influence.

    Parameters
    ----------
    topic_index:
        The topic space.
    influence_search:
        Any ``search(user, query, k) -> [SearchResult]`` callable (a
        :class:`~repro.core.serve_facade.ServingEngine`'s ``search`` or a
        baseline's).
    influence_weight:
        ``w`` in ``relevance^(1-w) * influence^w``; 0 = pure keyword
        search, 1 = pure PIT-Search.
    """

    name = "hybrid"

    def __init__(
        self,
        topic_index: TopicIndex,
        influence_search: Callable[..., List[SearchResult]],
        *,
        influence_weight: float = 0.5,
    ):
        require_probability("influence_weight", influence_weight)
        self._topic_index = topic_index
        self._influence_search = influence_search
        self._weight = float(influence_weight)
        self._scorer = TfIdfScorer(topic_index)

    def search(
        self,
        user: int,
        query: Union[str, KeywordQuery],
        k: int = 10,
    ) -> List[SearchResult]:
        """Top-k q-related topics by blended score."""
        require_in_range("k", k, 1)
        related = self._topic_index.related_topics(query)
        if not related:
            return []
        # Influence over the full candidate set, then blend.
        influence_results = self._influence_search(user, query, len(related))
        influence = {r.topic_id: r.influence for r in influence_results}
        max_influence = max(influence.values(), default=0.0)
        blended = []
        for topic_id in related:
            relevance = self._scorer.score(query, topic_id)
            social = influence.get(topic_id, 0.0)
            social = social / max_influence if max_influence > 0 else 0.0
            score = (relevance ** (1.0 - self._weight)) * (social ** self._weight)
            blended.append(
                SearchResult(
                    topic_id=topic_id,
                    label=self._topic_index.label(topic_id),
                    influence=score,
                )
            )
        blended.sort(key=lambda r: (-r.influence, r.label))
        return blended[:k]
