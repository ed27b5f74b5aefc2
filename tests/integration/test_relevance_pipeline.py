"""Integration tests for the relevance / hybrid ranking extensions."""

import pytest

from repro.baselines import HybridRanker, RelevanceOnlyRanker
from repro.core import PITEngine
from repro.datasets import data_2k


@pytest.fixture(scope="module")
def bundle():
    return data_2k(seed=55, n_nodes=400, with_corpus=False)


@pytest.fixture(scope="module")
def engine(bundle):
    return PITEngine.from_dataset(
        bundle, summarizer="lrw", samples_per_node=8, seed=55
    ).serving()


class TestPersonalizationGap:
    def test_relevance_identical_across_users_influence_not(self, bundle, engine):
        relevance = RelevanceOnlyRanker(bundle.graph, bundle.topic_index)
        users = [3, 57, 201]
        relevance_rankings = {
            u: [r.topic_id for r in relevance.search(u, "phone", 5)]
            for u in users
        }
        assert len({tuple(v) for v in relevance_rankings.values()}) == 1
        influence_rankings = {
            u: [r.topic_id for r in engine.search(u, "phone", 5)]
            for u in users
        }
        # Personalization: at least two users see different rankings.
        assert len({tuple(v) for v in influence_rankings.values()}) >= 2

    def test_hybrid_interpolates(self, bundle, engine):
        relevance = RelevanceOnlyRanker(bundle.graph, bundle.topic_index)
        pure_relevance = [
            r.topic_id for r in relevance.search(3, "phone", 5)
        ]
        pure_influence = [
            r.topic_id for r in engine.search(3, "phone", 5)
        ]
        low = HybridRanker(bundle.topic_index, engine.search,
                           influence_weight=0.0)
        high = HybridRanker(bundle.topic_index, engine.search,
                            influence_weight=1.0)
        assert [r.topic_id for r in low.search(3, "phone", 5)] == pure_relevance
        # Weight 1 ranks purely by (normalized) influence; topics with
        # equal influence may tie-break differently than the engine's own
        # heap, so compare the score-bearing prefix.
        high_ids = [r.topic_id for r in high.search(3, "phone", 5)]
        nonzero = [
            r.topic_id for r in engine.search(3, "phone", 5)
            if r.influence > 0
        ]
        assert high_ids[: len(nonzero)] == nonzero[: len(high_ids)] or set(
            high_ids
        ) & set(pure_influence)

    def test_hybrid_scores_bounded(self, bundle, engine):
        hybrid = HybridRanker(bundle.topic_index, engine.search,
                              influence_weight=0.5)
        for result in hybrid.search(3, "phone", 10):
            assert 0.0 <= result.influence <= 1.0 + 1e-9
