"""Integration test: engine maintenance under a simulated activity stream."""

import pytest

from repro.core import PITEngine, apply_topic_update
from repro.datasets import ActivityStream, data_2k


@pytest.fixture(scope="module")
def bundle():
    return data_2k(seed=71, n_nodes=300, with_corpus=False)


class TestStreamMaintenance:
    def test_engine_survives_three_epochs(self, bundle):
        engine = PITEngine.from_dataset(
            bundle, summarizer="lrw", samples_per_node=5, seed=71
        )
        baseline = engine.serving().search(5, "phone", k=3)
        assert baseline

        stream = ActivityStream(
            bundle.graph,
            bundle.topic_index,
            adoption_rate=0.3,
            churn_rate=0.05,
            max_changes_per_epoch=50,
            seed=72,
        )
        for update in stream.epochs(3):
            stats = apply_topic_update(engine, update)
            assert stats["topics"] == engine.topic_index.n_topics
            results = engine.serving().search(5, "phone", k=3)
            scores = [r.influence for r in results]
            assert scores == sorted(scores, reverse=True)

        # The engine's final state matches the stream's materialized view.
        materialized = stream.current_index()
        assert engine.topic_index.labels == materialized.labels

    def test_summary_cache_mostly_survives_small_updates(self, bundle):
        engine = PITEngine.from_dataset(
            bundle, summarizer="lrw", samples_per_node=5, seed=73
        )
        # Warm all phone summaries.
        for topic in bundle.topic_index.related_topics("phone"):
            engine.summary(topic)
        warmed = engine.n_summaries
        stream = ActivityStream(
            bundle.graph,
            bundle.topic_index,
            adoption_rate=0.01,
            churn_rate=0.001,
            max_changes_per_epoch=3,
            seed=74,
        )
        stats = apply_topic_update(engine, stream.next_epoch())
        # A <=3-change epoch can touch at most 3 topics' member sets.
        assert stats["kept"] >= warmed - 3
