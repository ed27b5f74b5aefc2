"""Unit tests for the PITEngine facade."""

import pytest

from repro.core import PITEngine, Summarizer, TopicSummary
from repro.datasets import data_2k
from repro.exceptions import ConfigurationError
from repro.graph import GraphBuilder
from repro.topics import TopicIndex


@pytest.fixture(scope="module")
def bundle():
    return data_2k(seed=17, n_nodes=300, with_corpus=False)


@pytest.fixture()
def engine(bundle):
    return PITEngine.from_dataset(
        bundle, summarizer="lrw", samples_per_node=5, seed=17
    )


class TestConstruction:
    def test_node_count_mismatch_rejected(self):
        builder = GraphBuilder(4)
        builder.add_edge(0, 1, 0.5)
        graph = builder.build()
        index = TopicIndex(9, {0: ["t"]})
        with pytest.raises(ConfigurationError):
            PITEngine(graph, index)

    def test_unknown_summarizer_rejected(self, bundle):
        engine = PITEngine.from_dataset(bundle, summarizer="nope")
        with pytest.raises(ConfigurationError):
            _ = engine.summarizer

    def test_custom_summarizer_instance(self, bundle):
        class Fixed(Summarizer):
            name = "fixed"

            def summarize(self, topic_id):
                return TopicSummary(topic_id, {0: 1.0})

        engine = PITEngine.from_dataset(bundle, summarizer=Fixed())
        assert engine.summary(0).weights == {0: 1.0}


class TestLazyBuild:
    def test_walk_index_lazy(self, engine):
        assert engine._walk_index is None
        _ = engine.walk_index
        assert engine._walk_index is not None
        assert engine.walk_index is engine._walk_index

    def test_summary_cached(self, engine):
        first = engine.summary(0)
        assert engine.summary(0) is first
        assert engine.n_summaries == 1

    def test_build_warms_selected_topics(self, engine):
        engine.build(topics=[0, 1, 2])
        assert engine.n_summaries == 3

    def test_summary_accepts_labels(self, engine, bundle):
        label = bundle.topic_index.labels[0]
        summary = engine.summary(bundle.topic_index.resolve(label))
        assert summary.topic_id == 0


class TestSearch:
    def test_search_returns_ranked_results(self, engine):
        results = engine.serving().search(3, "phone", k=4)
        assert len(results) <= 4
        influences = [r.influence for r in results]
        assert influences == sorted(influences, reverse=True)

    def test_with_stats(self, engine):
        results, stats = engine.serving().search(
            3, "phone", k=2, with_stats=True
        )
        assert stats.topics_considered >= len(results)

    def test_unknown_query_empty(self, engine):
        assert engine.serving().search(3, "zzzqqq xyzzy", k=3) == []

    def test_deterministic_across_instances(self, bundle):
        a = PITEngine.from_dataset(
            bundle, summarizer="lrw", samples_per_node=5, seed=99
        ).serving().search(5, "music", k=3)
        b = PITEngine.from_dataset(
            bundle, summarizer="lrw", samples_per_node=5, seed=99
        ).serving().search(5, "music", k=3)
        assert [(r.topic_id, r.influence) for r in a] == [
            (r.topic_id, r.influence) for r in b
        ]

    def test_rcl_engine_runs(self, bundle):
        engine = PITEngine.from_dataset(
            bundle, summarizer="rcl", samples_per_node=5, seed=17
        )
        results = engine.serving().search(3, "music", k=2)
        assert len(results) <= 2


class TestBatchServing:
    def test_search_batch_matches_single(self, engine):
        serving = engine.serving()
        requests = [(3, "phone"), (5, "music"), (3, "phone")]
        batched = serving.search_batch(requests, k=3)
        assert len(batched) == 3
        for (user, query), results in zip(requests, batched):
            single = serving.search(user, query, k=3)
            assert [(r.topic_id, r.influence) for r in results] == [
                (r.topic_id, r.influence) for r in single
            ]

    def test_search_batch_with_stats(self, engine):
        outcomes = engine.serving().search_batch(
            [(3, "phone")], k=2, with_stats=True
        )
        results, stats = outcomes[0]
        assert stats.topics_considered >= len(results)

    def test_cache_stats_empty_without_budgets(self, engine):
        assert list(engine.serving().tier_stats()) == ["plans"]

    def test_cache_stats_with_budgets(self, engine):
        serving = engine.serving(answer_cache_bytes=1 << 20)
        serving.search(3, "phone", k=2)
        tiers = serving.tier_stats()
        assert list(tiers) == ["answers", "plans"]
        assert [s.name for s in tiers.values()] == list(tiers)

    def test_serving_over_prebuilt_index(self, engine, bundle):
        from repro.core import PropagationIndex

        own = engine.propagation_index
        fresh = PropagationIndex(bundle.graph, 0.001)
        serving = engine.serving(fresh)
        assert serving.propagation_index is fresh
        assert serving.theta == 0.001
        assert isinstance(serving.search(3, "phone", k=2), list)
        assert engine.propagation_index is own
        assert engine.serving().propagation_index is own

    def test_serving_refuses_foreign_index(self, engine):
        from repro.core import PropagationIndex

        other = GraphBuilder(engine.graph.n_nodes).build()
        with pytest.raises(ConfigurationError):
            engine.serving(PropagationIndex(other, 0.002))


class TestMemory:
    def test_memory_grows_with_use(self, engine):
        serving = engine.serving()
        before = serving.memory_bytes()
        serving.search(3, "phone", k=2)
        assert serving.memory_bytes() > before

    def test_memory_counts_summary_array_forms(self, engine):
        engine.serving().search(3, "phone", k=2)
        accounted = sum(
            s.memory_bytes() for s in engine._summaries.values()
        )
        hand_counted = sum(
            16 * len(s.weights)
            + (
                s.arrays().memory_bytes()
                if s.__dict__.get("_array_form") is not None
                else 0
            )
            for s in engine._summaries.values()
        )
        assert accounted == hand_counted

    def test_bounded_caches_not_double_counted(self, bundle):
        plain = PITEngine.from_dataset(
            bundle, summarizer="lrw", samples_per_node=5, seed=17
        ).serving()
        cached = PITEngine.from_dataset(
            bundle, summarizer="lrw", samples_per_node=5, seed=17
        ).serving(answer_cache_bytes=64 << 20)
        plain.search(3, "phone", k=2)
        cached.search(3, "phone", k=2)
        # The cached engine may only differ by the bounded answer cache,
        # never by re-counting the summaries' arrays.
        answer_bytes = cached.tier_stats()["answers"].current_bytes
        assert answer_bytes > 0
        assert cached.memory_bytes() - answer_bytes <= plain.memory_bytes()

    def test_walk_index_not_counted(self, engine):
        serving = engine.serving()
        before = serving.memory_bytes()
        assert engine.walk_index.memory_bytes() > 0
        assert serving.memory_bytes() == before
