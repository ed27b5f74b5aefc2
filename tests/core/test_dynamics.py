"""Unit tests for dynamic maintenance (paper §4.4)."""

import pytest

from repro.core import (
    PITEngine,
    ServingEngine,
    TopicUpdate,
    apply_topic_update,
    refresh_walk_index,
    updated_topic_index,
)
from repro.datasets import data_2k, generate_workload
from repro.exceptions import ConfigurationError
from repro.graph import preferential_attachment_graph
from repro.topics import TopicIndex


@pytest.fixture
def graph():
    return preferential_attachment_graph(60, 3, seed=4)


@pytest.fixture
def topic_index():
    return TopicIndex(
        60,
        {
            0: ["alpha topic"],
            1: ["alpha topic", "beta topic"],
            2: ["beta topic"],
            3: ["gamma topic"],
        },
    )


@pytest.fixture
def engine(graph, topic_index):
    return PITEngine(
        graph, topic_index, summarizer="lrw", samples_per_node=5, seed=4
    )


class TestTopicUpdate:
    def test_builders(self):
        update = TopicUpdate.adding(5, "x topic").merged_with(
            TopicUpdate.removing(6, "y topic")
        )
        assert update.add == {5: ("x topic",)}
        assert update.remove == {6: ("y topic",)}

    def test_merge_concatenates(self):
        a = TopicUpdate.adding(5, "x topic")
        b = TopicUpdate.adding(5, "y topic")
        assert a.merged_with(b).add[5] == ("x topic", "y topic")

    def test_merge_dedups_added_labels(self):
        a = TopicUpdate.adding(5, "x topic", "y topic")
        b = TopicUpdate.adding(5, "x topic", "z topic")
        # First-seen order, each label once.
        assert a.merged_with(b).add[5] == ("x topic", "y topic", "z topic")

    def test_merge_dedups_removed_labels(self):
        a = TopicUpdate.removing(3, "x topic")
        b = TopicUpdate.removing(3, "x topic", "y topic")
        assert a.merged_with(b).remove[3] == ("x topic", "y topic")

    def test_merge_dedups_labels_within_one_side(self):
        a = TopicUpdate.adding(2, "x topic", "x topic", "y topic")
        merged = a.merged_with(TopicUpdate())
        assert merged.add[2] == ("x topic", "y topic")


class TestUpdatedTopicIndex:
    def test_addition_grows_membership(self, topic_index):
        update = TopicUpdate.adding(5, "alpha topic")
        new = updated_topic_index(topic_index, update)
        assert 5 in new.topic_nodes("alpha topic").tolist()

    def test_removal_shrinks_membership(self, topic_index):
        update = TopicUpdate.removing(1, "beta topic")
        new = updated_topic_index(topic_index, update)
        assert 1 not in new.topic_nodes("beta topic").tolist()

    def test_new_topic_created(self, topic_index):
        update = TopicUpdate.adding(5, "delta topic")
        new = updated_topic_index(topic_index, update)
        assert "delta topic" in new

    def test_topic_vanishes_with_last_member(self, topic_index):
        update = TopicUpdate.removing(3, "gamma topic")
        new = updated_topic_index(topic_index, update)
        assert "gamma topic" not in new

    def test_removing_absent_label_rejected(self, topic_index):
        update = TopicUpdate.removing(0, "beta topic")
        with pytest.raises(ConfigurationError, match="does not carry"):
            updated_topic_index(topic_index, update)

    def test_out_of_range_node_rejected(self, topic_index):
        with pytest.raises(ConfigurationError):
            updated_topic_index(topic_index, TopicUpdate.adding(99, "x"))

    def test_duplicate_addition_idempotent(self, topic_index):
        update = TopicUpdate.adding(0, "alpha topic")
        new = updated_topic_index(topic_index, update)
        assert new.topic_nodes("alpha topic").tolist() == \
            topic_index.topic_nodes("alpha topic").tolist()


class TestApplyToEngine:
    def test_unchanged_summaries_kept(self, engine):
        engine.summary(engine.topic_index.resolve("alpha topic"))
        engine.summary(engine.topic_index.resolve("gamma topic"))
        stats = apply_topic_update(
            engine, TopicUpdate.adding(5, "beta topic")
        )
        # alpha and gamma memberships unchanged -> summaries survive.
        assert stats["kept"] == 2
        assert stats["invalidated"] == 0

    def test_changed_summary_invalidated(self, engine):
        engine.summary(engine.topic_index.resolve("beta topic"))
        stats = apply_topic_update(
            engine, TopicUpdate.adding(5, "beta topic")
        )
        assert stats["invalidated"] == 1

    def test_search_works_after_update(self, engine):
        before = engine.serving().search(0, "topic", k=2)
        apply_topic_update(engine, TopicUpdate.adding(5, "delta topic"))
        after = engine.serving().search(0, "topic", k=2)
        assert isinstance(after, list)
        assert engine.topic_index.n_topics == 4

    def test_rekeyed_summary_matches_new_ids(self, engine):
        alpha_old = engine.topic_index.resolve("alpha topic")
        engine.summary(alpha_old)
        apply_topic_update(engine, TopicUpdate.adding(7, "aaaa topic"))
        alpha_new = engine.topic_index.resolve("alpha topic")
        assert alpha_new != alpha_old  # "aaaa" sorts first, ids shift
        cached = engine._summaries[alpha_new]
        assert cached.topic_id == alpha_new


class TestReplaceTopicIndex:
    def test_node_count_mismatch_rejected(self, engine):
        with pytest.raises(ConfigurationError, match="nodes"):
            engine.replace_topic_index(TopicIndex(61, {0: ["x topic"]}))

    def test_miskeyed_summary_rejected(self, engine):
        alpha = engine.topic_index.resolve("alpha topic")
        summary = engine.summary(alpha)
        new_index = TopicIndex(60, {0: ["alpha topic"], 5: ["zz topic"]})
        with pytest.raises(ConfigurationError, match="re-key"):
            engine.replace_topic_index(new_index, {alpha + 1: summary})

    def test_kept_summaries_survive_swap(self, engine):
        alpha = engine.topic_index.resolve("alpha topic")
        summary = engine.summary(alpha)
        new_index = TopicIndex(
            60, {0: ["alpha topic"], 1: ["alpha topic"], 5: ["zz topic"]}
        )
        new_alpha = new_index.resolve("alpha topic")
        engine.replace_topic_index(
            new_index, {new_alpha: summary.with_topic_id(new_alpha)}
        )
        assert engine.topic_index is new_index
        assert engine.summaries[new_alpha].topic_id == new_alpha

    def test_unlisted_summaries_dropped(self, engine):
        engine.summary(engine.topic_index.resolve("alpha topic"))
        engine.replace_topic_index(TopicIndex(60, {0: ["solo topic"]}))
        assert engine.n_summaries == 0


class TestRefreshWalkIndex:
    def test_everything_derived_resets(self, engine):
        _ = engine.walk_index
        engine.summary(0)
        refresh_walk_index(engine)
        assert engine._walk_index is None
        assert engine.n_summaries == 0
        # And it rebuilds on demand.
        assert engine.walk_index.is_built

    def test_serving_answers_follow_rebuilt_summaries(self):
        # Answers served after a refresh come from the rebuilt walk
        # index's summaries, never from plans compiled before it.
        bundle = data_2k(seed=5, n_nodes=300, with_corpus=False)
        engine = PITEngine.from_dataset(bundle, summarizer="lrw", seed=5)
        pairs = list(
            generate_workload(bundle, n_queries=8, n_users=6, seed=5).pairs()
        )
        before = engine.serving().search_batch(pairs, k=5)
        refresh_walk_index(engine)
        served = engine.serving().search_batch(pairs, k=5)
        fresh = ServingEngine(
            bundle.graph,
            bundle.topic_index,
            engine.build().summaries,
            engine.propagation_index,
        ).search_batch(pairs, k=5)
        assert served == fresh
        assert served != before
