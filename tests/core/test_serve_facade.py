"""ServingEngine: a builder's ``serving()`` engine must match one opened
from the saved artifacts bit for bit."""

import pytest

from repro.core import (
    PITEngine,
    ServingEngine,
    save_sharded_index,
    save_summaries,
)
from repro.datasets import data_2k
from repro.exceptions import ArtifactCorruptedError, ConfigurationError
from repro.obs import MetricsRegistry


@pytest.fixture(scope="module")
def built():
    """A fully built PITEngine over a small bundle (shared, read-only)."""
    bundle = data_2k(seed=7, n_nodes=130, with_corpus=False)
    engine = PITEngine.from_dataset(bundle, summarizer="rcl", seed=7)
    engine.propagation_index.build_all(workers=1)
    engine.build_summaries()
    return bundle, engine


QUERIES = [(3, "phone"), (11, "camera"), (40, "phone"), (3, "music")]

#: Serving configurations compared: default tiers, and answer + plan tiers.
TIERS = ({}, {"answer_cache_bytes": 1 << 20, "plan_cache_bytes": 1 << 16})


@pytest.fixture(scope="module")
def saved(built, tmp_path_factory):
    """The built engine's summaries and Γ shards on disk."""
    bundle, engine = built
    directory = tmp_path_factory.mktemp("artifacts")
    save_sharded_index(engine.propagation_index, directory / "prop")
    save_summaries(engine.summaries, bundle.graph, directory / "sums.json")
    return directory / "prop", directory / "sums.json"


def loaded(bundle, saved, **tiers):
    index_dir, sums_path = saved
    return ServingEngine.from_artifacts(
        bundle.graph, bundle.topic_index, sums_path, index_dir=index_dir,
        **tiers,
    )


def work(stats):
    """The five deterministic work counters of a search."""
    return (
        stats.topics_considered,
        stats.topics_pruned,
        stats.entries_probed,
        stats.expansion_rounds,
        stats.representatives_touched,
    )


class TestParity:
    def test_search_matches_pitengine(self, built, saved):
        bundle, engine = built
        for tiers in TIERS:
            serving = engine.serving(**tiers)
            expected = loaded(bundle, saved, **tiers)
            for _ in range(2):  # the second pass hits any answer tier
                for user, query in QUERIES:
                    got = serving.search(user, query, k=5, with_stats=True)
                    want = expected.search(user, query, k=5, with_stats=True)
                    assert got[0] == want[0]
                    assert [r.influence for r in got[0]] == [
                        r.influence for r in want[0]
                    ]
                    assert work(got[1]) == work(want[1])

    def test_search_batch_matches_pitengine(self, built, saved):
        bundle, engine = built
        for tiers in TIERS:
            serving = engine.serving(**tiers)
            expected = loaded(bundle, saved, **tiers)
            for _ in range(2):
                got = serving.search_batch(QUERIES, k=4, with_stats=True)
                want = expected.search_batch(QUERIES, k=4, with_stats=True)
                assert [results for results, _ in got] == [
                    results for results, _ in want
                ]
                assert [work(stats) for _, stats in got] == [
                    work(stats) for _, stats in want
                ]

    def test_lazy_propagation_matches_prebuilt(self, built):
        # No prebuilt index: the facade materializes entries at theta
        # on demand, and the numbers must still agree exactly.
        bundle, engine = built
        serving = ServingEngine(
            bundle.graph, bundle.topic_index, engine.summaries,
            theta=engine.propagation_index.theta,
        )
        user, query = QUERIES[0]
        assert serving.search(user, query, k=5) == engine.serving().search(
            user, query, k=5
        )

    def test_serving_summarizes_query_topics_only(self, built):
        # A builder's serving engine keeps its summaries lazy: a search
        # summarizes exactly the query's related topics, nothing else.
        bundle, _ = built
        engine = PITEngine.from_dataset(bundle, summarizer="rcl", seed=7)
        serving = engine.serving()
        user, query = QUERIES[0]
        related = set(bundle.topic_index.related_topics(query))
        serving.search(user, query, k=5)
        assert set(engine.summaries) == related
        assert serving.n_summaries == len(related)


class TestFromArtifacts:
    def test_round_trip_through_disk(self, built, tmp_path):
        bundle, engine = built
        index_dir = tmp_path / "prop"
        sums_path = tmp_path / "sums.json"
        save_sharded_index(engine.propagation_index, index_dir)
        save_summaries(engine.summaries, bundle.graph, sums_path)
        serving = ServingEngine.from_artifacts(
            bundle.graph, bundle.topic_index, sums_path,
            index_dir=index_dir,
        )
        assert serving.n_summaries == engine.n_summaries
        assert serving.theta == engine.propagation_index.theta
        user, query = QUERIES[1]
        assert serving.search(user, query, k=5) == engine.serving().search(
            user, query, k=5
        )

    def test_npz_file_as_index_dir_refused(self, built, tmp_path):
        # Γ has one on-disk format; a single-file index is refused with
        # the typed shard-manifest error, not read some other way.
        bundle, engine = built
        sums_path = tmp_path / "sums.json"
        save_summaries(engine.summaries, bundle.graph, sums_path)
        stale = tmp_path / "prop.npz"
        stale.write_bytes(b"PK\x03\x04 not a shard directory")
        with pytest.raises(ArtifactCorruptedError, match="manifest"):
            ServingEngine.from_artifacts(
                bundle.graph, bundle.topic_index, sums_path,
                index_dir=stale,
            )

    def test_wrong_graph_rejected(self, built, saved):
        index_dir, sums_path = saved
        other = data_2k(seed=8, n_nodes=130, with_corpus=False)
        # The summaries' graph signature is checked first.
        with pytest.raises(
            ConfigurationError, match="sums.json: artifact was built for"
        ):
            ServingEngine.from_artifacts(
                other.graph, other.topic_index, sums_path,
                index_dir=index_dir,
            )

    def test_index_dir_is_required(self, built, saved):
        bundle, _ = built
        _, sums_path = saved
        with pytest.raises(TypeError, match="index_dir"):
            ServingEngine.from_artifacts(
                bundle.graph, bundle.topic_index, sums_path,
            )

    def test_theta_defaults_to_the_index(self, built, saved):
        bundle, engine = built
        theta = engine.propagation_index.theta
        assert loaded(bundle, saved).theta == theta
        assert loaded(bundle, saved, theta=theta).theta == theta

    def test_disagreeing_theta_refused(self, built, saved):
        bundle, engine = built
        theta = engine.propagation_index.theta
        with pytest.raises(ConfigurationError) as excinfo:
            loaded(bundle, saved, theta=theta * 5)
        message = str(excinfo.value)
        assert f"theta={theta * 5}" in message
        assert f"theta={theta}" in message


class TestValidation:
    def test_node_count_mismatch_rejected(self, built):
        bundle, engine = built
        other = data_2k(seed=7, n_nodes=90, with_corpus=False)
        with pytest.raises(ConfigurationError, match="nodes"):
            ServingEngine(
                other.graph, bundle.topic_index, engine.summaries,
            )

    def test_foreign_propagation_index_rejected(self, built):
        bundle, engine = built
        other = data_2k(seed=7, n_nodes=90, with_corpus=False)
        other_engine = PITEngine.from_dataset(other, summarizer="rcl", seed=7)
        with pytest.raises(ConfigurationError, match="propagation index"):
            ServingEngine(
                bundle.graph, bundle.topic_index, engine.summaries,
                other_engine.propagation_index,
            )


class TestMetrics:
    def test_snapshot_publishes_engine_gauges(self, built):
        bundle, engine = built
        registry = MetricsRegistry()
        serving = ServingEngine(
            bundle.graph, bundle.topic_index, engine.summaries,
            engine.propagation_index, metrics=registry,
        )
        serving.search(3, "phone", k=3)
        snapshot = serving.metrics_snapshot()
        assert snapshot.gauges["summaries.cached"] == serving.n_summaries
        assert snapshot.gauges["engine.memory_bytes"] > 0
        assert "propagation.entries_cached" in snapshot.gauges

    def test_memory_bytes_positive(self, built):
        bundle, engine = built
        serving = ServingEngine(
            bundle.graph, bundle.topic_index, engine.summaries,
            engine.propagation_index,
        )
        assert serving.memory_bytes() > 0


class TestInvalidateAnswers:
    """The PR 8 invalidation seam: per-user vs. full, bytes, warm load."""

    K = 4

    def _serving(self, built, **kwargs):
        bundle, engine = built
        return ServingEngine(
            bundle.graph, bundle.topic_index, engine.summaries,
            engine.propagation_index,
            answer_cache_bytes=1 << 20, **kwargs,
        )

    def _fill(self, serving):
        """Cache one answer per QUERIES entry; returns the user set."""
        for user, query in QUERIES:
            serving.search(user, query, k=self.K)
        return {user for user, _ in QUERIES}

    def test_disabled_answer_tier_is_a_noop(self, built):
        bundle, engine = built
        serving = ServingEngine(
            bundle.graph, bundle.topic_index, engine.summaries,
            engine.propagation_index,
        )
        assert serving.invalidate_answers() == 0
        assert serving.invalidate_answers(users=[3]) == 0

    def test_full_invalidation_clears_everything(self, built):
        serving = self._serving(built)
        self._fill(serving)
        resident = serving.tier_stats()["answers"].n_items
        assert resident == len(QUERIES)
        assert serving.invalidate_answers() == resident
        stats = serving.tier_stats()["answers"]
        assert stats.n_items == 0
        assert serving.invalidate_answers() == 0  # already empty

    def test_per_user_invalidation_is_surgical(self, built):
        serving = self._serving(built)
        self._fill(serving)
        # User 3 cached two answers (phone, music); user 11 and 40 one.
        removed = serving.invalidate_answers(users=[3])
        assert removed == 2
        assert serving.tier_stats()["answers"].n_items == len(QUERIES) - 2

        # The survivors still hit; user 3's queries miss and recompute.
        before = serving.tier_stats()["answers"]
        serving.search(11, "camera", k=self.K)
        serving.search(40, "phone", k=self.K)
        mid = serving.tier_stats()["answers"]
        assert mid.hits == before.hits + 2
        assert mid.misses == before.misses
        serving.search(3, "phone", k=self.K)
        after = serving.tier_stats()["answers"]
        assert after.misses == mid.misses + 1

    def test_unknown_user_invalidates_nothing(self, built):
        serving = self._serving(built)
        self._fill(serving)
        assert serving.invalidate_answers(users=[10_000]) == 0
        assert serving.tier_stats()["answers"].n_items == len(QUERIES)

    def test_byte_accounting_tracks_invalidation(self, built):
        serving = self._serving(built)
        self._fill(serving)
        full = serving.tier_stats()["answers"]
        assert full.current_bytes > 0

        serving.invalidate_answers(users=[3])
        partial = serving.tier_stats()["answers"]
        assert 0 < partial.current_bytes < full.current_bytes

        serving.invalidate_answers()
        empty = serving.tier_stats()["answers"]
        assert empty.current_bytes == 0
        assert empty.n_items == 0

        # Recomputing after a full clear restores the exact footprint:
        # invalidation never leaks byte accounting.
        self._fill(serving)
        again = serving.tier_stats()["answers"]
        assert again.current_bytes == full.current_bytes
        assert again.n_items == full.n_items

    def test_invalidation_evicts_warm_precompute_answers(self, built):
        from repro.core.precompute import build_precompute

        trace = [
            {"user": user, "query": query, "k": self.K}
            for user, query in QUERIES
        ] * 3
        donor = self._serving(built)
        artifact = build_precompute(
            donor, trace, top_queries=4, top_answers=8
        )
        assert artifact.answers

        serving = self._serving(built)
        warm = serving.warm_from_precompute(artifact)
        assert warm["answers"] == len(artifact.answers)
        warmed = serving.tier_stats()["answers"]
        assert warmed.n_items == warm["answers"]

        # A warm answer serves without touching the searcher...
        serving.search(3, "phone", k=self.K)
        assert serving.tier_stats()["answers"].hits == warmed.hits + 1

        # ...until its user is invalidated: the warm entries go too.
        removed = serving.invalidate_answers(users=[3])
        assert removed == 2
        stats = serving.tier_stats()["answers"]
        assert stats.n_items == warmed.n_items - 2
        before_misses = stats.misses
        serving.search(3, "phone", k=self.K)
        assert serving.tier_stats()["answers"].misses == before_misses + 1

        # Re-warming after invalidation re-seeds only the still-missing
        # key ((3, "phone") was just recomputed and is resident again).
        again = serving.warm_from_precompute(artifact)
        assert again["answers"] == 1
        assert (
            serving.tier_stats()["answers"].n_items == warmed.n_items
        )
