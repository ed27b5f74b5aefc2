"""Unit tests for the online serving layer: ByteLRUCache and the
bounded caches / batched execution inside PersonalizedSearcher."""

import pytest

from repro.core import (
    ByteLRUCache,
    PersonalizedSearcher,
    PropagationIndex,
    TopicSummary,
)
from repro.exceptions import ConfigurationError
from repro.graph import GraphBuilder
from repro.topics import TopicIndex


class TestByteLRUCache:
    def test_basic_round_trip(self):
        cache = ByteLRUCache(100)
        assert cache.get("a") is None
        cache.put("a", 1, 10)
        assert cache.get("a") == 1
        assert "a" in cache
        assert len(cache) == 1
        assert cache.memory_bytes() == 10

    def test_byte_budget_evicts_lru(self):
        cache = ByteLRUCache(30)
        cache.put("a", 1, 10)
        cache.put("b", 2, 10)
        cache.put("c", 3, 10)
        cache.get("a")  # bump "a"; "b" is now least recent
        cache.put("d", 4, 10)
        assert "b" not in cache
        assert "a" in cache and "c" in cache and "d" in cache
        assert cache.evictions == 1
        assert cache.memory_bytes() == 30

    def test_oversize_item_not_cached(self):
        cache = ByteLRUCache(20)
        cache.put("a", 1, 10)
        cache.put("big", 2, 21)
        assert "big" not in cache
        assert "a" in cache  # nothing evicted to make room

    def test_reinsert_replaces_charge(self):
        cache = ByteLRUCache(100)
        cache.put("a", 1, 40)
        cache.put("a", 2, 10)
        assert cache.get("a") == 2
        assert cache.memory_bytes() == 10

    def test_counters_and_stats(self):
        cache = ByteLRUCache(100, name="test-cache")
        cache.get("missing")
        cache.put("a", 1, 5)
        cache.get("a")
        stats = cache.stats()
        assert stats.name == "test-cache"
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.n_items == 1
        assert stats.current_bytes == 5
        assert stats.max_bytes == 100
        assert stats.lookups == 2
        assert stats.hit_rate == pytest.approx(0.5)

    def test_clear_keeps_counters(self):
        cache = ByteLRUCache(100)
        cache.put("a", 1, 5)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.memory_bytes() == 0
        assert cache.hits == 1  # cumulative across clears

    def test_budget_validated(self):
        with pytest.raises(ConfigurationError):
            ByteLRUCache(0)


class TestByteLRUCacheEdgeCases:
    """Accounting invariants under re-puts, oversize items, and clears."""

    def test_repeated_reput_never_double_counts(self):
        cache = ByteLRUCache(100)
        for nbytes in (40, 10, 25, 40):
            cache.put("a", nbytes, nbytes)
        assert cache.memory_bytes() == 40
        assert len(cache) == 1
        # A growing re-put must evict against the *replaced* charge, not
        # the stale one: 40 (a) + 50 (b) fits in 100 only because a's old
        # charge was released first.
        cache.put("b", 2, 50)
        assert cache.memory_bytes() == 90
        assert cache.evictions == 0

    def test_reput_larger_than_budget_drops_the_key(self):
        cache = ByteLRUCache(20)
        cache.put("a", 1, 10)
        cache.put("a", 2, 21)  # oversize replacement is rejected...
        assert "a" not in cache  # ...and the stale value must not linger
        assert cache.memory_bytes() == 0
        # The cache is not wedged: normal inserts still work.
        cache.put("b", 3, 10)
        assert cache.get("b") == 3
        assert cache.memory_bytes() == 10

    def test_oversize_item_evicts_nothing_and_never_wedges(self):
        cache = ByteLRUCache(30)
        cache.put("a", 1, 10)
        cache.put("b", 2, 10)
        for _ in range(3):
            cache.put("huge", object(), 31)
        assert "huge" not in cache
        assert "a" in cache and "b" in cache
        assert cache.evictions == 0
        assert cache.memory_bytes() == 20

    def test_eviction_order_follows_get_refresh(self):
        cache = ByteLRUCache(30)
        cache.put("a", 1, 10)
        cache.put("b", 2, 10)
        cache.put("c", 3, 10)
        cache.get("a")
        cache.get("b")  # recency is now c < a < b
        cache.put("d", 4, 20)  # needs 20 bytes: evicts c, then a
        assert "c" not in cache and "a" not in cache
        assert "b" in cache and "d" in cache
        assert cache.evictions == 2
        assert cache.memory_bytes() == 30

    def test_stats_deltas_stay_consistent_across_clear(self):
        cache = ByteLRUCache(100, name="delta-check")
        cache.put("a", 1, 5)
        cache.get("a")
        cache.get("gone")
        before = cache.stats()
        cache.clear()
        cleared = cache.stats()
        # Point-in-time fields reset; cumulative counters survive.
        assert cleared.n_items == 0 and cleared.current_bytes == 0
        assert cleared.hits == before.hits
        assert cleared.misses == before.misses
        assert cleared.evictions == before.evictions
        # New activity produces exactly the expected counter deltas.
        cache.get("a")  # miss: the payload is gone
        cache.put("a", 2, 7)
        cache.get("a")  # hit
        after = cache.stats()
        assert after.hits - cleared.hits == 1
        assert after.misses - cleared.misses == 1
        assert after.n_items == 1 and after.current_bytes == 7
        assert after.lookups == after.hits + after.misses
        assert after.hit_rate == pytest.approx(after.hits / after.lookups)


class TestOnEvict:
    """The eviction callback: fires only for byte-budget LRU evictions."""

    def test_fires_in_lru_order_with_key_and_value(self):
        evicted = []
        cache = ByteLRUCache(30, on_evict=lambda k, v: evicted.append((k, v)))
        cache.put("a", 1, 10)
        cache.put("b", 2, 10)
        cache.put("c", 3, 10)
        cache.get("a")  # recency: b < c < a
        cache.put("d", 4, 20)  # needs 20 bytes: evicts b, then c
        assert evicted == [("b", 2), ("c", 3)]
        assert "a" in cache and "d" in cache
        assert cache.evictions == 2

    def test_clear_does_not_fire(self):
        evicted = []
        cache = ByteLRUCache(30, on_evict=lambda k, v: evicted.append(k))
        cache.put("a", 1, 10)
        cache.put("b", 2, 10)
        cache.clear()
        assert evicted == []
        assert len(cache) == 0

    def test_reput_does_not_fire(self):
        # Replacing a key's value is not an eviction - the key is still
        # resident; demoting it (the answer tier's use) would be wrong.
        evicted = []
        cache = ByteLRUCache(100, on_evict=lambda k, v: evicted.append(k))
        cache.put("a", 1, 40)
        cache.put("a", 2, 10)
        assert evicted == []
        assert cache.get("a") == 2

    def test_oversize_rejection_does_not_fire(self):
        # An item too big to ever fit was never admitted, so nothing was
        # evicted for it - and resident entries must not be disturbed.
        evicted = []
        cache = ByteLRUCache(20, on_evict=lambda k, v: evicted.append(k))
        cache.put("a", 1, 10)
        cache.put("big", 2, 21)
        assert evicted == []
        assert "a" in cache

    def test_pop_does_not_fire(self):
        # pop() is the explicit-removal path (invalidation, demotion
        # bookkeeping); only *budget pressure* means demotion.
        evicted = []
        cache = ByteLRUCache(30, on_evict=lambda k, v: evicted.append(k))
        cache.put("a", 1, 10)
        assert cache.pop("a") == 1
        assert evicted == []
        assert cache.memory_bytes() == 0

    def test_callback_runs_after_removal_and_may_reput(self):
        # The answer tier's demotion hook re-puts state into another
        # cache; re-putting into the *same* cache mid-eviction must not
        # corrupt accounting either.
        resurrections = []

        def resurrect(key, value):
            assert key not in cache  # removal happened first
            resurrections.append(key)
            if len(resurrections) == 1:
                cache.put(f"{key}-demoted", value, 5)

        cache = ByteLRUCache(30, on_evict=resurrect)
        cache.put("a", 1, 10)
        cache.put("b", 2, 10)
        cache.put("c", 3, 10)
        cache.put("d", 4, 15)  # evicts a (re-put a-demoted@5), then b
        assert resurrections == ["a", "b"]
        assert "a-demoted" in cache
        assert "d" in cache
        assert cache.memory_bytes() <= 30

    def test_clear_then_reput_round_trip(self):
        evicted = []
        cache = ByteLRUCache(30, on_evict=lambda k, v: evicted.append(k))
        cache.put("a", 1, 10)
        cache.clear()
        cache.put("a", 2, 10)
        cache.put("b", 3, 10)
        cache.put("c", 4, 10)
        cache.put("d", 5, 10)  # budget pressure again: "a" goes
        assert evicted == ["a"]
        assert cache.get("a") is None


@pytest.fixture
def stack():
    """The small deterministic chain used by the search unit tests."""
    builder = GraphBuilder(5)
    builder.add_edges([
        (1, 0, 0.5),
        (2, 0, 0.3),
        (3, 1, 0.4),
        (4, 2, 0.4),
    ])
    graph = builder.build()
    topic_index = TopicIndex(
        5,
        {
            1: ["alpha topic"],
            2: ["beta topic"],
            3: ["gamma topic"],
            4: ["delta topic"],
        },
    )
    summaries = {
        t: TopicSummary(t, {node: 1.0})
        for node, t in (
            (1, topic_index.resolve("alpha topic")),
            (2, topic_index.resolve("beta topic")),
            (3, topic_index.resolve("gamma topic")),
            (4, topic_index.resolve("delta topic")),
        )
    }
    propagation = PropagationIndex(graph, 0.05)
    return topic_index, summaries, propagation


class TestBoundedSearcherCaches:
    def test_cache_stats_disabled_by_default(self, stack):
        searcher = PersonalizedSearcher(*stack)
        assert list(searcher.tier_stats()) == ["plans"]

    def test_cache_memory_accounted(self, stack):
        searcher = PersonalizedSearcher(*stack)
        searcher.search(0, "topic", k=4)
        assert searcher.tier_stats()["plans"].n_items == 1
        assert searcher.cache_memory_bytes() > 0

    def test_set_propagation_index_drops_gamma_caches(self, stack):
        searcher = PersonalizedSearcher(*stack)
        results_before, _ = searcher.search(0, "topic", k=4)
        # An empty graph kills every influence path; any Γ data kept
        # from the old index would keep the old scores alive.
        empty = GraphBuilder(5).build()
        searcher.set_propagation_index(PropagationIndex(empty, 0.05))
        results_after, _ = searcher.search(0, "topic", k=4)
        assert all(r.influence == 0.0 for r in results_after)
        assert any(r.influence > 0.0 for r in results_before)


class TestSearchMany:
    def test_results_align_with_input_order(self, stack):
        searcher = PersonalizedSearcher(*stack)
        requests = [(0, "topic"), (1, "alpha"), (0, "topic"), (2, "beta")]
        outcomes = searcher.search_many(requests, k=4)
        assert len(outcomes) == 4
        for (user, query), outcome in zip(requests, outcomes):
            single_results, _ = searcher.search(user, query, 4)
            assert [(r.topic_id, r.influence) for r in outcome[0]] == [
                (r.topic_id, r.influence) for r in single_results
            ]

    def test_duplicate_queries_share_summary_lookups(self, stack):
        topic_index, summaries, propagation = stack
        lookups = []

        def provider(topic_id):
            lookups.append(topic_id)
            return summaries[topic_id]

        searcher = PersonalizedSearcher(topic_index, provider, propagation)
        searcher.search_many([(0, "topic"), (1, "topic"), (2, "topic")], k=4)
        # The plan compiles once for the group: one summary lookup per
        # q-related topic, however many users ask.
        assert sorted(lookups) == sorted(summaries)
        plans = searcher.tier_stats()["plans"]
        assert (plans.misses, plans.n_items) == (1, 1)

    def test_k_validated(self, stack):
        searcher = PersonalizedSearcher(*stack)
        with pytest.raises(ConfigurationError):
            searcher.search_many([(0, "topic")], k=0)

    def test_empty_request_list(self, stack):
        searcher = PersonalizedSearcher(*stack)
        assert searcher.search_many([], k=3) == []


class TestPlanTierCharge:
    """The plan tier charges each plan its arrays, fixed at compile."""

    REQUESTS = [
        (user, query) for query in ("topic", "alpha") for user in range(5)
    ]

    @staticmethod
    def _live(searcher):
        return sum(plan.memory_bytes() for plan in searcher._plans.values())

    def test_charge_equals_live_after_batch(self, stack):
        searcher = PersonalizedSearcher(*stack)
        plan = searcher.plan_for("topic")
        compiled = plan.memory_bytes()
        assert searcher.tier_stats()["plans"].current_bytes == compiled
        searcher.search_many(self.REQUESTS, k=2)
        # Serving every user leaves the plan's size where compile put it.
        assert plan.memory_bytes() == compiled
        plans = searcher.tier_stats()["plans"]
        assert plans.n_items == 2
        assert plans.current_bytes == self._live(searcher)
        assert plans.current_bytes == (
            compiled + searcher.plan_for("alpha").memory_bytes()
        )

    def test_budget_bounds_live_bytes(self, stack):
        roomy = PersonalizedSearcher(*stack)
        want = roomy.search_many(self.REQUESTS, k=2)
        budget = self._live(roomy) - 1
        tight = PersonalizedSearcher(*stack, plan_cache_bytes=budget)
        assert tight.search_many(self.REQUESTS, k=2) == want
        resident = self._live(tight)
        assert resident <= budget
        assert tight.tier_stats()["plans"].current_bytes == resident
