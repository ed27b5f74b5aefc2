"""End-to-end instrumentation tests: engine, build stats, disabled path."""

import pytest

from repro.core import PITEngine
from repro.core.propagation import PropagationIndex
from repro.datasets import data_2k
from repro.graph import preferential_attachment_graph
from repro.obs.registry import MetricsRegistry, null_registry

THETA = 0.01


@pytest.fixture(scope="module")
def bundle():
    return data_2k(seed=17, n_nodes=300, with_corpus=False)


def _engine(bundle, metrics):
    return PITEngine.from_dataset(
        bundle, summarizer="lrw", samples_per_node=5, seed=17, metrics=metrics
    ).serving()


REQUESTS = [(3, "phone"), (11, "camera phone"), (3, "phone"), (40, "laptop")]


class TestDisabledPathIsIdentical:
    def test_null_registry_search_output_byte_identical(self, bundle):
        instrumented = _engine(bundle, MetricsRegistry())
        disabled = _engine(bundle, null_registry())
        for user, query in REQUESTS:
            got, got_stats = instrumented.search(user, query, k=5,
                                                 with_stats=True)
            want, want_stats = disabled.search(user, query, k=5,
                                               with_stats=True)
            assert [
                (r.topic_id, r.label, r.influence) for r in got
            ] == [
                (r.topic_id, r.label, r.influence) for r in want
            ]
            assert got_stats == want_stats

    def test_null_registry_records_nothing_through_the_engine(self, bundle):
        engine = _engine(bundle, null_registry())
        engine.search(3, "phone", k=5)
        assert len(null_registry()) == 0


class TestEngineSnapshot:
    def test_search_counters_and_latency_histogram(self, bundle):
        registry = MetricsRegistry()
        engine = _engine(bundle, registry)
        for user, query in REQUESTS:
            engine.search(user, query, k=5)
        snapshot = engine.metrics_snapshot()
        assert snapshot.counter("search.requests") == len(REQUESTS)
        latency = snapshot.histogram("search.latency_seconds")
        assert latency.count == len(REQUESTS)
        assert latency.p50 is not None and latency.sum > 0.0
        assert snapshot.counter("search.topics_considered") > 0
        assert snapshot.counter("summaries.built") > 0
        assert snapshot.histogram(
            "phase.summarize.lrw.repnodes.seconds"
        ).count > 0

    def test_snapshot_publishes_cache_and_size_gauges(self, bundle):
        registry = MetricsRegistry()
        engine = _engine(bundle, registry)
        engine.search(3, "phone", k=5)
        engine.search(3, "phone", k=5)  # warm hit for the ratio
        snapshot = engine.metrics_snapshot()
        for name in (
            "cache.tier.plans.hit_ratio",
            "cache.tier.plans.bytes",
            "propagation.entries_cached",
            "propagation.index_bytes",
            "summaries.cached",
            "engine.memory_bytes",
        ):
            assert name in snapshot.gauges, name
        assert 0.0 <= snapshot.gauge("cache.tier.plans.hit_ratio") <= 1.0
        assert snapshot.gauge("summaries.cached") == engine.n_summaries

    def test_batch_counts_every_request(self, bundle):
        registry = MetricsRegistry()
        engine = _engine(bundle, registry)
        engine.search_batch(REQUESTS, k=5)
        assert registry.counter_value("search.requests") == len(REQUESTS)

    def test_set_metrics_reroutes_everything(self, bundle):
        engine = _engine(bundle, MetricsRegistry())
        engine.search(3, "phone", k=5)
        rerouted = MetricsRegistry()
        engine.set_metrics(rerouted)
        engine.search(3, "phone", k=5)
        assert rerouted.counter_value("search.requests") == 1


class TestBuildStatsAreDeltaViews:
    def test_stats_match_registry_counters(self):
        graph = preferential_attachment_graph(60, 3, seed=5)
        registry = MetricsRegistry()
        index = PropagationIndex(graph, THETA, metrics=registry)
        index.build_all(workers=1)
        stats = index.last_build_stats
        snapshot = registry.snapshot()
        assert stats.n_built == graph.n_nodes
        assert stats.n_built == snapshot.counter("propagation.entries_built")
        assert stats.total_branches == snapshot.counter("propagation.branches")
        assert stats.total_members == snapshot.counter("propagation.members")
        phase = snapshot.histogram("phase.propagation.build_all.seconds")
        assert stats.wall_seconds == phase.sum
        entry_bytes = snapshot.histogram("propagation.entry_bytes")
        assert stats.peak_entry_bytes == int(entry_bytes.max)
        assert entry_bytes.count == graph.n_nodes

    def test_shared_registry_accumulates_but_stats_stay_per_call(self):
        graph = preferential_attachment_graph(60, 3, seed=5)
        registry = MetricsRegistry()
        PropagationIndex(graph, THETA, metrics=registry).build_all(workers=1)
        second = PropagationIndex(graph, THETA, metrics=registry)
        second.build_all(workers=1)
        # The registry is cumulative across both builds...
        assert registry.counter_value(
            "propagation.entries_built"
        ) == 2 * graph.n_nodes
        # ...while the per-call stats are a delta view of the second only.
        assert second.last_build_stats.n_built == graph.n_nodes

    def test_null_registry_build_still_yields_stats(self):
        graph = preferential_attachment_graph(60, 3, seed=5)
        index = PropagationIndex(graph, THETA, metrics=null_registry())
        index.build_all(workers=1)
        assert index.last_build_stats.n_built == graph.n_nodes
        assert index.last_build_stats.wall_seconds >= 0.0
        assert len(null_registry()) == 0
