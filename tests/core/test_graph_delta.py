"""Unit tests for streaming graph deltas (the vectorized dynamics path).

Covers the full incremental pipeline: :class:`GraphDelta` batch
validation, the CSR splice in :func:`apply_delta_to_graph` (checked
bit-for-bit against a from-scratch :class:`SocialGraph` over the edited
edge list), the two-tier :func:`affected_nodes` closure, engine-level
:func:`apply_graph_delta` parity with a fresh rebuild, and the
:meth:`ServingEngine.apply_delta` answer-tier invalidation contract -
after a delta, every answer the engine serves (cached or recomputed)
must be bit-exact against a from-scratch oracle, for both the in-memory
and sharded index backends.
"""

import numpy as np
import pytest

from repro.core import (
    GraphDelta,
    PITEngine,
    PropagationIndex,
    ServingEngine,
    affected_nodes,
    apply_delta_to_graph,
    apply_graph_delta,
    load_sharded_index,
    save_sharded_index,
)
from repro.datasets import data_2k
from repro.exceptions import ConfigurationError, EdgeError, NodeNotFoundError
from repro.graph import (
    SocialGraph,
    preferential_attachment_graph,
    theta_forward_closure,
)
from repro.obs import MetricsRegistry
from repro.topics import TopicIndex


def edge_dict(graph):
    sources, targets, probs = graph.edge_arrays()
    return {
        (int(s), int(t)): float(p)
        for s, t, p in zip(sources, targets, probs)
    }


def graphs_identical(a, b):
    """Both CSR faces bit-equal (the splice must match from_arrays)."""
    return (
        a.n_nodes == b.n_nodes
        and np.array_equal(a._out_indptr, b._out_indptr)
        and np.array_equal(a._out_targets, b._out_targets)
        and np.array_equal(a._out_probs, b._out_probs)
        and np.array_equal(a._in_indptr, b._in_indptr)
        and np.array_equal(a._in_sources, b._in_sources)
        and np.array_equal(a._in_probs, b._in_probs)
    )


def entries_identical(a, b):
    return (
        np.array_equal(a.sources, b.sources)
        and np.array_equal(a.probabilities, b.probabilities)
        and np.array_equal(a.marked_array, b.marked_array)
    )


@pytest.fixture
def pa_graph():
    return preferential_attachment_graph(40, 3, seed=2)


class TestGraphDelta:
    def test_convenience_constructors(self):
        assert GraphDelta.inserting((0, 1, 0.5)).inserts == ((0, 1, 0.5),)
        assert GraphDelta.deleting((2, 3)).deletes == ((2, 3),)
        assert GraphDelta.reweighting((4, 5, 0.1)).reweights == ((4, 5, 0.1),)
        aging = GraphDelta.aging(0.9, floor=0.01)
        assert aging.decay == 0.9
        assert aging.decay_floor == 0.01

    def test_is_empty(self):
        assert GraphDelta().is_empty
        assert not GraphDelta.inserting((0, 1, 0.5)).is_empty
        assert not GraphDelta.aging(0.99).is_empty

    def test_n_edits_excludes_decay(self):
        delta = GraphDelta(
            inserts=((0, 1, 0.5),),
            deletes=((2, 3), (4, 5)),
            reweights=((6, 7, 0.2),),
            decay=0.9,
        )
        assert delta.n_edits == 4

    def test_merged_with_concatenates(self):
        merged = GraphDelta.inserting((0, 1, 0.5)).merged_with(
            GraphDelta.deleting((2, 3)).merged_with(
                GraphDelta.aging(0.5, floor=0.1)
            )
        )
        assert merged.inserts == ((0, 1, 0.5),)
        assert merged.deletes == ((2, 3),)
        assert merged.decay == 0.5
        assert merged.decay_floor == 0.1

    def test_merging_two_aging_deltas_rejected(self):
        with pytest.raises(ConfigurationError, match="two aging"):
            GraphDelta.aging(0.9).merged_with(GraphDelta.aging(0.8))

    @pytest.mark.parametrize("decay", [0.0, -0.5, 1.5])
    def test_bad_decay_rejected(self, decay):
        with pytest.raises(ConfigurationError, match="decay"):
            GraphDelta(decay=decay)

    @pytest.mark.parametrize("floor", [-0.1, 1.0, 2.0])
    def test_bad_decay_floor_rejected(self, floor):
        with pytest.raises(ConfigurationError, match="decay_floor"):
            GraphDelta(decay_floor=floor)


class TestApplyDeltaToGraph:
    def test_matches_from_scratch_graph(self, pa_graph):
        edges = edge_dict(pa_graph)
        existing = sorted(edges)
        (ds, dt), (rs, rt) = existing[3], existing[10]
        iv, it = next(
            (s, t)
            for s in range(pa_graph.n_nodes)
            for t in range(pa_graph.n_nodes)
            if s != t and (s, t) not in edges
        )
        delta = GraphDelta(
            inserts=((iv, it, 0.375),),
            deletes=(((ds, dt)),),
            reweights=((rs, rt, 0.625),),
        )
        new_graph, application = apply_delta_to_graph(pa_graph, delta)

        expected = dict(edges)
        del expected[(ds, dt)]
        expected[(rs, rt)] = 0.625
        expected[(iv, it)] = 0.375
        scratch = SocialGraph(
            pa_graph.n_nodes,
            [(s, t, p) for (s, t), p in expected.items()],
        )
        assert graphs_identical(new_graph, scratch)
        assert application.n_inserted == 1
        assert application.n_deleted == 1
        assert application.n_reweighted == 1
        assert not application.full

    def test_original_graph_untouched(self, pa_graph):
        before = edge_dict(pa_graph)
        (s, t) = next(iter(before))
        apply_delta_to_graph(pa_graph, GraphDelta.deleting((s, t)))
        assert edge_dict(pa_graph) == before

    def test_seeds_are_sorted_unique_targets(self, pa_graph):
        edges = sorted(edge_dict(pa_graph))
        (ds, dt), (rs, rt) = edges[0], edges[5]
        _, application = apply_delta_to_graph(
            pa_graph,
            GraphDelta(deletes=((ds, dt),), reweights=((rs, rt, 0.5),)),
        )
        assert application.seeds.tolist() == sorted({dt, rt})

    def test_removed_holds_deleted_edges(self, pa_graph):
        edges = sorted(edge_dict(pa_graph))
        (ds, dt) = edges[7]
        _, application = apply_delta_to_graph(
            pa_graph, GraphDelta.deleting((ds, dt))
        )
        removed_src, removed_tgt = application.removed
        assert removed_src.tolist() == [ds]
        assert removed_tgt.tolist() == [dt]

    def test_decay_ages_edges_below_floor(self, chain_graph):
        # 0.5 * 0.5 = 0.25 < 0.3: every chain edge ages out.
        delta = GraphDelta.aging(0.5, floor=0.3)
        new_graph, application = apply_delta_to_graph(chain_graph, delta)
        assert application.full
        assert application.n_aged == 4
        assert new_graph.n_edges == 0

    def test_decay_multiplies_surviving_probs(self, chain_graph):
        new_graph, application = apply_delta_to_graph(
            chain_graph, GraphDelta.aging(0.5)
        )
        assert application.n_aged == 0
        assert all(
            p == pytest.approx(0.25) for p in edge_dict(new_graph).values()
        )

    def test_decay_matches_scratch_graph(self, pa_graph):
        delta = GraphDelta.aging(0.25, floor=0.05)
        new_graph, _ = apply_delta_to_graph(pa_graph, delta)
        survivors = [
            (s, t, p * 0.25)
            for (s, t), p in edge_dict(pa_graph).items()
            if p * 0.25 >= 0.05
        ]
        scratch = SocialGraph(pa_graph.n_nodes, survivors)
        assert graphs_identical(new_graph, scratch)

    def test_delete_missing_edge_rejected(self, chain_graph):
        with pytest.raises(ConfigurationError, match="no such edge"):
            apply_delta_to_graph(chain_graph, GraphDelta.deleting((0, 4)))

    def test_reweight_missing_edge_rejected(self, chain_graph):
        with pytest.raises(ConfigurationError, match="no such edge"):
            apply_delta_to_graph(
                chain_graph, GraphDelta.reweighting((4, 0, 0.5))
            )

    def test_insert_existing_edge_rejected(self, chain_graph):
        with pytest.raises(ConfigurationError, match="already exists"):
            apply_delta_to_graph(
                chain_graph, GraphDelta.inserting((0, 1, 0.5))
            )

    def test_duplicate_edge_in_batch_rejected(self, chain_graph):
        delta = GraphDelta(
            deletes=((0, 1),), reweights=((0, 1, 0.9),)
        )
        with pytest.raises(ConfigurationError, match="more than once"):
            apply_delta_to_graph(chain_graph, delta)

    @pytest.mark.parametrize("prob", [0.0, -0.5, 1.5, float("nan")])
    def test_bad_insert_probability_rejected(self, chain_graph, prob):
        with pytest.raises(EdgeError, match="probabilities"):
            apply_delta_to_graph(
                chain_graph, GraphDelta.inserting((4, 0, prob))
            )

    def test_bad_reweight_probability_rejected(self, chain_graph):
        with pytest.raises(EdgeError, match="probabilities"):
            apply_delta_to_graph(
                chain_graph, GraphDelta.reweighting((0, 1, 2.0))
            )

    def test_nan_reweight_probability_rejected(self, chain_graph):
        with pytest.raises(EdgeError, match="probabilities"):
            apply_delta_to_graph(
                chain_graph, GraphDelta.reweighting((0, 1, float("nan")))
            )

    def test_self_loop_insert_rejected(self, chain_graph):
        with pytest.raises(EdgeError, match="self-loop"):
            apply_delta_to_graph(
                chain_graph, GraphDelta.inserting((2, 2, 0.5))
            )

    def test_out_of_range_node_rejected(self, chain_graph):
        with pytest.raises(NodeNotFoundError):
            apply_delta_to_graph(
                chain_graph, GraphDelta.inserting((0, 99, 0.5))
            )


class TestAffectedNodes:
    def test_decay_affects_every_node(self, chain_graph):
        new_graph, application = apply_delta_to_graph(
            chain_graph, GraphDelta.aging(0.5)
        )
        affected = affected_nodes(chain_graph, new_graph, application)
        assert affected.tolist() == list(range(5))

    def test_empty_delta_affects_nothing(self, chain_graph):
        new_graph, application = apply_delta_to_graph(
            chain_graph, GraphDelta()
        )
        assert affected_nodes(chain_graph, new_graph, application).size == 0

    def test_downstream_of_deleted_edge(self, chain_graph):
        # Deleting 2 -> 3 can only change entries downstream of node 3.
        new_graph, application = apply_delta_to_graph(
            chain_graph, GraphDelta.deleting((2, 3))
        )
        affected = affected_nodes(chain_graph, new_graph, application)
        assert affected.tolist() == [3, 4]

    def test_insert_closes_over_new_graph(self, chain_graph):
        # Inserting 4 -> 0 makes the chain a cycle: everything downstream
        # of node 0 in the *new* graph is affected.
        new_graph, application = apply_delta_to_graph(
            chain_graph, GraphDelta.inserting((4, 0, 0.5))
        )
        affected = affected_nodes(chain_graph, new_graph, application)
        assert affected.tolist() == [0, 1, 2, 3, 4]

    def test_delete_closes_over_old_graph(self, chain_graph):
        # Deleting 0 -> 1: node 1 no longer reaches anything through the
        # removed edge in the new graph, but its old-graph downstream
        # entries (2, 3, 4) all saw paths through the edge and must be
        # affected; the union topology covers them.
        new_graph, application = apply_delta_to_graph(
            chain_graph, GraphDelta.deleting((0, 1))
        )
        affected = affected_nodes(chain_graph, new_graph, application)
        assert affected.tolist() == [1, 2, 3, 4]

    def test_theta_bounds_the_closure(self, chain_graph):
        # Reweighting 0 -> 1 seeds at node 1 with product 1; the walk to
        # node 3 has product 0.25 < 0.3 and falls outside the horizon.
        new_graph, application = apply_delta_to_graph(
            chain_graph, GraphDelta.reweighting((0, 1, 0.9))
        )
        plain = affected_nodes(chain_graph, new_graph, application)
        bounded = affected_nodes(
            chain_graph, new_graph, application, theta=0.3
        )
        assert plain.tolist() == [1, 2, 3, 4]
        assert bounded.tolist() == [1, 2]
        assert np.all(np.isin(bounded, plain))

    def test_theta_closure_subset_on_random_graph(self, pa_graph):
        edges = sorted(edge_dict(pa_graph))
        delta = GraphDelta.reweighting((*edges[4], 0.5))
        new_graph, application = apply_delta_to_graph(pa_graph, delta)
        plain = affected_nodes(pa_graph, new_graph, application)
        bounded = affected_nodes(
            pa_graph, new_graph, application, theta=0.2
        )
        assert np.all(np.isin(bounded, plain))


class TestApplyGraphDelta:
    @pytest.fixture
    def engine(self):
        graph = preferential_attachment_graph(60, 3, seed=4)
        topic_index = TopicIndex(
            60,
            {
                0: ["alpha topic"],
                1: ["alpha topic", "beta topic"],
                2: ["beta topic"],
                3: ["gamma topic"],
            },
        )
        return PITEngine(
            graph, topic_index, summarizer="lrw",
            samples_per_node=5, seed=4, theta=0.01,
        )

    def test_index_parity_with_fresh_rebuild(self, engine):
        old_index = engine.propagation_index
        old_index.build_all(workers=1)
        edges = sorted(edge_dict(engine.graph))
        delta = GraphDelta(
            deletes=(edges[2],),
            reweights=((*edges[9], 0.75),),
        )
        report = apply_graph_delta(engine, delta)
        fresh = PropagationIndex(
            engine.graph,
            old_index.theta,
            max_branches=old_index.max_branches,
            strict=old_index.strict,
        )
        for node in range(engine.graph.n_nodes):
            assert entries_identical(
                engine.propagation_index.entry(node), fresh.entry(node)
            )
        assert report["deleted"] == 1
        assert report["reweighted"] == 1
        assert report["affected"] >= 1
        assert report["reachable"] >= report["affected"]

    def test_walk_index_dropped_and_search_works(self, engine):
        _ = engine.walk_index
        edges = sorted(edge_dict(engine.graph))
        apply_graph_delta(engine, GraphDelta.deleting(edges[0]))
        assert engine._walk_index is None
        results = engine.serving().search(0, "topic", k=2)
        assert isinstance(results, list)

    def test_delta_core_shared_with_serving_engine(self, engine):
        # Both engines run one delta core: same splice, same Γ refresh,
        # same shared report fields.
        engine.propagation_index.build_all(workers=1)
        serving = engine.serving()
        edges = sorted(edge_dict(engine.graph))
        delta = GraphDelta(
            inserts=((0, 59, 0.3),) if (0, 59) not in edges else (),
            deletes=(edges[2],),
            reweights=((*edges[9], 0.75),),
        )
        built = apply_graph_delta(engine, delta)
        served = serving.apply_delta(delta)
        assert graphs_identical(engine.graph, serving.graph)
        for node in range(engine.graph.n_nodes):
            assert entries_identical(
                engine.propagation_index.entry(node),
                serving.propagation_index.entry(node),
            )
        shared = (
            "inserted", "deleted", "reweighted", "aged_out", "affected",
            "reachable", "entries_rebuilt", "entries_copied",
        )
        assert {key: built[key] for key in shared} == {
            key: served[key] for key in shared
        }

    def test_mapped_gamma_refreshes_shards(self, engine, tmp_path):
        # A builder serving Γ from mapped shards takes the dirty-shard
        # rewrite instead of refusing the delta.
        engine.propagation_index.build_all(workers=1)
        save_sharded_index(
            engine.propagation_index, tmp_path / "shards", shard_nodes=16
        )
        engine.propagation_index = load_sharded_index(
            tmp_path / "shards", engine.graph, cache_bytes=1 << 20
        )
        edges = sorted(edge_dict(engine.graph))
        report = apply_graph_delta(
            engine, GraphDelta.reweighting((*edges[9], 0.75))
        )
        assert report["shards_rewritten"] >= 1
        assert engine.propagation_index.shards is not None
        fresh = PropagationIndex(engine.graph, engine.propagation_index.theta)
        for node in range(engine.graph.n_nodes):
            assert entries_identical(
                engine.propagation_index.entry(node), fresh.entry(node)
            )

    def test_summaries_outside_reachable_region_kept(self):
        # Two disjoint chains; a delta on the right chain cannot touch
        # the left topic's members or representatives.
        graph = SocialGraph(
            6, [(0, 1, 0.5), (1, 2, 0.5), (3, 4, 0.5), (4, 5, 0.5)]
        )
        topic_index = TopicIndex(
            6, {0: ["left topic"], 1: ["left topic"],
                4: ["right topic"], 5: ["right topic"]}
        )
        engine = PITEngine(
            graph, topic_index, summarizer="lrw",
            samples_per_node=5, seed=1, theta=0.01,
        )
        left = engine.topic_index.resolve("left topic")
        right = engine.topic_index.resolve("right topic")
        left_summary = engine.summary(left)
        engine.summary(right)
        report = apply_graph_delta(
            engine, GraphDelta.reweighting((3, 4, 0.9))
        )
        assert report["summaries_kept"] == 1
        assert report["summaries_repaired"] == 1
        assert engine.summaries[left] is left_summary
        assert right not in engine.summaries


class TestServingDeltaContract:
    """After a streamed delta, the serving engine must never serve a
    stale answer: every response - surviving cached answers included -
    must be bit-exact against a from-scratch engine over the new graph
    (same summaries, per the graceful-staleness contract).
    """

    TERMS = ("phone", "camera", "music", "laptop", "tv")

    def _build(self, seed, n_nodes):
        bundle = data_2k(seed=seed, n_nodes=n_nodes, with_corpus=False)
        # theta=0.02 keeps the theta-affected set local, so the sharded
        # arm genuinely exercises the carried-shard fast path.
        engine = PITEngine.from_dataset(
            bundle, summarizer="rcl", seed=seed, theta=0.02
        )
        engine.propagation_index.build_all(workers=1)
        engine.build_summaries()
        return bundle, engine

    def _delta_for(self, graph, seed):
        edges = sorted(edge_dict(graph))
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(edges), size=2, replace=False)
        (ds, dt), (rs, rt) = edges[picks[0]], edges[picks[1]]
        existing = set(edges)
        iv, it = next(
            (s, t)
            for s in range(graph.n_nodes)
            for t in range(graph.n_nodes)
            if s != t and (s, t) not in existing and (s, t) != (ds, dt)
        )
        return GraphDelta(
            inserts=((iv, it, 0.35),),
            deletes=((ds, dt),),
            reweights=((rs, rt, 0.45),),
        )

    def _check_contract(self, serving, registry, bundle, engine, delta):
        rng = np.random.default_rng(bundle.graph.n_nodes)
        requests = sorted(
            {
                (int(rng.integers(bundle.graph.n_nodes)), term)
                for term in self.TERMS
                for _ in range(3)
            }
        )
        warmed = {
            req: serving.search(req[0], req[1], k=5, with_stats=True)
            for req in requests
        }
        report = serving.apply_delta(delta)
        assert report["answers_invalidated"] <= len(requests)

        oracle = ServingEngine(
            serving.graph,
            bundle.topic_index,
            engine.summaries,
            theta=engine.propagation_index.theta,
        )
        hits_before = (
            registry.snapshot().counters.get("cache.tier.answers.hits", 0)
        )
        moved = 0
        for req in requests:
            got = serving.search(req[0], req[1], k=5, with_stats=True)
            want = oracle.search(req[0], req[1], k=5, with_stats=True)
            assert got == want, f"stale or wrong answer for {req}"
            if got != warmed[req]:
                moved += 1
        hits_after = (
            registry.snapshot().counters.get("cache.tier.answers.hits", 0)
        )
        # Surgical invalidation: exactly the surviving answers hit the
        # answer tier on replay; every answer that moved was evicted.
        survivors = len(requests) - report["answers_invalidated"]
        assert hits_after - hits_before == survivors
        assert moved <= report["answers_invalidated"]
        return report

    @pytest.mark.parametrize("seed,n_nodes", [(7, 140), (1234, 120)])
    def test_memory_backend_never_stale(self, seed, n_nodes):
        bundle, engine = self._build(seed, n_nodes)
        registry = MetricsRegistry()
        serving = ServingEngine(
            bundle.graph,
            bundle.topic_index,
            engine.summaries,
            engine.propagation_index,
            theta=engine.propagation_index.theta,
            answer_cache_bytes=1 << 20,
            metrics=registry,
        )
        delta = self._delta_for(bundle.graph, seed)
        self._check_contract(serving, registry, bundle, engine, delta)

    def test_sharded_backend_never_stale(self, tmp_path):
        bundle, engine = self._build(7, 140)
        save_sharded_index(
            engine.propagation_index, tmp_path / "shards", shard_nodes=16
        )
        index = load_sharded_index(
            tmp_path / "shards", bundle.graph, cache_bytes=1 << 20
        )
        registry = MetricsRegistry()
        serving = ServingEngine(
            bundle.graph,
            bundle.topic_index,
            engine.summaries,
            index,
            theta=index.theta,
            answer_cache_bytes=1 << 20,
            metrics=registry,
        )
        # A single peripheral reweight: its theta-closure stays local,
        # so the refresh genuinely carries clean shards over.
        theta = index.theta
        graph = bundle.graph
        edges = sorted(edge_dict(graph))
        target = min(
            {t for _, t in edges},
            key=lambda t: theta_forward_closure(graph, [t], theta).size,
        )
        rs, rt = next((s, t) for s, t in edges if t == target)
        delta = GraphDelta.reweighting((rs, rt, 0.45))
        report = self._check_contract(
            serving, registry, bundle, engine, delta
        )
        # The refresh rewrote only the dirty shards.
        assert report["shards_rewritten"] >= 1
        assert report["shards_carried"] >= 1
