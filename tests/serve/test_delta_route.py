"""Live-daemon tests for ``POST /admin/delta``.

The answer-tier invalidation contract, exercised end to end over real
sockets: a delta streamed into a serving daemon must leave every
subsequent response - answer-tier hits included - bit-exact against a
from-scratch :class:`ServingEngine` oracle built over the edited graph
(same summaries, per the graceful-staleness contract).
"""

import numpy as np
import pytest

from repro.core import ServingEngine, affected_nodes, apply_delta_to_graph
from repro.core.dynamics import GraphDelta
from repro.obs import MetricsRegistry


def existing_edges(graph):
    sources, targets, probs = graph.edge_arrays()
    return [
        (int(s), int(t), float(p))
        for s, t, p in zip(sources, targets, probs)
    ]


class TestDeltaRoute:
    def test_applied_report(self, make_daemon):
        daemon = make_daemon()
        s, t, p = existing_edges(daemon.server.engines.current.graph)[0]
        status, body, _ = daemon.request(
            "POST", "/admin/delta",
            {"reweights": [[s, t, round(p * 0.5, 6)]]},
        )
        assert status == 200
        assert body["status"] == "applied"
        assert body["reweighted"] == 1
        assert body["inserted"] == 0
        assert body["affected"] >= 1
        assert body["reachable"] >= body["affected"]
        assert "answers_invalidated" in body

    def test_serve_deltas_metric(self, make_daemon):
        registry = MetricsRegistry()
        daemon = make_daemon(registry=registry)
        s, t, p = existing_edges(daemon.server.engines.current.graph)[0]
        daemon.request(
            "POST", "/admin/delta",
            {"reweights": [[s, t, round(p * 0.5, 6)]]},
        )
        assert registry.snapshot().counters.get("serve.deltas") == 1

    def test_malformed_body_is_400(self, daemon):
        status, body, _ = daemon.request(
            "POST", "/admin/delta", {"inserts": "nope"}
        )
        assert status == 400
        assert body["error"]["type"] == "ValidationError"

    def test_empty_body_is_400(self, daemon):
        status, body, _ = daemon.request("POST", "/admin/delta", None)
        assert status == 400

    def test_semantic_error_is_400_and_engine_survives(self, daemon):
        # Deleting a non-existent edge is a stale caller view; the typed
        # error crosses the socket and the engine keeps serving.
        graph = daemon.server.engines.current.graph
        present = {(s, t) for s, t, _ in existing_edges(graph)}
        missing = next(
            (s, t)
            for s in range(graph.n_nodes)
            for t in range(graph.n_nodes)
            if s != t and (s, t) not in present
        )
        status, body, _ = daemon.request(
            "POST", "/admin/delta", {"deletes": [list(missing)]}
        )
        assert status == 400
        assert "error" in body
        status, _, _ = daemon.search(0, "phone")
        assert status == 200

    def test_nan_probability_is_400_and_graph_unchanged(self, daemon):
        # JSON NaN parses to a float; it must not reach the served graph.
        s, t, p = existing_edges(daemon.server.engines.current.graph)[0]
        status, body, _ = daemon.request(
            "POST", "/admin/delta",
            raw_body='{"reweights": [[%d, %d, NaN]]}' % (s, t),
        )
        assert status == 400
        assert body["error"]["type"] == "EdgeError"
        graph = daemon.server.engines.current.graph
        assert not np.isnan(graph.edge_arrays()[2]).any()
        assert graph.edge_probability(s, t) == p

    def test_reload_after_delta_is_refused(self, make_daemon):
        # The delta rewrote the served shards for the edited graph, but a
        # reload reopens them over the graph the daemon started with: the
        # manifest's edge count no longer matches, so the reload is
        # refused and the post-delta engine keeps serving.
        daemon = make_daemon()
        s, t, _ = existing_edges(daemon.server.engines.current.graph)[0]
        status, _, _ = daemon.request(
            "POST", "/admin/delta", {"deletes": [[s, t]]},
        )
        assert status == 200
        status, body, _ = daemon.request("POST", "/admin/reload", {})
        assert status == 400
        assert body["error"]["type"] == "ConfigurationError"
        assert "edges" in body["error"]["message"]
        assert daemon.server.engines.generation == 1
        status, body, _ = daemon.search(0, "phone")
        assert status == 200 and body["generation"] == 1

    def test_get_method_rejected(self, daemon):
        status, body, _ = daemon.request("GET", "/admin/delta")
        assert status == 405

    @pytest.mark.parametrize("seed", [7, 1234])
    def test_never_stale_after_delta(self, stacks, make_daemon, seed):
        stack = stacks[seed]
        registry = MetricsRegistry()
        daemon = make_daemon(
            use_stack=stack, registry=registry,
            answer_cache_bytes=1 << 20,
        )
        graph = stack.bundle.graph
        rng = np.random.default_rng(seed)
        requests = sorted({
            (int(rng.integers(graph.n_nodes)), term)
            for term in ("phone", "camera", "music")
            for _ in range(3)
        })
        for user, term in requests:
            status, _, _ = daemon.search(user, term, k=5)
            assert status == 200

        edges = existing_edges(graph)
        picks = rng.choice(len(edges), size=2, replace=False)
        ds, dt, _ = edges[picks[0]]
        rs, rt, rp = edges[picks[1]]
        status, report, _ = daemon.request(
            "POST", "/admin/delta",
            {
                "deletes": [[ds, dt]],
                "reweights": [[rs, rt, round(rp * 0.5 + 0.05, 6)]],
            },
        )
        assert status == 200
        assert report["status"] == "applied"

        delta = GraphDelta(
            deletes=((ds, dt),),
            reweights=((rs, rt, round(rp * 0.5 + 0.05, 6)),),
        )
        new_graph, _ = apply_delta_to_graph(graph, delta)
        oracle = ServingEngine(
            new_graph,
            stack.bundle.topic_index,
            stack.engine.summaries,
            theta=stack.engine.propagation_index.theta,
        )
        for user, term in requests:
            status, body, _ = daemon.search(user, term, k=5)
            assert status == 200
            results, stats = oracle.search(user, term, k=5, with_stats=True)
            assert body["results"] == [
                {
                    "topic_id": r.topic_id,
                    "label": r.label,
                    "influence": r.influence,
                }
                for r in results
            ], f"stale or wrong answer for user={user} query={term!r}"
            assert body["stats"] == {
                "topics_considered": stats.topics_considered,
                "topics_pruned": stats.topics_pruned,
                "entries_probed": stats.entries_probed,
                "expansion_rounds": stats.expansion_rounds,
                "representatives_touched": stats.representatives_touched,
            }


def payload(results):
    return [
        {"topic_id": r.topic_id, "label": r.label, "influence": r.influence}
        for r in results
    ]


class TestInlineAnswers:
    """Answer-tier hits served on the event loop obey the delta and
    accounting contracts of the queued path."""

    def test_warm_hit_of_reachable_user_never_stale(self, stack, make_daemon):
        graph = stack.bundle.graph
        theta = stack.engine.propagation_index.theta
        sources, targets, probs = graph.edge_arrays()
        strongest = int(np.argmax(probs))
        edge = (int(sources[strongest]), int(targets[strongest]))
        delta = GraphDelta(deletes=(edge,))
        new_graph, application = apply_delta_to_graph(graph, delta)
        reachable = affected_nodes(graph, new_graph, application)
        pre = ServingEngine(
            graph, stack.bundle.topic_index, stack.engine.summaries,
            theta=theta,
        )
        post = ServingEngine(
            new_graph, stack.bundle.topic_index, stack.engine.summaries,
            theta=theta,
        )
        # A reachable user whose answer the delta changes: serving the
        # warm pre-delta answer after the delta would be caught.
        user, term = next(
            (u, q)
            for u in reachable.tolist()
            for q in ("phone", "camera", "music")
            if pre.search(u, q, 5) != post.search(u, q, 5)
        )

        registry = MetricsRegistry()
        daemon = make_daemon(registry=registry, answer_cache_bytes=1 << 20)
        for _ in range(2):  # miss, then an inline hit
            status, body, _ = daemon.search(user, term, k=5)
            assert status == 200
            assert body["results"] == payload(pre.search(user, term, 5))
        assert registry.snapshot().counter("serve.answered_inline") == 1

        status, report, _ = daemon.request(
            "POST", "/admin/delta", {"deletes": [list(edge)]}
        )
        assert status == 200 and report["answers_invalidated"] >= 1
        status, body, _ = daemon.search(user, term, k=5)
        assert status == 200
        assert body["generation"] == 1
        assert body["results"] == payload(post.search(user, term, 5))

    def test_hits_and_misses_counted_once(self, make_daemon):
        registry = MetricsRegistry()
        daemon = make_daemon(registry=registry, answer_cache_bytes=1 << 20)
        sequence = [
            (3, "phone"), (3, "phone"), (11, "phone"), (3, "Phone"),
            (11, "camera"), (11, "phone"), (5, "music"), (5, "music"),
            (11, "camera"),
        ]
        for user, term in sequence:
            status, _, _ = daemon.search(user, term, k=5)
            assert status == 200
        counters = registry.snapshot().counters
        hits = counters.get("cache.tier.answers.hits", 0)
        misses = counters.get("cache.tier.answers.misses", 0)
        assert (hits, misses) == (5, 4)
        assert hits + misses == counters["serve.responses_ok"] == len(sequence)
        assert counters["serve.answered_inline"] == hits
        lru = daemon.server.engines.current.tier_stats()["answers"]
        assert (lru.hits, lru.misses) == (hits, misses)
