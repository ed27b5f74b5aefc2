"""Unit tests for the random-walk engine."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, NodeNotFoundError
from repro.graph import SocialGraph

from .walk_engine import WalkEngine


class TestStep:
    def test_step_follows_edges(self, chain_graph):
        engine = WalkEngine(chain_graph, seed=1)
        assert engine.step(0) == 1

    def test_step_dead_end_returns_none(self, chain_graph):
        engine = WalkEngine(chain_graph, seed=1)
        assert engine.step(4) is None

    def test_step_unweighted_uniform(self):
        graph = SocialGraph(3, [(0, 1, 0.99), (0, 2, 0.01)])
        engine = WalkEngine(graph, weighted=False, seed=7)
        draws = [engine.step(0) for _ in range(400)]
        counts = {v: draws.count(v) for v in (1, 2)}
        # Uniform choice should be near 50/50 despite skewed probabilities.
        assert abs(counts[1] - counts[2]) < 100

    def test_step_weighted_respects_probabilities(self):
        graph = SocialGraph(3, [(0, 1, 0.9), (0, 2, 0.1)])
        engine = WalkEngine(graph, weighted=True, seed=7)
        draws = [engine.step(0) for _ in range(500)]
        share = draws.count(1) / len(draws)
        assert 0.8 < share < 0.98


class TestWalk:
    def test_walk_starts_at_start(self, chain_graph):
        engine = WalkEngine(chain_graph, seed=3)
        record = engine.walk(1, 2)
        assert record.path[0] == 1

    def test_walk_length_bounded(self, chain_graph):
        engine = WalkEngine(chain_graph, seed=3)
        record = engine.walk(0, 3)
        assert record.steps_taken <= 3
        assert record.path.size <= 4

    def test_walk_stops_at_dead_end(self, chain_graph):
        engine = WalkEngine(chain_graph, seed=3)
        record = engine.walk(2, 10)
        assert record.path.tolist() == [2, 3, 4]
        assert record.steps_taken == 2

    def test_walk_records_first_visit_order(self, triangle_graph):
        engine = WalkEngine(triangle_graph, seed=1)
        record = engine.walk(0, 6)
        # Deterministic single-out-edge cycle: path dedups to the 3 nodes.
        assert record.path.tolist() == [0, 1, 2]
        assert record.steps_taken == 6

    def test_revisits_counted_not_reappended(self, triangle_graph):
        engine = WalkEngine(triangle_graph, seed=1)
        record = engine.walk(0, 6)
        # 6 steps around a 3-cycle: node 0 visited 1+2 times, others 2 each.
        assert record.visit_counts.tolist() == [3, 2, 2]

    def test_zero_length_walk(self, chain_graph):
        engine = WalkEngine(chain_graph, seed=3)
        record = engine.walk(2, 0)
        assert record.path.tolist() == [2]
        assert record.steps_taken == 0

    def test_negative_length_rejected(self, chain_graph):
        engine = WalkEngine(chain_graph, seed=3)
        with pytest.raises(ConfigurationError):
            engine.walk(0, -1)

    def test_unknown_start_rejected(self, chain_graph):
        engine = WalkEngine(chain_graph, seed=3)
        with pytest.raises(NodeNotFoundError):
            engine.walk(99, 2)

    def test_deterministic_under_seed(self, diamond_graph):
        a = WalkEngine(diamond_graph, seed=5).walk(0, 3)
        b = WalkEngine(diamond_graph, seed=5).walk(0, 3)
        assert a.path.tolist() == b.path.tolist()


class TestWalks:
    def test_walks_count(self, chain_graph):
        engine = WalkEngine(chain_graph, seed=3)
        records = engine.walks(0, 5, 2)
        assert len(records) == 5

    def test_walks_requires_positive_count(self, chain_graph):
        engine = WalkEngine(chain_graph, seed=3)
        with pytest.raises(ConfigurationError):
            engine.walks(0, 0, 2)

    def test_all_steps_follow_real_edges(self):
        rng = np.random.default_rng(0)
        edges = set()
        while len(edges) < 60:
            u, v = rng.integers(0, 20, size=2)
            if u != v:
                edges.add((int(u), int(v)))
        graph = SocialGraph(20, [(u, v, 0.5) for u, v in edges])
        engine = WalkEngine(graph, seed=8)
        for start in range(20):
            record = engine.walk(start, 5)
            # First-visit order does not imply path adjacency, but every
            # recorded node must be reachable from the start.
            from repro.graph import hop_distances

            dist = hop_distances(graph, start)
            for node in record.path:
                assert dist[int(node)] >= 0
