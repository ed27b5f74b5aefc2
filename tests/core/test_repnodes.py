"""Unit tests for LRW-A representative selection (Algorithm 7)."""

import numpy as np
import pytest

from repro.core.lrw import diversified_pagerank, select_representatives
from repro.exceptions import ConfigurationError
from repro.graph import GraphBuilder
from repro.walks import WalkIndex


@pytest.fixture
def community_graph():
    """Two weakly linked communities; topic lives in the first one."""
    builder = GraphBuilder(12)
    # Community A: 0..5 densely connected.
    for u in range(6):
        for v in range(6):
            if u != v and (u + v) % 2 == 1:
                builder.add_edge(u, v, 0.3)
    # Community B: 6..11 densely connected.
    for u in range(6, 12):
        for v in range(6, 12):
            if u != v and (u + v) % 2 == 1:
                builder.add_edge(u, v, 0.3)
    # Weak bridge.
    builder.add_edge(5, 6, 0.05)
    return builder.build()


def _scipy_pagerank(graph, topic_nodes, walk_index, *, damping, initial,
                    reinforcement):
    """Equation 5 iterated with scipy CSR products (the reference)."""
    n = graph.n_nodes
    nodes = sorted(set(topic_nodes))
    restart = np.zeros(n)
    restart[nodes] = 1.0 / len(nodes)
    transition = graph.transition_matrix()
    transition_t = transition.T.tocsr()
    hit = walk_index.hitting_frequencies()
    rank = restart.copy() if initial == "restart" else np.ones(n)
    cumulative = rank.copy()
    for step in range(1, walk_index.walk_length + 1):
        frequency = hit[step] if reinforcement == "walk" else cumulative + 1e-12
        normalizer = transition @ frequency
        outflow = np.where(
            normalizer > 0.0,
            rank / np.where(normalizer > 0.0, normalizer, 1.0),
            0.0,
        )
        rank = (1.0 - damping) * restart + damping * (
            frequency * (transition_t @ outflow)
        )
        cumulative = cumulative + rank
    return rank


class TestDiversifiedPagerank:
    @pytest.mark.parametrize("initial", ["restart", "uniform"])
    @pytest.mark.parametrize("reinforcement", ["divrank", "walk"])
    def test_matches_scipy_products_bit_for_bit(self, initial, reinforcement):
        from repro.graph import preferential_attachment_graph

        graph = preferential_attachment_graph(150, 4, seed=8)
        walk_index = WalkIndex.built(graph, 5, 8, seed=2)
        topic = list(range(3, 150, 7))
        scores = diversified_pagerank(
            graph, topic, walk_index, initial=initial,
            reinforcement=reinforcement,
        )
        expected = _scipy_pagerank(
            graph, topic, walk_index, damping=0.85, initial=initial,
            reinforcement=reinforcement,
        )
        assert np.array_equal(scores, expected)

    def test_restart_mass_on_topic(self, community_graph):
        walk_index = WalkIndex.built(community_graph, 4, 10, seed=1)
        scores = diversified_pagerank(
            community_graph, [0, 1, 2], walk_index
        )
        assert scores.shape == (12,)
        # Topic community outranks the far community.
        assert scores[:6].sum() > scores[6:].sum()

    def test_empty_topic_rejected(self, community_graph):
        walk_index = WalkIndex.built(community_graph, 3, 5, seed=1)
        with pytest.raises(ConfigurationError):
            diversified_pagerank(community_graph, [], walk_index)

    def test_iterations_bounded_by_walk_length(self, community_graph):
        walk_index = WalkIndex.built(community_graph, 3, 5, seed=1)
        with pytest.raises(ConfigurationError):
            diversified_pagerank(
                community_graph, [0], walk_index, iterations=7
            )

    def test_unknown_initialization_rejected(self, community_graph):
        walk_index = WalkIndex.built(community_graph, 3, 5, seed=1)
        with pytest.raises(ConfigurationError):
            diversified_pagerank(
                community_graph, [0], walk_index, initial="zeros"
            )

    def test_uniform_init_differs_from_restart(self, community_graph):
        walk_index = WalkIndex.built(community_graph, 4, 10, seed=1)
        restart = diversified_pagerank(
            community_graph, [0], walk_index, initial="restart"
        )
        uniform = diversified_pagerank(
            community_graph, [0], walk_index, initial="uniform"
        )
        assert not np.allclose(restart, uniform)

    def test_damping_zero_returns_restart(self, community_graph):
        walk_index = WalkIndex.built(community_graph, 3, 5, seed=1)
        scores = diversified_pagerank(
            community_graph, [0, 1], walk_index, damping=0.0
        )
        expected = np.zeros(12)
        expected[[0, 1]] = 0.5
        assert np.allclose(scores, expected)

    def test_deterministic_for_fixed_index(self, community_graph):
        walk_index = WalkIndex.built(community_graph, 4, 10, seed=1)
        a = diversified_pagerank(community_graph, [0, 1], walk_index)
        b = diversified_pagerank(community_graph, [0, 1], walk_index)
        assert np.array_equal(a, b)


class TestSelectRepresentatives:
    def test_count_follows_fraction(self, community_graph):
        walk_index = WalkIndex.built(community_graph, 4, 10, seed=1)
        reps = select_representatives(
            community_graph, [0, 1, 2, 3, 4, 5], walk_index,
            rep_fraction=0.5,
        )
        assert reps.size == 3

    def test_minimum_enforced(self, community_graph):
        walk_index = WalkIndex.built(community_graph, 4, 10, seed=1)
        reps = select_representatives(
            community_graph, [0, 1], walk_index, rep_fraction=0.05
        )
        assert reps.size == 1

    def test_representatives_near_topic(self, community_graph):
        walk_index = WalkIndex.built(community_graph, 4, 20, seed=1)
        reps = select_representatives(
            community_graph, [0, 1, 2, 3], walk_index, rep_fraction=0.5
        )
        # All selected reps should be in the topic's community.
        assert all(int(r) < 6 for r in reps)

    def test_fraction_validated(self, community_graph):
        walk_index = WalkIndex.built(community_graph, 3, 5, seed=1)
        with pytest.raises(ConfigurationError):
            select_representatives(
                community_graph, [0], walk_index, rep_fraction=0.0
            )
