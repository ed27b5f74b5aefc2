"""Unit tests for the CSR social graph."""

import numpy as np
import pytest

from repro.exceptions import EdgeError, EmptyGraphError, NodeNotFoundError
from repro.graph import SocialGraph


class TestConstruction:
    def test_empty_graph(self):
        graph = SocialGraph(0, [])
        assert graph.n_nodes == 0
        assert graph.n_edges == 0

    def test_nodes_without_edges(self):
        graph = SocialGraph(5, [])
        assert graph.n_nodes == 5
        assert graph.n_edges == 0
        assert graph.out_degree(4) == 0

    def test_basic_counts(self, triangle_graph):
        assert triangle_graph.n_nodes == 3
        assert triangle_graph.n_edges == 3
        assert len(triangle_graph) == 3

    def test_rejects_negative_node_count(self):
        with pytest.raises(EdgeError):
            SocialGraph(-1, [])

    def test_rejects_self_loop(self):
        with pytest.raises(EdgeError, match="self-loop"):
            SocialGraph(2, [(0, 0, 0.5)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(NodeNotFoundError):
            SocialGraph(2, [(0, 5, 0.5)])

    def test_rejects_negative_endpoint(self):
        with pytest.raises(EdgeError):
            SocialGraph(2, [(-1, 0, 0.5)])

    @pytest.mark.parametrize(
        "probability", [0.0, -0.5, 1.5, 2.0, float("nan")]
    )
    def test_rejects_bad_probability(self, probability):
        with pytest.raises(EdgeError, match="probabilit"):
            SocialGraph(2, [(0, 1, probability)])

    def test_from_arrays_rejects_nan_probability(self):
        with pytest.raises(EdgeError, match="probabilit"):
            SocialGraph.from_arrays(
                3, np.array([0, 1]), np.array([1, 2]),
                np.array([0.5, np.nan]),
            )

    def test_probability_one_allowed(self):
        graph = SocialGraph(2, [(0, 1, 1.0)])
        assert graph.edge_probability(0, 1) == 1.0

    def test_rejects_duplicate_edges(self):
        with pytest.raises(EdgeError, match="duplicate"):
            SocialGraph(2, [(0, 1, 0.5), (0, 1, 0.5)])


class TestAdjacency:
    def test_out_neighbors_sorted(self):
        graph = SocialGraph(4, [(0, 3, 0.1), (0, 1, 0.2), (0, 2, 0.3)])
        assert graph.out_neighbors(0).tolist() == [1, 2, 3]

    def test_out_edges_probabilities_aligned(self):
        graph = SocialGraph(4, [(0, 3, 0.1), (0, 1, 0.2), (0, 2, 0.3)])
        targets, probs = graph.out_edges(0)
        assert dict(zip(targets.tolist(), probs.tolist())) == {
            1: 0.2,
            2: 0.3,
            3: 0.1,
        }

    def test_in_neighbors(self, triangle_graph):
        assert triangle_graph.in_neighbors(0).tolist() == [2]
        assert triangle_graph.in_neighbors(1).tolist() == [0]

    def test_in_edges_probability_matches_out(self, diamond_graph):
        sources, probs = diamond_graph.in_edges(3)
        lookup = dict(zip(sources.tolist(), probs.tolist()))
        assert lookup == {0: 0.1, 1: 0.5, 2: 0.25}

    def test_degrees(self, diamond_graph):
        assert diamond_graph.out_degree(0) == 3
        assert diamond_graph.in_degree(3) == 3
        assert diamond_graph.out_degrees().tolist() == [3, 1, 1, 0]
        assert diamond_graph.in_degrees().tolist() == [0, 1, 1, 3]

    def test_total_degrees(self, triangle_graph):
        assert triangle_graph.total_degrees().tolist() == [2, 2, 2]

    def test_node_check(self, triangle_graph):
        with pytest.raises(NodeNotFoundError):
            triangle_graph.out_neighbors(7)
        with pytest.raises(NodeNotFoundError):
            triangle_graph.in_degree(-1)


class TestEdgeQueries:
    def test_has_edge(self, triangle_graph):
        assert triangle_graph.has_edge(0, 1)
        assert not triangle_graph.has_edge(1, 0)

    def test_edge_probability(self, triangle_graph):
        assert triangle_graph.edge_probability(1, 2) == 0.25

    def test_edge_probability_missing_raises(self, triangle_graph):
        with pytest.raises(EdgeError):
            triangle_graph.edge_probability(2, 1)

    def test_iter_edges_roundtrip(self, diamond_graph):
        edges = sorted(diamond_graph.iter_edges())
        rebuilt = SocialGraph(4, edges)
        assert sorted(rebuilt.iter_edges()) == edges


class TestConversions:
    def test_transition_matrix_values(self, triangle_graph):
        matrix = triangle_graph.transition_matrix()
        assert matrix.shape == (3, 3)
        assert matrix[0, 1] == 0.5
        assert matrix[1, 2] == 0.25
        assert matrix[2, 0] == 0.75
        assert matrix.nnz == 3

    def test_reversed_flips_edges(self, triangle_graph):
        rev = triangle_graph.reversed()
        assert rev.has_edge(1, 0)
        assert rev.edge_probability(1, 0) == 0.5
        assert rev.n_edges == triangle_graph.n_edges

    def test_reversed_twice_is_identity(self, diamond_graph):
        double = diamond_graph.reversed().reversed()
        assert sorted(double.iter_edges()) == sorted(diamond_graph.iter_edges())

    def test_subgraph_relabels(self, diamond_graph):
        sub, mapping = diamond_graph.subgraph([0, 1, 3])
        assert mapping.tolist() == [0, 1, 3]
        assert sub.n_nodes == 3
        # 0->1 (0.5) and 1->3 (0.5) survive; 0->3 (0.1) survives.
        assert sorted(sub.iter_edges()) == [
            (0, 1, 0.5),
            (0, 2, 0.1),
            (1, 2, 0.5),
        ]

    def test_subgraph_empty_selection(self, diamond_graph):
        sub, mapping = diamond_graph.subgraph([])
        assert sub.n_nodes == 0
        assert mapping.size == 0

    def test_memory_bytes_positive(self, diamond_graph):
        assert diamond_graph.memory_bytes() > 0


class TestStatistics:
    def test_average_degree(self, triangle_graph):
        assert triangle_graph.average_degree() == 1.0

    def test_average_degree_empty_raises(self):
        with pytest.raises(EmptyGraphError):
            SocialGraph(0, []).average_degree()

    def test_degree_histogram(self, diamond_graph):
        assert diamond_graph.degree_histogram() == {0: 1, 1: 2, 3: 1}
