"""Unit tests for the §5.1 personalized propagation index."""

import warnings

import numpy as np
import pytest

from repro.core import GammaView, PropagationEntry, PropagationIndex
from repro.exceptions import BudgetExceededError, ConfigurationError
from repro.graph import SocialGraph, preferential_attachment_graph


class TestValidation:
    def test_theta_bounds(self, chain_graph):
        with pytest.raises(ConfigurationError):
            PropagationIndex(chain_graph, 0.0)
        with pytest.raises(ConfigurationError):
            PropagationIndex(chain_graph, 1.5)

    def test_budget_bounds(self, chain_graph):
        with pytest.raises(ConfigurationError):
            PropagationIndex(chain_graph, 0.1, max_branches=0)


class TestChain:
    def test_entries_respect_threshold(self, chain_graph):
        # Path probabilities into node 4: 3->4 = 0.5, 2->4 = 0.25,
        # 1->4 = 0.125, 0->4 = 0.0625.
        index = PropagationIndex(chain_graph, 0.1)
        entry = index.entry(4)
        assert entry.gamma == pytest.approx({3: 0.5, 2: 0.25, 1: 0.125})

    def test_lower_theta_reaches_further(self, chain_graph):
        index = PropagationIndex(chain_graph, 0.05)
        entry = index.entry(4)
        assert 0 in entry.gamma
        assert entry.gamma[0] == pytest.approx(0.0625)

    def test_source_node_has_empty_entry(self, chain_graph):
        index = PropagationIndex(chain_graph, 0.1)
        assert index.entry(0).size == 0


class TestAggregation:
    def test_parallel_paths_aggregate(self, diamond_graph):
        index = PropagationIndex(diamond_graph, 0.05)
        entry = index.entry(3)
        # 0 reaches 3 via direct (0.1), via 1 (0.25), via 2 (0.1).
        assert entry.gamma[0] == pytest.approx(0.45)
        assert entry.gamma[1] == pytest.approx(0.5)
        assert entry.gamma[2] == pytest.approx(0.25)

    def test_threshold_prunes_per_path(self, diamond_graph):
        # With theta=0.2 the 0->3 direct (0.1) and 0->2->3 (0.1) paths are
        # cut; only 0->1->3 (0.25) survives for node 0.
        index = PropagationIndex(diamond_graph, 0.2)
        entry = index.entry(3)
        assert entry.gamma[0] == pytest.approx(0.25)

    def test_cycles_do_not_loop(self, triangle_graph):
        index = PropagationIndex(triangle_graph, 0.01)
        entry = index.entry(0)
        # Branches are cycle-free: each of 1, 2 contributes via one path.
        assert entry.gamma[2] == pytest.approx(0.75)
        assert entry.gamma[1] == pytest.approx(0.25 * 0.75)
        assert entry.size == 2


class TestMarking:
    def test_marked_nodes_have_unseen_in_neighbours(self, chain_graph):
        index = PropagationIndex(chain_graph, 0.3)
        entry = index.entry(4)
        # Gamma = {3}; node 3 has in-neighbour 2 outside Gamma -> marked.
        assert entry.gamma == pytest.approx({3: 0.5})
        assert entry.marked == {3}

    def test_fully_covered_entry_has_no_marks(self, triangle_graph):
        index = PropagationIndex(triangle_graph, 0.01)
        entry = index.entry(0)
        # Gamma = {1, 2}; their in-neighbours (0, 1, 2) are all inside.
        assert entry.marked == set()

    def test_max_expandable_probability(self, chain_graph):
        index = PropagationIndex(chain_graph, 0.3)
        entry = index.entry(4)
        assert entry.max_expandable_probability() == pytest.approx(0.5)

    def test_max_expandable_zero_without_marks(self, triangle_graph):
        index = PropagationIndex(triangle_graph, 0.01)
        assert index.entry(0).max_expandable_probability() == 0.0


class TestFigure3:
    """The paper's Figure 3 narrative on the reconstruction fixture."""

    def test_direct_and_two_hop_members(self, fig3_graph):
        index = PropagationIndex(fig3_graph, 0.05)
        entry = index.entry(8)
        assert set(entry.gamma) == {1, 5, 7, 9, 12}

    def test_cut_branch_probability_excluded(self, fig3_graph):
        index = PropagationIndex(fig3_graph, 0.05)
        entry = index.entry(8)
        # 11 -> 9 -> 8 = 0.04 < theta, so 11 is not in Gamma.
        assert 11 not in entry.gamma

    def test_only_boundary_node_marked(self, fig3_graph):
        index = PropagationIndex(fig3_graph, 0.05)
        entry = index.entry(8)
        # Node 9 is the only Gamma member with an in-neighbour (11)
        # outside the index - the Figure 3 "potential node" role.
        assert entry.marked == {9}

    def test_aggregated_probabilities(self, fig3_graph):
        index = PropagationIndex(fig3_graph, 0.05)
        entry = index.entry(8)
        assert entry.gamma[5] == pytest.approx(0.4)
        # 1 -> 5 -> 8 (0.5*0.4) plus 1 -> 9 -> 8 (0.3*0.2).
        assert entry.gamma[1] == pytest.approx(0.5 * 0.4 + 0.3 * 0.2)
        assert entry.gamma[12] == pytest.approx(0.4 * 0.3)  # 12->7->8
        # 9 -> 8 direct (0.2) plus 9 -> 12 -> 7 -> 8 (0.5*0.4*0.3).
        assert entry.gamma[9] == pytest.approx(0.2 + 0.5 * 0.4 * 0.3)


class TestBudget:
    def _dense_graph(self):
        edges = []
        n = 12
        for u in range(n):
            for v in range(n):
                if u != v:
                    edges.append((u, v, 0.9))
        return SocialGraph(n, edges)

    def test_truncates_with_warning(self):
        graph = self._dense_graph()
        index = PropagationIndex(graph, 0.0001, max_branches=50)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            entry = index.entry(0)
        assert any("truncated" in str(w.message) for w in caught)
        assert entry.branches > 0

    def test_strict_mode_raises(self):
        graph = self._dense_graph()
        index = PropagationIndex(graph, 0.0001, max_branches=50, strict=True)
        with pytest.raises(BudgetExceededError):
            index.entry(0)

    def test_truncation_counts_exactly_max_branches(self):
        # An extension is counted before it is consumed: the truncated
        # entry contains exactly max_branches contributions and the
        # budget-tripping extension contributes no silently-dropped mass.
        graph = self._dense_graph()
        index = PropagationIndex(graph, 0.0001, max_branches=50)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            entry = index.entry(0)
        assert entry.branches == 50

    def test_truncated_mass_is_a_lower_bound(self):
        # Every truncated Γ value is a partial sum of the full one.
        graph = self._dense_graph()
        full = PropagationIndex(graph, 0.7).entry(0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            truncated = PropagationIndex(graph, 0.7, max_branches=20).entry(0)
        assert set(truncated.gamma) <= set(full.gamma)
        for source, probability in truncated.gamma.items():
            assert probability <= full.gamma[source] + 1e-12

    def test_strict_and_truncating_agree_below_budget(self):
        graph = self._dense_graph()
        lenient = PropagationIndex(graph, 0.75)
        strict = PropagationIndex(graph, 0.75, strict=True)
        for node in range(graph.n_nodes):
            assert strict.entry(node).gamma == lenient.entry(node).gamma


class TestCompactEntry:
    def test_probability_matches_gamma(self, fig3_graph):
        index = PropagationIndex(fig3_graph, 0.05)
        entry = index.entry(8)
        for source, probability in entry.gamma.items():
            assert entry.probability(source) == probability

    def test_probability_of_absent_source_is_zero(self, fig3_graph):
        entry = PropagationIndex(fig3_graph, 0.05).entry(8)
        assert entry.probability(10_000) == 0.0
        assert entry.probability(11) == 0.0  # cut branch, not in Gamma

    def test_storage_arrays_sorted_and_parallel(self, fig3_graph):
        entry = PropagationIndex(fig3_graph, 0.05).entry(8)
        assert entry.sources.dtype == np.int64
        assert entry.probabilities.dtype == np.float64
        assert entry.sources.size == entry.probabilities.size == entry.size
        assert np.all(np.diff(entry.sources) > 0)
        assert np.all(np.diff(entry.marked_array) >= 0)

    def test_gamma_view_mapping_protocol(self, fig3_graph):
        entry = PropagationIndex(fig3_graph, 0.05).entry(8)
        view = entry.gamma
        assert isinstance(view, GammaView)
        assert len(view) == entry.size
        assert 5 in view and 11 not in view
        assert view.get(11) is None
        assert view.get(11, 0.0) == 0.0
        assert view[5] == pytest.approx(0.4)
        with pytest.raises(KeyError):
            view[11]
        assert dict(view) == {int(s): view[int(s)] for s in entry.sources}
        assert view == dict(view)

    def test_memory_bytes_exact(self, fig3_graph):
        entry = PropagationIndex(fig3_graph, 0.05).entry(8)
        # Γ arrays plus one flag per member; the Γ* ids and their
        # probabilities are charged once the first use selects them.
        assert entry.memory_bytes() == 17 * entry.size
        n_marked = entry.marked_array.size
        assert n_marked > 0
        assert entry.memory_bytes() == 17 * entry.size + 16 * n_marked

    def test_marked_must_be_gamma_members(self):
        with pytest.raises(ValueError, match="members of its gamma"):
            PropagationEntry(7, {3: 0.5}, {4}, 1)

    def test_from_arrays_round_trip(self):
        entry = PropagationEntry(7, {3: 0.5, 1: 0.25}, {3}, 4)
        rebuilt = PropagationEntry.from_arrays(
            entry.node,
            entry.sources,
            entry.probabilities,
            entry.marked_flags,
            entry.branches,
        )
        assert rebuilt.gamma == entry.gamma
        assert rebuilt.marked == entry.marked
        assert rebuilt.branches == entry.branches
        assert rebuilt.probability(1) == 0.25


class TestBuildAll:
    @pytest.fixture
    def random_graph(self):
        return preferential_attachment_graph(80, 4, seed=11)

    def test_parallel_matches_serial_exactly(self, random_graph):
        serial = PropagationIndex(random_graph, 0.01).build_all(workers=1)
        parallel = PropagationIndex(random_graph, 0.01).build_all(workers=2)
        assert parallel.n_cached == serial.n_cached == random_graph.n_nodes
        for node in range(random_graph.n_nodes):
            a, b = serial.entry(node), parallel.entry(node)
            # Byte-identical: same DFS order in every process.
            assert dict(a.gamma) == dict(b.gamma)
            assert a.marked == b.marked
            assert a.branches == b.branches

    def test_parallel_skips_cached_entries(self, random_graph):
        index = PropagationIndex(random_graph, 0.01)
        first = index.entry(0)
        index.build_all(workers=2)
        assert index.entry(0) is first
        assert index.last_build_stats.n_built == random_graph.n_nodes - 1

    def test_build_stats_recorded(self, random_graph):
        index = PropagationIndex(random_graph, 0.01).build_all()
        stats = index.last_build_stats
        assert stats is not None
        assert stats.workers == 1
        assert stats.n_entries == stats.n_built == random_graph.n_nodes
        assert stats.total_branches > 0
        assert stats.total_members > 0
        assert stats.wall_seconds >= 0.0
        assert stats.entries_per_second > 0.0
        assert stats.peak_entry_bytes > 0
        assert stats.total_bytes == index.memory_bytes()
        payload = stats.as_dict()
        assert payload["entries_per_second"] == stats.entries_per_second
        assert payload["n_built"] == stats.n_built

    def test_strict_budget_propagates_from_workers(self):
        edges = [(u, v, 0.9) for u in range(10) for v in range(10) if u != v]
        graph = SocialGraph(10, edges)
        index = PropagationIndex(graph, 0.0001, max_branches=10, strict=True)
        with pytest.raises(BudgetExceededError):
            index.build_all(workers=2)


class TestCaching:
    def test_entry_cached(self, chain_graph):
        index = PropagationIndex(chain_graph, 0.1)
        assert index.entry(4) is index.entry(4)
        assert index.n_cached == 1

    def test_build_all(self, chain_graph):
        index = PropagationIndex(chain_graph, 0.1).build_all()
        assert index.n_cached == chain_graph.n_nodes

    def test_memory_accounting(self, chain_graph):
        index = PropagationIndex(chain_graph, 0.1)
        index.entry(4)
        assert index.memory_bytes() > 0
