"""Property-based tests (hypothesis) on core invariants.

Each property encodes a law the paper's machinery must satisfy regardless
of input: probability algebra of the grouping rules, partition behaviour of
no-overlap grouping, conservation laws of influence propagation, and the
index invariants that make the top-k search's pruning sound.
"""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    PropagationIndex,
    TopicSummary,
    propagate_influence,
)
from repro.core.rcl import greedy_no_overlap, label_pairs
from repro.exceptions import BudgetExceededError
from repro.graph import (
    SocialGraph,
    hop_distances,
    preferential_attachment_graph,
    reverse_hop_distances,
)
from repro.walks import WalkIndex
from tests.oracles.propagation_dfs import DFSPropagationOracle

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def small_graphs(draw):
    """Random digraphs with 2-14 nodes and valid transition probabilities."""
    n = draw(st.integers(min_value=2, max_value=14))
    max_edges = n * (n - 1)
    n_edges = draw(st.integers(min_value=1, max_value=min(max_edges, 40)))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ).filter(lambda p: p[0] != p[1]),
            min_size=1,
            max_size=n_edges,
            unique=True,
        )
    )
    probs = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    return SocialGraph(n, [(u, v, p) for (u, v), p in zip(pairs, probs)])


@st.composite
def gp_matrices(draw):
    """Symmetric GP+ / GP- matrices with GP+ + GP- <= 1 everywhere."""
    n = draw(st.integers(min_value=2, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    raw = rng.dirichlet([1.0, 1.0, 1.0], size=(n, n))
    pos = (raw[..., 0] + raw[..., 0].T) / 2
    neg = (raw[..., 1] + raw[..., 1].T) / 2
    # Renormalize so pos + neg <= 1 after symmetrization.
    total = pos + neg
    scale = np.where(total > 1.0, total, 1.0)
    return pos / scale, neg / scale, seed


# ---------------------------------------------------------------------------
# Graph invariants
# ---------------------------------------------------------------------------


class TestGraphProperties:
    @SETTINGS
    @given(small_graphs())
    def test_degree_sums_match_edge_count(self, graph):
        assert graph.out_degrees().sum() == graph.n_edges
        assert graph.in_degrees().sum() == graph.n_edges

    @SETTINGS
    @given(small_graphs())
    def test_edge_roundtrip(self, graph):
        rebuilt = SocialGraph(graph.n_nodes, graph.iter_edges())
        assert sorted(rebuilt.iter_edges()) == sorted(graph.iter_edges())

    @SETTINGS
    @given(small_graphs())
    def test_reverse_distance_duality(self, graph):
        # dist_G(u -> v) == dist_rev(G)(v -> u) for every pair.
        rev = graph.reversed()
        for source in range(graph.n_nodes):
            forward = hop_distances(graph, source)
            backward = reverse_hop_distances(rev, source)
            assert forward.tolist() == backward.tolist()

    @SETTINGS
    @given(small_graphs())
    def test_distance_triangle_step(self, graph):
        # A node at distance d > 0 has an in-neighbour at distance d - 1.
        dist = hop_distances(graph, 0)
        for node in range(graph.n_nodes):
            d = dist[node]
            if d > 0:
                predecessors = [
                    int(p) for p in graph.in_neighbors(node)
                    if dist[int(p)] == d - 1
                ]
                assert predecessors


# ---------------------------------------------------------------------------
# Walk-index invariants
# ---------------------------------------------------------------------------


class TestWalkIndexProperties:
    @SETTINGS
    @given(small_graphs(), st.integers(1, 4), st.integers(1, 5),
           st.integers(0, 1000))
    def test_walk_lengths_and_reachability(self, graph, length, samples, seed):
        index = WalkIndex.built(graph, length, samples, seed=seed)
        for node in range(graph.n_nodes):
            records = index.walks_from(node)
            assert len(records) == samples
            exact = set(
                int(v) for v in np.flatnonzero(
                    hop_distances(graph, node, length) >= 1
                )
            )
            for record in records:
                assert record.steps_taken <= length
                assert record.path[0] == node
                # Dedup: no repeated entries in the recorded path.
                assert len(set(record.path.tolist())) == record.path.size
                # Every visited node is genuinely reachable within L hops.
                assert set(record.path[1:].tolist()) <= exact

    @SETTINGS
    @given(small_graphs(), st.integers(1, 4), st.integers(1, 5),
           st.integers(0, 1000))
    def test_hit_frequencies_bounded(self, graph, length, samples, seed):
        index = WalkIndex.built(graph, length, samples, seed=seed)
        table = index.hitting_frequencies()
        assert np.all(table >= 0.0)
        # A node can be visited at most once per step across one walk, so
        # the per-walk frequency is at most (step+1)/R (start + revisits).
        for step in range(1, length + 1):
            assert np.all(table[step] <= (step + 1) / samples + 1e-12)


# ---------------------------------------------------------------------------
# Grouping-rule invariants
# ---------------------------------------------------------------------------


class TestGroupingProperties:
    @SETTINGS
    @given(gp_matrices())
    def test_labels_symmetric_binary(self, matrices):
        pos, neg, seed = matrices
        labels = label_pairs(pos, neg, seed=seed)
        assert np.array_equal(labels, labels.T)
        assert set(np.unique(labels)) <= {0, 1}
        assert np.all(np.diag(labels) == 1)

    @SETTINGS
    @given(gp_matrices(), st.integers(1, 5))
    def test_no_overlap_is_partition(self, matrices, n_clusters):
        pos, neg, seed = matrices
        labels = label_pairs(pos, neg, seed=seed)
        groups = greedy_no_overlap(labels, n_clusters)
        members = [m for g in groups for m in g]
        assert sorted(members) == list(range(labels.shape[0]))

    @SETTINGS
    @given(gp_matrices(), st.integers(1, 5))
    def test_groups_are_label_cliques(self, matrices, n_clusters):
        pos, neg, seed = matrices
        labels = label_pairs(pos, neg, seed=seed)
        for group in greedy_no_overlap(labels, n_clusters, policy="all"):
            for i in group:
                for j in group:
                    assert labels[i, j] == 1


# ---------------------------------------------------------------------------
# Influence-propagation invariants
# ---------------------------------------------------------------------------


class TestInfluenceProperties:
    @SETTINGS
    @given(small_graphs(), st.integers(1, 5))
    def test_influence_monotone_in_length(self, graph, length):
        weights = {0: 1.0}
        shorter = propagate_influence(graph, weights, length)
        longer = propagate_influence(graph, weights, length + 1)
        assert np.all(longer >= shorter - 1e-12)

    @SETTINGS
    @given(small_graphs(), st.integers(1, 4))
    def test_influence_scales_linearly(self, graph, length):
        base = propagate_influence(graph, {0: 1.0}, length)
        scaled = propagate_influence(graph, {0: 0.5}, length)
        assert np.allclose(scaled, 0.5 * base)


# ---------------------------------------------------------------------------
# Propagation-index invariants
# ---------------------------------------------------------------------------


class TestPropagationIndexProperties:
    @SETTINGS
    @given(small_graphs(), st.floats(min_value=0.02, max_value=0.5))
    def test_gamma_entries_exceed_theta(self, graph, theta):
        index = PropagationIndex(graph, theta)
        for node in range(graph.n_nodes):
            entry = index.entry(node)
            for source, probability in entry.gamma.items():
                assert probability >= theta - 1e-12
                assert source != node

    @SETTINGS
    @given(small_graphs(), st.floats(min_value=0.05, max_value=0.5))
    def test_smaller_theta_never_shrinks_gamma(self, graph, theta):
        coarse = PropagationIndex(graph, theta)
        fine = PropagationIndex(graph, theta / 2)
        for node in range(graph.n_nodes):
            coarse_entry = coarse.entry(node).gamma
            fine_entry = fine.entry(node).gamma
            assert set(coarse_entry) <= set(fine_entry)
            for source, probability in coarse_entry.items():
                # Aggregation only adds paths as theta decreases.
                assert fine_entry[source] >= probability - 1e-12

    @SETTINGS
    @given(small_graphs(), st.floats(min_value=0.02, max_value=0.5))
    def test_marked_nodes_inside_gamma(self, graph, theta):
        index = PropagationIndex(graph, theta)
        for node in range(graph.n_nodes):
            entry = index.entry(node)
            assert entry.marked <= set(entry.gamma)


def _same_entries(got, want):
    """Bit-for-bit equality of two entry lists."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.node == b.node
        assert a.sources.tobytes() == b.sources.tobytes()
        assert a.probabilities.tobytes() == b.probabilities.tobytes()
        assert a.marked_flags.tobytes() == b.marked_flags.tobytes()
        assert a.branches == b.branches


def _oracle(index, nodes):
    """The per-node DFS entries of *nodes*."""
    oracle = DFSPropagationOracle(index)
    return [oracle.build_entry(n) for n in nodes]


def _dense_graph(n, seed):
    """A complete digraph with random edge probabilities."""
    rng = np.random.default_rng(seed)
    return SocialGraph(n, [
        (u, v, float(rng.uniform(0.2, 0.9)))
        for u in range(n) for v in range(n) if u != v
    ])


class TestBatchedRebuildParity:
    """``build_entries`` is the per-node DFS oracle, bit for bit."""

    @SETTINGS
    @given(small_graphs(), st.floats(min_value=0.005, max_value=0.5), st.data())
    def test_matches_dfs_on_random_targets(self, graph, theta, data):
        nodes = data.draw(
            st.lists(st.integers(0, graph.n_nodes - 1), max_size=20)
        )  # unsorted, with duplicates, possibly empty
        index = PropagationIndex(graph, theta)
        _same_entries(index.build_entries(nodes), _oracle(index, nodes))

    @pytest.mark.parametrize("seed", [5, 7, 1234])
    def test_matches_dfs_on_seeded_graphs_with_cycles(self, seed):
        graph = preferential_attachment_graph(400, 4, seed=seed)
        sources, targets, _ = graph.edge_arrays()
        edges = set(zip(sources.tolist(), targets.tolist()))
        assert any((v, u) in edges for u, v in edges)  # 2-cycles exist
        assert (np.diff(graph._in_indptr) == 0).any()  # and in-edge-free nodes
        nodes = list(range(graph.n_nodes))[::-1] + [3, 3, 0]
        index = PropagationIndex(graph, 0.003)
        _same_entries(index.build_entries(nodes), _oracle(index, nodes))

    def test_single_entry_paths_match_dfs(self):
        graph = preferential_attachment_graph(200, 4, seed=11)
        index = PropagationIndex(graph, 0.003)
        nodes = [0, 57, 199]
        _same_entries(index.build_entries(nodes), _oracle(index, nodes))
        _same_entries([index.entry(n) for n in nodes], _oracle(index, nodes))

    def test_offline_builds_match_dfs(self):
        graph = preferential_attachment_graph(600, 4, seed=13)
        index = PropagationIndex(graph, 0.003).build_all()
        nodes = list(range(graph.n_nodes))
        _same_entries([index.entry(n) for n in nodes], _oracle(index, nodes))

    def test_theta_equal_to_a_path_product(self):
        graph = SocialGraph(4, [
            (0, 1, 0.3), (1, 2, 0.7), (3, 1, 0.9), (2, 0, 0.5), (3, 2, 0.2),
        ])
        theta = 0.3 * 0.7  # the branch 2 <- 1 <- 0 lands exactly on θ
        index = PropagationIndex(graph, theta)
        entries = index.build_entries([2, 0, 1, 3])
        assert 0 in entries[0].gamma
        _same_entries(entries, _oracle(index, (2, 0, 1, 3)))

    def test_empty(self):
        graph = preferential_attachment_graph(30, 2, seed=1)
        assert PropagationIndex(graph, 0.01).build_entries([]) == []

    @staticmethod
    def _run(build):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            entries = build()
        return entries, [(w.category, str(w.message)) for w in caught]

    def test_truncation_matches_dfs(self):
        graph = preferential_attachment_graph(300, 5, seed=3)
        nodes = [7, 250, 0, 7, 120]
        index = PropagationIndex(graph, 0.002, max_branches=40)
        got, got_warnings = self._run(lambda: index.build_entries(nodes))
        want, want_warnings = self._run(lambda: _oracle(index, nodes))
        _same_entries(got, want)
        assert got_warnings == want_warnings
        assert any(e.branches == 40 for e in want)  # some were truncated
        strict = PropagationIndex(graph, 0.002, max_branches=40, strict=True)
        with pytest.raises(BudgetExceededError):
            strict.build_entries(nodes)

    def test_lone_target_past_the_chunk_rows(self):
        """A target too big for a multi-target chunk re-runs alone and
        is built by the batch, bit-exact, however many rows it needs."""
        from repro.core.propagation import _BATCH_ROWS

        graph = _dense_graph(9, seed=1)
        index = PropagationIndex(graph, 0.01)
        nodes = [4, 0, 4]
        got, got_warnings = self._run(lambda: index.build_entries(nodes))
        want = _oracle(index, nodes)
        assert min(e.branches for e in want) > _BATCH_ROWS
        _same_entries(got, want)
        assert got_warnings == []

    def test_lone_target_truncated_like_the_dfs(self):
        graph = _dense_graph(9, seed=1)
        index = PropagationIndex(graph, 0.01, max_branches=1000)
        got, got_warnings = self._run(lambda: index.build_entries([0]))
        want, want_warnings = self._run(lambda: _oracle(index, [0]))
        _same_entries(got, want)
        assert got[0].branches == 1000
        assert got_warnings == want_warnings
        assert got_warnings == [(
            RuntimeWarning,
            "propagation entry of node 0 truncated at 1000 branches "
            "(theta=0.01)",
        )]
        strict = PropagationIndex(graph, 0.01, max_branches=1000, strict=True)
        with pytest.raises(BudgetExceededError) as got_error:
            strict.build_entries([0])
        with pytest.raises(BudgetExceededError) as want_error:
            _oracle(strict, [0])
        assert str(got_error.value) == str(want_error.value)

    def test_truncated_lone_target_is_ranked_a_few_times(self, monkeypatch):
        """A lone target past its budget is re-ranked when its rows pass
        twice the budget and once more at the end, not after every
        expanded piece."""
        from repro.core import propagation

        calls = []
        preorder = propagation._preorder

        def counted(levels):
            calls.append(len(levels))
            return preorder(levels)

        monkeypatch.setattr(propagation, "_preorder", counted)
        graph = _dense_graph(10, seed=1)
        index = PropagationIndex(graph, 0.01)
        got, got_warnings = self._run(lambda: index.build_entries([0]))
        assert 1 <= len(calls) <= 4
        want, want_warnings = self._run(lambda: _oracle(index, [0]))
        assert got[0].branches == index.max_branches
        _same_entries(got, want)
        assert got_warnings == want_warnings

    def test_truncated_scratch_grows_with_the_budget_only(self):
        graph = _dense_graph(9, seed=1)

        def peak(max_branches):
            index = PropagationIndex(graph, 0.01, max_branches=max_branches)
            index._max_in()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                tracemalloc.start()
                try:
                    entry = index.build_entries([0])[0]
                    return tracemalloc.get_traced_memory()[1], entry
                finally:
                    tracemalloc.stop()

        full, entry = peak(200_000)
        assert entry.branches > 50_000  # the untruncated expansion
        small, _ = peak(1000)
        large, _ = peak(4000)
        assert large <= 4 * small  # no faster than max_branches
        assert large < full / 2  # the cut bounds what the expansion holds

    def test_scratch_does_not_grow_with_the_batch(self):
        graph = preferential_attachment_graph(2000, 6, seed=42)

        def peak(n_targets):
            index = PropagationIndex(graph, 0.002)
            index._max_in()
            nodes = list(range(0, 2000, 2000 // n_targets))[:n_targets]
            tracemalloc.start()
            try:
                entries = index.build_entries(nodes)
                return tracemalloc.get_traced_memory()[1], entries
            finally:
                tracemalloc.stop()

        small, _ = peak(100)
        large, entries = peak(400)
        # 100 targets already fill a chunk; what grows is the output.
        assert sum(e.branches for e in entries[:100]) > 8192
        assert large - small < 1 << 20


# ---------------------------------------------------------------------------
# Search invariants
# ---------------------------------------------------------------------------


class TestSearchProperties:
    @SETTINGS
    @given(small_graphs(), st.integers(0, 10_000), st.integers(1, 3))
    def test_pruning_preserves_in_index_ranking(self, graph, seed, k):
        """With expansion disabled, Algorithm 10's pruning must return
        exactly the brute-force ranking by in-index score
        ``sum_{rep in Gamma(v)} Gamma(v)[rep] * weight(rep)``.

        (With expansion enabled, scores legitimately *grow* while
        membership is undecided, so only this expansion-free core has an
        exact external reference.)"""
        from repro.core import PersonalizedSearcher, PropagationIndex, TopicSummary
        from repro.topics import TopicIndex

        rng = np.random.default_rng(seed)
        n = graph.n_nodes
        n_topics = int(rng.integers(2, 6))
        assignments = {}
        for t in range(n_topics):
            members = rng.choice(n, size=min(n, 2), replace=False)
            for m in members:
                assignments.setdefault(int(m), []).append(f"topic t{t}")
        index = TopicIndex(n, assignments)
        summaries = {}
        for topic_id in range(index.n_topics):
            nodes = index.topic_nodes(topic_id)
            weight = 1.0 / nodes.size
            summaries[topic_id] = TopicSummary(
                topic_id, {int(v): weight for v in nodes}
            )
        propagation = PropagationIndex(graph, 0.05)
        searcher = PersonalizedSearcher(
            index, summaries, propagation, max_expand_rounds=0
        )
        user = int(rng.integers(n))
        results, _ = searcher.search(user, "topic", k)

        gamma = propagation.entry(user).gamma
        brute = {
            topic_id: sum(
                gamma.get(rep, 0.0) * weight
                for rep, weight in summaries[topic_id].weights.items()
            )
            for topic_id in range(index.n_topics)
        }
        expected = sorted(
            brute, key=lambda t: (-brute[t], index.label(t))
        )[:k]
        assert [r.topic_id for r in results] == expected
        for result in results:
            assert result.influence == pytest.approx(brute[result.topic_id])


# ---------------------------------------------------------------------------
# Summary invariants
# ---------------------------------------------------------------------------


class TestSummaryProperties:
    @SETTINGS
    @given(
        st.dictionaries(
            st.integers(0, 50),
            st.floats(min_value=0.0, max_value=0.2),
            max_size=5,
        )
    )
    def test_summary_weight_bound_enforced(self, weights):
        summary = TopicSummary(0, weights)
        assert 0.0 <= summary.total_weight <= 1.0 + 1e-9
        assert summary.size == len(weights)
