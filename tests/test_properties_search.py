"""Seeded property/differential harness for the online search (S26).

Two layers of ground truth over randomly generated (but fixed-seed)
graphs and topic assignments:

* **Differential**: the vectorized
  :class:`~repro.core.search.PersonalizedSearcher` must agree with the
  frozen scalar reference
  (:class:`~tests.oracles.scalar_search.ScalarReferenceSearcher`)
  *bit-exactly* - identical rankings, identical influence floats, and
  identical work stats, including the pruning counters.
* **Oracle**: on tiny graphs (<= 12 nodes) with the propagation
  threshold driven to ``θ = 1e-300``, every cycle-free path qualifies
  for ``Γ(v)`` and the marked frontier is empty, so the search's
  influence must equal Definition 1's literal simple-path enumeration
  (:func:`~repro.core.influence.simple_path_influence`) to 1e-12 -
  including the top-k order.

Both layers run for two fixed seeds, as part of the tier-1 suite.
"""

from __future__ import annotations

import pytest

from tests.oracles.scalar_search import ScalarReferenceSearcher
from repro.core.influence import simple_path_influence
from repro.core.propagation import PropagationIndex
from repro.core.search import PersonalizedSearcher
from repro.core.summarization import TopicSummary
from repro.graph import preferential_attachment_graph
from repro.topics import TopicIndex

from repro._utils import coerce_rng

SEEDS = (7, 1234)

STAT_FIELDS = (
    "topics_considered",
    "topics_pruned",
    "entries_probed",
    "expansion_rounds",
    "representatives_touched",
)

_ADJECTIVES = ("solar", "lunar", "tidal", "polar")
_NOUNS = ("phone", "camera", "drone", "tablet")


def _random_topic_index(n_nodes: int, rng, *, n_topics: int) -> TopicIndex:
    """Seeded random topic assignment: 1-3 topics per node."""
    labels = [
        f"{_ADJECTIVES[i % len(_ADJECTIVES)]} {_NOUNS[i // len(_ADJECTIVES)]}"
        for i in range(n_topics)
    ]
    assignments = {}
    for node in range(n_nodes):
        count = int(rng.integers(1, 4))
        picks = rng.choice(n_topics, size=min(count, n_topics), replace=False)
        assignments[node] = [labels[int(p)] for p in picks]
    # Every label must actually occur so n_topics is deterministic.
    for i, label in enumerate(labels):
        assignments[i % n_nodes] = list(
            set(assignments[i % n_nodes]) | {label}
        )
    return TopicIndex(n_nodes, assignments)


def _identity_summaries(topic_index: TopicIndex):
    """Summaries whose representatives are the topic nodes themselves.

    With uniform weights ``1/|V_t|`` the search's summary-based influence
    coincides with Definition 1's exact ``I(t, v)``, which is what lets
    the oracle below use the literal path enumeration.
    """
    summaries = {}
    for topic_id in range(topic_index.n_topics):
        nodes = topic_index.topic_nodes(topic_id)
        weight = 1.0 / nodes.size
        summaries[topic_id] = TopicSummary(
            topic_id, {int(v): weight for v in nodes}
        )
    return summaries


def _random_summaries(topic_index: TopicIndex, rng):
    """Random representative subsets with random normalized weights."""
    summaries = {}
    for topic_id in range(topic_index.n_topics):
        nodes = topic_index.topic_nodes(topic_id)
        count = max(1, nodes.size // 2)
        reps = rng.choice(nodes, size=count, replace=False)
        raw = rng.random(count) + 0.1
        total = float(raw.sum())
        summaries[topic_id] = TopicSummary(
            topic_id,
            {int(v): float(w) / total for v, w in zip(reps, raw)},
        )
    return summaries


@pytest.mark.parametrize("seed", SEEDS)
class TestVectorizedMatchesScalar:
    """Vectorized and scalar searchers are bit-exact on random inputs."""

    def _setup(self, seed):
        graph = preferential_attachment_graph(
            60, 3, seed=seed, reciprocity=0.3
        )
        rng = coerce_rng(seed + 1)
        topic_index = _random_topic_index(graph.n_nodes, rng, n_topics=8)
        summaries = _random_summaries(topic_index, rng)
        # theta high enough that entries stay partial: the marked
        # frontier is non-empty and Expand rounds actually run.
        propagation = PropagationIndex(graph, 0.01)
        vectorized = PersonalizedSearcher(topic_index, summaries, propagation)
        scalar = ScalarReferenceSearcher(topic_index, summaries, propagation)
        users = [int(u) for u in rng.integers(0, graph.n_nodes, size=6)]
        queries = list(_NOUNS) + ["solar phone"]
        return vectorized, scalar, users, queries

    def test_bit_exact_results_and_stats(self, seed):
        vectorized, scalar, users, queries = self._setup(seed)
        compared = 0
        for user in users:
            for query in queries:
                for k in (1, 3, 10):
                    got, got_stats = vectorized.search(user, query, k)
                    want, want_stats = scalar.search(user, query, k)
                    assert [
                        (r.topic_id, r.label, r.influence) for r in got
                    ] == [
                        (r.topic_id, r.label, r.influence) for r in want
                    ], f"user={user} query={query!r} k={k}"
                    for name in STAT_FIELDS:
                        assert getattr(got_stats, name) == getattr(
                            want_stats, name
                        ), f"{name} diverged for user={user} query={query!r}"
                    compared += 1
        assert compared == len(users) * len(queries) * 3

    def test_expansion_is_actually_exercised(self, seed):
        vectorized, scalar, users, queries = self._setup(seed)
        rounds = 0
        for user in users:
            _, stats = vectorized.search(user, queries[0], 2)
            rounds += stats.expansion_rounds
        assert rounds > 0, "harness never reached the Expand path"

    def test_batched_path_matches_too(self, seed):
        vectorized, scalar, users, queries = self._setup(seed)
        requests = [(user, query) for user in users[:3] for query in queries]
        batched = vectorized.search_many(requests, 5)
        for (user, query), (results, stats) in zip(requests, batched):
            want, want_stats = scalar.search(user, query, 5)
            assert [
                (r.topic_id, r.label, r.influence) for r in results
            ] == [
                (r.topic_id, r.label, r.influence) for r in want
            ]
            for name in STAT_FIELDS:
                assert getattr(stats, name) == getattr(want_stats, name)


@pytest.mark.parametrize("seed", SEEDS)
class TestBruteForceOracle:
    """On tiny graphs with θ ~ 0, search equals the path-enumeration oracle."""

    THETA = 1e-300

    def _setup(self, seed):
        graph = preferential_attachment_graph(
            10, 2, seed=seed, reciprocity=0.4
        )
        assert graph.n_nodes <= 12
        rng = coerce_rng(seed + 2)
        topic_index = _random_topic_index(graph.n_nodes, rng, n_topics=4)
        summaries = _identity_summaries(topic_index)
        propagation = PropagationIndex(graph, self.THETA)
        searcher = PersonalizedSearcher(topic_index, summaries, propagation)
        return graph, topic_index, searcher

    def _oracle_influence(self, graph, topic_index, topic_id, user):
        return simple_path_influence(
            graph,
            [int(v) for v in topic_index.topic_nodes(topic_id)],
            user,
            max_length=graph.n_nodes,
        )

    def test_every_marked_frontier_is_empty(self, seed):
        graph, _, searcher = self._setup(seed)
        propagation = searcher._propagation
        for node in range(graph.n_nodes):
            assert propagation.entry(node).marked == frozenset()

    def test_influences_match_the_enumeration(self, seed):
        graph, topic_index, searcher = self._setup(seed)
        for user in range(graph.n_nodes):
            results, _ = searcher.search(user, _NOUNS[0], 10)
            for result in results:
                expected = self._oracle_influence(
                    graph, topic_index, result.topic_id, user
                )
                assert result.influence == pytest.approx(
                    expected, abs=1e-12
                ), f"user={user} topic={result.label}"

    def test_top_k_order_matches_the_oracle_ranking(self, seed):
        graph, topic_index, searcher = self._setup(seed)
        for user in range(graph.n_nodes):
            for query in _NOUNS:
                related = topic_index.related_topics(query)
                if not related:
                    continue
                oracle = {
                    t: self._oracle_influence(graph, topic_index, t, user)
                    for t in related
                }
                expected = sorted(
                    oracle,
                    key=lambda t: (-oracle[t], topic_index.label(t)),
                )[:3]
                results, stats = searcher.search(user, query, 3)
                assert [r.topic_id for r in results] == expected
                # θ ~ 0 leaves nothing to expand: the whole influence is
                # aggregated from the user's own entry in round zero.
                assert stats.expansion_rounds == 0
                assert stats.entries_probed == 1
