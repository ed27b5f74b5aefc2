"""Scalar-vs-vectorized parity for the online search (Algorithms 10-11).

The array-native :class:`PersonalizedSearcher` must reproduce the
retained pre-vectorization reference (:mod:`tests.oracles.scalar_search`)
exactly: identical rankings, influences to 1e-12 (in practice bit-exact,
because summaries store their weights in sorted representative order so
both paths accumulate floats identically), and identical work stats -
including the pruning counters, which are sensitive to the bound
sequencing inside Expand.
"""

import pytest

from repro.core import (
    PersonalizedSearcher,
    PITEngine,
    PropagationIndex,
    TopicSummary,
)
from tests.oracles.scalar_search import ScalarReferenceSearcher
from repro.datasets import data_2k, generate_workload
from repro.graph import GraphBuilder
from repro.topics import TopicIndex

STAT_FIELDS = (
    "topics_considered",
    "topics_pruned",
    "entries_probed",
    "expansion_rounds",
    "representatives_touched",
)


def assert_same_outcome(vec_outcome, ref_outcome):
    vec_results, vec_stats = vec_outcome
    ref_results, ref_stats = ref_outcome
    assert [(r.topic_id, r.label) for r in vec_results] == [
        (r.topic_id, r.label) for r in ref_results
    ]
    for got, want in zip(vec_results, ref_results):
        assert abs(got.influence - want.influence) <= 1e-12
    for name in STAT_FIELDS:
        assert getattr(vec_stats, name) == getattr(ref_stats, name), name


@pytest.fixture(scope="module")
def bundle():
    return data_2k(seed=23, n_nodes=300, with_corpus=True)


@pytest.fixture(scope="module")
def workload(bundle):
    return list(
        generate_workload(bundle, n_queries=6, n_users=4, seed=23).pairs()
    )


@pytest.fixture(scope="module", params=["lrw", "rcl"])
def stack(request, bundle):
    """(engine, scalar reference) sharing one index stack per summarizer."""
    builder = PITEngine.from_dataset(
        bundle, summarizer=request.param, theta=0.004, seed=23
    )
    engine = builder.serving()
    scalar = ScalarReferenceSearcher(
        builder.topic_index, builder.summary, builder.propagation_index
    )
    return engine, scalar


class TestWorkloadParity:
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_single_requests_match_reference(self, stack, workload, k):
        engine, scalar = stack
        for user, query in workload:
            assert_same_outcome(
                engine._searcher.search(user, query, k),
                scalar.search(user, query, k),
            )

    def test_batched_requests_match_reference(self, stack, workload):
        engine, scalar = stack
        batched = engine._searcher.search_many(workload, k=5)
        assert len(batched) == len(workload)
        for (user, query), outcome in zip(workload, batched):
            assert_same_outcome(outcome, scalar.search(user, query, 5))

    def test_search_many_matches_search(self, stack, workload):
        """Grouped execution must not change any per-request answer."""
        engine, _ = stack
        searcher = engine._searcher
        batched = searcher.search_many(workload, k=5)
        for (user, query), outcome in zip(workload, batched):
            single = searcher.search(user, query, 5)
            assert [(r.topic_id, r.influence) for r in outcome[0]] == [
                (r.topic_id, r.influence) for r in single[0]
            ]


@pytest.fixture
def edge_stack():
    """Small deterministic stack with a leaf user and a zero-weight topic.

    Graph: 1 -> 0 (0.5), 2 -> 0 (0.3), 3 -> 1 (0.4), 4 -> 2 (0.4).
    Nodes 3 and 4 have no in-edges, so their Γ is empty.
    """
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
            4: ["zero topic"],
        },
    )
    summaries = {
        topic_index.resolve("alpha topic"): TopicSummary(
            topic_index.resolve("alpha topic"), {1: 1.0}
        ),
        topic_index.resolve("beta topic"): TopicSummary(
            topic_index.resolve("beta topic"), {2: 0.7, 4: 0.3}
        ),
        topic_index.resolve("gamma topic"): TopicSummary(
            topic_index.resolve("gamma topic"), {3: 1.0}
        ),
        # A summary whose representatives carry no weight at all.
        topic_index.resolve("zero topic"): TopicSummary(
            topic_index.resolve("zero topic"), {1: 0.0, 4: 0.0}
        ),
    }
    propagation = PropagationIndex(graph, 0.05)
    vec = PersonalizedSearcher(topic_index, summaries, propagation)
    ref = ScalarReferenceSearcher(topic_index, summaries, propagation)
    return vec, ref


class TestEdgeCaseParity:
    def test_k_exceeds_topic_count(self, edge_stack):
        vec, ref = edge_stack
        assert_same_outcome(vec.search(0, "topic", 50), ref.search(0, "topic", 50))
        results, _ = vec.search(0, "topic", 50)
        assert len(results) == 4

    def test_query_matching_no_topics(self, edge_stack):
        vec, ref = edge_stack
        assert_same_outcome(
            vec.search(0, "unrelated keywords", 3),
            ref.search(0, "unrelated keywords", 3),
        )
        assert vec.search(0, "unrelated keywords", 3)[0] == []

    def test_user_with_empty_gamma(self, edge_stack):
        vec, ref = edge_stack
        for user in (3, 4):
            assert_same_outcome(
                vec.search(user, "topic", 4), ref.search(user, "topic", 4)
            )

    def test_zero_weight_summary(self, edge_stack):
        vec, ref = edge_stack
        assert_same_outcome(vec.search(0, "zero", 2), ref.search(0, "zero", 2))
        results, _ = vec.search(0, "zero", 2)
        assert all(r.influence == 0.0 for r in results)

    def test_every_user_every_k(self, edge_stack):
        vec, ref = edge_stack
        for user in range(5):
            for k in (1, 2, 4, 9):
                assert_same_outcome(
                    vec.search(user, "topic", k), ref.search(user, "topic", k)
                )


def assert_bit_exact(vec_outcome, ref_outcome):
    vec_results, vec_stats = vec_outcome
    ref_results, ref_stats = ref_outcome
    assert [(r.topic_id, r.label, r.influence) for r in vec_results] == [
        (r.topic_id, r.label, r.influence) for r in ref_results
    ]
    assert all(type(r.influence) is float for r in vec_results)
    for name in STAT_FIELDS:
        assert getattr(vec_stats, name) == getattr(ref_stats, name), name


@pytest.fixture
def sparse_stack():
    """Edges of the sparse Γ∩summary probe, at theta 0.3.

    Graph: 1 -> 0 (0.5), 2 -> 1 (0.5), 3 -> 1 (0.5), 5 -> 0 (0.6),
    6 -> 5 (0.1). Γ(0) = {1, 5}, both marked, and Expand visits 5
    first; Γ(1) = {2, 3}; Γ(5) is empty (6 -> 5 is below theta), and so
    are Γ(2), Γ(3), Γ(4), Γ(6).
    Topics "far *" have their representatives only outside Γ(0), "twin
    *" share node 1 (in Γ(0)) and node 2 (reached by expanding 1).
    """
    builder = GraphBuilder(7)
    builder.add_edges([
        (1, 0, 0.5),
        (2, 1, 0.5),
        (3, 1, 0.5),
        (5, 0, 0.6),
        (6, 5, 0.1),
    ])
    graph = builder.build()
    topic_index = TopicIndex(
        7,
        {
            2: ["far one", "twin one", "twin two"],
            3: ["far two", "twin three"],
            1: ["twin one", "twin two"],
        },
    )
    reps = {
        "far one": {2: 1.0},
        "far two": {3: 1.0},
        "twin one": {1: 0.6, 2: 0.4},
        "twin two": {1: 0.5, 2: 0.5},
        "twin three": {3: 1.0},
    }
    summaries = {
        topic_index.resolve(label): TopicSummary(
            topic_index.resolve(label), weights
        )
        for label, weights in reps.items()
    }
    propagation = PropagationIndex(graph, 0.3)
    vec = PersonalizedSearcher(topic_index, summaries, propagation)
    ref = ScalarReferenceSearcher(topic_index, summaries, propagation)
    return vec, ref


class TestSparseProbeEdges:
    """Bit-exact against the scalar reference where the sparse probe
    finds nothing, or finds one node for several topics."""

    def test_no_representative_in_gamma_gains_by_expansion(self, sparse_stack):
        vec, ref = sparse_stack
        outcome = vec.search(0, "far", 1)
        assert_bit_exact(outcome, ref.search(0, "far", 1))
        results, stats = outcome
        assert stats.expansion_rounds == 1
        assert results[0].influence > 0.0
        assert_bit_exact(vec.search(0, "far", 2), ref.search(0, "far", 2))

    def test_representative_of_two_topics(self, sparse_stack):
        vec, ref = sparse_stack
        for k in (1, 2, 3):
            outcome = vec.search(0, "twin", k)
            assert_bit_exact(outcome, ref.search(0, "twin", k))
        # Node 1 scores both twins from Γ(0); expanding 1 finds node 2
        # for both of them again.
        results, stats = vec.search(0, "twin", 2)
        assert stats.expansion_rounds == 1
        assert [r.label for r in results] == ["twin one", "twin two"]

    def test_empty_gamma(self, sparse_stack):
        vec, ref = sparse_stack
        for user in (2, 3, 4, 6):
            for query in ("far", "twin"):
                assert_bit_exact(
                    vec.search(user, query, 2), ref.search(user, query, 2)
                )
        # Expand probes node 5's empty Γ before node 1's.
        _, stats = vec.search(0, "far", 1)
        assert stats.entries_probed == 3

    def test_batched_matches_reference(self, sparse_stack):
        vec, ref = sparse_stack
        requests = [
            (user, query) for query in ("far", "twin") for user in range(7)
        ]
        for (user, query), outcome in zip(
            requests, vec.search_many(requests, k=2)
        ):
            assert_bit_exact(outcome, ref.search(user, query, 2))
