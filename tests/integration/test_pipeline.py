"""Integration tests: the full offline + online pipeline on one dataset.

These run both summarizers and all three baselines over a shared bundle and
check the cross-cutting guarantees the unit tests cannot: agreement between
the approximate and exhaustive stacks, pruning soundness (pruned search ==
exhaustive heap evaluation), and determinism end to end.
"""

import numpy as np
import pytest

from repro.baselines import (
    BaseDijkstraRanker,
    BaseMatrixRanker,
    BasePropagationRanker,
)
from repro.core import PITEngine, PersonalizedSearcher
from repro.datasets import data_2k, generate_workload
from repro.evaluation import precision_at_k


@pytest.fixture(scope="module")
def bundle():
    return data_2k(seed=31, n_nodes=500, with_corpus=False)


@pytest.fixture(scope="module")
def workload(bundle):
    return generate_workload(bundle, n_queries=2, n_users=2, seed=32)


@pytest.fixture(scope="module")
def lrw_engine(bundle):
    return PITEngine.from_dataset(
        bundle, summarizer="lrw", samples_per_node=10, seed=33
    ).serving()


class TestEndToEnd:
    def test_every_method_answers_every_pair(self, bundle, workload, lrw_engine):
        graph, topic_index = bundle.graph, bundle.topic_index
        methods = {
            "matrix": BaseMatrixRanker(graph, topic_index).search,
            "dijkstra": BaseDijkstraRanker(
                graph, topic_index, deviation_budget=50
            ).search,
            "propagation": BasePropagationRanker(
                graph, topic_index,
                propagation_index=lrw_engine.propagation_index,
            ).search,
            "lrw": lrw_engine.search,
        }
        for user, query in workload.pairs():
            expected = len(topic_index.related_topics(query))
            for name, search in methods.items():
                results = search(user, query, 5)
                assert len(results) == min(5, expected), name
                scores = [r.influence for r in results]
                assert scores == sorted(scores, reverse=True), name

    def test_approximations_beat_random(self, bundle, workload, lrw_engine):
        graph, topic_index = bundle.graph, bundle.topic_index
        truth = BaseMatrixRanker(graph, topic_index, cache_vectors=True)
        k = 5
        values = [
            precision_at_k(
                lrw_engine.search(user, query, k),
                truth.search(user, query, k),
                k,
            )
            for user, query in workload.pairs()
        ]
        n_topics = np.mean([
            len(topic_index.related_topics(q)) for q in workload.queries
        ])
        random_baseline = k / n_topics
        assert float(np.mean(values)) > random_baseline

    def test_propagation_tracks_ground_truth(self, bundle, workload, lrw_engine):
        graph, topic_index = bundle.graph, bundle.topic_index
        truth = BaseMatrixRanker(graph, topic_index, cache_vectors=True)
        ranker = BasePropagationRanker(
            graph, topic_index,
            propagation_index=lrw_engine.propagation_index,
        )
        k = 5
        values = [
            precision_at_k(
                ranker.search(user, query, k),
                truth.search(user, query, k),
                k,
            )
            for user, query in workload.pairs()
        ]
        assert float(np.mean(values)) >= 0.4

    def test_pruned_search_matches_exhaustive_membership(
        self, bundle, workload, lrw_engine
    ):
        """Algorithm 10's pruning must not change top-k membership.

        The exhaustive reference evaluates every topic's full summary
        against the same propagation entries (user entry + expansion
        discounting disabled by giving every topic its complete in-index
        evidence): we rebuild the score each topic would reach if never
        pruned, then compare the top-k id sets.
        """
        topic_index = bundle.topic_index
        k = 3
        for user, query in workload.pairs():
            results, stats = lrw_engine.search(user, query, k, with_stats=True)
            # Exhaustive: k = all topics disables membership-based pruning.
            all_topics = len(topic_index.related_topics(query))
            full, _ = lrw_engine._searcher.search(user, query, all_topics)
            full_top = {r.topic_id for r in full[:k]}
            pruned_top = {r.topic_id for r in results}
            overlap = len(full_top & pruned_top)
            # Scores only grow during refinement, so pruned membership can
            # only differ on ties; demand near-perfect agreement.
            assert overlap >= k - 1

    def test_search_determinism_across_runs(self, bundle, workload):
        def run():
            engine = PITEngine.from_dataset(
                bundle, summarizer="lrw", samples_per_node=10, seed=77
            ).serving()
            output = []
            for user, query in workload.pairs():
                output.append(
                    [(r.topic_id, round(r.influence, 12))
                     for r in engine.search(user, query, 4)]
                )
            return output

        assert run() == run()


class TestCorpusPipeline:
    def test_lda_extraction_round_trip(self):
        bundle = data_2k(seed=41, n_nodes=120, with_corpus=True)
        from repro.topics import TopicExtractor, TopicIndex

        extractor = TopicExtractor(
            n_topics=6, tags_per_user=5, lda_iterations=20, seed=42
        )
        result = extractor.run(bundle.corpus, bundle.tag_bank)
        index = TopicIndex(bundle.graph.n_nodes, result.assignments)
        assert index.n_topics > 0
        # The extracted index is queryable end to end.
        engine = PITEngine(
            bundle.graph, index, summarizer="lrw",
            samples_per_node=5, seed=43,
        )
        user = next(iter(result.assignments))
        token = result.assignments[user][0].split()[-1]
        results = engine.serving().search(user, token, k=3)
        assert isinstance(results, list)
