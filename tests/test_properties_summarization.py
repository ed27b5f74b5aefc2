"""Seeded differential harness for the offline summarizers.

The vectorized RCL-A / LRW-A pipelines (bitset reachability, popcount
grouping, batched centroid election, array-native migration) must agree
*bit-exactly* with the frozen scalar reference implementations in
:mod:`tests.oracles.scalar_summarize` on randomly generated (but
fixed-seed) graphs and topic assignments:

* RCL-A: identical Algorithm 1 groupings, identical elected centroids,
  identical summary weight floats - in both reachability modes (exact
  bounded BFS and the walk-index audience approximation).
* LRW-A: identical representative rankings and migrated weights, under
  both absorbing semantics (``absorb_first`` on/off) and both
  reinforcement interpretations (``divrank``/``walk``).

Bit-exactness is not luck: every floating-point number either side
produces is derived from *integer* reachability counts and hop
distances (exact in float64), and the vectorized reductions replicate
the scalar tie-breaking (first-maximum argmax, unbuffered max-scatter).
Both sides share the per-topic RNG derivation, so randomized stages
consume identical streams. The module runs in the tier-1 suite
alongside the search harness.
"""

from __future__ import annotations

import pytest

from repro._utils import coerce_rng
from tests.oracles.scalar_summarize import (
    ScalarLRWSummarizer,
    ScalarRCLSummarizer,
)
from repro.core.lrw import LRWSummarizer
from repro.core.rcl import RCLSummarizer
from repro.graph import preferential_attachment_graph
from repro.topics import TopicIndex
from repro.walks import WalkIndex

SEEDS = (7, 1234)

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


def _setup(seed):
    graph = preferential_attachment_graph(70, 3, seed=seed, reciprocity=0.3)
    rng = coerce_rng(seed + 1)
    topic_index = _random_topic_index(graph.n_nodes, rng, n_topics=10)
    walk_index = WalkIndex(graph, 4, 12, seed=seed + 2).build()
    return graph, topic_index, walk_index


def _assert_identical_summaries(vectorized, scalar, topic_index, context):
    for topic_id in range(topic_index.n_topics):
        got = vectorized.summarize(topic_id)
        want = scalar.summarize(topic_id)
        assert got.topic_id == want.topic_id
        # Bit-exact: same representatives AND the same weight floats.
        assert dict(got.weights) == dict(want.weights), (
            f"{context}: summary diverged for topic {topic_id}"
        )


@pytest.mark.parametrize("seed", SEEDS)
class TestRCLMatchesScalar:
    """Vectorized RCL-A is bit-exact against the frozen scalar pipeline."""

    def test_groupings_bfs_mode(self, seed):
        graph, topic_index, _ = _setup(seed)
        kwargs = dict(max_hops=3, sample_rate=0.2, rep_fraction=0.25,
                      seed=seed)
        vectorized = RCLSummarizer(graph, topic_index, **kwargs)
        scalar = ScalarRCLSummarizer(graph, topic_index, **kwargs)
        for topic_id in range(topic_index.n_topics):
            assert vectorized.cluster_topic(topic_id) == scalar.cluster_topic(
                topic_id
            ), f"grouping diverged for topic {topic_id}"

    def test_summaries_bfs_mode(self, seed):
        graph, topic_index, _ = _setup(seed)
        kwargs = dict(max_hops=3, sample_rate=0.2, rep_fraction=0.25,
                      seed=seed)
        _assert_identical_summaries(
            RCLSummarizer(graph, topic_index, **kwargs),
            ScalarRCLSummarizer(graph, topic_index, **kwargs),
            topic_index, "rcl/bfs",
        )

    def test_summaries_walk_index_mode(self, seed):
        graph, topic_index, walk_index = _setup(seed)
        kwargs = dict(max_hops=3, sample_rate=0.2, rep_fraction=0.25,
                      walk_index=walk_index, seed=seed)
        _assert_identical_summaries(
            RCLSummarizer(graph, topic_index, **kwargs),
            ScalarRCLSummarizer(graph, topic_index, **kwargs),
            topic_index, "rcl/walk-index",
        )

    def test_same_seed_is_deterministic(self, seed):
        graph, topic_index, _ = _setup(seed)
        kwargs = dict(max_hops=3, sample_rate=0.2, rep_fraction=0.25,
                      seed=seed)
        first = RCLSummarizer(graph, topic_index, **kwargs)
        second = RCLSummarizer(graph, topic_index, **kwargs)
        for topic_id in range(topic_index.n_topics):
            assert dict(first.summarize(topic_id).weights) == dict(
                second.summarize(topic_id).weights
            )

    def test_build_order_does_not_matter(self, seed):
        # Per-topic RNG derivation: summarizing topics in reverse order
        # yields identical output, the invariant parallel builds rely on.
        graph, topic_index, _ = _setup(seed)
        kwargs = dict(max_hops=3, sample_rate=0.2, rep_fraction=0.25,
                      seed=seed)
        forward = RCLSummarizer(graph, topic_index, **kwargs)
        backward = RCLSummarizer(graph, topic_index, **kwargs)
        ordered = {
            t: dict(forward.summarize(t).weights)
            for t in range(topic_index.n_topics)
        }
        reversed_ = {
            t: dict(backward.summarize(t).weights)
            for t in reversed(range(topic_index.n_topics))
        }
        assert ordered == reversed_


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("absorb_first", [True, False])
class TestLRWMatchesScalar:
    """Vectorized LRW-A is bit-exact against the frozen scalar migration."""

    def test_summaries_match(self, seed, absorb_first):
        graph, topic_index, walk_index = _setup(seed)
        kwargs = dict(rep_fraction=0.3, absorb_first=absorb_first)
        _assert_identical_summaries(
            LRWSummarizer(graph, topic_index, walk_index, **kwargs),
            ScalarLRWSummarizer(graph, topic_index, walk_index, **kwargs),
            topic_index, f"lrw/absorb_first={absorb_first}",
        )

    def test_representatives_match(self, seed, absorb_first):
        graph, topic_index, walk_index = _setup(seed)
        kwargs = dict(rep_fraction=0.3, absorb_first=absorb_first)
        vectorized = LRWSummarizer(graph, topic_index, walk_index, **kwargs)
        scalar = ScalarLRWSummarizer(
            graph, topic_index, walk_index, **kwargs
        )
        for topic_id in range(topic_index.n_topics):
            assert [int(v) for v in vectorized.representatives(topic_id)] == [
                int(v) for v in scalar.representatives(topic_id)
            ]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("reinforcement", ["divrank", "walk"])
class TestLRWReinforcementVariants:
    """Both Algorithm 7 reinforcement readings stay in lockstep."""

    def test_summaries_match(self, seed, reinforcement):
        graph, topic_index, walk_index = _setup(seed)
        kwargs = dict(rep_fraction=0.3, reinforcement=reinforcement)
        _assert_identical_summaries(
            LRWSummarizer(graph, topic_index, walk_index, **kwargs),
            ScalarLRWSummarizer(graph, topic_index, walk_index, **kwargs),
            topic_index, f"lrw/reinforcement={reinforcement}",
        )
