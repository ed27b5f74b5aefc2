"""Oracle-bounded quality metrics for scenarios.

Each scenario carries a *small instance* - a graph tiny enough (<= 16
nodes) that Definition 1's literal simple-path enumeration
(:func:`~repro.core.influence.simple_path_influence`) is affordable -
and two quality evaluations against it, mirroring the property harness
(``tests/test_properties_search.py``):

* :func:`evaluate_exact` drives ``θ = 1e-300`` with *identity*
  summaries (every topic node a representative, uniform ``1/|V_t|``
  weights), where the search's influence provably equals the
  enumeration. The gate is strict: precision 1.0, influence error
  within float tolerance. This is the end-to-end correctness check -
  if replaying a scenario through the serving stack ever broke ranking,
  this catches it.
* :func:`evaluate_summarized` runs the same instance through a real
  :class:`~repro.core.engine.PITEngine` summarizer (the paper's actual
  system) and reports mean top-k precision against the oracle ranking -
  a *quality trajectory* number, gated per scenario with a calibrated
  floor rather than 1.0 (summaries are an approximation by design).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .._utils import SeedLike, coerce_rng
from ..core.engine import PITEngine
from ..core.influence import simple_path_influence
from ..core.propagation import PropagationIndex
from ..core.search import PersonalizedSearcher
from ..core.summarization import TopicSummary
from ..exceptions import ConfigurationError
from ..graph import SocialGraph, preferential_attachment_graph
from ..topics import TopicIndex

__all__ = [
    "OracleInstance",
    "evaluate_exact",
    "evaluate_summarized",
    "identity_summaries",
    "random_oracle_instance",
]

#: θ low enough that every cycle-free path qualifies for Γ(v): the
#: marked frontier is empty and summary influence is exact.
ORACLE_THETA = 1e-300

_ADJECTIVES = ("solar", "lunar", "tidal", "polar")
_NOUNS = ("phone", "camera", "drone", "tablet")


@dataclass(frozen=True)
class OracleInstance:
    """A brute-force-checkable miniature of a scenario's workload."""

    graph: SocialGraph
    topic_index: TopicIndex
    queries: Tuple[str, ...]
    k: int = 3

    def __post_init__(self):
        if self.graph.n_nodes > 16:
            raise ConfigurationError(
                f"oracle instances must stay brute-forceable: got "
                f"{self.graph.n_nodes} nodes (max 16)"
            )
        if not self.queries:
            raise ConfigurationError("oracle instance needs >= 1 query")


def identity_summaries(topic_index: TopicIndex) -> Dict[int, TopicSummary]:
    """Uniform-weight summaries over every topic node (exact influence)."""
    summaries = {}
    for topic_id in range(topic_index.n_topics):
        nodes = topic_index.topic_nodes(topic_id)
        weight = 1.0 / nodes.size
        summaries[topic_id] = TopicSummary(
            topic_id, {int(v): weight for v in nodes}
        )
    return summaries


def random_oracle_instance(
    seed: int,
    *,
    n_nodes: int = 10,
    n_topics: int = 4,
    queries: Sequence[str] = _NOUNS,
    k: int = 3,
) -> OracleInstance:
    """Seeded random instance in the property harness's mold."""
    graph = preferential_attachment_graph(
        n_nodes, 2, seed=seed, reciprocity=0.4
    )
    rng = coerce_rng(seed + 2)
    labels = [
        f"{_ADJECTIVES[i % len(_ADJECTIVES)]} {_NOUNS[i // len(_ADJECTIVES)]}"
        for i in range(n_topics)
    ]
    assignments = {}
    for node in range(n_nodes):
        count = int(rng.integers(1, 4))
        picks = rng.choice(n_topics, size=min(count, n_topics), replace=False)
        assignments[node] = [labels[int(p)] for p in picks]
    for i, label in enumerate(labels):
        assignments[i % n_nodes] = list(
            set(assignments[i % n_nodes]) | {label}
        )
    topic_index = TopicIndex(n_nodes, assignments)
    return OracleInstance(
        graph=graph,
        topic_index=topic_index,
        queries=tuple(queries),
        k=k,
    )


def _oracle_ranking(
    instance: OracleInstance, query: str, user: int
) -> Tuple[List[int], Dict[int, float]]:
    """Exact top-k topic ids (ties broken by label) and all scores."""
    topic_index = instance.topic_index
    related = topic_index.related_topics(query)
    scores = {
        t: simple_path_influence(
            instance.graph,
            [int(v) for v in topic_index.topic_nodes(t)],
            user,
            max_length=instance.graph.n_nodes,
        )
        for t in related
    }
    expected = sorted(
        scores, key=lambda t: (-scores[t], topic_index.label(t))
    )[: instance.k]
    return expected, scores


def _precision(got: Sequence[int], expected: Sequence[int]) -> float:
    if not expected:
        return 1.0
    return len(set(got) & set(expected)) / len(expected)


def evaluate_exact(instance: OracleInstance) -> Dict[str, object]:
    """Search with identity summaries at ``θ ~ 0`` vs. the enumeration.

    Returns ``{"precision", "max_influence_error", "n_checked"}`` where
    precision is the mean top-k set precision (1.0 expected - this is
    the hard gate) and the influence error is the worst absolute
    deviation from Definition 1 across every returned result.
    """
    searcher = PersonalizedSearcher(
        instance.topic_index,
        identity_summaries(instance.topic_index),
        PropagationIndex(instance.graph, ORACLE_THETA),
    )
    precisions: List[float] = []
    max_error = 0.0
    n_checked = 0
    for user in range(instance.graph.n_nodes):
        for query in instance.queries:
            expected, scores = _oracle_ranking(instance, query, user)
            if not expected:
                continue
            results, _ = searcher.search(user, query, instance.k)
            got = [r.topic_id for r in results]
            precisions.append(_precision(got, expected))
            for result in results:
                error = abs(result.influence - scores[result.topic_id])
                if error > max_error:
                    max_error = error
            n_checked += 1
    if not n_checked:
        raise ConfigurationError(
            "oracle instance matched no topics for any query"
        )
    return {
        "precision": sum(precisions) / len(precisions),
        "max_influence_error": max_error,
        "n_checked": n_checked,
    }


def evaluate_summarized(
    instance: OracleInstance,
    *,
    summarizer: str = "rcl",
    rep_fraction: float = 0.5,
    seed: SeedLike = 0,
) -> Dict[str, object]:
    """Mean top-k precision of a real summarizer vs. the oracle ranking."""
    engine = PITEngine(
        instance.graph,
        instance.topic_index,
        summarizer=summarizer,
        theta=ORACLE_THETA,
        rep_fraction=rep_fraction,
        seed=seed,
    ).serving()
    precisions: List[float] = []
    for user in range(instance.graph.n_nodes):
        for query in instance.queries:
            expected, _ = _oracle_ranking(instance, query, user)
            if not expected:
                continue
            results = engine.search(user=user, query=query, k=instance.k)
            precisions.append(
                _precision([r.topic_id for r in results], expected)
            )
    if not precisions:
        raise ConfigurationError(
            "oracle instance matched no topics for any query"
        )
    return {
        "precision": sum(precisions) / len(precisions),
        "n_checked": len(precisions),
        "summarizer": summarizer,
        "rep_fraction": rep_fraction,
    }
