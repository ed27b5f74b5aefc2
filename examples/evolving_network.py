#!/usr/bin/env python
"""Evolving network: incremental index maintenance (paper §4.4).

A thin wrapper over the ``evolving-network`` scenario
(:mod:`repro.scenarios`), which owns the dataset and the hot-topic
update construction. "The offline pre-processing is updated after a
period of time when the social network and topics have changed." This
demo simulates a day of activity - users pick up and drop topics - and
shows that:

1. only the summaries of *changed* topics are invalidated (unchanged
   topics keep their cached summaries);
2. search results shift to reflect the new conversation landscape;
3. an edge change rebuilds only the propagation entries that could see
   it, not the whole index.

Run with: ``python examples/evolving_network.py``
"""

from __future__ import annotations

from repro.core import (
    GraphDelta,
    PITEngine,
    apply_graph_delta,
    apply_topic_update,
)
from repro.scenarios import get_scenario, hot_topic_update


def main() -> None:
    # The scenario's "demo" profile is this example's historical scale.
    scenario = get_scenario("evolving-network")
    bundle = scenario.dataset(99, scenario.params("demo"))
    engine = PITEngine.from_dataset(bundle, summarizer="lrw", seed=99)

    user, query, k = 10, "music", 5
    print("Before the update:")
    before = engine.serving().search(user, query, k)
    for result in before:
        print(f"  {result.label:24s} {result.influence:.5f}")

    # Warm a few summaries so there is a cache to preserve.
    for topic in bundle.topic_index.related_topics(query)[:6]:
        engine.summary(topic)
    warmed = engine.n_summaries
    print(f"\nSummaries cached before update: {warmed}")

    # A burst of activity: user 10's strongest influencers start talking
    # about a brand-new topic (the scenario's churn event, applied live).
    hot_label = "sold out festival music"
    update = hot_topic_update(engine, user, hot_label=hot_label)
    influencers = sorted(update.add)
    stats = apply_topic_update(engine, update)
    print(f"Update applied: kept {stats['kept']} cached summaries, "
          f"invalidated {stats['invalidated']}, "
          f"{stats['topics']} topics total")

    print("\nAfter the update:")
    after = engine.serving().search(user, query, k)
    for result in after:
        marker = "  <- new" if result.label == hot_label else ""
        print(f"  {result.label:24s} {result.influence:.5f}{marker}")

    appeared = any(r.label == hot_label for r in after)
    print(f"\nNew topic entered user {user}'s top-{k}? {appeared}")

    # Structural change: two influencers' strongest out-edges weaken.
    engine.propagation_index.build_all()
    reweights = []
    for source in influencers[:2]:
        targets, probabilities = engine.graph.out_edges(source)
        if targets.size:
            target, probability = max(
                zip(targets.tolist(), probabilities.tolist()),
                key=lambda edge: edge[1],
            )
            reweights.append((source, target, probability / 2))
    delta = apply_graph_delta(engine, GraphDelta(reweights=tuple(reweights)))
    print(f"Edge change rebuilt {delta['entries_rebuilt']} of "
          f"{engine.graph.n_nodes} propagation entries "
          f"({delta['entries_copied']} carried over)")
    engine.serving().search(user, query, k)
    print("Search after the partial rebuild still works.")

    print("\nReplay churn against the serving stack (invalidation + "
          "reload mid-trace) with:\n"
          "  pit-search scenario run evolving-network --profile demo")


if __name__ == "__main__":
    main()
