#!/usr/bin/env python
"""The paper's Example 1: which phone should User 3 buy?

A thin wrapper over the ``phone-recommendation`` scenario
(:mod:`repro.scenarios`), which owns the Figure 1 network - the 15-user
graph with Figure 2's influence weights and the three phone topics
(apple/samsung/htc). This demo shows:

* the exact influence of each topic on User 3 (samsung wins, as in the
  paper);
* that User 7 gets a different top-1 (htc) for the same query;
* how the PIT engine's approximate answer compares to the exact one.

Run with: ``python examples/phone_recommendation.py``
"""

from __future__ import annotations

from repro.baselines import BaseMatrixRanker
from repro.core import PITEngine, topic_influence_vector
from repro.scenarios import TOPICS, build_phone_network


def main() -> None:
    graph, topic_index = build_phone_network()

    print("Exact topic influence (walks up to length 6):")
    for user in (3, 7, 14):
        scores = {}
        for label in TOPICS:
            vector = topic_influence_vector(
                graph, topic_index.topic_nodes(label), 6
            )
            scores[label] = float(vector[user])
        ranked = sorted(scores.items(), key=lambda item: -item[1])
        row = ", ".join(f"{label}={score:.4f}" for label, score in ranked)
        print(f"  user {user:2d}: {row}")
        print(f"           -> recommend: {ranked[0][0]}")

    print("\nBaseMatrix ranker (the paper's ground truth) for user 3:")
    ranker = BaseMatrixRanker(graph, topic_index)
    for result in ranker.search(3, "phone", k=3):
        print(f"  {result.label:16s} {result.influence:.4f}")

    print("\nPIT engine (LRW-A summaries + propagation index) for user 3:")
    # On a 15-node toy the representative budget is the whole topic set
    # (mu=1), i.e. summarization is exact and only the theta-truncation of
    # the propagation index remains approximate.
    engine = PITEngine(
        graph, topic_index, summarizer="lrw", theta=0.005,
        rep_fraction=1.0, samples_per_node=50, seed=1,
    )
    for result in engine.serving().search(3, "phone", k=3):
        print(f"  {result.label:16s} {result.influence:.4f}")

    print("\nReplay Figure 1 as serving traffic (oracle-gated) with:\n"
          "  pit-search scenario run phone-recommendation")


if __name__ == "__main__":
    main()
