#!/usr/bin/env python
"""Targeted advertising: pick the users most receptive to a campaign topic.

A thin wrapper over the ``targeted-advertising`` scenario
(:mod:`repro.scenarios`), which owns the dataset, the campaign-topic
choice, and the receptive-audience ranking. The paper's introduction
motivates PIT-Search with "target advertising, or personal product
promotion"; this demo inverts the usual query - instead of asking
"which topics influence this user", an advertiser asks "which users are
most influenced by *my* topic" - answered with exactly the same
machinery:

1. build a topic summary (the campaign's representative influencers);
2. rank every candidate user by the topic's exact influence on them;
3. compare the receptive audience against a random audience.

Run with: ``python examples/targeted_advertising.py``
"""

from __future__ import annotations

import numpy as np

from repro.core import PITEngine, topic_influence_vector
from repro.scenarios import campaign_audience, campaign_topic, get_scenario


def main() -> None:
    # The scenario's "demo" profile is this example's historical scale.
    scenario = get_scenario("targeted-advertising")
    bundle = scenario.dataset(21, scenario.params("demo"))
    engine = PITEngine.from_dataset(bundle, summarizer="lrw", seed=21)
    topic_index = bundle.topic_index

    # The campaign topic: the hottest phone-related tag.
    campaign = campaign_topic(topic_index)
    label = topic_index.label(campaign)
    print(f"Campaign topic: {label!r} "
          f"({topic_index.topic_size(campaign)} organic endorsers)")

    # The topic summary is the campaign's influencer shortlist.
    summary = engine.summary(campaign)
    print(f"Representative influencers ({summary.size}):")
    for node in summary.representatives[:8]:
        print(f"  user {node:4d}  weight={summary.weight(node):.3f}  "
              f"followers={bundle.graph.in_degree(node)}")

    # Exact influence of the topic on every user = expected receptiveness.
    influence = topic_influence_vector(
        bundle.graph, topic_index.topic_nodes(campaign), 6
    )
    endorsers = set(int(v) for v in topic_index.topic_nodes(campaign))
    candidates = [v for v in bundle.graph.nodes if v not in endorsers]

    audience = campaign_audience(bundle, campaign, size=20)
    rng = np.random.default_rng(5)
    random_audience = rng.choice(candidates, size=20, replace=False)
    print(f"\nTop-20 receptive audience: mean influence "
          f"{float(np.mean([influence[v] for v in audience])):.5f}")
    print(f"Random 20-user audience:   mean influence "
          f"{float(np.mean([influence[v] for v in random_audience])):.5f}")

    # Sanity: the targeted audience should also see the campaign topic rank
    # highly in their own PIT-Search results.
    hits = 0
    serving = engine.serving()
    for user in audience[:10]:
        results = serving.search(user, "phone", k=5)
        hits += any(r.topic_id == campaign for r in results)
    print(f"\nCampaign topic in the personal top-5 of {hits}/10 "
          f"targeted users")

    print("\nReplay the audience's query stream as serving traffic with:\n"
          "  pit-search scenario run targeted-advertising --profile demo")


if __name__ == "__main__":
    main()
