#!/usr/bin/env python
"""Quickstart: build a PIT-Search engine and run personalized queries.

A thin wrapper over the ``quickstart`` scenario
(:mod:`repro.scenarios`), which owns the dataset and workload
generation. Steps:

1. generate the scenario's dataset (graph + topic space);
2. build the offline indexes lazily through :class:`repro.core.PITEngine`
   and serve them through the :class:`repro.core.ServingEngine` it hands
   out;
3. run the same keyword query for two different users and see that the
   *personalized* rankings differ - the paper's core claim.

Run with: ``python examples/quickstart.py``
"""

from __future__ import annotations

from repro.core import PITEngine
from repro.scenarios import get_scenario


def main() -> None:
    # The scenario's "demo" profile is this example's historical scale:
    # a 600-node slice of the data_2k bundle, instant to build.
    scenario = get_scenario("quickstart")
    data = scenario.generate(seed=7, profile="demo")
    bundle = data.bundle
    print(bundle.describe())

    engine = PITEngine.from_dataset(bundle, summarizer="lrw", seed=7).serving()

    query = "phone"
    users = [3, 42]
    for user in users:
        results, stats = engine.search(user, query, k=5, with_stats=True)
        print(f"\nTop-5 '{query}' topics for user {user} "
              f"(probed {stats.entries_probed} index entries, "
              f"{stats.topics_pruned} topics pruned):")
        for rank, result in enumerate(results, start=1):
            print(f"  {rank}. {result.label:24s} influence={result.influence:.5f}")

    # Same query, different users, different rankings - that is PIT-Search.
    first = [r.label for r in engine.search(users[0], query, k=5)]
    second = [r.label for r in engine.search(users[1], query, k=5)]
    print(f"\nRankings identical for both users? {first == second}")

    print(f"\nThis demo is the {data.name!r} scenario; replay its full "
          f"{len(data.records)}-request trace with:\n"
          f"  pit-search scenario run quickstart --profile demo")


if __name__ == "__main__":
    main()
