"""The scenario catalogue: six seeded, replayable workloads.

Three promote the long-standing ``examples/`` demos into regression
workloads (the examples are now thin wrappers over the helpers here);
two are adversarial, built to fight a specific serving-layer defense;
``quickstart`` is the uniform baseline the others are read against.

========================  ==================================================
``quickstart``            Zipf steady-state traffic (the PR 7/8 bench shape)
``targeted-advertising``  one campaign topic, its receptive audience querying
``phone-recommendation``  the paper's Figure 1/2 network, exact summaries
``evolving-network``      mid-trace churn: invalidation + structural reload
``flash-crowd``           hub query spike vs. coalescer/admission control
``topic-churn``           repeated reloads invalidating precompute heads
========================  ==================================================
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.dynamics import TopicUpdate
from ..core.influence import topic_influence_vector
from ..datasets import DatasetBundle, data_2k
from ..datasets.workload import Workload, generate_workload, replay_requests
from ..graph import GraphBuilder, SocialGraph
from ..topics import KeywordQuery, TopicIndex
from .base import Scenario, register
from .quality import OracleInstance, random_oracle_instance
from .trace import timestamped

__all__ = [
    "EDGES",
    "TOPICS",
    "EvolvingNetworkScenario",
    "FlashCrowdScenario",
    "PhoneRecommendationScenario",
    "QuickstartScenario",
    "TargetedAdvertisingScenario",
    "TopicChurnScenario",
    "build_phone_network",
    "campaign_audience",
    "campaign_topic",
    "hot_topic_update",
]


# ---------------------------------------------------------------------------
# Shared helpers (also the examples' building blocks)
# ---------------------------------------------------------------------------

#: Figure 1's edges with weights calibrated to reproduce Figure 2's path
#: table (e.g. path 5 -> 3 carries 0.6 and 2 -> 1 -> 3 carries 0.06).
EDGES = [
    (2, 1, 0.1), (1, 3, 0.6), (5, 3, 0.6), (5, 7, 0.1), (7, 13, 0.4),
    (13, 12, 0.8), (12, 10, 0.5), (10, 6, 0.4), (6, 3, 0.15), (9, 8, 0.3),
    (8, 13, 0.14), (15, 9, 0.9), (1, 2, 0.3), (3, 4, 0.4), (4, 14, 0.5),
    (11, 12, 0.3), (14, 11, 0.4), (6, 10, 0.3), (13, 7, 0.2),
]

#: Users who posted positively about each phone (user 13 mentions all
#: three, as in the paper).
TOPICS = {
    "apple phone": [2, 5, 13, 9, 15],
    "samsung phone": [1, 13, 12, 14],
    "htc phone": [6, 13, 10],
}


def build_phone_network() -> Tuple[SocialGraph, TopicIndex]:
    """The paper's Example 1 network: Figure 1 graph + three phone topics."""
    builder = GraphBuilder(16)
    builder.add_edges(EDGES)
    graph = builder.build()
    assignment: Dict[int, List[str]] = {}
    for label, users in TOPICS.items():
        for user in users:
            assignment.setdefault(user, []).append(label)
    return graph, TopicIndex(16, assignment)


def campaign_topic(topic_index: TopicIndex, keyword: str = "phone") -> int:
    """The hottest *keyword*-related topic - the advertiser's campaign."""
    related = topic_index.related_topics(keyword)
    return max(related, key=topic_index.topic_size)


def campaign_audience(
    bundle: DatasetBundle,
    topic: int,
    *,
    size: int = 20,
    length: int = 6,
) -> List[int]:
    """Users most receptive to *topic*, by exact influence propagation.

    Ranks non-endorsers by the topic's exact influence on them
    (:func:`~repro.core.influence.topic_influence_vector`) - the
    deterministic, summarizer-free half of the targeted-advertising
    story, shared by the scenario's trace generator and the example.
    """
    influence = topic_influence_vector(
        bundle.graph, bundle.topic_index.topic_nodes(topic), length
    )
    endorsers = set(
        int(v) for v in bundle.topic_index.topic_nodes(topic)
    )
    candidates = [v for v in bundle.graph.nodes if v not in endorsers]
    ranked = sorted(candidates, key=lambda v: (-float(influence[v]), v))
    return ranked[:size]


def hot_topic_update(
    engine,
    user: int,
    *,
    hot_label: str = "sold out festival music",
    count: int = 8,
) -> TopicUpdate:
    """A burst of activity: *user*'s strongest influencers adopt a topic.

    Picks the top-*count* nodes of the user's propagation entry Γ(v) and
    returns the :class:`~repro.core.dynamics.TopicUpdate` that has them
    all start talking about *hot_label* - the evolving-network example's
    update, reusable against any engine.
    """
    entry = engine.propagation_index.entry(user)
    influencers = sorted(
        entry.gamma, key=lambda v: (-entry.gamma[v], v)
    )[:count] or [1, 2, 3]
    return TopicUpdate(add={v: (hot_label,) for v in influencers})


def _zipf_trace(
    bundle: DatasetBundle,
    seed: int,
    params: Dict[str, object],
    *,
    skew: float,
) -> List[Dict[str, object]]:
    """The shared workload-then-replay-then-timestamp pipeline."""
    workload = generate_workload(
        bundle,
        n_queries=int(params["n_queries"]),
        n_users=int(params["n_users"]),
        seed=seed,
    )
    records = replay_requests(
        workload,
        n_requests=int(params["n_requests"]),
        k=int(params.get("k", 5)),
        skew=skew,
        seed=seed + 1,
    )
    return timestamped(records, burst=int(params.get("burst", 4)))


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------


@register
class QuickstartScenario(Scenario):
    """Steady-state Zipf traffic over the small synthetic dataset."""

    name = "quickstart"
    title = "Steady-state Zipf traffic"
    description = (
        "The serving benchmarks' bread-and-butter shape: a Zipf-skewed "
        "request stream over data_2k, no events. The baseline every "
        "other scenario's trajectory is read against."
    )
    default_seed = 7
    profiles = {
        "default": {
            "n_nodes": 300, "n_queries": 8, "n_users": 6,
            "n_requests": 240, "k": 5, "burst": 4,
        },
        "smoke": {
            "n_nodes": 150, "n_queries": 4, "n_users": 3,
            "n_requests": 60, "k": 5, "burst": 4,
        },
        # The historical examples/quickstart.py scale.
        "demo": {
            "n_nodes": 600, "n_queries": 8, "n_users": 6,
            "n_requests": 120, "k": 5, "burst": 4,
        },
        # examples/summarization_quality.py needs the tweet corpus.
        "demo-corpus": {
            "n_nodes": 600, "n_queries": 8, "n_users": 6,
            "n_requests": 120, "k": 5, "burst": 4, "with_corpus": True,
        },
    }
    min_summarized_precision = 0.5

    def dataset(self, seed, params):
        return data_2k(
            seed=seed,
            n_nodes=int(params["n_nodes"]),
            with_corpus=bool(params.get("with_corpus", False)),
        )

    def build_trace(self, bundle, seed, params):
        return _zipf_trace(bundle, seed, params, skew=1.0)


# ---------------------------------------------------------------------------
# Promotions of the examples
# ---------------------------------------------------------------------------


@register
class TargetedAdvertisingScenario(Scenario):
    """A campaign's receptive audience hammering campaign-related queries."""

    name = "targeted-advertising"
    title = "Campaign audience traffic"
    description = (
        "Picks the hottest phone-related topic as an ad campaign, ranks "
        "the most receptive non-endorsers by exact influence, and "
        "replays their campaign-related queries - a head-heavy stream "
        "concentrated on one topic neighborhood."
    )
    default_seed = 21
    profiles = {
        "default": {
            "n_nodes": 300, "audience": 16, "n_requests": 200, "k": 5,
            "burst": 4,
        },
        "smoke": {
            "n_nodes": 150, "audience": 8, "n_requests": 60, "k": 5,
            "burst": 4,
        },
        # The historical examples/targeted_advertising.py scale.
        "demo": {
            "n_nodes": 800, "audience": 20, "n_requests": 120, "k": 5,
            "burst": 4,
        },
    }
    min_summarized_precision = 0.5

    def dataset(self, seed, params):
        return data_2k(
            seed=seed, n_nodes=int(params["n_nodes"]), with_corpus=False
        )

    def build_trace(self, bundle, seed, params):
        topic = campaign_topic(bundle.topic_index)
        audience = campaign_audience(
            bundle, topic, size=int(params["audience"])
        )
        label = bundle.topic_index.label(topic)
        workload = Workload(
            queries=(
                KeywordQuery.parse("phone"),
                KeywordQuery.parse(label),
            ),
            users=tuple(sorted(audience)),
        )
        records = replay_requests(
            workload,
            n_requests=int(params["n_requests"]),
            k=int(params.get("k", 5)),
            skew=0.8,
            seed=seed + 1,
        )
        return timestamped(records, burst=int(params.get("burst", 4)))


@register
class PhoneRecommendationScenario(Scenario):
    """The paper's Example 1: Figure 1's 15 users asking about phones."""

    name = "phone-recommendation"
    title = "Figure 1 phone recommendation"
    description = (
        "The fixed 16-node network of the paper's Figures 1-2 with the "
        "three phone topics; every user repeatedly asks phone queries. "
        "Tiny enough that the brute-force oracle covers the *actual* "
        "serving graph, not a miniature."
    )
    default_seed = 1
    profiles = {
        "default": {"n_requests": 180, "k": 3, "burst": 3},
        "smoke": {"n_requests": 60, "k": 3, "burst": 3},
    }
    summarizer = "lrw"
    theta = 0.005
    rep_fraction = 1.0
    min_summarized_precision = 0.8

    def dataset(self, seed, params):
        graph, topic_index = build_phone_network()
        return DatasetBundle(
            name="example1_phone",
            graph=graph,
            topic_index=topic_index,
            tag_bank=None,
            corpus=None,
            seed=seed,
            meta={"type": "paper-figure-1"},
        )

    def build_trace(self, bundle, seed, params):
        workload = Workload(
            queries=tuple(
                KeywordQuery.parse(q)
                for q in ("phone", "apple phone", "samsung phone",
                          "htc phone")
            ),
            users=tuple(range(1, 16)),
        )
        records = replay_requests(
            workload,
            n_requests=int(params["n_requests"]),
            k=int(params.get("k", 3)),
            skew=0.7,
            seed=seed + 1,
        )
        return timestamped(records, burst=int(params.get("burst", 3)))

    def oracle_instance(self, seed):
        graph, topic_index = build_phone_network()
        return OracleInstance(
            graph=graph,
            topic_index=topic_index,
            queries=("phone", "apple phone", "samsung phone", "htc phone"),
            k=3,
        )


@register
class EvolvingNetworkScenario(Scenario):
    """Steady traffic with mid-trace churn: invalidation, then a reload."""

    name = "evolving-network"
    title = "Evolving network with mid-trace churn"
    description = (
        "The paper's Section 4.4 story as serving traffic: a Zipf stream "
        "interrupted first by a targeted answer invalidation (a burst of "
        "activity around the head users) and then by a structural reload "
        "(the offline stage re-ran after the network changed). The "
        "delta profiles replace the invalidation with a *real* streamed "
        "graph delta - edge inserts, deletes, and re-weightings applied "
        "to the live engine with surgical cache invalidation."
    )
    default_seed = 99
    profiles = {
        "default": {
            "n_nodes": 260, "n_queries": 8, "n_users": 6,
            "n_requests": 240, "k": 5, "burst": 4,
        },
        "smoke": {
            "n_nodes": 140, "n_queries": 4, "n_users": 3,
            "n_requests": 80, "k": 5, "burst": 4,
        },
        # The historical examples/evolving_network.py scale.
        "demo": {
            "n_nodes": 600, "n_queries": 8, "n_users": 6,
            "n_requests": 120, "k": 5, "burst": 4,
        },
        # Streamed-delta variants: the mid-trace churn is an actual
        # GraphDelta batch (repro.core.dynamics) instead of a manual
        # answer invalidation.
        "delta": {
            "n_nodes": 260, "n_queries": 8, "n_users": 6,
            "n_requests": 240, "k": 5, "burst": 4, "delta_mode": True,
        },
        "delta-smoke": {
            "n_nodes": 140, "n_queries": 4, "n_users": 3,
            "n_requests": 80, "k": 5, "burst": 4, "delta_mode": True,
        },
    }
    min_summarized_precision = 0.5

    def dataset(self, seed, params):
        return data_2k(
            seed=seed, n_nodes=int(params["n_nodes"]), with_corpus=False
        )

    def build_trace(self, bundle, seed, params):
        return _zipf_trace(bundle, seed, params, skew=1.0)

    def _delta_event(self, bundle, seed, after):
        """A deterministic edit batch derived from the bundle graph.

        Three deletes and three re-weightings of real edges plus three
        inserts of genuinely absent edges, all drawn from a seeded RNG -
        the same seed always streams the same delta, which is what keeps
        the replay digest reproducible in delta mode.
        """
        graph = bundle.graph
        sources, targets, probs = graph.edge_arrays()
        n = graph.n_nodes
        rng = np.random.default_rng(seed + 5)
        picks = rng.choice(
            sources.size, size=min(6, sources.size), replace=False
        )
        deletes = [
            [int(sources[i]), int(targets[i])] for i in picks[:3]
        ]
        reweights = [
            [int(sources[i]), int(targets[i]),
             round(min(1.0, float(probs[i]) * 0.5 + 0.05), 6)]
            for i in picks[3:]
        ]
        taken = set((sources * n + targets).tolist())
        inserts: List[List[object]] = []
        while len(inserts) < 3:
            a = int(rng.integers(0, n))
            b = int(rng.integers(0, n))
            if a == b or a * n + b in taken:
                continue
            taken.add(a * n + b)
            inserts.append([a, b, round(float(rng.uniform(0.05, 0.4)), 6)])
        return {
            "after": after, "kind": "delta",
            "inserts": inserts, "deletes": deletes, "reweights": reweights,
        }

    def build_events(self, bundle, records, seed, params):
        n = len(records)
        if params.get("delta_mode"):
            return [
                self._delta_event(bundle, seed, n // 3),
                {"after": (2 * n) // 3, "kind": "reload", "reseed": 1},
            ]
        # The churn hits the trace's own head users: their cached
        # answers are the ones invalidation must actually evict.
        counts: Dict[int, int] = {}
        for record in records:
            counts[record["user"]] = counts.get(record["user"], 0) + 1
        head_users = sorted(
            counts, key=lambda u: (-counts[u], u)
        )[:3]
        return [
            {"after": n // 3, "kind": "invalidate_users",
             "users": head_users},
            {"after": (2 * n) // 3, "kind": "reload", "reseed": 1},
        ]


# ---------------------------------------------------------------------------
# Adversarial scenarios
# ---------------------------------------------------------------------------


@register
class FlashCrowdScenario(Scenario):
    """A hub-query spike designed to fight the coalescer and admission."""

    name = "flash-crowd"
    title = "Hub-dominated flash-crowd spike"
    description = (
        "Trickle traffic over a hub-dominated preferential-attachment "
        "graph, then a flash crowd: the single hottest (user, query) "
        "pair arrives in concurrent same-instant bursts. In daemon mode "
        "this is exactly the shape the coalescer and the bounded-queue "
        "admission controller exist for; in engine mode it measures the "
        "answer tier's spike absorption (first burst misses, the rest "
        "must hit)."
    )
    adversarial = True
    default_seed = 1234
    #: Small queue: a spike burst overruns admission and must be shed
    #: with 429s, never 5xx.
    daemon_queue = 16
    profiles = {
        "default": {
            "n_nodes": 320, "n_queries": 8, "n_users": 6,
            "trickle": 120, "spike_bursts": 4, "spike_size": 32,
            "cooldown": 40, "k": 5, "burst": 2,
        },
        "smoke": {
            "n_nodes": 150, "n_queries": 4, "n_users": 3,
            "trickle": 40, "spike_bursts": 3, "spike_size": 12,
            "cooldown": 16, "k": 5, "burst": 2,
        },
    }
    min_summarized_precision = 0.5

    def dataset(self, seed, params):
        return data_2k(
            seed=seed, n_nodes=int(params["n_nodes"]), with_corpus=False
        )

    def build_trace(self, bundle, seed, params):
        workload = generate_workload(
            bundle,
            n_queries=int(params["n_queries"]),
            n_users=int(params["n_users"]),
            seed=seed,
        )
        trickle = replay_requests(
            workload,
            n_requests=int(params["trickle"]),
            k=int(params.get("k", 5)),
            skew=1.2,
            seed=seed + 1,
        )
        cooldown = replay_requests(
            workload,
            n_requests=int(params["cooldown"]),
            k=int(params.get("k", 5)),
            skew=1.2,
            seed=seed + 2,
        )
        burst = int(params.get("burst", 2))
        records = timestamped(trickle, burst=burst)
        step_ms = 10
        next_ms = records[-1]["at_ms"] + step_ms

        # The flash crowd: the trickle's hottest (user, query, k) triple
        # arrives spike_size at a time, spike_bursts times in a row.
        counts: Dict[Tuple, int] = {}
        for record in trickle:
            key = (record["user"], record["query"], record["k"])
            counts[key] = counts.get(key, 0) + 1
        user, query, k = max(counts, key=lambda key: (counts[key], key))
        for _ in range(int(params["spike_bursts"])):
            for _ in range(int(params["spike_size"])):
                records.append(
                    {"user": user, "query": query, "k": k,
                     "at_ms": next_ms}
                )
            next_ms += step_ms
        records.extend(
            timestamped(cooldown, burst=burst, start_ms=next_ms)
        )
        return records


@register
class TopicChurnScenario(Scenario):
    """Repeated reloads that invalidate precompute heads mid-replay."""

    name = "topic-churn"
    title = "Topic-churn storm vs. precompute heads"
    description = (
        "A Zipf stream served warm from a mined precompute artifact, "
        "then three rounds of topic churn: each rebuilds the summaries "
        "(new fingerprint), first proving a reload that keeps the stale "
        "precompute is *refused* (the mismatch contract), then swapping "
        "engines structurally onto the new summaries and a precompute "
        "mined over them. Every churn must land without a wrong answer "
        "or a dropped request."
    )
    adversarial = True
    default_seed = 4242
    profiles = {
        "default": {
            "n_nodes": 260, "n_queries": 8, "n_users": 6,
            "n_requests": 280, "k": 5, "burst": 4, "churns": 3,
        },
        "smoke": {
            "n_nodes": 140, "n_queries": 4, "n_users": 3,
            "n_requests": 96, "k": 5, "burst": 4, "churns": 3,
        },
    }
    wants_precompute = True
    min_summarized_precision = 0.5

    def dataset(self, seed, params):
        return data_2k(
            seed=seed, n_nodes=int(params["n_nodes"]), with_corpus=False
        )

    def build_trace(self, bundle, seed, params):
        return _zipf_trace(bundle, seed, params, skew=1.0)

    def build_events(self, bundle, records, seed, params):
        n = len(records)
        churns = int(params.get("churns", 3))
        return [
            {
                "after": (i * n) // (churns + 1),
                "kind": "reload",
                "reseed": i,
                "stale_precompute": True,
            }
            for i in range(1, churns + 1)
        ]
