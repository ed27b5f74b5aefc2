"""Serve-side engine facade (ROADMAP item 1's seam).

:class:`~repro.core.engine.PITEngine` is the *build-side* facade: it owns
a summarizer, a walk index, and the fault-tolerant offline build
machinery. A serving daemon needs none of that - it answers queries
against artifacts the offline stage already produced. This module is the
other half of the split: :class:`ServingEngine` wraps a graph, a topic
index, summaries, and a propagation index around one
:class:`~repro.core.search.PersonalizedSearcher`, and
exposes exactly the online surface - ``search`` / ``search_batch`` /
``tier_stats`` / ``metrics_snapshot``. It is the only online engine:
:meth:`PITEngine.serving <repro.core.engine.PITEngine.serving>` hands
one out over a builder's in-memory artifacts.

Construction from disk goes through :meth:`ServingEngine.from_artifacts`,
which serves Γ from a mapped shard directory and nothing else. Every
input passes the artifact layer's checksum + graph-signature
validation (:mod:`repro._artifacts`); a corrupt or mismatched file raises
the :class:`~repro.exceptions.ArtifactCorruptedError` /
:class:`~repro.exceptions.ConfigurationError` taxonomy instead of
serving wrong answers. Topics whose summary is *not* in the artifact
surface as a per-request :class:`~repro.exceptions.ConfigurationError` -
an engine over an artifact never falls back to building summaries online.

**Tiered lookup.** With ``answer_cache_bytes`` set, the engine fronts the
searcher with a tier of full ``(user, query, k)`` answers. A lookup
then falls through **answers → compiled plans → shard pages**: the two
caches are each a :class:`~repro.core.serving.ByteLRUCache` with its
own byte budget, and Γ pages are held by the shard backend's own
paging budget (:mod:`repro.core.shards`). An
answer evicted by its budget is *demoted*, not discarded: the
``on_evict`` hook bumps the query's compiled plan to most-recent in the
plan tier, so the recompute costs one kernel pass instead of a full
compile. Warm state for both upper tiers comes from a
:mod:`repro.core.precompute` artifact (:meth:`ServingEngine.warm_from_precompute`).
Invalidation is structural: caches live on the engine instance, every
reload swap builds a fresh engine (empty tiers, re-warmed from the
artifact), and the artifact itself is refused unless its graph signature,
theta, and summaries fingerprint match - so a stale answer cannot survive
a generation bump. :meth:`ServingEngine.invalidate_answers` is the
targeted seam for :mod:`repro.core.dynamics` deltas.

**Encoded once.** A resident answer also holds its wire fragment
(:func:`encode_answer`), built when the answer is written back after a
miss or warm-loaded from a precompute artifact and charged to the
tier's budget with the rest of the answer. The daemon answers hits from
these stored bytes (``encoded=True`` on :meth:`ServingEngine.cached_answer`
and :meth:`ServingEngine.search_batch`), so no answer is serialized twice.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import (
    Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple, Union,
)

from ..exceptions import ConfigurationError
from ..graph import SocialGraph
from ..obs.registry import MetricsRegistry, MetricsSnapshot, get_registry
from ..topics import KeywordQuery, TopicIndex
from .diagnostics import CacheStats
from .propagation import PropagationIndex
from .search import (
    DEFAULT_PLAN_CACHE_BYTES,
    PersonalizedSearcher,
    SearchResult,
    SearchStats,
    normalized_query_key,
)
from .serving import ByteLRUCache
from .summarization import TopicSummary

__all__ = ["ServingEngine", "encode_answer"]

#: Answer-key type: (user, normalized query key, k).
AnswerKey = Tuple[int, Tuple[Tuple[str, ...], str], int]

#: Fixed per-answer overhead charged to the answer tier (key + tuples).
_ANSWER_BASE_BYTES = 160
#: Per-result overhead (SearchResult object + ints/floats), sans label.
_ANSWER_RESULT_BYTES = 96

#: The five work counters, in ``SearchStats`` order (also their wire names).
_WORK_FIELDS = (
    "topics_considered",
    "topics_pruned",
    "entries_probed",
    "expansion_rounds",
    "representatives_touched",
)


class _Answer(NamedTuple):
    """One answer-tier value: the top-k, its work counters, its wire form."""

    results: Tuple[SearchResult, ...]
    work: Tuple[int, int, int, int, int]
    wire: bytes


def encode_answer(
    results: Iterable[SearchResult], work: Iterable[int]
) -> bytes:
    """The wire fragment ``"results": [...], "stats": {...}`` of an answer.

    Exactly the bytes ``json.dumps(response, sort_keys=True)`` emits for
    those two keys of a ``POST /search`` response, which
    :func:`repro.serve.protocol.results_payload` splices between the
    request's fields. Influence floats pass through unrounded (``repr``
    round-trips the exact double).
    """
    text = json.dumps(
        {
            "results": [
                {
                    "topic_id": r.topic_id,
                    "label": r.label,
                    "influence": r.influence,
                }
                for r in results
            ],
            "stats": dict(zip(_WORK_FIELDS, work)),
        },
        sort_keys=True,
    )
    return text[1:-1].encode("utf-8")


def _new_answer(results: Iterable[SearchResult], work) -> _Answer:
    results = tuple(results)
    work = tuple(work)
    return _Answer(results, work, encode_answer(results, work))


def _answer_nbytes(answer: _Answer) -> int:
    """The answer tier's charge for *answer*: objects plus wire bytes."""
    return _ANSWER_BASE_BYTES + len(answer.wire) + sum(
        _ANSWER_RESULT_BYTES + len(r.label) for r in answer.results
    )


def _work_of(stats: SearchStats) -> Tuple[int, int, int, int, int]:
    """The five deterministic work counters a cached answer stores.

    They are a pure function of (user, query, k) over a fixed engine
    state, so replaying them keeps cached responses bit-exact with
    uncached ones.
    """
    return tuple(getattr(stats, field) for field in _WORK_FIELDS)


class ServingEngine:
    """Online-only PIT-Search over prebuilt artifacts.

    Parameters
    ----------
    graph / topic_index:
        The social network and its topic space (must agree on node count).
    summaries:
        ``topic_id -> TopicSummary`` mapping, kept as given (not copied) -
        typically loaded from a ``build-summaries`` artifact. Queries
        touching a topic the mapping lacks fail that request with
        :class:`~repro.exceptions.ConfigurationError`, unless the mapping
        builds missing topics itself (a builder's lazy summaries, see
        :meth:`~repro.core.engine.PITEngine.serving`).
    propagation_index:
        A prebuilt (sharded or in-memory) index, or ``None`` to materialize
        entries lazily at ``theta`` into an unbounded in-memory index.
    theta:
        Path-probability threshold for a lazily materializing index
        (ignored when *propagation_index* is given; the index's theta
        governs).
    max_expand_rounds:
        Online Expand recursion bound.
    answer_cache_bytes:
        When set, full top-k answers are cached per ``(user, normalized
        query, k)`` in a bounded LRU of this many bytes - the top tier of
        the answers → plans → shard pages fallthrough. ``None``
        (default) disables the tier; results are then always computed by
        the searcher.
    plan_cache_bytes:
        Byte budget of the searcher's compiled-plan tier (forwarded;
        see :class:`~repro.core.search.PersonalizedSearcher`).
    metrics:
        Registry receiving per-search metrics; ``None`` uses the
        process-wide default.
    """

    def __init__(
        self,
        graph: SocialGraph,
        topic_index: TopicIndex,
        summaries: Mapping[int, TopicSummary],
        propagation_index: Optional[PropagationIndex] = None,
        *,
        theta: float = 0.002,
        max_expand_rounds: int = 8,
        answer_cache_bytes: Optional[int] = None,
        plan_cache_bytes: int = DEFAULT_PLAN_CACHE_BYTES,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if graph.n_nodes != topic_index.n_nodes:
            raise ConfigurationError(
                f"graph has {graph.n_nodes} nodes but topic index covers "
                f"{topic_index.n_nodes}"
            )
        self._graph = graph
        self._topic_index = topic_index
        self._summaries = summaries
        self._metrics = metrics
        if propagation_index is None:
            propagation_index = PropagationIndex(graph, theta, metrics=metrics)
        elif (
            propagation_index.graph.n_nodes != graph.n_nodes
            or propagation_index.graph.n_edges != graph.n_edges
        ):
            raise ConfigurationError(
                f"propagation index covers a graph with "
                f"{propagation_index.graph.n_nodes} nodes/"
                f"{propagation_index.graph.n_edges} edges, but the serving "
                f"graph has {graph.n_nodes} nodes/{graph.n_edges} edges"
            )
        self.propagation_index = propagation_index
        if metrics is not None:
            propagation_index.set_metrics(metrics)
        self._searcher = PersonalizedSearcher(
            topic_index,
            self._summaries,
            propagation_index,
            max_expand_rounds=max_expand_rounds,
            plan_cache_bytes=plan_cache_bytes,
            metrics=metrics,
        )
        self._answers: Optional[ByteLRUCache] = (
            None if answer_cache_bytes is None
            else ByteLRUCache(
                answer_cache_bytes, name="answers", on_evict=self._demote_answer
            )
        )
        self._answer_demotions = 0
        self._reload_generation = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_artifacts(
        cls,
        graph: SocialGraph,
        topic_index: TopicIndex,
        summaries_path,
        *,
        index_dir,
        shard_cache_bytes: Optional[int] = None,
        theta: Optional[float] = None,
        max_expand_rounds: int = 8,
        answer_cache_bytes: Optional[int] = None,
        plan_cache_bytes: int = DEFAULT_PLAN_CACHE_BYTES,
        precompute_path=None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "ServingEngine":
        """Open a serving engine over on-disk artifacts.

        Loads the summaries artifact and the sharded propagation index
        in ``index_dir`` (mapped, paged under ``shard_cache_bytes``),
        the only Γ source of a served engine. ``theta`` defaults to the
        index's; an explicit value that differs raises
        :class:`~repro.exceptions.ConfigurationError` instead of serving
        a θ other than the caller's. Every load verifies checksums and
        the graph signature; a corrupt or mismatched artifact raises and
        nothing is partially adopted, which is what makes this the
        daemon's hot-reload primitive.

        ``precompute_path`` warm-loads a :mod:`repro.core.precompute`
        artifact into the plan and answer tiers after construction (same
        refuse-on-mismatch contract: a precompute built against a
        different graph/theta/summaries raises and the engine is not
        returned).
        """
        from .persistence import load_summaries
        from .shards import DEFAULT_SHARD_CACHE_BYTES, load_sharded_index

        summaries = load_summaries(summaries_path, graph)
        index = load_sharded_index(
            index_dir, graph,
            cache_bytes=(
                DEFAULT_SHARD_CACHE_BYTES if shard_cache_bytes is None
                else shard_cache_bytes
            ),
            metrics=metrics,
        )
        if theta is not None and float(theta) != index.theta:
            raise ConfigurationError(
                f"theta={theta} was asked for, but the propagation index "
                f"in {index_dir} was built with theta={index.theta}"
            )
        engine = cls(
            graph, topic_index, summaries, index,
            max_expand_rounds=max_expand_rounds,
            answer_cache_bytes=answer_cache_bytes,
            plan_cache_bytes=plan_cache_bytes,
            metrics=metrics,
        )
        if precompute_path is not None:
            engine.warm_from_precompute(precompute_path)
        return engine

    # ------------------------------------------------------------------
    @property
    def graph(self) -> SocialGraph:
        """The social graph being served."""
        return self._graph

    @property
    def topic_index(self) -> TopicIndex:
        """The topic space being served."""
        return self._topic_index

    @property
    def n_summaries(self) -> int:
        """Number of topic summaries held (built so far, when lazy)."""
        return len(self._summaries)

    @property
    def theta(self) -> float:
        """The propagation index's path-probability threshold."""
        return self.propagation_index.theta

    # ------------------------------------------------------------------
    # Answer tier
    # ------------------------------------------------------------------
    def _registry(self) -> MetricsRegistry:
        metrics = self._metrics
        return metrics if metrics is not None else get_registry()

    @staticmethod
    def _answer_key(
        user: int, query: Union[str, KeywordQuery], k: int
    ) -> AnswerKey:
        return (int(user), normalized_query_key(query), int(k))

    def _demote_answer(self, key: AnswerKey, _value) -> None:
        # Tier demotion: the evicted answer's compiled plan is bumped to
        # most-recent, so the head query stays one kernel pass - not one
        # compile - from answered.
        self._answer_demotions += 1
        self._searcher.touch_plan(key[1])

    def _answer_hit(self, cached: _Answer, started: Optional[float],
                    encoded: bool):
        if started is not None:
            registry = self._registry()
            registry.inc("cache.tier.answers.hits")
            registry.observe(
                "cache.tier.answers.hit_latency_seconds",
                perf_counter() - started,
            )
        if encoded:
            return cached.wire
        return list(cached.results), SearchStats(*cached.work)

    def _store_answer(
        self, key: AnswerKey, results: Iterable[SearchResult], work
    ) -> _Answer:
        answer = _new_answer(results, work)
        self._answers.put(key, answer, _answer_nbytes(answer))
        return answer

    def search(
        self,
        user: int,
        query: Union[str, KeywordQuery],
        k: int = 10,
        *,
        with_stats: bool = False,
    ):
        """Top-k personalized influential topics (Algorithm 10): a
        one-request :meth:`search_batch`."""
        results, stats = self.search_batch(
            [(user, query)], k, with_stats=True
        )[0]
        if with_stats:
            return results, stats
        return results

    def cached_answer(
        self,
        user: int,
        query: Union[str, KeywordQuery],
        k: int = 10,
        *,
        encoded: bool = False,
    ):
        """The resident ``(results, stats)`` answer, or ``None``.

        With ``encoded=True`` the answer's stored wire fragment
        (:func:`encode_answer`) instead. Records exactly what an answer
        hit in :meth:`search_batch` records (tier hit counter and
        latency, LRU hit and bump); a miss records nothing, so the
        caller's fallback to :meth:`search_batch` counts it once.
        ``None`` also when the answer tier is disabled.
        """
        answers = self._answers
        if answers is None:
            return None
        started = perf_counter() if self._registry().enabled else None
        cached = answers.get(
            self._answer_key(user, query, k), record_miss=False
        )
        if cached is None:
            return None
        return self._answer_hit(cached, started, encoded)

    def search_batch(
        self,
        requests: Iterable[Tuple[int, Union[str, KeywordQuery]]],
        k: int = 10,
        *,
        with_stats: bool = False,
        encoded: bool = False,
    ):
        """Answer many ``(user, query)`` requests in one batched call.

        Answer-tier hits are satisfied in place; only the misses reach
        :meth:`PersonalizedSearcher.search_many` (still grouped and
        vectorized), and their answers are written back. Output stays
        aligned with the input order.

        With ``encoded=True`` each outcome is the answer's wire fragment
        (:func:`encode_answer`) - the daemon's path: a hit's stored
        bytes, a miss's bytes as just written back, or, with the answer
        tier disabled, one fresh encoding per answer.
        """
        if self._answers is not None:
            outcomes = self._batch_with_answers(list(requests), k, encoded)
            if encoded:
                return outcomes
        else:
            outcomes = self._searcher.search_many(requests, k)
            if encoded:
                return [
                    encode_answer(results, _work_of(stats))
                    for results, stats in outcomes
                ]
        if with_stats:
            return outcomes
        return [results for results, _ in outcomes]

    def _batch_with_answers(
        self,
        requests: List[Tuple[int, Union[str, KeywordQuery]]],
        k: int,
        encoded: bool,
    ) -> List:
        answers = self._answers
        registry = self._registry()
        enabled = registry.enabled
        outcomes: List = [None] * len(requests)
        miss_requests: List[Tuple[int, Union[str, KeywordQuery]]] = []
        miss_slots: List[Tuple[int, AnswerKey]] = []
        n_hits = 0
        for position, (user, query) in enumerate(requests):
            started = perf_counter() if enabled else None
            key = self._answer_key(user, query, k)
            cached = answers.get(key)
            if cached is not None:
                outcomes[position] = self._answer_hit(cached, started, encoded)
                n_hits += 1
            else:
                miss_requests.append((user, query))
                miss_slots.append((position, key))
        if enabled and len(miss_slots):
            registry.inc("cache.tier.answers.misses", len(miss_slots))
        if miss_requests:
            computed = self._searcher.search_many(miss_requests, k)
            for (position, key), outcome in zip(miss_slots, computed):
                results, stats = outcome
                answer = self._store_answer(key, results, _work_of(stats))
                outcomes[position] = answer.wire if encoded else outcome
        return outcomes

    # ------------------------------------------------------------------
    # Invalidation and warm load
    # ------------------------------------------------------------------
    def invalidate_answers(self, users: Optional[Iterable[int]] = None) -> int:
        """Drop cached answers; the invalidation seam for graph dynamics.

        ``users=None`` clears the whole answer tier (a topic/summary
        change can move any answer). With an iterable of user ids, only
        those users' answers are dropped - the right granularity for a
        :mod:`repro.core.dynamics` delta whose Γ-changed node set is
        known. Returns the number of answers removed. Plans survive
        (they are user-independent); a summary change needs a new
        engine.
        """
        answers = self._answers
        if answers is None:
            return 0
        if users is None:
            removed = len(answers)
            answers.clear()
            return removed
        wanted = {int(u) for u in users}
        removed = 0
        for key in answers.keys():
            if key[0] in wanted and answers.pop(key) is not None:
                removed += 1
        return removed

    def apply_delta(self, delta) -> Dict[str, int]:
        """Stream a :class:`~repro.core.dynamics.GraphDelta` into the
        live engine with surgical cache invalidation.

        The incremental-dynamics fast path: the delta is applied to the
        serving graph, the propagation index is refreshed only for the
        theta-affected node set (dirty-shard rewrite under the mmap
        backend, targeted entry rebuild in memory), and the answer tier
        is trimmed - not cleared. It evicts the plain-reachable users,
        the set theta-paths can compose into across probe chains; every
        other resident answer keeps serving and is still bit-exact (see
        :mod:`repro.core.dynamics` for the soundness argument). Compiled
        plans hold no Γ data, so the plan tier is left as it is.
        Summaries are intentionally left as built - the
        graceful-staleness contract - so post-delta answers match a
        from-scratch engine over (new graph, same summaries artifact).

        Unlike a hot reload this swaps no engine and bumps no
        generation; tiers stay warm for the unaffected majority. Returns
        the application report (edit counts, affected size, refresh
        stats, answers invalidated).
        """
        from .dynamics import splice_delta

        def adopt(new_graph, new_index, affected, reachable):
            self._graph = new_graph
            self.propagation_index = new_index
            if self._metrics is not None:
                new_index.set_metrics(self._metrics)
            self._searcher.set_propagation_index(new_index)
            invalidated = self.invalidate_answers(users=reachable.tolist())
            return {"answers_invalidated": invalidated}

        return splice_delta(
            self._graph, self.propagation_index, delta, adopt,
            metrics=self._metrics,
        )

    def set_reload_generation(self, generation: int) -> "ServingEngine":
        """Record the daemon reload generation this engine serves.

        Invalidation across generations is structural - every hot swap
        builds a *new* engine whose tiers start empty (modulo artifact
        warm-load), so nothing cached under an older generation can ever
        be served. The recorded generation is exposed as the
        ``cache.tier.generation`` gauge so dashboards can correlate
        hit-ratio resets with swaps.
        """
        self._reload_generation = int(generation)
        return self

    @property
    def reload_generation(self) -> int:
        """The generation stamped by the reload manager (0 = initial)."""
        return self._reload_generation

    def warm_from_precompute(self, source) -> Dict[str, int]:
        """Warm the plan and answer tiers from a precompute artifact.

        *source* is a path or an already-loaded
        :class:`~repro.core.precompute.PrecomputeArtifact`. The artifact
        must match this engine's graph signature, theta, and summaries
        fingerprint (:class:`~repro.exceptions.ConfigurationError`
        otherwise - serving a precomputed answer over different data
        would be silently wrong). Returns
        ``{"plans": adopted, "answers": seeded}``; answers are skipped
        when the answer tier is disabled, and neither kind displaces
        state already resident (live traffic beats warm-up).
        """
        from .precompute import (
            PrecomputeArtifact,
            answer_entry,
            load_precompute,
            plan_from_record,
            validate_precompute,
        )

        pack = (
            source if isinstance(source, PrecomputeArtifact)
            else load_precompute(source)
        )
        validate_precompute(pack, self._graph, self.theta, self._summaries)
        adopted = 0
        for record in pack.plans:
            if self._searcher.adopt_plan(plan_from_record(record)):
                adopted += 1
        seeded = 0
        answers = self._answers
        if answers is not None:
            for record in pack.answers:
                key, (results, work) = answer_entry(record)
                if key in answers:
                    continue
                self._store_answer(key, results, work)
                seeded += 1
        return {"plans": adopted, "answers": seeded}

    # ------------------------------------------------------------------
    def tier_stats(self) -> Dict[str, CacheStats]:
        """Per-tier snapshots of the answer and plan caches (only the
        tiers that are configured; shard pages report through
        ``index.shard.*``)."""
        tiers: Dict[str, CacheStats] = {}
        if self._answers is not None:
            tiers["answers"] = self._answers.stats()
        tiers.update(self._searcher.tier_stats())
        return tiers

    def publish_tier_gauges(
        self, registry: Optional[MetricsRegistry] = None
    ) -> None:
        """Publish the ``cache.tier.*`` gauge family (snapshot time only)."""
        if registry is None:
            registry = self._registry()
        for name, stats in self.tier_stats().items():
            prefix = f"cache.tier.{name}"
            registry.set_gauge(f"{prefix}.bytes", stats.current_bytes)
            registry.set_gauge(f"{prefix}.items", stats.n_items)
            registry.set_gauge(f"{prefix}.hit_ratio", stats.hit_rate)
            registry.set_gauge(f"{prefix}.evictions", stats.evictions)
        registry.set_gauge(
            "cache.tier.answers.demotions", self._answer_demotions
        )
        registry.set_gauge("cache.tier.generation", self._reload_generation)

    def set_metrics(self, registry: Optional[MetricsRegistry]) -> "ServingEngine":
        """Route every component's metrics to *registry*."""
        self._metrics = registry
        self.propagation_index.set_metrics(registry)
        self._searcher.set_metrics(registry)
        return self

    def metrics_snapshot(self) -> MetricsSnapshot:
        """A coherent snapshot of the engine's metrics registry.

        Publishes the point-in-time gauges first (Γ size and shards,
        summary count, footprint, ``cache.tier.*``) - here, not
        per search, keeping the serving hot path to counter adds only.
        """
        registry = self._registry()
        index = self.propagation_index
        registry.set_gauge("propagation.entries_cached", index.n_cached)
        registry.set_gauge("propagation.index_bytes", index.memory_bytes())
        registry.set_gauge(
            "propagation.index_mapped_bytes", index.mapped_bytes()
        )
        if index.shards is not None:
            index.shards.publish_gauges(registry)
        registry.set_gauge("summaries.cached", self.n_summaries)
        registry.set_gauge("engine.memory_bytes", self.memory_bytes())
        self.publish_tier_gauges(registry)
        return registry.snapshot()

    def memory_bytes(self) -> int:
        """Approximate resident size of the serving stack.

        The propagation index (resident portion only, when mapped), the
        loaded summaries (including frozen array forms), the searcher's
        compiled plans, and the answer tier. A
        builder's walk index is not counted: serving never reads it.
        """
        total = self.propagation_index.memory_bytes()
        total += sum(s.memory_bytes() for s in self._summaries.values())
        total += self._searcher.cache_memory_bytes()
        if self._answers is not None:
            total += self._answers.memory_bytes()
        return total
