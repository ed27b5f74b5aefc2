"""Top-k personalized influential topic search - Algorithms 10 & 11 (S22).

Online stage. Given a query user ``v`` and keyword query ``q``:

1. fetch the q-related topics and their summaries (representative node
   sets with local weights);
2. for each topic, aggregate the influence of the representatives that
   appear in ``Γ(v)`` (the propagation entry of ``v``) - no graph
   traversal;
3. prune topics whose influence upper bound (current score + remaining
   representative weight × ``maxEP``) cannot reach the current top-k;
4. while un-pruned topics remain outside the current top-k, *expand*
   through the marked frontier: probe ``Γ(u)`` of marked nodes ``u``,
   discounting by ``Γ(v)[u]`` (DESIGN.md note: Algorithm 11's pseudocode
   omits this factor; including it is required for the bound in step 3 to
   be meaningful, and is the reading consistent with §5.1's path
   semantics).

The returned ranking is deterministic: ties break on topic label.

Execution is array-native. A query compiles once into a :class:`_QueryPlan`
holding every related summary's representatives concatenated into one
sorted-per-topic ``int64`` array (plus aligned weights and a topic-of-rep
map), so resolving the whole candidate set against a propagation entry is
a single ``np.searchsorted`` pass followed by ``np.bincount`` scatter-sums
- replacing the per-representative hash probes of the original
formulation (retained verbatim in ``tests/oracles/scalar_search.py`` as
the parity/benchmark baseline). Consumed representatives are tracked in a
boolean mask instead of popping dict keys, the k-th-best bound is an
incrementally maintained bounded heap (:class:`_KthBound`, O(log k) per
prune instead of a fresh ``heapq.nlargest``), and the upper-bound prune
itself runs vectorized over the active-topic arrays.

:meth:`PersonalizedSearcher.search_many` is the batched serving layer
(:meth:`~PersonalizedSearcher.search` is a one-request batch): requests
are grouped by keyword query so topic resolution, label ranking and
summary arrays compile once per distinct query into the byte-bounded plan
tier (see :mod:`repro.core.serving`). Propagation entries come straight
from the index: mapped shard pages under a serving daemon, the index's
own cache in memory.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass
from time import perf_counter
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .._utils import require_in_range
from ..exceptions import ConfigurationError
from ..obs.registry import MetricsRegistry, get_registry
from ..topics import KeywordQuery, TopicIndex
from .diagnostics import CacheStats
from .propagation import PropagationEntry, PropagationIndex
from .serving import ByteLRUCache
from .summarization import TopicSummary

__all__ = [
    "SearchResult",
    "SearchStats",
    "PersonalizedSearcher",
    "normalized_query_key",
]

SummaryProvider = Union[Mapping[int, TopicSummary], Callable[[int], TopicSummary]]

_EMPTY_F8 = np.empty(0, dtype=np.float64)
_EMPTY_I8 = np.empty(0, dtype=np.int64)

#: Default byte budget for the compiled-plan cache tier.
DEFAULT_PLAN_CACHE_BYTES = 128 << 20
#: Most compiled plans the plan tier retains, whatever their bytes.
MAX_PLANS = 256


def normalized_query_key(
    query: Union[str, "KeywordQuery"],
) -> Tuple[Tuple[str, ...], str]:
    """The canonical cache key of a keyword query: equivalent queries share it.

    Topic matching is set-based (:meth:`KeywordQuery.matches` compares
    token *sets*), so keyword order, duplicates, and letter case do not
    change which topics are q-related - but they used to produce distinct
    plan-cache keys, compiling (and retaining) duplicate
    :class:`_QueryPlan` objects for ``"phone music"`` vs ``"music
    phone"``. The normalized key - case-folded, de-duplicated, sorted
    keywords plus the match mode - collapses those spellings onto one
    compiled plan, one answer-cache slot, and one coalescing group.
    """
    if isinstance(query, str):
        query = KeywordQuery.parse(query)
    return (
        tuple(sorted({keyword.casefold() for keyword in query.keywords})),
        query.mode,
    )


@dataclass(frozen=True)
class SearchResult:
    """One ranked topic.

    Attributes
    ----------
    topic_id / label:
        The topic.
    influence:
        Aggregated (approximate) influence of the topic on the query user.
    """

    topic_id: int
    label: str
    influence: float


@dataclass
class SearchStats:
    """Work accounting for one search (used by the efficiency benches).

    Attributes
    ----------
    topics_considered:
        Number of q-related topics.
    topics_pruned:
        Topics eliminated by the upper-bound test before full evaluation.
    entries_probed:
        Propagation entries consulted (1 for the user + 1 per expanded
        frontier node).
    expansion_rounds:
        Number of Expand recursions executed.
    representatives_touched:
        Representative-weight slots examined (one per representative per
        summary-set probe; identical accounting to the scalar reference).
    """

    topics_considered: int = 0
    topics_pruned: int = 0
    entries_probed: int = 0
    expansion_rounds: int = 0
    representatives_touched: int = 0


class _KthBound:
    """Incrementally maintained k-th-best score over rising per-topic scores.

    A lazy-deletion min-heap of the current k best scores: because scores
    only ever increase (Expand adds non-negative mass), membership changes
    one topic at a time and each update or bound read is O(log k)
    amortized - replacing the scalar path's fresh ``heapq.nlargest`` per
    prune. The bound equals ``min`` of the k largest current scores, i.e.
    exactly the scalar ``_kth_best`` (or -inf while fewer than k topics
    exist).
    """

    __slots__ = ("_k", "_heap", "_member")

    def __init__(self, k: int, scores: np.ndarray):
        self._k = k
        self._member: Dict[int, float] = {}
        if scores.size:
            top = np.argsort(-scores, kind="stable")[:k]
            self._member = {
                int(t): float(scores[t]) for t in top.tolist()
            }
        self._heap: List[Tuple[float, int]] = [
            (score, topic) for topic, score in self._member.items()
        ]
        heapq.heapify(self._heap)

    def _settle_root(self) -> None:
        heap, member = self._heap, self._member
        while heap and member.get(heap[0][1]) != heap[0][0]:
            heapq.heappop(heap)

    def bound(self) -> float:
        """The k-th best current score, or -inf with fewer than k topics."""
        if len(self._member) < self._k:
            return float("-inf")
        self._settle_root()
        return self._heap[0][0]

    def update(self, topic: int, score: float) -> None:
        """Record that *topic*'s score rose to *score*."""
        member = self._member
        current = member.get(topic)
        if current is not None:
            if score > current:
                member[topic] = score
                heapq.heappush(self._heap, (score, topic))
            return
        if len(member) < self._k:
            member[topic] = score
            heapq.heappush(self._heap, (score, topic))
            return
        self._settle_root()
        if score > self._heap[0][0]:
            _, evicted = heapq.heappop(self._heap)
            del member[evicted]
            member[topic] = score
            heapq.heappush(self._heap, (score, topic))


class _QueryPlan:
    """Array-compiled form of one keyword query's candidate topic set.

    Holds everything about the query that is user-independent: the related
    topic ids, their labels and tie-break ranks, and all summaries'
    representatives flattened into one array block (per-topic sorted ids,
    aligned weights, and a rep → topic-position map for bincount
    scatter-sums). Built once per distinct query and shared by every
    request in a batch - and across calls via the searcher's plan cache.
    Immutable once compiled: nothing user- or Γ-dependent is kept, so a
    plan's size is fixed and a graph delta never touches it.
    """

    __slots__ = (
        "key", "topic_ids", "labels", "label_rank",
        "rep_ids", "rep_weights", "rep_topic", "rep_counts",
        "n_topics", "n_reps",
    )

    def __init__(
        self,
        key: Tuple,
        topic_ids: Sequence[int],
        labels: Sequence[str],
        rep_arrays: Sequence[Tuple[np.ndarray, np.ndarray]],
    ):
        self.key = key
        self.topic_ids = list(topic_ids)
        self.labels = list(labels)
        n = len(self.topic_ids)
        self.n_topics = n
        order = sorted(range(n), key=lambda i: self.labels[i])
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n, dtype=np.int64)
        self.label_rank = rank
        if n:
            self.rep_counts = np.fromiter(
                (reps.size for reps, _ in rep_arrays), dtype=np.int64, count=n
            )
            self.rep_ids = (
                np.concatenate([reps for reps, _ in rep_arrays])
                if rep_arrays else _EMPTY_I8
            )
            self.rep_weights = (
                np.concatenate([weights for _, weights in rep_arrays])
                if rep_arrays else _EMPTY_F8
            )
            self.rep_topic = np.repeat(
                np.arange(n, dtype=np.int64), self.rep_counts
            )
        else:
            self.rep_counts = _EMPTY_I8
            self.rep_ids = _EMPTY_I8
            self.rep_weights = _EMPTY_F8
            self.rep_topic = _EMPTY_I8
        self.n_reps = int(self.rep_ids.size)

    def probe(self, entry: PropagationEntry) -> Tuple[np.ndarray, np.ndarray]:
        """Γ∩summary kernel: resolve the whole rep block against *entry*.

        One ``np.searchsorted`` pass over the entry's already-sorted
        ``int64`` source array. Returns ``(slots, probs)``: the ascending
        rep-block positions whose node is in ``Γ``, and their aggregated
        path probabilities aligned with them.
        """
        sources = entry.sources
        if sources.size == 0 or self.n_reps == 0:
            return _EMPTY_I8, _EMPTY_F8
        pos = np.searchsorted(sources, self.rep_ids)
        np.minimum(pos, sources.size - 1, out=pos)
        slots = np.flatnonzero(sources[pos] == self.rep_ids)
        return slots, entry.probabilities[pos[slots]]

    def memory_bytes(self) -> int:
        """Approximate resident size of the plan's arrays."""
        return int(
            self.rep_ids.nbytes
            + self.rep_weights.nbytes
            + self.rep_topic.nbytes
            + self.rep_counts.nbytes
            + self.label_rank.nbytes
        )


class PersonalizedSearcher:
    """Executes Algorithm 10 (with Algorithm 11's Expand) over an index stack.

    Parameters
    ----------
    topic_index:
        The topic space (query -> q-related topics, Algorithm 10 line 1).
    summaries:
        Topic summaries: either a mapping ``topic_id -> TopicSummary`` or a
        callable (e.g. a cached summarizer) with that signature.
    propagation_index:
        The §5.1 personalized propagation index.
    max_expand_rounds:
        Recursion cap for Expand; the paper recurses until no frontier
        remains, which the cap also allows (set it high) but bounds.
    plan_cache_bytes:
        Byte budget of the compiled-plan tier, which keeps at most
        :data:`MAX_PLANS` plans keyed by normalized keyword query. A plan
        is charged its arrays, a size fixed at compile; LRU plans are
        evicted past the budget, and a plan larger than the whole budget
        is not admitted.
    metrics:
        Registry receiving per-search accounting (latency histogram plus
        the :class:`SearchStats` counters). ``None`` uses the
        process-wide default; pass
        :func:`~repro.obs.registry.null_registry` to disable - the timed
        path is skipped entirely, so search output and per-call stats
        are byte-identical either way.
    """

    def __init__(
        self,
        topic_index: TopicIndex,
        summaries: SummaryProvider,
        propagation_index: PropagationIndex,
        *,
        max_expand_rounds: int = 8,
        plan_cache_bytes: int = DEFAULT_PLAN_CACHE_BYTES,
        metrics: Optional[MetricsRegistry] = None,
    ):
        require_in_range("max_expand_rounds", max_expand_rounds, 0)
        self._topic_index = topic_index
        self._summaries = summaries
        self._propagation = propagation_index
        self._max_expand_rounds = int(max_expand_rounds)
        self._plans = ByteLRUCache(plan_cache_bytes, name="plans")
        self._metrics = metrics

    def set_metrics(self, registry: Optional[MetricsRegistry]) -> None:
        """Route search metrics to *registry* (None = process default)."""
        self._metrics = registry

    def _registry(self) -> MetricsRegistry:
        metrics = self._metrics
        return metrics if metrics is not None else get_registry()

    # ------------------------------------------------------------------
    # Index wiring and cache management
    # ------------------------------------------------------------------
    def set_propagation_index(
        self, index: PropagationIndex
    ) -> "PersonalizedSearcher":
        """Swap in a different propagation index (the graph-delta hook).

        Compiled plans hold no Γ data, so every plan keeps serving.
        Compatibility with the topic space is the caller's contract.
        """
        self._propagation = index
        return self

    def tier_stats(self) -> Dict[str, CacheStats]:
        """A snapshot of the plan tier."""
        return {"plans": self._plans.stats()}

    def cache_memory_bytes(self) -> int:
        """Bytes held by the compiled plans (their charges, fixed at compile)."""
        return self._plans.memory_bytes()

    # ------------------------------------------------------------------
    # Providers
    # ------------------------------------------------------------------
    def _summary(self, topic_id: int) -> TopicSummary:
        if callable(self._summaries):
            return self._summaries(topic_id)
        try:
            return self._summaries[topic_id]
        except KeyError:
            raise ConfigurationError(
                f"no summary available for topic {topic_id}"
            ) from None

    def _summary_arrays(self, topic_id: int) -> Tuple[np.ndarray, np.ndarray]:
        arrays = self._summary(topic_id).arrays()
        return arrays.representatives, arrays.weights

    def _plan(self, query: Union[str, KeywordQuery]) -> _QueryPlan:
        if isinstance(query, str):
            query = KeywordQuery.parse(query)
        key = normalized_query_key(query)
        plan = self._plans.get(key)
        registry = self._registry()
        if plan is not None:
            if registry.enabled:
                registry.inc("cache.tier.plans.hits")
            return plan
        topic_ids = self._topic_index.related_topics(query)
        labels = [self._topic_index.label(t) for t in topic_ids]
        rep_arrays = [self._summary_arrays(t) for t in topic_ids]
        plan = _QueryPlan(key, topic_ids, labels, rep_arrays)
        if registry.enabled:
            registry.inc("cache.tier.plans.misses")
        self._admit_plan(plan)
        return plan

    def _admit_plan(self, plan: _QueryPlan) -> None:
        plans = self._plans
        plans.put(plan.key, plan, plan.memory_bytes())
        while len(plans) > MAX_PLANS:
            plans.pop(plans.keys()[0])

    def plan_for(self, query: Union[str, KeywordQuery]) -> _QueryPlan:
        """Compile (or fetch from the plan tier) the plan for *query*.

        The offline precompute stage uses this to materialize head-query
        plans for the artifact; it is the same code path - and the same
        cache - every search goes through.
        """
        return self._plan(query)

    def touch_plan(self, key: Tuple) -> bool:
        """Bump a resident plan to most-recent.

        The answer tier calls this when it evicts an answer built from
        this plan (tier demotion: the head query stays one kernel pass,
        not a recompile, from answered). No hit/miss accounting - this
        is maintenance.
        """
        plans = self._plans
        plan = plans.pop(key)
        if plan is None:
            return False
        plans.put(key, plan, plan.memory_bytes())
        return True

    def adopt_plan(self, plan: _QueryPlan) -> bool:
        """Install a precompiled plan into the plan tier (warm load).

        The plan must carry a :func:`normalized_query_key` in ``plan.key``
        (plans deserialized by :mod:`repro.core.precompute` do). Returns
        ``False`` when the key is already resident - a warm load never
        displaces a live plan.
        """
        if plan.key in self._plans:
            return False
        self._admit_plan(plan)
        return True

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _timed_execute(
        self, plan: _QueryPlan, user: int, k: int
    ) -> Tuple[List["SearchResult"], SearchStats]:
        """Run one search, publishing latency + work counters if enabled.

        With a disabled registry the timed branch is skipped outright, so
        the uninstrumented path pays nothing - not even the clock reads.
        The per-search cost of the instrumented path is one timer and a
        handful of counter adds; tier gauges are published only at
        snapshot time (``ServingEngine.metrics_snapshot``), never per
        search.
        """
        registry = self._registry()
        if not registry.enabled:
            return self._execute(plan, user, k)
        start = perf_counter()
        results, stats = self._execute(plan, user, k)
        seconds = perf_counter() - start
        registry.observe("search.latency_seconds", seconds)
        registry.inc("search.requests")
        registry.inc("search.topics_considered", stats.topics_considered)
        registry.inc("search.topics_pruned", stats.topics_pruned)
        registry.inc("search.entries_probed", stats.entries_probed)
        registry.inc("search.expansion_rounds", stats.expansion_rounds)
        registry.inc(
            "search.representatives_touched", stats.representatives_touched
        )
        return results, stats

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def search(
        self,
        user: int,
        query: Union[str, KeywordQuery],
        k: int,
    ) -> Tuple[List[SearchResult], SearchStats]:
        """Top-k most influential q-related topics for *user*.

        Returns the ranked results (length <= k; shorter when fewer topics
        match the query) and the work statistics.
        """
        return self.search_many([(user, query)], k)[0]

    def search_many(
        self,
        requests: Iterable[Tuple[int, Union[str, KeywordQuery]]],
        k: int,
    ) -> List[Tuple[List[SearchResult], SearchStats]]:
        """Answer many ``(user, query)`` requests, batched by query.

        Requests sharing a keyword query (same normalized tokens and
        mode) are grouped so topic resolution, label ranking and summary
        arrays compile exactly once per distinct query; every user in the
        group then runs the array kernels against the shared plan.
        Results are returned aligned with the input order, each a
        ``(results, stats)`` pair.
        """
        require_in_range("k", k, 1)
        request_list = [
            (int(user), query) for user, query in requests
        ]
        outcomes: List[Optional[Tuple[List[SearchResult], SearchStats]]] = (
            [None] * len(request_list)
        )
        groups: "OrderedDict[Tuple, Tuple[KeywordQuery, List[int]]]" = OrderedDict()
        for position, (_, query) in enumerate(request_list):
            parsed = (
                KeywordQuery.parse(query) if isinstance(query, str) else query
            )
            key = normalized_query_key(parsed)
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = (parsed, [position])
            else:
                bucket[1].append(position)
        for parsed, positions in groups.values():
            plan = self._plan(parsed)
            for position in positions:
                user = request_list[position][0]
                outcomes[position] = self._timed_execute(plan, user, k)
        return outcomes  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Array-native Algorithm 10/11
    # ------------------------------------------------------------------
    def _execute(
        self, plan: _QueryPlan, user: int, k: int
    ) -> Tuple[List[SearchResult], SearchStats]:
        stats = SearchStats()
        stats.topics_considered = plan.n_topics
        if plan.n_topics == 0:
            return [], stats

        entry_v = self._propagation.entry(user)
        stats.entries_probed += 1
        n_topics = plan.n_topics

        # Algorithm 10 lines 4-13: resolve every summary against Γ(v) in
        # one searchsorted pass, then scatter-sum the found slots per
        # topic. Dropping the absent slots drops only +0.0 terms, so the
        # sums match a dense pass bit for bit. bincount of an empty index
        # array is int64 even with weights=, hence the cast.
        slots, probs = plan.probe(entry_v)
        stats.representatives_touched += plan.n_reps
        slot_topic = plan.rep_topic[slots]
        scores = np.bincount(
            slot_topic,
            weights=probs * plan.rep_weights[slots],
            minlength=n_topics,
        ).astype(np.float64, copy=False)
        unfound_weights = plan.rep_weights.copy()
        unfound_weights[slots] = 0.0
        remaining_weight = np.bincount(
            plan.rep_topic, weights=unfound_weights, minlength=n_topics
        )
        consumed = np.zeros(plan.n_reps, dtype=bool)  # over the rep block
        consumed[slots] = True
        n_remaining = plan.rep_counts - np.bincount(
            slot_topic, minlength=n_topics
        )

        # Lines 14-20: initial pruning against the marked-frontier bound.
        # The frontier is a dense per-node reach array (reach[u] = best
        # discounted weight from v to u); Γ*(v) seeds it at weight 1.
        n_nodes = self._propagation.graph.n_nodes
        reach = np.zeros(n_nodes, dtype=np.float64)
        marked_v = entry_v.marked_array
        if marked_v.size:
            marked_probs = entry_v.marked_probabilities()
            reach[marked_v] = marked_probs
            max_ep = float(marked_probs.max())
        else:
            max_ep = 0.0
        active = np.ones(n_topics, dtype=bool)
        tracker = _KthBound(k, scores)
        self._prune(
            active, scores, remaining_weight, n_remaining, tracker, max_ep,
            stats,
        )

        # Lines 21-22 + Algorithm 11: expand while an active topic is
        # outside the current top-k (membership, not scores, drives the
        # recursion - identical to the scalar reading).
        expanded = np.zeros(n_nodes, dtype=bool)
        has_frontier = bool(marked_v.size)
        rounds = 0
        while (
            has_frontier
            and rounds < self._max_expand_rounds
            and self._active_outside_topk(active, scores, plan.label_rank, k)
        ):
            rounds += 1
            stats.expansion_rounds += 1
            reach, next_max = self._expand_round(
                plan, reach, expanded, active, scores, remaining_weight,
                n_remaining, consumed, tracker, k, stats,
            )
            # Frontier entries are only created with positive reach, so a
            # zero max means the next frontier is empty.
            has_frontier = next_max > 0.0

        order = np.lexsort((plan.label_rank, -scores))[:k]
        results = [
            SearchResult(
                topic_id=plan.topic_ids[i],
                label=plan.labels[i],
                influence=float(scores[i]),
            )
            for i in order.tolist()
        ]
        return results, stats

    @staticmethod
    def _active_outside_topk(
        active: np.ndarray, scores: np.ndarray, label_rank: np.ndarray, k: int
    ) -> bool:
        """Whether any active topic sits outside the current top-k."""
        if not active.any():
            return False
        order = np.lexsort((label_rank, -scores))
        outside = active.copy()
        outside[order[:k]] = False
        return bool(outside.any())

    @staticmethod
    def _prune(
        active: np.ndarray,
        scores: np.ndarray,
        remaining_weight: np.ndarray,
        n_remaining: np.ndarray,
        tracker: _KthBound,
        max_ep: float,
        stats: SearchStats,
    ) -> bool:
        """Vectorized lines 17-20: drop exhausted and bounded-out topics.

        Returns whether any topic was dropped (i.e. *active* changed).
        """
        kth = tracker.bound()
        exhausted = n_remaining == 0
        upper = scores + remaining_weight * max_ep
        drop = active & (exhausted | (kth >= upper))
        if not drop.any():
            return False
        stats.topics_pruned += int(np.count_nonzero(drop & ~exhausted))
        active &= ~drop
        return True

    def _expand_round(
        self,
        plan: _QueryPlan,
        reach: np.ndarray,
        expanded: np.ndarray,
        active: np.ndarray,
        scores: np.ndarray,
        remaining_weight: np.ndarray,
        n_remaining: np.ndarray,
        consumed: np.ndarray,
        tracker: _KthBound,
        k: int,
        stats: SearchStats,
    ) -> Tuple[np.ndarray, float]:
        """One Expand recursion (Algorithm 11).

        *reach* is the current frontier as a dense per-node array (0 for
        nodes not on the frontier); returns the next frontier in the same
        form together with its largest reach (0 when empty).
        """
        n_topics = plan.n_topics
        next_reach = np.zeros_like(reach)
        # Running max of the next frontier: entries are only ever
        # inserted or raised, never lowered, so the max is monotone.
        next_max = 0.0
        # The caller only enters a round while an active topic sits
        # outside the top-k; the lexsort membership test is re-run only
        # when scores or the active set actually changed since.
        topk_dirty = False
        # Deterministic order: strongest connection to v first. Processing
        # in descending weight lets the mid-round bound use the next
        # unprocessed weight as maxEP, so the round can stop early
        # (Algorithm 11 lines 13-14 check termination per topic pass).
        nodes = np.flatnonzero(reach)
        order = np.lexsort((nodes, -reach[nodes]))
        ordered = nodes[order].tolist()
        ordered_weights = reach[nodes[order]].tolist()
        last = len(ordered) - 1
        for position, node in enumerate(ordered):
            if expanded[node]:
                continue
            expanded[node] = True
            weight_to_v = ordered_weights[position]
            entry_u = self._propagation.entry(node)
            stats.entries_probed += 1
            # Un-consumed representatives of still-active topics, matched
            # against Γ(u).
            remaining = ~consumed & active[plan.rep_topic]
            n_remaining_reps = int(np.count_nonzero(remaining))
            stats.representatives_touched += n_remaining_reps
            if n_remaining_reps:
                slots, probs = plan.probe(entry_u)
                keep = remaining[slots]
                hit = slots[keep]
                if hit.size:
                    weights = plan.rep_weights[hit]
                    topic_of_hit = plan.rep_topic[hit]
                    gains = np.bincount(
                        topic_of_hit,
                        weights=weight_to_v * probs[keep] * weights,
                        minlength=n_topics,
                    )
                    consumed_weight = np.bincount(
                        topic_of_hit, weights=weights, minlength=n_topics
                    )
                    consumed[hit] = True
                    n_remaining -= np.bincount(
                        topic_of_hit, minlength=n_topics
                    )
                    gained = np.flatnonzero(gains)
                    if gained.size:
                        topk_dirty = True
                        scores[gained] += gains[gained]
                        # Decrement instead of re-summing the survivors;
                        # pin to 0 when the pool empties so float drift
                        # cannot leave residual bound.
                        remaining_weight[gained] = np.where(
                            n_remaining[gained] > 0,
                            remaining_weight[gained] - consumed_weight[gained],
                            0.0,
                        )
                        for topic in gained.tolist():
                            tracker.update(topic, float(scores[topic]))
            marked_u = entry_u.marked_array
            if marked_u.size:
                marked_probs = entry_u.marked_probabilities()
                reaches = weight_to_v * marked_probs
                # Insert-time filtering against *expanded*: nodes expanded
                # later in this round keep the entry they already earned,
                # so the next frontier's contents (and hence the bounds)
                # match the per-node reference exactly.
                better = np.flatnonzero(
                    (reaches > next_reach[marked_u]) & ~expanded[marked_u]
                )
                if better.size:
                    gained_reach = reaches[better]
                    next_reach[marked_u[better]] = gained_reach
                    top = float(gained_reach.max())
                    if top > next_max:
                        next_max = top
            # Mid-round pruning: anything still to come is bounded by the
            # largest unprocessed frontier weight (this round or the next).
            pending_max = (
                ordered_weights[position + 1] if position < last else 0.0
            )
            round_max_ep = pending_max if pending_max > next_max else next_max
            if self._prune(
                active, scores, remaining_weight, n_remaining, tracker,
                round_max_ep, stats,
            ):
                topk_dirty = True
            if topk_dirty:
                topk_dirty = False
                if not self._active_outside_topk(
                    active, scores, plan.label_rank, k
                ):
                    return next_reach, next_max
        self._prune(
            active, scores, remaining_weight, n_remaining, tracker, next_max,
            stats,
        )
        return next_reach, next_max
