"""End-to-end PIT-Search engine facade (S24).

Ties the whole stack together the way the paper's Algorithms 5 and 9 do:

* **offline** - build the walk index (Algorithm 6) once per graph, derive a
  topic summary per topic with the configured summarizer (RCL-A or LRW-A),
  and materialize propagation entries on demand;
* **online** - answer ``search(user, query, k)`` via Algorithm 10.

Summaries and propagation entries are cached, so repeated queries pay only
the online cost - exactly the paper's amortization story.

:meth:`PITEngine.build_summaries` runs the offline summarization stage
through the same runner (:mod:`repro._build_runner`) as
:meth:`~repro.core.propagation.PropagationIndex.build_all`: topics spread
across worker processes when ``workers > 1`` (every topic's summary is
independent, and the RCL-A randomness is derived per topic, so parallel
output is byte-identical to serial), completed summaries flush
periodically to a checksummed checkpoint artifact, crashed workers retry
on fresh pools with bounded backoff, and a later call resumes from the
checkpoint.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .._build_runner import BuildRunner
from .._utils import SeedLike, coerce_rng
from ..exceptions import BuildFailedError, ConfigurationError
from ..graph import SocialGraph
from ..obs.registry import MetricsRegistry, MetricsSnapshot, get_registry
from ..topics import KeywordQuery, TopicIndex
from ..walks import WalkIndex
from .lrw import LRWSummarizer
from .propagation import PropagationIndex
from .rcl import RCLSummarizer
from .search import PersonalizedSearcher, SearchResult, SearchStats
from .summarization import Summarizer, TopicSummary

__all__ = ["PITEngine"]

_SUMMARIZER_NAMES = ("lrw", "rcl")


# ---------------------------------------------------------------------------
# build_summaries through the shared runner (repro._build_runner). The pool
# initializer ships the fully configured summarizer (graph, topic index,
# walk index) to each worker once; chunks return plain (topic_id,
# weights-dict) pairs so nothing engine-shaped is pickled per result.
# ---------------------------------------------------------------------------


def _summarize_chunk(
    summarizer: Summarizer, topics: Sequence[int]
) -> List[Tuple[int, Dict[int, float]]]:
    return [
        (int(topic), dict(summarizer.summarize(int(topic)).weights))
        for topic in topics
    ]


class _SummaryBuild(BuildRunner):
    """One :meth:`PITEngine.build_summaries` call over topic ids."""

    prefix, item, items, key = "summarize", "topic", "topics", "topic"
    noun = "topic summaries"
    worker_chunk = staticmethod(_summarize_chunk)

    def __init__(self, engine: "PITEngine", topic_ids: List[int], **policy):
        super().__init__(engine._metrics, **policy)
        self.engine = engine
        self.topic_ids = topic_ids

    def missing(self) -> List[int]:
        built = self.engine._summaries
        return [t for t in self.topic_ids if t not in built]

    def load(self, path: Path) -> int:
        from .persistence import load_summaries

        built = self.engine._summaries
        loaded = load_summaries(path, self.engine.graph)
        fresh = {t: s for t, s in loaded.items() if t not in built}
        built.update(fresh)
        return len(fresh)

    def save(self, path: Path) -> None:
        from .persistence import save_summaries

        save_summaries(self.engine._summaries, self.engine.graph, path)

    def build_item(self, topic_id: int) -> None:
        engine = self.engine
        engine._summaries[topic_id] = engine.summarizer.summarize(topic_id)

    @contextmanager
    def pool_state(self):
        # Detach the summarizer's metrics registry while it ships to the
        # workers: they record into their own process default, and the
        # parent accounts results as they return.
        summarizer = self.engine.summarizer  # also forces the walk index build
        saved_metrics = getattr(summarizer, "_metrics", None)
        if hasattr(summarizer, "set_metrics"):
            summarizer.set_metrics(None)
        try:
            yield summarizer
        finally:
            if hasattr(summarizer, "set_metrics"):
                summarizer.set_metrics(saved_metrics)

    def adopt_chunk(self, result: List[Tuple[int, Dict[int, float]]]) -> int:
        for topic_id, weights in result:
            self.engine._summaries[topic_id] = TopicSummary(topic_id, weights)
        return len(result)

    def attach_partial(self, error: BuildFailedError) -> None:
        error.partial_summaries = dict(self.engine._summaries)


class PITEngine:
    """One-stop PIT-Search over a graph + topic index.

    Parameters
    ----------
    graph / topic_index:
        The social network and its topic space.
    summarizer:
        ``"lrw"`` (default), ``"rcl"``, or a pre-built
        :class:`~repro.core.summarization.Summarizer` instance.
    theta:
        Propagation-index path-probability threshold ``θ``.
    walk_length / samples_per_node:
        ``L`` and ``R`` of the walk index (shared by both summarizers).
    rep_fraction:
        ``μ`` - representatives per topic as a fraction of ``|V_t|``.
    sample_rate:
        RCL-A's ``|V'|/|V|`` sampling rate (ignored for LRW-A).
    max_expand_rounds:
        Online Expand recursion bound.
    entry_cache_bytes / summary_cache_bytes:
        When set, the online searcher keeps lazily built propagation
        entries / summary array forms in bounded byte-accounted LRU caches
        of these sizes instead of unbounded per-index caches (see
        :mod:`repro.core.serving`). ``None`` (default) keeps the original
        unbounded behaviour.
    seed:
        Seed or generator for all stochastic stages.
    metrics:
        Registry receiving offline-build, summarization, and per-search
        metrics from every engine-owned component. ``None`` (default)
        uses the process-wide registry;
        :func:`~repro.obs.registry.null_registry` disables recording.

    Examples
    --------
    >>> from repro.datasets import data_2k
    >>> from repro.core.engine import PITEngine
    >>> bundle = data_2k(seed=7, with_corpus=False)
    >>> engine = PITEngine.from_dataset(bundle, summarizer="lrw", seed=7)
    >>> results = engine.search(user=3, query="phone", k=3)
    """

    def __init__(
        self,
        graph: SocialGraph,
        topic_index: TopicIndex,
        *,
        summarizer: Union[str, Summarizer] = "lrw",
        theta: float = 0.002,
        walk_length: int = 5,
        samples_per_node: int = 25,
        rep_fraction: float = 0.1,
        sample_rate: float = 0.05,
        max_expand_rounds: int = 8,
        entry_cache_bytes: Optional[int] = None,
        summary_cache_bytes: Optional[int] = None,
        seed: SeedLike = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if graph.n_nodes != topic_index.n_nodes:
            raise ConfigurationError(
                f"graph has {graph.n_nodes} nodes but topic index covers "
                f"{topic_index.n_nodes}"
            )
        self._graph = graph
        self._topic_index = topic_index
        self._rng = coerce_rng(seed)
        self._walk_length = int(walk_length)
        self._samples = int(samples_per_node)
        self._rep_fraction = float(rep_fraction)
        self._sample_rate = float(sample_rate)
        self._walk_index: Optional[WalkIndex] = None
        self._summarizer_spec = summarizer
        self._summarizer: Optional[Summarizer] = None
        self._summaries: Dict[int, TopicSummary] = {}
        #: Stats of the most recent :meth:`build_summaries` call.
        self.last_summary_build_stats = None
        self._metrics = metrics
        self.propagation_index = PropagationIndex(graph, theta, metrics=metrics)
        self._searcher = PersonalizedSearcher(
            topic_index,
            self.summary,
            self.propagation_index,
            max_expand_rounds=max_expand_rounds,
            entry_cache_bytes=entry_cache_bytes,
            summary_cache_bytes=summary_cache_bytes,
            metrics=metrics,
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_dataset(cls, bundle, **kwargs) -> "PITEngine":
        """Build an engine from a :class:`~repro.datasets.DatasetBundle`."""
        return cls(bundle.graph, bundle.topic_index, **kwargs)

    @property
    def graph(self) -> SocialGraph:
        """The social graph."""
        return self._graph

    @property
    def topic_index(self) -> TopicIndex:
        """The topic space."""
        return self._topic_index

    @property
    def walk_index(self) -> WalkIndex:
        """The shared Algorithm 6 walk index (built on first access)."""
        if self._walk_index is None:
            self._walk_index = WalkIndex.built(
                self._graph,
                self._walk_length,
                self._samples,
                seed=self._rng,
            )
        return self._walk_index

    @property
    def summarizer(self) -> Summarizer:
        """The configured offline summarizer (built on first access)."""
        if self._summarizer is None:
            self._summarizer = self._make_summarizer(self._summarizer_spec)
        return self._summarizer

    def _make_summarizer(self, spec: Union[str, Summarizer]) -> Summarizer:
        if isinstance(spec, Summarizer):
            return spec
        if spec == "lrw":
            return LRWSummarizer(
                self._graph,
                self._topic_index,
                self.walk_index,
                rep_fraction=self._rep_fraction,
                metrics=self._metrics,
            )
        if spec == "rcl":
            return RCLSummarizer(
                self._graph,
                self._topic_index,
                max_hops=self._walk_length,
                sample_rate=self._sample_rate,
                rep_fraction=self._rep_fraction,
                walk_index=self.walk_index,
                seed=self._rng,
                metrics=self._metrics,
            )
        raise ConfigurationError(
            f"unknown summarizer {spec!r}; choose from {_SUMMARIZER_NAMES} "
            "or pass a Summarizer instance"
        )

    # ------------------------------------------------------------------
    def summary(self, topic_id: int) -> TopicSummary:
        """Cached topic summary (offline stage, lazily per topic)."""
        topic_id = self._topic_index.resolve(topic_id)
        cached = self._summaries.get(topic_id)
        if cached is None:
            cached = self.summarizer.summarize(topic_id)
            self._summaries[topic_id] = cached
        return cached

    def use_propagation_index(self, index: PropagationIndex) -> "PITEngine":
        """Swap in a pre-built propagation index (e.g. loaded from disk).

        The index must cover this engine's graph; entries it already holds
        are served as-is and any missing ones still build lazily.
        """
        if (
            index.graph.n_nodes != self._graph.n_nodes
            or index.graph.n_edges != self._graph.n_edges
        ):
            raise ConfigurationError(
                f"propagation index covers a graph with "
                f"{index.graph.n_nodes} nodes/{index.graph.n_edges} edges, "
                f"but the engine's graph has {self._graph.n_nodes} nodes/"
                f"{self._graph.n_edges} edges"
            )
        self.propagation_index = index
        self._searcher.set_propagation_index(index)
        if self._metrics is not None:
            index.set_metrics(self._metrics)
        return self

    def replace_topic_index(
        self,
        new_index: TopicIndex,
        kept_summaries: Optional[Dict[int, TopicSummary]] = None,
    ) -> "PITEngine":
        """Swap in a new topic space, keeping the given summaries.

        The public seam for dynamic maintenance
        (:func:`~repro.core.dynamics.apply_topic_update`): installs
        *new_index*, replaces the summary cache with *kept_summaries*
        (already re-keyed to the new index's topic ids; every other
        summary rebuilds lazily), drops the bound summarizer (it holds
        the old index), and resets the searcher's topic-derived caches.
        """
        if new_index.n_nodes != self._graph.n_nodes:
            raise ConfigurationError(
                f"topic index covers {new_index.n_nodes} nodes but the "
                f"engine's graph has {self._graph.n_nodes}"
            )
        kept = dict(kept_summaries) if kept_summaries else {}
        for topic_id, summary in kept.items():
            if summary.topic_id != topic_id:
                raise ConfigurationError(
                    f"kept summary keyed {topic_id} carries "
                    f"topic_id={summary.topic_id}; re-key it first"
                )
        self._topic_index = new_index
        self._summaries = kept
        self._summarizer = None  # bound to the old index; rebuild lazily
        # Also drops compiled query plans and cached summary arrays - both
        # are keyed by (possibly re-numbered) topic ids of the old index.
        self._searcher.set_topic_index(new_index)
        return self

    def replace_graph(
        self,
        new_graph: SocialGraph,
        new_index: PropagationIndex,
        *,
        kept_summaries: Optional[Dict[int, TopicSummary]] = None,
    ) -> "PITEngine":
        """Swap in an edited graph with its partially rebuilt index.

        The engine-level landing point of a
        :class:`~repro.core.dynamics.GraphDelta`: installs the new graph
        and propagation index, keeps only *kept_summaries* (topics whose
        member and representative sets missed the affected region; the
        rest rebuild lazily against the new graph), and drops the walk
        index and bound summarizer, which sample the old graph.
        """
        if new_graph.n_nodes != self._graph.n_nodes:
            raise ConfigurationError(
                f"delta graphs must keep the node set: got "
                f"{new_graph.n_nodes} nodes, engine has {self._graph.n_nodes}"
            )
        if new_index.graph is not new_graph:
            raise ConfigurationError(
                "the propagation index must be built over the new graph"
            )
        self._graph = new_graph
        self._walk_index = None
        self._summarizer = None
        self._summaries = (
            dict(kept_summaries) if kept_summaries is not None else {}
        )
        self.propagation_index = new_index
        self._searcher.set_propagation_index(new_index)
        self._searcher.invalidate_query_caches()
        if self._metrics is not None:
            new_index.set_metrics(self._metrics)
        return self

    def build(self, topics: Optional[Iterable[Union[int, str]]] = None) -> "PITEngine":
        """Run the offline stage eagerly.

        Builds the walk index and the summaries of *topics* (default: every
        topic in the space). Propagation entries stay lazy - they are
        per-user and the paper also materializes them independently.
        """
        if topics is None:
            topics = range(self._topic_index.n_topics)
        for topic in topics:
            self.summary(self._topic_index.resolve(topic))
        return self

    def build_summaries(
        self,
        topics: Optional[Iterable[Union[int, str]]] = None,
        *,
        workers: Optional[int] = 1,
        checkpoint=None,
        checkpoint_every: int = 16,
        resume: bool = True,
        max_retries: int = 2,
        retry_backoff: float = 0.5,
        strict: bool = True,
    ) -> "PITEngine":
        """Build the summaries of *topics* with checkpoints and retries.

        The fault-tolerant, parallel counterpart of :meth:`build` -
        engineered like
        :meth:`~repro.core.propagation.PropagationIndex.build_all`.

        Parameters
        ----------
        topics:
            Topics to summarize (ids or labels); default every topic.
        workers:
            Worker processes to shard topics across. ``1`` (default)
            builds serially in-process; ``None`` uses every available
            CPU. Parallel results are byte-identical to serial ones:
            LRW-A is deterministic given the shared walk index, and
            RCL-A derives its randomness per topic from
            ``(entropy, topic_id)``, independent of build order.
        checkpoint:
            Path of a checkpoint artifact. When set, completed summaries
            are flushed there every ``checkpoint_every`` topics
            (atomically, checksummed, graph-signed), on interruption, and
            when the build finishes - so a crashed build loses at most
            one flush interval of work.
        checkpoint_every:
            Topics between periodic checkpoint flushes; ``0`` flushes
            only at interruption/completion.
        resume:
            Load an existing checkpoint before building (default). The
            checkpoint must match this engine's graph signature.
        max_retries:
            Fresh-process retry rounds for chunks whose worker crashed
            or raised an unexpected error. Deterministic library errors
            (:class:`~repro.exceptions.ReproError`) are never retried.
        retry_backoff:
            Base of the bounded exponential backoff (seconds) slept
            before each retry round: ``retry_backoff * 2**(round-1)``,
            capped at 30s.
        strict:
            What to do with topics that still fail after ``max_retries``:
            ``True`` (default) raises
            :class:`~repro.exceptions.BuildFailedError` (with the partial
            summaries attached as ``partial_summaries`` and the
            checkpoint flushed); ``False`` records them on the build
            stats and continues.

        Records a :class:`~repro.core.diagnostics.SummaryBuildStats` on
        :attr:`last_summary_build_stats` - a view over the metrics
        registry delta, like the propagation build's stats.
        """
        from .diagnostics import SummaryBuildStats

        if topics is None:
            topic_ids = list(range(self._topic_index.n_topics))
        else:
            topic_ids = [self._topic_index.resolve(t) for t in topics]
        run = _SummaryBuild(
            self,
            topic_ids,
            workers=workers,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
        )
        failed, n_resumed = run.build_all(checkpoint, checkpoint_every, resume)
        self.last_summary_build_stats = SummaryBuildStats.from_metrics(
            run.finish(failed),
            n_summaries=len(self._summaries),
            workers=run.workers,
            failed_topics=tuple(sorted(set(failed))),
            n_resumed=n_resumed,
        )
        run.settle(
            failed,
            strict,
            "skipped (see last_summary_build_stats.failed_topics)",
        )
        return self

    @property
    def n_summaries(self) -> int:
        """Number of topic summaries built so far."""
        return len(self._summaries)

    @property
    def summaries(self) -> Dict[int, TopicSummary]:
        """The topic summaries built so far (a copy, keyed by topic id).

        Pair with :func:`~repro.core.persistence.save_summaries` /
        :func:`~repro.core.persistence.load_summaries` to persist a
        finished :meth:`build_summaries` run as its own artifact.
        """
        return dict(self._summaries)

    # ------------------------------------------------------------------
    def search(
        self,
        user: int,
        query: Union[str, KeywordQuery],
        k: int = 10,
        *,
        with_stats: bool = False,
    ):
        """Top-k personalized influential topics for *user* (Algorithm 10).

        Returns the ranked :class:`~repro.core.search.SearchResult` list,
        or ``(results, stats)`` when *with_stats* is true.
        """
        results, stats = self._searcher.search(user, query, k)
        if with_stats:
            return results, stats
        return results

    def search_batch(
        self,
        requests: Iterable[Tuple[int, Union[str, KeywordQuery]]],
        k: int = 10,
        *,
        with_stats: bool = False,
    ):
        """Answer many ``(user, query)`` requests in one batched call.

        Delegates to
        :meth:`~repro.core.search.PersonalizedSearcher.search_many`:
        requests sharing a keyword query are grouped so topic resolution
        and summary arrays are paid once per distinct query. Returns a
        list aligned with the input order - each element the ranked
        results, or ``(results, stats)`` when *with_stats* is true.
        """
        outcomes = self._searcher.search_many(requests, k)
        if with_stats:
            return outcomes
        return [results for results, _ in outcomes]

    def cache_stats(self):
        """Snapshots of the searcher's bounded serving caches.

        A tuple of :class:`~repro.core.diagnostics.CacheStats`, empty when
        the engine was built without cache budgets.
        """
        return self._searcher.cache_stats()

    def set_metrics(self, registry: Optional[MetricsRegistry]) -> "PITEngine":
        """Route every engine-owned component's metrics to *registry*.

        ``None`` restores the process-wide default; a
        :class:`~repro.obs.registry.NullRegistry` disables recording
        (the benchmark's overhead baseline).
        """
        self._metrics = registry
        self.propagation_index.set_metrics(registry)
        self._searcher.set_metrics(registry)
        if self._summarizer is not None and hasattr(
            self._summarizer, "set_metrics"
        ):
            self._summarizer.set_metrics(registry)
        return self

    def metrics_snapshot(self) -> MetricsSnapshot:
        """A coherent snapshot of the engine's metrics registry.

        Publishes the point-in-time gauges first - cache hit ratios and
        occupancy, propagation-index size, summary count - then snapshots.
        Gauges are published here (snapshot time) rather than per search,
        keeping the serving hot path to counter adds only.
        """
        from .serve_facade import publish_engine_gauges

        registry = (
            self._metrics if self._metrics is not None else get_registry()
        )
        publish_engine_gauges(
            registry,
            searcher=self._searcher,
            propagation_index=self.propagation_index,
            n_summaries=self.n_summaries,
            memory_bytes=self.memory_bytes(),
        )
        return registry.snapshot()

    def memory_bytes(self) -> int:
        """Approximate resident size of all engine-owned indexes.

        Covers the propagation index, the walk index (when built), every
        cached topic summary (including its frozen array form, via
        :meth:`~repro.core.summarization.TopicSummary.memory_bytes`), and
        the online searcher's bounded serving caches and compiled query
        plans. A memory-mapped shard backend is charged only at the bytes
        its paging cache currently holds resident - the full on-disk
        footprint is reported separately by the
        ``propagation.index_mapped_bytes`` gauge.
        """
        total = self.propagation_index.memory_bytes()
        if self._walk_index is not None and self._walk_index.is_built:
            total += self._walk_index.memory_bytes()
        total += sum(s.memory_bytes() for s in self._summaries.values())
        total += self._searcher.cache_memory_bytes()
        summary_stats = self._searcher.summary_cache_stats()
        if summary_stats is not None:
            # The summary-array LRU aliases array forms already charged
            # via TopicSummary.memory_bytes(); back out the double count.
            total -= summary_stats.current_bytes
        return total
