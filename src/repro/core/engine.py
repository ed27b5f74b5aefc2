"""Offline PIT-Search builder (S24).

:class:`PITEngine` runs the paper's offline stage (Algorithms 5-9): it
builds the walk index (Algorithm 6) once per graph, derives a topic
summary per topic with the configured summarizer (RCL-A or LRW-A), and
owns the propagation index whose entries materialize on demand. The
online stage (Algorithms 10-11) is
:class:`~repro.core.serve_facade.ServingEngine`;
:meth:`PITEngine.serving` hands one out over the builder's artifacts.
Its summaries stay lazy: a topic is summarized on its first lookup and
kept, so repeated queries pay only the online cost - exactly the paper's
amortization story.

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
from ..obs.registry import MetricsRegistry
from ..topics import TopicIndex
from ..walks import WalkIndex
from .lrw import LRWSummarizer
from .propagation import PropagationIndex
from .rcl import RCLSummarizer
from .serve_facade import ServingEngine
from .summarization import Summarizer, TopicSummary

__all__ = ["PITEngine"]

_SUMMARIZER_NAMES = ("lrw", "rcl")


class _LazySummaries(dict):
    """A builder's ``topic_id -> TopicSummary`` that summarizes on lookup.

    ``mapping[topic_id]`` builds an absent summary with the builder's
    summarizer and keeps it; ``in``, ``get``, ``len`` and iteration see
    only the summaries built so far.
    """

    __slots__ = ("_engine",)

    def __init__(self, engine: "PITEngine", built=None):
        super().__init__(built or {})
        self._engine = engine

    def __missing__(self, topic_id: int) -> TopicSummary:
        summary = self[topic_id] = self._engine.summarizer.summarize(topic_id)
        return summary


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

    prefix, item, items = "summarize", "topic", "topics"
    key, keys = "topic", "topics"
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
    """Offline PIT-Search builder over a graph + topic index.

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
    seed:
        Seed or generator for all stochastic stages.
    metrics:
        Registry receiving offline-build and summarization metrics from
        every engine-owned component, and the per-search metrics of the
        engines :meth:`serving` hands out. ``None`` (default)
        uses the process-wide registry;
        :func:`~repro.obs.registry.null_registry` disables recording.

    Examples
    --------
    >>> from repro.datasets import data_2k
    >>> from repro.core.engine import PITEngine
    >>> bundle = data_2k(seed=7, with_corpus=False)
    >>> engine = PITEngine.from_dataset(bundle, summarizer="lrw", seed=7)
    >>> results = engine.serving().search(user=3, query="phone", k=3)
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
        self._summaries = _LazySummaries(self)
        #: Stats of the most recent :meth:`build_summaries` call.
        self.last_summary_build_stats = None
        self._metrics = metrics
        self.propagation_index = PropagationIndex(graph, theta, metrics=metrics)

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
        return self._summaries[self._topic_index.resolve(topic_id)]

    def serving(
        self,
        propagation_index: Optional[PropagationIndex] = None,
        **budgets,
    ) -> ServingEngine:
        """A :class:`~repro.core.serve_facade.ServingEngine` over this build.

        It serves this builder's graph, topic index, summaries and
        propagation index, or *propagation_index* instead (e.g. a
        :func:`~repro.core.shards.load_sharded_index` directory over the
        same graph). Summaries stay lazy: a query summarizes each related
        topic it lacks, into this builder. *budgets* are forwarded to
        ``ServingEngine`` (``max_expand_rounds`` and the ``*_cache_bytes``
        tiers); metrics go to this builder's registry. After
        :meth:`replace_graph`, :meth:`replace_topic_index` or
        :meth:`reset_walk_index`, ask for a new engine.
        """
        return ServingEngine(
            self._graph,
            self._topic_index,
            self._summaries,
            self.propagation_index if propagation_index is None
            else propagation_index,
            metrics=self._metrics,
            **budgets,
        )

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
        summary rebuilds lazily) and drops the bound summarizer (it holds
        the old index).
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
        self._summarizer = None  # bound to the old index; rebuild lazily
        self._summaries = _LazySummaries(self, kept)
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
        index and bound summarizer, which sample the old graph
        (:meth:`reset_walk_index`).
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
        self.propagation_index = new_index
        if self._metrics is not None:
            new_index.set_metrics(self._metrics)
        return self.reset_walk_index(kept_summaries)

    def reset_walk_index(
        self, kept_summaries: Optional[Dict[int, TopicSummary]] = None
    ) -> "PITEngine":
        """Drop the walk index, the bound summarizer and the summaries.

        All three rebuild lazily on next use; only *kept_summaries*
        survive. Engines :meth:`serving` handed out earlier keep serving
        the old summaries.
        """
        self._walk_index = None
        self._summarizer = None
        self._summaries = _LazySummaries(self, kept_summaries)
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

    def set_metrics(self, registry: Optional[MetricsRegistry]) -> "PITEngine":
        """Route every engine-owned component's metrics to *registry*.

        ``None`` restores the process-wide default; a
        :class:`~repro.obs.registry.NullRegistry` disables recording
        (the benchmark's overhead baseline).
        """
        self._metrics = registry
        self.propagation_index.set_metrics(registry)
        if self._summarizer is not None and hasattr(
            self._summarizer, "set_metrics"
        ):
            self._summarizer.set_metrics(registry)
        return self
