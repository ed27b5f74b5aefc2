"""Per-figure experiment runner (S31).

One method per table/figure of the paper's §6 evaluation. Each method
returns a :class:`~repro.evaluation.reporting.Table` whose rows mirror the
series the paper plots; the benchmark harness prints them and
EXPERIMENTS.md records paper-vs-measured.

Scaling: DESIGN.md §3 documents how the paper's datasets map onto the
bundled scaled analogues. Parameters below (k values, representative-node
counts, workload sizes) default to the same *ratios* the paper uses at its
scale; every figure method accepts overrides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .._utils import require_in_range
from ..baselines import (
    BaseDijkstraRanker,
    BaseMatrixRanker,
    BasePropagationRanker,
)
from ..core import PITEngine, ServingEngine
from ..datasets import DATASETS, DatasetBundle, Workload, generate_workload
from ..exceptions import ConfigurationError
from .memory import measure_peak_allocation, object_bytes
from .metrics import precision_at_k
from .reporting import Table, format_bytes, format_seconds
from .timing import Stopwatch, time_workload

__all__ = ["ExperimentConfig", "ExperimentSuite", "METHODS"]

#: Canonical method names, in the paper's presentation order.
METHODS = ("BaseMatrix", "BaseDijkstra", "BasePropagation", "RCL-A", "LRW-A")

#: Dataset order of the scalability figures (small to large).
SCALABILITY_ORDER = ("data_2k", "data_350k", "data_1.2m", "data_3m")


@dataclass
class ExperimentConfig:
    """Knobs shared by every experiment.

    Attributes mirror the paper's parameters: ``theta`` (§5.1),
    ``walk_length`` = L, ``samples_per_node`` = R, ``rep_fraction`` = μ,
    ``sample_rate`` = |V'|/|V| (§3), ``matrix_length`` = BaseMatrix's
    iteration count. ``dataset_sizes`` overrides bundle node counts (e.g.
    to shrink everything for CI).
    """

    seed: int = 42
    n_queries: int = 5
    n_users: int = 3
    theta: float = 0.002
    walk_length: int = 5
    samples_per_node: int = 25
    rep_fraction: float = 0.1
    sample_rate: float = 0.05
    matrix_length: int = 6
    max_alternatives: int = 3
    #: Per-query cap on BaseDijkstra deviation re-runs (None = unbounded,
    #: the paper's 25-hour regime; the bench profile sets a finite cap).
    deviation_budget: Optional[int] = None
    dataset_sizes: Dict[str, int] = field(default_factory=dict)


class ExperimentSuite:
    """Caches datasets/engines and runs the per-figure experiments.

    Parameters
    ----------
    config:
        Shared knobs; ``ExperimentConfig()`` defaults reproduce the
        committed EXPERIMENTS.md numbers.
    """

    def __init__(self, config: Optional[ExperimentConfig] = None):
        self.config = config or ExperimentConfig()
        self._bundles: Dict[str, DatasetBundle] = {}
        self._workloads: Dict[str, Workload] = {}
        self._engines: Dict[Tuple[str, str, float], PITEngine] = {}
        self._servers: Dict[PITEngine, ServingEngine] = {}
        self._matrix_rankers: Dict[str, BaseMatrixRanker] = {}

    # ------------------------------------------------------------------
    # Cached building blocks
    # ------------------------------------------------------------------
    def bundle(self, name: str) -> DatasetBundle:
        """The (cached) dataset bundle for *name*."""
        if name not in DATASETS:
            raise ConfigurationError(
                f"unknown dataset {name!r}; choose from {sorted(DATASETS)}"
            )
        cached = self._bundles.get(name)
        if cached is None:
            factory = DATASETS[name]
            kwargs = {}
            if name in self.config.dataset_sizes:
                kwargs["n_nodes"] = self.config.dataset_sizes[name]
            if name == "data_2k":
                kwargs["with_corpus"] = False
            cached = factory(seed=self.config.seed, **kwargs)
            self._bundles[name] = cached
        return cached

    def workload(self, name: str) -> Workload:
        """The (cached) query workload for dataset *name*."""
        cached = self._workloads.get(name)
        if cached is None:
            cached = generate_workload(
                self.bundle(name),
                n_queries=self.config.n_queries,
                n_users=self.config.n_users,
                seed=self.config.seed + 1,
            )
            self._workloads[name] = cached
        return cached

    def engine(
        self,
        dataset: str,
        summarizer: str,
        *,
        rep_fraction: Optional[float] = None,
    ) -> PITEngine:
        """A (cached) warmed engine for (dataset, summarizer, μ)."""
        mu = self.config.rep_fraction if rep_fraction is None else rep_fraction
        key = (dataset, summarizer, mu)
        cached = self._engines.get(key)
        if cached is None:
            bundle = self.bundle(dataset)
            cached = PITEngine.from_dataset(
                bundle,
                summarizer=summarizer,
                theta=self.config.theta,
                walk_length=self.config.walk_length,
                samples_per_node=self.config.samples_per_node,
                rep_fraction=mu,
                sample_rate=self.config.sample_rate,
                seed=self.config.seed + 2,
            )
            self._engines[key] = cached
        return cached

    def serving(
        self,
        dataset: str,
        summarizer: str,
        *,
        rep_fraction: Optional[float] = None,
    ) -> ServingEngine:
        """The (cached) serving engine over :meth:`engine`'s builder."""
        builder = self.engine(dataset, summarizer, rep_fraction=rep_fraction)
        if builder not in self._servers:
            self._servers[builder] = builder.serving()
        return self._servers[builder]

    def matrix_ranker(self, dataset: str) -> BaseMatrixRanker:
        """A (cached) BaseMatrix ground-truth ranker for *dataset*."""
        cached = self._matrix_rankers.get(dataset)
        if cached is None:
            bundle = self.bundle(dataset)
            cached = BaseMatrixRanker(
                bundle.graph,
                bundle.topic_index,
                length=self.config.matrix_length,
                cache_vectors=True,
            )
            self._matrix_rankers[dataset] = cached
        return cached

    def _search_callables(
        self,
        dataset: str,
        methods: Sequence[str],
        *,
        rep_fraction: Optional[float] = None,
        shared_propagation: bool = True,
    ) -> Dict[str, Callable[[int, object, int], list]]:
        """``method -> search(user, query, k)`` callables over one dataset."""
        bundle = self.bundle(dataset)
        callables: Dict[str, Callable] = {}
        lrw_engine = None
        for method in methods:
            if method == "BaseMatrix":
                ranker = BaseMatrixRanker(
                    bundle.graph, bundle.topic_index,
                    length=self.config.matrix_length, materialize=True,
                    rebuild_per_query=True,
                )
                callables[method] = ranker.search
            elif method == "BaseDijkstra":
                ranker = BaseDijkstraRanker(
                    bundle.graph, bundle.topic_index,
                    max_alternatives=self.config.max_alternatives,
                    deviation_budget=self.config.deviation_budget,
                )
                callables[method] = ranker.search
            elif method == "BasePropagation":
                shared = (
                    self.engine(dataset, "lrw", rep_fraction=rep_fraction)
                    .propagation_index
                    if shared_propagation
                    else None
                )
                ranker = BasePropagationRanker(
                    bundle.graph, bundle.topic_index,
                    propagation_index=shared, theta=self.config.theta,
                )
                callables[method] = ranker.search
            elif method == "RCL-A":
                callables[method] = self.serving(
                    dataset, "rcl", rep_fraction=rep_fraction
                ).search
            elif method == "LRW-A":
                callables[method] = self.serving(
                    dataset, "lrw", rep_fraction=rep_fraction
                ).search
            else:
                raise ConfigurationError(f"unknown method {method!r}")
        return callables

    def _warm(self, dataset: str, methods: Sequence[str],
              callables: Mapping[str, Callable],
              ks: Sequence[int]) -> None:
        """One untimed pass per k so offline indexes are materialized.

        The paper's timing figures measure *online* search over pre-built
        indexes; the warm pass builds summaries, walk index, propagation
        entries and (for BaseMatrix) the power matrix. Every k is warmed
        because smaller k values trigger *more* frontier expansion (top-k
        membership is harder to settle) and therefore touch propagation
        entries larger k never needs.
        """
        workload = self.workload(dataset)
        for method in methods:
            if method in ("BaseMatrix", "BaseDijkstra"):
                # BaseMatrix is rebuilt per query by design; BaseDijkstra's
                # deviation searches are per-query too (only the cheap
                # reverse tree would be cached) - warming either would just
                # double their dominant cost.
                continue
            search = callables[method]
            for k in ks:
                for user, query in workload.pairs():
                    search(user, query, k)

    # ------------------------------------------------------------------
    # Figure 4 - dataset summary table
    # ------------------------------------------------------------------
    def fig04_datasets(self, names: Sequence[str] = SCALABILITY_ORDER) -> Table:
        """The dataset summary of Figure 4 (scaled analogues)."""
        table = Table(
            "Fig. 4 - datasets (scaled analogues; see DESIGN.md section 3)",
            ["dataset", "nodes", "edges", "avg degree", "degree range",
             "topics", "paper nodes", "scale"],
        )
        for name in names:
            bundle = self.bundle(name)
            degrees = bundle.graph.out_degrees()
            table.add_row([
                name,
                bundle.graph.n_nodes,
                bundle.graph.n_edges,
                f"{bundle.graph.average_degree():.1f}",
                f"{int(degrees.min())}-{int(degrees.max())}",
                bundle.topic_index.n_topics,
                bundle.meta.get("paper_nodes", "?"),
                f"{float(bundle.meta.get('scale', 1.0)):.5f}",
            ])
        return table

    # ------------------------------------------------------------------
    # Figures 5-7 - query time
    # ------------------------------------------------------------------
    def _time_table(
        self,
        title: str,
        dataset: str,
        methods: Sequence[str],
        ks: Sequence[int],
        *,
        rep_fraction: Optional[float] = None,
    ) -> Table:
        workload = self.workload(dataset)
        callables = self._search_callables(
            dataset, methods, rep_fraction=rep_fraction
        )
        self._warm(dataset, methods, callables, ks)
        table = Table(title, ["method"] + [f"k={k}" for k in ks])
        for method in methods:
            search = callables[method]
            row = [method]
            for k in ks:
                summary = time_workload(
                    lambda user, query: search(user, query, k),
                    workload.pairs(),
                )
                row.append(format_seconds(summary.mean))
            table.add_row(row)
        return table

    def fig05_time_small(self, ks: Sequence[int] = (2, 5, 8, 10)) -> Table:
        """Figure 5: time cost of PIT-Search on data_2k, all five methods.

        Paper k values 10/20/50/100 over 500+ q-topics map to 2/5/8/10 over
        the scaled topic space (same ~2-20 percent of |T_q|).
        """
        return self._time_table(
            "Fig. 5 - PIT-Search time on data_2k (mean per query)",
            "data_2k",
            METHODS,
            ks,
        )

    def fig06_time_large(self, ks: Sequence[int] = (5, 10, 15, 25)) -> Table:
        """Figure 6: time cost on the scaled data_3m (no BaseMatrix).

        The paper omits BaseMatrix here because it needs 120 GB at full
        scale; the scaled run omits it for the same reason at ratio.
        """
        return self._time_table(
            "Fig. 6 - PIT-Search time on data_3m (mean per query)",
            "data_3m",
            ("BaseDijkstra", "BasePropagation", "RCL-A", "LRW-A"),
            ks,
        )

    def fig07_repnodes_time(
        self,
        rep_fractions: Sequence[float] = (0.05, 0.1, 0.2, 0.3),
        k: int = 10,
    ) -> Table:
        """Figure 7: time vs number of representative nodes (data_3m).

        The paper sweeps 1000..6000 representatives for ~20k-node topics,
        i.e. 5-30 percent - exactly the ``rep_fractions`` here.
        """
        dataset = "data_3m"
        workload = self.workload(dataset)
        methods = ("BaseDijkstra", "BasePropagation", "RCL-A", "LRW-A")
        table = Table(
            f"Fig. 7 - time vs representative fraction (data_3m, k={k})",
            ["method"] + [f"mu={mu:g}" for mu in rep_fractions],
        )
        for method in methods:
            row = [method]
            for mu in rep_fractions:
                callables = self._search_callables(
                    dataset, (method,), rep_fraction=mu
                )
                search = callables[method]
                self._warm(dataset, (method,), callables, (k,))
                summary = time_workload(
                    lambda user, query: search(user, query, k),
                    workload.pairs(),
                )
                row.append(format_seconds(summary.mean))
            table.add_row(row)
        return table

    # ------------------------------------------------------------------
    # Figures 8-9 - scalability
    # ------------------------------------------------------------------
    def scalability_table(
        self,
        *,
        rep_fraction: float,
        k: int = 10,
        datasets: Sequence[str] = SCALABILITY_ORDER,
        figure: str = "8",
    ) -> Table:
        """Figures 8/9: mean query time across all datasets.

        BaseMatrix is included only on data_2k (as in the paper).
        """
        table = Table(
            f"Fig. {figure} - scalability, k={k}, mu={rep_fraction:g}",
            ["method"] + list(datasets),
        )
        methods = ("BaseDijkstra", "BasePropagation", "RCL-A", "LRW-A")
        for method in methods:
            row = [method]
            for dataset in datasets:
                callables = self._search_callables(
                    dataset, (method,), rep_fraction=rep_fraction
                )
                search = callables[method]
                self._warm(dataset, (method,), callables, (k,))
                summary = time_workload(
                    lambda user, query: search(user, query, k),
                    self.workload(dataset).pairs(),
                )
                row.append(format_seconds(summary.mean))
            table.add_row(row)
        return table

    def fig08_scalability(self, k: int = 10) -> Table:
        """Figure 8: scalability with the base representative budget."""
        return self.scalability_table(
            rep_fraction=self.config.rep_fraction, k=k, figure="8"
        )

    def fig09_scalability_double_reps(self, k: int = 10) -> Table:
        """Figure 9: same sweep with double the representatives."""
        return self.scalability_table(
            rep_fraction=min(1.0, 2 * self.config.rep_fraction), k=k, figure="9"
        )

    # ------------------------------------------------------------------
    # Figures 10-12 - effectiveness
    # ------------------------------------------------------------------
    def _precision_table(
        self,
        title: str,
        dataset: str,
        methods: Sequence[str],
        reference_method: str,
        ks: Sequence[int],
        *,
        rep_fraction: Optional[float] = None,
    ) -> Table:
        workload = self.workload(dataset)
        if reference_method == "BaseMatrix":
            reference = self.matrix_ranker(dataset).search
        else:
            callables = self._search_callables(dataset, (reference_method,))
            reference = callables[reference_method]
        approx = self._search_callables(
            dataset, methods, rep_fraction=rep_fraction
        )
        table = Table(title, ["method"] + [f"k={k}" for k in ks])
        for method in methods:
            search = approx[method]
            row = [method]
            for k in ks:
                values = [
                    precision_at_k(
                        search(user, query, k),
                        reference(user, query, k),
                        k,
                    )
                    for user, query in workload.pairs()
                ]
                row.append(f"{float(np.mean(values)):.3f}")
            table.add_row(row)
        return table

    def fig10_effectiveness_small(self, ks: Sequence[int] = (2, 5, 8, 10)) -> Table:
        """Figure 10: precision vs BaseMatrix ground truth on data_2k."""
        return self._precision_table(
            "Fig. 10 - precision vs BaseMatrix (data_2k)",
            "data_2k",
            ("BaseDijkstra", "BasePropagation", "RCL-A", "LRW-A"),
            "BaseMatrix",
            ks,
        )

    def fig11_effectiveness_large(self, ks: Sequence[int] = (5, 10, 15, 25)) -> Table:
        """Figure 11: precision vs BasePropagation on the scaled data_3m."""
        return self._precision_table(
            "Fig. 11 - precision vs BasePropagation (data_3m)",
            "data_3m",
            ("BaseDijkstra", "RCL-A", "LRW-A"),
            "BasePropagation",
            ks,
        )

    def fig12_repnodes_precision(
        self,
        rep_fractions: Sequence[float] = (0.05, 0.1, 0.2, 0.3),
        k: int = 10,
    ) -> Table:
        """Figure 12: precision vs representative fraction (data_3m)."""
        dataset = "data_3m"
        workload = self.workload(dataset)
        reference = self._search_callables(dataset, ("BasePropagation",))[
            "BasePropagation"
        ]
        table = Table(
            f"Fig. 12 - precision vs representative fraction (data_3m, k={k})",
            ["method"] + [f"mu={mu:g}" for mu in rep_fractions],
        )
        for method in ("RCL-A", "LRW-A"):
            row = [method]
            for mu in rep_fractions:
                search = self._search_callables(
                    dataset, (method,), rep_fraction=mu
                )[method]
                values = [
                    precision_at_k(
                        search(user, query, k),
                        reference(user, query, k),
                        k,
                    )
                    for user, query in workload.pairs()
                ]
                row.append(f"{float(np.mean(values)):.3f}")
            table.add_row(row)
        return table

    # ------------------------------------------------------------------
    # Figures 13-14 - space cost
    # ------------------------------------------------------------------
    def space_table(
        self,
        *,
        rep_fraction: float,
        k: int = 10,
        datasets: Sequence[str] = SCALABILITY_ORDER,
        figure: str = "13",
    ) -> Table:
        """Figures 13/14: peak allocation while searching, per method.

        BaseMatrix is measured on data_2k only (the paper reports it blows
        past feasible memory on the larger sets; DESIGN.md section 3).
        """
        table = Table(
            f"Fig. {figure} - peak search allocation, k={k}, mu={rep_fraction:g}",
            ["method"] + list(datasets),
        )
        for method in METHODS:
            row = [method]
            for dataset in datasets:
                if method == "BaseMatrix" and dataset != "data_2k":
                    row.append("n/a (paper: infeasible)")
                    continue
                callables = self._search_callables(
                    dataset, (method,), rep_fraction=rep_fraction
                )
                search = callables[method]
                workload = self.workload(dataset)

                def run_all():
                    for user, query in workload.pairs():
                        search(user, query, k)

                _, peak = measure_peak_allocation(run_all)
                row.append(format_bytes(peak))
            table.add_row(row)
        return table

    def fig13_space(self, k: int = 10) -> Table:
        """Figure 13: space cost with the base representative budget."""
        return self.space_table(
            rep_fraction=self.config.rep_fraction, k=k, figure="13"
        )

    def fig14_space_double_reps(self, k: int = 10) -> Table:
        """Figure 14: space cost with double the representatives."""
        return self.space_table(
            rep_fraction=min(1.0, 2 * self.config.rep_fraction), k=k, figure="14"
        )

    # ------------------------------------------------------------------
    # Figures 15-16 - index construction
    # ------------------------------------------------------------------
    def fig15_index_construction(
        self,
        dataset: str = "data_3m",
        sample_rates: Sequence[float] = (0.01, 0.05, 0.1),
        r_values: Sequence[int] = (5, 10, 15),
        topics: int = 3,
    ) -> Tuple[Table, Table]:
        """Figure 15: per-topic summary construction cost.

        Left table sweeps RCL-A's sample rate (paper: 1/5/10 percent);
        right table sweeps LRW-A's R (paper: 100/200/300 walks - scaled to
        the bundled R ratios). Cost is the mean over the *topics* hottest
        query topics, matching "Given a topic, ... average time and space".
        """
        from ..core.rcl import RCLSummarizer
        from ..core.lrw import LRWSummarizer
        from ..walks import WalkIndex

        bundle = self.bundle(dataset)
        workload = self.workload(dataset)
        topic_ids: List[int] = []
        for query in workload.queries:
            topic_ids.extend(bundle.topic_index.related_topics(query))
        topic_ids = sorted(
            set(topic_ids),
            key=lambda t: -bundle.topic_index.topic_size(t),
        )[:topics]

        walk_index = self.engine(dataset, "lrw").walk_index

        rcl_table = Table(
            f"Fig. 15a - RCL-A summary construction on {dataset}",
            ["sample rate", "time/topic", "space"],
        )
        for rate in sample_rates:
            summarizer = RCLSummarizer(
                bundle.graph,
                bundle.topic_index,
                max_hops=self.config.walk_length,
                sample_rate=rate,
                rep_fraction=self.config.rep_fraction,
                walk_index=walk_index,
                seed=self.config.seed,
            )
            with Stopwatch() as sw:
                summaries = [summarizer.summarize(t) for t in topic_ids]
            space = sum(object_bytes(dict(s.weights)) for s in summaries)
            rcl_table.add_row([
                f"{rate:.0%}",
                format_seconds(sw.seconds / len(topic_ids)),
                format_bytes(space + walk_index.memory_bytes()),
            ])

        lrw_table = Table(
            f"Fig. 15b - LRW-A summary construction on {dataset}",
            ["R", "time/topic", "space"],
        )
        for r_value in r_values:
            wi = WalkIndex.built(
                bundle.graph,
                self.config.walk_length,
                r_value,
                seed=self.config.seed,
            )
            summarizer = LRWSummarizer(
                bundle.graph,
                bundle.topic_index,
                wi,
                rep_fraction=self.config.rep_fraction,
            )
            with Stopwatch() as sw:
                summaries = [summarizer.summarize(t) for t in topic_ids]
            space = sum(object_bytes(dict(s.weights)) for s in summaries)
            lrw_table.add_row([
                r_value,
                format_seconds(sw.seconds / len(topic_ids)),
                format_bytes(space + wi.memory_bytes()),
            ])
        return rcl_table, lrw_table

    def fig16_construction_vs_length(
        self,
        dataset: str = "data_3m",
        lengths: Sequence[int] = (2, 3, 4, 5, 6),
        topics: int = 3,
    ) -> Table:
        """Figure 16: summary construction time as L varies."""
        from ..core.rcl import RCLSummarizer
        from ..core.lrw import LRWSummarizer
        from ..walks import WalkIndex

        bundle = self.bundle(dataset)
        workload = self.workload(dataset)
        topic_ids: List[int] = []
        for query in workload.queries:
            topic_ids.extend(bundle.topic_index.related_topics(query))
        topic_ids = sorted(
            set(topic_ids),
            key=lambda t: -bundle.topic_index.topic_size(t),
        )[:topics]

        table = Table(
            f"Fig. 16 - summary construction time vs L on {dataset}",
            ["L", "RCL-A time/topic", "LRW-A time/topic"],
        )
        for length in lengths:
            walk_index = WalkIndex.built(
                bundle.graph,
                length,
                self.config.samples_per_node,
                seed=self.config.seed,
            )
            rcl = RCLSummarizer(
                bundle.graph,
                bundle.topic_index,
                max_hops=length,
                sample_rate=self.config.sample_rate,
                rep_fraction=self.config.rep_fraction,
                walk_index=walk_index,
                seed=self.config.seed,
            )
            with Stopwatch() as rcl_watch:
                for topic in topic_ids:
                    rcl.summarize(topic)
            lrw = LRWSummarizer(
                bundle.graph,
                bundle.topic_index,
                walk_index,
                rep_fraction=self.config.rep_fraction,
            )
            with Stopwatch() as lrw_watch:
                for topic in topic_ids:
                    lrw.summarize(topic)
            table.add_row([
                length,
                format_seconds(rcl_watch.seconds / len(topic_ids)),
                format_seconds(lrw_watch.seconds / len(topic_ids)),
            ])
        return table
