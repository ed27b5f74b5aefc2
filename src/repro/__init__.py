"""repro - reproduction of "Personalized Influential Topic Search via Social
Network Summarization" (Li et al., ICDE/TKDE 2017).

The package implements the paper's full stack:

* :mod:`repro.graph` - weighted social digraph substrate and generators.
* :mod:`repro.walks` - random-walk engine and the Algorithm 6 walk index.
* :mod:`repro.topics` - tweets, LDA, tags, topic space and inverted index.
* :mod:`repro.core` - the paper's contribution: RCL-A and LRW-A social
  summarizers, the personalized propagation index, and top-k PIT-Search.
* :mod:`repro.baselines` - BaseMatrix, BaseDijkstra, BasePropagation.
* :mod:`repro.datasets` - synthetic dataset bundles and query workloads.
* :mod:`repro.evaluation` - metrics, timing and the per-figure experiments.
* :mod:`repro.obs` - metrics registry, phase tracing, and exporters.

Quickstart::

    from repro import PITEngine, datasets

    bundle = datasets.data_2k(seed=7)
    engine = PITEngine.from_dataset(bundle, summarizer="lrw").serving()
    results = engine.search(user=3, query="phone", k=5)
"""

from __future__ import annotations

from .exceptions import (
    ArtifactCorruptedError,
    ArtifactError,
    BudgetExceededError,
    BuildFailedError,
    ConfigurationError,
    DatasetError,
    EdgeError,
    EmptyGraphError,
    GraphError,
    IndexNotBuiltError,
    NodeNotFoundError,
    QueryError,
    ReproError,
    TopicError,
    UnknownTopicError,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "ReproError",
    "GraphError",
    "NodeNotFoundError",
    "EdgeError",
    "EmptyGraphError",
    "TopicError",
    "UnknownTopicError",
    "QueryError",
    "IndexNotBuiltError",
    "ConfigurationError",
    "BudgetExceededError",
    "BuildFailedError",
    "DatasetError",
    "ArtifactError",
    "ArtifactCorruptedError",
]


def __getattr__(name):
    """Lazy re-exports of the heavyweight public entry points.

    Keeps ``import repro`` cheap while still allowing
    ``from repro import PITEngine``.
    """
    if name == "PITEngine":
        from .core.engine import PITEngine

        return PITEngine
    if name in {"graph", "walks", "topics", "core", "baselines", "datasets",
                "evaluation", "obs"}:
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
