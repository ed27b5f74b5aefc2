"""The paper's core contribution (DESIGN.md S13-S24).

* :mod:`repro.core.rcl` - RCL-A random-clustering summarizer (§3).
* :mod:`repro.core.lrw` - LRW-A L-length random-walk summarizer (§4).
* :mod:`repro.core.propagation` - personalized propagation index (§5.1).
* :mod:`repro.core.search` - top-k PIT-Search (§5.2), array-native.
* :mod:`repro.core.serving` - bounded caches for the online serving layer.
* :mod:`repro.core.engine` - offline builder (walk index, summaries, Γ).
* :mod:`repro.core.serve_facade` - the online engine over built artifacts.
"""

from .diagnostics import (
    CacheStats,
    PropagationBuildStats,
    SummaryBuildStats,
    SummaryDiagnostics,
    diagnose_summary,
    diagnostics_table,
)
from .dynamics import (
    DeltaApplication,
    GraphDelta,
    TopicUpdate,
    affected_nodes,
    apply_delta_to_graph,
    apply_graph_delta,
    apply_topic_update,
    refresh_walk_index,
    updated_topic_index,
)
from .engine import PITEngine
from .persistence import (
    load_summaries,
    load_walk_index,
    save_summaries,
    save_walk_index,
)
from .influence import (
    enumerate_simple_paths,
    propagate_influence,
    simple_path_influence,
    source_vector,
    topic_influence_vector,
)
from .lrw import LRWSummarizer
from .propagation import (
    GammaView,
    PropagationEntry,
    PropagationIndex,
)
from .precompute import (
    PrecomputeArtifact,
    build_precompute,
    load_precompute,
    save_precompute,
)
from .rcl import RCLSummarizer
from .search import (
    PersonalizedSearcher,
    SearchResult,
    SearchStats,
    normalized_query_key,
)
from .serve_facade import ServingEngine
from .serving import ByteLRUCache
from .shards import (
    MmapShardBackend,
    load_sharded_index,
    refresh_sharded_index,
    save_sharded_index,
)
from .summarization import (
    SummaryArrays,
    Summarizer,
    TopicSummary,
    summarization_error,
)

__all__ = [
    "PITEngine",
    "ServingEngine",
    "PrecomputeArtifact",
    "build_precompute",
    "save_precompute",
    "load_precompute",
    "normalized_query_key",
    "RCLSummarizer",
    "LRWSummarizer",
    "Summarizer",
    "TopicSummary",
    "SummaryArrays",
    "summarization_error",
    "PropagationIndex",
    "PropagationEntry",
    "GammaView",
    "MmapShardBackend",
    "PropagationBuildStats",
    "SummaryBuildStats",
    "CacheStats",
    "ByteLRUCache",
    "PersonalizedSearcher",
    "SearchResult",
    "SearchStats",
    "propagate_influence",
    "topic_influence_vector",
    "source_vector",
    "simple_path_influence",
    "enumerate_simple_paths",
    "SummaryDiagnostics",
    "diagnose_summary",
    "diagnostics_table",
    "GraphDelta",
    "DeltaApplication",
    "apply_delta_to_graph",
    "affected_nodes",
    "apply_graph_delta",
    "TopicUpdate",
    "updated_topic_index",
    "apply_topic_update",
    "refresh_walk_index",
    "save_summaries",
    "load_summaries",
    "save_sharded_index",
    "load_sharded_index",
    "refresh_sharded_index",
    "save_walk_index",
    "load_walk_index",
]
