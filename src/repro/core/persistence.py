"""Persistence for the offline artifacts (library extension).

The paper amortizes its expensive offline stage ("building the L-length
random walk index required around seven hours ... Since it is only ran
once, this cost is amortized", §6.6) - which presumes the artifacts are
*stored*. This module provides that storage:

* topic summaries - JSON (human-inspectable, tiny);
* walk indexes - compressed NPZ (paths flattened with offsets).

The propagation index Γ has one on-disk format, the sharded mmap
directory of :mod:`repro.core.shards`.

A seven-hour artifact must also be *trustworthy*, so every writer goes
through :mod:`repro._artifacts`: writes are atomic (same-directory temp
file + ``os.replace``), payloads carry a SHA-256 content checksum and a
format-version field, and loaders verify both - a truncated or
bit-flipped file raises :class:`~repro.exceptions.ArtifactCorruptedError`
naming the path and digests instead of crashing deep inside numpy. All
loaders additionally validate the declared graph signature (node/edge
counts) so an index cannot silently be replayed against a different
graph.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Union

import numpy as np

from .._artifacts import (
    load_json_payload,
    load_npz_payload,
    require_keys,
    save_json_payload,
    save_npz_payload,
)
from ..exceptions import ArtifactCorruptedError, ConfigurationError, IndexNotBuiltError
from ..graph import SocialGraph
from ..walks import WalkIndex
from .summarization import TopicSummary

__all__ = [
    "save_summaries",
    "load_summaries",
    "save_walk_index",
    "load_walk_index",
]

PathLike = Union[str, Path]


def _graph_signature(graph: SocialGraph) -> Dict[str, int]:
    return {"n_nodes": graph.n_nodes, "n_edges": graph.n_edges}


def _check_signature(payload: Dict, graph: SocialGraph, path: Path) -> None:
    expected = _graph_signature(graph)
    found = {
        "n_nodes": int(payload["n_nodes"]),
        "n_edges": int(payload["n_edges"]),
    }
    if found != expected:
        raise ConfigurationError(
            f"{path}: artifact was built for a graph with {found}, "
            f"but the supplied graph has {expected}"
        )


# ---------------------------------------------------------------------------
# Topic summaries
# ---------------------------------------------------------------------------


def save_summaries(
    summaries: Dict[int, TopicSummary], graph: SocialGraph, path: PathLike
) -> None:
    """Write ``topic_id -> TopicSummary`` to a checksummed JSON file."""
    payload = {
        **_graph_signature(graph),
        "summaries": {
            str(topic_id): {str(node): weight
                            for node, weight in summary.weights.items()}
            for topic_id, summary in summaries.items()
        },
    }
    save_json_payload(Path(path), payload)


def load_summaries(path: PathLike, graph: SocialGraph) -> Dict[int, TopicSummary]:
    """Read summaries written by :func:`save_summaries`."""
    path = Path(path)
    payload = load_json_payload(path, "summaries artifact")
    require_keys(payload, ("n_nodes", "n_edges", "summaries"), path)
    _check_signature(payload, graph, path)
    summaries: Dict[int, TopicSummary] = {}
    try:
        for topic_key, weights in payload["summaries"].items():
            topic_id = int(topic_key)
            summaries[topic_id] = TopicSummary(
                topic_id, {int(node): float(w) for node, w in weights.items()}
            )
    except (AttributeError, TypeError, ValueError) as exc:
        raise ArtifactCorruptedError(
            path, reason=f"malformed summaries payload ({exc})"
        ) from exc
    return summaries


# ---------------------------------------------------------------------------
# Walk index
# ---------------------------------------------------------------------------

_WALK_KEYS = (
    "n_nodes", "n_edges", "walk_length", "samples", "offsets", "paths",
    "counts", "hit",
)


def save_walk_index(index: WalkIndex, path: PathLike) -> None:
    """Write a built walk index to NPZ.

    Layout: walk ``k`` of node ``v`` is record ``v * R + k``; its
    first-visit path is ``paths[offsets[r]:offsets[r + 1]]`` and its
    visit counts the same slice of ``counts``; ``hit`` is ``H``.
    """
    if not index.is_built:
        raise IndexNotBuiltError("cannot save an unbuilt WalkIndex")
    padded = index.padded_paths()
    on_path = padded >= 0
    offsets = np.zeros(padded.shape[0] + 1, dtype=np.int64)
    np.cumsum(on_path.sum(axis=1), out=offsets[1:])
    save_npz_payload(Path(path), {
        "n_nodes": np.asarray([index.graph.n_nodes]),
        "n_edges": np.asarray([index.graph.n_edges]),
        "walk_length": np.asarray([index.walk_length]),
        "samples": np.asarray([index.samples_per_node]),
        "offsets": offsets,
        "paths": padded[on_path],
        "counts": index.padded_visit_counts()[on_path],
        "hit": index.hitting_frequencies(),
    })


def _unflatten_walks(payload: Dict[str, np.ndarray], n_nodes: int):
    """The flat walk arrays as ``(paths, counts, steps, hit)`` matrices.

    Raises ``ValueError`` when the arrays do not describe ``n * R``
    walks of at most ``L`` steps, each starting at its own node.
    """
    length = int(payload["walk_length"][0])
    samples = int(payload["samples"][0])
    offsets = payload["offsets"].astype(np.int64, casting="safe")
    flat_paths = payload["paths"].astype(np.int64, casting="safe")
    flat_counts = payload["counts"].astype(np.int64, casting="safe")
    hit = payload["hit"].astype(np.float64, casting="safe")
    n_walks = n_nodes * samples
    if offsets.shape != (n_walks + 1,) or offsets[0] != 0:
        raise ValueError(f"offsets must hold {n_walks + 1} entries from 0")
    if not offsets[-1] == flat_paths.size == flat_counts.size:
        raise ValueError("offsets, paths and counts disagree in length")
    if hit.shape != (length + 1, n_nodes):
        raise ValueError(f"hit has shape {hit.shape}, not {(length + 1, n_nodes)}")
    sizes = np.diff(offsets)
    if n_walks and not 1 <= sizes.min() <= sizes.max() <= length + 1:
        raise ValueError(f"path lengths must lie in [1, {length + 1}]")
    if flat_paths.size and not (
        0 <= flat_paths.min() and flat_paths.max() < n_nodes
        and flat_counts.min() >= 1
    ):
        raise ValueError("node ids or visit counts out of range")
    width = int(sizes.max()) if n_walks else 1
    rows = np.repeat(np.arange(n_walks), sizes)
    columns = np.arange(flat_paths.size) - np.repeat(offsets[:-1], sizes)
    paths = np.full((n_walks, width), -1, dtype=np.int64)
    paths[rows, columns] = flat_paths
    counts = np.zeros((n_walks, width), dtype=np.int64)
    counts[rows, columns] = flat_counts
    if n_walks and not np.array_equal(
        paths[:, 0], np.repeat(np.arange(n_nodes), samples)
    ):
        raise ValueError("a walk does not start at its own node")
    return paths, counts, counts.sum(axis=1) - 1, hit


def load_walk_index(path: PathLike, graph: SocialGraph) -> WalkIndex:
    """Read a walk index written by :func:`save_walk_index`.

    The reverse-reachability sets are reconstructed from the stored paths,
    so the loaded index answers every query identically to the saved one.
    """
    path = Path(path)
    payload = load_npz_payload(path, "walk index artifact")
    require_keys(payload, _WALK_KEYS, path)
    _check_signature(
        {"n_nodes": payload["n_nodes"][0], "n_edges": payload["n_edges"][0]},
        graph,
        path,
    )
    index = WalkIndex(
        graph,
        int(payload["walk_length"][0]),
        int(payload["samples"][0]),
    )
    try:
        arrays = _unflatten_walks(payload, graph.n_nodes)
    except (IndexError, TypeError, ValueError) as exc:
        raise ArtifactCorruptedError(
            path, reason=f"inconsistent walk payload ({exc})"
        ) from exc
    index._adopt(*arrays)
    return index
