"""Local influence migration via absorbing walks - Algorithm 8 (S19).

Once representatives are selected, each topic node's uniform local weight
``1/|V_t|`` is migrated to the representatives that are *locally close* to
it. Closeness is estimated from the pre-sampled random walks:

* forward pass - for each topic node, the first representative on each of
  its R walks absorbs it (absorbing-Markov-chain semantics, §4.3);
* backward pass - for each representative, the first topic node on each of
  its walks is likewise absorbed;
* each absorption records the closeness kernel ``1/(D+1)`` in an
  association matrix ``M`` (keeping the max over paths, i.e. min distance);
* ``M`` is row-normalized into a closeness distribution ``M'`` per topic
  node, and representative ``j``'s weight is ``(1/m) Σ_i M'(i, j)``.

Each pass stacks every relevant walk into one padded int path matrix,
finds absorption positions with vectorized membership masks, and scatters
the closeness kernel into ``M`` with an unbuffered ``np.maximum.at`` - no
per-walk Python loop. The historical per-record loop is retained in
``tests/oracles/scalar_summarize.py`` as the parity baseline.

DESIGN.md note: Algorithm 8's pseudocode tests "``p`` contains a
representative" for *every* representative on the path, while §4.3's prose
says the *first* one absorbs the walk. ``absorb_first`` (default True)
follows the prose; False follows the literal pseudocode - the difference is
measurable only when multiple representatives share a walk.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..._utils import normalize_rows
from ...exceptions import ConfigurationError
from ...obs.registry import MetricsRegistry, get_registry
from ...walks import WalkIndex
from ..summarization import TopicSummary

__all__ = ["migration_matrix", "migrate_influence"]


def _padded_paths(walk_index: WalkIndex, sources: Sequence[int]):
    """Stack the walks of all *sources* into one padded path matrix.

    Returns ``(paths, row_of)``: *paths* is ``(n_walks, width)`` int64
    padded with ``-1`` (column 0 is the walk's start node), *row_of* maps
    each walk back to the index of its source in *sources*. The rows are
    sliced out of the walk index's global padded matrix
    (:meth:`~repro.walks.WalkIndex.padded_paths`), so assembling a
    topic's walks is one fancy-index instead of a per-record loop.
    """
    source_ids = np.asarray(list(sources), dtype=np.int64)
    if source_ids.size == 0:
        return np.empty((0, 1), dtype=np.int64), np.empty(0, dtype=np.int64)
    padded = walk_index.padded_paths()
    samples = walk_index.samples_per_node
    rows = (
        source_ids[:, None] * samples + np.arange(samples, dtype=np.int64)
    ).ravel()
    row_of = np.repeat(
        np.arange(source_ids.size, dtype=np.int64), samples
    )
    return padded[rows], row_of


def _scatter_hits(
    walk_index: WalkIndex,
    sources: Sequence[int],
    column_of: np.ndarray,
    matrix: np.ndarray,
    *,
    absorb_first: bool,
    transpose: bool,
) -> int:
    """Record the absorption events of all *sources*' walks into ``M``.

    *column_of* is a dense ``n_nodes + 1``-long map holding each
    absorber's matrix column, ``-1`` elsewhere - including the trailing
    sentinel slot, which the padding value ``-1`` indexes, so one gather
    translates the whole path matrix with no validity mask. Returns the
    number of absorption events recorded. ``np.maximum.at`` is
    unbuffered, so walks hitting the same cell keep the closest (max
    ``1/(D+1)``) observation - identical to the scalar per-record
    comparison.
    """
    paths, row_of = _padded_paths(walk_index, sources)
    if paths.shape[1] <= 1:
        return 0
    body = paths[:, 1:]  # positions 1..; position 0 is the source itself
    columns = column_of[body]
    hit = columns >= 0
    if absorb_first:
        absorbed = hit.any(axis=1)
        first = np.argmax(hit, axis=1)
        walk_ids = np.flatnonzero(absorbed)
        positions = first[walk_ids] + 1  # D: true position within the path
        col_idx = columns[walk_ids, first[walk_ids]]
    else:
        walk_ids, body_pos = np.nonzero(hit)
        positions = body_pos + 1
        col_idx = columns[walk_ids, body_pos]
    if walk_ids.size == 0:
        return 0
    row_idx = row_of[walk_ids]
    closeness = 1.0 / (positions + 1.0)
    if transpose:
        np.maximum.at(matrix, (col_idx, row_idx), closeness)
    else:
        np.maximum.at(matrix, (row_idx, col_idx), closeness)
    return int(walk_ids.size)


def migration_matrix(
    walk_index: WalkIndex,
    topic_nodes: Sequence[int],
    representatives: Sequence[int],
    *,
    absorb_first: bool = True,
    metrics: Optional[MetricsRegistry] = None,
) -> np.ndarray:
    """The raw association matrix ``M`` of Algorithm 8 (lines 2-12).

    ``M[i, j] = 1 / (D(topic_i, rep_j) + 1)`` where ``D`` is the shortest
    first-hit distance observed over the forward and backward walk samples
    (0 when the pair never co-occurred on a walk).
    """
    topics = [int(v) for v in topic_nodes]
    reps = [int(v) for v in representatives]
    if not topics:
        raise ConfigurationError("topic node set is empty")
    if not reps:
        raise ConfigurationError("representative set is empty")
    if len(set(topics)) != len(topics):
        raise ConfigurationError("topic nodes contain duplicates")
    if len(set(reps)) != len(reps):
        raise ConfigurationError("representatives contain duplicates")

    registry = metrics if metrics is not None else get_registry()
    matrix = np.zeros((len(topics), len(reps)), dtype=np.float64)
    n_nodes = walk_index.graph.n_nodes
    # One extra slot: the padding value -1 indexes it and reads -1, so
    # _scatter_hits can translate padded paths with a single gather.
    rep_column = np.full(n_nodes + 1, -1, dtype=np.int64)
    rep_column[reps] = np.arange(len(reps), dtype=np.int64)
    topic_row = np.full(n_nodes + 1, -1, dtype=np.int64)
    topic_row[topics] = np.arange(len(topics), dtype=np.int64)

    # Forward: topic-node walks absorbed by representatives (lines 3-7).
    absorptions = _scatter_hits(
        walk_index,
        topics,
        rep_column,
        matrix,
        absorb_first=absorb_first,
        transpose=False,
    )
    # Backward: representative walks absorbing topic nodes (lines 8-12).
    absorptions += _scatter_hits(
        walk_index,
        reps,
        topic_row,
        matrix,
        absorb_first=absorb_first,
        transpose=True,
    )
    registry.inc("summarize.migration.absorptions", absorptions)
    # A representative that *is* a topic node absorbs itself at distance 0.
    shared = np.flatnonzero((rep_column >= 0) & (topic_row >= 0))
    if shared.size:
        rows = topic_row[shared]
        cols = rep_column[shared]
        matrix[rows, cols] = np.maximum(matrix[rows, cols], 1.0)
    return matrix


def migrate_influence(
    topic_id: int,
    walk_index: WalkIndex,
    topic_nodes: Sequence[int],
    representatives: Sequence[int],
    *,
    absorb_first: bool = True,
    metrics: Optional[MetricsRegistry] = None,
) -> TopicSummary:
    """Algorithm 8: weighted representative set for one topic.

    Row-normalizes ``M`` into ``M'`` and assigns representative ``j`` the
    aggregate ``(1/m) Σ_i M'(i, j)``. Topic nodes that were never absorbed
    contribute nothing, so the summary's total weight can be below 1 - the
    un-migrated mass is exactly the influence the summary cannot see, which
    the online search accounts for via the remaining-weight bound.
    """
    matrix = migration_matrix(
        walk_index,
        topic_nodes,
        representatives,
        absorb_first=absorb_first,
        metrics=metrics,
    )
    normalized = normalize_rows(matrix)
    m = normalized.shape[0]
    column_weight = normalized.sum(axis=0) / m
    reps = [int(v) for v in representatives]
    weights = {
        rep: float(w) for rep, w in zip(reps, column_weight) if w > 0.0
    }
    return TopicSummary(int(topic_id), weights)
