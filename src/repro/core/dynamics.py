"""Dynamic maintenance of the offline artifacts (paper §4.4).

"The offline pre-processing is updated after a period of time when the
social network and topics have changed." This module implements that
refresh *incrementally* instead of rebuilding everything:

* :class:`GraphDelta` / :func:`apply_delta_to_graph` - a batch of edge
  inserts, deletes, probability re-weights, and time-decay aging is
  applied to the immutable :class:`~repro.graph.SocialGraph` in one
  vectorized pass over its CSR arrays (no per-edge Python loop).
* :func:`affected_nodes` - the set of nodes whose propagation entry Γ
  can possibly change, computed with vectorized closure kernels from
  :mod:`repro.graph.traversal` instead of a per-entry set intersection.
  With ``theta`` given (the index's pruning threshold) the kernel is the
  probability-bounded :func:`~repro.graph.traversal.theta_forward_closure`:
  the entry DFS prunes any branch whose running product drops below
  theta, and every consultation of a changed edge ``(u, w)`` - the edge
  itself, ``w``'s in-list, or ``w``'s lookahead bound - happens while the
  DFS from ``v`` is standing at ``w`` with path product ``P(w -> v) >=
  theta``. So ``Γ(v)`` can only change when some walk ``w -> v`` clears
  theta, and the theta-closure of the changed edges' targets (in both
  the old and the new graph) is a sound superset that stays *small* even
  on graphs whose plain transitive closure is everything. Without
  ``theta`` the plain packed-bitset
  :func:`~repro.graph.traversal.forward_closure` gives the coarser
  reachability superset.
* :meth:`~repro.core.propagation.PropagationIndex.rebuilt_for` /
  :func:`~repro.core.shards.refresh_sharded_index` - targeted partial
  rebuild: only affected entries are recomputed; unaffected entries (and
  for the sharded backend, whole clean shard files) carry over.
* :func:`splice_delta` - the delta core of both engines: the above plus
  the ``dynamics.*`` metrics. :func:`apply_graph_delta` adds incremental
  summary repair on the builder (only topics whose member set intersects
  the affected region lose their cached summary).
* :func:`apply_topic_update` - users start/stop discussing topics. A new
  :class:`~repro.topics.TopicIndex` is derived, and only the summaries of
  topics whose member sets actually changed are invalidated; unchanged
  topics keep their cached summaries (re-keyed, since topic ids are
  label-ordered).

The walk index is left untouched by all of these; it is a Monte-Carlo
sample whose staleness degrades gracefully, and the paper likewise
rebuilds it only "after a period of time". :func:`refresh_walk_index`
forces that rebuild when desired.

**Answer-tier invalidation contract.** A serving deployment that applies
deltas in place (rather than hot-swapping a new engine, which clears
every tier structurally) must also invalidate the
:class:`~repro.core.serve_facade.ServingEngine` answer tier, or cached
top-k answers will outlive the data they were computed from. The
contract:

* a topic/summary change (:func:`apply_topic_update`) can move *any*
  answer, and compiled plans embed the old summaries -> serve from a
  new engine (:meth:`PITEngine.serving
  <repro.core.engine.PITEngine.serving>`), whose tiers start empty;
* a graph delta only moves answers for users whose search could observe
  a changed entry. The search probes a *chain* of entries - the user's
  own, then the transitive marked frontier - and each link of the chain
  is a theta-bounded path, so the chain composes into plain
  reachability: if any probed entry changed (it lies in the
  theta-closure of a changed edge's target ``w``), then ``w`` reaches
  the user in the old or the new graph. Invalidation therefore uses the
  *plain* closure (``affected_nodes`` without ``theta``) for the answer
  tier, while the index rebuilds only the theta-affected entries
  (entries outside the theta-closure are bit-identical); compiled plans
  hold no Γ data and are not touched. Unaffected users' cached answers
  provably still match a recomputation, including the deterministic
  work counters: an unchanged entry's members reach it above theta in
  *both* graphs, so the recomputed search replays the cached one probe
  for probe.

:meth:`ServingEngine.apply_delta
<repro.core.serve_facade.ServingEngine.apply_delta>` wires this contract
into the serving stack; the daemon exposes it as ``POST /admin/delta``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple,
)

import numpy as np

from ..exceptions import ConfigurationError, EdgeError
from ..graph import SocialGraph, forward_closure, theta_forward_closure
from ..obs import MetricsRegistry, get_registry
from ..topics import TopicIndex
from .engine import PITEngine
from .propagation import PropagationIndex

__all__ = [
    "GraphDelta",
    "DeltaApplication",
    "apply_delta_to_graph",
    "affected_nodes",
    "apply_graph_delta",
    "TopicUpdate",
    "updated_topic_index",
    "apply_topic_update",
    "refresh_walk_index",
]

#: Ceiling on the packed closure matrices (two graphs worth). Past this
#: the conservative answer "every node" is cheaper than the bitsets.
_CLOSURE_BUDGET_BYTES = 64 << 20


def _registry(metrics: Optional[MetricsRegistry]) -> MetricsRegistry:
    return metrics if metrics is not None else get_registry()


# ---------------------------------------------------------------------------
# Graph deltas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphDelta:
    """One batch of streaming edge updates.

    Attributes
    ----------
    inserts:
        ``(source, target, probability)`` triples to add. The edges must
        not already exist.
    deletes:
        ``(source, target)`` pairs to remove. The edges must exist.
    reweights:
        ``(source, target, probability)`` triples replacing the
        probability of existing edges.
    decay:
        Time-decay factor in ``(0, 1]`` multiplied into every surviving
        edge probability (including reweighted values; inserted edges
        join at their stated post-decay probability). ``1.0`` disables
        aging.
    decay_floor:
        Edges whose decayed probability falls below this floor age out of
        the graph entirely.

    The node set is fixed: a delta edits edges, never ``n_nodes``. Each
    edge may appear at most once across the whole batch.
    """

    inserts: Tuple[Tuple[int, int, float], ...] = ()
    deletes: Tuple[Tuple[int, int], ...] = ()
    reweights: Tuple[Tuple[int, int, float], ...] = ()
    decay: float = 1.0
    decay_floor: float = 0.0

    def __post_init__(self):
        object.__setattr__(
            self,
            "inserts",
            tuple((int(s), int(t), float(p)) for s, t, p in self.inserts),
        )
        object.__setattr__(
            self,
            "deletes",
            tuple((int(s), int(t)) for s, t in self.deletes),
        )
        object.__setattr__(
            self,
            "reweights",
            tuple((int(s), int(t), float(p)) for s, t, p in self.reweights),
        )
        if not 0.0 < self.decay <= 1.0:
            raise ConfigurationError(
                f"decay must lie in (0, 1], got {self.decay!r}"
            )
        if not 0.0 <= self.decay_floor < 1.0:
            raise ConfigurationError(
                f"decay_floor must lie in [0, 1), got {self.decay_floor!r}"
            )

    # -- convenience constructors --------------------------------------
    @staticmethod
    def inserting(*edges: Tuple[int, int, float]) -> "GraphDelta":
        """A delta that only adds edges."""
        return GraphDelta(inserts=tuple(edges))

    @staticmethod
    def deleting(*pairs: Tuple[int, int]) -> "GraphDelta":
        """A delta that only removes edges."""
        return GraphDelta(deletes=tuple(pairs))

    @staticmethod
    def reweighting(*edges: Tuple[int, int, float]) -> "GraphDelta":
        """A delta that only re-weights existing edges."""
        return GraphDelta(reweights=tuple(edges))

    @staticmethod
    def aging(decay: float, *, floor: float = 0.0) -> "GraphDelta":
        """A pure time-decay step (every edge ages, none are edited)."""
        return GraphDelta(decay=decay, decay_floor=floor)

    @property
    def is_empty(self) -> bool:
        """Whether applying this delta is a no-op."""
        return (
            not self.inserts
            and not self.deletes
            and not self.reweights
            and self.decay == 1.0
        )

    @property
    def n_edits(self) -> int:
        """Number of explicitly edited edges (decay not counted)."""
        return len(self.inserts) + len(self.deletes) + len(self.reweights)

    def merged_with(self, other: "GraphDelta") -> "GraphDelta":
        """Concatenate two batches (valid when their edge sets are disjoint
        and at most one of them ages)."""
        if self.decay != 1.0 and other.decay != 1.0:
            raise ConfigurationError(
                "cannot merge two aging deltas (decay order is ambiguous)"
            )
        return GraphDelta(
            inserts=self.inserts + other.inserts,
            deletes=self.deletes + other.deletes,
            reweights=self.reweights + other.reweights,
            decay=self.decay * other.decay,
            decay_floor=max(self.decay_floor, other.decay_floor),
        )


@dataclass(frozen=True)
class DeltaApplication:
    """What :func:`apply_delta_to_graph` actually changed.

    ``seeds`` are the target endpoints of every edited or aged-out edge -
    the starting points of the affected-set closure. ``removed`` holds
    the ``(sources, targets)`` arrays of the edges the batch dropped
    (deletes plus aged-out), so the closure can run once over the union
    topology instead of once per graph. ``full`` marks a decay step,
    where every surviving edge changed and the affected set degenerates
    to every node (a full - but still single-pass - rebuild).
    """

    n_inserted: int
    n_deleted: int
    n_reweighted: int
    n_aged: int
    seeds: np.ndarray
    full: bool
    removed: Optional[Tuple[np.ndarray, np.ndarray]] = None


def _delta_arrays(entries, width: int) -> Tuple[np.ndarray, ...]:
    """Split ``(s, t[, p])`` tuples into parallel int64/float64 arrays."""
    count = len(entries)
    src = np.fromiter((e[0] for e in entries), np.int64, count=count)
    tgt = np.fromiter((e[1] for e in entries), np.int64, count=count)
    if width == 2:
        return src, tgt
    prob = np.fromiter((e[2] for e in entries), np.float64, count=count)
    return src, tgt, prob


def apply_delta_to_graph(
    graph: SocialGraph, delta: GraphDelta
) -> Tuple[SocialGraph, DeltaApplication]:
    """Apply *delta* to *graph*, returning the edited graph and a report.

    One vectorized pass: the CSR edge set comes out as sorted parallel
    arrays, deletes/reweights are located with ``searchsorted`` on the
    ``source * n + target`` key, decay is a single multiply, and the
    edits are spliced directly into both CSR faces - pure sorted-run
    deletions and insertions at already-known positions, so the new
    graph materializes in O(E) memcpy with no O(E log E) re-sort.

    Raises
    ------
    ConfigurationError
        When a delete/reweight names a missing edge, an insert names an
        existing edge, or the same edge appears twice in the batch - all
        signs the caller's view of the graph is stale.
    """
    n = graph.n_nodes
    ins_src, ins_tgt, ins_prob = _delta_arrays(delta.inserts, 3)
    del_src, del_tgt = _delta_arrays(delta.deletes, 2)
    rw_src, rw_tgt, rw_prob = _delta_arrays(delta.reweights, 3)
    graph.validate_nodes(
        np.concatenate([ins_src, ins_tgt, del_src, del_tgt, rw_src, rw_tgt])
    )

    sources, targets, probs = graph.edge_arrays()
    keys = sources * n + targets  # ascending: CSR order sorts (s, t)
    ins_keys = ins_src * n + ins_tgt
    del_keys = del_src * n + del_tgt
    rw_keys = rw_src * n + rw_tgt
    batch = np.concatenate([ins_keys, del_keys, rw_keys])
    if np.unique(batch).size != batch.size:
        raise ConfigurationError(
            "delta touches the same edge more than once"
        )

    def _locate(subkeys: np.ndarray, what: str) -> np.ndarray:
        if subkeys.size == 0:
            return np.empty(0, dtype=np.int64)
        pos = np.searchsorted(keys, subkeys)
        safe = np.minimum(pos, max(keys.size - 1, 0))
        found = (pos < keys.size) & (
            keys[safe] == subkeys if keys.size else False
        )
        if not np.all(found):
            i = int(np.argmax(~found))
            raise ConfigurationError(
                f"cannot {what} edge "
                f"{int(subkeys[i] // n)} -> {int(subkeys[i] % n)}: "
                f"no such edge"
            )
        return pos

    del_pos = _locate(del_keys, "delete")
    rw_pos = _locate(rw_keys, "reweight")
    if ins_keys.size and keys.size:
        pos = np.searchsorted(keys, ins_keys)
        safe = np.minimum(pos, keys.size - 1)
        exists = (pos < keys.size) & (keys[safe] == ins_keys)
        if np.any(exists):
            i = int(np.argmax(exists))
            raise ConfigurationError(
                f"cannot insert edge {int(ins_src[i])} -> "
                f"{int(ins_tgt[i])}: edge already exists"
            )

    # Written so that NaN fails the range check too.
    for prob in (ins_prob, rw_prob):
        if not np.all((prob > 0.0) & (prob <= 1.0)):
            raise EdgeError("transition probabilities must lie in (0, 1]")
    if np.any(ins_src == ins_tgt):
        i = int(np.argmax(ins_src == ins_tgt))
        raise EdgeError(
            f"self-loop on node {int(ins_src[i])} is not allowed"
        )

    new_probs = probs.copy()
    new_probs[rw_pos] = rw_prob
    keep = np.ones(keys.size, dtype=bool)
    keep[del_pos] = False
    n_aged = 0
    aged_targets = np.empty(0, dtype=np.int64)
    full = delta.decay != 1.0
    if full:
        new_probs *= delta.decay
        aged = keep & (new_probs < delta.decay_floor)
        n_aged = int(np.count_nonzero(aged))
        aged_targets = targets[aged]
        keep &= ~aged

    # Splice the out face: survivors keep their CSR order, and every
    # insert lands at its searchsorted position (ties between inserts
    # resolve in key order, so the result stays sorted).
    ins_order = np.argsort(ins_keys, kind="stable")
    pos = np.searchsorted(keys[keep], ins_keys[ins_order])
    out_sources = np.insert(sources[keep], pos, ins_src[ins_order])
    out_targets = np.insert(targets[keep], pos, ins_tgt[ins_order])
    out_probs = np.insert(new_probs[keep], pos, ins_prob[ins_order])
    out_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(out_sources, minlength=n), out=out_indptr[1:])

    # Mirror the same edits onto the in face (sorted by target, then
    # source): the removed/reweighted edges are located by the swapped
    # key, and both faces see bit-identical probability values.
    in_indptr_old = graph._in_indptr
    in_sources_old = graph._in_sources
    in_tgt_rep = np.repeat(
        np.arange(n, dtype=np.int64), np.diff(in_indptr_old)
    )
    in_keys = in_tgt_rep * n + in_sources_old
    in_keep = np.ones(in_keys.size, dtype=bool)
    removed = keys[~keep]
    if removed.size:
        swapped = np.sort((removed % n) * n + removed // n)
        in_keep[np.searchsorted(in_keys, swapped)] = False
    in_probs_new = graph._in_probs.copy()
    if rw_keys.size:
        rw_in = rw_tgt * n + rw_src
        order = np.argsort(rw_in, kind="stable")
        in_probs_new[np.searchsorted(in_keys, rw_in[order])] = rw_prob[
            order
        ]
    if full:
        in_probs_new *= delta.decay
    ins_in = ins_tgt * n + ins_src
    order = np.argsort(ins_in, kind="stable")
    pos = np.searchsorted(in_keys[in_keep], ins_in[order])
    in_sources_new = np.insert(in_sources_old[in_keep], pos, ins_src[order])
    in_targets_new = np.insert(in_tgt_rep[in_keep], pos, ins_tgt[order])
    in_probs_arr = np.insert(in_probs_new[in_keep], pos, ins_prob[order])
    in_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(in_targets_new, minlength=n), out=in_indptr[1:])

    new_graph = SocialGraph._from_csr(
        n,
        (
            out_indptr,
            np.ascontiguousarray(out_targets),
            np.ascontiguousarray(out_probs),
        ),
        (
            in_indptr,
            np.ascontiguousarray(in_sources_new),
            np.ascontiguousarray(in_probs_arr),
        ),
    )
    seeds = np.unique(
        np.concatenate([ins_tgt, del_tgt, rw_tgt, aged_targets])
    )
    return new_graph, DeltaApplication(
        n_inserted=int(ins_keys.size),
        n_deleted=int(del_keys.size),
        n_reweighted=int(rw_keys.size),
        n_aged=n_aged,
        seeds=seeds,
        full=full,
        removed=(removed // n, removed % n),
    )


def affected_nodes(
    old_graph: SocialGraph,
    new_graph: SocialGraph,
    application: DeltaApplication,
    *,
    theta: Optional[float] = None,
) -> np.ndarray:
    """Sorted ids of every node whose Γ (or marked frontier) can change.

    An edge ``(u, w)`` lies on a path into ``v`` - and can therefore
    change ``Γ(v)`` membership, aggregated probabilities, or marking -
    only when ``w`` reaches ``v`` (or ``v == w``). The closure of the
    changed edges' targets, taken over both the old and the new graph
    (deletions matter in the old, insertions in the new), is therefore a
    sound conservative superset.

    With *theta* - the propagation index's pruning threshold - the
    closure is probability-bounded
    (:func:`~repro.graph.traversal.theta_forward_closure`): the entry
    DFS only observes an edge while standing on a walk of product >=
    theta, so nodes beyond the theta horizon keep bit-identical entries
    and the affected set stays small even on strongly connected graphs.
    Without *theta* the plain reachability closure is returned - the
    right set for answer-tier invalidation, where theta-paths compose
    across probe chains (see the module docstring).

    A decay step (``application.full``) or a seed set too large for the
    bitset budget returns every node.
    """
    n = old_graph.n_nodes
    if application.full:
        return np.arange(n, dtype=np.int64)
    seeds = application.seeds
    if seeds.size == 0:
        return np.empty(0, dtype=np.int64)
    if theta is not None:
        return np.union1d(
            theta_forward_closure(old_graph, seeds, theta),
            theta_forward_closure(new_graph, seeds, theta),
        )
    n_words = (seeds.size + 63) // 64
    if n_words * 8 * n > _CLOSURE_BUDGET_BYTES:
        return np.arange(n, dtype=np.int64)
    # The old graph is the new one minus the inserts plus the removed
    # edges, so one run over the new graph augmented with the removed
    # edges covers the union of both graphs' closures.
    removed = application.removed
    if removed is not None:
        extra = removed if removed[0].size else None
        return forward_closure(new_graph, seeds, extra_edges=extra)
    return np.union1d(
        forward_closure(old_graph, seeds),
        forward_closure(new_graph, seeds),
    )


def splice_delta(
    graph: SocialGraph,
    index: PropagationIndex,
    delta: GraphDelta,
    adopt: Callable[..., Dict[str, int]],
    *,
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[str, int]:
    """The delta steps both engines share, around the caller's own step.

    Splices *delta* into *graph*, takes the theta-affected and the plain
    reachable closures, and refreshes *index* for the affected nodes
    (dirty-shard rewrite when mapped, targeted entry rebuild in memory).
    ``adopt(new_graph, new_index, affected, reachable)`` then installs
    them in its engine and returns its own report fields, each also
    counted as ``dynamics.<field>``. Everything runs under the
    ``dynamics.apply_delta_seconds`` timer. Returns the report: edit
    counts, closure sizes, the caller's fields, then the refresh stats.
    """
    registry = _registry(metrics)
    with registry.timer("dynamics.apply_delta_seconds"):
        with registry.timer("dynamics.affected_seconds"):
            new_graph, application = apply_delta_to_graph(graph, delta)
            affected = affected_nodes(
                graph, new_graph, application, theta=index.theta
            )
            reachable = affected_nodes(graph, new_graph, application)
        with registry.timer("dynamics.refresh_seconds"):
            if index.shards is not None:
                from .shards import refresh_sharded_index

                new_index = refresh_sharded_index(
                    index.shards, new_graph, affected, metrics=metrics
                )
            else:
                new_index = index.rebuilt_for(new_graph, affected)
        own = adopt(new_graph, new_index, affected, reachable)
        report = {
            "inserted": application.n_inserted,
            "deleted": application.n_deleted,
            "reweighted": application.n_reweighted,
            "aged_out": application.n_aged,
            "affected": int(affected.size),
            "reachable": int(reachable.size),
        }
        registry.inc("dynamics.deltas_applied")
        registry.inc("dynamics.edges_inserted", application.n_inserted)
        registry.inc("dynamics.edges_deleted", application.n_deleted)
        registry.inc("dynamics.edges_reweighted", application.n_reweighted)
        registry.inc("dynamics.edges_aged_out", application.n_aged)
        registry.inc("dynamics.nodes_affected", report["affected"])
        registry.inc("dynamics.nodes_reachable", report["reachable"])
        for name, count in own.items():
            registry.inc(f"dynamics.{name}", count)
    report.update(own)
    report.update(new_index.last_refresh_stats or {})
    return report


def apply_graph_delta(
    engine: PITEngine, delta: GraphDelta
) -> Dict[str, int]:
    """Apply a :class:`GraphDelta` to a :class:`PITEngine` in place.

    Runs :func:`splice_delta` (graph edit, closures, Γ refresh of the
    theta-affected entries on either backend), then repairs summaries
    incrementally: topics whose member set misses the plain-reachable
    region keep their cached summary; the rest rebuild lazily against
    the new graph on next use. The walk index is dropped (it samples the
    old graph).

    Returns statistics: counts of the edge edits, the affected-set size,
    the summary repair outcome and the refresh stats.
    """

    def repair(new_graph, new_index, affected, reachable):
        mask = np.zeros(new_graph.n_nodes, dtype=bool)
        mask[reachable] = True
        kept: Dict[int, object] = {}
        for topic_id, summary in engine.summaries.items():
            members = engine.topic_index.topic_nodes(topic_id)
            touched = bool(np.any(mask[members])) or any(
                mask[rep] for rep in summary.weights
            )
            if not touched:
                kept[topic_id] = summary
        repaired = engine.n_summaries - len(kept)
        engine.replace_graph(new_graph, new_index, kept_summaries=kept)
        return {"summaries_kept": len(kept), "summaries_repaired": repaired}

    return splice_delta(
        engine.graph, engine.propagation_index, delta, repair,
        metrics=engine._metrics,
    )


# ---------------------------------------------------------------------------
# Topic updates
# ---------------------------------------------------------------------------


def _dedup(labels: Iterable[str]) -> Tuple[str, ...]:
    """Order-preserving label dedup (a batch may add a label twice)."""
    seen: Set[str] = set()
    out: List[str] = []
    for label in labels:
        if label not in seen:
            seen.add(label)
            out.append(label)
    return tuple(out)


@dataclass(frozen=True)
class TopicUpdate:
    """A batch of membership changes.

    Attributes
    ----------
    add:
        ``node -> labels`` the node newly discusses.
    remove:
        ``node -> labels`` the node no longer discusses.
    """

    add: Mapping[int, Tuple[str, ...]] = field(default_factory=dict)
    remove: Mapping[int, Tuple[str, ...]] = field(default_factory=dict)

    @staticmethod
    def adding(node: int, *labels: str) -> "TopicUpdate":
        """Convenience single-node addition."""
        return TopicUpdate(add={int(node): tuple(labels)})

    @staticmethod
    def removing(node: int, *labels: str) -> "TopicUpdate":
        """Convenience single-node removal."""
        return TopicUpdate(remove={int(node): tuple(labels)})

    def merged_with(self, other: "TopicUpdate") -> "TopicUpdate":
        """Combine two batches (other's changes applied after self's).

        A label both batches add to (or remove from) the same node is
        kept once, in first-seen order - applying it twice would be
        idempotent anyway, and duplicated tuples broke downstream
        consumers that treat the tuples as sets.
        """
        add: Dict[int, Tuple[str, ...]] = {
            int(n): _dedup(ls) for n, ls in self.add.items()
        }
        for node, labels in other.add.items():
            node = int(node)
            add[node] = _dedup(add.get(node, ()) + tuple(labels))
        remove: Dict[int, Tuple[str, ...]] = {
            int(n): _dedup(ls) for n, ls in self.remove.items()
        }
        for node, labels in other.remove.items():
            node = int(node)
            remove[node] = _dedup(remove.get(node, ()) + tuple(labels))
        return TopicUpdate(add=add, remove=remove)


def updated_topic_index(index: TopicIndex, update: TopicUpdate) -> TopicIndex:
    """A new :class:`TopicIndex` with *update* applied.

    Removing a label a node does not carry is an error (it usually means
    the caller's view of the index is stale).
    """
    assignment: Dict[int, List[str]] = {}
    for node in range(index.n_nodes):
        labels = [index.label(t) for t in index.topics_of_node(node)]
        assignment[node] = labels
    for node, labels in update.remove.items():
        node = int(node)
        if not 0 <= node < index.n_nodes:
            raise ConfigurationError(f"node {node} outside the topic index")
        for label in labels:
            label = label.strip().lower()
            try:
                assignment[node].remove(label)
            except ValueError:
                raise ConfigurationError(
                    f"node {node} does not carry topic {label!r}"
                ) from None
    for node, labels in update.add.items():
        node = int(node)
        if not 0 <= node < index.n_nodes:
            raise ConfigurationError(f"node {node} outside the topic index")
        for label in labels:
            label = label.strip().lower()
            if label not in assignment[node]:
                assignment[node].append(label)
    populated = {n: ls for n, ls in assignment.items() if ls}
    return TopicIndex(index.n_nodes, populated)


def apply_topic_update(engine: PITEngine, update: TopicUpdate) -> Dict[str, int]:
    """Apply a :class:`TopicUpdate` to an engine in place.

    Re-keys the summary cache by label, keeps summaries whose member sets
    are unchanged, and drops the rest (they rebuild lazily on next use).
    The swap itself goes through the public
    :meth:`PITEngine.replace_topic_index` seam.

    Returns
    -------
    Statistics: ``{"kept": ..., "invalidated": ..., "topics": ...}``.
    """
    old_index = engine.topic_index
    new_index = updated_topic_index(old_index, update)

    kept = 0
    invalidated = 0
    new_summaries = {}
    old_by_label = {
        old_index.label(topic_id): summary
        for topic_id, summary in engine.summaries.items()
    }
    for label, summary in old_by_label.items():
        if label not in new_index:
            invalidated += 1
            continue
        new_id = new_index.resolve(label)
        old_members = old_index.topic_nodes(label).tolist()
        new_members = new_index.topic_nodes(label).tolist()
        if old_members == new_members:
            # Same member set: the summary is still exact; re-key it.
            new_summaries[new_id] = summary.with_topic_id(new_id)
            kept += 1
        else:
            invalidated += 1

    engine.replace_topic_index(new_index, new_summaries)
    return {
        "kept": kept,
        "invalidated": invalidated,
        "topics": new_index.n_topics,
    }


# ---------------------------------------------------------------------------
# Walk-index refresh
# ---------------------------------------------------------------------------


def refresh_walk_index(engine: PITEngine) -> None:
    """Force the walk index (and everything derived from it) to rebuild.

    Goes through :meth:`PITEngine.reset_walk_index`; serve the rebuilt
    summaries from a new :meth:`PITEngine.serving` engine.
    """
    engine.reset_walk_index()
