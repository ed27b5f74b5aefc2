"""Personalized influence propagation index - paper §5.1 (S21).

For a node ``v``, the index materializes every node that can reach ``v``
along at least one cycle-free path whose transition probability (product of
edge probabilities) is at least ``θ``, together with the *aggregated*
probability over all such paths - the ``v.hashmap`` of Algorithms 10/11,
written ``Γ(v)``.

Construction is the reverse branch expansion of Figure 3: starting from
``v``, in-edges extend branches backwards; a branch dies when its path
probability drops below ``θ`` or it would revisit one of its own nodes.
A node may appear on many branches (its contributions add up).

The expansion runs level-synchronously over the graph's reverse-CSR
arrays: every branch of every target in a batch grows by one edge per
numpy pass (:meth:`PropagationIndex.build_entries`). Each branch row's
rank in the depth-first pre-order of its target is then recovered from
subtree sizes and sibling offsets, and each member's contributions are
summed in that order, so an entry's bytes are those of a per-node DFS
over the same CSR layout. The set of qualifying cycle-free paths (and
therefore ``Γ``) is identical to the breadth-first reading of Figure 3;
only the enumeration order differs.

A node ``u ∈ Γ(v)`` is *marked* (``Γ*(v)``, "potential to be expanded")
when it has at least one in-neighbour outside ``Γ(v) ∪ {v}`` - influence
could flow into ``u`` from parts of the graph the index cannot see, which
is what the online search's upper bound and Expand step reason about. This
reproduces the Figure 3 narrative exactly (only node 11 is marked there).

Branch counts are worst-case exponential, so expansion takes a budget;
``strict`` selects raising versus truncating (truncation only loses
below-θ-adjacent mass and is safe for the search's bounds). Budget
semantics: a truncated entry contains the contribution of exactly the
first ``max_branches`` extensions in depth-first pre-order - the
extension that would exceed the budget is never taken and no
probability mass is silently dropped mid-branch.

:meth:`PropagationIndex.build_all` materializes every node in memory,
serially or across worker processes; :meth:`PropagationIndex.build_sharded`
does the same while streaming finished node ranges to the sharded
on-disk format of :mod:`repro.core.shards` (the only one), which is also
how an interrupted build resumes. Both build node ranges through
:meth:`PropagationIndex.build_entries`. Every entry is independent of
the batch it is built in and deterministic (its pre-order is fixed by
the CSR layout), so parallel builds and resumed builds are
byte-identical to an uninterrupted serial one.
Retries and the strict versus keep-going handling of persistent failures
come from the shared runner in :mod:`repro._build_runner`.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping as MappingABC
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from .._build_runner import BuildRunner
from .._utils import require_in_range, require_probability
from ..exceptions import BudgetExceededError, BuildFailedError, ConfigurationError
from ..graph import SocialGraph
from ..obs.registry import MetricsRegistry, get_registry

__all__ = [
    "GammaView",
    "PropagationEntry",
    "PropagationIndex",
]

PathLike = Union[str, Path]

#: Bucket bounds (bytes) for the per-entry storage-size histogram
#: ``propagation.entry_bytes`` - powers of four from 256B to 16MiB.
_ENTRY_BYTES_BUCKETS: Tuple[float, ...] = (
    256.0, 1024.0, 4096.0, 16384.0, 65536.0,
    262144.0, 1048576.0, 4194304.0, 16777216.0,
)


class GammaView(MappingABC):
    """Dict-compatible read-only view over a compact ``Γ(v)``.

    Backed by a sorted ``int64`` source array and a parallel ``float64``
    probability array; lookups are ``np.searchsorted`` binary searches, so
    the view adds no storage beyond the arrays it wraps.
    """

    __slots__ = ("_sources", "_probabilities")

    def __init__(self, sources: np.ndarray, probabilities: np.ndarray):
        self._sources = sources
        self._probabilities = probabilities

    def _find(self, source) -> int:
        """Index of *source* in the sorted array, or -1."""
        sources = self._sources
        i = int(np.searchsorted(sources, source))
        if i < sources.size and sources[i] == source:
            return i
        return -1

    def __getitem__(self, source) -> float:
        i = self._find(source)
        if i < 0:
            raise KeyError(source)
        return float(self._probabilities[i])

    def get(self, source, default=None):
        i = self._find(source)
        if i < 0:
            return default
        return float(self._probabilities[i])

    def __contains__(self, source) -> bool:
        return self._find(source) >= 0

    def __iter__(self):
        return iter(self._sources.tolist())

    def __len__(self) -> int:
        return int(self._sources.size)

    def __eq__(self, other):
        if isinstance(other, MappingABC):
            return dict(self) == dict(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GammaView({dict(self)!r})"


class PropagationEntry:
    """Materialized neighbourhood of one node, stored compactly.

    ``Γ(v)`` lives in a sorted ``int64`` source array plus a parallel
    ``float64`` probability array (16 bytes per member); :attr:`gamma`
    exposes the familiar mapping interface over them. ``Γ*(v) ⊆ Γ(v)``
    is one ``bool`` flag per member, parallel to the same arrays; the
    marked ids and their Γ probabilities are selected by those flags on
    first use and kept, so the Expand step never re-resolves them and an
    entry that is never searched never pays for them.

    Attributes
    ----------
    node:
        The target node ``v``.
    branches:
        Number of branch extensions performed (diagnostics).
    """

    __slots__ = (
        "node",
        "branches",
        "_sources",
        "_probabilities",
        "_flags",
        "_selected",
        "_marked_set",
        "_gamma_view",
        "_mapped",
    )

    def __init__(
        self,
        node: int,
        gamma: Mapping[int, float],
        marked: Iterable[int],
        branches: int,
    ):
        items = sorted(gamma.items())
        sources = np.fromiter(
            (s for s, _ in items), dtype=np.int64, count=len(items)
        )
        probabilities = np.fromiter(
            (p for _, p in items), dtype=np.float64, count=len(items)
        )
        marked = {int(m) for m in marked}
        flags = np.fromiter(
            (s in marked for s, _ in items), dtype=np.bool_, count=len(items)
        )
        if int(flags.sum()) != len(marked):
            raise ValueError(
                f"marked nodes of node {node} must be members of its gamma"
            )
        self._init_arrays(node, sources, probabilities, flags, branches)

    def _init_arrays(
        self,
        node: int,
        sources: np.ndarray,
        probabilities: np.ndarray,
        flags: np.ndarray,
        branches: int,
        mapped: bool = False,
    ) -> None:
        self.node = int(node)
        self.branches = int(branches)
        self._sources = sources
        self._probabilities = probabilities
        self._flags = flags
        self._selected: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._marked_set: Optional[FrozenSet[int]] = None
        self._gamma_view: Optional[GammaView] = None
        self._mapped = bool(mapped)

    @classmethod
    def from_arrays(
        cls,
        node: int,
        sources: np.ndarray,
        probabilities: np.ndarray,
        flags: np.ndarray,
        branches: int,
        *,
        mapped: bool = False,
    ) -> "PropagationEntry":
        """Zero-copy construction from pre-sorted CSR-style arrays.

        *flags* is the ``bool`` Γ* flag of each member of *sources*.
        ``mapped=True`` declares the arrays as views into a memory-mapped
        artifact: :meth:`memory_bytes` then charges only the Γ* arrays
        once selected from them (the mapped pages belong to the OS page
        cache and are reclaimable, not resident Python heap) while
        :meth:`storage_bytes` still gives the logical size.
        """
        entry = cls.__new__(cls)
        entry._init_arrays(
            node,
            np.asarray(sources, dtype=np.int64),
            np.asarray(probabilities, dtype=np.float64),
            np.asarray(flags, dtype=np.bool_),
            branches,
            mapped=mapped,
        )
        return entry

    # ------------------------------------------------------------------
    @property
    def gamma(self) -> GammaView:
        """``Γ(v)`` as a mapping ``source -> aggregated path probability``."""
        view = self._gamma_view
        if view is None:
            view = GammaView(self._sources, self._probabilities)
            self._gamma_view = view
        return view

    @property
    def marked(self) -> FrozenSet[int]:
        """``Γ*(v)`` - the subset of ``Γ(v)`` with expansion potential."""
        cached = self._marked_set
        if cached is None:
            cached = frozenset(self.marked_array.tolist())
            self._marked_set = cached
        return cached

    @property
    def sources(self) -> np.ndarray:
        """Sorted ``int64`` members of ``Γ(v)`` (read-only storage array)."""
        return self._sources

    @property
    def probabilities(self) -> np.ndarray:
        """``float64`` probabilities parallel to :attr:`sources`."""
        return self._probabilities

    @property
    def marked_flags(self) -> np.ndarray:
        """``bool`` Γ* flags parallel to :attr:`sources` (storage array)."""
        return self._flags

    def _select_marked(self) -> Tuple[np.ndarray, np.ndarray]:
        """Γ*(v) ids and their Γ probabilities, selected once by the flags."""
        selected = self._selected
        if selected is None:
            flags = self._flags
            selected = (self._sources[flags], self._probabilities[flags])
            for array in selected:
                array.flags.writeable = False
            self._selected = selected
        return selected

    @property
    def marked_array(self) -> np.ndarray:
        """Sorted ``int64`` members of ``Γ*(v)`` (read-only)."""
        return self._select_marked()[0]

    def probability(self, source: int) -> float:
        """Aggregated propagation probability of *source* to this node."""
        sources = self._sources
        i = int(np.searchsorted(sources, int(source)))
        if i < sources.size and sources[i] == source:
            return float(self._probabilities[i])
        return 0.0

    def marked_probabilities(self) -> np.ndarray:
        """Γ probabilities of ``Γ*(v)``, aligned with :attr:`marked_array`."""
        return self._select_marked()[1]

    def max_expandable_probability(self) -> float:
        """``maxEP`` - the largest Γ value among marked nodes (0 if none)."""
        probabilities = self.marked_probabilities()
        if probabilities.size == 0:
            return 0.0
        return float(probabilities.max())

    @property
    def size(self) -> int:
        """``|Γ(v)|``."""
        return int(self._sources.size)

    @property
    def is_mapped(self) -> bool:
        """Whether the storage arrays are views into a memory-mapped file."""
        return self._mapped

    def storage_bytes(self) -> int:
        """Logical size of the entry's storage arrays (resident or mapped)."""
        return int(
            self._sources.nbytes
            + self._probabilities.nbytes
            + self._flags.nbytes
        )

    def memory_bytes(self) -> int:
        """Resident heap size of the entry's arrays.

        The Γ* arrays are charged once selected (first use). A mapped
        entry charges only them: the storage arrays are views whose bytes
        live in the OS page cache and are reclaimed under pressure, so
        charging them as RAM would over-report a mapped million-node
        index as resident.
        """
        selected = self._selected
        derived = 0 if selected is None else sum(a.nbytes for a in selected)
        if self._mapped:
            return derived
        return self.storage_bytes() + derived


# ---------------------------------------------------------------------------
# Builds through the shared runner (repro._build_runner). An item is a run
# of nodes built by one build_entries call. Every worker gets its own empty
# index over the (read-only, copy-on-write under fork) CSR arrays; chunks
# return raw arrays so nothing entry-shaped is pickled.
# ---------------------------------------------------------------------------

#: Nodes per item of a serial :meth:`PropagationIndex.build_all`.
_RANGE_NODES = 256


def _worker_build_chunk(
    index: "PropagationIndex", ranges: Sequence[Tuple[int, ...]]
) -> Tuple[List[Tuple[int, np.ndarray, np.ndarray, np.ndarray, int]], int]:
    """Raw arrays of each entry plus the chunk's truncation count.

    A warning raised in a worker would only reach the worker's stderr, so
    truncations are counted here and reported once by the parent.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        entries = index.build_entries(
            [node for nodes in ranges for node in nodes]
        )
    rows = [
        (e.node, e.sources, e.probabilities, e.marked_flags, e.branches)
        for e in entries
    ]
    return rows, sum(1 for w in caught if "truncated" in str(w.message))


class _EntryBuild(BuildRunner):
    """One build call over the nodes of a :class:`PropagationIndex`."""

    prefix, item, items = "propagation", "entry", "entries"
    key = keys = "nodes"
    noun = "propagation entries"
    worker_chunk = staticmethod(_worker_build_chunk)

    def __init__(self, index: "PropagationIndex", **policy):
        super().__init__(index._metrics, **policy)
        self.index = index

    def ranges(self, nodes: List[int], width: int) -> List[Tuple[int, ...]]:
        """*nodes* cut into runs of at most *width*, and of about a
        quarter of a worker's share in a parallel build."""
        if self.workers > 1:
            width = min(width, -(-len(nodes) // (4 * self.workers)))
        width = max(1, width)
        return [
            tuple(nodes[i : i + width]) for i in range(0, len(nodes), width)
        ]

    def members(self, items) -> Tuple[int, ...]:
        return tuple(node for nodes in items for node in nodes)

    def missing(self) -> List[Tuple[int, ...]]:
        index = self.index
        if index._shards is not None:
            return []  # every node is served from the mapped shards
        return self.ranges(
            [
                node for node in range(index._graph.n_nodes)
                if node not in index._entries
            ],
            _RANGE_NODES,
        )

    def build_item(self, nodes: Tuple[int, ...]) -> None:
        for entry in self.index.build_entries(nodes):
            self._keep(entry)

    def _keep(self, entry: "PropagationEntry") -> None:
        self.index._entries[entry.node] = entry
        registry = self.registry
        registry.inc("propagation.branches", entry.branches)
        registry.inc("propagation.members", entry.size)
        registry.observe(
            "propagation.entry_bytes",
            entry.memory_bytes(),
            buckets=_ENTRY_BYTES_BUCKETS,
        )

    @contextmanager
    def pool_state(self):
        index = self.index
        self._truncated = 0
        yield PropagationIndex(
            index._graph,
            index._theta,
            max_branches=index._max_branches,
            strict=index._strict,
        )
        if self._truncated:
            warnings.warn(
                f"{self._truncated} propagation entries truncated at "
                f"{index._max_branches} branches (theta={index._theta})",
                RuntimeWarning,
                stacklevel=6,  # the caller of build_all/build_sharded
            )

    def adopt_chunk(self, result) -> int:
        rows, n_truncated = result
        self._truncated += n_truncated
        for row in rows:
            self._keep(PropagationEntry.from_arrays(*row))
        return len(rows)

    def attach_partial(self, error: BuildFailedError) -> None:
        error.partial_index = self.index


# ---------------------------------------------------------------------------
# The batched branch expansion (PropagationIndex.build_entries): many
# targets at once, one level of branch rows at a time, with each target's
# DFS pre-order recovered afterwards so every sum adds in that order.
# ---------------------------------------------------------------------------

#: Branch rows one chunk of several targets may hold. A target whose
#: expansion alone needs more re-runs alone, bounded by ``max_branches``.
_BATCH_ROWS = 1 << 13
#: (row, in-edge) or (member, in-edge) pairs expanded in one step.
_BATCH_PAIRS = 1 << 13
#: In-neighbours per member tested one at a time before Γ* marking
#: expands the rest of an in-list whole.
_MARK_PROBES = 2


class _Level(NamedTuple):
    """One depth of branch rows; row ``i`` extends row ``parent[i]`` of the
    level above (the roots, one per target, have no parent)."""

    target: np.ndarray  # chunk-local target index, non-decreasing
    node: np.ndarray
    prob: np.ndarray
    parent: Optional[np.ndarray]

    def rows(self, n_rows: int) -> "_Level":
        """The first *n_rows* rows."""
        return _Level(*(None if a is None else a[:n_rows] for a in self))

    def head(self, n_targets: int) -> "_Level":
        """The rows of the first *n_targets* targets (a prefix)."""
        return self.rows(int(np.searchsorted(self.target, n_targets)))


def _concat(pieces: List[_Level]) -> _Level:
    return _Level(*(np.concatenate(c) for c in zip(*pieces)))


def _ranges(starts: np.ndarray, lengths: np.ndarray):
    """Owner and position of every slot of the ranges
    ``[starts[i], starts[i] + lengths[i])``, concatenated in order."""
    owner = np.repeat(np.arange(lengths.size), lengths)
    offsets = np.cumsum(lengths) - lengths
    return owner, np.arange(owner.size) + (starts - offsets)[owner]


def _slices(lengths: np.ndarray, budget: int) -> List[int]:
    """Cut points splitting consecutive items into runs whose *lengths*
    sum to at most *budget* (a longer single item is a run of its own)."""
    ends = np.cumsum(lengths)
    cuts = [0]
    while cuts[-1] < lengths.size:
        start = cuts[-1]
        base = int(ends[start - 1]) if start else 0
        stop = int(np.searchsorted(ends, base + budget, side="right"))
        cuts.append(max(stop, start + 1))
    return cuts


def _preorder(levels: List[_Level]) -> List[np.ndarray]:
    """Every row's rank in its target's DFS pre-order, one array per
    level below the roots.

    Subtree sizes come bottom-up; a row's rank is its parent's plus one
    plus the subtree sizes of its earlier siblings. Rows of a level are
    laid out by parent, siblings in in-list order, so a level's rows of
    one target are in pre-order too.
    """
    sizes = [np.ones(level.node.size, dtype=np.int64) for level in levels]
    for depth in range(len(levels) - 1, 1, -1):
        sizes[depth - 1] += np.bincount(
            levels[depth].parent,
            weights=sizes[depth],
            minlength=sizes[depth - 1].size,
        ).astype(np.int64)
    rank = np.full(levels[0].node.size, -1, dtype=np.int64)
    ranks = []
    for level, size in zip(levels[1:], sizes[1:]):
        before = np.cumsum(size) - size
        parent = level.parent
        head = np.empty(parent.size, dtype=bool)
        head[:1] = True
        np.not_equal(parent[1:], parent[:-1], out=head[1:])
        first = np.maximum.accumulate(np.where(head, np.arange(parent.size), 0))
        rank = rank[parent] + 1 + before - before[first]
        ranks.append(rank)
    return ranks


def _cut(levels: List[_Level], budget: int) -> List[_Level]:
    """A lone target's *levels* without the rows ranked past *budget* in
    its pre-order among the rows known so far."""
    return levels[:1] + [
        level.rows(int(np.searchsorted(rank, budget)))
        for level, rank in zip(levels[1:], _preorder(levels))
    ]


def _expand(index: "PropagationIndex", chunk: np.ndarray):
    """Every branch row of the targets in *chunk*, level by level.

    A row is one branch extension: a node that joins a branch at a
    path probability >= θ without revisiting the branch. Rows with
    ``prob * max_in >= θ`` grow the next level from their in-lists.
    Rows stay grouped by target, so dropping the chunk's trailing
    targets cuts a prefix off every level. A chunk of several targets
    does that when it outgrows :data:`_BATCH_ROWS` or a target passes
    ``max_branches``; the dropped targets re-run.

    A lone target instead keeps its first ``max_branches`` rows in
    pre-order: once its known rows pass ``2 * max_branches``, and once
    more before returning, every row whose pre-order rank among the
    rows known so far is past the budget goes (:func:`_cut`). Those rows
    are closed under ancestors, so a rank only grows as deeper rows
    arrive: a dropped row and its subtree lie past the final cut, and a
    row left standing past the budget until the next cut only costs
    scratch. Within a level the ranks rise, so every level keeps a
    prefix. Scratch stays under ``2 * max_branches`` rows plus one
    :data:`_BATCH_PAIRS` piece.

    Returns ``(levels, done, counts, truncated)``: ``chunk[:done]`` is
    expanded, with ``counts`` rows each; ``truncated`` says the lone
    target was cut.
    """
    graph = index._graph
    indptr, in_sources, in_probs = (
        graph._in_indptr, graph._in_sources, graph._in_probs
    )
    max_in = index._max_in()
    theta = index._theta
    budget = index._max_branches
    lone = chunk.size == 1
    truncated = False
    done = int(chunk.size)
    counts = np.zeros(done, dtype=np.int64)
    levels = [_Level(np.arange(done), chunk, np.ones(done), None)]
    while True:
        last = levels[-1]
        if len(levels) == 1:
            grow = np.arange(done)  # a target always scans its in-list
        else:
            grow = np.flatnonzero(last.prob * max_in[last.node] >= theta)
        first = indptr[last.node[grow]]
        degree = indptr[last.node[grow] + 1] - first
        cuts = _slices(degree, _BATCH_PAIRS)
        pieces: List[_Level] = []
        for a, b in zip(cuts, cuts[1:]):
            if a >= grow.size:
                break  # the rest belonged to dropped rows
            b = min(b, grow.size)
            owner, position = _ranges(first[a:b], degree[a:b])
            parent = grow[a:b][owner]
            prob = last.prob[parent] * in_probs[position]
            keep = prob >= theta
            parent, prob = parent[keep], prob[keep]
            node = in_sources[position[keep]]
            # A branch never revisits a node: skip the row's own node,
            # its ancestors' nodes and the target.
            fresh = np.ones(node.size, dtype=bool)
            above = parent
            for level in reversed(levels):
                fresh &= level.node[above] != node
                if level.parent is not None:
                    above = level.parent[above]
            parent = parent[fresh]
            piece = _Level(last.target[parent], node[fresh], prob[fresh], parent)
            pieces.append(piece)
            counts += np.bincount(piece.target, minlength=done)
            if lone:
                if counts[0] <= budget:
                    continue
                if index._strict:
                    raise BudgetExceededError(
                        f"propagation entry of node {int(chunk[0])}", budget
                    )
                truncated = True
                if counts[0] <= 2 * budget:
                    continue
                kept = _cut(levels + [_concat(pieces)], budget)
                levels[1:], pieces = kept[1:-1], kept[-1:]
                last = levels[-1]
                grow = grow[: int(np.searchsorted(grow, last.node.size))]
                counts[0] = budget
                continue
            over = np.flatnonzero(counts > budget)
            cut = int(over[0]) if over.size else done
            total = np.cumsum(counts)
            if total[-1] > _BATCH_ROWS:
                cut = min(cut, int(np.searchsorted(total, _BATCH_ROWS, "right")))
            if cut < done:
                done = cut
                counts = counts[:done]
                levels = [level.head(done) for level in levels]
                pieces = [piece.head(done) for piece in pieces]
                grow = grow[: int(np.searchsorted(last.target[grow], done))]
        rows = [piece for piece in pieces if piece.node.size]
        if not rows:
            if lone and counts[0] > budget:
                levels = _cut(levels, budget)
                counts[0] = budget
            # A cut can empty the deepest levels of the kept targets.
            levels = [level for level in levels if level.node.size]
            return levels, done, counts, truncated
        levels.append(_concat(rows))


def _chunk_entries(
    index: "PropagationIndex",
    chunk: np.ndarray,
    levels: List[_Level],
    counts: np.ndarray,
) -> Dict[int, "PropagationEntry"]:
    """The entries of *chunk* from its expanded *levels*.

    Rows are laid out in each target's pre-order (:func:`_preorder`),
    and ``np.bincount`` - which adds its weights sequentially - sums
    each (target, member) bin in exactly that order.
    """
    graph = index._graph
    n = graph.n_nodes
    base = np.cumsum(counts) - counts
    n_rows = int(counts.sum())
    order_node = np.empty(n_rows, dtype=np.int64)
    order_prob = np.empty(n_rows)
    for level, rank in zip(levels[1:], _preorder(levels)):
        position = base[level.target] + rank
        order_node[position] = level.node
        order_prob[position] = level.prob
    keys = np.repeat(np.arange(chunk.size, dtype=np.int64), counts) * n
    keys += order_node
    members, inverse = np.unique(keys, return_inverse=True)
    probabilities = np.bincount(
        inverse, weights=order_prob, minlength=members.size
    )
    owner = members // n
    sources = members - owner * n
    flags = _potential(graph, chunk, members, owner, sources)
    bounds = np.concatenate(
        ([0], np.cumsum(np.bincount(owner, minlength=chunk.size)))
    ).tolist()
    return {
        node: PropagationEntry.from_arrays(
            node,
            sources[bounds[i] : bounds[i + 1]],
            probabilities[bounds[i] : bounds[i + 1]],
            flags[bounds[i] : bounds[i + 1]],
            branches,
        )
        for i, (node, branches) in enumerate(
            zip(chunk.tolist(), counts.tolist())
        )
    }


def _potential(
    graph: SocialGraph,
    chunk: np.ndarray,
    members: np.ndarray,
    owner: np.ndarray,
    sources: np.ndarray,
) -> np.ndarray:
    """Γ* flag of every (target, member) key in the sorted *members*: an
    in-neighbour outside Γ(target) ∪ {target}.

    A member stops at its first outside in-neighbour: the first
    :data:`_MARK_PROBES` in-neighbours are tested one round at a time,
    which settles most members, and only the in-lists left open are
    expanded whole, :data:`_BATCH_PAIRS` at a time.
    """
    indptr, in_sources = graph._in_indptr, graph._in_sources
    n = graph.n_nodes

    def outside(item: np.ndarray, position: np.ndarray) -> np.ndarray:
        neighbour = in_sources[position]
        target = owner[item]
        key = target * n + neighbour
        slot = np.minimum(np.searchsorted(members, key), members.size - 1)
        return (members[slot] != key) & (neighbour != chunk[target])

    flags = np.zeros(members.size, dtype=bool)
    start = indptr[sources]
    end = indptr[sources + 1]
    open_ = np.flatnonzero(start < end)
    for _ in range(_MARK_PROBES):
        if not open_.size:
            return flags
        hit = outside(open_, start[open_])
        flags[open_[hit]] = True
        start[open_] += 1
        open_ = open_[~hit & (start[open_] < end[open_])]
    degree = end[open_] - start[open_]
    cuts = _slices(degree, _BATCH_PAIRS)
    for a, b in zip(cuts, cuts[1:]):
        local, position = _ranges(start[open_[a:b]], degree[a:b])
        flags[open_[a:b][local[outside(open_[a:b][local], position)]]] = True
    return flags


class PropagationIndex:
    """Lazy, cached per-node propagation entries over a graph.

    Parameters
    ----------
    graph:
        The social graph.
    theta:
        ``θ`` - minimum path probability for materialization.
    max_branches:
        Per-node budget on branch extensions.
    strict:
        Raise :class:`BudgetExceededError` instead of truncating when the
        budget binds.

    Entries are built on first access and cached; :meth:`build_all`
    materializes every node up front (the paper's offline variant),
    optionally sharding across worker processes. Every build goes
    through :meth:`build_entries`; the only state kept between builds is
    the per-node strongest in-edge probability (:meth:`_max_in`).
    """

    def __init__(
        self,
        graph: SocialGraph,
        theta: float = 0.05,
        *,
        max_branches: int = 200_000,
        strict: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ):
        require_probability("theta", theta, inclusive_zero=False)
        require_in_range("max_branches", max_branches, 1)
        self._graph = graph
        self._theta = float(theta)
        self._max_branches = int(max_branches)
        self._strict = bool(strict)
        self._entries: Dict[int, PropagationEntry] = {}
        self._shards = None  # Optional[repro.core.shards.MmapShardBackend]
        self._peak: Optional[np.ndarray] = None
        self._metrics = metrics
        self.last_build_stats = None
        #: Statistics of the partial rebuild that produced this index
        #: (see :meth:`rebuilt_for`); ``None`` for directly built ones.
        self.last_refresh_stats: Optional[Dict[str, int]] = None

    def set_metrics(self, registry: Optional[MetricsRegistry]) -> None:
        """Route build metrics to *registry* (None = process default)."""
        self._metrics = registry
        if self._shards is not None:
            self._shards.set_metrics(registry)

    def _registry(self) -> MetricsRegistry:
        metrics = self._metrics
        return metrics if metrics is not None else get_registry()

    # ------------------------------------------------------------------
    @property
    def graph(self) -> SocialGraph:
        """The indexed graph."""
        return self._graph

    @property
    def theta(self) -> float:
        """The path-probability threshold ``θ``."""
        return self._theta

    @property
    def max_branches(self) -> int:
        """The per-node branch-extension budget."""
        return self._max_branches

    @property
    def strict(self) -> bool:
        """Whether the budget raises instead of truncating."""
        return self._strict

    @property
    def n_cached(self) -> int:
        """Number of entries materialized (or shard-covered) so far."""
        if self._shards is not None:
            return self._graph.n_nodes
        return len(self._entries)

    @property
    def shards(self):
        """The attached :class:`~repro.core.shards.MmapShardBackend`, if any."""
        return self._shards

    def attach_shards(self, backend) -> "PropagationIndex":
        """Serve entries from a mapped shard *backend* (zero-copy).

        The backend must cover this index's graph and carry the same
        ``theta``/``max_branches`` (shards built under different
        parameters would silently change Γ). In-memory entries, when
        present, take precedence; every other node is served from the
        mapped shards without ever touching this index's heap.
        """
        if (backend.theta != self._theta
                or backend.max_branches != self._max_branches):
            raise ConfigurationError(
                f"sharded index was built with theta={backend.theta}, "
                f"max_branches={backend.max_branches}; this index uses "
                f"theta={self._theta}, max_branches={self._max_branches}"
            )
        self._shards = backend
        if self._metrics is not None:
            backend.set_metrics(self._metrics)
        return self

    def rebuilt_for(
        self, graph: SocialGraph, affected: np.ndarray
    ) -> "PropagationIndex":
        """A new index over *graph* reusing every unaffected cached entry.

        The targeted partial rebuild behind the delta engine
        (:mod:`repro.core.dynamics`): entries are graph-independent
        sorted arrays, so nodes outside *affected* carry their entry
        over untouched; affected nodes that were materialized are
        rebuilt eagerly against the new graph's CSR in one
        :meth:`build_entries` batch (so a fully materialized index comes
        out byte-identical to a from-scratch build); never-built nodes
        stay lazy. The result
        records ``{"entries_rebuilt", "entries_copied"}`` in
        :attr:`last_refresh_stats` and the ``dynamics.*`` counters.

        Raises
        ------
        ConfigurationError
            When this index serves from mapped shards (refresh those
            with :func:`repro.core.shards.refresh_sharded_index`, which
            rewrites only the dirty shard files) or when *graph* has a
            different node count (deltas edit edges, never nodes).
        """
        if self._shards is not None:
            raise ConfigurationError(
                "rebuilt_for requires the in-memory backend; this index "
                "serves from mapped shards - refresh them with "
                "repro.core.shards.refresh_sharded_index instead"
            )
        if graph.n_nodes != self._graph.n_nodes:
            raise ConfigurationError(
                f"cannot rebuild for a graph with {graph.n_nodes} nodes; "
                f"this index covers {self._graph.n_nodes}"
            )
        fresh = PropagationIndex(
            graph,
            self._theta,
            max_branches=self._max_branches,
            strict=self._strict,
            metrics=self._metrics,
        )
        mask = np.zeros(graph.n_nodes, dtype=bool)
        mask[np.asarray(affected, dtype=np.int64)] = True
        stale = [node for node in self._entries if mask[node]]
        fresh._entries = dict(self._entries)
        fresh._entries.update(zip(stale, fresh.build_entries(stale)))
        rebuilt = len(stale)
        copied = len(self._entries) - rebuilt
        registry = self._registry()
        registry.inc("dynamics.entries_rebuilt", rebuilt)
        registry.inc("dynamics.entries_copied", copied)
        fresh.last_refresh_stats = {
            "entries_rebuilt": rebuilt,
            "entries_copied": copied,
        }
        return fresh

    def entry(self, node: int) -> PropagationEntry:
        """The propagation entry of *node*, building it if needed."""
        node = self._graph._check_node(node)
        cached = self._entries.get(node)
        if cached is None:
            if self._shards is not None:
                return self._shards.get(node)
            cached = self._entries[node] = self.build_entries([node])[0]
        return cached

    def build_entries(self, nodes: Iterable[int]) -> List[PropagationEntry]:
        """Build the entries of *nodes* in one batch, WITHOUT inserting them.

        Entries come in input order, duplicates included. The branch
        expansion of every target runs at once, one level of branch rows
        at a time over the reverse-CSR arrays, and each member's
        probability is summed in the target's depth-first pre-order.
        Targets go through in chunks under a fixed row budget; a target
        that outgrows a chunk re-runs alone. A target whose expansion
        passes ``max_branches`` keeps its first ``max_branches`` rows in
        pre-order and warns once per returned entry, or raises
        :class:`~repro.exceptions.BudgetExceededError` in strict mode.
        """
        nodes = [self._graph._check_node(node) for node in nodes]
        pending = sorted(set(nodes))
        built: Dict[int, PropagationEntry] = {}
        truncated: Set[int] = set()
        width = len(pending)
        while pending:
            chunk = np.array(pending[:width], dtype=np.int64)
            levels, done, counts, cut = _expand(self, chunk)
            if done:
                built.update(
                    _chunk_entries(self, chunk[:done], levels, counts)
                )
            if cut:
                truncated.add(pending[0])
            pending = pending[done:]
            # Dropped targets re-run in a chunk the size of what fitted.
            width = max(1, done) if done < chunk.size else 2 * width
        for node in nodes:
            if node in truncated:
                warnings.warn(
                    f"propagation entry of node {node} truncated at "
                    f"{self._max_branches} branches (theta={self._theta})",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return [built[node] for node in nodes]

    def build_all(
        self,
        workers: Optional[int] = 1,
        *,
        max_retries: int = 2,
        retry_backoff: float = 0.5,
        strict: Optional[bool] = None,
    ) -> "PropagationIndex":
        """Materialize every node in memory (offline pre-processing).

        Parameters
        ----------
        workers:
            Worker processes to shard the build across. ``1`` (default)
            builds serially in-process; ``None`` uses every available CPU.
            Nodes are built in ranges of up to 256, about four ranges per
            worker in a parallel build. Parallel results are
            byte-identical to serial ones - each entry's pre-order is
            fixed by the CSR layout regardless of which process or range
            builds it.
        max_retries:
            Retries of a range (serial) or fresh-process retry rounds for
            chunks whose worker crashed or raised an unexpected error
            (parallel). Deterministic library errors
            (:class:`~repro.exceptions.ReproError`, e.g. a strict budget
            violation) are never retried - they propagate immediately.
        retry_backoff:
            Base of the bounded exponential backoff (seconds) slept
            before each retry round: ``retry_backoff * 2**(round-1)``,
            capped at 30s.
        strict:
            What to do with ranges that still fail after ``max_retries``:
            ``True`` raises :class:`~repro.exceptions.BuildFailedError`
            (with the partial index attached);
            ``False`` records them in ``failed_nodes`` on the build stats
            and continues. ``None`` (default) follows the index's own
            ``strict`` flag.

        Records a :class:`~repro.core.diagnostics.PropagationBuildStats`
        on :attr:`last_build_stats` (also when raising
        :class:`~repro.exceptions.BuildFailedError`). The stats are a
        *view over a registry delta*: the build increments cumulative
        counters on its metrics registry and the stats object is
        constructed from the before/after snapshot difference - one
        bookkeeping path feeds both the per-call report and the
        process-wide exporters.
        """
        from .diagnostics import PropagationBuildStats

        run = _EntryBuild(
            self,
            workers=workers,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
        )
        failed, _ = run.build_all()
        self.last_build_stats = PropagationBuildStats.from_metrics(
            run.finish(failed),
            n_entries=len(self._entries),
            workers=run.workers,
            total_bytes=self.memory_bytes(),
            failed_nodes=tuple(failed),
        )
        run.settle(
            failed,
            self._strict if strict is None else bool(strict),
            "skipped (see last_build_stats.failed_nodes)",
        )
        return self

    def build_sharded(
        self,
        directory: PathLike,
        *,
        shard_nodes: int = 4096,
        workers: Optional[int] = 1,
        resume: bool = True,
        max_retries: int = 2,
        retry_backoff: float = 0.5,
        strict: Optional[bool] = None,
    ) -> "PropagationIndex":
        """Materialize every node, streaming completed shards to disk.

        The bounded-RSS counterpart of :meth:`build_all`: nodes are built
        one contiguous ``shard_nodes`` range at a time, each finished
        range is packed to a flat binary shard and published atomically
        (with a per-shard SHA-256 in a checksummed manifest), and the
        built entries are then **dropped from memory** - peak residency
        is one shard range plus build scratch, independent of graph size.
        The finished ranges are then re-cut into ``ceil(n / shard_nodes)``
        shards of near-equal bytes
        (:meth:`~repro.core.shards.PropagationShardWriter.publish`), one
        input shard mapped at a time and one manifest swap to publish.
        Serve the result with
        :func:`~repro.core.shards.load_sharded_index`.

        Determinism and retries carry over from :meth:`build_all`, and
        the manifest doubles as the build's checkpoint:

        * entries are deterministic, so shard files are byte-identical
          across runs - an interrupted build resumed with ``resume=True``
          (the default) verifies already-published shards (size +
          digest), skips every range they hold, and finishes with a
          directory digest-identical to an uninterrupted build's;
        * the manifest is rewritten after every shard, so at most one
          shard range of work is lost to a crash;
        * each shard range is one build item of the serial build and is
          split into chunks for a parallel one; retries (``max_retries``,
          ``retry_backoff``) behave exactly as in :meth:`build_all`;
          nodes whose range or chunk still fails
          in keep-going mode are stored as empty shard slots and listed
          under ``failed_nodes`` in the manifest (and on the build
          stats), and such a build keeps its uniform ranges, so a
          resumed build rebuilds just the ranges that failed - while
          ``strict`` raises
          :class:`~repro.exceptions.BuildFailedError` with every
          completed shard already safe on disk.

        Records :class:`~repro.core.diagnostics.PropagationBuildStats` on
        :attr:`last_build_stats`, also when raising (the error's
        ``n_built`` counts every entry this call built, across all shard
        ranges); shard progress is observable via the
        ``propagation.shards_written`` / ``propagation.shards_resumed``
        counters.
        """
        from .diagnostics import PropagationBuildStats
        from .shards import PropagationShardWriter

        require_in_range("shard_nodes", shard_nodes, 1)
        run = _EntryBuild(
            self,
            workers=workers,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
        )
        strict_build = self._strict if strict is None else bool(strict)
        n_nodes = self._graph.n_nodes
        shard_nodes = int(shard_nodes)
        writer = PropagationShardWriter(directory, self, shard_nodes)
        failed: List[int] = []
        n_resumed = 0
        n_covered = 0
        bytes_written = 0
        with run.span("build_sharded", workers=run.workers):
            if resume:
                writer.resume()
            adopted: Set[str] = set()
            for lo in range(0, n_nodes, shard_nodes):
                hi = n_covered = min(lo + shard_nodes, n_nodes)
                kept = writer.covering(lo, hi)
                if kept is not None:
                    for record in kept:
                        if record["name"] not in adopted:
                            adopted.add(record["name"])
                            writer.adopt(record, verify=False)
                            bytes_written += int(record["nbytes"])
                            run.registry.inc("propagation.shards_resumed")
                    n_resumed += hi - lo
                    continue
                range_failed = run.run(run.ranges(
                    [node for node in range(lo, hi) if node not in self._entries],
                    shard_nodes,
                ))
                failed.extend(range_failed)
                if range_failed and strict_build:
                    break  # published shards stay; the manifest stays open
                record = writer.write_range(lo, hi, self._entries, range_failed)
                bytes_written += int(record["nbytes"])
                run.registry.inc("propagation.shards_written")
                # Streaming: the shard is safe on disk - free its entries
                # so peak residency stays one shard range.
                for node in range(lo, hi):
                    self._entries.pop(node, None)
            if not (failed and strict_build):
                manifest = writer.publish(n_nodes, balanced=not failed)
                bytes_written = sum(int(r["nbytes"]) for r in manifest["shards"])
        self.last_build_stats = PropagationBuildStats.from_metrics(
            run.finish(failed),
            n_entries=n_covered - len(failed),
            workers=run.workers,
            total_bytes=bytes_written,
            failed_nodes=tuple(failed),
            n_resumed=n_resumed,
            phase="build_sharded",
        )
        run.settle(
            failed,
            strict_build,
            "stored as empty shard slots "
            "(see last_build_stats.failed_nodes)",
        )
        return self

    def memory_bytes(self) -> int:
        """Exact resident size of the index (heap entries + paged shards).

        Mapped shard segments are charged at the bytes their paging cache
        currently holds, not their full on-disk size - see
        :meth:`mapped_bytes` for the virtual footprint.
        """
        total = sum(e.memory_bytes() for e in self._entries.values())
        if self._shards is not None:
            total += self._shards.resident_bytes()
        return total

    def mapped_bytes(self) -> int:
        """Total on-disk bytes of attached shard segments (0 if none)."""
        if self._shards is None:
            return 0
        return self._shards.mapped_bytes()

    # ------------------------------------------------------------------
    def _max_in(self) -> np.ndarray:
        """Strongest in-edge probability per node (0 for none).

        A branch at probability p only needs its node expanded when
        p * max_in >= θ - every extension through a weaker node provably
        fails the per-edge test, so the expansion skips the whole scan.
        Segmented max via reduceat (starts clipped so trailing empty rows
        stay in bounds; empty rows zeroed after).
        """
        peak = self._peak
        if peak is None:
            indptr = self._graph._in_indptr
            probs = self._graph._in_probs
            if probs.size:
                starts = np.minimum(indptr[:-1], probs.size - 1)
                peak = np.maximum.reduceat(probs, starts)
                peak[indptr[:-1] == indptr[1:]] = 0.0
            else:
                peak = np.zeros(self._graph.n_nodes)
            self._peak = peak
        return peak
