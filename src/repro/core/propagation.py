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

The expansion runs as an explicit depth-first stack directly over the
graph's reverse-CSR arrays. Because a DFS holds exactly one branch (the
current stack path) at a time, cycle membership is a single reusable
byte-mask - set a bit on descent, clear it on backtrack - so the per-push
``frozenset`` copies and per-pop ``in_edges()`` tuple unpacking of the
naive formulation disappear entirely. The set of qualifying cycle-free
paths (and therefore ``Γ``) is identical to the breadth-first reading of
Figure 3; only the enumeration order differs.

A node ``u ∈ Γ(v)`` is *marked* (``Γ*(v)``, "potential to be expanded")
when it has at least one in-neighbour outside ``Γ(v) ∪ {v}`` - influence
could flow into ``u`` from parts of the graph the index cannot see, which
is what the online search's upper bound and Expand step reason about. This
reproduces the Figure 3 narrative exactly (only node 11 is marked there).

Branch counts are worst-case exponential, so expansion takes a budget;
``strict`` selects raising versus truncating (truncation only loses
below-θ-adjacent mass and is safe for the search's bounds). Budget
semantics: a branch extension is counted *before* it is consumed, so a
truncated entry contains the contribution of exactly ``max_branches``
extensions - the extension that would exceed the budget is never taken
and no probability mass is silently dropped mid-branch.

:meth:`PropagationIndex.build_all` materializes every node in memory,
serially or across worker processes; :meth:`PropagationIndex.build_sharded`
does the same while streaming finished node ranges to the sharded
on-disk format of :mod:`repro.core.shards` (the only one), which is also
how an interrupted build resumes. Every entry build is independent and
deterministic (DFS order is fixed by the CSR layout), so parallel builds
and resumed builds are byte-identical to an uninterrupted serial one.
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
# Builds through the shared runner (repro._build_runner). Every worker gets
# its own empty index over the (read-only, copy-on-write under fork) CSR
# arrays; chunks return raw arrays so nothing entry-shaped is pickled.
# ---------------------------------------------------------------------------


def _worker_build_chunk(
    index: "PropagationIndex", nodes: Sequence[int]
) -> Tuple[List[Tuple[int, np.ndarray, np.ndarray, np.ndarray, int]], int]:
    """Raw arrays of each entry plus the chunk's truncation count.

    A warning raised in a worker would only reach the worker's stderr, so
    truncations are counted here and reported once by the parent.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = [
            (e.node, e.sources, e.probabilities, e.marked_flags, e.branches)
            for e in map(index._build_entry, nodes)
        ]
    return rows, sum(1 for w in caught if "truncated" in str(w.message))


class _EntryBuild(BuildRunner):
    """One build call over the nodes of a :class:`PropagationIndex`."""

    prefix, item, items, key = "propagation", "entry", "entries", "node"
    noun = "propagation entries"
    worker_chunk = staticmethod(_worker_build_chunk)

    def __init__(self, index: "PropagationIndex", **policy):
        super().__init__(index._metrics, **policy)
        self.index = index

    def missing(self) -> List[int]:
        index = self.index
        if index._shards is not None:
            return []  # every node is served from the mapped shards
        return [
            node for node in range(index._graph.n_nodes)
            if node not in index._entries
        ]

    def build_item(self, node: int) -> None:
        self._keep(node, self.index._build_entry(node))

    def _keep(self, node: int, entry: "PropagationEntry") -> None:
        self.index._entries[node] = entry
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
            self._keep(row[0], PropagationEntry.from_arrays(*row))
        return len(rows)

    def attach_partial(self, error: BuildFailedError) -> None:
        error.partial_index = self.index


# ---------------------------------------------------------------------------
# Batched rebuild (PropagationIndex.build_entries): the branch expansion of
# many targets at once, one level of branch rows at a time, with the DFS's
# pre-order recovered afterwards so every sum adds in the DFS's order.
# ---------------------------------------------------------------------------

#: Branch rows one chunk of targets may hold. A target whose expansion
#: alone needs more is handed to the DFS.
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

    def head(self, n_targets: int) -> "_Level":
        """The rows of the first *n_targets* targets (a prefix)."""
        rows = int(np.searchsorted(self.target, n_targets))
        return _Level(*(None if a is None else a[:rows] for a in self))


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


def _expand(index: "PropagationIndex", chunk: np.ndarray, limit: int):
    """Every branch row of the targets in *chunk*, level by level.

    A row is one extension of the DFS: a node that joins a branch at a
    path probability >= θ without revisiting the branch. Rows with
    ``prob * max_in >= θ`` grow the next level from their in-lists.
    Rows stay grouped by target, so dropping the chunk's trailing
    targets cuts a prefix off every level. That happens when the chunk
    outgrows :data:`_BATCH_ROWS`, or when a target passes *limit* rows;
    that target is handed to the DFS.

    Returns ``(levels, done, counts, handed)``: ``chunk[:done]`` is
    expanded, with ``counts`` rows each; ``handed`` holds the
    chunk-local indices past *done* that go to the DFS.
    """
    graph = index._graph
    indptr, in_sources, in_probs = (
        graph._in_indptr, graph._in_sources, graph._in_probs
    )
    max_in = index._max_in()
    theta = index._theta
    done = int(chunk.size)
    counts = np.zeros(done, dtype=np.int64)
    handed: List[int] = []
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
                break  # the rest belonged to dropped targets
            b = min(b, grow.size)
            owner, position = _ranges(first[a:b], degree[a:b])
            parent = grow[a:b][owner]
            prob = last.prob[parent] * in_probs[position]
            keep = prob >= theta
            parent, prob = parent[keep], prob[keep]
            node = in_sources[position[keep]]
            # The DFS skips a source already on the branch: the row's
            # own node, its ancestors' nodes, or the target.
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
            over = np.flatnonzero(counts > limit)
            cut = int(over[0]) if over.size else done
            total = np.cumsum(counts)
            if total[-1] > _BATCH_ROWS:
                cut = min(cut, int(np.searchsorted(total, _BATCH_ROWS, "right")))
            if cut < done:
                if over.size and cut == over[0]:
                    handed.append(cut)
                done = cut
                counts = counts[:done]
                levels = [level.head(done) for level in levels]
                pieces = [piece.head(done) for piece in pieces]
                grow = grow[: int(np.searchsorted(last.target[grow], done))]
        rows = [piece for piece in pieces if piece.node.size]
        if not rows:
            # A cut can empty the deepest levels of the kept targets.
            levels = [level for level in levels if level.node.size]
            return levels, done, counts, handed
        levels.append(_Level(*(np.concatenate(c) for c in zip(*rows))))


def _chunk_entries(
    index: "PropagationIndex",
    chunk: np.ndarray,
    levels: List[_Level],
    counts: np.ndarray,
) -> Dict[int, "PropagationEntry"]:
    """The entries of *chunk* from its expanded *levels*, bit-exact with
    the DFS.

    The DFS adds a member's contributions in its pre-order. Subtree
    sizes (bottom-up) and sibling offsets (top-down) give each row its
    pre-order rank, rows are laid out in that order, and ``np.bincount``
    - which adds its weights sequentially - sums each (target, member)
    bin in exactly the DFS's order.
    """
    graph = index._graph
    n = graph.n_nodes
    sizes: List[Optional[np.ndarray]] = [None] * len(levels)
    for depth in range(len(levels) - 1, 0, -1):
        size = np.ones(levels[depth].node.size, dtype=np.int64)
        if depth + 1 < len(levels):
            below = levels[depth + 1]
            size += np.bincount(
                below.parent, weights=sizes[depth + 1], minlength=size.size
            ).astype(np.int64)
        sizes[depth] = size
    base = np.cumsum(counts) - counts
    n_rows = int(counts.sum())
    order_node = np.empty(n_rows, dtype=np.int64)
    order_prob = np.empty(n_rows)
    rank = np.full(chunk.size, -1, dtype=np.int64)
    for level, size in zip(levels[1:], sizes[1:]):
        before = np.cumsum(size) - size
        parent = level.parent
        head = np.empty(parent.size, dtype=bool)
        head[0] = True
        np.not_equal(parent[1:], parent[:-1], out=head[1:])
        first = np.maximum.accumulate(np.where(head, np.arange(parent.size), 0))
        rank = rank[parent] + 1 + before - before[first]
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

    Like the DFS, a member stops at its first outside in-neighbour: the
    first :data:`_MARK_PROBES` in-neighbours are tested one round at a
    time, which settles most members, and only the in-lists left open
    are expanded whole, :data:`_BATCH_PAIRS` at a time.
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
    optionally sharding across worker processes.

    Construction keeps two lazily-built scratch structures: a Python-list
    image of the reverse-CSR arrays (list indexing avoids the numpy scalar
    boxing that dominates a pure-Python traversal; transient ``O(E)``
    objects, freed with the index) and a ``bytearray`` membership mask
    reused across every branch and every entry.
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
        self._csr: Optional[Tuple[List[int], List[int], List[float]]] = None
        self._peak: Optional[np.ndarray] = None
        self._mask: Optional[bytearray] = None
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
        :meth:`build_entries` batch (bit-exact with the DFS, so a fully
        materialized index comes out byte-identical to a from-scratch
        build); never-built nodes stay lazy. The result
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
        rebuilt_entries = dict(zip(stale, fresh.build_entries(stale)))
        for node, entry in self._entries.items():
            fresh._entries[node] = rebuilt_entries.get(node, entry)
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
            cached = self._build_entry(node)
            self._entries[node] = cached
        return cached

    def get_cached(self, node: int) -> Optional[PropagationEntry]:
        """The already-materialized entry of *node*, or ``None``.

        Never triggers a build; lets externally bounded caches (the online
        serving layer) serve prebuilt entries for free while keeping
        lazily built ones under their own byte budget. Shard-backed
        entries count as materialized - they are served from the mapped
        artifact at zero build cost.
        """
        node = self._graph._check_node(node)
        cached = self._entries.get(node)
        if cached is None and self._shards is not None:
            return self._shards.get(node)
        return cached

    def build_entry(self, node: int) -> PropagationEntry:
        """Build the entry of *node* WITHOUT inserting it into this index.

        The bounded serving caches use this to materialize entries they
        manage themselves; :meth:`entry` would pin every build into the
        index's unbounded cache.
        """
        return self._build_entry(self._graph._check_node(node))

    def build_entries(self, nodes: Iterable[int]) -> List[PropagationEntry]:
        """Build the entries of *nodes* in one batch, WITHOUT inserting them.

        Equal bit for bit to ``[self.build_entry(n) for n in nodes]``
        (sources, probability bytes, Γ* flags, branch counts), in input
        order, duplicates included. The branch expansion of every target
        runs at once, one level of branch rows at a time over the
        reverse-CSR arrays, and each member's probability is summed in
        the DFS's own pre-order. Targets go through in chunks under a
        fixed row budget. A target whose expansion passes
        ``max_branches`` (or the row budget on its own) is built by the
        DFS instead, which truncates it and warns, or raises in strict
        mode, exactly as :meth:`build_entry` does.

        The delta path's multi-node rebuilds use it (:meth:`rebuilt_for`,
        :func:`~repro.core.shards.refresh_sharded_index`). One node
        costs the batch about three times the DFS, so single entries and
        the offline builds keep the DFS.
        """
        nodes = [self._graph._check_node(node) for node in nodes]
        pending = sorted(set(nodes))
        limit = min(self._max_branches, _BATCH_ROWS)
        built: Dict[int, PropagationEntry] = {}
        width = len(pending)
        while pending:
            chunk = np.array(pending[:width], dtype=np.int64)
            levels, done, counts, handed = _expand(self, chunk, limit)
            if done:
                built.update(
                    _chunk_entries(self, chunk[:done], levels, counts)
                )
            rest = [
                node for i, node in enumerate(pending[done:width], done)
                if i not in handed
            ]
            pending = rest + pending[width:]
            # Dropped targets re-run in a chunk the size of what fitted.
            width = max(1, done) if rest else 2 * width
        return [
            built[node] if node in built else self._build_entry(node)
            for node in nodes
        ]

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
            Parallel results are byte-identical to serial ones - each
            entry's DFS order is fixed by the CSR layout regardless of
            which process runs it.
        max_retries:
            Fresh-process retry rounds for chunks whose worker crashed or
            raised an unexpected error. Deterministic library errors
            (:class:`~repro.exceptions.ReproError`, e.g. a strict budget
            violation) are never retried - they propagate immediately.
        retry_backoff:
            Base of the bounded exponential backoff (seconds) slept
            before each retry round: ``retry_backoff * 2**(round-1)``,
            capped at 30s.
        strict:
            What to do with nodes that still fail after ``max_retries``:
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
        * per-node/per-chunk retries (``max_retries``, ``retry_backoff``)
          behave exactly as in :meth:`build_all`; nodes that still fail
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
                range_failed = run.run([
                    node for node in range(lo, hi)
                    if node not in self._entries
                ])
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

    def _csr_lists(self) -> Tuple[List[int], List[int], List[float], List[float]]:
        cache = self._csr
        if cache is None:
            graph = self._graph
            cache = (
                graph._in_indptr.tolist(),
                graph._in_sources.tolist(),
                graph._in_probs.tolist(),
                self._max_in().tolist(),
            )
            self._csr = cache
        return cache

    def _membership_mask(self) -> bytearray:
        mask = self._mask
        if mask is None:
            mask = bytearray(self._graph.n_nodes)
            self._mask = mask
        return mask

    def _build_entry(self, target: int) -> PropagationEntry:
        """Reverse branch expansion from *target* (Figure 3 procedure).

        Iterative DFS over the reverse-CSR arrays. The stack *is* the
        current branch; ``mask`` holds its membership bits (plus the
        target), giving O(1) cycle checks with zero per-extension
        allocation. An extension is counted against the budget before it
        is consumed, so truncation never drops the mass of an
        already-taken branch.
        """
        indptr, in_sources, in_probs, max_in = self._csr_lists()
        mask = self._membership_mask()
        theta = self._theta
        max_branches = self._max_branches
        gamma: Dict[int, float] = {}
        gamma_get = gamma.get
        branches = 0
        truncated = False

        # The active frame lives in locals; suspended frames are flat
        # (node, prob, cursor, end) quadruples on one stack. A node is
        # only pushed (and its membership bit only set) when its own
        # expansion can still clear θ - a leaf visit touches no stack.
        mask[target] = 1
        node = target
        prob = 1.0
        cursor = indptr[target]
        end = indptr[target + 1]
        stack: List = []
        push = stack.append
        pop = stack.pop
        try:
            while True:
                if cursor == end:
                    mask[node] = 0
                    if not stack:
                        break
                    end = pop()
                    cursor = pop()
                    prob = pop()
                    node = pop()
                    continue
                source = in_sources[cursor]
                edge_probability = in_probs[cursor]
                cursor += 1
                if mask[source]:
                    continue
                probability = prob * edge_probability
                if probability < theta:
                    continue
                if branches >= max_branches:
                    if self._strict:
                        raise BudgetExceededError(
                            f"propagation entry of node {target}", max_branches
                        )
                    truncated = True
                    break
                branches += 1
                gamma[source] = gamma_get(source, 0.0) + probability
                if probability * max_in[source] >= theta:
                    mask[source] = 1
                    push(node)
                    push(prob)
                    push(cursor)
                    push(end)
                    node = source
                    prob = probability
                    cursor = indptr[source]
                    end = indptr[source + 1]
        finally:
            # The mask is shared scratch: clear whatever is still set (the
            # target plus the branch live at truncation/raise time).
            mask[node] = 0
            for suspended in stack[0::4]:
                mask[suspended] = 0
            mask[target] = 0

        if truncated:
            warnings.warn(
                f"propagation entry of node {target} truncated at "
                f"{max_branches} branches (theta={theta})",
                RuntimeWarning,
                stacklevel=3,
            )
        marked = self._mark_potential(target, gamma)
        return PropagationEntry(target, gamma, marked, branches)

    def _mark_potential(self, target: int, gamma: Dict[int, float]) -> List[int]:
        """Nodes in Γ with an in-neighbour the index cannot see."""
        indptr, in_sources, _, _ = self._csr_lists()
        mask = self._membership_mask()
        mask[target] = 1
        for node in gamma:
            mask[node] = 1
        marked: List[int] = []
        for node in gamma:
            for cursor in range(indptr[node], indptr[node + 1]):
                if not mask[in_sources[cursor]]:
                    marked.append(node)
                    break
        mask[target] = 0
        for node in gamma:
            mask[node] = 0
        return marked
