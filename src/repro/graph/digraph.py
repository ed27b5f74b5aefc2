"""Directed social-network graph with per-edge transition probabilities.

This is substrate S1 from DESIGN.md. The paper models a social network as
``G = (V, E, T, Λ)`` where ``Λ`` maps each directed edge ``(u, v)`` to the
probability that influence propagates from ``u`` to ``v``. Topics ``T`` live
in a separate structure (:mod:`repro.topics`); this module is purely the
weighted digraph.

:class:`SocialGraph` is immutable and stored in compressed sparse row (CSR)
form in both directions, so forward propagation (out-edges) and the reverse
breadth-first searches used by the propagation index (in-edges) are both
cache-friendly ``O(degree)`` slices over numpy arrays.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import EdgeError, EmptyGraphError, NodeNotFoundError

__all__ = ["SocialGraph", "Edge"]

#: An edge as exposed to callers: (source, target, transition probability).
Edge = Tuple[int, int, float]


class SocialGraph:
    """An immutable directed graph whose edges carry transition probabilities.

    Parameters
    ----------
    n_nodes:
        Number of nodes; node ids are the contiguous range ``0 .. n_nodes-1``.
    edges:
        Iterable of ``(source, target, probability)`` triples. Probabilities
        must lie in ``(0, 1]``; self-loops and duplicate edges are rejected.

    Notes
    -----
    Use :class:`repro.graph.builder.GraphBuilder` for incremental
    construction; this constructor validates and freezes the edge set.
    """

    __slots__ = (
        "_n_nodes",
        "_out_indptr",
        "_out_targets",
        "_out_probs",
        "_in_indptr",
        "_in_sources",
        "_in_probs",
        "_edge_lookup",
    )

    def __init__(self, n_nodes: int, edges: Iterable[Edge]):
        if n_nodes < 0:
            raise EdgeError(f"n_nodes must be non-negative, got {n_nodes}")
        self._n_nodes = int(n_nodes)

        triples = list(edges)
        sources = np.fromiter((e[0] for e in triples), dtype=np.int64, count=len(triples))
        targets = np.fromiter((e[1] for e in triples), dtype=np.int64, count=len(triples))
        probs = np.fromiter((e[2] for e in triples), dtype=np.float64, count=len(triples))
        self._validate_edges(sources, targets, probs)

        self._out_indptr, self._out_targets, self._out_probs = self._to_csr(
            sources, targets, probs, self._n_nodes
        )
        self._in_indptr, self._in_sources, self._in_probs = self._to_csr(
            targets, sources, probs, self._n_nodes
        )
        # Hash lookup for (u, v) -> probability; built lazily on first use.
        self._edge_lookup: Optional[Dict[Tuple[int, int], float]] = None

    @classmethod
    def from_arrays(
        cls,
        n_nodes: int,
        sources: np.ndarray,
        targets: np.ndarray,
        probs: np.ndarray,
    ) -> "SocialGraph":
        """Construct a graph directly from parallel edge arrays.

        Same validation and CSR layout as the triple-iterable constructor,
        without the per-edge Python loop — the path the delta engine uses
        to materialize an edited edge set in one vectorized pass.
        """
        if n_nodes < 0:
            raise EdgeError(f"n_nodes must be non-negative, got {n_nodes}")
        graph = cls.__new__(cls)
        graph._n_nodes = int(n_nodes)
        sources = np.ascontiguousarray(sources, dtype=np.int64)
        targets = np.ascontiguousarray(targets, dtype=np.int64)
        probs = np.ascontiguousarray(probs, dtype=np.float64)
        if not sources.size == targets.size == probs.size:
            raise EdgeError(
                "sources, targets, and probs must have equal lengths"
            )
        graph._validate_edges(sources, targets, probs)
        graph._out_indptr, graph._out_targets, graph._out_probs = cls._to_csr(
            sources, targets, probs, graph._n_nodes
        )
        graph._in_indptr, graph._in_sources, graph._in_probs = cls._to_csr(
            targets, sources, probs, graph._n_nodes
        )
        graph._edge_lookup = None
        return graph

    @classmethod
    def _from_csr(
        cls,
        n_nodes: int,
        out_csr: Tuple[np.ndarray, np.ndarray, np.ndarray],
        in_csr: Tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> "SocialGraph":
        """Adopt prebuilt CSR faces without validation or sorting.

        Private fast path for the delta engine, which splices edits into
        an already-validated CSR pair. Both faces must describe the same
        edge set and already be in canonical (row, column) order.
        """
        graph = cls.__new__(cls)
        graph._n_nodes = int(n_nodes)
        graph._out_indptr, graph._out_targets, graph._out_probs = out_csr
        graph._in_indptr, graph._in_sources, graph._in_probs = in_csr
        graph._edge_lookup = None
        return graph

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The edge set as parallel ``(sources, targets, probs)`` arrays.

        Rows come out in CSR order (sorted by source, then target). The
        sources array is materialized from the indptr; the other two are
        copies, so callers may edit them freely.
        """
        sources = np.repeat(
            np.arange(self._n_nodes, dtype=np.int64),
            np.diff(self._out_indptr),
        )
        return sources, self._out_targets.copy(), self._out_probs.copy()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _validate_edges(
        self, sources: np.ndarray, targets: np.ndarray, probs: np.ndarray
    ) -> None:
        n = self._n_nodes
        if sources.size == 0:
            return
        if sources.min(initial=0) < 0 or targets.min(initial=0) < 0:
            raise EdgeError("edge endpoints must be non-negative node ids")
        if sources.max(initial=-1) >= n or targets.max(initial=-1) >= n:
            bad = max(sources.max(initial=-1), targets.max(initial=-1))
            raise NodeNotFoundError(int(bad), n)
        if np.any(sources == targets):
            idx = int(np.argmax(sources == targets))
            raise EdgeError(f"self-loop on node {int(sources[idx])} is not allowed")
        if not np.all((probs > 0.0) & (probs <= 1.0)):  # NaN fails too
            raise EdgeError("transition probabilities must lie in (0, 1]")
        # Duplicate detection on the (source, target) pair.
        keys = sources * n + targets
        if np.unique(keys).size != keys.size:
            raise EdgeError("duplicate edges are not allowed")

    @staticmethod
    def _to_csr(
        rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sort COO triples into CSR arrays (indptr, indices, values)."""
        order = np.lexsort((cols, rows))
        rows = rows[order]
        cols = cols[order]
        vals = vals[order]
        # bincount is a single vectorized pass; np.add.at's unbuffered
        # scatter is far slower and this runs twice per construction.
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return indptr, np.ascontiguousarray(cols), np.ascontiguousarray(vals)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes in the graph."""
        return self._n_nodes

    @property
    def n_edges(self) -> int:
        """Number of directed edges in the graph."""
        return int(self._out_targets.size)

    @property
    def nodes(self) -> range:
        """The node-id range ``0 .. n_nodes-1``."""
        return range(self._n_nodes)

    def __len__(self) -> int:
        return self._n_nodes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SocialGraph(n_nodes={self._n_nodes}, n_edges={self.n_edges})"

    def _check_node(self, node: int) -> int:
        node = int(node)
        if not 0 <= node < self._n_nodes:
            raise NodeNotFoundError(node, self._n_nodes)
        return node

    def validate_node(self, node: int) -> int:
        """Return *node* as an ``int``, checking it is a valid node id.

        Raises
        ------
        NodeNotFoundError
            If *node* is outside ``0 .. n_nodes-1``.
        """
        return self._check_node(node)

    def validate_nodes(self, nodes: Iterable[int]) -> np.ndarray:
        """Validate a batch of node ids in one vectorized range check.

        Returns the ids as an ``int64`` array in input order (duplicates
        preserved); raises :class:`~repro.exceptions.NodeNotFoundError`
        naming the first offending id.
        """
        arr = np.asarray(
            nodes if isinstance(nodes, np.ndarray) else list(nodes),
            dtype=np.int64,
        )
        if arr.ndim != 1:
            arr = arr.reshape(-1)
        if arr.size:
            out_of_range = (arr < 0) | (arr >= self._n_nodes)
            if out_of_range.any():
                bad = int(arr[int(np.argmax(out_of_range))])
                raise NodeNotFoundError(bad, self._n_nodes)
        return arr

    # ------------------------------------------------------------------
    # Adjacency access
    # ------------------------------------------------------------------
    def out_neighbors(self, node: int) -> np.ndarray:
        """Targets of out-edges of *node* (read-only view, sorted)."""
        node = self._check_node(node)
        return self._out_targets[self._out_indptr[node] : self._out_indptr[node + 1]]

    def out_edges(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(targets, probabilities)`` arrays for the out-edges of *node*."""
        node = self._check_node(node)
        lo, hi = self._out_indptr[node], self._out_indptr[node + 1]
        return self._out_targets[lo:hi], self._out_probs[lo:hi]

    def in_neighbors(self, node: int) -> np.ndarray:
        """Sources of in-edges of *node* (read-only view, sorted)."""
        node = self._check_node(node)
        return self._in_sources[self._in_indptr[node] : self._in_indptr[node + 1]]

    def in_edges(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(sources, probabilities)`` arrays for the in-edges of *node*."""
        node = self._check_node(node)
        lo, hi = self._in_indptr[node], self._in_indptr[node + 1]
        return self._in_sources[lo:hi], self._in_probs[lo:hi]

    def out_degree(self, node: int) -> int:
        """Number of out-edges of *node*."""
        node = self._check_node(node)
        return int(self._out_indptr[node + 1] - self._out_indptr[node])

    def in_degree(self, node: int) -> int:
        """Number of in-edges of *node*."""
        node = self._check_node(node)
        return int(self._in_indptr[node + 1] - self._in_indptr[node])

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every node as an ``int64`` array."""
        return np.diff(self._out_indptr)

    def in_degrees(self) -> np.ndarray:
        """In-degree of every node as an ``int64`` array."""
        return np.diff(self._in_indptr)

    def total_degrees(self) -> np.ndarray:
        """Sum of in- and out-degree per node (used for degree sampling)."""
        return self.out_degrees() + self.in_degrees()

    def has_edge(self, source: int, target: int) -> bool:
        """Whether the directed edge ``source -> target`` exists."""
        try:
            self.edge_probability(source, target)
        except EdgeError:
            return False
        return True

    def edge_probability(self, source: int, target: int) -> float:
        """Transition probability of ``source -> target``.

        Raises
        ------
        EdgeError
            If the edge does not exist.
        """
        source = self._check_node(source)
        target = self._check_node(target)
        if self._edge_lookup is None:
            self._edge_lookup = {
                (int(s), int(t)): float(p) for s, t, p in self.iter_edges()
            }
        try:
            return self._edge_lookup[(source, target)]
        except KeyError:
            raise EdgeError(f"no edge {source} -> {target}") from None

    def iter_edges(self) -> Iterator[Edge]:
        """Yield every edge as ``(source, target, probability)``."""
        for node in range(self._n_nodes):
            lo, hi = self._out_indptr[node], self._out_indptr[node + 1]
            for j in range(lo, hi):
                yield node, int(self._out_targets[j]), float(self._out_probs[j])

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def transition_matrix(self):
        """The graph as a ``scipy.sparse.csr_matrix`` ``P`` with ``P[u, v] = Λ(u, v)``.

        Used by the BaseMatrix baseline and by spectral checks in tests.
        """
        from scipy.sparse import csr_matrix

        indptr = self._out_indptr.copy()
        return csr_matrix(
            (self._out_probs.copy(), self._out_targets.copy(), indptr),
            shape=(self._n_nodes, self._n_nodes),
        )

    def reversed(self) -> "SocialGraph":
        """A new graph with every edge direction flipped (same probabilities)."""
        return SocialGraph(
            self._n_nodes,
            ((t, s, p) for s, t, p in self.iter_edges()),
        )

    def subgraph(self, nodes: Sequence[int]) -> Tuple["SocialGraph", np.ndarray]:
        """Induced subgraph on *nodes*.

        Returns
        -------
        (graph, mapping):
            *graph* has nodes relabelled ``0 .. len(nodes)-1``; *mapping* is
            an array whose ``i``-th entry is the original id of new node ``i``.
        """
        mapping = np.asarray(sorted({self._check_node(v) for v in nodes}), dtype=np.int64)
        inverse = {int(old): new for new, old in enumerate(mapping)}
        edges: List[Edge] = []
        for old in mapping:
            targets, probs = self.out_edges(int(old))
            for t, p in zip(targets, probs):
                if int(t) in inverse:
                    edges.append((inverse[int(old)], inverse[int(t)], float(p)))
        return SocialGraph(mapping.size, edges), mapping

    def memory_bytes(self) -> int:
        """Approximate resident size of the CSR arrays, in bytes."""
        arrays = (
            self._out_indptr,
            self._out_targets,
            self._out_probs,
            self._in_indptr,
            self._in_sources,
            self._in_probs,
        )
        return int(sum(a.nbytes for a in arrays))

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def average_degree(self) -> float:
        """Mean out-degree; raises on the empty graph."""
        if self._n_nodes == 0:
            raise EmptyGraphError("average_degree of an empty graph is undefined")
        return self.n_edges / self._n_nodes

    def degree_histogram(self) -> Dict[int, int]:
        """Mapping ``out_degree -> node count``."""
        values, counts = np.unique(self.out_degrees(), return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}
