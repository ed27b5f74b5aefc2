"""Walk index construction - Algorithm 6, ``INVERTTVHIT_INDEX`` (S7).

For every node ``w`` the index stores ``R`` sampled L-length random walks
(``I[R][n]``), a *time-variant visiting frequency* table ``H[L][n]`` whose
entry ``H[j][v]`` is the maximum per-walk visiting frequency of node ``v``
observed at walk step ``j`` (in units of ``1/R``), and a sampled reverse
reachability index ``I_L[v]`` listing the walk start nodes whose walks
reached ``v`` (the Monte-Carlo stand-in for "nodes that can reach v within L
hops" used by Algorithms 1 and 4).

All ``n * R`` walks are sampled together, one step at a time: each step is
one global binary search over the graph's cumulative transition mass, one
first-visit check against the padded path matrix and one ``np.maximum.at``
into ``H``. Sampling contract: walk ``k`` of node ``v`` owns row
``v * R + k`` of ``U = rng.random(n * R * L).reshape(n * R, L)`` and takes
step ``j`` with ``U[v * R + k, j - 1]``. A walk that stops at a dead end
leaves the rest of its row unused; unweighted walks choose among the
out-edges with equal masses from the same uniforms.

The paper bounds the sample size ``R`` via the Hoeffding inequality;
:func:`hoeffding_sample_size` reproduces that bound so callers can pick
``R`` from a target accuracy instead of guessing.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .._utils import SeedLike, coerce_rng, require_in_range
from ..exceptions import ConfigurationError, IndexNotBuiltError
from ..graph import SocialGraph

__all__ = ["WalkIndex", "WalkRecord", "hoeffding_sample_size"]


class WalkRecord:
    """Result of one sampled walk.

    Attributes
    ----------
    path:
        ``int64`` array of nodes in first-visit order; ``path[0]`` is the
        start node (this mirrors Algorithm 6's ``I[i][w]``, with the start
        prepended so positions double as hop distances along the walk).
    visit_counts:
        Mapping-free representation of Algorithm 6's ``visited[]``: the
        number of times each node in *path* was visited during the walk,
        aligned with *path*.
    steps_taken:
        Number of transitions actually performed (``<= L`` when the walk hit
        a dead end).
    """

    __slots__ = ("path", "visit_counts", "steps_taken")

    def __init__(self, path: np.ndarray, visit_counts: np.ndarray, steps_taken: int):
        self.path = path
        self.visit_counts = visit_counts
        self.steps_taken = steps_taken

    def __len__(self) -> int:
        return int(self.path.size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WalkRecord(path={self.path.tolist()}, steps={self.steps_taken})"


def hoeffding_sample_size(epsilon: float, delta: float) -> int:
    """Sample size ``R`` so a mean of [0,1] variables errs < *epsilon* w.p. >= 1-*delta*.

    Standard Hoeffding bound: ``R >= ln(2/delta) / (2 * epsilon^2)``. The
    paper invokes this to size its walk samples (§4.1).
    """
    if not 0.0 < epsilon < 1.0:
        raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon!r}")
    if not 0.0 < delta < 1.0:
        raise ConfigurationError(f"delta must be in (0, 1), got {delta!r}")
    return int(math.ceil(math.log(2.0 / delta) / (2.0 * epsilon * epsilon)))


def _sample_walks(
    graph: SocialGraph,
    length: int,
    samples: int,
    weighted: bool,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Algorithm 6 lines 1-19 for all ``n * R`` walks at once.

    Returns ``(paths, counts, steps, hit)``: the ``(n * R, L + 1)``
    first-visit path matrix padded with ``-1``, the visit counts aligned
    with it (``0`` in the padding), the transitions each walk took, and
    the ``(L + 1, n)`` table ``H``.
    """
    n = graph.n_nodes
    n_walks = n * samples
    indptr = graph._out_indptr
    targets = graph._out_targets
    masses = graph._out_probs if weighted else np.ones(targets.size)
    cum = np.cumsum(masses)
    # below[i]: the mass of every CSR slot before slot i.
    below = np.concatenate(([0.0], cum))
    uniforms = rng.random(n_walks * length).reshape(n_walks, length)

    paths = np.full((n_walks, length + 1), -1, dtype=np.int64)
    paths[:, 0] = np.repeat(np.arange(n, dtype=np.int64), samples)
    counts = np.zeros((n_walks, length + 1), dtype=np.int64)
    counts[:, 0] = 1
    steps = np.zeros(n_walks, dtype=np.int64)
    sizes = np.ones(n_walks, dtype=np.int64)
    hit = np.zeros((length + 1, n), dtype=np.float64)
    # visited[] after c visits, summed one 1/R at a time as line 17 does.
    frequency = np.zeros(length + 2, dtype=np.float64)
    inv_r = 1.0 / samples
    for c in range(1, length + 2):
        frequency[c] = frequency[c - 1] + inv_r

    walks = np.arange(n_walks, dtype=np.int64)
    current = paths[:, 0]
    for j in range(1, length + 1):
        lo = indptr[current]
        degree = indptr[current + 1] - lo
        moving = degree > 0
        if not moving.all():
            walks, lo, degree = walks[moving], lo[moving], degree[moving]
            if walks.size == 0:
                break
        base = below[lo]
        draw = base + uniforms[walks, j - 1] * (below[lo + degree] - base)
        slot = np.minimum(
            np.searchsorted(cum, draw, side="right") - lo, degree - 1
        )
        current = targets[lo + slot]
        steps[walks] = j
        match = paths[walks] == current[:, None]
        seen = match.any(axis=1)
        position = np.where(seen, match.argmax(axis=1), sizes[walks])
        paths[walks, position] = current
        counts[walks, position] += 1
        sizes[walks] += ~seen
        np.maximum.at(hit[j], current, frequency[counts[walks, position]])
    width = int(sizes.max()) if n_walks else 1
    return (
        np.ascontiguousarray(paths[:, :width]),
        np.ascontiguousarray(counts[:, :width]),
        steps,
        hit,
    )


def _reverse_csr(
    paths: np.ndarray, samples: int, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``I_L`` as CSR: sorted walk start nodes per visited node."""
    body = paths[:, 1:]
    walk, column = np.nonzero(body >= 0)
    pairs = np.unique(body[walk, column] * n + walk // samples)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(pairs // n, minlength=n), out=indptr[1:])
    return indptr, pairs % n


class WalkIndex:
    """Materialized random-walk samples for every node of a graph.

    Parameters
    ----------
    graph:
        The social graph to index.
    walk_length:
        ``L`` - the maximum number of transitions per walk.
    samples_per_node:
        ``R`` - walks sampled from every node.
    weighted:
        When true (default), the next hop is chosen with probability
        proportional to the edge transition probability; when false, with
        equal mass per out-edge (DESIGN.md note 1).
    seed:
        Seed or generator; a fixed seed makes the whole index deterministic.
        :meth:`build` draws exactly ``n * R * L`` doubles from it.

    Call :meth:`build` (or construct via :meth:`built`) before querying.
    """

    def __init__(
        self,
        graph: SocialGraph,
        walk_length: int,
        samples_per_node: int,
        *,
        weighted: bool = True,
        seed: SeedLike = None,
    ):
        require_in_range("walk_length", walk_length, 1)
        require_in_range("samples_per_node", samples_per_node, 1)
        self._graph = graph
        self._length = int(walk_length)
        self._samples = int(samples_per_node)
        self._weighted = bool(weighted)
        self._rng = coerce_rng(seed)
        # Row v * R + k of the path/count matrices is walk k of node v.
        self._paths: Optional[np.ndarray] = None
        self._counts: Optional[np.ndarray] = None
        self._steps: Optional[np.ndarray] = None
        self._hit_frequency: Optional[np.ndarray] = None
        self._reverse_indptr: Optional[np.ndarray] = None
        self._reverse_sources: Optional[np.ndarray] = None
        self._records: Dict[int, List[WalkRecord]] = {}

    # ------------------------------------------------------------------
    @classmethod
    def built(
        cls,
        graph: SocialGraph,
        walk_length: int,
        samples_per_node: int,
        *,
        weighted: bool = True,
        seed: SeedLike = None,
    ) -> "WalkIndex":
        """Construct and immediately :meth:`build` an index."""
        index = cls(
            graph,
            walk_length,
            samples_per_node,
            weighted=weighted,
            seed=seed,
        )
        index.build()
        return index

    @property
    def graph(self) -> SocialGraph:
        """The indexed graph."""
        return self._graph

    @property
    def walk_length(self) -> int:
        """``L`` - maximum transitions per walk."""
        return self._length

    @property
    def samples_per_node(self) -> int:
        """``R`` - walks sampled per node."""
        return self._samples

    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` has completed."""
        return self._paths is not None

    def _require_built(self) -> None:
        if self._paths is None:
            raise IndexNotBuiltError("WalkIndex.build() has not been called")

    # ------------------------------------------------------------------
    def build(self) -> "WalkIndex":
        """Run Algorithm 6: sample walks and fill I, H and I_L.

        Idempotent: calling build twice leaves the first result in place.
        """
        if self._paths is not None:
            return self
        self._adopt(*_sample_walks(
            self._graph, self._length, self._samples, self._weighted, self._rng
        ))
        return self

    def _adopt(
        self,
        paths: np.ndarray,
        counts: np.ndarray,
        steps: np.ndarray,
        hit: np.ndarray,
    ) -> None:
        """Install a sampled (or loaded) walk set and derive ``I_L``."""
        for array in (paths, counts, steps, hit):
            array.setflags(write=False)
        self._reverse_indptr, self._reverse_sources = _reverse_csr(
            paths, self._samples, self._graph.n_nodes
        )
        self._counts, self._steps, self._hit_frequency = counts, steps, hit
        self._paths = paths

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def walks_from(self, node: int) -> List[WalkRecord]:
        """The ``R`` walk records sampled from *node* (``I[.][node]``).

        Built on first call per node and cached; the records' arrays are
        read-only views into the index.
        """
        self._require_built()
        node = self._graph._check_node(node)
        records = self._records.get(node)
        if records is None:
            rows = range(node * self._samples, (node + 1) * self._samples)
            records = []
            for row in rows:
                size = int(np.count_nonzero(self._counts[row]))
                records.append(WalkRecord(
                    self._paths[row, :size],
                    self._counts[row, :size],
                    int(self._steps[row]),
                ))
            self._records[node] = records
        return records

    def padded_paths(self) -> np.ndarray:
        """Every walk's first-visit path as one padded int matrix.

        Shape ``(n_nodes * R, width)`` int64, padded with ``-1``, where
        *width* is the longest path: row ``v * R + k`` is walk ``k`` of
        node ``v`` (column 0 the start node), so a batch of source nodes
        maps to row blocks with pure arithmetic - no per-record Python
        loop. The array is read-only shared state.
        """
        self._require_built()
        return self._paths

    def padded_visit_counts(self) -> np.ndarray:
        """Visit counts aligned with :meth:`padded_paths` (``0`` in the padding)."""
        self._require_built()
        return self._counts

    def hitting_frequency(self, step: int, node: int) -> float:
        """``H[step][node]`` - max per-walk visit frequency at walk step *step*.

        *step* is 1-based, matching the paper's Iteration-1 .. Iteration-L.
        """
        self._require_built()
        require_in_range("step", step, 1, self._length)
        return float(self._hit_frequency[step][self._graph._check_node(node)])

    def hitting_frequencies(self) -> np.ndarray:
        """The full ``H`` table, shape ``(L+1, n)``; row 0 is all zeros."""
        self._require_built()
        return self._hit_frequency

    def reverse_reachable(self, node: int) -> np.ndarray:
        """``I_L[node]`` - sampled set of start nodes whose walks hit *node*.

        Sorted ``int64`` array; does not include *node* itself unless one of
        its own walks looped back to it (it cannot: the start is recorded as
        already visited).
        """
        self._require_built()
        node = self._graph._check_node(node)
        lo, hi = self._reverse_indptr[node], self._reverse_indptr[node + 1]
        return self._reverse_sources[lo:hi].copy()

    def reverse_reachable_set(self, node: int) -> Set[int]:
        """``I_L[node]`` as a set."""
        return set(self.reverse_reachable(node).tolist())

    def memory_bytes(self) -> int:
        """Resident size of the index arrays, in bytes."""
        self._require_built()
        return int(sum(array.nbytes for array in (
            self._paths, self._counts, self._steps, self._hit_frequency,
            self._reverse_indptr, self._reverse_sources,
        )))
