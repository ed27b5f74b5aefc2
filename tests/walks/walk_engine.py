"""One-walk-at-a-time random-walk engine: test support for the S6 walk semantics.

A walk of length ``L`` starts at a node and repeatedly moves to an
out-neighbor chosen with probability proportional to the edge's transition
probability (uniform choice is available for ablations). Following
Algorithm 6 of the paper, a walk *may* revisit nodes, but the recorded path
is deduplicated: each node is appended only on its first visit. A walk
terminates early at a dead end (node with no out-edges).

:class:`WalkEngine` pre-computes per-node cumulative probability tables so a
step is a single binary search. It samples one walk at a time; the
Algorithm 6 index (:mod:`repro.walks.index`) samples all of its walks as
arrays instead, and ``test_index_sampler`` checks the two agree.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro._utils import SeedLike, coerce_rng, require_in_range
from repro.graph import SocialGraph
from repro.walks import WalkRecord

__all__ = ["WalkEngine"]


class WalkEngine:
    """Samples transition-probability-weighted random walks on a graph.

    Parameters
    ----------
    graph:
        The social graph to walk on.
    weighted:
        When true (default), the next hop is chosen with probability
        proportional to the edge transition probability; when false, chosen
        uniformly among out-neighbors (the literal reading of Algorithm 6's
        "randomly selected neighbor" - kept as an ablation knob; DESIGN.md
        note 1 explains why weighted is the default).
    seed:
        Seed or generator for the walk stream.
    """

    def __init__(self, graph: SocialGraph, *, weighted: bool = True, seed: SeedLike = None):
        self._graph = graph
        self._weighted = bool(weighted)
        self._rng = coerce_rng(seed)
        # Per-node cumulative transition mass, aligned with the CSR layout.
        probs = graph._out_probs
        self._cumprobs = np.cumsum(probs)
        self._indptr = graph._out_indptr
        self._targets = graph._out_targets

    @property
    def graph(self) -> SocialGraph:
        """The underlying graph."""
        return self._graph

    @property
    def weighted(self) -> bool:
        """Whether steps are transition-probability weighted."""
        return self._weighted

    # ------------------------------------------------------------------
    def step(self, node: int) -> Optional[int]:
        """One transition out of *node*; ``None`` at a dead end."""
        lo = int(self._indptr[node])
        hi = int(self._indptr[node + 1])
        if lo == hi:
            return None
        if not self._weighted:
            return int(self._targets[lo + self._rng.integers(hi - lo)])
        base = self._cumprobs[lo - 1] if lo > 0 else 0.0
        total = self._cumprobs[hi - 1] - base
        draw = base + self._rng.random() * total
        j = int(np.searchsorted(self._cumprobs[lo:hi], draw, side="right"))
        j = min(j, hi - lo - 1)
        return int(self._targets[lo + j])

    def walk(self, start: int, length: int) -> WalkRecord:
        """Sample one walk of up to *length* transitions from *start*.

        The returned record's ``path`` is the deduplicated first-visit order
        (Algorithm 6 semantics); revisits only increase ``visit_counts``.
        """
        require_in_range("length", length, 0)
        start = self._graph._check_node(start)
        path: List[int] = [start]
        position = {start: 0}
        counts: List[int] = [1]
        current = start
        steps = 0
        for _ in range(length):
            nxt = self.step(current)
            if nxt is None:
                break
            steps += 1
            seen_at = position.get(nxt)
            if seen_at is None:
                position[nxt] = len(path)
                path.append(nxt)
                counts.append(1)
            else:
                counts[seen_at] += 1
            current = nxt
        return WalkRecord(
            np.asarray(path, dtype=np.int64),
            np.asarray(counts, dtype=np.int64),
            steps,
        )

    def walks(self, start: int, count: int, length: int) -> List[WalkRecord]:
        """Sample *count* independent walks from *start*."""
        require_in_range("count", count, 1)
        return [self.walk(start, length) for _ in range(count)]
