"""Per-walk reference for the Algorithm 6 walk index (test oracle).

The walk-at-a-time loop ``WalkIndex.build`` used before it sampled all
walks as arrays, changed only to read walk ``k`` of node ``v``'s draws
from row ``v * R + k`` of ``U = rng.random(n * R * L).reshape(n * R, L)``
- the sampling contract of :mod:`repro.walks.index`.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from repro.graph import SocialGraph
from repro.walks import WalkRecord


def scalar_walk_index(
    graph: SocialGraph,
    length: int,
    samples: int,
    *,
    weighted: bool,
    rng: np.random.Generator,
) -> Tuple[List[List[WalkRecord]], np.ndarray, List[Set[int]]]:
    """``(walks per node, H, I_L sets)`` sampled one walk at a time."""
    n = graph.n_nodes
    indptr = graph._out_indptr
    targets = graph._out_targets
    masses = graph._out_probs if weighted else np.ones(targets.size)
    cumprobs = np.cumsum(masses)
    uniforms = rng.random(n * samples * length).reshape(n * samples, length)
    inv_r = 1.0 / samples

    def step(node: int, draw_u: float):
        lo = int(indptr[node])
        hi = int(indptr[node + 1])
        if lo == hi:
            return None
        base = cumprobs[lo - 1] if lo > 0 else 0.0
        total = cumprobs[hi - 1] - base
        draw = base + draw_u * total
        j = int(np.searchsorted(cumprobs[lo:hi], draw, side="right"))
        j = min(j, hi - lo - 1)
        return int(targets[lo + j])

    walks: List[List[WalkRecord]] = [[] for _ in range(n)]
    hit = np.zeros((length + 1, n), dtype=np.float64)
    reverse: List[Set[int]] = [set() for _ in range(n)]
    for start in range(n):
        for k in range(samples):
            row = uniforms[start * samples + k]
            path: List[int] = [start]
            position: Dict[int, int] = {start: 0}
            counts: List[int] = [1]
            visited: Dict[int, float] = {start: inv_r}
            current = start
            steps = 0
            for j in range(1, length + 1):
                nxt = step(current, row[j - 1])
                if nxt is None:
                    break
                steps += 1
                if nxt not in visited:
                    visited[nxt] = inv_r
                    position[nxt] = len(path)
                    path.append(nxt)
                    counts.append(1)
                    reverse[nxt].add(start)
                else:
                    visited[nxt] += inv_r
                    counts[position[nxt]] += 1
                if hit[j][nxt] < visited[nxt]:
                    hit[j][nxt] = visited[nxt]
                current = nxt
            walks[start].append(WalkRecord(
                np.asarray(path, dtype=np.int64),
                np.asarray(counts, dtype=np.int64),
                steps,
            ))
    return walks, hit, reverse


def padded(walks: List[List[WalkRecord]]) -> np.ndarray:
    """The records' paths as a ``-1``-padded matrix, one row per walk."""
    records = [r for node_walks in walks for r in node_walks]
    width = max(r.path.size for r in records)
    matrix = np.full((len(records), width), -1, dtype=np.int64)
    for k, record in enumerate(records):
        matrix[k, : record.path.size] = record.path
    return matrix
