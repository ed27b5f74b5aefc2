"""Absorbing-walk helpers (substrate S8).

Section 4.3 of the paper migrates topic-node influence to representative
nodes by treating the first representative node encountered on a sampled
walk as an *absorbing state* of an absorbing Markov chain: once entered, the
walk (conceptually) never leaves it, so only the first hit matters. These
helpers extract first-hit events and distances from recorded walks.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Set, Tuple

import numpy as np

from .index import WalkRecord

__all__ = ["first_absorption", "absorption_distances", "closeness_from_distance"]


def first_absorption(
    record: WalkRecord, absorbers: Set[int]
) -> Optional[Tuple[int, int]]:
    """First absorber on the walk and its hop distance from the start.

    Parameters
    ----------
    record:
        A walk record whose ``path[0]`` is the start node.
    absorbers:
        The absorbing node set (e.g. a topic's representative nodes).

    Returns
    -------
    ``(node, distance)`` for the first path position (excluding the start)
    occupied by an absorber, or ``None`` when the walk never hits one. The
    path stores first-visit order, so the position *is* the number of hops
    at which the walk first reached that node.
    """
    path = record.path
    for position in range(1, path.size):
        node = int(path[position])
        if node in absorbers:
            return node, position
    return None


def absorption_distances(
    records: Iterable[WalkRecord], absorbers: Set[int]
) -> dict:
    """Minimum first-hit distance per absorber over many walks.

    Returns a mapping ``absorber -> smallest hop distance`` across all walks
    in *records* that were absorbed. Walks that never hit an absorber
    contribute nothing.
    """
    best: dict = {}
    for record in records:
        hit = first_absorption(record, absorbers)
        if hit is None:
            continue
        node, distance = hit
        if node not in best or distance < best[node]:
            best[node] = distance
    return best


def closeness_from_distance(distance: int) -> float:
    """The paper's closeness kernel ``1 / (D + 1)`` (§4.3)."""
    if distance < 0:
        raise ValueError(f"distance must be >= 0, got {distance}")
    return 1.0 / (distance + 1.0)
