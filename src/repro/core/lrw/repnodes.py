"""Representative-node selection via diversified PageRank - Algorithm 7 (S18).

Equation 5 of the paper blends PageRank with a vertex-reinforced random walk
(DivRank-style): at iteration ``T``,

``P_{T+1}(v) = (1-λ) P*(v) + λ Σ_{(u,v)∈E} P0(u,v) N_T(v) / D_T(u) · P_T(u)``

where ``P*`` is the topic-biased restart (``1/|V_t|`` on topic nodes),
``P0`` the organic edge transition probability, ``N_T(v)`` the time-variant
visiting frequency at iteration ``T``, and
``D_T(u) = Σ_{(u,w)∈E} P0(u,w) N_T(w)`` the reinforcement normalizer.

Running only ``L`` iterations confines each node's score to its L-hop
neighbourhood, so the highest scoring ``μ·|V_t|`` nodes are central,
diverse, *and* close to the topic - the paper's representative set.

Three deliberate interpretation choices (each keeps the literal pseudocode
reading available as an ablation; DESIGN.md section 5 and the ablation
bench justify the defaults empirically):

* ``initial`` - Algorithm 7 line 9 initializes ``PR[v].previous ← 1`` for
  every node; with that, the topic-independent component (total mass ``n``)
  swamps the restart (mass 1) and the ranking degenerates to global hubs.
  The default follows Equation 5's personalized-PageRank semantics and
  starts from the restart vector.
* ``reinforcement`` - the paper approximates the vertex-reinforced
  ``N_T(v)`` with the pre-sampled walk table ``H[T][v]``; that table is
  sparse (zero for most nodes at most steps) and zeroes out rank flow
  wholesale. The default uses the *self*-reinforced form of DivRank
  (Mei et al. 2010, the paper's reference [16]): ``N_T`` is the cumulative
  rank mass itself, which is dense and produces the diversity behaviour
  vertex reinforcement is cited for. ``"walk"`` selects the literal H-table
  variant.
* ``candidates`` - restrict the final μ-cut to topic nodes (default) or
  allow any node (literal). Unrestricted winners at laptop scale are
  one-hop-downstream hubs whose *forward* influence fields miss the
  topic's near field entirely, inverting the ranking the summary is
  supposed to preserve.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..._utils import require_in_range, require_probability, stable_top_indices
from ...exceptions import ConfigurationError
from ...graph import SocialGraph
from ...walks import WalkIndex

__all__ = ["diversified_pagerank", "select_representatives",
           "INITIALIZATIONS", "REINFORCEMENTS", "CANDIDATE_POOLS"]

INITIALIZATIONS = ("restart", "uniform")
REINFORCEMENTS = ("divrank", "walk")
CANDIDATE_POOLS = ("topic", "all")


def diversified_pagerank(
    graph: SocialGraph,
    topic_nodes: Sequence[int],
    walk_index: WalkIndex,
    *,
    damping: float = 0.85,
    iterations: Optional[int] = None,
    initial: str = "restart",
    reinforcement: str = "divrank",
) -> np.ndarray:
    """The time-variant reinforced PageRank vector after ``L`` iterations.

    Parameters
    ----------
    graph:
        The social graph (provides ``P0``).
    topic_nodes:
        ``V_t`` - nodes carrying the topic; they receive the restart mass.
    walk_index:
        Built walk index supplying ``H`` (used by ``reinforcement="walk"``);
        its ``L`` bounds the iteration count.
    damping:
        ``λ`` from Equation 5.
    iterations:
        Number of reinforcement iterations; defaults to the walk index's
        ``L`` and cannot exceed it (``H`` has no later rows).
    initial / reinforcement:
        Interpretation knobs; see the module docstring.

    Returns
    -------
    Dense score vector over all nodes (not normalized - only the ranking
    matters for representative selection).
    """
    require_probability("damping", damping)
    length = walk_index.walk_length if iterations is None else int(iterations)
    require_in_range("iterations", length, 1, walk_index.walk_length)
    if initial not in INITIALIZATIONS:
        raise ConfigurationError(
            f"initial must be one of {INITIALIZATIONS}, got {initial!r}"
        )
    if reinforcement not in REINFORCEMENTS:
        raise ConfigurationError(
            f"reinforcement must be one of {REINFORCEMENTS}, got {reinforcement!r}"
        )
    nodes = sorted(set(graph._check_node(v) for v in topic_nodes))
    if not nodes:
        raise ConfigurationError("topic node set is empty")

    n = graph.n_nodes
    restart = np.zeros(n, dtype=np.float64)
    restart[nodes] = 1.0 / len(nodes)

    # P0 @ x and P0ᵀ @ x as row sums over the graph's out- and in-CSR: the
    # same products, in the same order, as scipy's csr_matvec.
    out_rows = np.repeat(np.arange(n), graph.out_degrees())
    in_rows = np.repeat(np.arange(n), graph.in_degrees())
    out_cols, out_probs = graph._out_targets, graph._out_probs
    in_cols, in_probs = graph._in_sources, graph._in_probs
    hit = walk_index.hitting_frequencies()          # H[j][v]

    rank = restart.copy() if initial == "restart" else np.ones(n, dtype=np.float64)
    cumulative = rank.copy()
    for step in range(1, length + 1):
        if reinforcement == "walk":
            frequency = hit[step]
        else:
            # Self-reinforced DivRank: visits so far ~ accumulated rank.
            frequency = cumulative + 1e-12
        # D_T(u) = Σ_w P0(u, w) · N_T(w); a node with D_T(u) = 0 has no
        # reinforcement mass to pass on.
        normalizer = np.bincount(
            out_rows, out_probs * frequency[out_cols], minlength=n
        )
        outflow = np.where(
            normalizer > 0.0,
            rank / np.where(normalizer > 0.0, normalizer, 1.0),
            0.0,
        )
        contribution = frequency * np.bincount(
            in_rows, in_probs * outflow[in_cols], minlength=n
        )
        rank = (1.0 - damping) * restart + damping * contribution
        cumulative = cumulative + rank
    return rank


def select_representatives(
    graph: SocialGraph,
    topic_nodes: Sequence[int],
    walk_index: WalkIndex,
    *,
    damping: float = 0.85,
    rep_fraction: float = 0.05,
    min_representatives: int = 1,
    initial: str = "restart",
    reinforcement: str = "divrank",
    candidates: str = "topic",
) -> np.ndarray:
    """Algorithm 7 lines 23-27: top ``μ·|V_t|`` nodes by diversified rank.

    Returns the representative node ids sorted by descending score (ties
    broken by smaller id, deterministically). ``candidates`` selects the
    pool the cut is taken from (see module docstring).
    """
    require_probability("rep_fraction", rep_fraction, inclusive_zero=False)
    require_in_range("min_representatives", min_representatives, 1)
    if candidates not in CANDIDATE_POOLS:
        raise ConfigurationError(
            f"candidates must be one of {CANDIDATE_POOLS}, got {candidates!r}"
        )
    scores = diversified_pagerank(
        graph,
        topic_nodes,
        walk_index,
        damping=damping,
        initial=initial,
        reinforcement=reinforcement,
    )
    nodes = sorted(set(int(v) for v in topic_nodes))
    cut = max(min_representatives, int(round(rep_fraction * len(nodes))))
    if candidates == "topic":
        pool = np.asarray(nodes, dtype=np.int64)
        order = np.argsort(-scores[pool], kind="stable")
        return pool[order[: min(cut, pool.size)]]
    cut = min(cut, graph.n_nodes)
    return stable_top_indices(scores, cut)
