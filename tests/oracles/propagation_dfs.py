"""Retained per-node DFS of the Γ index (parity baseline).

This is the reverse branch expansion of Figure 3 as
:class:`~repro.core.propagation.PropagationIndex` ran it before its
batched, level-synchronous builder took over every build, kept verbatim:
an explicit depth-first stack over the graph's reverse-CSR arrays (as
Python lists, which avoid numpy scalar boxing), one reusable
``bytearray`` branch-membership mask, and a per-member scan for Γ*
marking. Because a DFS holds exactly one branch (the current stack
path) at a time, cycle membership is a single bit set on descent and
cleared on backtrack.

It exists for two reasons:

* the parity tests (``tests/test_properties.py::TestBatchedRebuildParity``)
  assert that :meth:`~repro.core.propagation.PropagationIndex.build_entries`
  returns the same entries bit for bit - sources, probability bytes, Γ*
  flags, branch counts - and the same truncation warnings and strict
  errors;
* ``benchmarks/bench_propagation_index.py`` times the batch against it
  and gates on the same parity.

Do not optimize this module - its value is staying the fixed reference
point.
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Optional, Tuple

from repro.core.propagation import PropagationEntry, PropagationIndex
from repro.exceptions import BudgetExceededError

__all__ = ["DFSPropagationOracle"]


class DFSPropagationOracle:
    """Per-node DFS entries over the graph and parameters of *index*."""

    def __init__(self, index: PropagationIndex):
        self._index = index
        self._graph = index.graph
        self._theta = index.theta
        self._max_branches = index.max_branches
        self._strict = index.strict
        self._csr: Optional[Tuple[List[int], List[int], List[float], List[float]]] = None
        self._mask: Optional[bytearray] = None

    def build_entry(self, node: int) -> PropagationEntry:
        """The entry of *node*, built by the DFS."""
        return self._build_entry(self._graph._check_node(node))

    def _csr_lists(self) -> Tuple[List[int], List[int], List[float], List[float]]:
        cache = self._csr
        if cache is None:
            graph = self._graph
            cache = (
                graph._in_indptr.tolist(),
                graph._in_sources.tolist(),
                graph._in_probs.tolist(),
                self._index._max_in().tolist(),
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
