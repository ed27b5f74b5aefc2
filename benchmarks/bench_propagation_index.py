#!/usr/bin/env python
"""Propagation-index construction benchmark (Figures 13-16 offline cost).

Times three ways of materializing the full §5.1 index on a seeded
synthetic graph and writes ``BENCH_propagation_index.json``:

* ``legacy`` - the first pure-Python branch expansion (BFS deque,
  per-push ``frozenset`` branch copies, per-pop ``in_edges()``), embedded
  below with its own build loop as the fixed reference point;
* ``serial`` - the current ``build_all`` (``workers=1``), which builds
  node ranges with the batched ``PropagationIndex.build_entries``;
* ``parallel`` - the same build sharded over worker processes.

The emitted JSON carries entries/sec, peak entry bytes, and the
serial/parallel speedups over the legacy baseline, plus a parity check
(max |Γ| deviation between legacy and current on sampled nodes).

It also times ``build_entries`` against the per-node DFS test oracle
(``tests/oracles/propagation_dfs.py``) over growing target sets (the
``batched`` crossover table), and checks the batch against the oracle
bit for bit over every node of the graph. ``gates`` records both
parity checks; the script exits 1 unless they hold, smoke included.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_propagation_index.py
    PYTHONPATH=src python benchmarks/bench_propagation_index.py --smoke

``--smoke`` shrinks the graph for CI: it only proves the harness runs and
produces valid JSON, not a meaningful speedup.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from collections import deque
from pathlib import Path
from time import perf_counter
from typing import Dict, Set

from repro.core import PropagationIndex
from repro.core.propagation import PropagationEntry
from repro.exceptions import BudgetExceededError
from repro.graph import SocialGraph, preferential_attachment_graph

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the oracles
from tests.oracles.propagation_dfs import DFSPropagationOracle  # noqa: E402


class LegacyPropagationIndex(PropagationIndex):
    """The first entry builder, kept verbatim as the benchmark baseline.

    BFS over a deque whose items carry a ``frozenset`` of branch members
    (copied on every push) and call ``graph.in_edges()`` on every pop.
    Budget note: the legacy loop counted a branch *after* popping it, so
    the extension that trips the budget was popped and dropped; the
    current implementation counts before consuming - the resulting Γ is
    identical, only the ``branches`` diagnostic differs by one on
    truncated entries.
    """

    def build_legacy(self) -> None:
        """Materialize every node with the legacy builder."""
        for node in range(self._graph.n_nodes):
            self._entries[node] = self._legacy_entry(node)

    def _legacy_entry(self, target: int) -> PropagationEntry:
        theta = self._theta
        graph = self._graph
        gamma: Dict[int, float] = {}
        branches = 0
        queue: deque = deque()
        root_set = frozenset((target,))
        sources, probs = graph.in_edges(target)
        for source, probability in zip(sources, probs):
            probability = float(probability)
            if probability >= theta:
                queue.append((int(source), probability, root_set))
        truncated = False
        while queue:
            node, probability, branch = queue.popleft()
            branches += 1
            if branches > self._max_branches:
                if self._strict:
                    raise BudgetExceededError(
                        f"propagation entry of node {target}", self._max_branches
                    )
                truncated = True
                break
            gamma[node] = gamma.get(node, 0.0) + probability
            extended = branch | {node}
            sources, probs = graph.in_edges(node)
            for source, edge_probability in zip(sources, probs):
                source = int(source)
                if source in extended or source == target:
                    continue
                extended_probability = probability * float(edge_probability)
                if extended_probability >= theta:
                    queue.append((source, extended_probability, extended))
        if truncated:
            warnings.warn(
                f"propagation entry of node {target} truncated at "
                f"{self._max_branches} branches (theta={theta})",
                RuntimeWarning,
                stacklevel=3,
            )
        marked = self._legacy_mark_potential(target, gamma)
        return PropagationEntry(target, gamma, marked, branches)

    def _legacy_mark_potential(
        self, target: int, gamma: Dict[int, float]
    ) -> Set[int]:
        inside = set(gamma)
        inside.add(target)
        marked: Set[int] = set()
        for node in gamma:
            for source in self._graph.in_neighbors(node):
                if int(source) not in inside:
                    marked.add(node)
                    break
        return marked


def _timed_build(index: PropagationIndex, workers: int) -> float:
    start = perf_counter()
    if isinstance(index, LegacyPropagationIndex):
        index.build_legacy()
    else:
        index.build_all(workers=workers)
    return perf_counter() - start


def _report(index: PropagationIndex, seconds: float) -> Dict[str, float]:
    n = index.graph.n_nodes
    entries = [index.entry(node) for node in range(n)]
    return {
        "seconds": seconds,
        "entries": n,
        "entries_per_second": n / seconds if seconds > 0 else 0.0,
        "total_branches": sum(e.branches for e in entries),
        "total_members": sum(e.size for e in entries),
        "peak_entry_bytes": max(e.memory_bytes() for e in entries),
        "total_bytes": index.memory_bytes(),
    }


def _parity(legacy: PropagationIndex, current: PropagationIndex, step: int) -> Dict:
    """Max |Γ| deviation between the two builds on every *step*-th node."""
    max_diff = 0.0
    checked = 0
    marked_equal = True
    for node in range(0, legacy.graph.n_nodes, step):
        a, b = legacy.entry(node), current.entry(node)
        keys_a, keys_b = set(a.gamma), set(b.gamma)
        if keys_a != keys_b:
            return {"checked": checked, "max_gamma_diff": float("inf"),
                    "marked_equal": False}
        for key in keys_a:
            max_diff = max(max_diff, abs(a.gamma[key] - b.gamma[key]))
        marked_equal = marked_equal and a.marked == b.marked
        checked += 1
    return {"checked": checked, "max_gamma_diff": max_diff,
            "marked_equal": marked_equal}


def _same_entry(a: PropagationEntry, b: PropagationEntry) -> bool:
    return (
        a.sources.tobytes() == b.sources.tobytes()
        and a.probabilities.tobytes() == b.probabilities.tobytes()
        and a.marked_flags.tobytes() == b.marked_flags.tobytes()
        and a.branches == b.branches
    )


def _median_ms(build, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        build()
        times.append(perf_counter() - start)
    return 1000.0 * sorted(times)[len(times) // 2]


def _batched(serial: PropagationIndex) -> Dict:
    """``build_entries`` vs the DFS oracle: a crossover table over evenly
    spread target sets, and bit-exact parity over every node."""
    graph = serial.graph
    n = graph.n_nodes
    index = PropagationIndex(
        graph, serial.theta, max_branches=serial.max_branches
    )
    oracle = DFSPropagationOracle(index)
    oracle.build_entry(0)  # both paths warm: CSR lists and max-in built
    crossover = []
    for k in (1, 8, 32, 128, 512):
        if k > n:
            break
        nodes = list(range(0, n, n // k))[:k]
        batch_ms = _median_ms(lambda: index.build_entries(nodes))
        dfs_ms = _median_ms(lambda: [oracle.build_entry(v) for v in nodes])
        crossover.append({
            "targets": k,
            "batch_ms": batch_ms,
            "dfs_ms": dfs_ms,
            "dfs_over_batch": dfs_ms / batch_ms,
        })
    start = perf_counter()
    batch = index.build_entries(range(n))
    batch_s = perf_counter() - start
    start = perf_counter()
    want = [oracle.build_entry(node) for node in range(n)]
    oracle_s = perf_counter() - start
    mismatches = sum(
        1 for entry, dfs in zip(batch, want) if not _same_entry(entry, dfs)
    )
    return {
        "crossover": crossover,
        "all_nodes_seconds": batch_s,
        "oracle_all_nodes_seconds": oracle_s,
        "entries_checked": n,
        "mismatches": mismatches,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=5000)
    parser.add_argument("--out-degree", type=int, default=6)
    parser.add_argument("--theta", type=float, default=0.002)
    parser.add_argument("--max-branches", type=int, default=200_000)
    parser.add_argument("--workers", type=int, default=0,
                        help="parallel stage worker count (0 = all CPUs)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI profile (300 nodes)")
    parser.add_argument("--output", default=None,
                        help="JSON destination (default: "
                             "benchmarks/BENCH_propagation_index.json)")
    args = parser.parse_args(argv)

    if args.smoke:
        args.nodes = min(args.nodes, 300)
    workers = args.workers or (
        getattr(os, "process_cpu_count", os.cpu_count)() or 1
    )
    if workers < 2:
        workers = 2  # still exercise the process-pool path on 1-CPU boxes

    print(f"graph: {args.nodes} nodes, out-degree {args.out_degree}, "
          f"seed {args.seed}", flush=True)
    graph = preferential_attachment_graph(
        args.nodes, args.out_degree, seed=args.seed
    )
    common = dict(theta=args.theta, max_branches=args.max_branches)

    legacy = LegacyPropagationIndex(graph, **common)
    legacy_s = _timed_build(legacy, 1)
    print(f"legacy serial : {legacy_s:8.3f}s", flush=True)

    serial = PropagationIndex(graph, **common)
    serial_s = _timed_build(serial, 1)
    print(f"new serial    : {serial_s:8.3f}s "
          f"({legacy_s / serial_s:.2f}x vs legacy)", flush=True)

    parallel = PropagationIndex(graph, **common)
    parallel_s = _timed_build(parallel, workers)
    print(f"new parallel  : {parallel_s:8.3f}s ({workers} workers, "
          f"{legacy_s / parallel_s:.2f}x vs legacy)", flush=True)

    parity = _parity(legacy, serial, step=max(1, args.nodes // 200))
    batched = _batched(serial)
    for row in batched["crossover"]:
        print(f"batched {row['targets']:4d} targets: "
              f"{row['batch_ms']:8.2f} ms vs DFS {row['dfs_ms']:8.2f} ms",
              flush=True)
    print(f"batched all {batched['entries_checked']} entries: "
          f"{batched['mismatches']} mismatches vs the DFS oracle", flush=True)
    gates = {
        "parity_legacy_vs_serial": (
            parity["max_gamma_diff"] <= 1e-9 and parity["marked_equal"]
        ),
        "batched_bit_exact": batched["mismatches"] == 0,
    }
    payload = {
        "benchmark": "propagation_index_construction",
        "config": {
            "n_nodes": graph.n_nodes,
            "n_edges": graph.n_edges,
            "out_degree": args.out_degree,
            "theta": args.theta,
            "max_branches": args.max_branches,
            "seed": args.seed,
            "workers": workers,
            "cpu_count": os.cpu_count(),
            "smoke": args.smoke,
        },
        "legacy_serial": _report(legacy, legacy_s),
        "serial": _report(serial, serial_s),
        "parallel": _report(parallel, parallel_s),
        "speedup": {
            "serial_vs_legacy": legacy_s / serial_s,
            "parallel_vs_legacy": legacy_s / parallel_s,
            "parallel_vs_serial": serial_s / parallel_s,
        },
        "parity_legacy_vs_serial": parity,
        "batched": batched,
        "build_stats_parallel": parallel.last_build_stats.as_dict(),
        "gates": gates,
        "ok": all(gates.values()),
    }
    output = Path(
        args.output
        if args.output is not None
        else Path(__file__).parent / "BENCH_propagation_index.json"
    )
    output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")

    if not payload["ok"]:
        failed = [name for name, ok in gates.items() if not ok]
        print(f"GATE FAILURE: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
