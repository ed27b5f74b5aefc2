"""Frozen reference implementations the tests and benchmarks compare against.

* :mod:`.propagation_dfs` - the per-node DFS of the Γ index (§5.1);
* :mod:`.scalar_search` - the scalar online search (Algorithms 10-11);
* :mod:`.scalar_summarize` - the scalar RCL-A / LRW-A summarizers.

None of them is on a production path; do not optimize them.
"""
