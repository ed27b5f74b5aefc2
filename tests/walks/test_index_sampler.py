"""The array sampler of the walk index against its per-walk reference.

``WalkIndex.build`` samples all ``n * R`` walks together; the per-walk
loop in :mod:`.scalar_walk_index` reads the same uniforms row by row. The
two must agree on every walk, on ``H``, on ``I_L`` and on the padded path
matrix, bit for bit, and leave the generator in the same state.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import SocialGraph
from repro.walks import WalkIndex

from .scalar_walk_index import padded, scalar_walk_index
from .walk_engine import WalkEngine

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def walk_graphs(draw):
    """Random digraphs of 1-12 nodes; ``sinks=False`` gives every node an out-edge."""
    n = draw(st.integers(min_value=1, max_value=12))
    sinks = draw(st.booleans())
    pairs = set(draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=3 * n,
    )))
    if not sinks:
        pairs |= {(v, (v + 1) % n) for v in range(n)}
    pairs = sorted((u, v) for u, v in pairs if u != v)
    probs = draw(st.lists(
        st.floats(min_value=0.01, max_value=1.0),
        min_size=len(pairs), max_size=len(pairs),
    ))
    return SocialGraph(n, [(u, v, p) for (u, v), p in zip(pairs, probs)])


class TestAgainstScalarReference:
    @SETTINGS
    @given(walk_graphs(), st.integers(1, 5), st.integers(1, 5),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_identical_to_per_walk_loop(self, graph, length, samples,
                                        weighted, seed):
        rng = np.random.default_rng(seed)
        index = WalkIndex.built(
            graph, length, samples, weighted=weighted, seed=rng
        )
        reference = np.random.default_rng(seed)
        walks, hit, reverse = scalar_walk_index(
            graph, length, samples, weighted=weighted, rng=reference
        )
        for node in range(graph.n_nodes):
            got = index.walks_from(node)
            assert len(got) == samples
            for a, b in zip(got, walks[node]):
                assert a.path.tolist() == b.path.tolist()
                assert a.visit_counts.tolist() == b.visit_counts.tolist()
                assert a.steps_taken == b.steps_taken
            assert index.reverse_reachable_set(node) == reverse[node]
            assert index.reverse_reachable(node).tolist() == sorted(reverse[node])
        assert np.array_equal(index.hitting_frequencies(), hit)
        assert np.array_equal(index.padded_paths(), padded(walks))
        # Both drew exactly n * R * L doubles.
        assert rng.bit_generator.state == reference.bit_generator.state

    @SETTINGS
    @given(st.integers(2, 12), st.integers(1, 5), st.integers(1, 5),
           st.integers(0, 2**32 - 1))
    def test_weighted_without_sinks_keeps_the_engine_stream(
        self, n, length, samples, seed
    ):
        # With no dead end every walk uses its whole row, so the index is
        # the one WalkEngine.step draws one uniform at a time.
        rng = np.random.default_rng(seed)
        graph = SocialGraph(n, [
            (u, v, float(rng.uniform(0.01, 1.0)))
            for u in range(n) for v in range(n)
            if u != v and (v == (u + 1) % n or rng.random() < 0.3)
        ])
        index = WalkIndex.built(graph, length, samples, seed=seed)
        engine = WalkEngine(graph, seed=seed)
        for node in range(n):
            for record in index.walks_from(node):
                assert record.path.tolist() == engine.walk(node, length).path.tolist()

    def test_visit_mass_is_summed_one_sample_at_a_time(self):
        # On a 2-cycle an 11-step walk visits its start six times: H holds
        # 1/R added six times, which for R = 3 differs from 6 * (1/R).
        graph = SocialGraph(2, [(0, 1, 0.5), (1, 0, 0.5)])
        index = WalkIndex.built(graph, 11, 3, seed=1)
        _, hit, _ = scalar_walk_index(
            graph, 11, 3, weighted=True, rng=np.random.default_rng(1)
        )
        assert np.array_equal(index.hitting_frequencies(), hit)
        assert index.hitting_frequency(10, 0) == sum([1 / 3] * 6) != 6 * (1 / 3)


class TestRecordCache:
    def test_walks_from_is_cached(self, triangle_graph):
        index = WalkIndex.built(triangle_graph, 4, 3, seed=1)
        assert index.walks_from(1) is index.walks_from(1)

    def test_arrays_are_read_only(self, triangle_graph):
        index = WalkIndex.built(triangle_graph, 4, 3, seed=1)
        assert not index.padded_paths().flags.writeable
        assert not index.walks_from(0)[0].path.flags.writeable


def test_lrw_summary_build_does_not_import_scipy():
    script = (
        "import sys\n"
        "from repro.core import PITEngine\n"
        "from repro.datasets import data_2k\n"
        "bundle = data_2k(seed=3, n_nodes=120, with_corpus=False)\n"
        "engine = PITEngine.from_dataset(bundle, summarizer='lrw', seed=3)\n"
        "engine.build_summaries(workers=1)\n"
        "assert engine.n_summaries > 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
