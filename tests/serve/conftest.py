"""Fixtures for daemon tests: prebuilt artifacts + in-process daemons.

Each daemon is a :class:`~repro.serve.LocalDaemon`: the real
:class:`~repro.serve.server.PITServer` on a loopback socket, so these
tests exercise HTTP framing, keep-alive, admission, coalescing, and drain
exactly as production traffic does.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.core import (
    PITEngine,
    ServingEngine,
    build_precompute,
    save_precompute,
    save_sharded_index,
    save_summaries,
)
from repro.datasets import data_2k
from repro.scenarios.runner import _served_copy
from repro.serve import LocalDaemon


def build_stack(seed: int, n_nodes: int, directory):
    """Build one dataset + engine and persist its serving artifacts."""
    bundle = data_2k(seed=seed, n_nodes=n_nodes, with_corpus=False)
    engine = PITEngine.from_dataset(bundle, summarizer="rcl", seed=seed)
    engine.propagation_index.build_all(workers=1)
    engine.build_summaries()
    index_dir = directory / f"prop_{seed}"
    sums_path = directory / f"sums_{seed}.json"
    save_sharded_index(engine.propagation_index, index_dir)
    save_summaries(engine.summaries, bundle.graph, sums_path)
    return SimpleNamespace(
        seed=seed,
        bundle=bundle,
        engine=engine,
        serving=engine.serving(),
        index_dir=index_dir,
        sums_path=sums_path,
    )


@pytest.fixture(scope="package")
def stacks(tmp_path_factory):
    """Artifact stacks for the two differential seeds (built once)."""
    directory = tmp_path_factory.mktemp("serve_artifacts")
    return {
        7: build_stack(7, 140, directory),
        1234: build_stack(1234, 120, directory),
    }


@pytest.fixture(scope="package")
def stack(stacks):
    """The default artifact stack most daemon tests run against."""
    return stacks[7]


@pytest.fixture(scope="package")
def alt_sums_path(stack, tmp_path_factory):
    """Another summarization of the default stack's graph (seed 99).

    Re-clustering moves representatives, so answers over these summaries
    differ from the stack's own.
    """
    engine = PITEngine.from_dataset(stack.bundle, summarizer="rcl", seed=99)
    engine.build_summaries()
    path = tmp_path_factory.mktemp("alt_sums") / "sums2.json"
    save_summaries(engine.summaries, stack.bundle.graph, path)
    return path


@pytest.fixture(scope="package")
def precompute_path(stack, tmp_path_factory):
    """A precompute over the default stack holding exactly one answer,
    ``(user 3, "phone", k=5)``, so a hit on it proves a warm boot."""
    directory = tmp_path_factory.mktemp("precompute")
    trace = directory / "trace.jsonl"
    trace.write_text(
        json.dumps({"user": 3, "query": "phone", "k": 5}) + "\n",
        encoding="utf-8",
    )
    offline = ServingEngine.from_artifacts(
        stack.bundle.graph, stack.bundle.topic_index, stack.sums_path,
        index_dir=stack.index_dir,
    )
    path = directory / "precompute.json"
    save_precompute(
        build_precompute(offline, trace, top_queries=1, top_answers=1), path
    )
    return path


@pytest.fixture
def make_daemon(stack):
    """Factory for ready daemons over a stack's artifacts (the default
    stack unless *use_stack*); all stopped at teardown."""
    daemons = []

    def factory(config=None, registry=None, use_stack=None,
                answer_cache_bytes=None, precompute_path=None):
        served = use_stack if use_stack is not None else stack
        # POST /admin/delta rewrites the served shards in place; each
        # daemon serves a private copy so the stacks stay as built.
        paths = {
            "summaries": served.sums_path,
            "index_dir": _served_copy(served.index_dir),
        }
        if precompute_path is not None:
            paths["precompute"] = precompute_path
        daemon = LocalDaemon(
            served.bundle.graph, served.bundle.topic_index, paths, config,
            metrics=registry, answer_cache_bytes=answer_cache_bytes,
        )
        daemons.append(daemon)
        return daemon.start()

    yield factory
    for daemon in daemons:
        daemon.stop()


@pytest.fixture
def daemon(make_daemon):
    """One ready daemon with default config over the default stack."""
    return make_daemon()
