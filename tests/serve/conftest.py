"""Fixtures for daemon tests: prebuilt artifacts + an in-process harness.

The harness runs the real :class:`~repro.serve.server.PITServer` event
loop in a background thread and talks to it over real sockets with
``http.client`` - the same bytes a load balancer or the replay generator
would send - so these tests exercise HTTP framing, keep-alive, admission,
coalescing, and drain exactly as production traffic does.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
from types import SimpleNamespace

import pytest

from repro.core import (
    PITEngine,
    ServingEngine,
    save_sharded_index,
    save_summaries,
)
from repro.datasets import data_2k
from repro.obs import MetricsRegistry
from repro.scenarios.runner import _served_copy
from repro.serve import PITServer, ServeConfig


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


def make_loader(stack, registry, *, answer_cache_bytes=None,
                precompute_path=None):
    """The same loader shape the CLI builds: paths + overrides -> engine."""
    # POST /admin/delta rewrites the served shards in place; each loader
    # serves a private copy so the package-scoped stacks stay as built.
    base = {
        "summaries": str(stack.sums_path),
        "index_dir": str(_served_copy(stack.index_dir)),
    }
    if precompute_path is not None:
        base["precompute"] = str(precompute_path)

    def loader(overrides):
        paths = dict(base)
        paths.update(overrides)
        return ServingEngine.from_artifacts(
            stack.bundle.graph,
            stack.bundle.topic_index,
            paths["summaries"],
            index_dir=paths["index_dir"],
            answer_cache_bytes=answer_cache_bytes,
            precompute_path=paths.get("precompute"),
            metrics=registry,
        )

    return loader


class DaemonHarness:
    """A PITServer on a real socket, driven from a background thread."""

    def __init__(self, stack, config=None, registry=None,
                 answer_cache_bytes=None, precompute_path=None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.server = PITServer(
            make_loader(
                stack, self.registry,
                answer_cache_bytes=answer_cache_bytes,
                precompute_path=precompute_path,
            ),
            config or ServeConfig(port=0),
            metrics=self.registry,
        )
        self._ready = threading.Event()
        self.exit_code = None
        self._thread = threading.Thread(target=self._main, daemon=True)

    def _main(self):
        self.exit_code = asyncio.run(
            self.server.run(ready_callback=self._ready.set)
        )

    def start(self, timeout: float = 120.0) -> "DaemonHarness":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("daemon did not become ready in time")
        return self

    def stop(self, exit_code: int = 0, timeout: float = 30.0):
        if self._thread.is_alive():
            self.server.request_shutdown(exit_code)
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise RuntimeError("daemon did not drain in time")
        return self.exit_code

    # ------------------------------------------------------------------
    def request(self, method, path, body=None, *, raw_body=None, timeout=30):
        """One HTTP exchange; returns ``(status, parsed_body, headers)``."""
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.server.port, timeout=timeout
        )
        try:
            payload = raw_body
            if payload is None and body is not None:
                payload = json.dumps(body)
            conn.request(
                method, path, body=payload,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            data = response.read()
            status = response.status
            headers = dict(response.getheaders())
        finally:
            conn.close()
        try:
            parsed = json.loads(data)
        except (ValueError, UnicodeDecodeError):
            parsed = data
        return status, parsed, headers

    def search(self, user, query, k=5, **fields):
        body = {"user": user, "query": query, "k": k, **fields}
        return self.request("POST", "/search", body)


@pytest.fixture
def make_daemon(stack):
    """Factory for daemons over the default stack; all stopped at teardown."""
    daemons = []

    def factory(config=None, registry=None, use_stack=None,
                answer_cache_bytes=None, precompute_path=None):
        daemon = DaemonHarness(
            use_stack if use_stack is not None else stack,
            config=config,
            registry=registry,
            answer_cache_bytes=answer_cache_bytes,
            precompute_path=precompute_path,
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
