"""Fault-injection tests for the offline pipeline.

Proves the robustness contract end-to-end: a sharded Γ build killed
mid-way and resumed produces a shard directory byte-identical to an
uninterrupted build; crashed workers are retried on fresh processes;
persistent failures degrade gracefully or raise
:class:`~repro.exceptions.BuildFailedError` per the ``strict`` flag; and
a sealed NPZ artifact (the walk index) survives a crash mid-write and
rejects corruption (single flipped byte, truncation) at load time with
:class:`~repro.exceptions.ArtifactCorruptedError`.
"""

import hashlib
import warnings

import pytest

from repro import _faults
from repro.core import (
    PropagationIndex,
    load_sharded_index,
    load_walk_index,
    save_sharded_index,
    save_walk_index,
)
from repro.exceptions import (
    ArtifactCorruptedError,
    BuildFailedError,
    ConfigurationError,
)
from repro.graph import preferential_attachment_graph
from repro.walks import WalkIndex

THETA = 0.01
SHARD_NODES = 10


@pytest.fixture(autouse=True)
def _clean_faults():
    """Never leak an injected fault into another test."""
    yield
    _faults.clear_faults()


@pytest.fixture(scope="module")
def graph():
    return preferential_attachment_graph(70, 3, seed=5)


@pytest.fixture(scope="module")
def big_graph():
    """Large enough for a serial build_all to take several ranges."""
    return preferential_attachment_graph(600, 3, seed=5)


def _dir_digest(directory):
    sha = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        sha.update(path.name.encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


@pytest.fixture(scope="module")
def reference_digest(graph, tmp_path_factory):
    """The shard-directory digest of an uninterrupted serial build."""
    directory = tmp_path_factory.mktemp("reference") / "prop"
    PropagationIndex(graph, THETA).build_sharded(
        directory, shard_nodes=SHARD_NODES, workers=1
    )
    return _dir_digest(directory)


class FailOnNode:
    """Fail every worker chunk holding *node* on the listed attempts."""

    def __init__(self, node, attempts):
        self.node = node
        self.attempts = tuple(attempts)

    def __call__(self, *, nodes, attempt, **_):
        if self.node in nodes and attempt in self.attempts:
            raise RuntimeError(f"injected failure on node {self.node}")


class TestInjectionRegistry:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown injection point"):
            _faults.set_fault("nope.nope", lambda **_: None)

    def test_fault_context_restores_previous_hook(self):
        calls = []
        _faults.set_fault("propagation.build_entry", lambda **c: calls.append("outer"))
        with _faults.fault("propagation.build_entry", lambda **c: calls.append("inner")):
            _faults.inject("propagation.build_entry", node=0, attempt=0)
        _faults.inject("propagation.build_entry", node=0, attempt=0)
        assert calls == ["inner", "outer"]

    def test_transform_keeps_bytes_without_hook(self):
        assert _faults.transform("artifact.load_bytes", b"abc", path=None) == b"abc"


class TestResumeAfterCrash:
    def test_interrupted_build_resumes_byte_identical(
        self, graph, reference_digest, tmp_path
    ):
        """The acceptance-criteria scenario, serial flavour."""
        directory = tmp_path / "prop"
        # Kill the build at node 40; shards [0, 40) are already published.
        with _faults.fault(
            "propagation.build_entry", _faults.InterruptOnEntry(40)
        ):
            with pytest.raises(KeyboardInterrupt):
                PropagationIndex(graph, THETA).build_sharded(
                    directory, shard_nodes=SHARD_NODES, workers=1
                )
        assert len(list(directory.glob("shard-*.bin"))) == 4

        resumed = PropagationIndex(graph, THETA).build_sharded(
            directory, shard_nodes=SHARD_NODES, workers=1
        )
        assert resumed.last_build_stats.n_resumed == 40
        assert resumed.last_build_stats.n_built == graph.n_nodes - 40
        assert _dir_digest(directory) == reference_digest

    def test_parallel_failures_then_resume_byte_identical(
        self, graph, reference_digest, tmp_path
    ):
        """Chunks that keep failing are stored empty; resume rebuilds them."""
        from repro.obs.registry import MetricsRegistry

        directory = tmp_path / "prop"
        registry = MetricsRegistry()
        with _faults.fault(
            "propagation.worker_chunk", FailOnNode(35, attempts=(0, 1))
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                degraded = PropagationIndex(
                    graph, THETA, metrics=registry
                ).build_sharded(
                    directory,
                    shard_nodes=SHARD_NODES,
                    workers=2,
                    max_retries=1,
                    retry_backoff=0.0,
                    strict=False,
                )
        failed = degraded.last_build_stats.failed_nodes
        assert 35 in failed  # the failing chunk never built
        # One retry round for the failing chunk; the last failure is not
        # retried.
        assert registry.counter_value("propagation.chunk_retries") == 1
        # The finished manifest lists the empty slots it serves.
        assert load_sharded_index(directory, graph).shards.failed_nodes == (
            failed
        )
        resumed = PropagationIndex(graph, THETA).build_sharded(
            directory, shard_nodes=SHARD_NODES, workers=1
        )
        assert resumed.last_build_stats.failed_nodes == ()
        # Only the shard holding the empty slots was rebuilt.
        assert resumed.last_build_stats.n_resumed == (
            graph.n_nodes - SHARD_NODES
        )
        assert load_sharded_index(directory, graph).shards.failed_nodes == ()
        assert _dir_digest(directory) == reference_digest

    def test_strict_failure_then_resume_byte_identical(
        self, graph, reference_digest, tmp_path
    ):
        """A chunk that keeps failing stops a strict build; resume finishes."""
        from repro.obs.registry import MetricsRegistry

        directory = tmp_path / "prop"
        registry = MetricsRegistry()
        with _faults.fault(
            "propagation.worker_chunk", FailOnNode(35, attempts=(0, 1))
        ):
            with pytest.raises(BuildFailedError) as excinfo:
                PropagationIndex(graph, THETA, metrics=registry).build_sharded(
                    directory,
                    shard_nodes=SHARD_NODES,
                    workers=2,
                    max_retries=1,
                    retry_backoff=0.0,
                    strict=True,
                )
        assert 35 in excinfo.value.failed_nodes
        assert registry.counter_value("propagation.chunk_retries") == 1
        resumed = PropagationIndex(graph, THETA).build_sharded(
            directory, shard_nodes=SHARD_NODES, workers=1
        )
        assert resumed.last_build_stats.n_resumed == 30
        assert resumed.last_build_stats.failed_nodes == ()
        assert _dir_digest(directory) == reference_digest

    def test_interrupted_keep_going_build_retries_failed_shard(
        self, graph, reference_digest, tmp_path
    ):
        """Empty slots written before a crash are rebuilt on resume."""
        directory = tmp_path / "prop"

        def fail_7_then_interrupt_at_40(*, nodes, **_):
            if 7 in nodes:
                raise RuntimeError("injected failure on node 7")
            if 40 in nodes:
                raise KeyboardInterrupt("injected interrupt at entry 40")

        with _faults.fault(
            "propagation.build_entry", fail_7_then_interrupt_at_40
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                with pytest.raises(KeyboardInterrupt):
                    PropagationIndex(graph, THETA).build_sharded(
                        directory,
                        shard_nodes=SHARD_NODES,
                        workers=1,
                        max_retries=1,
                        retry_backoff=0.0,
                        strict=False,
                    )
        # The crash came before the manifest was finished: only the
        # shard's own record says node 7 is an empty slot.
        resumed = PropagationIndex(graph, THETA).build_sharded(
            directory, shard_nodes=SHARD_NODES, workers=1
        )
        stats = resumed.last_build_stats
        assert stats.failed_nodes == ()
        assert stats.n_resumed == 30  # shards [10, 40); [0, 10) rebuilt
        assert stats.n_built == graph.n_nodes - 30
        assert _dir_digest(directory) == reference_digest

    def test_final_checkpoint_matches_output(
        self, graph, reference_digest, tmp_path
    ):
        directory = tmp_path / "prop"
        PropagationIndex(graph, THETA).build_sharded(
            directory, shard_nodes=SHARD_NODES, workers=1
        )
        # The manifest is the checkpoint: a rerun over the finished
        # directory verifies and keeps every shard, rewriting nothing.
        again = PropagationIndex(graph, THETA).build_sharded(
            directory, shard_nodes=SHARD_NODES, workers=1
        )
        assert again.last_build_stats.n_resumed == graph.n_nodes
        assert again.last_build_stats.n_built == 0
        assert _dir_digest(directory) == reference_digest

    def test_mismatched_checkpoint_rejected(self, graph, tmp_path):
        directory = tmp_path / "prop"
        with _faults.fault(
            "propagation.build_entry", _faults.InterruptOnEntry(25)
        ):
            with pytest.raises(KeyboardInterrupt):
                PropagationIndex(graph, THETA).build_sharded(
                    directory, shard_nodes=SHARD_NODES, workers=1
                )
        # Shards cut at another width would silently misalign the ranges.
        with pytest.raises(ConfigurationError, match="built with"):
            PropagationIndex(graph, THETA).build_sharded(
                directory, shard_nodes=2 * SHARD_NODES, workers=1
            )

    def test_resume_false_ignores_checkpoint(
        self, graph, reference_digest, tmp_path
    ):
        directory = tmp_path / "prop"
        with _faults.fault(
            "propagation.build_entry", _faults.InterruptOnEntry(25)
        ):
            with pytest.raises(KeyboardInterrupt):
                PropagationIndex(graph, THETA).build_sharded(
                    directory, shard_nodes=SHARD_NODES, workers=1
                )
        index = PropagationIndex(graph, THETA).build_sharded(
            directory, shard_nodes=SHARD_NODES, workers=1, resume=False
        )
        assert index.last_build_stats.n_resumed == 0
        assert index.last_build_stats.n_built == graph.n_nodes
        assert _dir_digest(directory) == reference_digest


class TestMetricsSurviveCrashes:
    """Cumulative observability counters across crash + resume builds."""

    def test_crash_and_resume_report_cumulative_counters(
        self, graph, tmp_path
    ):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        directory = tmp_path / "prop"
        with _faults.fault(
            "propagation.build_entry", _faults.InterruptOnEntry(40)
        ):
            with pytest.raises(KeyboardInterrupt):
                PropagationIndex(graph, THETA, metrics=registry).build_sharded(
                    directory, shard_nodes=SHARD_NODES, workers=1
                )
        # The kill never reached stats construction, but every entry
        # finished before it is already on the registry.
        assert registry.counter_value("propagation.entries_built") == 40
        assert registry.counter_value("propagation.shards_written") == 4

        resumed = PropagationIndex(
            graph, THETA, metrics=registry
        ).build_sharded(directory, shard_nodes=SHARD_NODES, workers=1)
        snapshot = registry.snapshot()
        # Cumulative across both builds: every node built exactly once.
        assert snapshot.counter("propagation.entries_built") == graph.n_nodes
        assert snapshot.counter("propagation.shards_resumed") == 4
        assert snapshot.counter("propagation.shards_written") == 7
        # The per-call stats remain scoped to the resumed build alone.
        assert resumed.last_build_stats.n_built == graph.n_nodes - 40
        assert resumed.last_build_stats.n_resumed == 40
        # Both build attempts closed their build_sharded span.
        phase = snapshot.histogram("phase.propagation.build_sharded.seconds")
        assert phase.count == 2

    def test_retries_are_counted(self, graph):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        with _faults.fault(
            "propagation.build_entry", _faults.FailOnEntry(7, attempts=(0, 1))
        ):
            index = PropagationIndex(graph, THETA, metrics=registry).build_all(
                workers=1, max_retries=2, retry_backoff=0.0
            )
        assert index.last_build_stats.failed_nodes == ()
        assert registry.counter_value("propagation.entry_retries") == 2
        assert registry.counter_value("propagation.entries_built") == (
            graph.n_nodes
        )
        assert registry.counter_value("propagation.entries_failed") == 0


class TestWorkerCrashRetry:
    def test_hard_killed_worker_is_retried_on_fresh_pool(self, graph):
        """os._exit in a worker breaks the pool; a fresh pool finishes."""
        with _faults.fault(
            "propagation.worker_chunk", _faults.ExitOnChunk(2, attempts=(0,))
        ):
            index = PropagationIndex(graph, THETA).build_all(
                workers=2, max_retries=2, retry_backoff=0.0
            )
        stats = index.last_build_stats
        assert stats.failed_nodes == ()
        assert index.n_cached == graph.n_nodes

    def test_crash_retried_build_matches_clean_build(
        self, graph, tmp_path, reference_digest
    ):
        with _faults.fault(
            "propagation.worker_chunk", _faults.ExitOnChunk(0, attempts=(0,))
        ):
            index = PropagationIndex(graph, THETA).build_all(
                workers=2, max_retries=2, retry_backoff=0.0
            )
        output = tmp_path / "prop"
        save_sharded_index(index, output, shard_nodes=SHARD_NODES)
        assert _dir_digest(output) == reference_digest

    def test_serial_transient_failure_is_retried(self, graph):
        with _faults.fault(
            "propagation.build_entry", _faults.FailOnEntry(7, attempts=(0,))
        ):
            index = PropagationIndex(graph, THETA).build_all(
                workers=1, max_retries=1, retry_backoff=0.0
            )
        assert index.last_build_stats.failed_nodes == ()
        assert index.n_cached == graph.n_nodes

    @staticmethod
    def _failed_range(failed, graph):
        """The one build range holding node 7, short of the whole graph."""
        assert 7 in failed
        assert list(failed) == list(range(failed[0], failed[-1] + 1))
        assert len(failed) < graph.n_nodes
        return len(failed)

    def test_persistent_failure_degrades_gracefully(self, big_graph):
        hook = _faults.FailOnEntry(7, attempts=(0, 1, 2, 3))
        with _faults.fault("propagation.build_entry", hook):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                index = PropagationIndex(big_graph, THETA).build_all(
                    workers=1, max_retries=2, retry_backoff=0.0, strict=False
                )
        stats = index.last_build_stats
        n_failed = self._failed_range(stats.failed_nodes, big_graph)
        assert stats.n_failed == n_failed
        assert stats.n_built == big_graph.n_nodes - n_failed
        assert any("failed to build" in str(w.message) for w in caught)

    def test_persistent_failure_raises_in_strict_mode(self, big_graph):
        hook = _faults.FailOnEntry(7, attempts=(0, 1, 2, 3))
        with _faults.fault("propagation.build_entry", hook):
            with pytest.raises(BuildFailedError) as excinfo:
                PropagationIndex(big_graph, THETA).build_all(
                    workers=1,
                    max_retries=2,
                    retry_backoff=0.0,
                    strict=True,
                )
        error = excinfo.value
        n_failed = self._failed_range(error.failed_nodes, big_graph)
        assert error.n_built == big_graph.n_nodes - n_failed
        # The partial result survives, attached to the error.
        assert error.partial_index is not None
        assert error.partial_index.n_cached == big_graph.n_nodes - n_failed

    def test_deterministic_library_errors_are_not_retried(self):
        from repro.exceptions import BudgetExceededError
        from repro.graph import SocialGraph

        edges = [(u, v, 0.9) for u in range(10) for v in range(10) if u != v]
        dense = SocialGraph(10, edges)
        index = PropagationIndex(dense, 0.0001, max_branches=10, strict=True)
        with pytest.raises(BudgetExceededError):
            index.build_all(workers=1, max_retries=5, retry_backoff=0.0)


class TestKillDuringWrite:
    def test_destination_survives_injected_crash(self, graph, tmp_path):
        path = tmp_path / "walks.npz"
        save_walk_index(WalkIndex.built(graph, 3, 1, seed=2), path)
        before = path.read_bytes()
        denser = WalkIndex.built(graph, 3, 2, seed=2)
        with _faults.fault("artifact.pre_replace", _faults.FailOnReplace()):
            with pytest.raises(OSError, match="injected"):
                save_walk_index(denser, path)
        assert path.read_bytes() == before  # old artifact intact
        assert list(tmp_path.iterdir()) == [path]  # temp file cleaned up
        # The surviving artifact still loads and verifies.
        assert load_walk_index(path, graph).samples_per_node == 1
        # A later, uninterrupted save publishes the new version.
        save_walk_index(denser, path)
        assert load_walk_index(path, graph).samples_per_node == 2


class TestBitFlipOnLoad:
    @pytest.fixture
    def artifact(self, graph, tmp_path):
        path = tmp_path / "walks.npz"
        save_walk_index(WalkIndex.built(graph, 3, 2, seed=2), path)
        return path

    @pytest.mark.parametrize("relative_offset", [0.1, 0.5, 0.9])
    def test_single_flipped_byte_rejected(self, graph, artifact, relative_offset):
        """Acceptance criterion: one flipped byte -> typed rejection."""
        size = len(artifact.read_bytes())
        hook = _faults.FlipByte(int(size * relative_offset))
        with _faults.fault("artifact.load_bytes", hook):
            with pytest.raises(ArtifactCorruptedError) as excinfo:
                load_walk_index(artifact, graph)
        assert str(artifact) in str(excinfo.value)

    def test_flipped_byte_on_disk_rejected(self, graph, artifact):
        raw = bytearray(artifact.read_bytes())
        raw[len(raw) // 3] ^= 0x01  # single bit, mid-file
        artifact.write_bytes(bytes(raw))
        with pytest.raises(ArtifactCorruptedError):
            load_walk_index(artifact, graph)

    def test_truncated_artifact_rejected(self, graph, artifact):
        hook = _faults.TruncateBytes(len(artifact.read_bytes()) // 2)
        with _faults.fault("artifact.load_bytes", hook):
            with pytest.raises(ArtifactCorruptedError, match="unreadable NPZ"):
                load_walk_index(artifact, graph)

    def test_clean_artifact_still_loads(self, graph, artifact):
        loaded = load_walk_index(artifact, graph)
        assert loaded.samples_per_node == 2
        assert loaded.hitting_frequencies().shape == (4, graph.n_nodes)
