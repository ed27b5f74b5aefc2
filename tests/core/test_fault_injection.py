"""Fault-injection tests for the offline pipeline.

Proves the robustness contract end-to-end: a build killed mid-way and
resumed from its checkpoint produces an ``.npz`` byte-identical to an
uninterrupted build; crashed workers are retried on fresh processes;
persistent failures degrade gracefully or raise
:class:`~repro.exceptions.BuildFailedError` per the ``strict`` flag; and
corrupted artifacts (single flipped byte, truncation) are rejected at
load time with :class:`~repro.exceptions.ArtifactCorruptedError`.
"""

import warnings

import pytest

from repro import _faults
from repro.core import (
    PropagationIndex,
    load_propagation_index,
    save_propagation_index,
)
from repro.exceptions import (
    ArtifactCorruptedError,
    BuildFailedError,
    ConfigurationError,
)
from repro.graph import preferential_attachment_graph

THETA = 0.01


@pytest.fixture(autouse=True)
def _clean_faults():
    """Never leak an injected fault into another test."""
    yield
    _faults.clear_faults()


@pytest.fixture(scope="module")
def graph():
    return preferential_attachment_graph(70, 3, seed=5)


@pytest.fixture(scope="module")
def reference_bytes(graph, tmp_path_factory):
    """The ``.npz`` of an uninterrupted serial build."""
    path = tmp_path_factory.mktemp("reference") / "prop.npz"
    index = PropagationIndex(graph, THETA).build_all(workers=1)
    save_propagation_index(index, path)
    return path.read_bytes()


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
        self, graph, reference_bytes, tmp_path
    ):
        """The acceptance-criteria scenario, serial flavour."""
        checkpoint = tmp_path / "prop.ckpt.npz"
        # Kill the build at node 40; the finally-flush persists nodes 0-39.
        with _faults.fault(
            "propagation.build_entry", _faults.InterruptOnEntry(40)
        ):
            with pytest.raises(KeyboardInterrupt):
                PropagationIndex(graph, THETA).build_all(
                    workers=1, checkpoint=checkpoint, checkpoint_every=10
                )
        assert checkpoint.exists()
        partial = load_propagation_index(checkpoint, graph)
        assert 0 < partial.n_cached < graph.n_nodes

        resumed = PropagationIndex(graph, THETA).build_all(
            workers=1, checkpoint=checkpoint, checkpoint_every=10
        )
        assert resumed.last_build_stats.n_resumed == partial.n_cached
        assert resumed.last_build_stats.n_built == (
            graph.n_nodes - partial.n_cached
        )
        output = tmp_path / "prop.npz"
        save_propagation_index(resumed, output)
        assert output.read_bytes() == reference_bytes

    def test_parallel_failures_then_resume_byte_identical(
        self, graph, reference_bytes, tmp_path
    ):
        """Chunks that keep failing are skipped, checkpointed, resumed."""
        from repro.obs.registry import MetricsRegistry

        checkpoint = tmp_path / "prop.ckpt.npz"
        registry = MetricsRegistry()
        with _faults.fault(
            "propagation.worker_chunk", _faults.FailOnChunk(1, attempts=(0, 1))
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                degraded = PropagationIndex(
                    graph, THETA, metrics=registry
                ).build_all(
                    workers=2,
                    checkpoint=checkpoint,
                    checkpoint_every=5,
                    max_retries=1,
                    retry_backoff=0.0,
                    strict=False,
                )
        failed = degraded.last_build_stats.failed_nodes
        assert failed  # chunk 1 never built
        # One retry round for chunk 1; the last failure is not retried.
        assert registry.counter_value("propagation.chunk_retries") == 1
        resumed = PropagationIndex(graph, THETA).build_all(
            workers=1, checkpoint=checkpoint, checkpoint_every=5
        )
        assert resumed.last_build_stats.failed_nodes == ()
        output = tmp_path / "prop.npz"
        save_propagation_index(resumed, output)
        assert output.read_bytes() == reference_bytes

    def test_final_checkpoint_matches_output(self, graph, tmp_path):
        checkpoint = tmp_path / "prop.ckpt.npz"
        index = PropagationIndex(graph, THETA).build_all(
            workers=1, checkpoint=checkpoint, checkpoint_every=1000
        )
        output = tmp_path / "prop.npz"
        save_propagation_index(index, output)
        # checkpoint_every never triggered mid-build; the exit flush wrote
        # the complete artifact.
        assert checkpoint.read_bytes() == output.read_bytes()

    def test_mismatched_checkpoint_rejected(self, graph, tmp_path):
        checkpoint = tmp_path / "prop.ckpt.npz"
        index = PropagationIndex(graph, THETA)
        index.entry(0)
        save_propagation_index(index, checkpoint)
        other = PropagationIndex(graph, THETA * 2)
        with pytest.raises(ConfigurationError, match="checkpoint was built"):
            other.build_all(workers=1, checkpoint=checkpoint)

    def test_resume_false_ignores_checkpoint(self, graph, tmp_path):
        checkpoint = tmp_path / "prop.ckpt.npz"
        seeded = PropagationIndex(graph, THETA)
        seeded.entry(0)
        save_propagation_index(seeded, checkpoint)
        index = PropagationIndex(graph, THETA).build_all(
            workers=1, checkpoint=checkpoint, resume=False
        )
        assert index.last_build_stats.n_resumed == 0
        assert index.last_build_stats.n_built == graph.n_nodes


class TestMetricsSurviveCrashes:
    """Cumulative observability counters across crash + resume builds."""

    def test_crash_and_resume_report_cumulative_counters(
        self, graph, tmp_path
    ):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        checkpoint = tmp_path / "prop.ckpt.npz"
        with _faults.fault(
            "propagation.build_entry", _faults.InterruptOnEntry(40)
        ):
            with pytest.raises(KeyboardInterrupt):
                PropagationIndex(graph, THETA, metrics=registry).build_all(
                    workers=1, checkpoint=checkpoint, checkpoint_every=10
                )
        # The kill never reached stats construction, but every entry
        # finished before it is already on the registry.
        built_before_crash = registry.counter_value("propagation.entries_built")
        assert built_before_crash > 0
        flushes_before_crash = registry.counter_value(
            "propagation.checkpoint_flushes"
        )
        assert flushes_before_crash >= 2  # periodic flushes + exit flush

        partial = load_propagation_index(checkpoint, graph)
        resumed = PropagationIndex(graph, THETA, metrics=registry).build_all(
            workers=1, checkpoint=checkpoint, checkpoint_every=10
        )
        snapshot = registry.snapshot()
        # Cumulative across both builds: every node built exactly once.
        assert snapshot.counter("propagation.entries_built") == graph.n_nodes
        assert snapshot.counter("propagation.entries_resumed") == (
            partial.n_cached
        )
        assert snapshot.counter("propagation.checkpoint_flushes") > (
            flushes_before_crash
        )
        # The per-call stats remain scoped to the resumed build alone.
        assert resumed.last_build_stats.n_built == (
            graph.n_nodes - partial.n_cached
        )
        # Both build attempts closed their build_all span.
        phase = snapshot.histogram("phase.propagation.build_all.seconds")
        assert phase.count == 2
        # Only the second build had a checkpoint to load.
        resume_phase = snapshot.histogram("phase.propagation.resume.seconds")
        assert resume_phase.count == 1

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

    def test_crash_retried_build_matches_clean_build(self, graph, tmp_path, reference_bytes):
        with _faults.fault(
            "propagation.worker_chunk", _faults.ExitOnChunk(0, attempts=(0,))
        ):
            index = PropagationIndex(graph, THETA).build_all(
                workers=2, max_retries=2, retry_backoff=0.0
            )
        output = tmp_path / "prop.npz"
        save_propagation_index(index, output)
        assert output.read_bytes() == reference_bytes

    def test_serial_transient_failure_is_retried(self, graph):
        with _faults.fault(
            "propagation.build_entry", _faults.FailOnEntry(7, attempts=(0,))
        ):
            index = PropagationIndex(graph, THETA).build_all(
                workers=1, max_retries=1, retry_backoff=0.0
            )
        assert index.last_build_stats.failed_nodes == ()
        assert index.n_cached == graph.n_nodes

    def test_persistent_failure_degrades_gracefully(self, graph):
        hook = _faults.FailOnEntry(7, attempts=(0, 1, 2, 3))
        with _faults.fault("propagation.build_entry", hook):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                index = PropagationIndex(graph, THETA).build_all(
                    workers=1, max_retries=2, retry_backoff=0.0, strict=False
                )
        stats = index.last_build_stats
        assert stats.failed_nodes == (7,)
        assert stats.n_failed == 1
        assert stats.n_built == graph.n_nodes - 1
        assert any("failed to build" in str(w.message) for w in caught)

    def test_persistent_failure_raises_in_strict_mode(self, graph, tmp_path):
        checkpoint = tmp_path / "prop.ckpt.npz"
        hook = _faults.FailOnEntry(7, attempts=(0, 1, 2, 3))
        with _faults.fault("propagation.build_entry", hook):
            with pytest.raises(BuildFailedError) as excinfo:
                PropagationIndex(graph, THETA).build_all(
                    workers=1,
                    max_retries=2,
                    retry_backoff=0.0,
                    strict=True,
                    checkpoint=checkpoint,
                )
        error = excinfo.value
        assert error.failed_nodes == [7]
        assert error.n_built == graph.n_nodes - 1
        # The partial result survives: attached to the error AND flushed.
        assert error.partial_index is not None
        assert error.partial_index.n_cached == graph.n_nodes - 1
        assert load_propagation_index(checkpoint, graph).n_cached == (
            graph.n_nodes - 1
        )

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
        path = tmp_path / "prop.npz"
        index = PropagationIndex(graph, THETA)
        index.entry(0)
        save_propagation_index(index, path)
        before = path.read_bytes()
        index.entry(1)
        with _faults.fault("artifact.pre_replace", _faults.FailOnReplace()):
            with pytest.raises(OSError, match="injected"):
                save_propagation_index(index, path)
        assert path.read_bytes() == before  # old artifact intact
        assert list(tmp_path.iterdir()) == [path]  # temp file cleaned up
        # The surviving artifact still loads and verifies.
        assert load_propagation_index(path, graph).n_cached == 1
        # A later, uninterrupted save publishes the new version.
        save_propagation_index(index, path)
        assert load_propagation_index(path, graph).n_cached == 2


class TestBitFlipOnLoad:
    @pytest.fixture
    def artifact(self, graph, tmp_path):
        path = tmp_path / "prop.npz"
        index = PropagationIndex(graph, THETA).build_all(workers=1)
        save_propagation_index(index, path)
        return path

    @pytest.mark.parametrize("relative_offset", [0.1, 0.5, 0.9])
    def test_single_flipped_byte_rejected(self, graph, artifact, relative_offset):
        """Acceptance criterion: one flipped byte -> typed rejection."""
        size = len(artifact.read_bytes())
        hook = _faults.FlipByte(int(size * relative_offset))
        with _faults.fault("artifact.load_bytes", hook):
            with pytest.raises(ArtifactCorruptedError) as excinfo:
                load_propagation_index(artifact, graph)
        assert str(artifact) in str(excinfo.value)

    def test_flipped_byte_on_disk_rejected(self, graph, artifact):
        raw = bytearray(artifact.read_bytes())
        raw[len(raw) // 3] ^= 0x01  # single bit, mid-file
        artifact.write_bytes(bytes(raw))
        with pytest.raises(ArtifactCorruptedError):
            load_propagation_index(artifact, graph)

    def test_truncated_artifact_rejected(self, graph, artifact):
        hook = _faults.TruncateBytes(len(artifact.read_bytes()) // 2)
        with _faults.fault("artifact.load_bytes", hook):
            with pytest.raises(ArtifactCorruptedError, match="unreadable NPZ"):
                load_propagation_index(artifact, graph)

    def test_clean_artifact_still_loads(self, graph, artifact):
        assert load_propagation_index(artifact, graph).n_cached == graph.n_nodes
