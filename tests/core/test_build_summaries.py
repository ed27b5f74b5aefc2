"""Fault-tolerant summary builds: ``PITEngine.build_summaries``.

The summarization counterpart of the propagation build's robustness
contract: parallel builds are byte-identical to serial ones, interrupted
builds resume from their checkpoint without recomputation or divergence,
crashed workers retry on fresh pools, and persistent failures either
raise :class:`~repro.exceptions.BuildFailedError` (with the partial
summaries attached) or degrade to a warning per ``strict``.
"""

import hashlib
import threading
import warnings
from concurrent.futures import Future, wait

import pytest

from repro import _build_runner, _faults
from repro.core import PITEngine, load_summaries, save_summaries
from repro.exceptions import BuildFailedError, ConfigurationError
from repro.graph import preferential_attachment_graph
from repro.obs.registry import MetricsRegistry
from repro.topics import TopicIndex

SEED = 11


@pytest.fixture(autouse=True)
def _clean_faults():
    """Never leak an injected fault into another test."""
    yield
    _faults.clear_faults()


@pytest.fixture(scope="module")
def graph():
    return preferential_attachment_graph(80, 3, seed=SEED)


@pytest.fixture(scope="module")
def topic_index(graph):
    labels = [f"topic {i}" for i in range(12)]
    assignments = {
        node: [labels[node % 12], labels[(node * 7) % 12]]
        for node in range(graph.n_nodes)
    }
    return TopicIndex(graph.n_nodes, assignments)


def _engine(graph, topic_index, summarizer="rcl", metrics=None):
    return PITEngine(
        graph, topic_index, summarizer=summarizer,
        walk_length=4, samples_per_node=10,
        rep_fraction=0.3, sample_rate=0.2, seed=SEED, metrics=metrics,
    )


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def reference_digest(graph, topic_index, tmp_path_factory):
    """Artifact digest of an uninterrupted serial RCL build."""
    path = tmp_path_factory.mktemp("reference") / "summaries.json"
    engine = _engine(graph, topic_index).build_summaries(workers=1)
    save_summaries(engine.summaries, graph, path)
    return _digest(path)


class TestSerialBuild:
    def test_builds_every_topic(self, graph, topic_index):
        engine = _engine(graph, topic_index).build_summaries()
        assert engine.n_summaries == topic_index.n_topics
        stats = engine.last_summary_build_stats
        assert stats.n_built == topic_index.n_topics
        assert stats.workers == 1
        assert stats.failed_topics == ()

    def test_topic_subset_and_labels(self, graph, topic_index):
        engine = _engine(graph, topic_index)
        engine.build_summaries([0, "topic 3"])
        assert engine.n_summaries == 2
        assert engine.last_summary_build_stats.n_built == 2

    def test_already_built_topics_are_skipped(self, graph, topic_index):
        engine = _engine(graph, topic_index)
        engine.build_summaries([0, 1])
        engine.build_summaries()
        assert engine.last_summary_build_stats.n_built == (
            topic_index.n_topics - 2
        )

    def test_invalid_arguments_rejected(self, graph, topic_index):
        engine = _engine(graph, topic_index)
        with pytest.raises(ConfigurationError):
            engine.build_summaries(checkpoint_every=-1)
        with pytest.raises(ConfigurationError):
            engine.build_summaries(max_retries=-1)


class TestParallelByteIdentity:
    def test_parallel_matches_serial_artifact(
        self, graph, topic_index, reference_digest, tmp_path
    ):
        path = tmp_path / "summaries.json"
        engine = _engine(graph, topic_index).build_summaries(workers=2)
        save_summaries(engine.summaries, graph, path)
        assert _digest(path) == reference_digest

    def test_lrw_parallel_matches_serial(self, graph, topic_index, tmp_path):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        for workers, path in ((1, serial), (2, parallel)):
            engine = _engine(graph, topic_index, "lrw")
            engine.build_summaries(workers=workers)
            save_summaries(engine.summaries, graph, path)
        assert _digest(serial) == _digest(parallel)


class TestCheckpointResume:
    def test_interrupted_build_resumes_byte_identical(
        self, graph, topic_index, reference_digest, tmp_path
    ):
        checkpoint = tmp_path / "summaries.ckpt.json"
        interrupted = MetricsRegistry()
        with _faults.fault(
            "summarize.build_topic", _faults.InterruptOnTopic(7)
        ):
            with pytest.raises(KeyboardInterrupt):
                _engine(graph, topic_index, metrics=interrupted).build_summaries(
                    checkpoint=checkpoint, checkpoint_every=1
                )
        # The finally-flush persisted topics 0-6 for the next run.
        assert len(load_summaries(checkpoint, graph)) == 7
        # checkpoint_every=1: one flush per built topic, none left for exit.
        assert interrupted.counter_value("summarize.checkpoint_flushes") == 7

        registry = MetricsRegistry()
        resumed = _engine(graph, topic_index, metrics=registry)
        resumed.build_summaries(checkpoint=checkpoint, checkpoint_every=1)
        assert registry.counter_value("summarize.checkpoint_flushes") == (
            topic_index.n_topics - 7
        )
        assert resumed.last_summary_build_stats.n_resumed == 7
        assert resumed.last_summary_build_stats.n_built == (
            topic_index.n_topics - 7
        )
        final = tmp_path / "summaries.json"
        save_summaries(resumed.summaries, graph, final)
        assert _digest(final) == reference_digest

    def test_resume_false_ignores_checkpoint(
        self, graph, topic_index, tmp_path
    ):
        checkpoint = tmp_path / "summaries.ckpt.json"
        _engine(graph, topic_index).build_summaries(
            [0, 1, 2], checkpoint=checkpoint
        )
        engine = _engine(graph, topic_index)
        engine.build_summaries(checkpoint=checkpoint, resume=False)
        assert engine.last_summary_build_stats.n_resumed == 0
        assert engine.last_summary_build_stats.n_built == topic_index.n_topics


class TestRetries:
    def test_transient_topic_failure_is_retried(self, graph, topic_index):
        registry = MetricsRegistry()
        with _faults.fault(
            "summarize.build_topic", _faults.FailOnTopic(4, attempts=(0,))
        ):
            engine = _engine(
                graph, topic_index, metrics=registry
            ).build_summaries()
        assert engine.n_summaries == topic_index.n_topics
        assert engine.last_summary_build_stats.failed_topics == ()
        assert registry.counter_value("summarize.topic_retries") == 1

    def test_crashed_worker_retries_on_fresh_pool(
        self, graph, topic_index, reference_digest, tmp_path
    ):
        registry = MetricsRegistry()
        with _faults.fault(
            "summarize.worker_chunk", _faults.ExitOnChunk(1, attempts=(0,))
        ):
            engine = _engine(
                graph, topic_index, metrics=registry
            ).build_summaries(workers=2, retry_backoff=0.01)
        path = tmp_path / "summaries.json"
        save_summaries(engine.summaries, graph, path)
        assert _digest(path) == reference_digest
        # The crash fails chunk 1 plus whatever else was in flight.
        assert registry.counter_value("summarize.chunk_retries") >= 1
        assert registry.counter_value("summarize.topics_built") == (
            topic_index.n_topics
        )

    @pytest.mark.parametrize("orphan", [False, True], ids=["raises", "orphaned"])
    def test_worker_dies_before_every_chunk_is_submitted(
        self, graph, topic_index, reference_digest, tmp_path, monkeypatch, orphan
    ):
        # Chunk 0's worker exits, and the first pool's second submit waits
        # until that crash has broken the pool. The submit then raises
        # BrokenProcessPool, or (orphan) is accepted and never run, as a
        # submit racing the break can be on Python 3.11.
        pools = []

        class SubmitAfterCrash(_build_runner.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)
                self.first = None

            def submit(self, fn, *args, **kwargs):
                if self is not pools[0]:
                    return super().submit(fn, *args, **kwargs)
                if self.first is None:
                    self.first = super().submit(fn, *args, **kwargs)
                    return self.first
                wait([self.first], timeout=30)
                if orphan:
                    return Future()
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(_build_runner, "ProcessPoolExecutor", SubmitAfterCrash)
        registry = MetricsRegistry()
        outcome = {}

        def build():
            try:
                with _faults.fault(
                    "summarize.worker_chunk",
                    _faults.ExitOnChunk(0, attempts=(0,)),
                ):
                    outcome["engine"] = _engine(
                        graph, topic_index, metrics=registry
                    ).build_summaries(workers=2, retry_backoff=0.01)
            except Exception as exc:  # reported by the assert below
                outcome["error"] = exc

        runner = threading.Thread(target=build, daemon=True)
        runner.start()
        runner.join(timeout=120)
        assert not runner.is_alive(), "build hung on an unfinished future"
        assert "error" not in outcome, outcome.get("error")
        path = tmp_path / "summaries.json"
        save_summaries(outcome["engine"].summaries, graph, path)
        assert _digest(path) == reference_digest
        assert len(pools) == 2  # one broken pool, one clean retry round
        assert registry.counter_value("summarize.chunk_retries") >= 2
        assert registry.counter_value("summarize.topics_built") == (
            topic_index.n_topics
        )

    def test_persistent_failure_strict_raises(self, graph, topic_index):
        with _faults.fault(
            "summarize.build_topic",
            _faults.FailOnTopic(4, attempts=(0, 1, 2)),
        ):
            with pytest.raises(BuildFailedError) as excinfo:
                _engine(graph, topic_index).build_summaries(
                    max_retries=2, retry_backoff=0.0
                )
        error = excinfo.value
        assert error.failed_nodes == [4]
        assert "node" not in str(error)  # topic ids, not nodes
        # Everything that did build travels with the error.
        assert len(error.partial_summaries) == topic_index.n_topics - 1

    def test_persistent_failure_keep_going_warns(self, graph, topic_index):
        with _faults.fault(
            "summarize.build_topic",
            _faults.FailOnTopic(4, attempts=(0, 1, 2)),
        ):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                engine = _engine(graph, topic_index).build_summaries(
                    max_retries=2, retry_backoff=0.0, strict=False
                )
        assert any(w.category is RuntimeWarning for w in caught)
        stats = engine.last_summary_build_stats
        assert stats.failed_topics == (4,)
        assert stats.n_failed == 1
        assert engine.n_summaries == topic_index.n_topics - 1


class TestStats:
    def test_stats_shape(self, graph, topic_index):
        engine = _engine(graph, topic_index).build_summaries(workers=1)
        stats = engine.last_summary_build_stats
        assert stats.n_summaries == topic_index.n_topics
        assert stats.wall_seconds > 0
        assert stats.topics_per_second > 0
        payload = stats.as_dict()
        assert payload["n_built"] == topic_index.n_topics
