"""Tests for the memory-mapped, sharded propagation index.

Covers the tentpole contract end-to-end: an in-memory build sharded to
disk and re-opened via mmap is bit-exact (Γ arrays, search results,
SearchStats) with the in-memory backend; the streaming
``build_sharded`` leaves nothing resident and its output is
byte-identical whether uninterrupted or interrupted-and-resumed;
corrupted, truncated, or manifest-less artifacts raise typed
:class:`~repro.exceptions.ArtifactCorruptedError`; and shard paging
under a small byte budget evicts in LRU order while staying bounded.
"""

import hashlib
import shutil
import struct

import numpy as np
import pytest

from repro import _faults
from repro._artifacts import MANIFEST_NAME
from repro.core import (
    PITEngine,
    PropagationIndex,
    load_propagation_index,
    load_sharded_index,
    save_propagation_index,
    save_sharded_index,
)
from repro.core.shards import (
    MmapShardBackend,
    SHARD_FORMAT_VERSION,
    SHARD_KIND,
    shard_filename,
)
from repro.datasets import data_2k
from repro.exceptions import (
    ArtifactCorruptedError,
    ArtifactError,
    BuildFailedError,
    ConfigurationError,
)
from repro.graph import preferential_attachment_graph
from repro.obs import MetricsRegistry

THETA = 0.01
SHARD_NODES = 16


@pytest.fixture(autouse=True)
def _clean_faults():
    yield
    _faults.clear_faults()


@pytest.fixture(scope="module")
def graph():
    return preferential_attachment_graph(70, 3, seed=5)


@pytest.fixture(scope="module")
def built_index(graph):
    return PropagationIndex(graph, THETA).build_all(workers=1)


@pytest.fixture(scope="module")
def shard_dir(built_index, tmp_path_factory):
    directory = tmp_path_factory.mktemp("shards") / "prop"
    save_sharded_index(built_index, directory, shard_nodes=SHARD_NODES)
    return directory


def _dir_digest(directory):
    sha = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        sha.update(path.name.encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def _shard_sizes(directory):
    return [
        path.stat().st_size for path in sorted(directory.glob("shard-*.bin"))
    ]


def _patch_header(path, offset, value):
    """Overwrite one int64 header field (version at 8, lo 16, hi 24)."""
    raw = bytearray(path.read_bytes())
    struct.pack_into("<q", raw, offset, value)
    path.write_bytes(bytes(raw))


class TestRoundTrip:
    def test_entries_bit_exact(self, graph, built_index, shard_dir):
        loaded = load_sharded_index(shard_dir, graph)
        assert loaded.theta == built_index.theta
        assert loaded.max_branches == built_index.max_branches
        assert loaded.n_cached == graph.n_nodes
        for node in range(graph.n_nodes):
            want = built_index.entry(node)
            got = loaded.entry(node)
            assert np.array_equal(want.sources, got.sources)
            assert np.array_equal(want.probabilities, got.probabilities)
            assert np.array_equal(want.marked_array, got.marked_array)
            assert want.branches == got.branches
            assert got.is_mapped

    def test_streamed_build_byte_identical_to_saved(
        self, graph, shard_dir, tmp_path
    ):
        streamed = tmp_path / "streamed"
        PropagationIndex(graph, THETA).build_sharded(
            streamed, shard_nodes=SHARD_NODES
        )
        assert _dir_digest(streamed) == _dir_digest(shard_dir)

    def test_npz_migration_path(self, graph, built_index, tmp_path):
        """Legacy NPZ -> load -> save sharded -> identical entries."""
        npz = tmp_path / "prop.npz"
        save_propagation_index(built_index, npz)
        via_npz = load_propagation_index(npz, graph)
        directory = tmp_path / "migrated"
        save_sharded_index(via_npz, directory, shard_nodes=SHARD_NODES)
        loaded = load_sharded_index(directory, graph)
        for node in (0, 17, 42, graph.n_nodes - 1):
            assert dict(loaded.entry(node).gamma) == dict(
                built_index.entry(node).gamma
            )

    def test_partial_index_rejected(self, graph, tmp_path):
        partial = PropagationIndex(graph, THETA)
        partial.entry(0)
        with pytest.raises(ConfigurationError, match="partial index"):
            save_sharded_index(partial, tmp_path / "partial")


class TestSearchParity:
    @pytest.fixture(scope="class", params=[7, 1234])
    def bundle(self, request):
        return data_2k(seed=request.param, n_nodes=250, with_corpus=False)

    @pytest.fixture(scope="class")
    def in_memory(self, bundle):
        engine = PITEngine.from_dataset(
            bundle, summarizer="lrw", theta=THETA, seed=bundle.seed
        )
        engine.propagation_index.build_all(workers=1)
        return engine

    @pytest.fixture(scope="class")
    def directory(self, in_memory, tmp_path_factory):
        directory = tmp_path_factory.mktemp("parity") / "shards"
        save_sharded_index(
            in_memory.propagation_index, directory, shard_nodes=SHARD_NODES
        )
        return directory

    @staticmethod
    def _mapped(bundle, directory, cache_bytes, metrics=None):
        mapped = PITEngine.from_dataset(
            bundle, summarizer="lrw", theta=THETA, seed=bundle.seed,
            metrics=metrics,
        )
        mapped.use_propagation_index(
            load_sharded_index(directory, bundle.graph, cache_bytes=cache_bytes)
        )
        return mapped

    @pytest.fixture(scope="class")
    def engines(self, bundle, in_memory, directory):
        return in_memory, self._mapped(bundle, directory, 1 << 20)

    def _queries(self, bundle):
        tags = sorted(bundle.tag_bank.tags)
        words = sorted({tag.split()[-1] for tag in tags[:40]})
        return words[:4]

    def test_results_and_stats_bit_exact(self, bundle, engines):
        in_memory, mapped = engines
        for user in (3, 57, 120):
            for query in self._queries(bundle):
                want, want_stats = in_memory.search(
                    user, query, k=5, with_stats=True
                )
                got, got_stats = mapped.search(
                    user, query, k=5, with_stats=True
                )
                assert [
                    (r.topic_id, r.influence) for r in want
                ] == [(r.topic_id, r.influence) for r in got]
                assert want_stats == got_stats

    def test_search_many_bit_exact(self, bundle, engines):
        in_memory, mapped = engines
        queries = self._queries(bundle)
        requests = [
            (user, queries[user % len(queries)]) for user in range(0, 200, 7)
        ]
        want = in_memory.search_batch(requests, k=5, with_stats=True)
        got = mapped.search_batch(requests, k=5, with_stats=True)
        assert len(want) == len(got)
        for (want_results, want_stats), (got_results, got_stats) in zip(
            want, got
        ):
            assert [
                (r.topic_id, r.influence) for r in want_results
            ] == [(r.topic_id, r.influence) for r in got_results]
            assert want_stats == got_stats


    def test_thrashing_budget_bit_exact(self, bundle, in_memory, directory):
        """A budget that never holds the two largest shards together
        re-maps shards throughout, and still answers bit-exactly."""
        sizes = sorted(_shard_sizes(directory))
        budget = sizes[-1] + sizes[-2] - 1
        registry = MetricsRegistry()
        mapped = self._mapped(bundle, directory, budget, metrics=registry)
        shards = mapped.propagation_index.shards
        assert shards.cache_bytes == budget
        queries = self._queries(bundle)
        for user in (3, 57, 120):
            for query in queries:
                want, want_stats = in_memory.search(
                    user, query, k=5, with_stats=True
                )
                got, got_stats = mapped.search(
                    user, query, k=5, with_stats=True
                )
                assert [
                    (r.topic_id, r.influence) for r in want
                ] == [(r.topic_id, r.influence) for r in got]
                assert want_stats == got_stats
                assert shards.resident_bytes() <= budget
        requests = [
            (user, queries[user % len(queries)]) for user in range(0, 200, 7)
        ]
        want = in_memory.search_batch(requests, k=5, with_stats=True)
        got = mapped.search_batch(requests, k=5, with_stats=True)
        assert shards.resident_bytes() <= budget
        assert [
            ([(r.topic_id, r.influence) for r in results], stats)
            for results, stats in want
        ] == [
            ([(r.topic_id, r.influence) for r in results], stats)
            for results, stats in got
        ]
        assert registry.snapshot().counters["index.shard.loads"] > (
            shards.n_shards
        )


class TestStreamingBuild:
    def test_entries_freed_as_shards_flush(self, graph, tmp_path):
        index = PropagationIndex(graph, THETA)
        index.build_sharded(tmp_path / "out", shard_nodes=SHARD_NODES)
        assert len(index._entries) == 0
        assert index.last_build_stats.n_built == graph.n_nodes

    def test_interrupt_and_resume_byte_identical(
        self, graph, shard_dir, tmp_path
    ):
        directory = tmp_path / "resumed"
        # Kill the build inside the third shard; shards 0-1 are published.
        with _faults.fault(
            "propagation.build_entry",
            _faults.InterruptOnEntry(2 * SHARD_NODES + 3),
        ):
            with pytest.raises(KeyboardInterrupt):
                PropagationIndex(graph, THETA).build_sharded(
                    directory, shard_nodes=SHARD_NODES
                )
        published = {p.name for p in directory.iterdir()}
        assert shard_filename(0, SHARD_NODES) in published
        assert shard_filename(SHARD_NODES, 2 * SHARD_NODES) in published
        # Incomplete artifact must refuse to serve...
        with pytest.raises(ArtifactCorruptedError, match="incomplete"):
            load_sharded_index(directory, graph)
        # ...and the resumed build must finish byte-identical.
        resumed = PropagationIndex(graph, THETA)
        resumed.build_sharded(directory, shard_nodes=SHARD_NODES)
        assert resumed.last_build_stats.n_resumed == 2 * SHARD_NODES
        assert _dir_digest(directory) == _dir_digest(shard_dir)

    def test_resume_with_different_parameters_rejected(
        self, graph, shard_dir, tmp_path
    ):
        directory = tmp_path / "copy"
        shutil.copytree(shard_dir, directory)
        with pytest.raises(ConfigurationError, match="built with"):
            PropagationIndex(graph, THETA * 2).build_sharded(
                directory, shard_nodes=SHARD_NODES
            )

    def test_strict_failure_keeps_completed_shards(self, graph, tmp_path):
        directory = tmp_path / "failed"

        class Crash:
            def __call__(self, *, node, **_):
                if node == SHARD_NODES + 1:
                    raise OSError("injected crash")

        index = PropagationIndex(graph, THETA)
        with _faults.fault("propagation.build_entry", Crash()):
            with pytest.raises(BuildFailedError) as excinfo:
                index.build_sharded(
                    directory,
                    shard_nodes=SHARD_NODES,
                    max_retries=1,
                    retry_backoff=0.0,
                    strict=True,
                )
        assert shard_filename(0, SHARD_NODES) in {
            p.name for p in directory.iterdir()
        }
        # Built this call: the published first shard plus the failing
        # range's other SHARD_NODES - 1 entries.
        assert excinfo.value.n_built == 2 * SHARD_NODES - 1
        stats = index.last_build_stats
        assert stats is not None  # recorded before the raise
        assert stats.failed_nodes == (SHARD_NODES + 1,)
        assert stats.n_built == 2 * SHARD_NODES - 1

    def test_keep_going_records_failed_nodes(self, graph, tmp_path):
        directory = tmp_path / "degraded"

        class Crash:
            def __call__(self, *, node, **_):
                if node == 3:
                    raise OSError("injected crash")

        with _faults.fault("propagation.build_entry", Crash()):
            with pytest.warns(RuntimeWarning, match="stored as empty"):
                PropagationIndex(graph, THETA).build_sharded(
                    directory,
                    shard_nodes=SHARD_NODES,
                    max_retries=1,
                    retry_backoff=0.0,
                    strict=False,
                )
        loaded = load_sharded_index(directory, graph)
        assert loaded.shards.failed_nodes == (3,)
        assert loaded.entry(3).size == 0  # empty slot, not a crash

    def test_metrics_counters(self, graph, tmp_path):
        registry = MetricsRegistry()
        PropagationIndex(graph, THETA, metrics=registry).build_sharded(
            tmp_path / "counted", shard_nodes=SHARD_NODES
        )
        counters = registry.snapshot().counters
        n_shards = -(-graph.n_nodes // SHARD_NODES)
        assert counters["propagation.shards_written"] == n_shards
        assert counters["propagation.entries_built"] == graph.n_nodes


class TestCorruption:
    def test_missing_directory(self, graph, tmp_path):
        with pytest.raises(ArtifactError, match="not found"):
            load_sharded_index(tmp_path / "nope", graph)

    def test_missing_manifest(self, graph, tmp_path):
        directory = tmp_path / "bare"
        directory.mkdir()
        with pytest.raises(ArtifactCorruptedError, match=MANIFEST_NAME):
            load_sharded_index(directory, graph)

    def test_flipped_manifest_byte(self, graph, shard_dir):
        with _faults.fault("artifact.load_bytes", _faults.FlipByte(40)):
            with pytest.raises(ArtifactCorruptedError):
                load_sharded_index(shard_dir, graph)

    def test_flipped_shard_header_byte(self, graph, shard_dir):
        # Open cleanly first (the manifest read must not be corrupted),
        # then flip a header byte on the lazy first shard map.
        loaded = load_sharded_index(shard_dir, graph)
        with _faults.fault("artifact.load_bytes", _faults.FlipByte(3)):
            with pytest.raises(ArtifactCorruptedError, match="magic"):
                loaded.entry(0)

    def test_truncated_shard_on_disk(self, graph, shard_dir, tmp_path):
        directory = tmp_path / "truncated"
        shutil.copytree(shard_dir, directory)
        victim = directory / shard_filename(0, SHARD_NODES)
        victim.write_bytes(victim.read_bytes()[:-16])
        loaded = load_sharded_index(directory, graph)
        with pytest.raises(ArtifactCorruptedError, match="truncated"):
            loaded.entry(0)

    @pytest.fixture
    def shard_copy(self, shard_dir, tmp_path):
        directory = tmp_path / "copy"
        shutil.copytree(shard_dir, directory)
        return directory

    def test_header_node_range_disagrees_with_manifest(
        self, graph, shard_copy
    ):
        victim = shard_copy / shard_filename(0, SHARD_NODES)
        _patch_header(victim, 16, 1)  # lo 0 -> 1
        loaded = load_sharded_index(shard_copy, graph)
        with pytest.raises(
            ArtifactCorruptedError, match="shard header covers nodes"
        ):
            loaded.entry(0)

    def test_newer_header_version_rejected(self, graph, shard_copy):
        victim = shard_copy / shard_filename(0, SHARD_NODES)
        _patch_header(victim, 8, SHARD_FORMAT_VERSION + 1)
        loaded = load_sharded_index(shard_copy, graph)
        with pytest.raises(ArtifactCorruptedError, match="newer than"):
            loaded.entry(0)

    def test_zero_byte_shard(self, graph, shard_copy):
        (shard_copy / shard_filename(0, SHARD_NODES)).write_bytes(b"")
        loaded = load_sharded_index(shard_copy, graph)
        with pytest.raises(ArtifactCorruptedError, match="truncated"):
            loaded.entry(0)

    def test_shard_deleted_after_open(self, graph, shard_copy):
        loaded = load_sharded_index(shard_copy, graph)
        (shard_copy / shard_filename(0, SHARD_NODES)).unlink()
        with pytest.raises(ArtifactError, match="not found"):
            loaded.entry(0)

    def test_flipped_shard_payload_caught_by_verify(
        self, graph, shard_dir, tmp_path
    ):
        directory = tmp_path / "flipped"
        shutil.copytree(shard_dir, directory)
        victim = directory / shard_filename(0, SHARD_NODES)
        raw = bytearray(victim.read_bytes())
        raw[len(raw) - 8] ^= 0x01  # payload bit, beyond the header
        victim.write_bytes(bytes(raw))
        strict = load_sharded_index(directory, graph, verify=True)
        with pytest.raises(ArtifactCorruptedError, match="checksum"):
            strict.entry(0)

    def test_wrong_graph_rejected(self, shard_dir):
        other = preferential_attachment_graph(30, 3, seed=9)
        with pytest.raises(ConfigurationError, match="built for a graph"):
            load_sharded_index(shard_dir, other)

    def test_coverage_gap_rejected(self, graph, shard_dir, tmp_path):
        import json
        directory = tmp_path / "gap"
        shutil.copytree(shard_dir, directory)
        manifest_path = directory / MANIFEST_NAME
        payload = json.loads(manifest_path.read_text())
        assert payload["kind"] == SHARD_KIND
        del payload["shards"][1]
        del payload["checksum"]  # legacy-tolerant loader: no checksum field
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(ArtifactCorruptedError, match="coverage gap"):
            load_sharded_index(directory, graph)


class TestPagingAndAccounting:
    def test_lru_eviction_order_under_budget(self, graph, shard_dir):
        records = MmapShardBackend(shard_dir, graph).n_shards
        assert records >= 4
        sizes = [
            (shard_dir / shard_filename(i * SHARD_NODES, (i + 1) * SHARD_NODES))
            .stat()
            .st_size
            for i in range(3)
        ]
        # Fits shards 0+1, but admitting shard 2 must evict the LRU one.
        backend = MmapShardBackend(
            shard_dir, graph, cache_bytes=sum(sizes) - 1
        )
        backend.get(0)                      # shard 0 in
        backend.get(SHARD_NODES)            # shard 1 in
        backend.get(0)                      # bump shard 0
        backend.get(2 * SHARD_NODES)        # shard 2 in -> evicts shard 1
        stats = backend.cache_stats()
        assert stats.evictions >= 1
        assert backend.resident_bytes() <= backend._cache.max_bytes
        # Shard 0 was bumped before the eviction: still a hit.
        hits_before = backend.cache_stats().hits
        backend.get(1)
        assert backend.cache_stats().hits == hits_before + 1
        # Shard 1 was the LRU victim: a miss that re-maps it.
        misses_before = backend.cache_stats().misses
        backend.get(SHARD_NODES + 1)
        assert backend.cache_stats().misses == misses_before + 1

    def test_resident_bytes_stay_bounded(self, graph, shard_dir):
        one_shard = (
            shard_dir / shard_filename(0, SHARD_NODES)
        ).stat().st_size
        budget = int(one_shard * 2.5)
        backend = MmapShardBackend(shard_dir, graph, cache_bytes=budget)
        for node in range(graph.n_nodes):
            backend.get(node)
            assert backend.resident_bytes() <= budget

    def test_mapped_vs_resident_accounting(self, graph, built_index, shard_dir):
        loaded = load_sharded_index(shard_dir, graph, cache_bytes=1 << 20)
        assert loaded.memory_bytes() == 0  # nothing paged in yet
        total_storage = sum(
            built_index.entry(n).memory_bytes() for n in range(graph.n_nodes)
        )
        assert loaded.mapped_bytes() > total_storage  # + headers/offsets
        entry = loaded.entry(0)
        assert entry.memory_bytes() == 0
        assert entry.storage_bytes() == built_index.entry(0).memory_bytes()
        assert loaded.memory_bytes() > 0  # one shard now charged resident
        assert loaded.memory_bytes() <= 1 << 20

    def test_mapped_arrays_read_only(self, graph, built_index, shard_dir):
        # Room for shard 0 alone: paging shard 1 in evicts it.
        backend = MmapShardBackend(
            shard_dir, graph, cache_bytes=_shard_sizes(shard_dir)[0]
        )
        node = next(
            n for n in range(SHARD_NODES) if built_index.entry(n).marked
        )
        first = backend.get(node)
        backend.get(SHARD_NODES)
        misses = backend.cache_stats().misses
        again = backend.get(node)
        assert backend.cache_stats().misses == misses + 1  # re-mapped
        assert again is not first
        want = built_index.entry(node)
        for entry in (first, again):
            # The evicted shard's entry still reads its bytes.
            assert np.array_equal(entry.sources, want.sources)
            assert np.array_equal(entry.probabilities, want.probabilities)
            assert np.array_equal(entry.marked_array, want.marked_array)
            with pytest.raises(ValueError):
                entry.sources[0] = 99
            with pytest.raises(ValueError):
                entry.probabilities[0] = 0.5
            with pytest.raises(ValueError):
                entry.marked_array[0] = 99

    def test_shard_gauges_published(self, graph, shard_dir):
        registry = MetricsRegistry()
        backend = MmapShardBackend(
            shard_dir, graph, cache_bytes=1 << 20, metrics=registry
        )
        backend.get(0)
        backend.publish_gauges(registry)
        snapshot = registry.snapshot()
        assert snapshot.counters["index.shard.loads"] == 1
        assert snapshot.gauges["index.shard.resident"] == 1
        assert snapshot.gauges["index.shard.total"] == backend.n_shards
        assert snapshot.gauges["index.shard.mapped_bytes"] == (
            backend.mapped_bytes()
        )

    def test_engine_snapshot_includes_shard_gauges(self, graph, shard_dir):
        bundle = data_2k(seed=7, n_nodes=graph.n_nodes, with_corpus=False)
        # Rebuild shards for this bundle's graph (fixture graph differs).
        index = PropagationIndex(bundle.graph, THETA).build_all(workers=1)
        directory = shard_dir.parent / "engine"
        save_sharded_index(index, directory, shard_nodes=SHARD_NODES)
        registry = MetricsRegistry()
        engine = PITEngine.from_dataset(
            bundle, summarizer="lrw", theta=THETA, seed=7, metrics=registry
        )
        engine.use_propagation_index(
            load_sharded_index(directory, bundle.graph, cache_bytes=1 << 20)
        )
        engine.search(3, "phone", k=3)
        snapshot = engine.metrics_snapshot()
        assert "index.shard.resident_bytes" in snapshot.gauges
        assert snapshot.gauges["propagation.index_mapped_bytes"] > 0
