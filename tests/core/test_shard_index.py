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
from repro._artifacts import MANIFEST_NAME, save_json_payload
from repro.core import (
    GraphDelta,
    PITEngine,
    PropagationIndex,
    affected_nodes,
    apply_delta_to_graph,
    load_sharded_index,
    refresh_sharded_index,
    save_sharded_index,
)
from repro.core.shards import (
    MmapShardBackend,
    PropagationShardWriter,
    SHARD_FORMAT_VERSION,
    SHARD_KIND,
    balanced_bounds,
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


def _segments(directory):
    """Segment files in node order (names are zero-padded ranges)."""
    return sorted(directory.glob("shard-*.bin"))


def _shard_sizes(directory):
    return [path.stat().st_size for path in _segments(directory)]


def _reseal_manifest(directory, edit):
    """Apply *edit* to the manifest payload and re-seal it validly."""
    import json
    manifest_path = directory / MANIFEST_NAME
    payload = json.loads(manifest_path.read_text())
    del payload["format_version"], payload["checksum"]
    edit(payload)
    save_json_payload(manifest_path, payload)


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

    def test_v2_layout_stores_marked_as_flags(
        self, graph, built_index, shard_dir
    ):
        backend = MmapShardBackend(shard_dir, graph)
        for path, (lo, hi) in zip(_segments(shard_dir), backend.ranges):
            raw = path.read_bytes()
            version, head_lo, head_hi, n_members = struct.unpack_from(
                "<4q", raw, 8
            )
            assert (version, head_lo, head_hi) == (2, lo, hi)
            # header + offsets + branches + 17 bytes per member, padded.
            body = 64 + 8 * (2 * (hi - lo) + 1) + 17 * n_members
            assert len(raw) == body + (-body % 8)
        for node in range(graph.n_nodes):
            want, got = built_index.entry(node), backend.get(node)
            assert got.marked_flags.dtype == np.bool_
            assert np.array_equal(got.marked_flags, want.marked_flags)
            assert np.array_equal(
                got.marked_probabilities(), want.marked_probabilities()
            )
            assert np.array_equal(
                got.marked_array, want.sources[want.marked_flags]
            )

    def test_partial_index_rejected(self, graph, tmp_path):
        partial = PropagationIndex(graph, THETA)
        partial.entry(0)
        with pytest.raises(ConfigurationError, match="partial index"):
            save_sharded_index(partial, tmp_path / "partial")


class TestBalancedBoundaries:
    @staticmethod
    def _node_bytes(counts):
        return 16 + 17 * np.asarray(counts, dtype=np.int64)

    @pytest.mark.parametrize("counts, n_shards", [
        ([500, 3, 0, 7, 1, 1, 2, 90, 4, 0, 0, 6], 4),
        ([0] * 10, 3),
        ([1, 1, 10_000], 3),
        ([10_000, 1, 1, 1], 2),
        (list(range(40, 0, -1)), 40),
        ([5, 5], 7),
    ])
    def test_bound_and_nonempty(self, counts, n_shards):
        cuts = balanced_bounds(counts, n_shards)
        assert cuts[0] == 0 and cuts[-1] == len(counts)
        assert len(cuts) - 1 == min(n_shards, len(counts))
        assert all(a < b for a, b in zip(cuts, cuts[1:]))
        sizes = self._node_bytes(counts)
        shard_bytes = [int(sizes[a:b].sum()) for a, b in zip(cuts, cuts[1:])]
        assert max(shard_bytes) <= sizes.sum() / (len(cuts) - 1) + sizes.max()

    def test_no_nodes(self):
        assert balanced_bounds([], 3) == [0]

    def test_no_shard_exceeds_mean_plus_largest_entry(
        self, graph, built_index, shard_dir
    ):
        sizes = _shard_sizes(shard_dir)
        largest = max(
            16 + 17 * built_index.entry(n).size for n in range(graph.n_nodes)
        )
        # Per-segment header and trailing offset are in the mean too; the
        # flag column's zero padding adds under 8 bytes to one segment.
        assert max(sizes) <= np.mean(sizes) + largest + 8
        assert len(sizes) == -(-graph.n_nodes // SHARD_NODES)

    def test_first_and_last_node_resolve_to_their_shard(self, graph, shard_dir):
        backend = MmapShardBackend(shard_dir, graph)
        for shard_id, (lo, hi) in enumerate(backend.ranges):
            for node in (lo, hi - 1):
                assert backend.shard_of(node) == shard_id
                assert backend.get(node).node == node  # header range checked

    def test_refresh_across_a_boundary_bit_exact(
        self, graph, shard_dir, tmp_path
    ):
        directory = tmp_path / "refreshed"
        shutil.copytree(shard_dir, directory)
        backend = MmapShardBackend(directory, graph)
        boundary = backend.ranges[1][0]
        sources, targets, _ = graph.edge_arrays()
        below = max(i for i, t in enumerate(targets) if t < boundary)
        above = min(
            (i for i, t in enumerate(targets) if t >= boundary),
            key=lambda i: targets[i],
        )
        delta = GraphDelta(reweights=tuple(
            (int(sources[i]), int(targets[i]), 0.9) for i in (below, above)
        ))
        new_graph, application = apply_delta_to_graph(graph, delta)
        affected = affected_nodes(graph, new_graph, application, theta=THETA)
        assert {backend.shard_of(v) for v in affected.tolist()} >= {0, 1}
        refreshed = refresh_sharded_index(backend, new_graph, affected)
        assert refreshed.shards.ranges == backend.ranges  # fixed bounds
        fresh = PropagationIndex(new_graph, THETA)
        for node in range(graph.n_nodes):
            want, got = fresh.entry(node), refreshed.entry(node)
            assert np.array_equal(want.sources, got.sources)
            assert np.array_equal(want.probabilities, got.probabilities)
            assert np.array_equal(want.marked_flags, got.marked_flags)
            assert want.branches == got.branches


class TestRefreshCrash:
    """A refresh that dies at any file replace never leaves a complete
    manifest over a mix of pre- and post-delta segments."""

    @pytest.fixture(scope="class")
    def delta(self, graph, built_index, shard_dir):
        # A tiny reweight of an edge into shard 0: every affected entry
        # keeps its members, so every rewritten segment keeps its byte
        # count and the loader's size check cannot tell the two apart.
        sources, targets, probs = graph.edge_arrays()
        i = int(np.argmin(targets))
        delta = GraphDelta(reweights=(
            (int(sources[i]), int(targets[i]), float(probs[i]) * 0.999),
        ))
        new_graph, application = apply_delta_to_graph(graph, delta)
        affected = affected_nodes(graph, new_graph, application, theta=THETA)
        fresh = PropagationIndex(new_graph, THETA)
        assert MmapShardBackend(shard_dir, graph).shard_of(
            int(affected[0])
        ) == 0
        assert all(
            np.array_equal(fresh.entry(v).sources, built_index.entry(v).sources)
            for v in affected.tolist()
        )
        assert any(
            not np.array_equal(
                fresh.entry(v).probabilities,
                built_index.entry(v).probabilities,
            )
            for v in affected.tolist()
        )
        return new_graph, affected, fresh

    @staticmethod
    def _refresh(graph, directory, new_graph, affected, crash_at=None):
        """Refresh a copy; with *crash_at*, die before that file replace.
        Returns the number of replaces the refresh reached."""
        replaces = []

        def hook(*, path, **_):
            replaces.append(path.name)
            if len(replaces) - 1 == crash_at:
                raise KeyboardInterrupt("injected crash mid-refresh")

        backend = MmapShardBackend(directory, graph)
        with _faults.fault("artifact.pre_replace", hook):
            refresh_sharded_index(backend, new_graph, affected)
        return len(replaces)

    def test_no_crash_point_serves_a_mix(
        self, graph, built_index, shard_dir, delta, tmp_path
    ):
        new_graph, affected, _ = delta
        probe = tmp_path / "probe"
        shutil.copytree(shard_dir, probe)
        n_replaces = self._refresh(graph, probe, new_graph, affected)
        assert _shard_sizes(probe) == _shard_sizes(shard_dir)
        for crash_at in range(n_replaces):
            directory = tmp_path / f"crash-{crash_at}"
            shutil.copytree(shard_dir, directory)
            with pytest.raises(KeyboardInterrupt):
                self._refresh(graph, directory, new_graph, affected, crash_at)
            try:
                loaded = load_sharded_index(directory, graph)
            except ArtifactCorruptedError as error:
                assert "incomplete" in str(error)
                continue
            for node in range(graph.n_nodes):  # all pre-delta, or refused
                assert np.array_equal(
                    loaded.entry(node).probabilities,
                    built_index.entry(node).probabilities,
                ), (crash_at, node)

    def test_build_sharded_resumes_a_crashed_refresh(
        self, graph, shard_dir, delta, tmp_path
    ):
        new_graph, affected, _ = delta
        probe = tmp_path / "probe"
        shutil.copytree(shard_dir, probe)
        n_replaces = self._refresh(graph, probe, new_graph, affected)
        directory = tmp_path / "crashed"
        shutil.copytree(shard_dir, directory)
        with pytest.raises(KeyboardInterrupt):
            # Die at the last write: every post-delta segment is on disk,
            # and the manifest is still incomplete and lists no shard.
            self._refresh(
                graph, directory, new_graph, affected, n_replaces - 1
            )
        with pytest.raises(ArtifactCorruptedError, match="incomplete"):
            load_sharded_index(directory, new_graph)
        resumed = PropagationIndex(new_graph, THETA)
        resumed.build_sharded(directory, shard_nodes=SHARD_NODES)
        assert resumed.last_build_stats.n_built == new_graph.n_nodes
        expected = tmp_path / "fresh"
        PropagationIndex(new_graph, THETA).build_sharded(
            expected, shard_nodes=SHARD_NODES
        )
        assert _dir_digest(directory) == _dir_digest(expected)

    def test_resume_over_pre_delta_graph_rebuilds_it(
        self, graph, shard_dir, delta, tmp_path
    ):
        # A reweight keeps the edge count, so the crashed refresh's
        # manifest meta matches a pre-delta build: a resume over the
        # pre-delta graph must not take the post-delta segments.
        new_graph, affected, _ = delta
        assert new_graph.n_edges == graph.n_edges
        probe = tmp_path / "probe"
        shutil.copytree(shard_dir, probe)
        n_replaces = self._refresh(graph, probe, new_graph, affected)
        directory = tmp_path / "crashed"
        shutil.copytree(shard_dir, directory)
        with pytest.raises(KeyboardInterrupt):
            self._refresh(
                graph, directory, new_graph, affected, n_replaces - 1
            )
        PropagationIndex(graph, THETA).build_sharded(
            directory, shard_nodes=SHARD_NODES, resume=True
        )
        expected = tmp_path / "fresh"
        PropagationIndex(graph, THETA).build_sharded(
            expected, shard_nodes=SHARD_NODES
        )
        assert _dir_digest(directory) == _dir_digest(expected)

    def test_manifest_written_at_begin_and_end_only(
        self, graph, shard_dir, tmp_path, monkeypatch
    ):
        from repro import _artifacts

        directory = tmp_path / "prop"
        shutil.copytree(shard_dir, directory)
        backend = MmapShardBackend(directory, graph)
        records = backend._records
        assert len(records) > 4
        affected = [int(r["lo"]) for r in records[:4]]  # 4 dirty shards
        fsyncs = []
        real_fsync = _artifacts.os.fsync
        monkeypatch.setattr(
            _artifacts.os, "fsync",
            lambda fd: (fsyncs.append(fd), real_fsync(fd)),
        )
        index = refresh_sharded_index(backend, graph, affected)
        assert index.last_refresh_stats["shards_rewritten"] == 4
        assert len(fsyncs) == 4 + 2  # four segments, two manifests
        assert _dir_digest(directory) == _dir_digest(shard_dir)


class TestResumeCovering:
    def test_covering_takes_the_record_reaching_furthest(
        self, graph, tmp_path, monkeypatch
    ):
        writer = PropagationShardWriter(
            tmp_path / "prop", PropagationIndex(graph, THETA), SHARD_NODES
        )
        records = [
            {"name": "c", "lo": 40, "hi": 50},
            {"name": "b", "lo": 10, "hi": 20},  # nested inside "a"
            {"name": "a", "lo": 0, "hi": 40},
            {"name": "f", "lo": 50, "hi": 60, "failed_nodes": [55]},
        ]
        monkeypatch.setattr(writer._writer, "resume", lambda what: records)
        assert writer.covering(0, 8) is None  # nothing resumed yet
        writer.resume()
        assert [r["name"] for r in writer.covering(12, 45)] == ["a", "c"]
        assert [r["name"] for r in writer.covering(15, 18)] == ["a"]
        assert writer.covering(45, 52) is None  # only a failed record
        assert writer.covering(8, 8) == []


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
        return engine.serving()

    @pytest.fixture(scope="class")
    def directory(self, in_memory, tmp_path_factory):
        directory = tmp_path_factory.mktemp("parity") / "shards"
        save_sharded_index(
            in_memory.propagation_index, directory, shard_nodes=SHARD_NODES
        )
        return directory

    @staticmethod
    def _mapped(bundle, directory, cache_bytes, metrics=None):
        builder = PITEngine.from_dataset(
            bundle, summarizer="lrw", theta=THETA, seed=bundle.seed,
            metrics=metrics,
        )
        return builder.serving(
            load_sharded_index(directory, bundle.graph, cache_bytes=cache_bytes)
        )

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

    def test_crash_before_manifest_swap_then_rerun(
        self, graph, built_index, shard_dir, tmp_path
    ):
        directory = tmp_path / "crashed"
        n = graph.n_nodes
        work = {
            shard_filename(lo, min(lo + SHARD_NODES, n))
            for lo in range(0, n, SHARD_NODES)
        }

        def crash_at_swap(*, path, **_):
            # The manifest write that follows the first re-cut segment.
            if path.name == MANIFEST_NAME and any(
                p.name not in work for p in directory.glob("shard-*.bin")
            ):
                raise KeyboardInterrupt("injected crash before the swap")

        with _faults.fault("artifact.pre_replace", crash_at_swap):
            with pytest.raises(KeyboardInterrupt):
                PropagationIndex(graph, THETA).build_sharded(
                    directory, shard_nodes=SHARD_NODES
                )
        # The uniform build ranges stay published, complete and loadable.
        loaded = load_sharded_index(directory, graph)
        assert {shard_filename(lo, hi) for lo, hi in loaded.shards.ranges} == (
            work
        )
        for node in range(n):
            assert np.array_equal(
                loaded.entry(node).sources, built_index.entry(node).sources
            )
        rerun = PropagationIndex(graph, THETA)
        rerun.build_sharded(directory, shard_nodes=SHARD_NODES)
        assert rerun.last_build_stats.n_built == 0
        assert rerun.last_build_stats.n_resumed == n
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
            def __call__(self, *, nodes, **_):
                if SHARD_NODES + 1 in nodes:
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
        # Built this call: the published first shard; the failing shard
        # range is one build item and fails whole.
        assert excinfo.value.n_built == SHARD_NODES
        stats = index.last_build_stats
        assert stats is not None  # recorded before the raise
        assert stats.failed_nodes == tuple(range(SHARD_NODES, 2 * SHARD_NODES))
        assert stats.n_built == SHARD_NODES

    def test_keep_going_records_failed_nodes(self, graph, tmp_path):
        directory = tmp_path / "degraded"

        class Crash:
            def __call__(self, *, nodes, **_):
                if 3 in nodes:
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
        assert loaded.shards.failed_nodes == tuple(range(SHARD_NODES))
        assert loaded.entry(3).size == 0  # empty slot, not a crash

    def test_refresh_keeps_failed_slots_it_does_not_rebuild(
        self, graph, built_index, tmp_path
    ):
        directory = tmp_path / "degraded"

        def crash(*, nodes, **_):
            if 3 in nodes:
                raise OSError("injected crash")

        with _faults.fault("propagation.build_entry", crash):
            with pytest.warns(RuntimeWarning, match="stored as empty"):
                PropagationIndex(graph, THETA).build_sharded(
                    directory,
                    shard_nodes=SHARD_NODES,
                    max_retries=0,
                    strict=False,
                )
        index = load_sharded_index(directory, graph)
        failed = tuple(range(SHARD_NODES))  # node 3's whole shard range
        # A refresh of another shard carries node 3's shard, empty slots
        # and failure record included.
        index = refresh_sharded_index(
            index.shards, graph, [graph.n_nodes - 1]
        )
        assert index.shards.failed_nodes == failed
        assert index.entry(3).size == 0
        # A refresh rebuilds the failed nodes it covers for real.
        index = refresh_sharded_index(index.shards, graph, [3])
        assert index.shards.failed_nodes == failed[:3] + failed[4:]
        index = refresh_sharded_index(index.shards, graph, failed)
        assert index.shards.failed_nodes == ()
        assert dict(index.entry(3).gamma) == dict(built_index.entry(3).gamma)
        assert index.entry(3).size > 0

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
        victim = _segments(directory)[0]
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
        victim = _segments(shard_copy)[0]
        _patch_header(victim, 16, 1)  # lo 0 -> 1
        loaded = load_sharded_index(shard_copy, graph)
        with pytest.raises(
            ArtifactCorruptedError, match="shard header covers nodes"
        ):
            loaded.entry(0)

    def test_newer_header_version_rejected(self, graph, shard_copy):
        victim = _segments(shard_copy)[0]
        _patch_header(victim, 8, SHARD_FORMAT_VERSION + 1)
        loaded = load_sharded_index(shard_copy, graph)
        with pytest.raises(ArtifactCorruptedError, match="newer than"):
            loaded.entry(0)

    def test_zero_byte_shard(self, graph, shard_copy):
        _segments(shard_copy)[0].write_bytes(b"")
        loaded = load_sharded_index(shard_copy, graph)
        with pytest.raises(ArtifactCorruptedError, match="truncated"):
            loaded.entry(0)

    def test_shard_deleted_after_open(self, graph, shard_copy):
        loaded = load_sharded_index(shard_copy, graph)
        _segments(shard_copy)[0].unlink()
        with pytest.raises(ArtifactError, match="not found"):
            loaded.entry(0)

    def test_flipped_shard_payload_caught_by_verify(
        self, graph, shard_dir, tmp_path
    ):
        directory = tmp_path / "flipped"
        shutil.copytree(shard_dir, directory)
        victim = _segments(directory)[0]
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

    @pytest.mark.parametrize("shard_nodes", [SHARD_NODES // 2, 2 * SHARD_NODES])
    def test_shard_width_disagrees_with_meta(
        self, graph, built_index, shard_copy, shard_nodes
    ):
        # Shards are found by their records' ranges, never by
        # meta.shard_nodes: a sealed manifest whose width disagrees still
        # serves every node from contiguous records whose ranges match
        # their segment headers.
        _reseal_manifest(
            shard_copy,
            lambda payload: payload["meta"].update(shard_nodes=shard_nodes),
        )
        loaded = load_sharded_index(shard_copy, graph)
        ranges = loaded.shards.ranges
        assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
        assert ranges[-1][1] == graph.n_nodes
        for node in range(graph.n_nodes):
            assert np.array_equal(
                loaded.entry(node).sources, built_index.entry(node).sources
            )

    def test_moved_boundary_caught_by_segment_header(self, graph, shard_copy):
        # A manifest whose boundary disagrees with the segment headers is
        # contiguous, so it opens; paging either side of it refuses.
        def move(payload):
            first, second = payload["shards"][:2]
            first["hi"] += 1
            second["lo"] += 1

        _reseal_manifest(shard_copy, move)
        loaded = load_sharded_index(shard_copy, graph)
        lo, hi = loaded.shards.ranges[1]
        with pytest.raises(
            ArtifactCorruptedError, match="shard header covers nodes"
        ):
            loaded.entry(lo)

    def test_empty_shard_range_rejected(self, graph, shard_copy):
        def empty(payload):
            record = dict(payload["shards"][0], hi=0)
            payload["shards"].insert(0, record)

        _reseal_manifest(shard_copy, empty)
        with pytest.raises(ArtifactCorruptedError, match="empty shard range"):
            load_sharded_index(shard_copy, graph)

    def test_v1_segment_refused(self, graph, shard_copy):
        victim = _segments(shard_copy)[0]
        _patch_header(victim, 8, 1)
        loaded = load_sharded_index(shard_copy, graph)
        with pytest.raises(ArtifactCorruptedError, match="rebuild"):
            loaded.entry(0)

    def test_v1_manifest_refused(self, graph, shard_copy):
        # Version-1 manifests carry no shard_format in their meta.
        _reseal_manifest(
            shard_copy, lambda payload: payload["meta"].pop("shard_format")
        )
        with pytest.raises(ArtifactCorruptedError, match="rebuild"):
            load_sharded_index(shard_copy, graph)


class TestPagingAndAccounting:
    def test_lru_eviction_order_under_budget(self, graph, shard_dir):
        ranges = MmapShardBackend(shard_dir, graph).ranges
        assert len(ranges) >= 4
        sizes = _shard_sizes(shard_dir)[:3]
        (lo0, _), (lo1, hi1), (lo2, _) = ranges[:3]
        # Fits shards 0+1, but admitting shard 2 must evict the LRU one.
        backend = MmapShardBackend(
            shard_dir, graph, cache_bytes=sum(sizes) - 1
        )
        backend.get(lo0)                    # shard 0 in
        backend.get(lo1)                    # shard 1 in
        backend.get(lo0)                    # bump shard 0
        backend.get(lo2)                    # shard 2 in -> evicts shard 1
        stats = backend.cache_stats()
        assert stats.evictions >= 1
        assert backend.resident_bytes() <= backend._cache.max_bytes
        # Shard 0 was bumped before the eviction: still a hit.
        hits_before = backend.cache_stats().hits
        backend.get(lo1 - 1)
        assert backend.cache_stats().hits == hits_before + 1
        # Shard 1 was the LRU victim: a miss that re-maps it.
        misses_before = backend.cache_stats().misses
        backend.get(hi1 - 1)
        assert backend.cache_stats().misses == misses_before + 1

    def test_resident_bytes_stay_bounded(self, graph, shard_dir):
        budget = int(max(_shard_sizes(shard_dir)) * 2.5)
        backend = MmapShardBackend(shard_dir, graph, cache_bytes=budget)
        for node in range(graph.n_nodes):
            backend.get(node)
            assert backend.resident_bytes() <= budget

    def test_mapped_vs_resident_accounting(self, graph, built_index, shard_dir):
        loaded = load_sharded_index(shard_dir, graph, cache_bytes=1 << 20)
        assert loaded.memory_bytes() == 0  # nothing paged in yet
        total_storage = sum(
            built_index.entry(n).storage_bytes() for n in range(graph.n_nodes)
        )
        assert loaded.mapped_bytes() > total_storage  # + headers/offsets
        entry = loaded.entry(0)
        assert entry.memory_bytes() == 0  # nothing selected yet
        # Only the Γ* arrays selected from the mapped flags are heap.
        n_marked = entry.marked_array.size
        assert entry.memory_bytes() == 16 * n_marked
        assert entry.storage_bytes() == built_index.entry(0).storage_bytes()
        assert loaded.memory_bytes() > 0  # one shard now charged resident
        assert loaded.memory_bytes() <= 1 << 20

    def test_mapped_arrays_read_only(self, graph, built_index, shard_dir):
        # Room for shard 0 alone: paging shard 1 in evicts it.
        backend = MmapShardBackend(
            shard_dir, graph, cache_bytes=_shard_sizes(shard_dir)[0]
        )
        (lo0, hi0), (lo1, _) = backend.ranges[:2]
        node = next(
            n for n in range(lo0, hi0) if built_index.entry(n).marked
        )
        first = backend.get(node)
        backend.get(lo1)
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
        ).serving(
            load_sharded_index(directory, bundle.graph, cache_bytes=1 << 20)
        )
        engine.search(3, "phone", k=3)
        snapshot = engine.metrics_snapshot()
        assert "index.shard.resident_bytes" in snapshot.gauges
        assert snapshot.gauges["propagation.index_mapped_bytes"] > 0
