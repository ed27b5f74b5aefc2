"""Unit tests for offline-artifact persistence."""

import numpy as np
import pytest

from repro.core import (
    PropagationIndex,
    TopicSummary,
    load_sharded_index,
    load_summaries,
    load_walk_index,
    save_sharded_index,
    save_summaries,
    save_walk_index,
)
from repro.exceptions import (
    ArtifactCorruptedError,
    ArtifactError,
    ConfigurationError,
    IndexNotBuiltError,
)
from repro.graph import SocialGraph, preferential_attachment_graph
from repro.walks import WalkIndex


@pytest.fixture
def graph():
    return preferential_attachment_graph(40, 3, seed=1)


class TestSummaries:
    def test_roundtrip(self, graph, tmp_path):
        summaries = {
            0: TopicSummary(0, {1: 0.5, 2: 0.25}),
            3: TopicSummary(3, {7: 1.0}),
        }
        path = tmp_path / "summaries.json"
        save_summaries(summaries, graph, path)
        loaded = load_summaries(path, graph)
        assert set(loaded) == {0, 3}
        assert loaded[0].weights == {1: 0.5, 2: 0.25}
        assert loaded[3].topic_id == 3

    def test_wrong_graph_rejected(self, graph, tmp_path):
        path = tmp_path / "summaries.json"
        save_summaries({0: TopicSummary(0, {1: 0.5})}, graph, path)
        other = SocialGraph(3, [(0, 1, 0.5)])
        with pytest.raises(ConfigurationError, match="built for a graph"):
            load_summaries(path, other)


class TestPropagationIndexPersistence:
    """Γ persists as shards: the in-memory index round-trips bit-exact."""

    def test_roundtrip_entries(self, graph, tmp_path):
        index = PropagationIndex(graph, 0.02).build_all()
        path = tmp_path / "prop"
        save_sharded_index(index, path, shard_nodes=16)
        loaded = load_sharded_index(path, graph)
        assert loaded.theta == index.theta
        assert loaded.n_cached == graph.n_nodes
        for node in (0, 5, 11):
            original = index.entry(node)
            restored = loaded.entry(node)
            assert restored.gamma == pytest.approx(original.gamma)
            assert restored.marked == original.marked
            assert restored.branches == original.branches

    def test_wrong_graph_rejected(self, graph, tmp_path):
        index = PropagationIndex(graph, 0.02).build_all()
        path = tmp_path / "prop"
        save_sharded_index(index, path)
        other = SocialGraph(3, [(0, 1, 0.5)])
        with pytest.raises(ConfigurationError):
            load_sharded_index(path, other)

    def test_fully_built_index_round_trips_exactly(self, graph, tmp_path):
        index = PropagationIndex(graph, 0.02, max_branches=5000).build_all()
        path = tmp_path / "prop_full"
        save_sharded_index(index, path, shard_nodes=16)
        loaded = load_sharded_index(path, graph)
        assert loaded.n_cached == graph.n_nodes
        # A mapped index charges paged-in bytes to memory_bytes(); its
        # full footprint is the shard files.
        assert loaded.mapped_bytes() == sum(
            shard.stat().st_size for shard in path.glob("shard-*.bin")
        )
        assert loaded.theta == index.theta
        assert loaded.max_branches == 5000
        assert loaded.strict == index.strict
        for node in graph.nodes:
            original = index.entry(node)
            restored = loaded.entry(node)
            # Exact equality: floats survive the shard round trip
            # bit-for-bit.
            assert dict(restored.gamma) == dict(original.gamma)
            assert restored.marked == original.marked
            assert restored.branches == original.branches


class TestWalkIndexPersistence:
    def test_roundtrip_walks_and_queries(self, graph, tmp_path):
        index = WalkIndex.built(graph, 4, 3, seed=2)
        path = tmp_path / "walks.npz"
        save_walk_index(index, path)
        loaded = load_walk_index(path, graph)
        assert loaded.walk_length == 4
        assert loaded.samples_per_node == 3
        for node in graph.nodes:
            original = index.walks_from(node)
            restored = loaded.walks_from(node)
            assert len(restored) == len(original)
            for a, b in zip(original, restored):
                assert a.path.tolist() == b.path.tolist()
                assert a.visit_counts.tolist() == b.visit_counts.tolist()
            assert (
                loaded.reverse_reachable(node).tolist()
                == index.reverse_reachable(node).tolist()
            )
        assert np.allclose(
            loaded.hitting_frequencies(), index.hitting_frequencies()
        )

    def test_unbuilt_index_rejected(self, graph, tmp_path):
        index = WalkIndex(graph, 3, 2)
        with pytest.raises(IndexNotBuiltError):
            save_walk_index(index, tmp_path / "walks.npz")

    def test_wrong_graph_rejected(self, graph, tmp_path):
        index = WalkIndex.built(graph, 3, 2, seed=1)
        path = tmp_path / "walks.npz"
        save_walk_index(index, path)
        other = SocialGraph(3, [(0, 1, 0.5)])
        with pytest.raises(ConfigurationError):
            load_walk_index(path, other)


class TestWalkIndexLayout:
    """The walk NPZ keeps its flat ``offsets/paths/counts/hit`` layout:
    record ``v * R + k`` is walk ``k`` of node ``v``."""

    def test_roundtrip_gives_identical_arrays_and_answers(self, graph, tmp_path):
        from repro.core.lrw import migration_matrix, select_representatives

        index = WalkIndex.built(graph, 4, 6, seed=5)
        path = tmp_path / "walks.npz"
        save_walk_index(index, path)
        loaded = load_walk_index(path, graph)
        assert np.array_equal(loaded.padded_paths(), index.padded_paths())
        assert np.array_equal(
            loaded.padded_visit_counts(), index.padded_visit_counts()
        )
        assert np.array_equal(
            loaded.hitting_frequencies(), index.hitting_frequencies()
        )
        assert loaded.memory_bytes() == index.memory_bytes()
        for node in graph.nodes:
            assert [r.steps_taken for r in loaded.walks_from(node)] == [
                r.steps_taken for r in index.walks_from(node)
            ]
            assert np.array_equal(
                loaded.reverse_reachable(node), index.reverse_reachable(node)
            )
        topic = list(range(0, 40, 3))
        for reinforcement in ("walk", "divrank"):
            reps = select_representatives(
                graph, topic, index, reinforcement=reinforcement
            )
            assert np.array_equal(reps, select_representatives(
                graph, topic, loaded, reinforcement=reinforcement
            ))
            assert np.array_equal(
                migration_matrix(index, topic, reps),
                migration_matrix(loaded, topic, reps),
            )

    def test_hand_built_flat_payload_loads(self, tmp_path):
        # 0 -> 1 -> 2, L = 2, R = 1: walks 0-1-2, 1-2 and the dead end 2.
        chain = SocialGraph(3, [(0, 1, 0.5), (1, 2, 0.5)])
        hit = np.zeros((3, 3))
        hit[1, 1] = hit[1, 2] = hit[2, 2] = 1.0
        path = tmp_path / "walks.npz"
        np.savez(
            path, n_nodes=np.asarray([3]), n_edges=np.asarray([2]),
            walk_length=np.asarray([2]), samples=np.asarray([1]),
            offsets=np.asarray([0, 3, 5, 6]),
            paths=np.asarray([0, 1, 2, 1, 2, 2]),
            counts=np.asarray([1, 1, 1, 1, 1, 1]),
            hit=hit,
        )
        loaded = load_walk_index(path, chain)
        assert [r.path.tolist() for r in loaded.walks_from(0)] == [[0, 1, 2]]
        assert [r.steps_taken for r in loaded.walks_from(1)] == [1]
        assert [r.steps_taken for r in loaded.walks_from(2)] == [0]
        assert loaded.padded_paths().tolist() == [
            [0, 1, 2], [1, 2, -1], [2, -1, -1],
        ]
        assert loaded.reverse_reachable(2).tolist() == [0, 1]
        assert loaded.hitting_frequency(2, 2) == 1.0
        save_walk_index(loaded, tmp_path / "again.npz")
        with np.load(tmp_path / "again.npz") as again:
            assert again["offsets"].tolist() == [0, 3, 5, 6]
            assert again["paths"].tolist() == [0, 1, 2, 1, 2, 2]

    @pytest.mark.parametrize("field,value", [
        ("offsets", np.asarray([0, 3, 5])),                 # too few records
        ("offsets", np.asarray([0, 3, 5, 7])),              # past the arrays
        ("offsets", np.asarray([0, 3, 3, 6])),              # empty walk
        ("offsets", np.asarray([0, 4, 5, 6])),              # longer than L + 1
        ("paths", np.asarray([1, 0, 2, 1, 2, 2])),          # wrong start node
        ("paths", np.asarray([0, 1, 9, 1, 2, 2])),          # unknown node id
        ("paths", np.asarray([0.0, 1.0, 2.0, 1.0, 2.0, 2.0])),  # not int ids
        ("counts", np.asarray([1, 1, 1, 1, 1])),            # short counts
        ("hit", np.zeros((2, 3))),                          # wrong H shape
    ])
    def test_inconsistent_payload_rejected(self, tmp_path, field, value):
        chain = SocialGraph(3, [(0, 1, 0.5), (1, 2, 0.5)])
        arrays = dict(
            n_nodes=np.asarray([3]), n_edges=np.asarray([2]),
            walk_length=np.asarray([2]), samples=np.asarray([1]),
            offsets=np.asarray([0, 3, 5, 6]),
            paths=np.asarray([0, 1, 2, 1, 2, 2]),
            counts=np.asarray([1, 1, 1, 1, 1, 1]),
            hit=np.zeros((3, 3)),
        )
        arrays[field] = value
        path = tmp_path / "walks.npz"
        np.savez(path, **arrays)
        with pytest.raises(ArtifactCorruptedError, match="inconsistent walk"):
            load_walk_index(path, chain)


class TestCorruptedArtifacts:
    """Damaged artifacts must surface as typed errors, never raw numpy
    / json / zipfile exceptions from deep inside a loader."""

    def test_truncated_walk_npz_rejected(self, graph, tmp_path):
        index = WalkIndex.built(graph, 3, 2, seed=1)
        path = tmp_path / "walks.npz"
        save_walk_index(index, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-40])
        with pytest.raises(ArtifactCorruptedError):
            load_walk_index(path, graph)

    def test_walk_npz_missing_arrays_rejected(self, graph, tmp_path):
        path = tmp_path / "walks.npz"
        np.savez(path, walk_length=np.asarray([3]))
        with pytest.raises(ArtifactCorruptedError, match="missing keys"):
            load_walk_index(path, graph)

    def test_summaries_json_missing_keys_rejected(self, graph, tmp_path):
        path = tmp_path / "summaries.json"
        path.write_text('{"n_nodes": 40}')
        with pytest.raises(ArtifactCorruptedError, match="missing keys"):
            load_summaries(path, graph)

    def test_summaries_invalid_json_rejected(self, graph, tmp_path):
        path = tmp_path / "summaries.json"
        path.write_text('{"summaries": [tru')
        with pytest.raises(ArtifactCorruptedError, match="unreadable JSON"):
            load_summaries(path, graph)

    def test_summaries_tampered_payload_rejected(self, graph, tmp_path):
        import json

        path = tmp_path / "summaries.json"
        save_summaries({0: TopicSummary(0, {1: 0.5})}, graph, path)
        payload = json.loads(path.read_text())
        payload["summaries"]["0"]["1"] = 0.99  # bump one summary weight
        path.write_text(json.dumps(payload))  # checksum now stale
        with pytest.raises(ArtifactCorruptedError, match="checksum mismatch"):
            load_summaries(path, graph)

    def test_missing_artifacts_typed_errors(self, graph, tmp_path):
        with pytest.raises(ArtifactError, match="not found"):
            load_sharded_index(tmp_path / "nope", graph)
        with pytest.raises(ArtifactError, match="not found"):
            load_walk_index(tmp_path / "nope.npz", graph)
        with pytest.raises(ArtifactError, match="not found"):
            load_summaries(tmp_path / "nope.json", graph)

    def test_newer_format_version_rejected(self, graph, tmp_path):
        import json

        path = tmp_path / "summaries.json"
        save_summaries({0: TopicSummary(0, {1: 0.5})}, graph, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ArtifactCorruptedError, match="newer than"):
            load_summaries(path, graph)
