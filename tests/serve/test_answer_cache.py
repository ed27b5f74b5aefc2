"""Answer tier behind real sockets: warm hits, hot swaps, no stale answers.

The invalidation design is structural - every ``/admin/reload`` swap
builds a *new* engine whose tiers start empty and re-warm from the
precompute artifact - so the property under test is end-to-end: across a
generation bump, every byte the daemon returns must equal what a fresh,
cache-less engine computes from the artifacts on disk. A daemon that
kept serving the old engine's answer tier after a swap would fail the
moment the artifacts differ; here we prove the plumbing by swapping to a
*different* (re-built) summaries artifact mid-session and requiring the
responses to track the artifact, not the cache.
"""

from __future__ import annotations

import json
import shutil
import socket

import pytest

from repro.core import (
    GraphDelta,
    ServingEngine,
    affected_nodes,
    apply_delta_to_graph,
    build_precompute,
    save_precompute,
    serve_facade,
)
from repro.core.search import normalized_query_key
from repro.datasets import generate_workload, replay_requests

WORK_FIELDS = (
    "topics_considered",
    "topics_pruned",
    "entries_probed",
    "expansion_rounds",
    "representatives_touched",
)


def fresh_engine(stack, sums_path=None):
    """An uncached engine straight off the artifacts - the truth oracle."""
    return ServingEngine.from_artifacts(
        stack.bundle.graph,
        stack.bundle.topic_index,
        sums_path if sums_path is not None else stack.sums_path,
        index_dir=stack.index_dir,
    )


def expected_payload(engine, record):
    results, stats = engine.search(
        record["user"], record["query"], record["k"], with_stats=True
    )
    return (
        [
            {"topic_id": r.topic_id, "label": r.label,
             "influence": r.influence}
            for r in results
        ],
        {f: getattr(stats, f) for f in WORK_FIELDS},
    )


@pytest.fixture(scope="module")
def replay(stacks, tmp_path_factory):
    """A Zipf replay + mined precompute artifact over the seed-7 stack."""
    stack = stacks[7]
    directory = tmp_path_factory.mktemp("answer_cache")
    workload = generate_workload(
        stack.bundle, n_queries=5, n_users=4, seed=7
    )
    records = replay_requests(
        workload, n_requests=120, k=5, skew=1.1, seed=7
    )
    trace_path = directory / "trace.jsonl"
    trace_path.write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
    )
    artifact = build_precompute(
        fresh_engine(stack), trace_path, top_queries=4, top_answers=10,
        default_k=5,
    )
    precompute_path = directory / "precompute.json"
    save_precompute(artifact, precompute_path)
    return {
        "stack": stack,
        "records": records,
        "trace_path": trace_path,
        "precompute_path": precompute_path,
        "directory": directory,
    }


@pytest.fixture(scope="module")
def alt_summaries(replay, alt_sums_path):
    """A *different* summarization of the same graph + matching precompute.

    Re-clustering with another seed moves representatives, so answers
    cached over the original summaries are genuinely wrong against these
    - which is what makes the staleness tests below meaningful.
    """
    stack = replay["stack"]
    directory = replay["directory"]
    sums2_path = alt_sums_path
    oracle2 = fresh_engine(stack, sums2_path)
    artifact2 = build_precompute(
        oracle2, replay["trace_path"], top_queries=4, top_answers=10,
        default_k=5,
    )
    precompute2_path = directory / "precompute2.json"
    save_precompute(artifact2, precompute2_path)
    return {"sums_path": sums2_path, "precompute_path": precompute2_path}


class TestWarmServing:
    def test_warm_daemon_hits_and_stays_bit_exact(self, replay, make_daemon):
        stack = replay["stack"]
        daemon = make_daemon(
            answer_cache_bytes=8 << 20,
            precompute_path=replay["precompute_path"],
        )
        oracle = fresh_engine(stack)
        for record in replay["records"][:60]:
            status, body, _ = daemon.search(
                record["user"], record["query"], k=record["k"]
            )
            assert status == 200
            want_results, want_stats = expected_payload(oracle, record)
            assert body["results"] == want_results
            assert body["stats"] == want_stats
        # Tier gauges are published at snapshot time; scraping
        # /metrics (as an operator would) materializes them.
        status, text, _ = daemon.request("GET", "/metrics")
        assert status == 200
        snapshot = daemon.registry.snapshot()
        assert snapshot.counters.get("cache.tier.answers.hits", 0) > 0
        assert snapshot.gauges.get("cache.tier.answers.items", 0) > 0
        assert "repro_cache_tier_answers_hits" in str(text)


class TestNoStaleAcrossSwap:
    def test_generation_bump_never_serves_stale(
        self, replay, alt_summaries, make_daemon
    ):
        """Swap to *different* summaries mid-session: answers must track.

        The second artifact is a re-summarization with another seed, so
        cached generation-1 answers are genuinely wrong afterwards - any
        tier leak across the swap produces a visible mismatch.
        """
        stack = replay["stack"]
        sums2_path = alt_summaries["sums_path"]
        precompute2_path = alt_summaries["precompute_path"]
        oracle2 = fresh_engine(stack, sums2_path)

        daemon = make_daemon(
            answer_cache_bytes=8 << 20,
            precompute_path=replay["precompute_path"],
        )
        oracle1 = fresh_engine(stack)
        probes = replay["records"][:30]
        for record in probes:
            status, body, _ = daemon.search(
                record["user"], record["query"], k=record["k"]
            )
            assert status == 200
            assert body["generation"] == 1
            want_results, want_stats = expected_payload(oracle1, record)
            assert body["results"] == want_results

        status, body, _ = daemon.request(
            "POST", "/admin/reload",
            {"summaries": str(sums2_path),
             "precompute": str(precompute2_path)},
        )
        assert status == 200
        assert body["generation"] == 2

        changed = 0
        for record in probes:
            status, body, _ = daemon.search(
                record["user"], record["query"], k=record["k"]
            )
            assert status == 200
            assert body["generation"] == 2
            want_results, want_stats = expected_payload(oracle2, record)
            assert body["results"] == want_results
            assert body["stats"] == want_stats
            old_results, _ = expected_payload(oracle1, record)
            if old_results != want_results:
                changed += 1
        # The swap must have been observable - otherwise this test
        # proved nothing about staleness.
        assert changed > 0
        status, _, _ = daemon.request("GET", "/metrics")
        assert status == 200
        snapshot = daemon.registry.snapshot()
        assert snapshot.gauges.get("cache.tier.generation") == 2

    def test_mismatched_precompute_reload_refused(
        self, replay, alt_summaries, make_daemon
    ):
        """Swapping summaries without the precompute fails; old gen serves."""
        sums2_path = alt_summaries["sums_path"]

        daemon = make_daemon(
            answer_cache_bytes=8 << 20,
            precompute_path=replay["precompute_path"],
        )
        record = replay["records"][0]
        status, before, _ = daemon.search(
            record["user"], record["query"], k=record["k"]
        )
        assert status == 200 and before["generation"] == 1

        # New summaries + generation-1 precompute: fingerprints differ.
        status, body, _ = daemon.request(
            "POST", "/admin/reload", {"summaries": str(sums2_path)}
        )
        assert status == 400
        assert "precompute" in body["error"]["message"]

        status, after, _ = daemon.search(
            record["user"], record["query"], k=record["k"]
        )
        assert status == 200
        assert after["generation"] == 1
        assert after["results"] == before["results"]


def raw_search(daemon, record) -> bytes:
    """One ``POST /search`` over a raw socket: the response's exact bytes
    (status line, headers and body), read to EOF."""
    body = json.dumps(record).encode()
    head = (
        f"POST /search HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode()
    with socket.create_connection(("127.0.0.1", daemon.port), timeout=30) as s:
        s.sendall(head + body)
        chunks = []
        while True:
            chunk = s.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def oracle_response(engine, record, generation: int) -> bytes:
    """The whole response as serializing the full response object once
    would frame it - what every served variant must equal byte for byte."""
    results, body_stats = expected_payload(engine, record)
    body = (json.dumps({
        "user": record["user"], "query": record["query"], "k": record["k"],
        "results": results, "stats": body_stats, "generation": generation,
    }, sort_keys=True) + "\n").encode()
    return (
        f"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode() + body


def counter(daemon, name: str) -> int:
    return daemon.registry.snapshot().counters.get(name, 0)


class TestEncodedOnce:
    """Every ``/search`` success is the answer's stored wire bytes spliced
    into the response, whichever way the answer was produced."""

    #: The one answer the ``precompute_path`` fixture holds.
    RECORD = {"user": 3, "query": "phone", "k": 5}

    def test_every_serving_route_gives_identical_bytes(
        self, stack, precompute_path, make_daemon
    ):
        want = oracle_response(fresh_engine(stack), self.RECORD, 1)
        warm = make_daemon(
            answer_cache_bytes=8 << 20, precompute_path=precompute_path
        )
        from_precompute = raw_search(warm, self.RECORD)
        assert counter(warm, "serve.answered_inline") == 1

        cold = make_daemon(answer_cache_bytes=8 << 20)
        queued_miss = raw_search(cold, self.RECORD)
        assert counter(cold, "serve.answered_inline") == 0
        inline_hit = raw_search(cold, self.RECORD)
        assert counter(cold, "serve.answered_inline") == 1

        tier_off = raw_search(make_daemon(), self.RECORD)
        assert from_precompute == queued_miss == inline_hit == tier_off
        assert from_precompute == want

        status, _, _ = warm.request("POST", "/admin/reload", {})
        assert status == 200
        after_reload = raw_search(warm, self.RECORD)
        assert after_reload == want.replace(
            b'{"generation": 1, ', b'{"generation": 2, '
        )
        assert after_reload != want

    def test_computed_answer_encoded_once(self, replay, make_daemon,
                                          monkeypatch):
        calls = []
        real = serve_facade.encode_answer

        def counting(results, work):
            calls.append(tuple(results))
            return real(results, work)

        monkeypatch.setattr(serve_facade, "encode_answer", counting)
        records = replay["records"][:40]
        distinct = {
            (r["user"], normalized_query_key(r["query"]), r["k"])
            for r in records
        }
        cached = make_daemon(answer_cache_bytes=8 << 20)
        for record in records + records:
            assert cached.search(
                record["user"], record["query"], k=record["k"]
            )[0] == 200
        assert len(calls) == len(distinct)
        assert counter(cached, "cache.tier.answers.misses") == len(distinct)

        del calls[:]
        uncached = make_daemon()
        for record in records:
            assert uncached.search(
                record["user"], record["query"], k=record["k"]
            )[0] == 200
        assert len(calls) == len(records)


def live_bytes(engine) -> int:
    """The answer tier's resident bytes counted from its values: answer
    objects plus each one's stored wire fragment, which must be the
    encoding of the answer it sits beside."""
    total = 0
    for answer in engine._answers.values():
        assert answer.wire == serve_facade.encode_answer(
            answer.results, answer.work
        )
        total += (
            serve_facade._ANSWER_BASE_BYTES + len(answer.wire)
            + sum(serve_facade._ANSWER_RESULT_BYTES + len(r.label)
                  for r in answer.results)
        )
    return total


class TestAnswerTierAccounting:
    def test_charged_bytes_equal_live_bytes(self, replay, tmp_path):
        stack = replay["stack"]
        index_dir = tmp_path / "prop"
        shutil.copytree(stack.index_dir, index_dir)
        engine = ServingEngine.from_artifacts(
            stack.bundle.graph, stack.bundle.topic_index, stack.sums_path,
            index_dir=index_dir, answer_cache_bytes=8 << 20,
        )

        def charged():
            return engine.tier_stats()["answers"].current_bytes

        seeded = engine.warm_from_precompute(replay["precompute_path"])
        assert seeded["answers"] > 0
        assert charged() == live_bytes(engine)

        graph = stack.bundle.graph
        for record in replay["records"][:30]:
            engine.search(record["user"], record["query"], record["k"])
        for user in range(graph.n_nodes):  # some users no edit reaches
            engine.search(user, "phone", 5)
        assert engine.tier_stats()["answers"].misses > 0
        assert charged() == live_bytes(engine)

        # A delta that evicts some resident answers and keeps others.
        resident = {key[0] for key in engine._answers.keys()}
        sources, targets, _ = graph.edge_arrays()
        for edge in zip(sources.tolist(), targets.tolist()):
            delta = GraphDelta(deletes=(edge,))
            new_graph, application = apply_delta_to_graph(graph, delta)
            reachable = set(
                affected_nodes(graph, new_graph, application).tolist()
            )
            if 0 < len(resident & reachable) < len(resident):
                break
        else:
            pytest.fail("no edge splits the resident users")
        report = engine.apply_delta(delta)
        assert report["answers_invalidated"] > 0
        assert 0 < charged() == live_bytes(engine)
