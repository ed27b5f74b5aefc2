"""Precompute artifacts and the answer tier: mined, warm, and bit-exact.

Everything the head-query precompute pipeline promises is checked at the
library level here: trace mining (normalization pooling, bad-record
refusal), deterministic artifacts, checksummed persistence, validation
against the serving data, plan/answer adoption, and the three-tier
lookup's hit/miss/write-through/invalidate/demote behavior. The
socket-level counterpart lives in ``tests/serve/test_answer_cache.py``.
"""

import json

import pytest

from repro.core import (
    PITEngine,
    ServingEngine,
    build_precompute,
    load_precompute,
    save_precompute,
)
from repro.core.precompute import (
    answer_entry,
    mine_trace,
    plan_from_record,
    summaries_fingerprint,
    validate_precompute,
)
from repro.datasets import data_2k, generate_workload, replay_requests
from repro.exceptions import (
    ArtifactCorruptedError,
    ConfigurationError,
)
from repro.obs import MetricsRegistry

WORK_FIELDS = (
    "topics_considered",
    "topics_pruned",
    "entries_probed",
    "expansion_rounds",
    "representatives_touched",
)


@pytest.fixture(scope="module")
def built():
    """A fully built engine over a small bundle (shared, read-only)."""
    bundle = data_2k(seed=7, n_nodes=130, with_corpus=False)
    engine = PITEngine.from_dataset(bundle, summarizer="rcl", seed=7)
    engine.propagation_index.build_all(workers=1)
    engine.build_summaries()
    return bundle, engine


@pytest.fixture(scope="module")
def trace_records(built):
    bundle, _ = built
    workload = generate_workload(bundle, n_queries=5, n_users=4, seed=7)
    return replay_requests(workload, n_requests=150, k=5, skew=1.1, seed=7)


def serving_engine(built, **kwargs):
    bundle, engine = built
    return ServingEngine(
        bundle.graph, bundle.topic_index, engine.summaries,
        engine.propagation_index, **kwargs,
    )


@pytest.fixture(scope="module")
def artifact(built, trace_records):
    return build_precompute(
        serving_engine(built), trace_records,
        top_queries=4, top_answers=10, default_k=5,
    )


def work_tuple(stats):
    return tuple(getattr(stats, f) for f in WORK_FIELDS)


class TestMineTrace:
    def test_counts_and_stats(self, trace_records):
        queries, triples, stats = mine_trace(trace_records, default_k=5)
        assert stats.n_records == len(trace_records)
        assert stats.n_distinct_queries == len(queries)
        assert stats.n_distinct_triples == len(triples)
        assert sum(t.count for t in queries.values()) == stats.n_records
        assert sum(t.count for t in triples.values()) == stats.n_records

    def test_spelling_variants_pool_into_one_key(self):
        # Case, keyword order, and duplicates all normalize away - the
        # whole point of the normalized plan-cache key.
        records = [
            {"user": 1, "query": "Phone Camera", "k": 5},
            {"user": 1, "query": "camera phone", "k": 5},
            {"user": 1, "query": "CAMERA camera phone", "k": 5},
            {"user": 2, "query": "camera phone", "k": 5},
        ]
        queries, triples, stats = mine_trace(records)
        assert len(queries) == 1
        (key, tally), = queries.items()
        assert key == (("camera", "phone"), "all", 5)
        assert tally.count == 4
        assert len(triples) == 2  # two users, one normalized query

    def test_k_defaults_and_separates_keys(self):
        records = [
            {"user": 1, "query": "phone"},
            {"user": 1, "query": "phone", "k": 3},
        ]
        queries, _, _ = mine_trace(records, default_k=10)
        assert {key[2] for key in queries} == {10, 3}

    def test_reads_jsonl_from_disk(self, tmp_path, trace_records):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in trace_records[:20]),
            encoding="utf-8",
        )
        _, _, stats = mine_trace(path, default_k=5)
        assert stats.n_records == 20

    @pytest.mark.parametrize("record", [
        {"user": 1},                               # no query
        {"user": 1, "query": ""},                  # empty query
        {"query": "phone"},                        # no user
        {"user": -1, "query": "phone"},            # negative user
        {"user": True, "query": "phone"},          # bool is not a user id
        {"user": 1, "query": "phone", "k": 0},     # k out of domain
        {"user": 1, "query": "phone", "k": True},  # bool is not a k
        "not-an-object",
    ])
    def test_bad_records_refused(self, record):
        with pytest.raises(ConfigurationError):
            mine_trace([record])

    def test_missing_trace_file_refused(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            mine_trace(tmp_path / "missing.jsonl")

    def test_corrupt_jsonl_line_refused(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"user": 1, "query": "phone"}\n{oops\n')
        with pytest.raises(ConfigurationError, match="unreadable"):
            mine_trace(path)


class TestArtifactBuildAndPersist:
    def test_build_is_deterministic(self, built, trace_records, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            art = build_precompute(
                serving_engine(built), trace_records,
                top_queries=4, top_answers=10, default_k=5,
            )
            save_precompute(art, path)
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip(self, artifact, tmp_path):
        path = tmp_path / "precompute.json"
        save_precompute(artifact, path)
        loaded = load_precompute(path)
        assert loaded.signature == artifact.signature
        assert loaded.theta == artifact.theta
        assert loaded.summaries_fingerprint == artifact.summaries_fingerprint
        assert loaded.plans == artifact.plans
        assert loaded.answers == artifact.answers
        assert loaded.trace == artifact.trace

    def test_bit_flip_refused(self, artifact, tmp_path):
        path = tmp_path / "precompute.json"
        save_precompute(artifact, path)
        text = path.read_text()
        needle = '"k": 5'
        assert needle in text
        path.write_text(text.replace(needle, '"k": 6', 1))
        with pytest.raises(ArtifactCorruptedError):
            load_precompute(path)

    def test_truncation_refused(self, artifact, tmp_path):
        path = tmp_path / "precompute.json"
        save_precompute(artifact, path)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(ArtifactCorruptedError):
            load_precompute(path)

    def test_memory_hint_positive(self, artifact):
        assert artifact.memory_hint_bytes() > 0

    def test_memory_hint_is_the_answer_tier_charge(
        self, built, trace_records
    ):
        answers_only = build_precompute(
            serving_engine(built), trace_records,
            top_queries=0, top_answers=6, default_k=5,
        )
        engine = serving_engine(built, answer_cache_bytes=1 << 20)
        assert engine.warm_from_precompute(answers_only)["answers"] == 6
        assert answers_only.memory_hint_bytes() == (
            engine.tier_stats()["answers"].current_bytes
        )

    def test_top_zero_disables_each_half(self, built, trace_records):
        no_plans = build_precompute(
            serving_engine(built), trace_records,
            top_queries=0, top_answers=3, default_k=5,
        )
        assert no_plans.plans == [] and len(no_plans.answers) == 3
        no_answers = build_precompute(
            serving_engine(built), trace_records,
            top_queries=3, top_answers=0, default_k=5,
        )
        assert len(no_answers.plans) == 3 and no_answers.answers == []


class TestValidate:
    def test_matching_engine_accepted(self, built, artifact):
        bundle, engine = built
        validate_precompute(
            artifact, bundle.graph,
            engine.propagation_index.theta, engine.summaries,
        )

    def test_wrong_graph_refused(self, built, artifact):
        _, engine = built
        other = data_2k(seed=7, n_nodes=90, with_corpus=False)
        with pytest.raises(ConfigurationError, match="graph"):
            validate_precompute(
                artifact, other.graph,
                engine.propagation_index.theta, engine.summaries,
            )

    def test_wrong_theta_refused(self, built, artifact):
        bundle, engine = built
        with pytest.raises(ConfigurationError, match="theta"):
            validate_precompute(
                artifact, bundle.graph, 0.5, engine.summaries,
            )

    def test_different_summaries_refused(self, built, artifact):
        bundle, engine = built
        other = PITEngine.from_dataset(bundle, summarizer="rcl", seed=99)
        other.build_summaries()
        assert summaries_fingerprint(other.summaries) != (
            artifact.summaries_fingerprint
        )
        with pytest.raises(ConfigurationError, match="summaries"):
            validate_precompute(
                artifact, bundle.graph,
                engine.propagation_index.theta, other.summaries,
            )


class TestPlanAndAnswerRecords:
    def test_rebuilt_plan_searches_identically(self, built, artifact):
        # A plan round-tripped through JSON must drive searches to the
        # same bytes as a freshly compiled one (JSON floats round-trip
        # doubles exactly via repr).
        assert artifact.plans
        cold = serving_engine(built)
        warm = serving_engine(built)
        for record in artifact.plans:
            assert warm._searcher.adopt_plan(plan_from_record(record))
            query = " ".join(record["keywords"])
            for user in (3, 11, 40):
                got = warm.search(user, query, k=record["k"], with_stats=True)
                want = cold.search(user, query, k=record["k"], with_stats=True)
                assert got[0] == want[0]
                assert work_tuple(got[1]) == work_tuple(want[1])

    def test_answer_entry_reconstructs_search_output(self, built, artifact):
        assert artifact.answers
        cold = serving_engine(built)
        for record in artifact.answers:
            key, (results, work) = answer_entry(record)
            user, (keywords, _mode), k = key
            want_results, want_stats = cold.search(
                user, " ".join(keywords), k, with_stats=True
            )
            assert list(results) == want_results
            assert work == work_tuple(want_stats)


class TestAnswerTier:
    def test_miss_then_hit_is_bit_exact(self, built):
        engine = serving_engine(built, answer_cache_bytes=1 << 20)
        first = engine.search(3, "phone", k=5, with_stats=True)
        second = engine.search(3, "phone", k=5, with_stats=True)
        assert second[0] == first[0]
        assert work_tuple(second[1]) == work_tuple(first[1])
        stats = engine.tier_stats()["answers"]
        assert stats.misses == 1 and stats.hits == 1

    def test_hit_reports_no_cache_delta_work(self, built):
        engine = serving_engine(built, answer_cache_bytes=1 << 20)
        engine.search(3, "phone", k=5)
        before = engine.tier_stats()
        engine.search(3, "phone", k=5)
        after = engine.tier_stats()
        # A cached answer did no plan work this call.
        assert (after["plans"].hits, after["plans"].misses) == (
            before["plans"].hits, before["plans"].misses
        )
        assert after["answers"].hits == before["answers"].hits + 1

    def test_key_normalization_shares_answers(self, built):
        engine = serving_engine(built, answer_cache_bytes=1 << 20)
        engine.search(3, "Phone  CAMERA", k=5)
        engine.search(3, "camera phone", k=5)
        stats = engine.tier_stats()["answers"]
        assert stats.n_items == 1
        assert stats.hits == 1

    def test_batch_partitions_hits_and_misses(self, built):
        engine = serving_engine(built, answer_cache_bytes=1 << 20)
        warm = [(3, "phone"), (11, "camera")]
        for user, query in warm:
            engine.search(user, query, k=5)
        requests = [(40, "phone"), (3, "phone"), (11, "camera"), (3, "music")]
        cold = serving_engine(built)
        got = engine.search_batch(requests, k=5)
        want = cold.search_batch(requests, k=5)
        assert got == want
        stats = engine.tier_stats()["answers"]
        assert stats.hits == 2  # the two warm pairs
        # The two cold requests were written through.
        assert engine.search(40, "phone", k=5) == want[0]
        assert engine.tier_stats()["answers"].hits == 3

    def test_invalidate_all_and_by_user(self, built):
        engine = serving_engine(built, answer_cache_bytes=1 << 20)
        for user, query in ((3, "phone"), (11, "phone"), (3, "camera")):
            engine.search(user, query, k=5)
        assert engine.invalidate_answers(users=[3]) == 2
        assert engine.tier_stats()["answers"].n_items == 1
        assert engine.invalidate_answers() == 1
        assert engine.tier_stats()["answers"].n_items == 0
        # Disabled tier: the seam is a harmless no-op.
        assert serving_engine(built).invalidate_answers() == 0

    def test_warm_from_precompute_counts_and_skips_resident(
        self, built, artifact
    ):
        engine = serving_engine(built, answer_cache_bytes=1 << 20)
        counts = engine.warm_from_precompute(artifact)
        assert counts["plans"] == len(artifact.plans)
        assert counts["answers"] == len(artifact.answers)
        # Everything warm is already resident: a second warm adopts nothing.
        again = engine.warm_from_precompute(artifact)
        assert again == {"plans": 0, "answers": 0}

    def test_warm_without_answer_tier_still_adopts_plans(
        self, built, artifact
    ):
        engine = serving_engine(built)
        counts = engine.warm_from_precompute(artifact)
        assert counts["plans"] == len(artifact.plans)
        assert counts["answers"] == 0

    def test_warm_refuses_mismatched_artifact(self, built, artifact):
        import dataclasses

        engine = serving_engine(built, answer_cache_bytes=1 << 20)
        wrong = dataclasses.replace(artifact, summaries_fingerprint="0" * 64)
        with pytest.raises(ConfigurationError, match="summaries"):
            engine.warm_from_precompute(wrong)
        assert engine.tier_stats()["answers"].n_items == 0

    def test_eviction_demotes_into_plan_tier(self, built):
        # An answer tier far smaller than the working set: later answers
        # must evict earlier ones, and each eviction must bump the
        # evicted query's compiled plan in the plan tier. (A single k=5
        # answer is charged ~1.2 KB - objects plus ~530 wire bytes - so
        # 2000 holds exactly one while nine always overflow it.)
        engine = serving_engine(built, answer_cache_bytes=2000)
        registry = MetricsRegistry()
        engine.set_metrics(registry)
        queries = ["phone", "camera", "music"]
        for user in (3, 11, 40):
            for query in queries:
                engine.search(user, query, k=5)
        answer_stats = engine.tier_stats()["answers"]
        assert answer_stats.evictions > 0
        engine.publish_tier_gauges(registry)
        snapshot = registry.snapshot()
        assert snapshot.gauges["cache.tier.answers.demotions"] > 0
        assert (
            snapshot.gauges["cache.tier.answers.demotions"]
            == answer_stats.evictions
        )
        # Demotion preserved the plans: every query still has its
        # compiled plan resident despite the answer churn.
        assert engine.tier_stats()["plans"].n_items == len(queries)

    def test_tier_stats_names_configured_tiers_only(self, built):
        engine = serving_engine(built, answer_cache_bytes=1 << 20)
        tiers = engine.tier_stats()
        assert "answers" in tiers and "plans" in tiers
        assert "entries" not in tiers  # not configured in this engine
        engine.search(3, "phone", k=5)
        assert engine.tier_stats()["answers"].n_items == 1

    def test_generation_stamp_published(self, built):
        engine = serving_engine(built, answer_cache_bytes=1 << 20)
        engine.set_reload_generation(4)
        registry = MetricsRegistry()
        engine.publish_tier_gauges(registry)
        assert registry.snapshot().gauges["cache.tier.generation"] == 4
