"""Unit tests for the daemon's wire protocol and admission control."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.search import SearchResult, SearchStats
from repro.core.serve_facade import encode_answer
from repro.exceptions import (
    ArtifactCorruptedError,
    NodeNotFoundError,
    QueryError,
)
from repro.obs import MetricsRegistry
from repro.serve import AdmissionController, HttpError
from repro.serve.protocol import (
    MAX_K,
    SearchRequest,
    encode_response,
    error_body,
    error_for_exception,
    parse_delta_request,
    parse_reload_request,
    parse_search_request,
    results_payload,
)
from repro.topics import KeywordQuery


def _encode(payload) -> bytes:
    return json.dumps(payload).encode()


class TestParseSearchRequest:
    def test_minimal_valid(self):
        req = parse_search_request(
            _encode({"user": 3, "query": "phone"}), default_k=10
        )
        assert req.user == 3
        assert req.k == 10
        assert req.deadline_s is None
        assert req.query.raw == "phone"

    def test_all_fields(self):
        req = parse_search_request(
            _encode({"user": 0, "query": "alpha beta", "k": 3, "deadline_ms": 250}),
            default_k=10,
        )
        assert req.k == 3
        assert req.deadline_s == pytest.approx(0.25)

    def test_unknown_fields_ignored(self):
        req = parse_search_request(
            _encode({"user": 1, "query": "phone", "future_flag": True}),
            default_k=5,
        )
        assert req.user == 1

    @pytest.mark.parametrize("body", [
        b"not json",
        b"\xff\xfe binary",
        _encode([1, 2, 3]),
        _encode("just a string"),
    ])
    def test_malformed_bodies_are_400(self, body):
        with pytest.raises(HttpError) as exc:
            parse_search_request(body, default_k=10)
        assert exc.value.status == 400
        assert exc.value.error_type == "MalformedRequest"

    @pytest.mark.parametrize("payload", [
        {"query": "phone"},                       # missing user
        {"user": "3", "query": "phone"},          # user not an int
        {"user": True, "query": "phone"},         # bool is not an int here
        {"user": -1, "query": "phone"},           # negative user
        {"user": 1},                          # missing query
        {"user": 1, "query": ""},             # empty query
        {"user": 1, "query": 5},              # non-string query
        {"user": 1, "query": "phone", "k": 0},    # k out of range
        {"user": 1, "query": "phone", "k": 10**9},
        {"user": 1, "query": "phone", "k": "5"},
        {"user": 1, "query": "phone", "deadline_ms": 0},
        {"user": 1, "query": "phone", "deadline_ms": -5},
        {"user": 1, "query": "phone", "deadline_ms": "fast"},
    ])
    def test_invalid_fields_are_400(self, payload):
        with pytest.raises(HttpError) as exc:
            parse_search_request(_encode(payload), default_k=10)
        assert exc.value.status == 400

    @pytest.mark.parametrize("literal", [
        "NaN", "Infinity", "-Infinity", "1e309", "1" + "0" * 400,
    ])
    def test_non_finite_deadline_is_400(self, literal):
        # json.loads parses these into NaN / +-inf (or an int past the
        # float range); none is a usable deadline.
        body = (
            '{"user": 1, "query": "phone", "deadline_ms": %s}' % literal
        ).encode()
        with pytest.raises(HttpError) as exc:
            parse_search_request(body, default_k=10)
        assert exc.value.status == 400
        assert exc.value.error_type == "ValidationError"

    def test_unusable_query_is_typed_400(self):
        with pytest.raises(HttpError) as exc:
            parse_search_request(
                _encode({"user": 1, "query": "&&& !!!"}), default_k=10
            )
        assert exc.value.status == 400
        assert exc.value.error_type == "QueryError"


class TestParseReloadRequest:
    def test_empty_body_means_reload_configured_paths(self):
        assert parse_reload_request(b"") == {}
        assert parse_reload_request(_encode({})) == {}

    def test_overrides_pass_through(self):
        overrides = parse_reload_request(
            _encode({"summaries": "/tmp/s.json", "index_dir": "/tmp/p"})
        )
        assert overrides == {"summaries": "/tmp/s.json", "index_dir": "/tmp/p"}

    def test_unknown_key_rejected(self):
        with pytest.raises(HttpError) as exc:
            parse_reload_request(_encode({"indexdir": "/x"}))
        assert exc.value.status == 400

    def test_index_key_rejected_listing_allowed_keys(self):
        # Γ reloads only as a shard directory: the old single-file key is
        # an unknown field, refused with the keys that are allowed.
        with pytest.raises(HttpError) as exc:
            parse_reload_request(_encode({"index": "/tmp/p.npz"}))
        assert exc.value.status == 400
        assert exc.value.error_type == "ValidationError"
        assert "['index']" in str(exc.value)
        assert "allowed: ['index_dir', 'precompute', 'summaries']" in str(
            exc.value
        )

    def test_non_string_path_rejected(self):
        with pytest.raises(HttpError):
            parse_reload_request(_encode({"index_dir": 5}))


class TestErrorMapping:
    def test_http_error_keeps_status(self):
        status, body = error_for_exception(
            HttpError(429, "Overloaded", "busy")
        )
        assert status == 429
        assert body["error"]["type"] == "Overloaded"

    def test_artifact_corruption_is_409(self):
        status, body = error_for_exception(
            ArtifactCorruptedError("checksum mismatch")
        )
        assert status == 409
        assert body["error"]["type"] == "ArtifactCorruptedError"

    def test_client_errors_are_400(self):
        for exc in (QueryError("bad"), NodeNotFoundError(9, 5)):
            status, body = error_for_exception(exc)
            assert status == 400
            assert body["error"]["type"] == type(exc).__name__

    def test_unexpected_exception_is_opaque_500(self):
        status, body = error_for_exception(
            ZeroDivisionError("secret internal detail")
        )
        assert status == 500
        assert body["error"]["type"] == "InternalError"
        assert "secret" not in body["error"]["message"]


class TestEncodeResponse:
    def _split(self, raw: bytes):
        head, _, body = raw.partition(b"\r\n\r\n")
        return head.decode().split("\r\n"), body

    def test_json_framing(self):
        lines, body = self._split(encode_response(200, {"a": 1}))
        assert lines[0] == "HTTP/1.1 200 OK"
        assert f"Content-Length: {len(body)}" in lines
        assert "Connection: keep-alive" in lines
        assert json.loads(body) == {"a": 1}

    def test_text_payload_and_close(self):
        lines, body = self._split(
            encode_response(
                200, "metric 1\n",
                content_type="text/plain; version=0.0.4",
                keep_alive=False,
            )
        )
        assert "Content-Type: text/plain; version=0.0.4" in lines
        assert "Connection: close" in lines
        assert body == b"metric 1\n"

    def test_retry_after_header(self):
        lines, _ = self._split(
            encode_response(
                429, error_body("Overloaded", "x"), retry_after=1
            )
        )
        assert "Retry-After: 1" in lines


def _oracle_body(request, results, stats, generation) -> bytes:
    """The response body as the whole response object serialized at
    once - the encoding the spliced body must reproduce byte for byte."""
    payload = {
        "user": request.user,
        "query": request.query.raw,
        "k": request.k,
        "results": [
            {
                "topic_id": r.topic_id,
                "label": r.label,
                "influence": r.influence,
            }
            for r in results
        ],
        "stats": {
            "topics_considered": stats.topics_considered,
            "topics_pruned": stats.topics_pruned,
            "entries_probed": stats.entries_probed,
            "expansion_rounds": stats.expansion_rounds,
            "representatives_touched": stats.representatives_touched,
        },
        "generation": generation,
    }
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def _spliced_body(request, results, stats, generation) -> bytes:
    work = (
        stats.topics_considered, stats.topics_pruned, stats.entries_probed,
        stats.expansion_rounds, stats.representatives_touched,
    )
    return results_payload(request, encode_answer(results, work), generation)


_LABELS = st.text(
    alphabet=st.characters(codec=None, exclude_categories=("Cs",)),
    max_size=24,
) | st.sampled_from(['say "hi"', "back\\slash", "tab\tnl\n\x00\x1f",
                     "caf\u00e9", "\u8a71\u984c", "\U0001f4f1 phone", ""])
_INFLUENCE = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
_RESULTS = st.lists(
    st.builds(
        SearchResult,
        topic_id=st.integers(min_value=0, max_value=2**31),
        label=_LABELS,
        influence=_INFLUENCE,
    ),
    max_size=12,
)
_COUNTERS = st.integers(min_value=0, max_value=2**40)
_STATS = st.builds(
    SearchStats,
    topics_considered=_COUNTERS,
    topics_pruned=_COUNTERS,
    entries_probed=_COUNTERS,
    expansion_rounds=_COUNTERS,
    representatives_touched=_COUNTERS,
)


class TestResultsPayloadBytes:
    """A spliced ``/search`` body equals serializing the whole response."""

    @settings(max_examples=300, deadline=None)
    @given(
        user=st.integers(min_value=0, max_value=2**40),
        raw=st.text(min_size=1, max_size=30),
        k=st.integers(min_value=1, max_value=MAX_K),
        results=_RESULTS,
        stats=_STATS,
        generation=st.integers(min_value=0, max_value=2**62),
    )
    @example(user=0, raw="phone", k=1, results=[], stats=SearchStats(),
             generation=0)
    @example(user=3, raw="t\u00e9l\u00e9phone \u624b\u673a \U0001f4f1",
             k=MAX_K, results=[], stats=SearchStats(), generation=2**62)
    def test_spliced_body_matches_whole_encoding(
        self, user, raw, k, results, stats, generation
    ):
        request = SearchRequest(
            user=user,
            query=KeywordQuery(raw=raw, keywords=("x",)),
            k=k,
            deadline_s=None,
        )
        assert _spliced_body(request, results, stats, generation) == (
            _oracle_body(request, results, stats, generation)
        )

    @pytest.mark.parametrize("influence", [0.0, 5e-324, 1e308, 0.1 + 0.2])
    @pytest.mark.parametrize("label", [
        'quote " inside', "back\\slash", "ctl \x01\x7f\n\r\t",
        "non-ascii \u00e9\u4e2d\U0001f600", "",
    ])
    def test_edge_values(self, influence, label):
        results = [
            SearchResult(topic_id=7, label=label, influence=influence),
            SearchResult(topic_id=0, label="phone", influence=influence),
        ]
        stats = SearchStats(
            topics_considered=9, topics_pruned=4, entries_probed=31,
            expansion_rounds=2, representatives_touched=77,
        )
        request = parse_search_request(
            _encode({"user": 12, "query": "T\u00e9l\u00e9phone music",
                     "k": 10}),
            default_k=10,
        )
        body = _spliced_body(request, results, stats, 5)
        assert body == _oracle_body(request, results, stats, 5)
        assert json.loads(body)["results"][0]["influence"] == influence

    def test_framed_like_any_json_response(self):
        request = parse_search_request(
            _encode({"user": 1, "query": "phone"}), default_k=3
        )
        body = _spliced_body(request, [], SearchStats(), 1)
        framed = encode_response(200, body)
        assert framed.endswith(b"\r\n\r\n" + body)
        assert f"Content-Length: {len(body)}".encode() in framed


class TestAdmissionController:
    def test_admits_up_to_capacity_then_sheds(self):
        registry = MetricsRegistry()
        control = AdmissionController(2, metrics=registry)
        control.admit()
        control.admit()
        with pytest.raises(HttpError) as exc:
            control.admit()
        assert exc.value.status == 429
        assert exc.value.retry_after == 1
        assert registry.snapshot().counters["serve.shed"] == 1

    def test_release_reopens_capacity(self):
        control = AdmissionController(1)
        control.admit()
        control.release()
        control.admit()  # must not raise
        assert control.pending == 1

    def test_queue_depth_gauge_tracks_pending(self):
        registry = MetricsRegistry()
        control = AdmissionController(3, metrics=registry)
        control.admit()
        control.admit()
        assert registry.snapshot().gauges["serve.queue_depth"] == 2
        control.release()
        assert registry.snapshot().gauges["serve.queue_depth"] == 1

    def test_unbalanced_release_is_a_bug(self):
        control = AdmissionController(1)
        with pytest.raises(RuntimeError):
            control.release()

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            AdmissionController(0)


class TestParseDeltaRequest:
    def test_full_valid_body(self):
        kwargs = parse_delta_request(_encode({
            "inserts": [[0, 1, 0.5]],
            "deletes": [[2, 3]],
            "reweights": [[4, 5, 0.25]],
            "decay": 0.9,
            "decay_floor": 0.01,
        }))
        assert kwargs == {
            "inserts": ((0, 1, 0.5),),
            "deletes": ((2, 3),),
            "reweights": ((4, 5, 0.25),),
            "decay": 0.9,
            "decay_floor": 0.01,
        }

    def test_decay_only_body_valid(self):
        kwargs = parse_delta_request(_encode({"decay": 0.95}))
        assert kwargs["decay"] == pytest.approx(0.95)
        assert kwargs["inserts"] == ()

    def test_empty_body_rejected(self):
        with pytest.raises(HttpError) as exc:
            parse_delta_request(b"")
        assert exc.value.status == 400

    def test_no_edits_rejected(self):
        with pytest.raises(HttpError, match="no edits"):
            parse_delta_request(_encode({"inserts": [], "decay": 1.0}))

    def test_unknown_field_rejected(self):
        with pytest.raises(HttpError, match="unknown delta field"):
            parse_delta_request(_encode({"insert": [[0, 1, 0.5]]}))

    def test_non_list_field_rejected(self):
        with pytest.raises(HttpError) as exc:
            parse_delta_request(_encode({"inserts": "0,1,0.5"}))
        assert exc.value.status == 400

    @pytest.mark.parametrize("row", [
        [0, 1],              # wrong arity for an insert
        [0, 1, 0.5, 9],      # too many elements
        [0, "1", 0.5],       # non-numeric entry
        [True, 1, 0.5],      # bools are not endpoints
        [0.5, 1, 0.5],       # float endpoint
        "not a row",
    ])
    def test_malformed_insert_rows_rejected(self, row):
        with pytest.raises(HttpError) as exc:
            parse_delta_request(_encode({"inserts": [row]}))
        assert exc.value.status == 400

    def test_malformed_delete_row_rejected(self):
        with pytest.raises(HttpError) as exc:
            parse_delta_request(_encode({"deletes": [[0, 1, 0.5]]}))
        assert exc.value.status == 400

    @pytest.mark.parametrize("value", ["0.9", True, None, [0.9]])
    def test_non_numeric_decay_rejected(self, value):
        with pytest.raises(HttpError) as exc:
            parse_delta_request(_encode({"decay": value}))
        assert exc.value.status == 400

    def test_semantic_validation_left_to_graph_delta(self):
        # Shape-valid but semantically bad values pass the parser; the
        # GraphDelta constructor / apply path turns them into 400s.
        kwargs = parse_delta_request(_encode({"inserts": [[0, 0, 5.0]]}))
        assert kwargs["inserts"] == ((0, 0, 5.0),)
