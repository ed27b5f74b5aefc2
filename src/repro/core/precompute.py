"""Head-query precomputation (ROADMAP item 4, the offline half).

Zipf traffic means a small set of (query, k) pairs - and an even smaller
set of (user, query, k) triples - dominates the request stream. "Real-time
Topic-aware Influence Maximization Using Preprocessing" wins by moving
exactly that work offline; this module applies the idea above the
propagation index:

1. **Mine** a JSONL workload trace (the ``datasets.replay_requests``
   record format, which is also what ``search --batch`` and the daemon's
   ``POST /search`` consume) for head query keys and heavy-hitter
   (user, query, k) triples. Keys are normalized
   (:func:`~repro.core.search.normalized_query_key`), so spelling
   variants of one query pool their counts.
2. **Precompile** the user-independent :class:`~repro.core.search._QueryPlan`
   state for the head queries, and the full top-k answers (results plus
   the deterministic work stats) for the heavy hitters, by running them
   through a live engine over the exact artifacts that will serve.
3. **Persist** both into one versioned, checksummed JSON artifact
   (:mod:`repro._artifacts`), stamped with the graph signature, theta,
   and a SHA-256 fingerprint of the summaries - the three things a
   precomputed answer is only valid for. Loading refuses on any mismatch
   (:class:`~repro.exceptions.ConfigurationError`), so a daemon can never
   warm its answer tier from an artifact built against different data.

The serving half lives in :meth:`~repro.core.serve_facade.ServingEngine.
warm_from_precompute`; the CLI entry point is ``pit-search precompute``.

Float fidelity: influence scores and plan weights pass through JSON
unrounded (``repr`` round-trips the exact double), which is what keeps a
warm-loaded answer bit-exact with the search that produced it.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Tuple

import numpy as np

from .._artifacts import load_json_payload, require_keys, save_json_payload
from .._utils import require_in_range
from ..exceptions import ArtifactCorruptedError, ConfigurationError
from ..graph import SocialGraph
from ..topics import KeywordQuery
from .persistence import _graph_signature
from .search import SearchResult, _QueryPlan, normalized_query_key
from .serve_facade import (
    ServingEngine,
    _answer_nbytes,
    _new_answer,
    _work_of,
)
from .summarization import TopicSummary

__all__ = [
    "PrecomputeArtifact",
    "TraceStats",
    "mine_trace",
    "build_precompute",
    "save_precompute",
    "load_precompute",
    "validate_precompute",
    "summaries_fingerprint",
    "plan_from_record",
    "answer_entry",
]

ARTIFACT_KIND = "precompute"

#: Default head sizes; both CLI-overridable.
DEFAULT_TOP_QUERIES = 64
DEFAULT_TOP_ANSWERS = 256

QueryKey = Tuple[Tuple[str, ...], str]


def summaries_fingerprint(summaries: Mapping[int, TopicSummary]) -> str:
    """SHA-256 over every summary's exact array content, order-free.

    Topic ids are visited sorted; each contributes its id, its sorted
    representative ids, and their ``float64`` weights byte-for-byte. Two
    summary sets fingerprint equal iff every cached answer computed over
    one is valid over the other - which is why the precompute artifact
    stores this rather than a file checksum (the same summaries re-saved
    get a new file checksum but the same fingerprint).
    """
    digest = hashlib.sha256()
    for topic_id in sorted(summaries):
        arrays = summaries[topic_id].arrays()
        digest.update(struct.pack("<q", int(topic_id)))
        digest.update(np.ascontiguousarray(arrays.representatives).tobytes())
        digest.update(np.ascontiguousarray(arrays.weights).tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Trace mining
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceStats:
    """What the miner saw (recorded in the artifact for provenance)."""

    n_records: int
    n_distinct_queries: int
    n_distinct_triples: int


@dataclass
class _Tally:
    """Counts for one normalized key, plus a raw spelling to recompile."""

    count: int = 0
    raw: str = ""
    mode: str = "all"


def _iter_trace(source) -> Iterable[Dict]:
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            handle = path.open("r", encoding="utf-8")
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read trace file {path}: {exc}"
            ) from exc
        with handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    raise ConfigurationError(
                        f"{path}:{line_no}: unreadable trace record ({exc})"
                    ) from exc
                yield record
        return
    yield from source


def mine_trace(
    source, *, default_k: int = 10
) -> Tuple[Dict[Tuple, _Tally], Dict[Tuple, _Tally], TraceStats]:
    """Count head (query, k) keys and heavy-hitter (user, query, k) triples.

    *source* is a JSONL path or an iterable of ``{"user", "query", "k"}``
    dicts (``k`` optional, defaulting to *default_k* - the daemon's own
    default-k behavior). Returns ``(query_counts, triple_counts, stats)``
    where keys are ``(keywords, mode, k)`` and ``(user, keywords, mode,
    k)`` with normalized keywords, and each tally keeps one raw spelling
    so the builder can recompile through the ordinary parse path.
    """
    query_counts: Dict[Tuple, _Tally] = {}
    triple_counts: Dict[Tuple, _Tally] = {}
    n_records = 0
    for record in _iter_trace(source):
        if not isinstance(record, dict):
            raise ConfigurationError(
                f"trace records must be JSON objects, got "
                f"{type(record).__name__}"
            )
        raw = record.get("query")
        if not isinstance(raw, str) or not raw:
            raise ConfigurationError(
                f"trace record {n_records + 1} has no usable 'query' field"
            )
        user = record.get("user")
        if isinstance(user, bool) or not isinstance(user, int) or user < 0:
            raise ConfigurationError(
                f"trace record {n_records + 1} has no usable 'user' field"
            )
        k = record.get("k", default_k)
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise ConfigurationError(
                f"trace record {n_records + 1} has an invalid 'k' field"
            )
        query = KeywordQuery.parse(raw)
        keywords, mode = normalized_query_key(query)
        n_records += 1

        q_key = (keywords, mode, k)
        tally = query_counts.get(q_key)
        if tally is None:
            tally = query_counts[q_key] = _Tally(raw=raw, mode=mode)
        tally.count += 1

        t_key = (user, keywords, mode, k)
        tally = triple_counts.get(t_key)
        if tally is None:
            tally = triple_counts[t_key] = _Tally(raw=raw, mode=mode)
        tally.count += 1
    stats = TraceStats(
        n_records=n_records,
        n_distinct_queries=len(query_counts),
        n_distinct_triples=len(triple_counts),
    )
    return query_counts, triple_counts, stats


def _head(counts: Dict[Tuple, _Tally], top: int) -> List[Tuple[Tuple, _Tally]]:
    """The *top* highest-count keys, count-descending, key as tiebreak.

    The key tiebreak makes the head deterministic for equal counts, so
    two precompute runs over one trace produce byte-identical artifacts.
    """
    ranked = sorted(counts.items(), key=lambda item: (-item[1].count, item[0]))
    return ranked[:top]


# ---------------------------------------------------------------------------
# Artifact model
# ---------------------------------------------------------------------------

@dataclass
class PrecomputeArtifact:
    """In-memory form of one precompute artifact.

    ``plans`` and ``answers`` hold plain-JSON records (see
    :func:`plan_from_record` / :func:`answer_entry` for their runtime
    forms); everything else is the validity stamp and provenance.
    """

    signature: Dict[str, int]
    theta: float
    summaries_fingerprint: str
    plans: List[Dict] = field(default_factory=list)
    answers: List[Dict] = field(default_factory=list)
    trace: Dict[str, int] = field(default_factory=dict)

    def memory_hint_bytes(self) -> int:
        """Rough warm-tier footprint (sizing aid for ``--answer-cache-mb``).

        Answers count at exactly what the answer tier charges for them,
        wire bytes included; plans are estimated.
        """
        total = 0
        for record in self.plans:
            total += 24 * len(record["rep_ids"]) + 16 * len(record["topic_ids"])
        for record in self.answers:
            _, (results, work) = answer_entry(record)
            total += _answer_nbytes(_new_answer(results, work))
        return total


def _plan_record(plan: _QueryPlan, k: int, count: int) -> Dict:
    keywords, mode = plan.key
    return {
        "keywords": list(keywords),
        "mode": mode,
        "k": int(k),
        "count": int(count),
        "topic_ids": [int(t) for t in plan.topic_ids],
        "labels": list(plan.labels),
        "rep_counts": [int(c) for c in plan.rep_counts.tolist()],
        "rep_ids": [int(r) for r in plan.rep_ids.tolist()],
        "rep_weights": [float(w) for w in plan.rep_weights.tolist()],
    }


def plan_from_record(record: Dict) -> _QueryPlan:
    """Rebuild a compiled :class:`_QueryPlan` from its artifact record.

    The flattened rep block is re-sliced per topic with the persisted
    counts; the plan's key is the normalized query key, so the searcher's
    ordinary ``_plan`` lookup hits it.
    """
    key = (tuple(record["keywords"]), record["mode"])
    rep_ids = np.asarray(record["rep_ids"], dtype=np.int64)
    rep_weights = np.asarray(record["rep_weights"], dtype=np.float64)
    rep_arrays = []
    offset = 0
    for count in record["rep_counts"]:
        rep_arrays.append(
            (rep_ids[offset:offset + count], rep_weights[offset:offset + count])
        )
        offset += count
    return _QueryPlan(key, record["topic_ids"], record["labels"], rep_arrays)


def _answer_record(
    user: int,
    keywords: Tuple[str, ...],
    mode: str,
    k: int,
    count: int,
    results: List[SearchResult],
    work: Tuple[int, int, int, int, int],
) -> Dict:
    return {
        "user": int(user),
        "keywords": list(keywords),
        "mode": mode,
        "k": int(k),
        "count": int(count),
        "results": [
            [int(r.topic_id), r.label, float(r.influence)] for r in results
        ],
        "work": [int(w) for w in work],
    }


def answer_entry(record: Dict):
    """The ``(key, value)`` pair an answer record inserts into the tier."""
    key = (
        int(record["user"]),
        (tuple(record["keywords"]), record["mode"]),
        int(record["k"]),
    )
    results = tuple(
        SearchResult(topic_id=int(t), label=label, influence=float(score))
        for t, label, score in record["results"]
    )
    return key, (results, tuple(int(w) for w in record["work"]))


# ---------------------------------------------------------------------------
# Build / persist / validate
# ---------------------------------------------------------------------------

def build_precompute(
    engine: ServingEngine,
    trace,
    *,
    top_queries: int = DEFAULT_TOP_QUERIES,
    top_answers: int = DEFAULT_TOP_ANSWERS,
    default_k: int = 10,
) -> PrecomputeArtifact:
    """Mine *trace* and precompute head plans + heavy-hitter answers.

    *engine* is the :class:`~repro.core.serve_facade.ServingEngine`
    holding the exact artifacts that will serve; plans and
    answers are computed by the same code paths a live request takes, so
    what the artifact stores is definitionally bit-exact with what an
    uncached search returns. ``top_queries``/``top_answers`` bound the
    head sizes (0 disables that half).
    """
    require_in_range("top_queries", top_queries, 0)
    require_in_range("top_answers", top_answers, 0)
    query_counts, triple_counts, stats = mine_trace(
        trace, default_k=default_k
    )
    searcher = engine._searcher  # same-package seam; see plan_for
    plans: List[Dict] = []
    for (keywords, mode, k), tally in _head(query_counts, top_queries):
        plan = searcher.plan_for(KeywordQuery.parse(tally.raw, mode=mode))
        plans.append(_plan_record(plan, k, tally.count))
    answers: List[Dict] = []
    for (user, keywords, mode, k), tally in _head(triple_counts, top_answers):
        results, work_stats = engine.search(
            user, KeywordQuery.parse(tally.raw, mode=mode), k,
            with_stats=True,
        )
        answers.append(
            _answer_record(
                user, keywords, mode, k, tally.count, results,
                _work_of(work_stats),
            )
        )
    return PrecomputeArtifact(
        signature=_graph_signature(engine.graph),
        theta=float(engine.theta),
        summaries_fingerprint=summaries_fingerprint(engine._summaries),
        plans=plans,
        answers=answers,
        trace={
            "n_records": stats.n_records,
            "n_distinct_queries": stats.n_distinct_queries,
            "n_distinct_triples": stats.n_distinct_triples,
        },
    )


def save_precompute(artifact: PrecomputeArtifact, path) -> None:
    """Atomically write the artifact as checksummed, versioned JSON."""
    payload = {
        "kind": ARTIFACT_KIND,
        "n_nodes": int(artifact.signature["n_nodes"]),
        "n_edges": int(artifact.signature["n_edges"]),
        "theta": float(artifact.theta),
        "summaries_fingerprint": artifact.summaries_fingerprint,
        "trace": dict(artifact.trace),
        "plans": artifact.plans,
        "answers": artifact.answers,
    }
    save_json_payload(path, payload)


def load_precompute(path) -> PrecomputeArtifact:
    """Read a precompute artifact, verifying checksum and shape."""
    path = Path(path)
    payload = load_json_payload(path, what="precompute artifact")
    require_keys(
        payload,
        (
            "kind", "n_nodes", "n_edges", "theta",
            "summaries_fingerprint", "plans", "answers",
        ),
        path,
    )
    if payload["kind"] != ARTIFACT_KIND:
        raise ArtifactCorruptedError(
            path,
            reason=(
                f"expected kind {ARTIFACT_KIND!r}, got {payload['kind']!r}"
            ),
        )
    plan_keys = (
        "keywords", "mode", "k", "count", "topic_ids", "labels",
        "rep_counts", "rep_ids", "rep_weights",
    )
    for record in payload["plans"]:
        require_keys(record, plan_keys, path)
        if len(record["rep_ids"]) != len(record["rep_weights"]) or (
            sum(record["rep_counts"]) != len(record["rep_ids"])
        ):
            raise ArtifactCorruptedError(
                path, reason="plan record rep block is inconsistent"
            )
    answer_keys = ("user", "keywords", "mode", "k", "count", "results", "work")
    for record in payload["answers"]:
        require_keys(record, answer_keys, path)
        if len(record["work"]) != 5:
            raise ArtifactCorruptedError(
                path, reason="answer record work stats must have 5 fields"
            )
    return PrecomputeArtifact(
        signature={
            "n_nodes": int(payload["n_nodes"]),
            "n_edges": int(payload["n_edges"]),
        },
        theta=float(payload["theta"]),
        summaries_fingerprint=str(payload["summaries_fingerprint"]),
        plans=list(payload["plans"]),
        answers=list(payload["answers"]),
        trace=dict(payload.get("trace", {})),
    )


def validate_precompute(
    artifact: PrecomputeArtifact,
    graph: SocialGraph,
    theta: float,
    summaries: Mapping[int, TopicSummary],
) -> None:
    """Refuse an artifact that does not match the serving data exactly.

    Checks, in cheapest-first order: graph signature, theta, then the
    summaries fingerprint. Any mismatch raises
    :class:`~repro.exceptions.ConfigurationError` - a precomputed answer
    over different data is not an optimization, it is a wrong answer.
    """
    expected = _graph_signature(graph)
    if artifact.signature != expected:
        raise ConfigurationError(
            f"precompute artifact was built for a graph with "
            f"{artifact.signature}, but the serving graph has {expected}"
        )
    if float(artifact.theta) != float(theta):
        raise ConfigurationError(
            f"precompute artifact was built at theta={artifact.theta}, "
            f"but the serving index uses theta={theta}"
        )
    fingerprint = summaries_fingerprint(summaries)
    if artifact.summaries_fingerprint != fingerprint:
        raise ConfigurationError(
            "precompute artifact was built over different topic summaries "
            f"(fingerprint {artifact.summaries_fingerprint[:12]}... vs "
            f"{fingerprint[:12]}...); rebuild it against the serving "
            "summaries artifact"
        )
