"""Wire protocol for the serving daemon: HTTP/1.1 framing + typed JSON.

Dependency-free by design (stdlib ``json`` only): the daemon speaks a
minimal, strict subset of HTTP/1.1 - enough for load balancers, health
checkers, Prometheus scrapers, and the replay load generator - and every
body in either direction is JSON.

Two invariants this module enforces for the whole daemon:

* **Errors are typed JSON, never tracebacks.** Every failure becomes
  ``{"error": {"type": ..., "message": ...}}`` with a meaningful status
  code; :func:`error_for_exception` maps the library's
  :class:`~repro.exceptions.ReproError` taxonomy onto statuses (client
  mistakes -> 400, artifact rejection -> 409, everything unexpected ->
  an opaque 500).
* **Inputs are validated before they reach the engine.** Body size is
  bounded before the body is read (413), JSON must parse to an object
  (400 ``MalformedRequest``), and fields are type- and range-checked
  (400 ``ValidationError``) - so the engine only ever sees
  well-formed requests.

A ``/search`` success body is not serialized per response: the answer's
wire fragment, stored with it in the answer tier, is spliced between the
request's fields (:func:`results_payload`), byte-identical to encoding
the whole response object with ``json.dumps(..., sort_keys=True)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from ..exceptions import (
    ArtifactError,
    ConfigurationError,
    NodeNotFoundError,
    QueryError,
    ReproError,
    UnknownTopicError,
)
from ..topics import KeywordQuery

__all__ = [
    "HttpError",
    "SearchRequest",
    "encode_response",
    "error_body",
    "error_for_exception",
    "parse_delta_request",
    "parse_reload_request",
    "parse_search_request",
    "results_payload",
]

#: Reason phrases for every status the daemon emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Hard ceiling on requested k (a typo like k=10**9 must not allocate).
MAX_K = 10_000


class HttpError(Exception):
    """A request failure with a definite HTTP status and error type.

    Raised anywhere in the request path and rendered as the typed JSON
    error body; ``retry_after`` adds a ``Retry-After`` header (shedding).
    """

    def __init__(
        self,
        status: int,
        error_type: str,
        message: str,
        *,
        retry_after: Optional[int] = None,
    ):
        super().__init__(message)
        self.status = int(status)
        self.error_type = str(error_type)
        self.message = str(message)
        self.retry_after = retry_after


@dataclass(frozen=True)
class SearchRequest:
    """One validated ``POST /search`` body.

    ``deadline_s`` is the caller's *relative* deadline in seconds
    (``None`` = use the server default); the server converts it to an
    absolute monotonic deadline at admission time.
    """

    user: int
    query: KeywordQuery
    k: int
    deadline_s: Optional[float]


def _load_json_object(body: bytes) -> Dict:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise HttpError(
            400, "MalformedRequest", f"body is not valid JSON: {exc}"
        ) from None
    if not isinstance(payload, dict):
        raise HttpError(
            400, "MalformedRequest",
            f"body must be a JSON object, got {type(payload).__name__}",
        )
    return payload


def _require_int(payload: Mapping, field: str, *, minimum: int,
                 maximum: Optional[int] = None,
                 default: Optional[int] = None) -> int:
    value = payload.get(field, default)
    if value is None:
        raise HttpError(400, "ValidationError", f"missing field {field!r}")
    if isinstance(value, bool) or not isinstance(value, int):
        raise HttpError(
            400, "ValidationError",
            f"field {field!r} must be an integer, got {value!r}",
        )
    if value < minimum or (maximum is not None and value > maximum):
        bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise HttpError(
            400, "ValidationError", f"field {field!r} must be {bound}, got {value}"
        )
    return value


def parse_search_request(
    body: bytes, *, default_k: int
) -> SearchRequest:
    """Validate a ``POST /search`` body into a :class:`SearchRequest`.

    Required: ``user`` (int >= 0), ``query`` (non-empty string).
    Optional: ``k`` (int in [1, MAX_K], default *default_k*),
    ``deadline_ms`` (finite number > 0). Unknown fields are ignored (forward
    compatibility). The query is tokenized here, so an unusable query
    fails with a typed 400 before any engine work.
    """
    payload = _load_json_object(body)
    user = _require_int(payload, "user", minimum=0)
    raw_query = payload.get("query")
    if not isinstance(raw_query, str) or not raw_query:
        raise HttpError(
            400, "ValidationError",
            f"field 'query' must be a non-empty string, got {raw_query!r}",
        )
    k = _require_int(payload, "k", minimum=1, maximum=MAX_K, default=default_k)
    deadline_s: Optional[float] = None
    if payload.get("deadline_ms") is not None:
        deadline_ms = payload["deadline_ms"]
        if isinstance(deadline_ms, bool) or not isinstance(
            deadline_ms, (int, float)
        ):
            raise HttpError(
                400, "ValidationError",
                f"field 'deadline_ms' must be a number, got {deadline_ms!r}",
            )
        try:
            deadline_s = float(deadline_ms) / 1000.0
        except OverflowError:  # an int beyond the float range
            deadline_s = math.inf
        if not 0 < deadline_s < math.inf:  # NaN fails too
            raise HttpError(
                400, "ValidationError",
                f"field 'deadline_ms' must be finite and > 0, "
                f"got {deadline_ms}",
            )
    try:
        query = KeywordQuery.parse(raw_query)
    except QueryError as exc:
        raise HttpError(400, "QueryError", str(exc)) from None
    return SearchRequest(user=user, query=query, k=k, deadline_s=deadline_s)


#: The artifact paths a reload may override (and a daemon is started with).
RELOAD_KEYS = frozenset({"index_dir", "summaries", "precompute"})


def parse_reload_request(body: bytes) -> Dict[str, str]:
    """Validate a ``POST /admin/reload`` body into path overrides.

    An empty body (or ``{}``) reopens the artifact paths in force - the
    "a new file replaced the old one on disk" flow. Keys ``index_dir`` /
    ``summaries`` / ``precompute`` override individual paths, which stay
    in force once the reload succeeds; anything else is a typed 400 that
    lists the allowed keys.
    """
    if not body:
        return {}
    payload = _load_json_object(body)
    unknown = set(payload) - RELOAD_KEYS
    if unknown:
        raise HttpError(
            400, "ValidationError",
            f"unknown reload field(s) {sorted(unknown)}; "
            f"allowed: {sorted(RELOAD_KEYS)}",
        )
    overrides: Dict[str, str] = {}
    for key, value in payload.items():
        if not isinstance(value, str) or not value:
            raise HttpError(
                400, "ValidationError",
                f"reload field {key!r} must be a non-empty path string",
            )
        overrides[key] = value
    return overrides


_DELTA_KEYS = frozenset(
    {"inserts", "deletes", "reweights", "decay", "decay_floor"}
)


def _delta_edges(payload: Mapping, field: str, arity: int) -> Tuple:
    """Validate one edge-edit list: a list of ``arity``-element rows."""
    rows = payload.get(field, [])
    if not isinstance(rows, list):
        raise HttpError(
            400, "ValidationError", f"delta field {field!r} must be a list"
        )
    edits = []
    for row in rows:
        if (not isinstance(row, list) or len(row) != arity
                or not all(isinstance(v, (int, float))
                           and not isinstance(v, bool) for v in row)):
            raise HttpError(
                400, "ValidationError",
                f"delta field {field!r} rows must be {arity}-element "
                f"numeric lists, got {row!r}",
            )
        if any(not isinstance(v, int) for v in row[:2]):
            raise HttpError(
                400, "ValidationError",
                f"delta field {field!r} endpoints must be integers, "
                f"got {row!r}",
            )
        edits.append(tuple(row))
    return tuple(edits)


def parse_delta_request(body: bytes) -> Dict:
    """Validate a ``POST /admin/delta`` body into GraphDelta kwargs.

    The body mirrors :class:`~repro.core.dynamics.GraphDelta`:
    ``inserts`` / ``reweights`` are lists of ``[source, target, prob]``,
    ``deletes`` lists of ``[source, target]``, ``decay`` /
    ``decay_floor`` optional floats. Shape errors are typed 400s here;
    semantic errors (unknown edge, duplicate edit, bad probability) are
    left to ``GraphDelta`` / the apply path, whose
    :class:`~repro.exceptions.ConfigurationError` also maps to 400.
    """
    if not body:
        raise HttpError(
            400, "ValidationError",
            "delta request requires a JSON body with at least one edit",
        )
    payload = _load_json_object(body)
    unknown = set(payload) - _DELTA_KEYS
    if unknown:
        raise HttpError(
            400, "ValidationError",
            f"unknown delta field(s) {sorted(unknown)}; "
            f"allowed: {sorted(_DELTA_KEYS)}",
        )
    kwargs: Dict = {
        "inserts": _delta_edges(payload, "inserts", 3),
        "deletes": _delta_edges(payload, "deletes", 2),
        "reweights": _delta_edges(payload, "reweights", 3),
    }
    for field, default in (("decay", 1.0), ("decay_floor", 0.0)):
        value = payload.get(field, default)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise HttpError(
                400, "ValidationError",
                f"delta field {field!r} must be a number",
            )
        kwargs[field] = float(value)
    if (not kwargs["inserts"] and not kwargs["deletes"]
            and not kwargs["reweights"] and kwargs["decay"] == 1.0):
        raise HttpError(
            400, "ValidationError",
            "delta request contains no edits (empty lists and decay=1.0)",
        )
    return kwargs


# ---------------------------------------------------------------------------
# Response encoding
# ---------------------------------------------------------------------------


def error_body(error_type: str, message: str) -> Dict:
    """The canonical typed-error JSON payload."""
    return {"error": {"type": error_type, "message": message}}


def error_for_exception(exc: BaseException) -> Tuple[int, Dict]:
    """Map an exception to ``(status, error payload)`` - never a traceback.

    :class:`HttpError` carries its own status; the library's
    :class:`ReproError` subtypes map to client errors (bad user id,
    unusable query, missing summary -> 400) or artifact rejection (409);
    anything else is an opaque ``InternalError`` 500 (the message names
    the exception class only, so internals never leak to clients).
    """
    if isinstance(exc, HttpError):
        return exc.status, error_body(exc.error_type, exc.message)
    if isinstance(exc, ArtifactError):
        return 409, error_body(type(exc).__name__, str(exc))
    if isinstance(
        exc,
        (ConfigurationError, QueryError, NodeNotFoundError, UnknownTopicError),
    ):
        return 400, error_body(type(exc).__name__, str(exc))
    if isinstance(exc, ReproError):
        return 400, error_body(type(exc).__name__, str(exc))
    return 500, error_body(
        "InternalError", f"unexpected {type(exc).__name__} while serving"
    )


def results_payload(
    request: SearchRequest, fragment: bytes, generation: int
) -> bytes:
    """The ``POST /search`` success body for one answered request.

    *fragment* is the answer's wire form as the engine stored it
    (:func:`~repro.core.serve_facade.encode_answer`: ``"results": [...],
    "stats": {...}``); it is spliced between the request's own fields, so
    no answer is re-serialized per response. The bytes equal
    ``json.dumps(body, sort_keys=True) + "\n"`` of the response object
    ``{generation, k, query, results, stats, user}``, and influence
    floats pass through unrounded (``repr`` round-trips the exact
    double) - which is what makes daemon responses bit-comparable to
    direct :meth:`~repro.core.serve_facade.ServingEngine.search` calls.
    """
    return b'{"generation": %d, "k": %d, "query": %s, %s, "user": %d}\n' % (
        generation,
        request.k,
        json.dumps(request.query.raw).encode("utf-8"),
        fragment,
        request.user,
    )


def encode_response(
    status: int,
    payload,
    *,
    content_type: str = "application/json",
    keep_alive: bool = True,
    retry_after: Optional[int] = None,
) -> bytes:
    """Serialize one complete HTTP/1.1 response.

    *payload* is a JSON-able object (dicts/lists) or pre-encoded
    ``bytes``/``str`` (the ``/metrics`` text path).
    """
    if isinstance(payload, bytes):
        body = payload
    elif isinstance(payload, str):
        body = payload.encode("utf-8")
    else:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    if retry_after is not None:
        lines.append(f"Retry-After: {int(retry_after)}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body
