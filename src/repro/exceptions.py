"""Exception hierarchy for the PIT-Search reproduction library.

Every error raised intentionally by :mod:`repro` derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as :class:`TypeError`.

Exceptions whose ``__init__`` takes anything other than a single message
define ``__reduce__``: default exception pickling re-calls ``__init__``
with ``args`` (the formatted message), which breaks when errors cross the
``ProcessPoolExecutor`` boundary used by the parallel offline build.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """Base class for graph-construction and graph-access errors."""


class NodeNotFoundError(GraphError, KeyError):
    """A node id was requested that does not exist in the graph."""

    def __init__(self, node: int, n_nodes: int):
        super().__init__(f"node {node!r} not in graph with {n_nodes} nodes")
        self.node = node
        self.n_nodes = n_nodes

    def __reduce__(self):
        return (type(self), (self.node, self.n_nodes))


class EdgeError(GraphError):
    """An edge is malformed (bad endpoints or bad transition probability)."""


class EmptyGraphError(GraphError):
    """An operation that requires a non-empty graph received an empty one."""


class TopicError(ReproError):
    """Base class for topic-space and topic-index errors."""


class UnknownTopicError(TopicError, KeyError):
    """A topic id or label was requested that is not in the topic space."""

    def __init__(self, topic: object):
        super().__init__(f"unknown topic: {topic!r}")
        self.topic = topic

    def __reduce__(self):
        # Single argument, but args holds the formatted message: default
        # pickling would wrap the message a second time on rebuild.
        return (type(self), (self.topic,))


class QueryError(ReproError):
    """A keyword query was empty or otherwise unusable."""


class IndexNotBuiltError(ReproError):
    """An index was consulted before it was built.

    Raised by the walk index, the propagation index, and the engine when the
    offline stage has not been run.
    """


class ConfigurationError(ReproError, ValueError):
    """A parameter value is outside its documented domain."""


class BudgetExceededError(ReproError):
    """A bounded computation exhausted its configured budget.

    The propagation index and the set-enumeration tree are worst-case
    exponential; both accept budgets and raise this error (or degrade
    gracefully, depending on the ``strict`` flag) when the budget is hit.
    """

    def __init__(self, what: str, budget: int):
        super().__init__(f"{what} exceeded budget of {budget}")
        self.what = what
        self.budget = budget

    def __reduce__(self):
        # args holds the formatted message, so default exception pickling
        # would re-call __init__ with one argument; rebuild from the
        # originals instead (worker processes ship this across the pool).
        return (type(self), (self.what, self.budget))


class DatasetError(ReproError):
    """A dataset bundle is inconsistent or cannot be produced as requested."""


class ArtifactError(ReproError):
    """Base class for offline-artifact storage errors (missing, unreadable)."""


class ArtifactCorruptedError(ArtifactError):
    """A persisted artifact failed integrity verification at load time.

    Raised instead of letting :mod:`zipfile`/:mod:`json`/:mod:`numpy`
    errors escape from deep inside a loader. Carries the offending path
    and, for checksum mismatches, the expected and actual digests.
    """

    def __init__(
        self,
        path: object,
        expected: Optional[str] = None,
        actual: Optional[str] = None,
        reason: Optional[str] = None,
    ):
        if expected is not None or actual is not None:
            detail = f"checksum mismatch (expected {expected}, actual {actual})"
            if reason:
                detail = f"{reason}; {detail}"
        else:
            detail = reason or "artifact corrupted"
        super().__init__(f"{path}: {detail}")
        self.path = str(path)
        self.expected = expected
        self.actual = actual
        self.reason = reason

    def __reduce__(self):
        return (type(self), (self.path, self.expected, self.actual, self.reason))


class BuildFailedError(ReproError):
    """An offline build could not materialize every item.

    Raised in strict mode by the propagation-index and topic-summary
    builds when items keep failing after ``max_retries`` retries;
    ``failed_nodes`` holds the failed node or topic ids. The items that
    *did* build are preserved: the raiser attaches :attr:`partial_index`
    (or ``partial_summaries``), already flushed to the checkpoint when
    checkpointing is on, so a caller can inspect or persist the partial
    result instead of losing hours of work.

    The partial result is deliberately not part of the pickled state (a
    live index does not belong on the wire).
    """

    def __init__(self, failed_nodes: Sequence[int], n_built: int):
        failed = sorted(int(item) for item in failed_nodes)
        preview = ", ".join(str(item) for item in failed[:8])
        if len(failed) > 8:
            preview += ", ..."
        super().__init__(
            f"build failed for {len(failed)} item(s) [{preview}] "
            f"after retries; {n_built} built"
        )
        self.failed_nodes: List[int] = failed
        self.n_built = int(n_built)
        self.partial_index = None

    def __reduce__(self):
        return (type(self), (self.failed_nodes, self.n_built))
