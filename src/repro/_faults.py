"""Fault-injection hooks for robustness testing (internal).

The offline pipeline promises to survive worker crashes, interrupted
writes, and corrupted artifacts. Those failure modes cannot be provoked
reliably from the outside, so the pipeline exposes named *injection
points*: well-defined places where a registered hook runs (or may rewrite
data) before the real work proceeds. In production no hook is registered
and every injection point is a dictionary miss.

Injection points
----------------
``propagation.worker_chunk``
    Inside a worker process, before building a chunk of propagation
    entries. Context: ``chunk`` (index), ``attempt``, ``nodes``.
``propagation.build_entry``
    In the serial build path, before building one range of entries
    (a shard range of ``build_sharded``, up to 256 nodes of
    ``build_all``). Context: ``nodes`` (the range), ``attempt``.
``summarize.worker_chunk``
    Inside a worker process, before summarizing a chunk of topics.
    Context: ``chunk`` (index), ``attempt``, ``topics``.
``summarize.build_topic``
    In the serial summary-build path, before summarizing one topic.
    Context: ``topic``, ``attempt``.
``artifact.pre_replace``
    After an artifact's bytes are written and fsynced to a same-directory
    temp file, immediately before ``os.replace`` publishes it. Context:
    ``path``, ``tmp_path``. A hook that raises here simulates a crash
    mid-write: the destination must stay untouched.
``artifact.load_bytes``
    Raw bytes read from disk, before any parsing. The hook receives
    ``data`` and ``path`` and may return replacement bytes (bit flips,
    truncation); returning ``None`` keeps the original bytes.
``serve.handle``
    In the daemon (:mod:`repro.serve`), at the top of every parsed HTTP
    request, before routing. Context: ``method``, ``path``. A hook that
    raises here simulates a handler crash; the daemon must answer with a
    typed 500, never a traceback, and keep serving.
``serve.search_delay``
    On the daemon's engine worker thread, before each engine call (a
    coalesced batch, a ``/metrics`` snapshot, a delta) takes the engine
    lock. Context: ``call`` (the function about to run). A
    :class:`Delay` hook here simulates a busy worker, which is how the
    tests provoke request queueing (coalescing) and deadline expiry
    mid-search; the lock stays free, so answer-tier hits still answer.
``serve.reload.swap``
    In the daemon's hot-reload path, after the replacement engine loaded
    and validated but before it is swapped in. Context: ``generation``
    (the generation being installed). A hook that raises here must leave
    the old engine serving.

Hooks registered in the parent process are shipped to build workers via
the pool initializer, so they must be picklable: module-level functions
or instances of the classes below. The classes cover the scenarios the
test suite needs; ``monkeypatch``/:func:`fault` cover everything else.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

__all__ = [
    "INJECTION_POINTS",
    "set_fault",
    "clear_faults",
    "fault",
    "snapshot",
    "install",
    "inject",
    "transform",
    "ExitOnChunk",
    "FailOnChunk",
    "FailOnEntry",
    "InterruptOnEntry",
    "FailOnTopic",
    "InterruptOnTopic",
    "FailOnReplace",
    "FlipByte",
    "TruncateBytes",
    "Delay",
]

Hook = Callable[..., Any]

INJECTION_POINTS = frozenset({
    "propagation.worker_chunk",
    "propagation.build_entry",
    "summarize.worker_chunk",
    "summarize.build_topic",
    "artifact.pre_replace",
    "artifact.load_bytes",
    "serve.handle",
    "serve.search_delay",
    "serve.reload.swap",
})

_hooks: Dict[str, Hook] = {}


def _check_point(point: str) -> str:
    if point not in INJECTION_POINTS:
        raise ValueError(
            f"unknown injection point {point!r}; "
            f"known: {sorted(INJECTION_POINTS)}"
        )
    return point


def set_fault(point: str, hook: Hook) -> None:
    """Register *hook* at *point* (replacing any previous hook there)."""
    _hooks[_check_point(point)] = hook


def clear_faults(point: Optional[str] = None) -> None:
    """Remove the hook at *point*, or every hook when *point* is None."""
    if point is None:
        _hooks.clear()
    else:
        _hooks.pop(_check_point(point), None)


@contextmanager
def fault(point: str, hook: Hook):
    """Context manager: register *hook* at *point*, restore on exit."""
    _check_point(point)
    previous = _hooks.get(point)
    _hooks[point] = hook
    try:
        yield hook
    finally:
        if previous is None:
            _hooks.pop(point, None)
        else:
            _hooks[point] = previous


def snapshot() -> Dict[str, Hook]:
    """The current registry, for shipping to worker processes."""
    return dict(_hooks)


def install(hooks: Dict[str, Hook]) -> None:
    """Replace the registry wholesale (worker-process initialization)."""
    _hooks.clear()
    _hooks.update(hooks)


def inject(point: str, **context: Any) -> None:
    """Run the hook registered at *point*, if any."""
    hook = _hooks.get(point)
    if hook is not None:
        hook(**context)


def transform(point: str, data: bytes, **context: Any) -> bytes:
    """Run the hook at *point* over *data*; hooks may return new bytes."""
    hook = _hooks.get(point)
    if hook is None:
        return data
    replaced = hook(data=data, **context)
    return data if replaced is None else replaced


# ---------------------------------------------------------------------------
# Picklable hook implementations for the standard failure scenarios.
# ---------------------------------------------------------------------------


class ExitOnChunk:
    """Hard-kill the worker process (``os._exit``) on matching chunks.

    Simulates an OOM-killed or segfaulted worker: the pool breaks and
    every in-flight chunk must be retried on a fresh process.
    """

    def __init__(self, chunk: int, attempts: Sequence[int] = (0,), exit_code: int = 1):
        self.chunk = int(chunk)
        self.attempts: Tuple[int, ...] = tuple(int(a) for a in attempts)
        self.exit_code = int(exit_code)

    def __call__(self, *, chunk: int, attempt: int, **_: Any) -> None:
        if chunk == self.chunk and attempt in self.attempts:
            os._exit(self.exit_code)


class FailOnChunk:
    """Raise ``RuntimeError`` inside the worker on matching chunks.

    The worker survives (only the chunk fails), exercising the
    retry-with-backoff path without breaking the pool.
    """

    def __init__(self, chunk: int, attempts: Sequence[int] = (0,)):
        self.chunk = int(chunk)
        self.attempts: Tuple[int, ...] = tuple(int(a) for a in attempts)

    def __call__(self, *, chunk: int, attempt: int, **_: Any) -> None:
        if chunk == self.chunk and attempt in self.attempts:
            raise RuntimeError(
                f"injected fault: chunk {chunk} failed on attempt {attempt}"
            )


class FailOnEntry:
    """Raise ``RuntimeError`` in the serial build path for the range
    holding *node*."""

    def __init__(self, node: int, attempts: Sequence[int] = (0,)):
        self.node = int(node)
        self.attempts: Tuple[int, ...] = tuple(int(a) for a in attempts)

    def __call__(self, *, nodes: Sequence[int], attempt: int, **_: Any) -> None:
        if self.node in nodes and attempt in self.attempts:
            raise RuntimeError(
                f"injected fault: entry {self.node} failed on attempt {attempt}"
            )


class InterruptOnEntry:
    """Raise ``KeyboardInterrupt`` when the serial build reaches the range
    holding *node*.

    Simulates SIGINT mid-build; the build flushes its checkpoint and
    re-raises, so a later run can resume.
    """

    def __init__(self, node: int):
        self.node = int(node)

    def __call__(self, *, nodes: Sequence[int], **_: Any) -> None:
        if self.node in nodes:
            raise KeyboardInterrupt(f"injected interrupt at entry {self.node}")


class FailOnTopic:
    """Raise ``RuntimeError`` in the serial summary build on matching topics."""

    def __init__(self, topic: int, attempts: Sequence[int] = (0,)):
        self.topic = int(topic)
        self.attempts: Tuple[int, ...] = tuple(int(a) for a in attempts)

    def __call__(self, *, topic: int, attempt: int, **_: Any) -> None:
        if topic == self.topic and attempt in self.attempts:
            raise RuntimeError(
                f"injected fault: topic {topic} failed on attempt {attempt}"
            )


class InterruptOnTopic:
    """Raise ``KeyboardInterrupt`` when the serial summary build reaches *topic*.

    Simulates SIGINT mid-build; the build flushes its checkpoint and
    re-raises, so a later run can resume.
    """

    def __init__(self, topic: int):
        self.topic = int(topic)

    def __call__(self, *, topic: int, **_: Any) -> None:
        if topic == self.topic:
            raise KeyboardInterrupt(f"injected interrupt at topic {topic}")


class FailOnReplace:
    """Raise ``OSError`` between the temp-file write and ``os.replace``."""

    def __call__(self, *, path: Any, tmp_path: Any, **_: Any) -> None:
        raise OSError(f"injected crash before replacing {path}")


class FlipByte:
    """Flip one byte (XOR) of an artifact's bytes as they are loaded."""

    def __init__(self, offset: int, mask: int = 0xFF):
        self.offset = int(offset)
        self.mask = int(mask)

    def __call__(self, *, data: bytes, **_: Any) -> bytes:
        flipped = bytearray(data)
        flipped[self.offset % len(flipped)] ^= self.mask
        return bytes(flipped)


class TruncateBytes:
    """Drop the tail of an artifact's bytes as they are loaded."""

    def __init__(self, keep: int):
        self.keep = int(keep)

    def __call__(self, *, data: bytes, **_: Any) -> bytes:
        return data[: self.keep]


class Delay:
    """Sleep *seconds* at the injection point (slow-engine simulation).

    With ``times`` set, only the first *times* invocations sleep; later
    ones pass through, so a test can make the daemon slow just long
    enough to queue requests behind a busy engine.
    """

    def __init__(self, seconds: float, times: Optional[int] = None):
        self.seconds = float(seconds)
        self.times = None if times is None else int(times)
        self.calls = 0

    def __call__(self, **_: Any) -> None:
        self.calls += 1
        if self.times is not None and self.calls > self.times:
            return
        import time

        time.sleep(self.seconds)
