"""Request coalescing: batch concurrent searches through one engine.

The engine is not thread-safe (bounded LRU caches, compiled query plans,
shard cache), so every engine call made off the event loop runs on
**one** worker thread holding the **engine lock**
(:class:`EngineWorker`). The event loop touches the engine itself only
to probe the answer tier, and only when it wins the same lock without
waiting (see ``PITServer._search``); everything the probe cannot answer
comes here. That constraint is also an opportunity: while the worker is
busy, concurrent requests pile up in the queue, and the dispatcher drains
them as a batch and routes same-``(keywords, mode, k)`` requests through
``search_batch`` - the engine's vectorized multi-request path that
shares query-plan compilation and summary-array decoding across callers.
Each request resolves to its answer's wire fragment (``encoded=True``):
the bytes the answer tier stored when it wrote the answer back, so the
event loop only splices them into the response.
Under load the daemon gets *more* efficient per request, which is the
opposite of collapse.

Isolation guarantees, in order of importance:

* **A bad request fails alone.** A grouped ``search_batch`` that raises
  is retried per-request, so only the offending request gets the typed
  error (counter ``serve.batch_fallbacks``).
* **Timed-out work is abandoned, never returned.** Deadlines are checked
  when a batch is drained (expired requests get 504 without touching the
  engine) and again before delivering results (a request whose caller
  already timed out is dropped on the floor - its future is done).
* **Results are delivered on the event loop.** The worker thread only
  computes; futures are resolved back on the loop thread, so handler
  coroutines never see cross-thread wakeups.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .. import _faults
from ..core.search import normalized_query_key
from ..obs.registry import MetricsRegistry, NullRegistry
from .protocol import HttpError, SearchRequest

__all__ = ["Coalescer", "EngineWorker", "PendingSearch"]


class EngineWorker:
    """The daemon's one engine worker thread and its engine lock.

    :meth:`call` is the only way engine work leaves the event loop:
    coalesced searches, ``/metrics`` snapshots and ``/admin/delta`` all
    run on the worker thread while holding :attr:`lock`. The loop may
    read the engine only while it holds the lock too, taken without
    blocking - so a probe can never see a half-applied delta, and a busy
    worker never stalls the loop.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="pit-search"
        )

    async def call(self, fn, *args):
        """``fn(*args)`` on the worker thread, under the engine lock."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, self._locked, fn, args)

    def _locked(self, fn, args):
        _faults.inject("serve.search_delay", call=fn)
        with self.lock:
            return fn(*args)

    def shutdown(self) -> None:
        """Finish the running call and stop the worker thread."""
        self._executor.shutdown(wait=True)


@dataclass
class PendingSearch:
    """One admitted request waiting for (or undergoing) execution."""

    request: SearchRequest
    deadline: float  # absolute, time.monotonic() domain
    future: "asyncio.Future[Tuple[Any, int]]"
    enqueued_at: float = field(default_factory=time.monotonic)


def _group_key(pending: PendingSearch) -> Tuple:
    """Requests coalesce when the engine work is shareable.

    Same *normalized* keywords, same match mode, same k - users may
    differ, which is exactly what ``search_batch`` vectorizes over.
    Normalizing here (not just in the plan cache) means ``"Phone Music"``
    and ``"music phone"`` land in one batch and one answer-cache probe.
    """
    keywords, mode = normalized_query_key(pending.request.query)
    return (keywords, mode, pending.request.k)


class Coalescer:
    """Queue + dispatcher turning concurrent requests into engine batches.

    Parameters
    ----------
    engines:
        The :class:`~repro.serve.reload.EngineManager`; the engine (and
        its generation) is resolved per batch, so a hot reload takes
        effect at the next batch boundary with no request ever split
        across two engines.
    worker:
        The :class:`EngineWorker` every batch runs on.
    max_batch:
        Upper bound on requests drained per dispatch round.
    """

    def __init__(
        self,
        engines,
        worker: EngineWorker,
        *,
        max_batch: int = 8,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._engines = engines
        self._worker = worker
        self._max_batch = int(max_batch)
        self._metrics = metrics if metrics is not None else NullRegistry()
        self._queue: "asyncio.Queue[PendingSearch]" = asyncio.Queue()

    def submit(
        self, request: SearchRequest, deadline: float
    ) -> "asyncio.Future[Tuple[Any, int]]":
        """Enqueue one request; resolves to ``(fragment, generation)``."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Tuple[Any, int]]" = loop.create_future()
        self._queue.put_nowait(
            PendingSearch(request=request, deadline=deadline, future=future)
        )
        return future

    @property
    def backlog(self) -> int:
        """Requests enqueued but not yet drained into a batch."""
        return self._queue.qsize()

    async def run(self) -> None:
        """Dispatcher loop; runs until cancelled (at server shutdown)."""
        while True:
            batch = [await self._queue.get()]
            while len(batch) < self._max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            live = self._triage(batch)
            if not live:
                continue
            engine, generation = self._engines.acquire()
            self._metrics.observe("serve.batch_size", len(live))
            if len(live) > 1:
                self._metrics.inc("serve.coalesced_batches")
                self._metrics.inc("serve.coalesced_requests", len(live))
            try:
                outcomes = await self._worker.call(
                    self._execute_groups, live, engine
                )
            except Exception as exc:  # executor rejected / engine wedged
                self._deliver_failure(live, exc)
                continue
            self._deliver(outcomes, generation)

    # ------------------------------------------------------------------
    def _triage(self, batch: List[PendingSearch]) -> List[PendingSearch]:
        """Drop abandoned requests, 504 expired ones, keep the live rest."""
        now = time.monotonic()
        live: List[PendingSearch] = []
        for pending in batch:
            if pending.future.done():  # caller already timed out / gone
                continue
            if pending.deadline <= now:
                self._metrics.inc("serve.expired_in_queue")
                pending.future.set_exception(
                    HttpError(
                        504, "DeadlineExceeded",
                        "deadline expired before execution",
                    )
                )
                continue
            self._metrics.observe(
                "serve.queue_wait_seconds", now - pending.enqueued_at
            )
            live.append(pending)
        return live

    def _execute_groups(
        self, live: List[PendingSearch], engine
    ) -> List[Tuple[PendingSearch, Any]]:
        """Worker-thread body: run each coalesced group through the engine.

        Returns ``(pending, fragment_or_exception)`` pairs (the answer's
        wire bytes, see ``ServingEngine.search_batch(encoded=True)``);
        nothing here touches asyncio state.
        """
        groups: Dict[Tuple, List[PendingSearch]] = {}
        for pending in live:
            groups.setdefault(_group_key(pending), []).append(pending)
        outcomes: List[Tuple[PendingSearch, Any]] = []
        for key, members in groups.items():
            k = key[2]
            try:
                outs = engine.search_batch(
                    [(m.request.user, m.request.query) for m in members],
                    k,
                    encoded=True,
                )
                outcomes.extend(zip(members, outs))
            except Exception:
                # Per-caller isolation: re-run individually so only the
                # genuinely bad request carries the error.
                if len(members) > 1:
                    self._metrics.inc("serve.batch_fallbacks")
                for m in members:
                    try:
                        out = engine.search_batch(
                            [(m.request.user, m.request.query)], k,
                            encoded=True,
                        )[0]
                        outcomes.append((m, out))
                    except Exception as exc:
                        outcomes.append((m, exc))
        return outcomes

    def _deliver(
        self, outcomes: List[Tuple[PendingSearch, Any]], generation: int
    ) -> None:
        """Resolve futures on the loop thread; never deliver past-deadline."""
        now = time.monotonic()
        for pending, outcome in outcomes:
            if pending.future.done():  # abandoned while executing
                continue
            if pending.deadline <= now:
                self._metrics.inc("serve.expired_in_flight")
                pending.future.set_exception(
                    HttpError(
                        504, "DeadlineExceeded",
                        "deadline expired during execution",
                    )
                )
                continue
            if isinstance(outcome, BaseException):
                pending.future.set_exception(outcome)
            else:
                pending.future.set_result((outcome, generation))

    def _deliver_failure(
        self, live: List[PendingSearch], exc: Exception
    ) -> None:
        for pending in live:
            if not pending.future.done():
                pending.future.set_exception(exc)
