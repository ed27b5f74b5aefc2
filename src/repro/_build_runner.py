"""Resumable, retried, checkpointed builds over independent items (internal).

Both offline precomputations build independent, deterministic items: a
range of Γ entries
(:meth:`~repro.core.propagation.PropagationIndex.build_all` and
``build_sharded``) and one summary per topic
(:meth:`~repro.core.engine.PITEngine.build_summaries`). :class:`BuildRunner`
owns the policy they share, documented once in ``docs/operations.md``
("Resumable builds"): worker-count resolution, per-item retries with
capped exponential backoff (never for a :class:`~repro.exceptions.ReproError`),
chunked builds on a fresh process pool per retry round, checkpoint
flushes on a cadence and on every exit (summaries; a Γ build resumes
from its shard manifest instead), the stats delta, and the strict raise
or keep-going warning.

The runner's metric, span and fault-site names derive from a subclass's
``prefix``, ``item``, ``items``, ``key`` and ``keys``: the fault sites
``<prefix>.build_<item>`` (context ``<key>``, ``attempt``) and
``<prefix>.worker_chunk`` (``chunk``, ``attempt``, ``<keys>``); the
counters ``<prefix>.<items>_built`` / ``_resumed`` / ``_failed``,
``<prefix>.<item>_retries``, ``<prefix>.chunk_retries`` and
``<prefix>.checkpoint_flushes``; and the spans ``<prefix>.build_all``,
``.resume``, ``.build_serial``, ``.build_parallel`` and
``.checkpoint_flush``. For the Γ build (``propagation``, ``entry``,
``entries``, ``nodes``, ``nodes``) that gives ``propagation.build_entry``
with ``nodes=`` (the range), ``propagation.entries_built``,
``propagation.entry_retries`` (one per retried range).
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence, Tuple

from . import _faults
from ._utils import require_in_range, require_non_negative
from .exceptions import BuildFailedError, ReproError
from .obs.registry import MetricsRegistry, MetricsSnapshot, get_registry
from .obs.tracing import trace

# How long the runner waits for a chunk before it checks again whether
# the pool broke under a future that will never finish.
_POLL_SECONDS = 1.0

# The per-process state shipped once through the pool initializer (an
# index, a summarizer); chunks read it instead of receiving it per call.
_WORKER_STATE: Any = None


def _pool_init(faults: dict, state: Any) -> None:
    global _WORKER_STATE
    _faults.install(faults)
    _WORKER_STATE = state


def _pool_chunk(
    site: str,
    context: dict,
    worker_chunk: Callable[[Any, Sequence[Any]], Any],
    items: Sequence[Any],
) -> Any:
    assert _WORKER_STATE is not None, "worker pool used before initialization"
    _faults.inject(site, **context)
    return worker_chunk(_WORKER_STATE, items)


class BuildRunner:
    """Build items serially or on a process pool, retrying and checkpointing.

    One runner serves one build call; it snapshots the registry on
    construction, and the call's stats are the delta from there.
    Subclasses set the class attributes below - the names, plus a
    module-level (picklable) ``worker_chunk(state, items) -> result`` -
    and implement the hooks:

    * ``build_item(item)`` - build one item in-process and keep it;
    * ``members(items)`` - the ids (nodes, topics) *items* cover: the
      built and failed counts, the returned failures and the
      ``<keys>`` fault context are in ids; by default an item is its id;
    * ``pool_state()`` - a context manager around the parallel phase
      yielding the picklable worker state; ``adopt_chunk(result)`` keeps
      one chunk's result and returns its item count;
    * ``missing()``, ``load(path) -> n_resumed`` and ``save(path)`` -
      the items still to build and the checkpoint format (only
      :meth:`build_all` uses them, and ``load``/``save`` only when given
      a checkpoint);
    * ``attach_partial(error)`` - put the partial result on a strict
      :class:`~repro.exceptions.BuildFailedError`.
    """

    prefix: str
    item: str
    items: str
    key: str
    keys: str
    #: What the keep-going warning calls the items.
    noun: str
    worker_chunk: Callable[[Any, Sequence[int]], Any]

    def __init__(
        self,
        metrics: Optional[MetricsRegistry],
        *,
        workers: Optional[int],
        max_retries: int,
        retry_backoff: float,
    ):
        require_in_range("max_retries", max_retries, 0)
        require_non_negative("retry_backoff", retry_backoff)
        if workers is None:
            workers = getattr(os, "process_cpu_count", os.cpu_count)() or 1
        #: Requested worker count; :meth:`build_all` lowers it to the
        #: count actually used.
        self.workers = int(workers)
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        registry = metrics if metrics is not None else get_registry()
        # Stats must exist even with metrics disabled: account into a
        # private registry instead of forking a second bookkeeping path.
        self.registry = registry if registry.enabled else MetricsRegistry()
        self._before = self.registry.snapshot()
        self._delta: Optional[MetricsSnapshot] = None
        self._save: Optional[Callable[[], None]] = None
        self._every = 0
        self._pending = 0

    def span(self, name: str, **attrs: Any):
        """A tracing span ``<prefix>.<name>`` on the build's registry."""
        return trace(f"{self.prefix}.{name}", registry=self.registry, **attrs)

    def build_all(
        self,
        checkpoint: Optional[Path] = None,
        every: int = 0,
        resume: bool = False,
    ) -> Tuple[List[int], int]:
        """Resume from *checkpoint*, build the missing items, flush.

        Without a *checkpoint* nothing is loaded or flushed. Returns
        ``(failed ids, ids resumed from the checkpoint)``.
        """
        require_in_range("checkpoint_every", every, 0)
        with self.span("build_all", workers=self.workers):
            n_resumed = 0
            if checkpoint is not None and resume and Path(checkpoint).exists():
                with self.span("resume"):
                    n_resumed = self.load(Path(checkpoint))
            if n_resumed:
                self.registry.inc(f"{self.prefix}.{self.items}_resumed", n_resumed)
            pending = self.missing()
            if checkpoint is not None:
                self._save = lambda: self.save(Path(checkpoint))
                self._every = int(every)
            try:
                if self.workers <= 1 or len(pending) <= 1:
                    self.workers = 1
                    with self.span("build_serial"):
                        failed = self._serial(pending)
                else:
                    self.workers = min(self.workers, len(pending))
                    with self.span("build_parallel"):
                        failed = self._parallel(pending, self.workers)
            finally:
                # One flush covers every exit: completion, a ReproError
                # raise, and KeyboardInterrupt/SystemExit mid-build.
                self._flush()
        return list(self.members(failed)), n_resumed

    def run(self, items: List[Any]) -> List[int]:
        """Build *items* (no spans, no checkpoint); return the failed ids."""
        if self.workers <= 1 or len(items) <= 1:
            failed = self._serial(items)
        else:
            failed = self._parallel(items, min(self.workers, len(items)))
        return list(self.members(failed))

    def members(self, items: Sequence[Any]) -> Tuple[int, ...]:
        """The ids *items* cover (each item is its own id by default)."""
        return tuple(items)

    def finish(self, failed: Sequence[int]) -> MetricsSnapshot:
        """Count *failed* and return this build's registry delta."""
        if failed:
            self.registry.inc(f"{self.prefix}.{self.items}_failed", len(failed))
        self._delta = self.registry.snapshot().delta(self._before)
        return self._delta

    def settle(self, failed: Sequence[int], strict: bool, dropped: str) -> None:
        """After :meth:`finish`: raise or warn about *failed* items.

        *dropped* completes the keep-going warning ("... and were
        <dropped>").
        """
        if not failed:
            return
        if strict:
            assert self._delta is not None, "settle() before finish()"
            error = BuildFailedError(
                sorted(set(failed)),
                self._delta.counter(f"{self.prefix}.{self.items}_built"),
            )
            self.attach_partial(error)
            raise error
        warnings.warn(
            f"{len(failed)} {self.noun} failed to build after "
            f"{self.max_retries} retries and were {dropped}",
            RuntimeWarning,
            stacklevel=3,
        )

    # -- internals -----------------------------------------------------
    def _backoff(self, attempt: int) -> None:
        if self.retry_backoff > 0:
            time.sleep(min(self.retry_backoff * (2 ** (attempt - 1)), 30.0))

    def _built(self, count: int) -> None:
        self.registry.inc(f"{self.prefix}.{self.items}_built", count)
        if self._save is None:
            return
        self._pending += count
        if self._every > 0 and self._pending >= self._every:
            self._flush()

    def _flush(self) -> None:
        if self._save is None or self._pending == 0:
            return
        with self.span("checkpoint_flush"):
            self._save()
        self.registry.inc(f"{self.prefix}.checkpoint_flushes")
        self._pending = 0

    def _serial(self, items: Sequence[Any]) -> List[Any]:
        """In-process build with per-item retries; returns failed items."""
        site = f"{self.prefix}.build_{self.item}"
        failed: List[int] = []
        for item in items:
            attempt = 0
            while True:
                try:
                    _faults.inject(site, **{self.key: item, "attempt": attempt})
                    self.build_item(item)
                except ReproError:
                    raise  # deterministic - never retried
                except Exception:
                    attempt += 1
                    if attempt > self.max_retries:
                        failed.append(item)
                        break
                    self.registry.inc(f"{self.prefix}.{self.item}_retries")
                    self._backoff(attempt)
                else:
                    self._built(len(self.members((item,))))
                    break
        return failed

    def _parallel(self, items: Sequence[Any], workers: int) -> List[Any]:
        """Chunked pool build with fresh-pool retries; returns failures."""
        chunk_size = max(1, len(items) // (workers * 4))
        pending = [
            (i, list(items[i * chunk_size : (i + 1) * chunk_size]))
            for i in range((len(items) + chunk_size - 1) // chunk_size)
        ]
        with self.pool_state() as state:
            for attempt in range(self.max_retries + 1):
                if attempt:
                    self._backoff(attempt)
                with ProcessPoolExecutor(
                    max_workers=min(workers, len(pending)),
                    initializer=_pool_init,
                    initargs=(_faults.snapshot(), state),
                ) as pool:
                    still_failing = self._round(pool, pending, attempt)
                if not still_failing:
                    return []
                if attempt < self.max_retries:
                    self.registry.inc(
                        f"{self.prefix}.chunk_retries", len(still_failing)
                    )
                pending = sorted(still_failing)
        return [item for _, chunk in pending for item in chunk]

    def _round(
        self,
        pool: ProcessPoolExecutor,
        chunks: Sequence[Tuple[int, List[Any]]],
        attempt: int,
    ) -> List[Tuple[int, List[Any]]]:
        """Run *chunks* on *pool*, adopting results; return the failed ones.

        Every chunk ends adopted or failed. A worker crash breaks the pool
        and fails every chunk in flight, and a chunk whose submit meets the
        broken pool fails too. On Python 3.11 a submit racing the break
        can also be accepted and never run, so once the pool is broken the
        round shuts it down and fails whatever is still unfinished.
        """
        site = f"{self.prefix}.worker_chunk"
        failed: List[Tuple[int, List[Any]]] = []
        futures = {}
        for i, chunk in chunks:
            context = {"chunk": i, "attempt": attempt,
                       self.keys: self.members(chunk)}
            try:
                future = pool.submit(
                    _pool_chunk, site, context, self.worker_chunk, chunk
                )
            except BrokenProcessPool:
                failed.append((i, chunk))
            else:
                futures[future] = (i, chunk)

        def settle(future) -> None:
            try:
                result = future.result()
            except ReproError:
                raise  # deterministic - propagate immediately
            except Exception:
                # A worker crash (BrokenProcessPool) or an unexpected
                # in-worker error: retry on a fresh pool.
                failed.append(futures[future])
            else:
                self._built(self.adopt_chunk(result))

        remaining = set(futures)
        while remaining:
            done, remaining = wait(
                remaining, timeout=_POLL_SECONDS, return_when=FIRST_COMPLETED
            )
            for future in done:
                settle(future)
            # A broken pool finishes nothing more: it marks itself
            # ``_broken`` and then fails the futures it knows of.
            if remaining and getattr(pool, "_broken", False):
                pool.shutdown(wait=True)
                for future in remaining:
                    if future.done():
                        settle(future)
                    else:
                        future.cancel()
                        failed.append(futures[future])
                break
        return failed
