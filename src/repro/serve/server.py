"""The serving daemon: asyncio HTTP/JSON front-end over one shared engine.

Stdlib-only (``asyncio.start_server`` + hand-rolled HTTP/1.1 framing in
:mod:`repro.serve.protocol`); no web framework, no extra dependencies.
The moving parts and their contracts:

* **One engine, one worker thread, one engine lock.** The engine is not
  thread-safe, so every engine call off the loop - searches, ``/metrics``
  snapshots, deltas - runs on one worker thread holding the engine lock
  (:class:`~repro.serve.coalescer.EngineWorker`). The event loop parses,
  validates, admits and frames bytes, and answers answer-tier hits
  itself: when it wins the engine lock without waiting it probes
  :meth:`~repro.core.serve_facade.ServingEngine.cached_answer`, and a
  hit is answered with no queue and no thread hop. A busy lock or a miss
  takes the queued path below; the loop never blocks on the lock.
* **Answers are encoded once.** A resident answer holds its wire bytes
  (:func:`~repro.core.serve_facade.encode_answer`), encoded when the
  answer was computed or warm-loaded; every ``/search`` success, hit or
  queued miss, is those bytes spliced between the request's fields
  (:func:`~repro.serve.protocol.results_payload`), byte-identical to
  serializing the whole response.
* **Admission before queued work** (:mod:`repro.serve.admission`): a
  full queue sheds with 429 instead of queueing unboundedly. Inline hits
  take no admission slot.
* **Coalescing** (:mod:`repro.serve.coalescer`): concurrent same-query
  requests execute as one vectorized ``search_batch``.
* **Deadlines**: every request carries an absolute monotonic deadline
  (caller's ``deadline_ms`` or the server default). The handler waits at
  most that long; the dispatcher refuses to start or deliver expired
  work. A 504 means the work was *abandoned*, not returned late.
* **Hot reload** (:mod:`repro.serve.reload`): ``POST /admin/reload`` or
  ``SIGHUP`` validates new artifacts off-loop and swaps atomically; a
  corrupt artifact is a 409 and the old engine keeps serving.
* **Streaming deltas** (:mod:`repro.core.dynamics`): ``POST
  /admin/delta`` applies a graph-edit batch to the live engine in place
  with surgical cache invalidation - no engine swap, no generation bump,
  warm state survives for every unaffected user.
* **Lifecycle**: ``/healthz`` is process-alive; ``/readyz`` is
  load-balancer truth (503 while warming, reloading, or draining).
  SIGTERM stops the listener, drains in-flight work up to the drain
  deadline, hard-cancels the rest, and exits 0; SIGINT exits 130.
* **Errors are typed JSON** - a traceback never crosses the socket.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Set, Tuple

from .. import _faults
from ..obs.export import render_prometheus
from ..obs.registry import MetricsRegistry, NullRegistry
from .admission import AdmissionController
from .coalescer import Coalescer, EngineWorker
from .protocol import (
    HttpError,
    SearchRequest,
    encode_response,
    error_for_exception,
    parse_delta_request,
    parse_reload_request,
    parse_search_request,
    results_payload,
)
from .reload import EngineManager

__all__ = ["PITServer", "ServeConfig"]

#: Largest request line / header line we accept (also the stream limit).
_MAX_LINE = 16 * 1024


@dataclass
class ServeConfig:
    """Tunables for one daemon instance (see docs/operations.md)."""

    host: str = "127.0.0.1"
    port: int = 8080
    #: Admission capacity: max admitted-but-unfinished /search requests.
    max_queue: int = 64
    #: Max requests drained into one dispatch round (coalescing bound).
    max_batch: int = 8
    #: Default per-request deadline when the caller sends none.
    default_deadline_s: float = 5.0
    #: How long SIGTERM waits for in-flight work before hard-cancel.
    drain_s: float = 10.0
    #: Request bodies above this are refused with 413 before reading.
    max_body_bytes: int = 64 * 1024
    #: Default k when the caller sends none.
    default_k: int = 10


class PITServer:
    """The daemon over *graph* and its artifact *paths*; then :meth:`run`.

    Parameters
    ----------
    graph, topic_index, paths, engine_options:
        What every engine load opens (see
        :class:`~repro.serve.reload.EngineManager`): *paths* is keyed
        like a reload body (``summaries`` and ``index_dir`` required,
        ``precompute`` optional), and *engine_options* are ``theta`` and
        the shard, answer and plan budgets.
    config:
        :class:`ServeConfig` tunables.
    metrics:
        Registry for ``serve.*`` metrics, which the engines publish to as
        well, so ``/metrics`` is one coherent exposition.
    """

    def __init__(
        self,
        graph,
        topic_index,
        paths: Mapping[str, object],
        config: Optional[ServeConfig] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        **engine_options,
    ):
        self.config = config or ServeConfig()
        self._metrics = metrics if metrics is not None else NullRegistry()
        self.engines = EngineManager(
            graph, topic_index, paths, metrics=metrics, **engine_options
        )
        self.admission = AdmissionController(
            self.config.max_queue, metrics=self._metrics
        )
        # ONE worker thread: the engine's caches/plans are not thread-safe.
        self._worker = EngineWorker()
        self.coalescer = Coalescer(
            self.engines,
            self._worker,
            max_batch=self.config.max_batch,
            metrics=self._metrics,
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._conn_tasks: Set[asyncio.Task] = set()
        #: Requests mid-handling, parse through response write: the drain
        #: barrier. Admission alone is not enough - it releases before
        #: the response bytes go out, and a hard-cancel in that gap
        #: would eat a completed result.
        self._active_requests = 0
        self._state = "warming"  # warming -> ready -> draining
        self._shutdown = asyncio.Event()
        self._exit_code = 0
        self._reload_task: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """``warming`` | ``ready`` | ``draining``."""
        return self._state

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` in tests)."""
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind the listener, warm the engine, flip to ready.

        The listener comes up *before* the engine loads so health
        probes get answers during warm-up (``/readyz`` says 503).
        """
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=_MAX_LINE,
        )
        self._dispatcher = asyncio.ensure_future(self.coalescer.run())
        await self.engines.load_initial()
        self._state = "ready"
        self._metrics.set_gauge("serve.ready", 1)

    def request_shutdown(self, exit_code: int = 0) -> None:
        """Thread-safe :meth:`begin_drain` (test harnesses, embedders)."""
        if self._loop is None:
            raise RuntimeError("server not started")
        self._loop.call_soon_threadsafe(self.begin_drain, exit_code)

    def begin_drain(self, exit_code: int = 0) -> None:
        """Request shutdown (signal handlers and tests call this)."""
        if self._state != "draining":
            self._state = "draining"
            self._exit_code = exit_code
            self._metrics.set_gauge("serve.ready", 0)
            self._shutdown.set()

    async def drain(self) -> None:
        """Stop accepting, finish in-flight work, hard-cancel stragglers."""
        self._state = "draining"
        self._metrics.set_gauge("serve.ready", 0)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + self.config.drain_s
        while self._active_requests > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        if self._active_requests > 0:
            self._metrics.inc("serve.drain_hard_cancels", self._active_requests)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except (asyncio.CancelledError, Exception):
                pass
        self._worker.shutdown()

    async def run(
        self, *, ready_callback: Optional[Callable[[], None]] = None
    ) -> int:
        """Full daemon lifecycle; returns the process exit code.

        Installs SIGTERM (drain, exit 0), SIGINT (drain, exit 130) and
        SIGHUP (hot reload) handlers when the platform and thread allow
        it (tests drive :meth:`begin_drain` directly instead).
        """
        import signal

        await self.start()
        loop = asyncio.get_running_loop()
        installed = []
        for sig, code in ((signal.SIGTERM, 0), (signal.SIGINT, 130)):
            try:
                loop.add_signal_handler(sig, self.begin_drain, code)
                installed.append(sig)
            except (NotImplementedError, ValueError, RuntimeError):
                pass
        try:
            loop.add_signal_handler(signal.SIGHUP, self._reload_on_signal)
            installed.append(signal.SIGHUP)
        except (NotImplementedError, ValueError, RuntimeError, AttributeError):
            pass
        try:
            if ready_callback is not None:
                ready_callback()
            await self._shutdown.wait()
            await self.drain()
        finally:
            for sig in installed:
                try:
                    loop.remove_signal_handler(sig)
                except (NotImplementedError, ValueError, RuntimeError):
                    pass
        return self._exit_code

    def _reload_on_signal(self) -> None:
        if self._reload_task is not None and not self._reload_task.done():
            return  # a reload is already running; SIGHUP is level, not queue
        self._reload_task = asyncio.ensure_future(self._reload_quietly({}))

    async def _reload_quietly(self, overrides: Dict[str, str]) -> None:
        try:
            await self.engines.reload(overrides)
        except Exception:
            pass  # counted in serve.reload_failures; old engine serves on

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._connection_loop(reader, writer)
        except asyncio.CancelledError:
            pass  # hard-cancel at drain deadline: just drop the socket
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                parsed = await self._read_request(reader)
            except HttpError as exc:
                status, body = error_for_exception(exc)
                writer.write(
                    encode_response(
                        status, body, keep_alive=False,
                        retry_after=exc.retry_after,
                    )
                )
                await writer.drain()
                return
            if parsed is None:  # clean EOF between requests
                return
            method, target, keep_alive, body = parsed
            self._active_requests += 1
            try:
                status, payload, extra = await self._route(method, target, body)
                writer.write(
                    encode_response(
                        status, payload, keep_alive=keep_alive, **extra
                    )
                )
                await writer.drain()
            finally:
                self._active_requests -= 1
            if not keep_alive:
                return

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bool, bytes]]:
        """Parse one request into ``(method, target, keep_alive, body)``;
        None on clean EOF, HttpError on garbage.

        HTTP/1.1 persists unless ``Connection`` says ``close``; HTTP/1.0
        persists only when it says ``keep-alive``.
        """
        try:
            line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            raise HttpError(400, "MalformedRequest", "request line too long")
        if not line:
            return None
        parts = line.decode("latin-1", "replace").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise HttpError(400, "MalformedRequest", "malformed request line")
        method, target, version = parts[0].upper(), parts[1], parts[2]
        headers: Dict[str, str] = {}
        while True:
            try:
                raw = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError):
                raise HttpError(400, "MalformedRequest", "header line too long")
            if raw in (b"\r\n", b"\n", b""):
                break
            name, sep, value = raw.decode("latin-1", "replace").partition(":")
            if not sep:
                raise HttpError(400, "MalformedRequest", "malformed header")
            headers[name.strip().lower()] = value.strip()
        length_raw = headers.get("content-length", "0")
        try:
            length = int(length_raw)
        except ValueError:
            raise HttpError(
                400, "MalformedRequest",
                f"invalid Content-Length {length_raw!r}",
            )
        if length < 0:
            raise HttpError(
                400, "MalformedRequest", f"negative Content-Length {length}"
            )
        if length > self.config.max_body_bytes:
            # Refused before reading the body; connection must close.
            raise HttpError(
                413, "PayloadTooLarge",
                f"body of {length} bytes exceeds limit "
                f"{self.config.max_body_bytes}",
            )
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise HttpError(
                    400, "MalformedRequest", "body shorter than Content-Length"
                )
        tokens = {
            token.strip()
            for token in headers.get("connection", "").lower().split(",")
        }
        if version == "HTTP/1.0":
            keep_alive = "keep-alive" in tokens
        else:
            keep_alive = "close" not in tokens
        return method, target, keep_alive, body

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, object, Dict]:
        """Dispatch one request; returns (status, payload, header extras)."""
        path = target.split("?", 1)[0]
        try:
            if path == "/healthz":
                if method != "GET":
                    raise HttpError(405, "MethodNotAllowed", "use GET")
                return 200, {"status": "ok", "state": self._state}, {}
            if path == "/readyz":
                if method != "GET":
                    raise HttpError(405, "MethodNotAllowed", "use GET")
                return self._readyz()
            if path == "/metrics":
                if method != "GET":
                    raise HttpError(405, "MethodNotAllowed", "use GET")
                return await self._metrics_response()
            if path == "/search":
                if method != "POST":
                    raise HttpError(405, "MethodNotAllowed", "use POST")
                return await self._search(body)
            if path == "/admin/reload":
                if method != "POST":
                    raise HttpError(405, "MethodNotAllowed", "use POST")
                return await self._admin_reload(body)
            if path == "/admin/delta":
                if method != "POST":
                    raise HttpError(405, "MethodNotAllowed", "use POST")
                return await self._admin_delta(body)
            raise HttpError(404, "NotFound", f"no route for {path}")
        except Exception as exc:  # noqa: BLE001 - typed JSON, never a traceback
            status, payload = error_for_exception(exc)
            if status >= 500:
                self._metrics.inc("serve.errors")
            extra: Dict = {}
            if isinstance(exc, HttpError) and exc.retry_after is not None:
                extra["retry_after"] = exc.retry_after
            return status, payload, extra

    def _readyz(self) -> Tuple[int, object, Dict]:
        ready = self._state == "ready" and not self.engines.reloading
        if ready:
            return 200, {"ready": True, "generation": self.engines.generation}, {}
        return 503, {"ready": False, "state": self._state}, {}

    async def _metrics_response(self) -> Tuple[int, object, Dict]:
        engine = self.engines.current
        if engine is None:
            snapshot = self._metrics.snapshot()
        else:
            # Snapshot on the worker: gauge publication walks engine
            # caches, which must not race active searches.
            snapshot = await self._worker.call(engine.metrics_snapshot)
        text = render_prometheus(snapshot)
        return 200, text, {"content_type": "text/plain; version=0.0.4"}

    async def _search(self, body: bytes) -> Tuple[int, object, Dict]:
        if self._state == "draining":
            self._metrics.inc("serve.draining_rejects")
            raise HttpError(503, "Draining", "server is shutting down")
        if self._state != "ready":
            raise HttpError(503, "NotReady", "server is warming up")
        _faults.inject("serve.handle", path="/search")
        request = parse_search_request(body, default_k=self.config.default_k)
        self._metrics.inc("serve.requests")
        start = time.monotonic()
        engine, generation = self.engines.acquire()
        fragment = self._answer_inline(engine, request)
        if fragment is None:
            fragment, generation = await self._search_queued(request, start)
        else:
            self._metrics.inc("serve.answered_inline")
        self._metrics.observe(
            "serve.latency_seconds", time.monotonic() - start
        )
        self._metrics.inc("serve.responses_ok")
        return 200, results_payload(request, fragment, generation), {}

    def _answer_inline(self, engine, request: SearchRequest):
        """The resident answer's wire bytes, probed on the loop; ``None``
        when the engine lock is busy (a worker call is running) or on a
        miss."""
        lock = self._worker.lock
        if not lock.acquire(blocking=False):
            return None
        try:
            return engine.cached_answer(
                request.user, request.query, request.k, encoded=True
            )
        finally:
            lock.release()

    async def _search_queued(self, request: SearchRequest, start: float):
        """Admission -> coalescer -> worker; ``(fragment, generation)``."""
        timeout = (
            request.deadline_s
            if request.deadline_s is not None
            else self.config.default_deadline_s
        )
        self.admission.admit()
        try:
            future = self.coalescer.submit(request, start + timeout)
            try:
                fragment, generation = await asyncio.wait_for(future, timeout)
            except asyncio.TimeoutError:
                # wait_for cancelled the future: the dispatcher sees it
                # done and abandons the result - never returned stale.
                self._metrics.inc("serve.deadline_exceeded")
                raise HttpError(
                    504, "DeadlineExceeded",
                    f"request exceeded its {timeout:.3f}s deadline",
                ) from None
        finally:
            self.admission.release()
        return fragment, generation

    async def _admin_reload(self, body: bytes) -> Tuple[int, object, Dict]:
        overrides = parse_reload_request(body)
        generation = await self.engines.reload(overrides)
        return 200, {"status": "reloaded", "generation": generation}, {}

    async def _admin_delta(self, body: bytes) -> Tuple[int, object, Dict]:
        """``POST /admin/delta``: stream a graph-edit batch into the
        live engine (:meth:`ServingEngine.apply_delta`).

        Runs on the engine worker holding the engine lock - the delta
        mutates the engine in place, so it must serialize with active
        searches, and an inline answer probe that meets the held lock
        falls through to the queue and runs after the delta. Unlike a reload there is no generation bump: the same
        engine keeps serving, minus exactly the invalidated state.
        """
        from ..core.dynamics import GraphDelta

        if self._state != "ready":
            raise HttpError(503, "NotReady", "server is not serving")
        if self.engines.reloading:
            raise HttpError(
                503, "Reloading",
                "a reload is in progress; retry the delta after it lands",
            )
        kwargs = parse_delta_request(body)
        delta = GraphDelta(**kwargs)
        engine = self.engines.current
        if engine is None:
            raise HttpError(503, "NotReady", "no engine is loaded")
        report = await self._worker.call(engine.apply_delta, delta)
        self._metrics.inc("serve.deltas")
        return 200, {"status": "applied", **report}, {}
