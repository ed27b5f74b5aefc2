"""An in-process daemon on a loopback port, for tests, benches and scenarios.

It speaks to a real :class:`~repro.serve.server.PITServer` over real
sockets, so callers exercise HTTP framing, admission, coalescing, reload
and drain exactly as production traffic does.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import threading
from typing import Dict, Mapping, Optional, Tuple

from ..obs.registry import MetricsRegistry
from .server import PITServer, ServeConfig

__all__ = ["LocalDaemon"]


class LocalDaemon:
    """A :class:`PITServer` on 127.0.0.1, run by a background thread.

    Takes :class:`PITServer`'s arguments, with host ``127.0.0.1`` and
    port 0 (the OS picks one). ``registry`` is the registry the daemon
    and its engines publish to: *metrics*, or a fresh one.
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
        self.registry = metrics if metrics is not None else MetricsRegistry()
        config = dataclasses.replace(
            config or ServeConfig(), host="127.0.0.1", port=0
        )
        self.server = PITServer(
            graph, topic_index, paths, config,
            metrics=self.registry, **engine_options,
        )
        self.exit_code: Optional[int] = None
        self._error: Optional[Exception] = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._main, daemon=True)

    def _main(self) -> None:
        try:
            self.exit_code = asyncio.run(
                self.server.run(ready_callback=self._ready.set)
            )
        except Exception as exc:  # re-raised by start()
            self._error = exc
        finally:
            self._ready.set()

    @property
    def port(self) -> int:
        """The bound loopback port."""
        return self.server.port

    def start(self, timeout: float = 300.0) -> "LocalDaemon":
        """Boot and wait for generation 1; re-raises a failed warm-up."""
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("daemon did not become ready in time")
        if self._error is not None:
            raise self._error
        return self

    def stop(self, exit_code: int = 0, timeout: float = 60.0) -> Optional[int]:
        """Drain and stop; returns the exit code. Raises
        :class:`RuntimeError` if the drain outlasts *timeout* seconds."""
        if self._thread.is_alive():
            self.server.request_shutdown(exit_code)
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise RuntimeError("daemon did not drain in time")
        return self.exit_code

    def request(
        self,
        method: str,
        path: str,
        body=None,
        *,
        raw_body=None,
        timeout: float = 60.0,
    ) -> Tuple[int, object, Dict[str, str]]:
        """One HTTP exchange; returns ``(status, parsed_body, headers)``.

        *body* is JSON-encoded, *raw_body* sent as is; a non-JSON
        response body comes back as bytes.
        """
        import http.client  # client side only: the daemon never loads it

        conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=timeout
        )
        try:
            payload = raw_body
            if payload is None and body is not None:
                payload = json.dumps(body)
            conn.request(
                method, path, body=payload,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            data = response.read()
            status = response.status
            headers = dict(response.getheaders())
        finally:
            conn.close()
        try:
            parsed = json.loads(data)
        except (ValueError, UnicodeDecodeError):
            parsed = data
        return status, parsed, headers

    def search(self, user: int, query: str, k: int = 5, **fields):
        """``POST /search``; *fields* add e.g. ``deadline_ms``."""
        body = {"user": user, "query": query, "k": k, **fields}
        return self.request("POST", "/search", body)
