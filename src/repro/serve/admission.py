"""Admission control: a bounded request queue with explicit shedding.

The daemon runs one shared engine behind a single worker thread, so the
throughput of queued work has a hard ceiling; without admission control
an overload turns into an unbounded queue, latency grows without limit,
and every caller times out (congestion collapse). The controller
instead bounds the number of requests admitted-but-unfinished and
*sheds* the excess with an immediate 429 + ``Retry-After`` - cheap for
the server, honest to the caller, and it keeps the latency of accepted
requests bounded by ``capacity x service_time``. Only queued requests
are admitted: an answer-tier hit answered inline on the event loop (see
:mod:`repro.serve.server`) takes no slot and is never shed.

Single-threaded by design: admit/release happen only on the event loop,
so a plain counter is race-free. Gauges ``serve.queue_depth`` and the
``serve.shed`` counter make shedding visible to operators.
"""

from __future__ import annotations

from typing import Optional

from ..obs.registry import MetricsRegistry, NullRegistry
from .protocol import HttpError

__all__ = ["AdmissionController"]


class AdmissionController:
    """Bound the number of concurrently admitted requests.

    Parameters
    ----------
    capacity:
        Maximum admitted-but-unfinished requests (queued + executing).
        Sized relative to the engine's service time: latency of the last
        accepted request is ~``capacity x mean_service_time``.
    metrics:
        Registry receiving ``serve.queue_depth`` / ``serve.shed``.
    """

    def __init__(self, capacity: int, *, metrics: Optional[MetricsRegistry] = None):
        if capacity < 1:
            raise ValueError(f"admission capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._pending = 0
        self._metrics = metrics if metrics is not None else NullRegistry()

    @property
    def pending(self) -> int:
        """Requests currently admitted and not yet released."""
        return self._pending

    def admit(self) -> None:
        """Admit one request or shed it with a typed 429.

        Raises :class:`~repro.serve.protocol.HttpError` (429,
        ``Overloaded``) when the queue is full; the caller must pair a
        successful ``admit`` with exactly one :meth:`release`.
        """
        if self._pending >= self.capacity:
            self._metrics.inc("serve.shed")
            raise HttpError(
                429,
                "Overloaded",
                f"server at capacity ({self.capacity} requests in flight); "
                "retry with backoff",
                retry_after=1,
            )
        self._pending += 1
        self._metrics.set_gauge("serve.queue_depth", self._pending)

    def release(self) -> None:
        """Release one previously admitted request."""
        if self._pending <= 0:
            raise RuntimeError("release() without a matching admit()")
        self._pending -= 1
        self._metrics.set_gauge("serve.queue_depth", self._pending)
