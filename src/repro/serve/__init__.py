"""Resilient serving daemon for PIT-Search (``pit-search serve``).

A dependency-free asyncio HTTP/JSON front-end over one shared
:class:`~repro.core.serve_facade.ServingEngine`:

* :mod:`repro.serve.protocol` - HTTP framing, validation, typed errors.
* :mod:`repro.serve.admission` - bounded queue, explicit 429 shedding.
* :mod:`repro.serve.coalescer` - same-query batching with isolation.
* :mod:`repro.serve.reload` - validated hot artifact swap, generations.
* :mod:`repro.serve.server` - routes, deadlines, lifecycle, metrics.
* :mod:`repro.serve.local` - an in-process daemon on a loopback port.

See docs/operations.md ("Serving") for the operator runbook and
docs/observability.md for the ``serve.*`` metric catalogue.
"""

from .admission import AdmissionController
from .coalescer import Coalescer, PendingSearch
from .local import LocalDaemon
from .protocol import (
    HttpError,
    SearchRequest,
    parse_reload_request,
    parse_search_request,
)
from .reload import EngineManager, open_engine
from .server import PITServer, ServeConfig

__all__ = [
    "AdmissionController",
    "Coalescer",
    "EngineManager",
    "HttpError",
    "LocalDaemon",
    "PITServer",
    "PendingSearch",
    "SearchRequest",
    "ServeConfig",
    "open_engine",
    "parse_reload_request",
    "parse_search_request",
]
