"""``pit-search serve`` with tracer spans around the request path's layers.

    python3 benchmarks/e2e/traced_serve.py --events-out EVENTS.json -- \
        serve --dataset data_2k ... (any ``pit-search serve`` arguments)

Wraps public entry points of the serving stack in
:class:`repro.obs.tracing.Tracer` spans, then runs the unmodified CLI. The
event loop and the search executor are separate threads, so each thread
records into its own tracer. When the daemon has drained, every span is
written to ``--events-out`` as ``[name, span_id, parent_id, start,
self_seconds]`` rows per tracer; ``start`` is the span's
``time.perf_counter()`` stamp. On Linux that clock is CLOCK_MONOTONIC,
shared by every process, so the benchmark cuts out its measurement window
with its own ``perf_counter()`` readings.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from repro import cli  # noqa: E402
from repro.core import ServingEngine  # noqa: E402
from repro.core import dynamics, shards  # noqa: E402
from repro.core.search import PersonalizedSearcher  # noqa: E402
from repro.core.shards import MmapShardBackend  # noqa: E402
from repro.core.summarization import TopicSummary  # noqa: E402
from repro.obs import null_registry  # noqa: E402
from repro.obs.tracing import Tracer  # noqa: E402
from repro.serve import server  # noqa: E402
from repro.topics import TopicIndex  # noqa: E402

#: (owner, attribute) pairs wrapped in a span named after the attribute.
#: Module attributes are looked up at call time by their callers.
TRACED = (
    (server, "parse_search_request"),
    (server, "results_payload"),
    (server, "encode_response"),
    (ServingEngine, "search_batch"),
    (ServingEngine, "invalidate_answers"),
    (PersonalizedSearcher, "search_many"),
    (TopicIndex, "related_topics"),
    (TopicSummary, "arrays"),
    (MmapShardBackend, "get"),
    (dynamics, "apply_delta_to_graph"),
    (dynamics, "affected_nodes"),
    (shards, "refresh_sharded_index"),
)


class ThreadTracers:
    """One :class:`Tracer` per thread, created on the thread's first span."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.tracers = []

    def current(self) -> Tracer:
        tracer = getattr(self._local, "tracer", None)
        if tracer is None:
            tracer = Tracer(max_events=5_000_000)
            self._local.tracer = tracer
            with self._lock:
                self.tracers.append(tracer)
        return tracer

    def rows(self):
        """Every recorded span, grouped by tracer."""
        return [
            [[e.name, e.span_id, e.parent_id, e.start, e.self_seconds]
             for e in tracer.events]
            for tracer in self.tracers
        ]


def install(tracers: ThreadTracers) -> None:
    """Replace every :data:`TRACED` attribute with a spanned wrapper."""
    quiet = null_registry()
    for owner, attr in TRACED:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, _original=original, _name=attr, **kwargs):
            with tracers.current().trace(_name, registry=quiet):
                return _original(*args, **kwargs)

        setattr(owner, attr, traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events-out", required=True, type=Path)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]
    tracers = ThreadTracers()
    install(tracers)
    code = cli.main(serve_args)
    args.events_out.write_text(json.dumps(tracers.rows()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
