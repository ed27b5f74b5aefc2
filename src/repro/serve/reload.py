"""Hot artifact reload: swap engines under traffic, refuse bad artifacts.

The operator's flow is: build new artifacts offline, drop them on disk
(or point at new paths), ``POST /admin/reload`` (or ``SIGHUP``). The
manager owns the artifact paths in force: a reload merges its overrides
onto them, loads and fully validates the *new* engine off the event loop
while the old engine keeps answering every request, then swaps the
engine and the merged paths together. So an override stays in force for
later ``{}`` reloads, a refused reload changes nothing, there is never
a moment without a serving engine, and no request is dropped or split
across engines (batches resolve the engine once, at drain time; see
:mod:`repro.serve.coalescer`).

Validation is the artifact layer's own: checksums and graph signatures
are verified during load, so a truncated, bit-flipped, or
wrong-graph artifact raises
:class:`~repro.exceptions.ArtifactCorruptedError` (or kin) *before* the
swap point and the old engine simply stays current - a failed reload is
observable (409 + ``serve.reload_failures``) but harmless.

A generation counter stamps every response, which is how tests (and
operators) prove which artifact answered: responses across a reload go
``generation: 1`` -> ``generation: 2`` with zero errors in between.

The swap is also the answer-cache invalidation point: every generation is
a *new* engine whose cache tiers start empty (then re-warm from the
precompute artifact, when one is configured), so an answer computed under
generation N can never be served under generation N+1. The manager stamps
the new generation onto engines that expose ``set_reload_generation`` so
the ``cache.tier.generation`` gauge tracks the swap.
"""

from __future__ import annotations

import asyncio
import functools
from typing import Dict, Mapping, Optional, Tuple

from .. import _faults
from ..exceptions import ConfigurationError
from ..obs.registry import MetricsRegistry, NullRegistry
from .protocol import RELOAD_KEYS

__all__ = ["EngineManager", "open_engine"]


def _check_paths(paths: Mapping[str, object]) -> None:
    keys = set(paths)
    if keys - RELOAD_KEYS or not {"summaries", "index_dir"} <= keys:
        raise ConfigurationError(
            f"artifact paths need 'summaries' and 'index_dir' and take "
            f"only {sorted(RELOAD_KEYS)}; got {sorted(paths)}"
        )


def open_engine(
    graph,
    topic_index,
    paths: Mapping[str, str],
    *,
    metrics: Optional[MetricsRegistry] = None,
    **engine_options,
):
    """Open a validated serving engine over one artifact set.

    The one mapping from the reload keys (``summaries`` and
    ``index_dir`` required, ``precompute`` optional) onto
    :meth:`~repro.core.serve_facade.ServingEngine.from_artifacts`;
    *engine_options* are its remaining keywords (``theta`` and the
    shard, answer and plan budgets).
    """
    from ..core.serve_facade import ServingEngine

    _check_paths(paths)
    return ServingEngine.from_artifacts(
        graph,
        topic_index,
        paths["summaries"],
        index_dir=paths["index_dir"],
        precompute_path=paths.get("precompute"),
        metrics=metrics,
        **engine_options,
    )


class EngineManager:
    """Own the current engine, the artifact paths in force, and reloads.

    Every load is :func:`open_engine` over *graph*, *topic_index*, the
    merged paths (``summaries`` and ``index_dir`` required,
    ``precompute`` optional) and *engine_options*; *metrics* takes the
    ``serve.*`` reload series and the engines' own.
    """

    def __init__(
        self,
        graph,
        topic_index,
        paths: Mapping[str, object],
        *,
        metrics: Optional[MetricsRegistry] = None,
        **engine_options,
    ):
        _check_paths(paths)
        self._paths = {key: str(value) for key, value in paths.items()}
        self._open = functools.partial(
            open_engine, graph, topic_index,
            metrics=metrics, **engine_options,
        )
        self._metrics = metrics if metrics is not None else NullRegistry()
        self._engine: Optional[object] = None
        self._generation = 0
        self._lock = asyncio.Lock()
        self._reloading = False

    @property
    def current(self):
        """The serving engine (None before :meth:`load_initial`)."""
        return self._engine

    @property
    def generation(self) -> int:
        """Monotone artifact generation; 0 until the first load."""
        return self._generation

    @property
    def paths(self) -> Dict[str, str]:
        """The artifact paths the current engine was loaded from."""
        return dict(self._paths)

    @property
    def reloading(self) -> bool:
        """True while a reload is loading/validating (old engine serves)."""
        return self._reloading

    def acquire(self) -> Tuple[object, int]:
        """The engine and its generation, resolved atomically.

        Called once per dispatched batch so every request in a batch is
        answered - and stamped - by a single consistent engine.
        """
        if self._engine is None:
            raise RuntimeError("no engine loaded yet")
        return self._engine, self._generation

    async def load_initial(self) -> int:
        """Load the first engine (daemon warm-up); returns the generation."""
        return await self._load_and_swap({})

    async def reload(self, overrides: Mapping[str, str]) -> int:
        """Load a new engine and swap it in; returns the new generation.

        *overrides* replace individual paths in force (``{}`` reopens
        them as they are). Serialized: concurrent reloads queue on the
        lock. On any load failure the exception propagates (the server
        maps artifact errors to 409) and the current engine, generation
        and paths are untouched.
        """
        self._metrics.inc("serve.reloads")
        try:
            return await self._load_and_swap(overrides)
        except Exception:
            self._metrics.inc("serve.reload_failures")
            raise

    async def _load_and_swap(self, overrides: Mapping[str, str]) -> int:
        loop = asyncio.get_running_loop()
        async with self._lock:
            self._reloading = True
            try:
                paths = {**self._paths, **overrides}
                engine = await loop.run_in_executor(None, self._open, paths)
                _faults.inject(
                    "serve.reload.swap", generation=self._generation + 1
                )
                self._engine = engine
                self._paths = paths
                self._generation += 1
                stamp = getattr(engine, "set_reload_generation", None)
                if stamp is not None:
                    stamp(self._generation)
                self._metrics.set_gauge("serve.generation", self._generation)
                return self._generation
            finally:
                self._reloading = False
