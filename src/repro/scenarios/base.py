"""Scenario model: seeded generators of graph + topics + timed traces.

A :class:`Scenario` bundles everything one replayable workload needs:

* a seeded dataset (graph + topic index), via :meth:`Scenario.dataset`;
* a timed request trace in the shared replay-JSONL format
  (:mod:`repro.scenarios.trace`), via :meth:`Scenario.trace`;
* mid-replay *events* (structural reloads, targeted answer
  invalidation) that the runner applies between trace segments;
* a brute-force-checkable :class:`~repro.scenarios.quality.OracleInstance`
  miniature plus per-scenario gate thresholds.

Everything is a pure function of ``(scenario, seed, profile)``: two
generations with the same inputs produce byte-identical traces (and so
identical digests), which is what the determinism acceptance gate
checks. Profiles scale the same shape up or down (``default`` vs. the
CI-friendly ``smoke``); they never change the scenario's character.

Concrete scenarios live in :mod:`repro.scenarios.catalog` and register
themselves here via :func:`register`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Type

from ..datasets import DatasetBundle
from ..exceptions import ConfigurationError
from .quality import OracleInstance, random_oracle_instance
from .trace import trace_digest, validate_trace, write_trace

__all__ = [
    "Scenario",
    "ScenarioData",
    "get_scenario",
    "list_scenarios",
    "register",
]


@dataclass
class ScenarioData:
    """One generated scenario run: dataset + trace + events, frozen."""

    name: str
    seed: int
    profile: str
    bundle: DatasetBundle
    records: List[Dict[str, object]]
    events: List[Dict[str, object]] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

    def trace_digest(self) -> str:
        """SHA-256 of the trace's canonical JSONL bytes."""
        return trace_digest(self.records)

    def write_trace(self, path):
        """Write the trace JSONL (readable by ``search --batch`` etc.)."""
        return write_trace(self.records, path)


class Scenario:
    """Base class: subclass, fill the class attributes, implement hooks.

    Subclasses must set :attr:`name` / :attr:`title` / :attr:`description`
    and implement :meth:`dataset` and :meth:`build_trace`. Optional
    hooks: :meth:`build_events` (default: none), :meth:`oracle_instance`
    (default: a property-harness-style random miniature), and the
    ``engine_*`` knobs below.
    """

    #: Registry key (kebab-case); also the CLI name.
    name: str = ""
    title: str = ""
    description: str = ""
    #: Adversarial scenarios exist to fight a serving-layer defense.
    adversarial: bool = False
    #: Seed used when the caller passes none.
    default_seed: int = 42
    #: Per-profile size knobs; every scenario ships "default" and "smoke".
    profiles: Mapping[str, Mapping[str, object]] = {"default": {}}

    # Engine build knobs for the runner's artifact stage.
    summarizer: str = "rcl"
    theta: float = 0.002
    rep_fraction: float = 0.2
    #: Warm the answer/plan tiers from a mined precompute artifact.
    wants_precompute: bool = False
    #: Daemon-mode admission capacity (small = provoke 429 shedding).
    daemon_queue: int = 64
    #: Floor for the summarized-precision quality gate (calibrated).
    min_summarized_precision: float = 0.5

    # ------------------------------------------------------------------
    def params(self, profile: str = "default") -> Dict[str, object]:
        """Resolved size knobs for *profile* (typed refusal on unknown)."""
        try:
            return dict(self.profiles[profile])
        except KeyError:
            known = ", ".join(sorted(self.profiles))
            raise ConfigurationError(
                f"scenario {self.name!r} has no profile {profile!r} "
                f"(choose from: {known})"
            ) from None

    # -- hooks ---------------------------------------------------------
    def dataset(self, seed: int, params: Dict[str, object]) -> DatasetBundle:
        raise NotImplementedError

    def build_trace(
        self, bundle: DatasetBundle, seed: int, params: Dict[str, object]
    ) -> List[Dict[str, object]]:
        raise NotImplementedError

    def build_events(
        self,
        bundle: DatasetBundle,
        records: List[Dict[str, object]],
        seed: int,
        params: Dict[str, object],
    ) -> List[Dict[str, object]]:
        """Mid-replay events: ``{"after": n, "kind": ...}`` dicts.

        ``after`` counts trace records replayed before the event fires
        (the runner aligns it to the enclosing burst boundary). Kinds:
        ``"reload"`` (rebuild summaries with ``seed + reseed`` - and,
        for a warm scenario, the precompute - and swap engines,
        optionally first attempting a refused stale-precompute reload)
        and ``"invalidate_users"`` (drop those users' answer-tier
        entries; engine mode only).
        """
        return []

    def oracle_instance(self, seed: int) -> OracleInstance:
        """Brute-forceable miniature for the quality gates."""
        return random_oracle_instance(seed)

    # ------------------------------------------------------------------
    def generate(
        self, seed: Optional[int] = None, profile: str = "default"
    ) -> ScenarioData:
        """Generate the full scenario deterministically."""
        seed = self.default_seed if seed is None else int(seed)
        params = self.params(profile)
        bundle = self.dataset(seed, params)
        records = validate_trace(
            self.build_trace(bundle, seed, params), graph=bundle.graph
        )
        events = self.build_events(bundle, records, seed, params)
        for event in events:
            after = event.get("after")
            if not isinstance(after, int) or not 0 <= after <= len(records):
                raise ConfigurationError(
                    f"scenario {self.name!r} event has invalid 'after' "
                    f"offset: {after!r}"
                )
        return ScenarioData(
            name=self.name,
            seed=seed,
            profile=profile,
            bundle=bundle,
            records=records,
            events=sorted(events, key=lambda e: e["after"]),
            meta={
                "title": self.title,
                "adversarial": self.adversarial,
                "n_nodes": bundle.graph.n_nodes,
                "n_edges": bundle.graph.n_edges,
                "n_topics": bundle.topic_index.n_topics,
                **params,
            },
        )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, Type[Scenario]] = {}


def register(cls: Type[Scenario]) -> Type[Scenario]:
    """Class decorator adding a scenario to the catalogue."""
    if not cls.name:
        raise ConfigurationError(f"{cls.__name__} has no scenario name")
    if cls.name in _REGISTRY:
        raise ConfigurationError(
            f"duplicate scenario name {cls.name!r}"
        )
    _REGISTRY[cls.name] = cls
    return cls


def get_scenario(name: str) -> Scenario:
    """Instantiate a registered scenario (typed refusal on unknown)."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(
            f"unknown scenario {name!r} (choose from: {known})"
        ) from None


def list_scenarios() -> List[Scenario]:
    """All registered scenarios, sorted by name."""
    return [_REGISTRY[name]() for name in sorted(_REGISTRY)]
