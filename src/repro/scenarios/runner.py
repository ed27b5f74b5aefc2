"""Replay a generated scenario through the serving stack and grade it.

Two replay modes over the same generated trace and the same on-disk
artifacts:

* ``engine`` (default): bursts go through
  :meth:`~repro.core.serve_facade.ServingEngine.search_batch` in
  process. Fully deterministic - the report's ``replay`` section
  (results digest, answer-cache hit trajectory, event outcomes) is part
  of the determinism acceptance gate.
* ``daemon``: a real :class:`~repro.serve.server.PITServer` on a
  loopback socket; bursts are fired concurrently, reload events post
  the whole new artifact set to ``POST /admin/reload``, as an operator
  would. Timing-dependent counters (sheds, deadline misses) land in the
  report's ``daemon`` section, which the determinism comparison
  excludes; the zero-5xx and stale-precompute refusal gates still apply.

Quality is graded against the scenario's brute-force oracle miniature
(:mod:`repro.scenarios.quality`) regardless of mode, so a scenario run
always answers both "did the stack survive this traffic" and "were the
answers any good".
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.engine import PITEngine
from ..core.persistence import save_summaries
from ..core.precompute import build_precompute, save_precompute
from ..core.serve_facade import ServingEngine
from ..exceptions import ConfigurationError
from ..obs import MetricsRegistry
from ..serve import LocalDaemon, ServeConfig, open_engine
from .base import Scenario, ScenarioData, get_scenario
from .quality import evaluate_exact, evaluate_summarized
from .trace import trace_bursts

__all__ = [
    "REPORT_SCHEMA",
    "deterministic_view",
    "run_scenario",
]

REPORT_SCHEMA = "repro.scenarios/v1"

#: Answer/plan tier budgets for scenario runs (plenty at scenario scale).
_ANSWER_CACHE_BYTES = 4 << 20
_PLAN_CACHE_BYTES = 8 << 20

#: Hit-trajectory resolution: the trace is cut into this many windows.
_N_WINDOWS = 12


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def _build_artifacts(
    data: ScenarioData,
    scenario: Scenario,
    directory: Path,
    *,
    reseed: int = 0,
    index_dir: Optional[Path] = None,
) -> Tuple[Path, Dict[str, str]]:
    """Build generation *reseed*'s artifacts; returns (index, paths).

    Generation 0 builds the sharded propagation index; later generations
    (churn reloads) rebuild only the summaries - with a shifted seed
    *and* a nudged representative budget, so the summaries fingerprint
    is guaranteed to change and a stale precompute is provably refused.
    *paths* is the generation's artifact set keyed like a reload body: a
    fresh served copy of the shards, the summaries, and - when the
    scenario serves warm - a precompute mined over those summaries, per
    the rollout rule in docs/operations.md.
    """
    rep_fraction = min(1.0, scenario.rep_fraction + 0.05 * reseed)
    engine = PITEngine.from_dataset(
        data.bundle,
        summarizer=scenario.summarizer,
        theta=scenario.theta,
        rep_fraction=rep_fraction,
        seed=data.seed + 1000 * reseed,
    )
    if index_dir is None:
        index_dir = directory / "prop_shards"
        engine.propagation_index.build_sharded(index_dir, workers=1)
    engine.build_summaries()
    sums_path = directory / f"sums_{reseed}.json"
    save_summaries(engine.summaries, data.bundle.graph, sums_path)
    paths = {
        "summaries": str(sums_path),
        "index_dir": str(_served_copy(index_dir)),
    }
    if scenario.wants_precompute:
        artifact = build_precompute(
            _open_engine(data, scenario, paths), data.records,
            top_queries=16, top_answers=64,
        )
        precompute_path = directory / f"precompute_{reseed}.json"
        save_precompute(artifact, precompute_path)
        paths["precompute"] = str(precompute_path)
    return index_dir, paths


def _served_copy(index_dir: Path) -> Path:
    """A private copy of the shard directory for one generation to serve.

    A delta rewrites the served shards in place; a copy keeps the built
    artifact for a later reload over the pre-delta graph, unlike
    ``pit-search serve`` (see ``docs/dynamics.md``). Each reload body
    names a fresh copy.
    """
    copy = Path(tempfile.mkdtemp(prefix="served-", dir=index_dir.parent))
    shutil.copytree(index_dir, copy, dirs_exist_ok=True)
    return copy


def _engine_options(scenario: Scenario) -> Dict[str, object]:
    """The ``from_artifacts`` keywords every scenario engine loads with."""
    return {
        "theta": scenario.theta,
        "answer_cache_bytes": _ANSWER_CACHE_BYTES,
        "plan_cache_bytes": _PLAN_CACHE_BYTES,
    }


def _open_engine(
    data: ScenarioData,
    scenario: Scenario,
    paths: Dict[str, str],
) -> ServingEngine:
    return open_engine(
        data.bundle.graph, data.bundle.topic_index, paths,
        **_engine_options(scenario),
    )


def _stale_body(new_paths: Dict[str, str]) -> Dict[str, str]:
    """The reload an operator sends who forgot to rebuild the precompute:
    the new artifact set minus its precompute, so the one in force (mined
    over the old summaries) is refused."""
    return {k: v for k, v in new_paths.items() if k != "precompute"}


# ---------------------------------------------------------------------------
# Shared replay accounting
# ---------------------------------------------------------------------------


def _result_line(record: Dict[str, object], results) -> bytes:
    """Canonical bytes of one answered request, for the results digest."""
    payload = {
        "user": record["user"],
        "query": record["query"],
        "k": record["k"],
        "results": [[r.topic_id, r.label, r.influence] for r in results],
    }
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def _payload_line(record: Dict[str, object], body: Dict) -> bytes:
    """Same digest line, from a daemon response body."""
    payload = {
        "user": record["user"],
        "query": record["query"],
        "k": record["k"],
        "results": [
            [r["topic_id"], r["label"], r["influence"]]
            for r in body["results"]
        ],
    }
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


class _HitTracker:
    """Answer-tier hit/miss deltas that survive engine swaps."""

    def __init__(self, engine: ServingEngine):
        self._engine = engine
        self._hits = 0
        self._misses = 0

    def rebase(self, engine: ServingEngine) -> None:
        self._engine = engine
        self._hits = 0
        self._misses = 0

    def delta(self) -> Tuple[int, int]:
        stats = self._engine.tier_stats().get("answers")
        hits = stats.hits if stats else 0
        misses = stats.misses if stats else 0
        out = (hits - self._hits, misses - self._misses)
        self._hits, self._misses = hits, misses
        return out


class _Windows:
    """Fold per-burst hit/miss deltas into a fixed-width trajectory."""

    def __init__(self, n_records: int):
        self.size = max(1, math.ceil(n_records / _N_WINDOWS))
        self.rows: List[Dict[str, object]] = []
        self._open: Optional[Dict[str, int]] = None

    def add(self, n_requests: int, hits: int, misses: int) -> None:
        if self._open is None:
            self._open = {"requests": 0, "answer_hits": 0,
                          "answer_misses": 0}
        self._open["requests"] += n_requests
        self._open["answer_hits"] += hits
        self._open["answer_misses"] += misses
        if self._open["requests"] >= self.size:
            self.close()

    def close(self) -> None:
        if self._open is None:
            return
        total = self._open["answer_hits"] + self._open["answer_misses"]
        self._open["hit_ratio"] = (
            round(self._open["answer_hits"] / total, 6) if total else 0.0
        )
        self.rows.append(self._open)
        self._open = None


def _expects_answer_hits(records: Sequence[Dict[str, object]]) -> bool:
    """Does the trace repeat any (user, query, k) triple?"""
    seen = set()
    for record in records:
        key = (record["user"], record["query"], record["k"])
        if key in seen:
            return True
        seen.add(key)
    return False


def _event_plan(
    data: ScenarioData,
) -> List[Tuple[int, Dict[str, object]]]:
    return [(int(event["after"]), dict(event)) for event in data.events]


# ---------------------------------------------------------------------------
# Engine-mode replay
# ---------------------------------------------------------------------------


def _search_burst(engine: ServingEngine, burst) -> List:
    """One burst through search_batch, preserving per-record k."""
    outcomes: List = [None] * len(burst)
    by_k: Dict[int, List[int]] = {}
    for i, record in enumerate(burst):
        by_k.setdefault(int(record["k"]), []).append(i)
    for k, indices in sorted(by_k.items()):
        results = engine.search_batch(
            [(burst[i]["user"], burst[i]["query"]) for i in indices], k
        )
        for i, result in zip(indices, results):
            outcomes[i] = result
    return outcomes


def _replay_engine(
    scenario: Scenario,
    data: ScenarioData,
    index_dir: Path,
    directory: Path,
    paths: Dict[str, str],
) -> Dict[str, object]:
    engine = _open_engine(data, scenario, paths)
    warm = engine.tier_stats().get("answers")
    warm_answers = warm.n_items if warm else 0

    digest = hashlib.sha256()
    tracker = _HitTracker(engine)
    windows = _Windows(len(data.records))
    events_out: List[Dict[str, object]] = []
    pending = _event_plan(data)
    generation = 0
    served = 0

    for burst in trace_bursts(data.records):
        while pending and pending[0][0] <= served:
            _, event = pending.pop(0)
            outcome = {"after": served, "kind": event["kind"]}
            if event["kind"] == "invalidate_users":
                outcome["applied"] = True
                outcome["invalidated"] = engine.invalidate_answers(
                    users=event["users"]
                )
            elif event["kind"] == "delta":
                from ..core.dynamics import GraphDelta

                delta = GraphDelta(
                    inserts=tuple(
                        tuple(row) for row in event.get("inserts", ())
                    ),
                    deletes=tuple(
                        tuple(row) for row in event.get("deletes", ())
                    ),
                    reweights=tuple(
                        tuple(row) for row in event.get("reweights", ())
                    ),
                    decay=float(event.get("decay", 1.0)),
                    decay_floor=float(event.get("decay_floor", 0.0)),
                )
                report = engine.apply_delta(delta)
                outcome["applied"] = True
                outcome["affected"] = report["affected"]
                outcome["answers_invalidated"] = (
                    report["answers_invalidated"]
                )
            elif event["kind"] == "reload":
                _, new_paths = _build_artifacts(
                    data, scenario, directory,
                    reseed=int(event.get("reseed", 1)), index_dir=index_dir,
                )
                if event.get("stale_precompute") and "precompute" in paths:
                    try:
                        _open_engine(
                            data, scenario,
                            {**paths, **_stale_body(new_paths)},
                        )
                        outcome["stale_precompute_refused"] = False
                    except ConfigurationError:
                        outcome["stale_precompute_refused"] = True
                paths = new_paths
                engine = _open_engine(data, scenario, paths)
                generation += 1
                engine.set_reload_generation(generation)
                tracker.rebase(engine)
                outcome["applied"] = True
                outcome["generation"] = generation
            else:
                outcome["applied"] = False
                outcome["reason"] = f"unknown event kind {event['kind']!r}"
            events_out.append(outcome)

        outcomes = _search_burst(engine, burst)
        for record, results in zip(burst, outcomes):
            digest.update(_result_line(record, results))
        served += len(burst)
        hits, misses = tracker.delta()
        windows.add(len(burst), hits, misses)
    windows.close()

    totals = {
        "answer_hits": sum(w["answer_hits"] for w in windows.rows),
        "answer_misses": sum(w["answer_misses"] for w in windows.rows),
    }
    return {
        "results_digest": digest.hexdigest(),
        "served": served,
        "warm_answers": warm_answers,
        "windows": windows.rows,
        "events": events_out,
        "answer_cache": totals,
        "generations": generation,
    }


# ---------------------------------------------------------------------------
# Daemon-mode replay
# ---------------------------------------------------------------------------


def _replay_daemon(
    scenario: Scenario,
    data: ScenarioData,
    index_dir: Path,
    directory: Path,
    paths: Dict[str, str],
    registry: MetricsRegistry,
) -> Dict[str, object]:
    config = ServeConfig(
        max_queue=int(getattr(scenario, "daemon_queue", 64)),
        default_k=5,
    )
    daemon = LocalDaemon(
        data.bundle.graph, data.bundle.topic_index, paths, config,
        metrics=registry, **_engine_options(scenario),
    ).start()
    statuses: Dict[int, int] = {}
    digest = hashlib.sha256()
    digest_covers = 0
    events_out: List[Dict[str, object]] = []
    pending = _event_plan(data)
    served = 0

    def one(record):
        status, body, _ = daemon.search(
            record["user"], record["query"], record["k"]
        )
        return status, body

    try:
        for burst in trace_bursts(data.records):
            while pending and pending[0][0] <= served:
                _, event = pending.pop(0)
                outcome = {"after": served, "kind": event["kind"]}
                if event["kind"] == "reload":
                    _, new_paths = _build_artifacts(
                        data, scenario, directory,
                        reseed=int(event.get("reseed", 1)),
                        index_dir=index_dir,
                    )
                    if event.get("stale_precompute") and "precompute" in paths:
                        status, _, _ = daemon.request(
                            "POST", "/admin/reload", _stale_body(new_paths)
                        )
                        outcome["stale_precompute_refused"] = (
                            status == 400
                        )
                        outcome["stale_status"] = status
                    status, body, _ = daemon.request(
                        "POST", "/admin/reload", new_paths
                    )
                    outcome["applied"] = status == 200
                    outcome["status"] = status
                    if isinstance(body, dict):
                        outcome["generation"] = body.get("generation")
                elif event["kind"] == "delta":
                    status, body, _ = daemon.request(
                        "POST", "/admin/delta",
                        {
                            key: event[key]
                            for key in ("inserts", "deletes", "reweights",
                                        "decay", "decay_floor")
                            if key in event
                        },
                    )
                    outcome["applied"] = status == 200
                    outcome["status"] = status
                    if isinstance(body, dict):
                        outcome["affected"] = body.get("affected")
                        outcome["answers_invalidated"] = body.get(
                            "answers_invalidated"
                        )
                else:
                    outcome["applied"] = False
                    outcome["reason"] = "engine-mode event"
                events_out.append(outcome)

            if len(burst) == 1:
                replies = [one(burst[0])]
            else:
                # Fire the whole burst concurrently (capped at 32 client
                # threads) - a spike burst larger than the admission
                # queue genuinely overruns it and must be shed with 429.
                with ThreadPoolExecutor(
                    max_workers=min(len(burst), 32)
                ) as pool:
                    replies = list(pool.map(one, burst))
            for record, (status, body) in zip(burst, replies):
                statuses[status] = statuses.get(status, 0) + 1
                if status == 200 and isinstance(body, dict):
                    digest.update(_payload_line(record, body))
                    digest_covers += 1
            served += len(burst)
    finally:
        daemon.stop()

    return {
        "statuses": {str(s): n for s, n in sorted(statuses.items())},
        "served": statuses.get(200, 0),
        "shed": statuses.get(429, 0),
        "deadline_missed": statuses.get(504, 0),
        "server_errors": sum(
            n for s, n in statuses.items() if s >= 500 and s != 504
        ),
        "results_digest": digest.hexdigest(),
        "digest_covers": digest_covers,
        "events": events_out,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _gates(
    scenario: Scenario,
    data: ScenarioData,
    quality: Dict[str, Dict[str, object]],
    replay: Optional[Dict[str, object]],
    daemon: Optional[Dict[str, object]],
) -> Dict[str, bool]:
    gates: Dict[str, bool] = {
        "exact_precision": quality["exact"]["precision"] == 1.0,
        "exact_influence": (
            quality["exact"]["max_influence_error"] <= 1e-9
        ),
        "summarized_precision": (
            quality["summarized"]["precision"]
            >= scenario.min_summarized_precision
        ),
    }
    events = (replay or daemon or {}).get("events", [])
    reloads = [e for e in events if e["kind"] == "reload"]
    if reloads:
        gates["reloads_applied"] = all(e.get("applied") for e in reloads)
    deltas = [e for e in events if e["kind"] == "delta"]
    if deltas:
        gates["deltas_applied"] = all(e.get("applied") for e in deltas)
    stale = [
        e for e in events if "stale_precompute_refused" in e
    ]
    if stale:
        gates["stale_precompute_refused"] = all(
            e["stale_precompute_refused"] for e in stale
        )
    if replay is not None and _expects_answer_hits(data.records):
        gates["answer_hits"] = (
            replay["answer_cache"]["answer_hits"] > 0
        )
    if daemon is not None:
        gates["zero_5xx"] = daemon["server_errors"] == 0
        gates["all_admitted_answered"] = (
            daemon["served"] + daemon["shed"]
            + daemon["deadline_missed"]
            + sum(
                n for s, n in daemon["statuses"].items()
                if int(s) not in (200, 429, 504)
            )
            == len(data.records)
        )
    return gates


def run_scenario(
    name,
    *,
    seed: Optional[int] = None,
    profile: str = "default",
    mode: str = "engine",
    workdir=None,
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, object]:
    """Generate, replay, and grade one scenario; returns the report.

    The report's ``timing`` and ``daemon`` sections are
    timing-dependent; everything else is a pure function of
    ``(name, seed, profile, mode)`` - see :func:`deterministic_view`.
    """
    if mode not in ("engine", "daemon"):
        raise ConfigurationError(
            f"unknown scenario mode {mode!r} (engine or daemon)"
        )
    scenario = name if isinstance(name, Scenario) else get_scenario(name)
    data = scenario.generate(seed, profile)
    registry = registry if registry is not None else MetricsRegistry()

    started = time.perf_counter()
    cleanup = None
    if workdir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="pit-scenario-")
        workdir = cleanup.name
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        index_dir, paths = _build_artifacts(data, scenario, workdir)
        replay = daemon = None
        if mode == "engine":
            replay = _replay_engine(
                scenario, data, index_dir, workdir, paths
            )
        else:
            daemon = _replay_daemon(
                scenario, data, index_dir, workdir, paths, registry
            )
    finally:
        if cleanup is not None:
            cleanup.cleanup()

    oracle = scenario.oracle_instance(data.seed)
    quality = {
        "exact": evaluate_exact(oracle),
        "summarized": evaluate_summarized(
            oracle,
            summarizer=scenario.summarizer,
            rep_fraction=max(scenario.rep_fraction, 0.5),
            seed=data.seed,
        ),
    }
    wall = time.perf_counter() - started
    gates = _gates(scenario, data, quality, replay, daemon)
    report: Dict[str, object] = {
        "schema": REPORT_SCHEMA,
        "scenario": scenario.name,
        "title": scenario.title,
        "adversarial": scenario.adversarial,
        "seed": data.seed,
        "profile": profile,
        "mode": mode,
        "dataset": {
            "n_nodes": data.bundle.graph.n_nodes,
            "n_edges": data.bundle.graph.n_edges,
            "n_topics": data.bundle.topic_index.n_topics,
        },
        "engine": {
            "summarizer": scenario.summarizer,
            "theta": scenario.theta,
            "rep_fraction": scenario.rep_fraction,
            "precompute": scenario.wants_precompute,
        },
        "trace": {
            "digest": data.trace_digest(),
            "n_requests": len(data.records),
            "n_bursts": len(trace_bursts(data.records)),
            "n_events": len(data.events),
        },
        "quality": quality,
        "replay": replay,
        "daemon": daemon,
        "timing": {
            "wall_seconds": round(wall, 3),
            "rps": round(len(data.records) / wall, 1) if wall else None,
        },
        "gates": gates,
        "ok": all(gates.values()),
    }
    return report


def deterministic_view(report: Dict[str, object]) -> Dict[str, object]:
    """The report minus its timing-dependent sections.

    Engine-mode runs must produce identical views for identical
    ``(scenario, seed, profile)`` - the acceptance determinism gate.
    """
    view = dict(report)
    view.pop("timing", None)
    view.pop("daemon", None)
    return view
