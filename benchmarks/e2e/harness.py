"""One benchmark run: build, boot, replay, check, and measure.

A run of one workload:

1. **Set-up**, repeated ``Workload.setups`` times: the offline build in a
   child process (``build_child.py``), then ``pit-search serve`` booted
   over its artifacts as a second process. ``setup_s`` is the median
   time from the build's start to the daemon's ``ready:`` line. Every
   daemon but the last is stopped once ready.
2. **Warm-up**: the first :data:`workloads.QUALITY_PAIRS` distinct pairs
   of the precompute trace, asked one by one and scored against
   BaseMatrix (``precision_at_10``).
3. **Read phase**: the seeded open-loop schedule, replayed over HTTP by
   :mod:`loadgen` from this process (one asyncio thread, at most two
   connections), with the daemon's CPU time read from ``/proc``. Every
   process of the run shares one CPU (:data:`CPU`).
4. **Correctness**: warm-up answers, sampled reads (results and work
   counters) and the delta reports of the daemon the reads went to are
   compared with an uncached ``ServingEngine`` over a pristine copy of the
   artifacts, which applies the same deltas in the same order.

With ``trace=True`` the read phase is split in two halves: the first
against the daemon above, with ``/metrics`` scraped around it, the second
against ``traced_serve.py`` over another pristine copy. On workloads
without a delta stream, each half is followed by
:data:`workloads.PROBE_DELTAS` deltas sent one after another. The
per-layer metrics come from the build stages, the ``/metrics`` deltas and
the span self-times; end-to-end metrics always come from untraced runs.
"""

from __future__ import annotations

import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines import BaseMatrixRanker
from repro.core import ServingEngine
from repro.evaluation.metrics import precision_at_k
from repro.obs import prometheus_name

import loadgen
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch space for artifacts, inside the checkout (git-ignored).
WORK = ROOT / ".bench_e2e"
#: Keep-alive client connections: the host's core count, at most two.
CONNECTIONS = min(2, os.cpu_count() or 1)
#: Every process of a run - this load generator, the build child and the
#: daemon, which inherit it - runs on this one CPU. Left to move between
#: the two vCPUs of a shared host, a request woke a thread on the other,
#: idle vCPU, and the host took milliseconds to run it: tail-uniform's
#: read p50 nearly doubled (2.2 -> 3.8 ms) and a cached answer's p90 read
#: 3.7-11 ms instead of 1.3 ms. On one CPU no request waits for a vCPU to
#: wake, and the daemon's event loop and its search thread, which take
#: turns on the interpreter lock anyway, lose no parallelism.
CPU = max(os.sched_getaffinity(0))
#: Every this-many-th read of a phase is checked against the oracle.
SAMPLE_EVERY = 50
#: Final reads of a delta phase checked against the oracle after the
#: same deltas; all of them must come after the last delta.
POST_DELTA_CHECKS = 50
WORK_FIELDS = (
    "topics_considered",
    "topics_pruned",
    "entries_probed",
    "expansion_rounds",
    "representatives_touched",
)
#: Delta-report fields a daemon and the oracle must agree on (the
#: daemon's answer tier also reports what it evicted; the oracle has none).
DELTA_FIELDS = ("inserted", "deleted", "reweighted", "affected", "reachable")


def host_facts() -> Dict[str, object]:
    """The host a result was measured on."""
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        found = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        commit = found.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "connections": CONNECTIONS,
    }


def benchmark_spec() -> Dict[str, object]:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def _child_env(tmp: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    return env


def build(spec: wl.Workload, profile: str, out: Path,
          env: Dict[str, str]) -> Tuple[Dict[str, float], float]:
    """Run the offline build child; returns its stage timings and peak
    RSS in MiB (from ``wait4``, so only this child's maximum counts)."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "build_child.py"), "--workload",
         spec.name, "--profile", profile, "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, cwd=ROOT, env=env,
    )
    output = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    text = output.decode("utf-8", "replace")
    if proc.returncode != 0:
        raise RuntimeError(f"build child exited {proc.returncode}:\n{text}")
    return json.loads(text.strip().splitlines()[-1]), usage.ru_maxrss / 1024


class Daemon:
    """A ``pit-search serve`` subprocess (optionally the traced one)."""

    def __init__(self, spec: wl.Workload, artifacts: Path,
                 env: Dict[str, str], events: Optional[Path] = None):
        serve = [
            "serve", "--dataset", "data_2k", "--size", str(spec.n_nodes),
            "--seed", str(wl.DATA_SEED),
            "--summaries", str(artifacts / "summaries.json"),
            "--index-dir", str(artifacts / "shards"),
            "--precompute", str(artifacts / "precompute.json"),
            "--theta", str(wl.THETA), "--k", str(wl.K), "--port", "0",
            "--drain-seconds", "5", *spec.serve_args,
        ]
        if events is None:
            argv = [sys.executable, "-m", "repro.cli", *serve]
        else:
            argv = [sys.executable, str(HERE / "traced_serve.py"),
                    "--events-out", str(events), "--", *serve]
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            cwd=ROOT, env=env,
        )
        self.port = 0
        self._output = b""

    def wait_ready(self, timeout: float = 120.0) -> float:
        """Block until the ``ready:`` line; returns its monotonic time."""
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        while b"\nready:" not in b"\n" + self._output:
            remaining = deadline - time.monotonic()
            readable, _, _ = select.select([fd], [], [], max(0.0, remaining))
            chunk = os.read(fd, 65536) if readable else b""
            if not chunk:
                self.stop()
                raise RuntimeError(
                    "daemon never reported ready:\n"
                    + self._output.decode("utf-8", "replace")
                )
            self._output += chunk
        ready = time.monotonic()
        for line in self._output.decode("utf-8", "replace").splitlines():
            if line.startswith("listening on http://"):
                self.port = int(line.rsplit(":", 1)[1])
        return ready

    def cpu_seconds(self) -> float:
        """User + system CPU time the daemon has used so far."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set (``VmHWM``) in MiB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; kills after 30 s."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        return self.proc.returncode


# ---------------------------------------------------------------------------
# Inputs, checks and metric extraction
# ---------------------------------------------------------------------------


def stream_length(spec: wl.Workload, phase_s: float) -> int:
    """Deltas a read phase of *phase_s* streams (0 without a stream): one
    every ``1 / spec.delta_rate`` s from 0.5 s on, the last one due at
    least a second before the end."""
    if not spec.delta_rate:
        return 0
    return max(1, int((phase_s - 1.5) * spec.delta_rate) + 1)


def schedule(spec: wl.Workload, reads: Sequence[Dict],
             stream: Sequence) -> List[loadgen.Op]:
    """The read phase: *reads* at a constant ``spec.read_rps`` and the
    deltas of *stream* at ``spec.delta_rate`` from 0.5 s on."""
    ops = [
        loadgen.Op(i / spec.read_rps, "read", search_request(record))
        for i, record in enumerate(reads)
    ]
    ops += [
        loadgen.Op(0.5 + j / spec.delta_rate, "delta", delta_request(d))
        for j, d in enumerate(stream)
    ]
    ops.sort(key=lambda op: op.at)
    return ops


def search_request(record: Dict) -> bytes:
    return loadgen.http_request(
        "POST", "/search", json.dumps(record).encode("utf-8")
    )


def delta_request(delta) -> bytes:
    return loadgen.http_request(
        "POST", "/admin/delta",
        json.dumps(wl.delta_payload(delta)).encode("utf-8"),
    )


def answer_matches(oracle: ServingEngine, body: bytes) -> bool:
    """Whether a ``/search`` response equals the oracle's answer exactly."""
    served = json.loads(body)
    results, stats = oracle.search(
        served["user"], served["query"], served["k"], with_stats=True
    )
    want = [
        {"topic_id": r.topic_id, "label": r.label, "influence": r.influence}
        for r in results
    ]
    return (served["results"] == want
            and served["stats"] == {f: getattr(stats, f) for f in WORK_FIELDS})


def checked_reads(ops: Sequence[loadgen.Op],
                  outcomes: Sequence[loadgen.Outcome]) -> List[bytes]:
    """The response bodies of a phase that the oracle must reproduce.

    Without deltas every :data:`SAMPLE_EVERY`-th read. With deltas, the
    last :data:`POST_DELTA_CHECKS` reads, if they were all sent after the
    last delta was applied: only those have one well-defined graph state.
    """
    reads = [(op, out) for op, out in zip(ops, outcomes) if op.kind == "read"]
    deltas = [out for op, out in zip(ops, outcomes) if op.kind == "delta"]
    if not deltas:
        return [out.body for op, out in reads[::SAMPLE_EVERY]
                if out.status == 200]
    applied = max(out.done for out in deltas)
    return [out.body for op, out in reads[-POST_DELTA_CHECKS:]
            if out.sent >= applied and out.status == 200]


def distinct_pairs(records: Sequence[Dict]) -> List[Dict]:
    """The first :data:`workloads.QUALITY_PAIRS` distinct (user, query)
    requests of *records*."""
    distinct: Dict[Tuple[int, str], Dict] = {}
    for record in records:
        distinct.setdefault((record["user"], record["query"]), record)
        if len(distinct) == wl.QUALITY_PAIRS:
            break
    return list(distinct.values())


def precision(oracle: ServingEngine, bodies: Sequence[bytes]) -> float:
    """Mean precision@k of served answers against BaseMatrix over the
    oracle's graph."""
    ranker = BaseMatrixRanker(oracle.graph, oracle.topic_index, cache_vectors=True)
    scores = []
    for body in bodies:
        served = json.loads(body)
        reference = ranker.search(served["user"], served["query"], served["k"])
        ids = [r["topic_id"] for r in served["results"]]
        scores.append(precision_at_k(ids, reference, wl.K))
    return float(np.mean(scores))


class Scrape:
    """The counters of one ``GET /metrics`` exposition.

    Histograms are read through their exact ``_sum`` and ``_count``
    series only: quantiles interpolated in the program's coarse buckets
    would repeat the same value run after run.
    """

    def __init__(self, text: str):
        self.values: Dict[str, float] = {}
        for line in text.splitlines():
            if line and not line.startswith("#") and "{" not in line:
                key, value = line.rsplit(" ", 1)
                self.values[key] = float(value)

    @classmethod
    def of(cls, port: int) -> "Scrape":
        ((status, body, _),) = loadgen.sequential(
            port, [loadgen.http_request("GET", "/metrics")]
        )
        if status != 200:
            raise RuntimeError(f"GET /metrics answered {status}")
        return cls(body.decode("utf-8"))


class Window:
    """Program metrics accumulated between two scrapes."""

    def __init__(self, before: Scrape, after: Scrape):
        self._before = before
        self._after = after

    def count(self, name: str) -> float:
        key = prometheus_name(name)
        return self._after.values.get(key, 0.0) - self._before.values.get(key, 0.0)

    def ratio(self, numerator: str, *denominator: str) -> float:
        total = sum(self.count(name) for name in denominator)
        return self.count(numerator) / total if total else 0.0

    def mean(self, histogram: str) -> float:
        """Mean of the observations a histogram received in the window."""
        return self.ratio(f"{histogram}.sum", f"{histogram}.count")


def serving_layers(window: Window) -> Dict[str, float]:
    """Per-layer metrics of the read phase, from the daemon's counters."""
    return {
        "serve.queue_wait_mean_ms": 1e3 * window.mean("serve.queue_wait_seconds"),
        "serve.batch_size_mean": window.mean("serve.batch_size"),
        "serve.handler_mean_ms": 1e3 * window.mean("serve.latency_seconds"),
        "answers.hit_ratio": window.ratio(
            "cache.tier.answers.hits", "cache.tier.answers.hits",
            "cache.tier.answers.misses"),
        "search.compute_mean_ms": 1e3 * window.mean("search.latency_seconds"),
        "search.entries_probed_per_req": window.ratio(
            "search.entries_probed", "search.requests"),
        "search.expansion_rounds_per_req": window.ratio(
            "search.expansion_rounds", "search.requests"),
        "search.prune_ratio": window.ratio(
            "search.topics_pruned", "search.topics_considered"),
        "shards.loads_per_req": window.ratio("index.shard.loads", "search.requests"),
        "plans.hit_ratio": window.ratio(
            "cache.tier.plans.hits", "cache.tier.plans.hits",
            "cache.tier.plans.misses"),
    }


def dynamics_layers(window: Window) -> Dict[str, float]:
    """Per-layer metrics of the deltas, from the daemon's counters."""
    return {
        "dynamics.apply_mean_ms": 1e3 * window.mean("dynamics.apply_delta_seconds"),
        "dynamics.nodes_affected_per_delta": window.ratio(
            "dynamics.nodes_affected", "dynamics.deltas_applied"),
        "dynamics.answers_invalidated_per_delta": window.ratio(
            "dynamics.answers_invalidated", "dynamics.deltas_applied"),
    }


def span_layers(rows, start: float, end: float) -> Dict[str, float]:
    """Self-time per operation of each traced layer within [start, end].

    Gamma fetches, summary arrays and topic lookups count only under a
    ``search_many`` span, so delta refreshes that read shards do not.
    """
    total: Dict[str, float] = defaultdict(float)
    count: Dict[str, int] = defaultdict(int)
    search_children = {"get", "arrays", "related_topics"}
    for events in rows:
        names = {span_id: name for name, span_id, _, _, _ in events}
        for name, _, parent, started, self_seconds in events:
            if not start <= started <= end:
                continue
            if name in search_children and names.get(parent) != "search_many":
                continue
            total[name] += self_seconds
            count[name] += 1

    def per(seconds: float, calls: int, scale: float) -> float:
        return scale * seconds / calls if calls else 0.0

    searches, deltas = count["search_many"], count["apply_delta_to_graph"]
    return {
        "trace.parse_us": per(total["parse_search_request"],
                              count["parse_search_request"], 1e6),
        "trace.encode_us": per(total["results_payload"] + total["encode_response"],
                               count["results_payload"], 1e6),
        "trace.engine_self_ms": per(total["search_batch"], count["search_batch"], 1e3),
        "trace.search_self_ms": per(total["search_many"], searches, 1e3),
        "trace.plan_compile_ms": per(total["related_topics"] + total["arrays"],
                                     searches, 1e3),
        "trace.gamma_fetch_ms": per(total["get"], searches, 1e3),
        "trace.delta_splice_ms": per(total["apply_delta_to_graph"], deltas, 1e3),
        "trace.delta_closure_ms": per(total["affected_nodes"], deltas, 1e3),
        "trace.delta_refresh_ms": per(total["refresh_sharded_index"], deltas, 1e3),
        "trace.delta_invalidate_ms": per(total["invalidate_answers"], deltas, 1e3),
    }


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


class Run:
    """State of one benchmark run; :meth:`execute` returns its result."""

    def __init__(self, name: str, *, seed: int, seconds: float,
                 trace: bool, profile: str):
        self.spec = wl.workload_spec(name, profile)
        self.profile = profile
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = WORK / f"{name}-{seed}-{os.getpid()}"
        self.env = _child_env(self.work / "tmp")
        self.daemons: List[Daemon] = []
        self.attempted = 0
        self.failed = 0
        self.checks: Dict[str, int] = defaultdict(int)
        self.exit_codes: List[int] = []

    # -- helpers ---------------------------------------------------------
    def _boot(self, artifacts: Path, events: Optional[Path] = None) -> Daemon:
        daemon = Daemon(self.spec, artifacts, self.env, events)
        self.daemons.append(daemon)
        return daemon

    def _stop(self, daemon: Daemon) -> None:
        self.exit_codes.append(daemon.stop())
        self.daemons.remove(daemon)

    def _count(self, statuses: Sequence[int]) -> None:
        self.attempted += len(statuses)
        self.failed += sum(1 for status in statuses if status != 200)

    def _check(self, kind: str, oracle: ServingEngine,
               bodies: Sequence[bytes]) -> None:
        mismatches = sum(1 for body in bodies if not answer_matches(oracle, body))
        self.checks[kind] += len(bodies)
        self.checks["mismatches"] += mismatches
        self.failed += mismatches

    def _pristine(self, artifacts: Path, name: str) -> Path:
        copy = self.work / name
        shutil.copytree(artifacts, copy)
        return copy

    def _replay(self, port: int, ops) -> List[loadgen.Outcome]:
        outcomes = loadgen.replay(port, ops, CONNECTIONS)
        self._count([out.status for out in outcomes])
        return outcomes

    def _probe(self, daemon: Daemon, deltas) -> List[Optional[bytes]]:
        """Send *deltas* one after another; returns each delta's report
        (``None`` for a failed one)."""
        if not deltas:
            return []
        answered = loadgen.sequential(
            daemon.port, [delta_request(d) for d in deltas]
        )
        self._count([status for status, _, _ in answered])
        return [body if status == 200 else None for status, body, _ in answered]

    # -- phases ----------------------------------------------------------
    def execute(self) -> Tuple[Dict, Dict]:
        """Run everything; returns ``(result line, full report)``. Pins
        this process, and so every process it starts, to :data:`CPU`."""
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "tmp").mkdir(parents=True)
        os.sched_setaffinity(0, {CPU})
        load_start = os.getloadavg()
        try:
            return self._execute(load_start)
        finally:
            for daemon in list(self.daemons):
                self._stop(daemon)
            shutil.rmtree(self.work, ignore_errors=True)

    def _setups(self) -> Tuple[List[Dict[str, float]], Daemon, Path]:
        """Build + boot ``spec.setups`` times; the last daemon stays up."""
        setups = []
        for i in range(self.spec.setups):
            out = self.work / f"setup-{i}"
            started = time.monotonic()
            stages, rss_mb = build(self.spec, self.profile, out, self.env)
            booted = time.monotonic()
            daemon = self._boot(out)
            ready = daemon.wait_ready()
            setups.append({
                "setup_s": ready - started, "serve.boot_s": ready - booted,
                "build_rss_mb": rss_mb, **stages,
            })
            if i < self.spec.setups - 1:
                self._stop(daemon)
        return setups, daemon, out

    def _execute(self, load_start) -> Tuple[Dict, Dict]:
        spec, seed = self.spec, self.seed
        bundle = wl.dataset(spec)
        pairs = wl.request_pairs(bundle, spec)
        phase_s = self.seconds / 2 if self.trace else self.seconds
        requests = wl.read_records(
            pairs, round(spec.read_rps * phase_s), spec.skew, wl.INPUT_SEED
        )
        quality = distinct_pairs(
            wl.read_records(pairs, wl.TRACE_RECORDS, spec.skew, wl.TRACE_SEED)
        )
        # The pool is exactly the deltas a run sends, so the seed orders
        # them and never picks which ones. Without a stream, a traced run
        # sends them as probes after each read phase.
        streamed = stream_length(spec, phase_s)
        pool = wl.run_order(
            wl.delta_pool(bundle.graph, streamed or wl.PROBE_DELTAS), seed, 1
        )
        stream = pool if streamed else []
        probe = pool if self.trace and not streamed else []
        ops = schedule(spec, wl.run_order(requests, seed, 0), stream)

        setups, daemon, artifacts = self._setups()
        oracle_dir = self._pristine(artifacts, "oracle")
        traced_dir = self._pristine(artifacts, "traced") if self.trace else None
        oracle = ServingEngine.from_artifacts(
            bundle.graph, bundle.topic_index, oracle_dir / "summaries.json",
            index_dir=oracle_dir / "shards", theta=wl.THETA,
        )

        metrics: Dict[str, float] = {}
        layers: Dict[str, float] = {}
        samples: Dict[str, int] = {}
        scrapes = [Scrape.of(daemon.port)] if self.trace else []
        answers = self._ask(daemon, quality, oracle)
        if not self.trace:
            metrics["precision_at_10"] = precision(oracle, answers)
            samples["precision_at_10"] = len(answers)
        cpu_before = daemon.cpu_seconds()
        outcomes = self._replay(daemon.port, ops)
        cpu_after = daemon.cpu_seconds()
        if self.trace:
            scrapes.append(Scrape.of(daemon.port))
            layers.update(serving_layers(Window(*scrapes)))
        self._check_deltas(oracle, stream, [
            out.body if out.status == 200 else None
            for op, out in zip(ops, outcomes) if op.kind == "delta"
        ])
        self._check_reads("reads", oracle, ops, outcomes)

        read_latencies = [out.latency for op, out in zip(ops, outcomes)
                          if op.kind == "read"]
        # Only the median is bounded (BENCHMARK.json). The tail percentiles
        # that have ten samples beyond them go to the report: one stretch of
        # a slow host sets them, so they spread wider than any bound.
        p50, n = loadgen.percentile(read_latencies, 0.5)
        for q in (50, 90, 95, 99):
            if q == 50 or n * (1 - q / 100) >= loadgen.MIN_TAIL_SAMPLES:
                value, samples[f"latency_p{q}_ms"] = loadgen.percentile(
                    read_latencies, q / 100)
                metrics[f"latency_p{q}_ms"] = 1000 * value
        metrics["cpu_ms_per_req"] = 1000 * (cpu_after - cpu_before) / len(ops)
        samples["cpu_ms_per_req"] = len(ops)

        probed = [self._probe(daemon, probe)]
        if self.trace:
            layers.update(dynamics_layers(
                Window(scrapes[0 if stream else 1], Scrape.of(daemon.port))
            ))
        # Report only: a run streams four deltas, too few for a steady median.
        delta_latencies = [out.latency for op, out in zip(ops, outcomes)
                           if op.kind == "delta"]
        if delta_latencies:
            metrics["delta_p50_ms"] = 1000 * statistics.median(delta_latencies)
            samples["delta_p50_ms"] = len(delta_latencies)
            samples["delta_latencies_ms"] = [1000 * s for s in delta_latencies]
        metrics["serve_rss_mb"] = daemon.peak_rss_mb()
        self._stop(daemon)

        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        metrics["build_rss_mb"] = statistics.median(s["build_rss_mb"] for s in setups)
        samples["setup_s"] = samples["build_rss_mb"] = len(setups)
        if self.trace:
            for stage in setups[0]:
                if stage not in ("setup_s", "build_rss_mb"):
                    layers[stage] = statistics.median(s[stage] for s in setups)
            traced_p50, traced_late, traced_probed = self._traced_half(
                traced_dir, quality, ops, probe, oracle, layers
            )
            probed.append(traced_probed)
            layers["trace.overhead_frac"] = traced_p50 / p50 - 1.0
            lateness = [out.late for out in outcomes] + traced_late
            layers["loadgen.late_p95_ms"] = (
                1000 * loadgen.percentile(lateness, 0.95)[0]
            )
        # Last, because every read check above wants the oracle without
        # the probes: both daemons got them from the pristine artifacts.
        self._check_deltas(oracle, probe, *probed)
        return self._result(metrics, layers, samples, setups, load_start)

    def _ask(self, daemon: Daemon, records: Sequence[Dict],
             oracle: Optional[ServingEngine]) -> List[bytes]:
        """Ask *records* one after another; checks every answer when an
        *oracle* (in the daemon's current graph state) is given."""
        answered = loadgen.sequential(
            daemon.port, [search_request(r) for r in records]
        )
        self._count([status for status, _, _ in answered])
        bodies = [body for status, body, _ in answered if status == 200]
        if oracle is not None:
            self._check("quality", oracle, bodies)
        return bodies

    def _check_reads(self, kind: str, oracle: ServingEngine, ops,
                     outcomes) -> None:
        bodies = checked_reads(ops, outcomes)
        self._check(kind, oracle, bodies)
        streamed = any(op.kind == "delta" for op in ops)
        if streamed and len(bodies) < POST_DELTA_CHECKS:
            self.checks["too_few_post_delta_reads"] += 1

    def _check_deltas(self, oracle: ServingEngine, deltas,
                      *served: Sequence[Optional[bytes]]) -> None:
        """Apply *deltas* to the oracle in order, comparing each report
        with the matching one of every daemon in *served* (``None``: the
        delta failed and already counts in ``failed``)."""
        for j, delta in enumerate(deltas):
            report = oracle.apply_delta(delta)
            for bodies in served:
                if bodies[j] is None:
                    continue
                answer = json.loads(bodies[j])
                self.checks["deltas"] += 1
                if any(answer.get(f) != report[f] for f in DELTA_FIELDS):
                    self.checks["mismatches"] += 1
                    self.failed += 1

    def _traced_half(self, artifacts: Path, quality, ops, probe, oracle,
                     layers: Dict[str, float]):
        """The untraced daemon's traffic against the traced one; adds the
        span metrics and returns its read p50, its dispatch lateness and
        its probe reports."""
        events = self.work / "events.json"
        daemon = self._boot(artifacts, events)
        daemon.wait_ready()
        # Spans carry perf_counter() stamps taken in the daemon. Comparing
        # them with this process's perf_counter() assumes one clock for
        # every process, as on Linux (CLOCK_MONOTONIC).
        start = time.perf_counter()
        # The oracle may already hold the streamed deltas; the read phase
        # below checks this daemon.
        self._ask(daemon, quality, None)
        outcomes = self._replay(daemon.port, ops)
        self._check_reads("traced_reads", oracle, ops, outcomes)
        probed = self._probe(daemon, probe)
        end = time.perf_counter()
        self._stop(daemon)
        layers.update(span_layers(json.loads(events.read_text()), start, end))
        p50, _ = loadgen.percentile(
            [out.latency for op, out in zip(ops, outcomes) if op.kind == "read"],
            0.5,
        )
        return p50, [out.late for out in outcomes], probed

    def _result(self, metrics, layers, samples, setups, load_start):
        spec = benchmark_spec()
        wanted = spec["per_layer"] if self.trace else spec["end_to_end"]
        values = layers if self.trace else metrics
        line_metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        }
        correct = (
            self.failed == 0
            and all(code == 0 for code in self.exit_codes)
            and not self.checks.get("too_few_post_delta_reads")
        )
        line = {
            "correct": correct, "attempted": self.attempted,
            "failed": self.failed, "metrics": line_metrics,
        }
        host = host_facts()
        host.update(
            seed=self.seed, loadavg_start=load_start,
            loadavg_end=os.getloadavg(),
        )
        report = {
            "workload": self.spec.name, "profile": self.profile,
            "seed": self.seed, "seconds": self.seconds, "trace": self.trace,
            "host": host,
            "error_rate": self.failed / self.attempted,
            "measured": metrics, "samples": samples,
            "checks": dict(self.checks), "daemon_exit_codes": self.exit_codes,
            "setups": setups, "result": line,
        }
        return line, report
