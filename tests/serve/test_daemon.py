"""Integration tests for the serving daemon: differential correctness,
failure modes, admission, coalescing, hot reload, and graceful drain."""

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro import _faults
from repro.core import ServingEngine
from repro.datasets import generate_workload


def expected_results(stack, user, query, k):
    results, _ = stack.serving.search(user, query, k=k, with_stats=True)
    return [
        {"topic_id": r.topic_id, "label": r.label, "influence": r.influence}
        for r in results
    ]


class TestDifferential:
    """Daemon responses must be bit-exact vs direct engine calls."""

    @pytest.mark.parametrize("seed", [7, 1234])
    def test_bit_exact_over_workload_and_across_reload(
        self, stacks, make_daemon, seed
    ):
        stack = stacks[seed]
        daemon = make_daemon(use_stack=stack)
        workload = generate_workload(
            stack.bundle, n_queries=4, n_users=3, seed=seed
        )
        pairs = list(workload.pairs())
        for user, query in pairs:
            status, body, _ = daemon.search(user, query.raw, k=5)
            assert status == 200, body
            assert body["generation"] == 1
            # JSON repr round-trips doubles exactly: == here is bit-exact.
            assert body["results"] == expected_results(
                stack, user, query.raw, 5
            )
        status, body, _ = daemon.request("POST", "/admin/reload", {})
        assert status == 200 and body["generation"] == 2
        for user, query in pairs[:4]:
            status, body, _ = daemon.search(user, query.raw, k=5)
            assert status == 200
            assert body["generation"] == 2
            assert body["results"] == expected_results(
                stack, user, query.raw, 5
            )

    def test_coalesced_batch_is_bit_exact(self, stack, daemon):
        # Hold the single worker busy so concurrent same-query requests
        # pile up and dispatch as one coalesced batch.
        users = [3, 11, 29, 47]
        responses = {}
        errors = []

        def fire(user):
            try:
                responses[user] = daemon.search(user, "phone", k=5)
            except Exception as exc:  # pragma: no cover - test plumbing
                errors.append(exc)

        with _faults.fault("serve.search_delay", _faults.Delay(0.3, times=1)):
            first = threading.Thread(target=fire, args=(users[0],))
            first.start()
            time.sleep(0.1)  # worker is now sleeping inside the fault
            rest = [
                threading.Thread(target=fire, args=(u,)) for u in users[1:]
            ]
            for t in rest:
                t.start()
            first.join(30)
            for t in rest:
                t.join(30)
        assert not errors
        for user in users:
            status, body, _ = responses[user]
            assert status == 200, body
            assert body["results"] == expected_results(stack, user, "phone", 5)
        counters = daemon.registry.snapshot().counters
        assert counters.get("serve.coalesced_batches", 0) >= 1


class TestFailureModes:
    def test_malformed_json_is_typed_400(self, daemon):
        status, body, _ = daemon.request(
            "POST", "/search", raw_body="this is not json"
        )
        assert status == 400
        assert body["error"]["type"] == "MalformedRequest"

    def test_missing_fields_are_typed_400(self, daemon):
        status, body, _ = daemon.request("POST", "/search", {"user": 1})
        assert status == 400
        assert body["error"]["type"] == "ValidationError"

    def test_unknown_user_is_typed_400(self, daemon):
        status, body, _ = daemon.search(10**7, "phone")
        assert status == 400
        assert body["error"]["type"] == "NodeNotFoundError"

    def test_oversized_body_is_413(self, daemon):
        huge = json.dumps({"user": 1, "query": "x" * 70_000})
        status, body, _ = daemon.request("POST", "/search", raw_body=huge)
        assert status == 413
        assert body["error"]["type"] == "PayloadTooLarge"

    def test_unknown_route_is_404(self, daemon):
        status, body, _ = daemon.request("GET", "/nope")
        assert status == 404

    def test_wrong_method_is_405(self, daemon):
        status, body, _ = daemon.request("GET", "/search")
        assert status == 405
        status, body, _ = daemon.request("POST", "/healthz", {})
        assert status == 405

    def test_deadline_expiry_mid_search_is_504_then_recovers(
        self, stack, daemon
    ):
        with _faults.fault("serve.search_delay", _faults.Delay(0.6, times=1)):
            status, body, _ = daemon.search(3, "phone", deadline_ms=150)
        assert status == 504
        assert body["error"]["type"] == "DeadlineExceeded"
        counters = daemon.registry.snapshot().counters
        assert counters.get("serve.deadline_exceeded", 0) >= 1
        # The abandoned result must not poison later requests.
        status, body, _ = daemon.search(3, "phone", k=5)
        assert status == 200
        assert body["results"] == expected_results(stack, 3, "phone", 5)

    def test_traceback_never_crosses_the_socket(self, daemon):
        class Boom:
            def __call__(self, **_):
                raise RuntimeError("kaboom internal state")

        with _faults.fault("serve.handle", Boom()):
            status, body, _ = daemon.search(3, "phone")
        assert status == 500
        assert body["error"]["type"] == "InternalError"
        assert "kaboom" not in json.dumps(body)


class TestHttpFraming:
    @staticmethod
    def read_to_eof(sock):
        chunks = []
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)

    def test_http10_closes_without_keep_alive(self, daemon):
        with socket.create_connection(
            ("127.0.0.1", daemon.server.port), timeout=5
        ) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            reply = self.read_to_eof(sock)  # socket.timeout if left open
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200")
        assert b"Connection: close" in head
        assert json.loads(body)["status"] == "ok"

    def test_http10_persists_on_explicit_keep_alive(self, daemon):
        request = b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        with socket.create_connection(
            ("127.0.0.1", daemon.server.port), timeout=5
        ) as sock:
            sock.sendall(request + request)
            sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            replies = self.read_to_eof(sock)
        assert replies.count(b"HTTP/1.1 200") == 3
        assert replies.count(b"Connection: keep-alive") == 2
        assert replies.count(b"Connection: close") == 1


class TestInlineAnswers:
    """Answer-tier hits are answered on the event loop, off the queue."""

    @staticmethod
    def inline_count(daemon):
        return daemon.registry.snapshot().counter("serve.answered_inline")

    def test_hit_answers_while_worker_busy_and_queues_behind_held_lock(
        self, stack, make_daemon
    ):
        daemon = make_daemon(answer_cache_bytes=1 << 20)
        expected = expected_results(stack, 3, "phone", 5)
        status, body, _ = daemon.search(3, "phone", k=5)  # miss: warms it
        assert status == 200 and body["results"] == expected
        assert self.inline_count(daemon) == 0

        slow = {}
        with _faults.fault("serve.search_delay", _faults.Delay(0.5)):
            busy = threading.Thread(
                target=lambda: slow.update(r=daemon.search(11, "camera"))
            )
            busy.start()
            time.sleep(0.1)  # the worker now sleeps inside the fault
            started = time.monotonic()
            status, body, _ = daemon.search(3, "phone", k=5)
            elapsed = time.monotonic() - started
            busy.join(30)
        assert status == 200
        assert body["results"] == expected
        assert body["generation"] == daemon.server.engines.generation == 1
        assert elapsed < 0.25
        assert self.inline_count(daemon) == 1
        assert slow["r"][0] == 200

        # A held engine lock sends the same hit through the queue; the
        # loop stays free and the request completes once it is released.
        lock = daemon.server._worker.lock
        queued = {}
        lock.acquire()
        try:
            waiter = threading.Thread(
                target=lambda: queued.update(r=daemon.search(3, "phone", k=5))
            )
            waiter.start()
            time.sleep(0.2)
            assert waiter.is_alive()
            status, health, _ = daemon.request("GET", "/healthz")
            assert status == 200 and health["status"] == "ok"
        finally:
            lock.release()
        waiter.join(30)
        status, body, _ = queued["r"]
        assert status == 200
        assert body["results"] == expected
        assert body["generation"] == 1
        assert self.inline_count(daemon) == 1


class TestAdmission:
    def test_sheds_with_429_at_capacity_then_recovers(self, make_daemon):
        from repro.serve import ServeConfig

        daemon = make_daemon(config=ServeConfig(port=0, max_queue=2))
        done = {}

        def slow(user):
            done[user] = daemon.search(user, "phone")

        with _faults.fault("serve.search_delay", _faults.Delay(0.5)):
            threads = [threading.Thread(target=slow, args=(u,)) for u in (3, 11)]
            threads[0].start()
            time.sleep(0.1)
            threads[1].start()
            time.sleep(0.1)
            status, body, headers = daemon.search(29, "phone")
            assert status == 429
            assert body["error"]["type"] == "Overloaded"
            assert headers.get("Retry-After") == "1"
            for t in threads:
                t.join(30)
        for user in (3, 11):
            assert done[user][0] == 200
        # Capacity reopens once the slow requests finish.
        status, _, _ = daemon.search(29, "phone")
        assert status == 200
        counters = daemon.registry.snapshot().counters
        assert counters.get("serve.shed", 0) >= 1


class TestReload:
    def test_corrupt_artifact_rejected_old_engine_serves(self, stack, daemon):
        status, before, _ = daemon.search(3, "phone", k=5)
        assert status == 200 and before["generation"] == 1
        with _faults.fault("artifact.load_bytes", _faults.FlipByte(100)):
            status, body, _ = daemon.request("POST", "/admin/reload", {})
        assert status == 409
        assert body["error"]["type"] == "ArtifactCorruptedError"
        # Old engine still serving, same generation, same answers.
        status, after, _ = daemon.search(3, "phone", k=5)
        assert status == 200
        assert after["generation"] == 1
        assert after["results"] == before["results"]
        counters = daemon.registry.snapshot().counters
        assert counters.get("serve.reload_failures", 0) == 1
        # A clean retry succeeds.
        status, body, _ = daemon.request("POST", "/admin/reload", {})
        assert status == 200 and body["generation"] == 2

    def test_artifact_paths_need_index_dir(self, stack):
        # The shard directory is a served engine's only Γ source.
        from repro.exceptions import ConfigurationError
        from repro.serve.reload import EngineManager, open_engine

        paths = {"summaries": str(stack.sums_path)}
        for opener in (EngineManager, open_engine):
            with pytest.raises(ConfigurationError, match="'index_dir'"):
                opener(stack.bundle.graph, stack.bundle.topic_index, paths)

    def test_single_file_index_key_is_typed_400(self, stack, daemon):
        status, body, _ = daemon.request(
            "POST", "/admin/reload", {"index": str(stack.index_dir)}
        )
        assert status == 400
        assert body["error"]["type"] == "ValidationError"
        assert "allowed: ['index_dir', 'precompute', 'summaries']" in (
            body["error"]["message"]
        )
        status, body, _ = daemon.search(3, "phone", k=5)
        assert status == 200 and body["generation"] == 1

    def test_override_stays_in_force_across_empty_reload(
        self, stack, alt_sums_path, daemon
    ):
        # An override reload, then the {} reload that SIGHUP sends: the
        # daemon keeps serving the override, not its startup summaries.
        status, body, _ = daemon.request(
            "POST", "/admin/reload", {"summaries": str(alt_sums_path)}
        )
        assert status == 200 and body["generation"] == 2
        status, body, _ = daemon.request("POST", "/admin/reload", {})
        assert status == 200 and body["generation"] == 3
        assert daemon.server.engines.paths["summaries"] == str(alt_sums_path)
        fresh = ServingEngine.from_artifacts(
            stack.bundle.graph, stack.bundle.topic_index, alt_sums_path,
            index_dir=stack.index_dir,
        )
        workload = generate_workload(
            stack.bundle, n_queries=4, n_users=3, seed=7
        )
        changed = 0
        for user, query in workload.pairs():
            status, body, _ = daemon.search(user, query.raw, k=5)
            assert status == 200 and body["generation"] == 3
            want = fresh.search(user, query.raw, 5, with_stats=True)
            assert body["results"] == [
                {"topic_id": r.topic_id, "label": r.label,
                 "influence": r.influence}
                for r in want[0]
            ]
            assert body["stats"] == {
                field: getattr(want[1], field) for field in body["stats"]
            }
            changed += body["results"] != expected_results(
                stack, user, query.raw, 5
            )
        assert changed > 0  # the two summaries really answer differently

    def test_refused_override_leaves_paths_in_force(
        self, stack, alt_sums_path, precompute_path, make_daemon
    ):
        daemon = make_daemon(
            answer_cache_bytes=1 << 20, precompute_path=precompute_path
        )
        before = daemon.server.engines.paths
        # New summaries under the configured precompute: stale, refused.
        status, body, _ = daemon.request(
            "POST", "/admin/reload", {"summaries": str(alt_sums_path)}
        )
        assert status == 400
        assert "precompute" in body["error"]["message"]
        assert daemon.server.engines.paths == before
        assert daemon.server.engines.generation == 1
        status, body, _ = daemon.request("POST", "/admin/reload", {})
        assert status == 200 and body["generation"] == 2
        status, body, _ = daemon.search(3, "phone", k=5)
        assert status == 200 and body["generation"] == 2
        assert body["results"] == expected_results(stack, 3, "phone", 5)

    def test_reload_under_traffic_drops_nothing(self, stack, daemon):
        class SlowLoad:
            def __call__(self, *, data, **_):
                time.sleep(0.25)
                return data

        reload_result = {}

        def do_reload():
            reload_result["response"] = daemon.request(
                "POST", "/admin/reload", {}
            )

        statuses = []
        generations = set()
        with _faults.fault("artifact.load_bytes", SlowLoad()):
            reloader = threading.Thread(target=do_reload)
            reloader.start()
            time.sleep(0.05)
            # While the new engine loads: not ready for new traffic per
            # /readyz, but every in-flight/arriving request still answers.
            saw_not_ready = False
            deadline = time.monotonic() + 10
            while reloader.is_alive() and time.monotonic() < deadline:
                r_status, _, _ = daemon.request("GET", "/readyz")
                saw_not_ready = saw_not_ready or r_status == 503
                s_status, s_body, _ = daemon.search(3, "phone", k=3)
                statuses.append(s_status)
                generations.add(s_body.get("generation"))
            reloader.join(30)
        assert reload_result["response"][0] == 200
        assert statuses and all(s == 200 for s in statuses)
        assert saw_not_ready  # /readyz said "draining from LB" during load
        # After the swap, traffic flows on the new generation.
        status, body, _ = daemon.search(3, "phone", k=3)
        assert status == 200 and body["generation"] == 2
        generations.add(body["generation"])
        assert generations <= {1, 2}
        status, _, _ = daemon.request("GET", "/readyz")
        assert status == 200


class TestLifecycle:
    def test_healthz_and_readyz_when_ready(self, daemon):
        status, body, _ = daemon.request("GET", "/healthz")
        assert status == 200 and body["status"] == "ok"
        status, body, _ = daemon.request("GET", "/readyz")
        assert status == 200 and body["ready"] is True

    def test_metrics_endpoint_exposes_serve_series(self, daemon):
        daemon.search(3, "phone")
        status, text, headers = daemon.request("GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        exposition = (
            text if isinstance(text, str) else text.decode("utf-8")
        )
        assert "serve_requests" in exposition
        assert "serve_latency_seconds" in exposition
        assert "engine_memory_bytes" in exposition

    def test_drain_completes_inflight_then_exits_cleanly(self, make_daemon):
        daemon = make_daemon()
        result = {}

        def slow_search():
            result["response"] = daemon.search(3, "phone", k=5)

        with _faults.fault("serve.search_delay", _faults.Delay(0.4, times=1)):
            t = threading.Thread(target=slow_search)
            t.start()
            time.sleep(0.1)  # request is now in flight
            code = daemon.stop(exit_code=0)
            t.join(30)
        assert code == 0
        status, body, _ = result["response"]
        assert status == 200  # the in-flight request finished, not 503
        assert body["results"]


@pytest.mark.slow
class TestRealSignals:
    def test_cli_serve_sigterm_drains_and_exits_zero(
        self, stack, precompute_path
    ):
        # The precompute holds exactly this answer, so the first request
        # for it is an answer-tier hit only if the daemon booted warm.
        record = {"user": 3, "query": "phone", "k": 5}
        src_dir = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--dataset", "data_2k", "--size", "140", "--seed", "7",
                "--summaries", str(stack.sums_path),
                "--index-dir", str(stack.index_dir),
                "--precompute", str(precompute_path),
                "--answer-cache-mb", "8",
                "--port", "0", "--drain-seconds", "5",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            deadline = time.monotonic() + 120
            port = None
            ready = False
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if not line:
                    break
                if line.startswith("listening on "):
                    port = int(line.rsplit(":", 1)[1])
                if line.startswith("ready:"):
                    ready = True
                    break
            assert ready and port, "daemon subprocess never reported ready"
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                conn.request("POST", "/search", body=json.dumps(record))
                response = conn.getresponse()
                body = response.read()
                assert response.status == 200, body
                conn.request("GET", "/metrics")
                exposition = conn.getresponse().read().decode("utf-8")
            finally:
                conn.close()
            assert "repro_cache_tier_answers_hits 1" in (
                exposition.splitlines()
            )
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=30)
            assert code == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
