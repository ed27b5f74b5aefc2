"""The committed full-profile benchmark artifacts record passing gates.

Each bench exits 1 unless its gates hold, so a smoke run checks itself.
These files are the full-profile runs that docs and ROADMAP quote; this
test keeps a re-recorded file from landing with a failed gate.
"""

import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

#: Committed artifact -> the gates it must record as passed.
GATES = {
    "BENCH_dynamics.json": (
        "entry_parity_at_scale",
        "sharded_entry_parity_at_scale",
        "parity_memory_seed_7",
        "parity_memory_seed_1234",
        "parity_sharded_seed_7",
        "never_served_stale",
        "surgical_survivors_everywhere",
        "delta_speedup_ge_5x",
    ),
    "BENCH_propagation_index.json": (
        "parity_legacy_vs_serial",
        "batched_bit_exact",
    ),
    "BENCH_scenarios.json": (
        "all_scenarios_ok",
        "deterministic_replay",
        "daemon_zero_5xx",
    ),
    "BENCH_serve.json": (
        "sheds_under_overload",
        "success_p99_bounded",
        "no_server_errors",
        "hot_reload_ok",
        "generation_bump_observed",
        "healthz_ok_after_storm",
        "readyz_ok_after_storm",
        "metrics_ok_after_storm",
        "queue_drained",
        "answer_hit_ratio_ge_50pct",
        "cached_p90_below_uncached",
        "metrics_expose_tier_family",
        "parity_seed_7",
        "parity_seed_1234",
        "daemon_spot_check_bit_exact",
        "clean_exits",
    ),
}


def load(name):
    return json.loads((BENCHMARKS / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(GATES))
def test_committed_artifact_passes_its_gates(name):
    payload = load(name)
    # Smoke runs waive the perf gates; the committed files are full runs.
    assert payload.get("config", {}).get("smoke", False) is False
    assert payload.get("profile", "default") == "default"
    gates = payload["gates"]
    assert {gate: gates[gate] for gate in GATES[name]} == dict.fromkeys(
        GATES[name], True
    )
    assert payload["ok"] is True and all(gates.values())


def test_committed_dynamics_speedup_meets_its_bar():
    assert load("BENCH_dynamics.json")["perf"]["speedup"] >= 5
