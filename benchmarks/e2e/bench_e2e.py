"""End-to-end, layer-attributed benchmark: dataset to socket.

One run (the command ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/bench_e2e.py --workload head-zipf --seed 43 \
        --seconds 20 --trace 0

builds the workload's artifacts, boots ``pit-search serve``, replays the
seeded open-loop schedule over HTTP, checks sampled answers against an
uncached engine and prints one JSON line: ``correct``, ``attempted``,
``failed`` and the ``metrics`` that ``BENCHMARK.json`` lists -
end-to-end ones with ``--trace 0``, per-layer ones with ``--trace 1``. It
exits 1 when any answer is wrong. ``--output PATH`` also writes the full
report (host facts, sample counts, set-up stages, checks).

Calibration and comparison::

    python3 benchmarks/e2e/bench_e2e.py --repeat 10 --output set.json
    python3 benchmarks/e2e/bench_e2e.py --compare base.json set.json

``--repeat N`` runs every workload (or ``--workload``) N times with seeds
``--seed``, ``--seed`` + 1, ..., seed by seed and each in a fresh
process, and prints per (metric, workload) the median, the quartiles and
the spreads the bounds are calibrated from; with ``--trace 1`` it adds one
traced run per workload. It exits 1 when any run did. ``--compare BASE
[NEW]`` compares two such sets, running NEW (10 seeds unless ``--repeat``
says otherwise) when it is not given, and exits 1 on a regression beyond a
metric's bound, a wrong answer or a larger share of failed operations.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def _spreads(values):
    """Median, quartiles and the two spreads of one (metric, workload)."""
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median, median, median))
    scale = abs(median) or 1.0
    iqr = (q3 - q1) / scale
    span = (max(values) - min(values)) / scale
    return {
        "n": len(values), "median": median, "q1": q1, "q3": q3,
        "iqr_spread": iqr, "range_spread": span,
        # max(0.10, (max - min) / median) rounded up to a multiple of 0.05.
        "suggested_bound": max(0.10, math.ceil(round(span / 0.05, 9)) * 0.05),
        "values": values,
    }


def summarize(runs):
    """``{workload: {metric: spreads}}`` over the untraced runs of a set."""
    grouped = {}
    for run in runs:
        if run["trace"]:
            continue
        for name, metric in run["result"]["metrics"].items():
            grouped.setdefault(run["workload"], {}).setdefault(
                name, []).append(metric["value"])
    return {
        workload: {name: _spreads(values) for name, values in metrics.items()}
        for workload, metrics in grouped.items()
    }


def outcomes(runs):
    """``{workload: (all runs correct, failed, attempted)}`` over every
    run of a set, traced ones included."""
    totals = {}
    for run in runs:
        line = run["result"]
        correct, failed, attempted = totals.get(run["workload"], (True, 0, 0))
        totals[run["workload"]] = (
            correct and line["correct"] and run.get("exit_code", 0) == 0,
            failed + line["failed"], attempted + line["attempted"],
        )
    return totals


def _run_child(args, workload, seed, trace, scratch: Path):
    """One run in a fresh process; returns its full report with the
    process's ``exit_code``."""
    out = scratch / f"{workload}-{seed}-{trace}.json"
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--profile", args.profile, "--output", str(out),
    ]
    started = time.monotonic()
    finished = subprocess.run(command, capture_output=True, text=True)
    wall_s = time.monotonic() - started
    if not out.exists():
        raise RuntimeError(
            f"{workload} seed {seed} failed ({finished.returncode}):\n"
            f"{finished.stderr[-4000:]}"
        )
    report = json.loads(out.read_text())
    out.unlink()
    report["exit_code"] = finished.returncode
    report["wall_s"] = wall_s
    line = report["result"]
    print(f"{workload:13s} seed {seed:4d} trace {trace}: "
          f"correct={line['correct']} attempted={line['attempted']} "
          f"failed={line['failed']} exit={finished.returncode}",
          file=sys.stderr, flush=True)
    return report


def repeat(args, harness):
    """Run the ``--repeat`` set; returns it (also written to --output).

    Runs go seed by seed, every workload once per seed, so a slow stretch
    of the host lands on all workloads instead of on one workload's block.
    """
    names = [args.workload] if args.workload else list(harness.wl.WORKLOADS)
    scratch = harness.WORK / "repeat"
    scratch.mkdir(parents=True, exist_ok=True)
    runs = []
    for i in range(args.repeat):
        for name in names:
            runs.append(_run_child(args, name, args.seed + i, 0, scratch))
    if args.trace:
        for name in names:
            runs.append(_run_child(args, name, args.seed, 1, scratch))
    result = {
        "host": harness.host_facts(), "profile": args.profile,
        "seconds": args.seconds, "seeds": [args.seed, args.seed + args.repeat - 1],
        "summary": summarize(runs), "runs": runs,
    }
    bounds = {m["name"]: m["bound"]
              for m in harness.benchmark_spec()["end_to_end"]}
    print(f"{'workload':13s} {'metric':16s} {'median':>11s} {'q1':>11s} "
          f"{'q3':>11s} {'iqr/med':>8s} {'range/med':>9s} {'suggest':>7s} "
          f"{'bound':>6s}")
    for workload, metrics in result["summary"].items():
        for name, s in metrics.items():
            print(f"{workload:13s} {name:16s} {s['median']:11.5g} "
                  f"{s['q1']:11.5g} {s['q3']:11.5g} {s['iqr_spread']:8.3f} "
                  f"{s['range_spread']:9.3f} {s['suggested_bound']:7.2f} "
                  f"{bounds[name]:6.2f}")
    if args.output:
        Path(args.output).write_text(json.dumps(result, indent=1) + "\n")
    return result


def compare(base, new, spec):
    """Per (metric, workload) verdicts of *new* against *base*; returns
    the number of regressions beyond a bound."""
    regressions = 0
    print(f"{'workload':13s} {'metric':16s} {'base med':>10s} {'base q1-q3':>21s} "
          f"{'new med':>10s} {'new q1-q3':>21s} {'change':>7s} {'bound':>6s}  verdict")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        lower = metric["better"] == "lower"
        for workload, metrics in sorted(new["summary"].items()):
            if name not in metrics or name not in base["summary"].get(workload, {}):
                continue
            b, n = base["summary"][workload][name], metrics[name]
            change = (n["median"] - b["median"]) / (abs(b["median"]) or 1.0)
            worse = change if lower else -change
            spread = max(b["iqr_spread"], n["iqr_spread"])
            all_better = (max(n["values"]) < min(b["values"]) if lower
                          else min(n["values"]) > max(b["values"]))
            if spread > bound:
                verdict = "improved" if all_better else "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "improved" if worse < -bound else "ok"
            print(f"{workload:13s} {name:16s} {b['median']:10.4g} "
                  f"{b['q1']:10.4g}-{b['q3']:<10.4g} {n['median']:10.4g} "
                  f"{n['q1']:10.4g}-{n['q3']:<10.4g} {change:+7.3f} "
                  f"{bound:6.2f}  {verdict}")
    # A set with a wrong answer, or a larger share of failed operations
    # than the base, regresses whatever its timings say.
    base_outcomes = outcomes(base["runs"])
    for workload, (correct, failed, attempted) in sorted(
            outcomes(new["runs"]).items()):
        _, base_failed, base_attempted = base_outcomes.get(workload, (True, 0, 1))
        worse = not correct or failed / attempted > base_failed / base_attempted
        regressions += worse
        print(f"{workload:13s} {'failed/attempted':16s} "
              f"{base_failed:>10d} of {base_attempted:<8d} {failed:>10d} of "
              f"{attempted:<8d} correct={correct}  "
              f"{'REGRESSION' if worse else 'ok'}")
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=43,
                        help="drives the request order and the delta stream")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured phase (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--profile", default="full", choices=("full", "smoke"))
    parser.add_argument("--output", default=None, metavar="PATH")
    parser.add_argument("--repeat", type=int, default=0, metavar="N")
    parser.add_argument("--compare", nargs="+", default=None,
                        metavar="SET.json")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench_e2e: no program source under {SRC}; run from the root "
              f"of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness

    # SIGTERM unwinds like Ctrl-C, so every daemon a run started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds is None:
        args.seconds = float(harness.benchmark_spec()["run_seconds"])

    if args.compare:
        if len(args.compare) > 2:
            parser.error("--compare takes BASE.json and optionally NEW.json")
        base = json.loads(Path(args.compare[0]).read_text())
        if len(args.compare) == 2:
            new = json.loads(Path(args.compare[1]).read_text())
        else:
            args.repeat = args.repeat or 10
            new = repeat(args, harness)
        return 1 if compare(base, new, harness.benchmark_spec()) else 0
    if args.repeat:
        runs = repeat(args, harness)["runs"]
        return 0 if all(run["exit_code"] == 0 for run in runs) else 1
    if args.workload not in harness.wl.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(harness.wl.WORKLOADS)}")
    line, report = harness.Run(
        args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), profile=args.profile,
    ).execute()
    if args.output:
        Path(args.output).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
