#!/usr/bin/env python3
"""batlife benchmark: time a workload end to end, or trace it layer by layer.

    python3 perfbench/run.py --workload rul --seed 1 --seconds 20 --trace 0

Closed loop, one client: each workload run is a fresh child process
(``worker.py``) started only after the previous one ended, so peak RSS and
CPU time belong to that run. Runs repeat until ``--seconds`` have passed
(at least ``MIN_RUNS``), and every end-to-end metric is the median over
the runs. BLAS threads are pinned to one in every child. Times are scaled
to a reference speed of the host, sampled during each timed block
(``hostspeed.py``); the raw times are in the record.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics of the traced ones, plus the traced wall time and its
difference to the untraced runs (the tracing overhead). Spans go to
``.perfbench/<workload>/spans-<run>.json``, a full record of the
invocation to ``.perfbench/<workload>/result.json``.

Every run is checked: the report verifies, the workload's acceptance floor
holds, and the output bytes equal those of the invocation's first run.
Traced runs must also produce the untraced bytes, and their call counts
must match counts taken independently of the tracer. A run failing any
check counts in ``failed``. The last line of standard output is the JSON
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_RUNS = 2
CLI_SETUPS = 2          # cli-predict sets up on disk this many times per invocation
STEP_TIMEOUT_S = 150
BLAS_THREADS = "1"


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _step(spec: dict) -> dict:
    """Run one worker step and return its result (``problems`` set on failure)."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], input=json.dumps(spec),
            capture_output=True, text=True, env=_child_env(), cwd=ROOT,
            timeout=STEP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"problems": [f"step timed out after {STEP_TIMEOUT_S} s"]}
    if proc.returncode != 0:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return {"problems": [f"step exited with code {proc.returncode}: {tail}"]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_same_bytes(results: list[dict], what: str) -> None:
    """Every successful step must reproduce the first one's output bytes."""
    reference = None
    for index, result in enumerate(results):
        if result["problems"]:
            continue
        if reference is None:
            reference = (index, result["digest"])
        elif result["digest"] != reference[1]:
            result["problems"].append(
                f"{what} {index} output bytes differ from {what} {reference[0]}")


# Counts implied by the program's own outputs, and the traced count each
# must equal. A binding site the tracer missed shows up as a shortfall.
FACT_COUNTS = {
    "fit_cache_entries": "ecm.fit.calls",
    "importance_blocks": "gpr.train.calls",
    "classified_rows": "gpc.classify.calls",
    "predicted_rows": "gpr.predict.calls",
}


def _check_trace_counts(result: dict, metrics: dict) -> None:
    for fact, metric in FACT_COUNTS.items():
        if fact in result["facts"] and metrics[metric] != result["facts"][fact]:
            result["problems"].append(
                f"traced {metric} {metrics[metric]} != {fact} {result['facts'][fact]}")


def _source_identity() -> dict[str, str | None]:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "source_sha256": digest.hexdigest()}


def _median(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def main() -> int:
    spec_file = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec_file["workloads"]])
    parser.add_argument("--seed", type=int, default=0,
                        help="order in which the cells reach the program (integer)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measurement time (seconds; at least MIN_RUNS runs are made)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--fleet-seed", type=int,
                        help="fleet seed (default: the workload's acceptance seed)")
    parser.add_argument("--split-seed", type=int,
                        help="train/test split seed (default: the workload's acceptance seed)")
    args = parser.parse_args()

    if not (ROOT / "src" / "batlife" / "__init__.py").is_file():
        print(f"no batlife sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = spec_file["per_layer"] if args.trace else spec_file["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    work = ROOT / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    base = {"workload": args.workload, "seeds": [args.fleet_seed, args.split_seed],
            "order_seed": args.seed, "inputs": "../inputs-0"}

    setups: list[dict] = []
    if args.workload == "cli-predict":
        for k in range(CLI_SETUPS):
            setups.append(_step({**base, "phase": "setup", "outdir": str(work / f"inputs-{k}"),
                                 "trace": bool(args.trace and k == 1),
                                 "spans": str(work / f"spans-setup-{k}.json")}))
        _check_same_bytes(setups, "set-up")

    runs: list[dict] = []
    deadline = time.monotonic() + args.seconds
    while len(runs) < MIN_RUNS or time.monotonic() < deadline:
        if setups and setups[0]["problems"]:
            break
        traced = bool(args.trace and len(runs) % 2 == 1)
        result = _step({**base, "phase": "run", "trace": traced,
                        "outdir": str(work / f"run-{len(runs)}"),
                        "spans": str(work / f"spans-{len(runs)}.json")})
        result["traced"] = traced
        runs.append(result)
    _check_same_bytes(runs, "run")

    traced_setup = [s["stats"] for s in setups if "stats" in s]
    layer_samples = []
    if args.trace:
        from tracer import layer_metrics, merge_stats

        for result in runs:
            if result["traced"] and not result["problems"]:
                _check_trace_counts(result, layer_metrics(result["stats"]))
            if result["traced"] and not result["problems"]:
                layer_samples.append(layer_metrics(merge_stats(traced_setup + [result["stats"]])))

    steps = setups + runs
    good = [r for r in runs if not r["problems"]]
    untraced = [r for r in good if not r["traced"]]
    traced_runs = [r for r in good if r["traced"]]
    metrics: dict[str, float] = {}
    if args.trace and traced_runs and untraced:
        metrics = {name: statistics.median(m[name] for m in layer_samples)
                   for name in layer_samples[0]}
        metrics["trace.wall_s"] = _median(traced_runs, "wall_s")
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - _median(untraced, "wall_s")
    elif not args.trace and untraced:
        setup_source = [s for s in setups if not s["problems"]] or untraced
        metrics = {
            "setup_s": _median(setup_source, "setup_s"),
            "wall_s": _median(untraced, "wall_s"),
            "cpu_s": _median(untraced, "cpu_s"),
            "peak_rss_mb": _median(untraced, "peak_rss_mb"),
            "quality_margin": statistics.median(r["quality"]["quality_margin"] for r in untraced),
        }
    failed = sum(1 for r in steps if r["problems"])
    complete = set(metrics) == set(units)

    first = next((r for r in steps if "env" in r), {})
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seeds": first.get("seeds"),
        "fleet": first.get("fleet"),
        "nproc": len(os.sched_getaffinity(0)),
        "env": first.get("env"),
        **_source_identity(),
        "quality": good[0]["quality"] if good else None,
        "failed_frac": failed / len(steps),
        "problems": [p for r in steps for p in r["problems"]],
        "samples": {key: [r[key] for r in steps if key in r]
                    for key in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")},
        "raw_samples": [r["raw"] for r in steps if "raw" in r],
        "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": len(steps),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
