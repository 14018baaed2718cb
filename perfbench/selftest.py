#!/usr/bin/env python3
"""Self-test of the benchmark's tracer, one short traced invocation per workload.

    python3 perfbench/selftest.py [workload ...]

Each invocation makes one untraced and one traced run (cli-predict also
one untraced and one traced set-up). ``run.py`` fails a run when

* the traced run's output bytes differ from the untraced run's, or
* a traced count differs from the count the program's outputs imply:
  ``ecm.fit.calls`` vs the fit-cache entries and ``gpr.train.calls`` vs
  the importance blocks of the report (rul, truncation),
  ``gpc.classify.calls`` vs the classified rows, ``gpr.predict.calls`` vs
  the rows ``batlife predict-rul`` wrote (these two are called through
  names ``experiments`` and ``cli`` imported, one under an alias).

Exits non-zero when any workload reports a failed run or an incomplete
metric set.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ok = True
    for workload in sys.argv[1:] or [w["name"] for w in spec["workloads"]]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "0", "--seconds", "0", "--trace", "1"],
            capture_output=True, text=True, cwd=HERE.parent,
        )
        if proc.returncode != 0:
            print(f"{workload}: FAIL (exit {proc.returncode}) {proc.stderr.strip()[-500:]}")
            ok = False
            continue
        lines = proc.stdout.strip().splitlines()
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
        passed = result["correct"] and result["failed"] == 0
        ok = ok and passed
        print(f"{workload}: {'PASS' if passed else 'FAIL'} "
              f"({result['attempted']} steps, {len(result['metrics'])} metrics)")
        for problem in record["problems"]:
            print(f"  {problem}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
