#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

Runs every workload of BENCHMARK.json at a short simulated horizon, once
timed (--trace 0) and once traced (--trace 1), and asserts that each run
passes its result checks (failed_share 0) and prints every declared metric
by name with its declared unit. Run from the repository root:

    python3 perfbench/smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HORIZON_SCALE = "0.05"


def main():
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in decl["workloads"]:
        for trace, declared in ((0, decl["end_to_end"]), (1, decl["per_layer"])):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", w["name"], "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--horizon-scale", HORIZON_SCALE]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
            where = f"{w['name']} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: failed_share {result['failed']}/"
                                f"{result['attempted']}\n" + "\n".join(lines[:-1]))
            expected = {m["name"]: m["unit"] for m in declared}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != expected:
                problems.append(f"{where}: metrics {got} != declared {expected}")
            for name, v in result["metrics"].items():
                if not isinstance(v.get("value"), (int, float)):
                    problems.append(f"{where}: {name} has no numeric value")
            print(f"ok {where}: {result['attempted']} calls checked, "
                  f"{len(got)} metrics", flush=True)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
