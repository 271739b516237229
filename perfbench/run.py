#!/usr/bin/env python3
"""Repository benchmark: build the simulator, run one workload, check it.

Run from the repository root:

    python3 perfbench/run.py --workload loss_load_sweep --seed 1 \\
        --seconds 10 --trace 0

The workloads and metric names are declared in BENCHMARK.json. With
``--trace 0`` the workload repeats for ``--seconds`` with no recording
installed and the end-to-end metrics are reported, their times scaled to
a reference host speed by a probe run between passes (NOTES.md, "Host
scaling"); with ``--trace 1`` a
separate traced run reports the per-layer metrics. Every simulated result
is checked (invariants, and a fingerprint of its deterministic fields
against perfbench/fingerprints.txt when the seed has a committed one, else
against the run's own first pass). The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

``--horizon-scale`` shortens every simulated window (smoke.py uses it);
``--record`` stores this run's fingerprint as the seed's reference.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
FINGERPRINTS = BENCH_DIR / "fingerprints.txt"
RUN_TIMEOUT_S = 170
FINGERPRINTED = ("timed", "untraced", "traced")


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_declaration():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path.name} not found at the repository root", 2)
    with open(path) as f:
        return json.load(f)


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd), 3)


def read_fingerprints():
    refs = {}
    if FINGERPRINTS.is_file():
        for line in FINGERPRINTS.read_text().splitlines():
            parts = line.split()
            if len(parts) == 3 and not line.startswith("#"):
                refs[(parts[0], parts[1])] = parts[2]
    return refs


def record_fingerprint(workload, seed, fingerprint):
    refs = read_fingerprints()
    refs[(workload, str(seed))] = fingerprint
    lines = ["# workload seed fingerprint (perfbench/run.py --record)"]
    for (w, s), fp in sorted(refs.items(), key=lambda kv: (kv[0][0], int(kv[0][1]))):
        lines.append(f"{w} {s} {fp}")
    FINGERPRINTS.write_text("\n".join(lines) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--horizon-scale", type=float, default=1.0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    decl = load_declaration()
    if args.workload not in [w["name"] for w in decl["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)
    if args.seed < 0:
        fail("--seed must be >= 0", 2)
    wanted = decl["per_layer"] if args.trace else decl["end_to_end"]
    build()

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--mode", "traced" if args.trace else "timed",
           "--horizon-scale", repr(args.horizon_scale)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}", 4)

    records = [json.loads(line) for line in proc.stdout.splitlines() if line]
    passes = [r for r in records if r["kind"] == "pass"]
    metrics = {r["name"]: r for r in records if r["kind"] == "metric"}

    reference = None
    if args.horizon_scale == 1.0:
        reference = read_fingerprints().get((args.workload, str(args.seed)))
    attempted = failed = 0
    reasons = []
    for p in passes:
        attempted += p["calls"]
        bad = p["failed_calls"]
        if p["reason"]:
            reasons.append(f"{p['label']}: {p['reason']}")
        if p["label"] in FINGERPRINTED:
            if reference is None:
                reference = p["fingerprint"]
            elif p["fingerprint"] != reference:
                bad = p["calls"]
                reasons.append(f"{p['label']}: fingerprint {p['fingerprint']}"
                               f" != reference {reference}")
        failed += bad

    if args.record:
        if failed or args.horizon_scale != 1.0 or reference is None:
            fail("not recording a fingerprint from a failed or shortened run", 5)
        record_fingerprint(args.workload, args.seed, reference)

    out = {}
    for m in wanted:
        rec = metrics.get(m["name"])
        if rec is None or rec["unit"] != m["unit"]:
            fail(f"metric {m['name']} missing or not in {m['unit']}", 4)
        out[m["name"]] = {"value": rec["value"], "unit": rec["unit"]}

    # Human-readable summary; the JSON result stays the last line.
    print(f"# {args.workload} seed={args.seed} "
          f"mode={'traced' if args.trace else 'timed'} fingerprint={reference}")
    print(f"# failed_share {failed}/{attempted} = {failed / attempted:.4g}"
          " (failed run_scenario calls / attempted)")
    for r in reasons:
        print(f"# FAILED {r}")
    for name, rec in metrics.items():
        print(f"{name:36s} {rec['value']:>22.10g} {rec['unit']}")
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": out}))


if __name__ == "__main__":
    main()
