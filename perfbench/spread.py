#!/usr/bin/env python3
"""Run one workload over several seeds and report the spread of each metric.

    python3 perfbench/spread.py --workload star --seeds 1 2 3 4 5 [--out perfbench/baseline.json]

Runs perfbench/run.py once per seed, one run at a time, for BENCHMARK.json's
run_seconds, untraced.  For each end-to-end metric it prints the median of
the runs, the quartiles from statistics.quantiles(values, n=4), and the
distance between the quartiles as a share of the median, next to the
metric's bound.  With --out it stores every run under `runs.<workload>` of
that JSON file, keeping the file's other entries.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--out", help="also store every run in this JSON file")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics = {k: v["value"] for k, v in result.pop("metrics").items()}
        runs.append({"seed": seed, **result, **metrics})
        values = " ".join(f"{k}={v:.6g}" for k, v in metrics.items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)

    for m in bench["end_to_end"]:
        name = m["name"]
        values = [r[name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f} bound {m['bound']}")
    if args.out:
        out = Path(args.out)
        stored = json.loads(out.read_text()) if out.exists() else {}
        stored.setdefault("runs", {})[args.workload] = runs
        out.write_text(json.dumps(stored, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
