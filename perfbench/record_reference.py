#!/usr/bin/env python3
"""Record the star and apex outputs that later runs are checked against.

    python3 perfbench/record_reference.py 7 11

For each seed, runs every size of both trajectory workloads through
`actionlim experiment` and stores the report_n{n}.json and trajectory.csv
texts in perfbench/reference.json.  Writes nothing if seed 7 does not
reproduce the digits of acceptance criteria 06/07.
"""
from __future__ import annotations

import json
import shutil
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from io import StringIO

import run


def main(seeds: list[int]) -> int:
    run.import_actionlim()
    import workloads
    from actionlim import cli

    out_root = run.OUT_ROOT / "record_reference"
    reference: dict = {}
    try:
        for w in (workloads.STAR, workloads.APEX):
            for seed in seeds:
                for _, n, argv, outdir in replace(w, with_recorded_seed=False).build(seed, out_root):
                    with redirect_stdout(StringIO()):
                        cli.main(argv)
                    report = (outdir / f"report_n{n}.json").read_text()
                    digits = workloads.CRITERIA[w.name][n] if seed == workloads.CRITERIA_SEED else None
                    if digits is not None and repr(json.loads(report)["value"]) != digits:
                        raise SystemExit(f"{w.name} n={n} seed {seed} does not give the criterion digits {digits}")
                    entry = {"report": report, "trajectory": (outdir / "trajectory.csv").read_text()}
                    reference.setdefault(w.name, {}).setdefault(str(seed), {})[str(n)] = entry
                    print(w.name, seed, n, json.loads(report)["value"], flush=True)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]] or [7]))
