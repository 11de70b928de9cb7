#!/usr/bin/env python3
"""Run one benchmark workload of actionlim and print its metrics.

    python3 perfbench/run.py --workload star --seed 7 --seconds 20 --trace 0

Workloads: star, apex, lp_pairs, norms (see workloads.py).  The run imports
`actionlim` from this checkout's `src/` and builds the workload's inputs
from the seed.  It then repeats the workload's pass until `--seconds` of
pass time have gone by and reports the median pass as `wall_s`, and in
calibration-kernel units as `wall_cal` (calibration.py).  One set-up is
`import actionlim` in a fresh interpreter plus one input build; `setup_s` is
the median of set-ups taken before, between the ops of, and after the
passes.
Every op is checked in every pass and counted once (workloads.py), so
`attempted` and `failed` follow from the inputs alone.  Each metric prints
on its own line as `name value unit`; the last line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

With `--trace 1` one untraced pass is followed by one pass with every layer's
public functions wrapped from outside (tracing.py), then by the lp_metric
probes; the JSON then holds the per-layer metrics, including the tracing
overhead (traced pass minus untraced pass).  End-to-end numbers come only
from untraced passes.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
# one caller and no added threads: pin the BLAS pools before numpy loads
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_BEFORE = 3  # set-ups before the first pass; more follow between ops
SETUP_REPEATS = 9  # at least this many in all
WORKLOAD_NAMES = ("star", "apex", "lp_pairs", "norms")

# bounded in BENCHMARK.json; wall_s and kernel_ms print too (see calibration.py)
END_TO_END = {"wall_cal": "cal", "setup_s": "s", "peak_rss_mb": "MB"}
PROBE_SIZES = (8, 32, 128)
PER_LAYER = {
    "lp_metric.hausdorff.calls": "count",
    "lp_metric.hausdorff.s": "s",
    "lp_metric.hausdorff.candidate_pairs": "count",
    **{f"lp_metric.probe.lp_feasible_ms.n{n}": "ms" for n in PROBE_SIZES},
    **{f"lp_metric.probe.lp_distance_ms.n{n}": "ms" for n in PROBE_SIZES},
    "lp_metric.lp_distance.calls": "count",
    "lp_metric.lp_distance.s": "s",
    "lp_metric.lp_distance_bruteforce.s": "s",
    "profiles.profile_sample.calls": "count",
    "profiles.sampling.s": "s",
    "profiles.measure_of.calls": "count",
    "profiles.measure_of.s": "s",
    "profiles.atoms_per_measure": "atoms",
    "measures.DiscreteMeasure.calls": "count",
    "measures.DiscreteMeasure.s": "s",
    "operators.pq_norm.calls": "count",
    "operators.pq_norm.s": "s",
    "operators.build.s": "s",
    "harness.run_experiment.self_s": "s",
    "harness.bytes_written": "bytes",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}
DETAIL_LINES = 10


def import_actionlim() -> None:
    """Import actionlim from this checkout, never an installed copy."""
    package = SRC / "actionlim"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no actionlim sources at {package}")
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import actionlim

    if Path(actionlim.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported actionlim from {actionlim.__file__}, not {package}")


def import_seconds() -> float:
    """Time of `import actionlim` in a fresh interpreter, as a user's first
    command pays it (numpy and scipy included)."""
    probe = "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); import actionlim; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", probe, str(SRC)], capture_output=True, text=True,
                          check=True, timeout=120)
    return float(proc.stdout)


def layer_metrics(stats: dict, probes: dict, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric; 0 for a layer the workload does not reach."""
    calls = stats.get("profiles.measure_of.calls", 0)
    derived = {
        **probes,
        "profiles.sampling.s": stats.get("profiles.profile_sample.self_s", 0.0),
        "profiles.atoms_per_measure": stats.get("profiles.measure_of.atoms", 0) / calls if calls else 0.0,
        "trace.overhead_s": overhead_s,
    }
    return {name: (derived[name] if name in derived else stats.get(name, 0.0), unit) for name, unit in PER_LAYER.items()}


def _fmt(value: float, unit: str):
    return int(value) if unit in ("count", "bytes") else value


def run_workload(workload, seed: int, seconds: float, trace: bool, reference: dict, out_root: Path,
                 emit=print, import_s: Callable[[], float] = import_seconds) -> dict:
    """Run one workload, print its metric lines through `emit`, return the result object."""
    import actionlim
    import calibration
    import tracing
    import workloads

    def setup():
        t_import = import_s()
        t0 = time.perf_counter()
        inputs = workload.build(seed, out_root)
        return t_import + time.perf_counter() - t0, inputs

    out_root.mkdir(parents=True, exist_ok=True)
    setup_s = []
    for _ in range(SETUP_BEFORE):
        took, inputs = setup()
        setup_s.append(took)

    # the traced pass must not count the layer calls of a set-up
    cal = calibration.Calibrator(setup=None if trace else lambda: setup()[0])
    tally = workloads.Tally(calibrator=cal)
    pass_s, pass_cal = [], []
    while not pass_s or (not trace and sum(pass_s) < seconds):
        elapsed, kernel_s = cal.timed(workload.run_pass, inputs, tally, reference)
        pass_s.append(elapsed)
        pass_cal.append(elapsed / kernel_s)
    setup_s += cal.setup_samples
    while len(setup_s) < SETUP_REPEATS:
        setup_s.append(setup()[0])
    measured = {
        "wall_s": (statistics.median(pass_s), "s"),
        "wall_cal": (statistics.median(pass_cal), "cal"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "kernel_ms": (statistics.median(cal.samples) * 1e3, "ms"),
    }

    layers = {}
    if trace:
        cal.every_s = 0.0  # no kernel samples inside traced spans
        tracer = tracing.Tracer()
        tracer.install(actionlim)
        try:
            inputs = workload.build(seed, out_root)
            traced_s, _ = cal.timed(workload.run_pass, inputs, tally, reference)
        finally:
            tracer.restore()
        probes = workload.probe(seed) if hasattr(workload, "probe") else {}
        layers = layer_metrics(tracer.stats, probes, traced_s - measured["wall_s"][0])

    wrong = len(tally.wrong)
    failed = len(tally.failed) + wrong  # raised, or returned a wrong answer
    known_wrong = sum(p.known_defect for p in tally.wrong.values())
    known_raised = sum(p.known_defect for p in tally.failed.values())
    counts = {
        "ops": (tally.ops, "count"),
        "op_runs": (tally.runs, "count"),
        "ops_failed": (failed, "count"),
        "ops_wrong": (wrong, "count"),
        "fail_ratio": (failed / tally.ops, "ratio"),
        "wrong_ratio": (wrong / tally.ops, "ratio"),
    }
    emit(f"# perfbench workload={workload.name} seed={seed} seconds={seconds} trace={int(trace)} passes={len(pass_s)} setups={len(setup_s)}")
    for name, (value, unit) in {**measured, **workload.headline(tally), **counts, **layers}.items():
        emit(f"{name} {_fmt(value, unit)!r} {unit}")
    if tally.reference_checked:
        emit(f"reference: compared with the recorded outputs for seeds {sorted(tally.reference_checked)}")
    if tally.reference_unchecked:
        emit(f"reference: unchecked, no recorded outputs for seeds {sorted(tally.reference_unchecked)}")
    if known_wrong or known_raised:
        emit(f"known defect: {known_wrong} wrong answers and {known_raised} raised errors"
             " on pairs whose flow scale exceeds 2^31-1")
    for kind, problems in (("failed", tally.failed), ("wrong", tally.wrong)):
        for p in list(problems.values())[:DETAIL_LINES]:
            emit(f"{kind}{' (known defect)' if p.known_defect else ''}: {p.label}: {p.detail}")
    hidden = max(0, len(tally.failed) - DETAIL_LINES) + max(0, wrong - DETAIL_LINES)
    if hidden:
        emit(f"... {hidden} more failed or wrong ops not shown")

    metrics = layers if trace else {name: measured[name] for name in END_TO_END}
    return {
        # a wrong answer or an error on a known-defect input is counted in
        # `failed` but is not a new fault; anything else makes the run incorrect
        "correct": known_wrong + known_raised == failed,
        "attempted": tally.ops,
        "failed": failed,
        "metrics": {name: {"value": _fmt(v, unit), "unit": unit} for name, (v, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="repeat passes until this much time has gone by")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_actionlim()
    import workloads

    out_root = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        result = run_workload(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
            workloads.load_reference(), out_root,
        )
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:  # another run still has its outputs there
            pass
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
