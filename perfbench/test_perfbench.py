"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction

import pytest

import run

run.import_actionlim()

import actionlim  # noqa: E402
import calibration  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "star": replace(workloads.STAR, sizes=(8,), count=2, with_recorded_seed=False),
    "apex": replace(workloads.APEX, sizes=(8,), count=2),
    "lp_pairs": replace(workloads.WORKLOADS["lp_pairs"], pairs=16),
    "norms": replace(workloads.WORKLOADS["norms"], sizes=(6, 8), star_sizes=(4, 10)),
}
HEADLINE = {
    "star": {"point_s.n8": "s"},
    "apex": {"point_s.n8": "s"},
    "lp_pairs": {"lp_ms.p50": "ms", "lp_ms.p99": "ms", "lp_ms.samples": "count", "lp_per_s": "1/s"},
    "norms": {"norm_s.n8": "s"},
}
PRINTED = {**run.END_TO_END, "wall_s": "s", "kernel_ms": "ms"}
COUNTS = {"ops": "count", "op_runs": "count", "ops_failed": "count", "ops_wrong": "count", "fail_ratio": "ratio", "wrong_ratio": "ratio"}
STAR8 = replace(workloads.STAR, sizes=(8,))  # the recorded configuration at n = 8


def _run(workload, tmp_path, trace=False, seed=3, reference=None):
    lines: list[str] = []
    result = run.run_workload(workload, seed, 0.0, trace, reference or {}, tmp_path, emit=lines.append,
                              import_s=lambda: 0.0)
    json.dumps(result)
    return lines, result


def _metric_units(lines: list[str]) -> dict[str, str]:
    """Metric lines are `name value unit`; other lines start with a marker word."""
    markers = ("#", "reference:", "known defect:", "wrong:", "wrong (", "failed:", "...")
    return {line.split()[0]: line.split()[2] for line in lines if not line.startswith(markers)}


def _units(entries: list[dict]) -> dict[str, str]:
    return {e["name"]: e["unit"] for e in entries}


def test_workload_names_match_benchmark_json():
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert _units(BENCHMARK["end_to_end"]) == run.END_TO_END
    assert _units(BENCHMARK["per_layer"]) == run.PER_LAYER


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_untraced_run_prints_every_metric_with_its_unit(name, tmp_path):
    lines, result = _run(TINY[name], tmp_path)
    assert _metric_units(lines) == {**PRINTED, **HEADLINE[name], **COUNTS}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["attempted"] >= 1


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_prints_every_per_layer_metric(name, tmp_path):
    lines, result = _run(TINY[name], tmp_path, trace=True)
    assert _metric_units(lines) == {**PRINTED, **HEADLINE[name], **COUNTS, **run.PER_LAYER}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER


def test_traced_star_reaches_wrapped_names_and_restores_them(tmp_path):
    original_init = actionlim.measures.DiscreteMeasure.__init__
    _, result = _run(TINY["star"], tmp_path, trace=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # profiles calls hausdorff and measure_of through its own module globals
    assert m["lp_metric.hausdorff.calls"] == 3  # K = 3 at one size
    assert m["profiles.measure_of.calls"] == m["measures.DiscreteMeasure.calls"] > 0
    assert m["operators.build.s"] > 0 and m["harness.bytes_written"] > 0
    assert m["lp_metric.probe.lp_distance_ms.n8"] > 0 and m["lp_metric.probe.lp_distance_ms.n128"] == 0
    assert actionlim.profiles.hausdorff is actionlim.lp_metric.hausdorff
    assert not hasattr(actionlim.lp_metric.hausdorff, "__wrapped__")
    assert not hasattr(actionlim.harness.parse_operator_spec, "__wrapped__")
    assert actionlim.measures.DiscreteMeasure.__init__ is original_init


def test_every_star_pass_is_compared_with_recorded_outputs(tmp_path):
    reference = workloads.load_reference()
    lines, result = _run(STAR8, tmp_path, seed=3, reference=reference)
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    assert "reference: compared with the recorded outputs for seeds [7]" in lines
    assert "reference: unchecked, no recorded outputs for seeds [3]" in lines
    lines, result = _run(STAR8, tmp_path, seed=7, reference=reference)
    assert result["correct"] and result["attempted"] == 2
    assert "reference: compared with the recorded outputs for seeds [7, 11]" in lines
    lines, _ = _run(TINY["star"], tmp_path, seed=7, reference=reference)
    assert any(line.startswith("reference: unchecked") for line in lines)
    assert not any("compared" in line for line in lines)


def test_corrupted_reference_value_is_counted_wrong(tmp_path):
    reference = copy.deepcopy(workloads.load_reference())
    entry = reference["star"]["7"]["8"]
    assert "0.109375" in entry["report"]
    entry["report"] = entry["report"].replace("0.109375", "0.109376")
    lines, result = _run(STAR8, tmp_path, seed=3, reference=reference)
    assert result["correct"] is False
    assert result["attempted"] == 2 and result["failed"] == 1
    assert "ops_wrong 1 count" in lines and "ops_failed 1 count" in lines
    assert any(line.startswith("wrong: star seed 7 n=8: report_n8.json differs") for line in lines)


def test_wrong_answer_outside_the_wide_slice_fails_the_run(tmp_path, monkeypatch):
    real = actionlim.lp_metric.lp_distance

    def off_by_a_bit(a, b):
        res = real(a, b)
        return replace(res, value=res.value + 1e-6)

    monkeypatch.setattr(actionlim.lp_metric, "lp_distance", off_by_a_bit)
    lines, result = _run(TINY["lp_pairs"], tmp_path)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 16
    assert any(line.startswith("wrong: pair 0 (narrow") for line in lines)


def test_error_on_a_wide_pair_counts_as_the_known_defect(tmp_path, monkeypatch):
    """Refusing a wide pair is an allowed fix of the known defect: it counts
    as failed but keeps the run correct; a refusal elsewhere does not."""
    real = actionlim.lp_metric.lp_distance

    def refuse_wide(a, b):
        if workloads._scale(a, b) > workloads.INT32_MAX:
            raise ValueError("flow scale exceeds 2^31-1")
        return real(a, b)

    monkeypatch.setattr(actionlim.lp_metric, "lp_distance", refuse_wide)
    lines, result = _run(TINY["lp_pairs"], tmp_path)
    assert result["correct"] is True
    assert result["failed"] == 2 and "ops_wrong 0 count" in lines
    assert any(line.startswith("failed (known defect): pair 7 (wide") for line in lines)

    def refuse_all(a, b):
        raise ValueError("refused")

    monkeypatch.setattr(actionlim.lp_metric, "lp_distance", refuse_all)
    _, result = _run(TINY["lp_pairs"], tmp_path)
    assert result["correct"] is False and result["failed"] == 16


def test_lp_pairs_inputs_follow_the_seed_and_keep_the_wide_slice(tmp_path):
    w = TINY["lp_pairs"]
    cases = w.build(5, tmp_path)
    assert [c.a for c in cases] == [c.a for c in w.build(5, tmp_path)]
    other = w.build(6, tmp_path)
    assert [c.a for c in cases if not c.wide] != [c.a for c in other if not c.wide]
    assert [(c.a, c.b) for c in cases if c.wide] == [(c.a, c.b) for c in other if c.wide]
    for i, c in enumerate(cases):
        assert c.wide == (i % 8 == 7)
        assert (c.lcm > workloads.INT32_MAX) == c.wide
        assert c.a.support_size <= 5 and c.b.support_size <= 5 and 1 <= c.a.dim <= 4
        if not c.wide:
            assert all(w.denominator < 16 * 5 for w in (*c.a.weights(), *c.b.weights()))


def test_known_defect_is_recorded_not_hidden():
    """A pair whose flow scale overflows int32: a wrong answer there counts, flagged as the known defect."""
    a = actionlim.DiscreteMeasure(1, [((0.0,), Fraction(1, 65537)), ((0.5,), 1 - Fraction(1, 65537))])
    b = actionlim.DiscreteMeasure(1, [((0.0,), Fraction(1, 65539)), ((0.9,), 1 - Fraction(1, 65539))])
    tally = workloads.Tally()
    workloads.LpPairs().run_pass([workloads.LpCase(a, b, True, 65537 * 65539)], tally, {})
    wrong = abs(actionlim.lp_distance(a, b).value - actionlim.lp_distance_bruteforce(a, b).value) > 1e-9
    assert tally.ops == 1 and len(tally.wrong) == int(wrong)
    assert all(w.known_defect for w in tally.wrong.values())


def test_each_op_counts_once_however_many_passes_run_it(tmp_path):
    w = TINY["lp_pairs"]
    cases = w.build(3, tmp_path)
    once, twice = workloads.Tally(), workloads.Tally()
    w.run_pass(cases, once, {})
    w.run_pass(cases, twice, {})
    w.run_pass(cases, twice, {})
    assert once.ops == twice.ops == 16 and twice.runs == 32
    assert once.wrong.keys() == twice.wrong.keys() and not twice.failed

    calls = []

    def wrong_then_raising():
        calls.append(None)
        if len(calls) > 1:
            raise ValueError("second run")
        return ["first run"]

    tally = workloads.Tally()
    for _ in range(3):
        tally.run_op("op", wrong_then_raising)
    assert tally.ops == 1 and list(tally.failed) == ["op"] and not tally.wrong


def test_calibrator_leaves_kernel_and_setup_time_out_of_the_pass():
    def setup():
        time.sleep(0.02)
        return 0.02

    cal = calibration.Calibrator(every_s=0.01, setup=setup, setup_every_s=0.0)
    in_op_s, pass_wall_s = [], []

    def ops():
        t_pass = time.perf_counter()
        for _ in range(5):
            cal.between_ops()
            first, t0, c0 = len(cal.samples), time.perf_counter(), cal.clock()
            end = t0 + 0.05
            while time.perf_counter() < end:  # busy, so the alarms fire inside the op
                pass
            kernel_in_op = sum(cal.samples[first:])
            in_op_s.append((time.perf_counter() - t0) - (cal.clock() - c0) - kernel_in_op)
        pass_wall_s.append(time.perf_counter() - t_pass)

    elapsed, kernel_s = cal.timed(ops)
    assert len(cal.samples) > 6  # one at the start of the pass, the rest inside its ops
    assert cal.setup_samples == [0.02] * 5
    assert all(abs(d) < 1e-3 for d in in_op_s)  # op times leave out exactly the kernel time
    assert elapsed < pass_wall_s[0] - 5 * 0.02  # the pass time leaves out the set-ups too


def test_directory_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "norms", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
