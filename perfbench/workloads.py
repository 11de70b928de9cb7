"""The benchmark workloads: inputs made from a seed, one timed pass, checks.

Every workload drives the program through its public functions, one call
after another from a single caller (a closed loop with one client).  Each
unit of work is an op, named by its label.  Every pass runs and checks every
op again; an op is counted once per run, however many passes ran it.  It
fails when it raises in any pass and is wrong when it returned but its output
check did not hold in some pass.  So a run's op, failure and wrong-answer
counts depend on its inputs only, not on how many passes fit in its time.
"""
from __future__ import annotations

import json
import math
import statistics
import time
from collections import defaultdict
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from io import StringIO
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from actionlim import cli, harness, lp_metric, measures, operators, profiles
from calibration import Calibrator

INT32_MAX = 2**31 - 1
REFERENCE_FILE = Path(__file__).with_name("reference.json")
# Outputs of `actionlim experiment` at K=3, count=64 for seed 7 (criteria 06
# and 07 of tests/test_acceptance.py); checked independently of reference.json.
CRITERIA_SEED = 7
CRITERIA = {
    "star": {8: "0.109375", 32: "0.02734375", 128: "0.0068359375"},
    "apex": {8: "0.38019751139021274", 32: "0.10606060606060606", 128: "0.027131782945736434"},
}
REFERENCE_CONFIG = (64, 3)  # (count, K) the recorded references were made with
RECORDED_SEEDS = (CRITERIA_SEED, 11)  # experiment seeds with outputs in reference.json
WIDE_SEED = 7  # lp_pairs' wide slice is made from this seed in every run
PROBE_GRID = 4  # the traced probes time PROBE_GRID^2 profile-measure pairs per size


@dataclass(frozen=True)
class Problem:
    """A raising op (in Tally.failed) or a wrong answer (in Tally.wrong)."""

    label: str
    detail: str
    known_defect: bool


@dataclass
class Tally:
    runs: int = 0  # op runs over all passes
    labels: set[str] = field(default_factory=set)  # the ops
    failed: dict[str, Problem] = field(default_factory=dict)  # by label; disjoint from wrong
    wrong: dict[str, Problem] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    reference_checked: set[int] = field(default_factory=set)  # experiment seeds
    reference_unchecked: set[int] = field(default_factory=set)
    calibrator: Optional[Calibrator] = None  # samples machine speed and set-up time

    def clock(self) -> float:
        """Seconds for op timings, leaving out the calibrator's samples."""
        return self.calibrator.clock() if self.calibrator is not None else time.perf_counter()

    @property
    def ops(self) -> int:
        return len(self.labels)

    def run_op(self, label: str, check: Callable[..., list[str]], *args, known_defect: bool = False) -> None:
        """Run one op; `check` does the calls and returns its failed checks.
        The first problem of an op is kept, and a raise outranks a wrong answer."""
        if self.calibrator is not None:
            self.calibrator.between_ops()
        self.runs += 1
        self.labels.add(label)
        try:
            problems = check(*args)
        except Exception as exc:  # a raising op is counted and the run goes on
            self.wrong.pop(label, None)
            self.failed.setdefault(label, Problem(label, f"{type(exc).__name__}: {exc}", known_defect))
            return
        if problems and label not in self.failed:
            self.wrong.setdefault(label, Problem(label, "; ".join(problems), known_defect))


def _median(samples: list[float]) -> float:
    """Median of an op's timings; nan when every such op raised."""
    return statistics.median(samples) if samples else math.nan


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


# ---------------------------------------------------------------------------
# star / apex: `actionlim experiment` trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """One `actionlim experiment` call per size and experiment seed, in-process
    through cli.main.  A pass runs the run's seed and, with `with_recorded_seed`,
    also a seed of reference.json, so that every pass is compared with
    recorded outputs and half its work does not depend on the run's seed."""

    name: str
    graph_a: str
    graph_b: str
    strategy: str
    probe_a: Optional[str]
    probe_b: Optional[str]
    norm_a: Callable[[int], float]  # exact (inf,1)-norm readout expected in trajectory.csv
    norm_b: Callable[[int], float]
    sizes: tuple[int, ...] = (8, 32, 128)
    count: int = 64
    K: int = 3
    with_recorded_seed: bool = False

    def settings(self, n: int, seed: int) -> list[str]:
        kv = {
            "sizes": str(n), "K": str(self.K), "count": str(self.count), "seed": str(seed),
            "graph_a": self.graph_a, "graph_b": self.graph_b, "strategy": self.strategy,
        }
        if self.probe_a is not None:
            kv["probe_a"] = self.probe_a
        if self.probe_b is not None:
            kv["probe_b"] = self.probe_b
        return [f"{k}={v}" for k, v in kv.items()]

    def pass_seeds(self, seed: int) -> tuple[int, ...]:
        if not self.with_recorded_seed:
            return (seed,)
        return (seed, RECORDED_SEEDS[1] if seed == RECORDED_SEEDS[0] else RECORDED_SEEDS[0])

    def build(self, seed: int, out_root: Path):
        inputs = []
        for s in self.pass_seeds(seed):
            for n in self.sizes:
                outdir = out_root / f"{self.name}_s{s}_n{n}"
                argv = ["experiment", "--out", str(outdir)]
                for item in self.settings(n, s):
                    argv += ["--set", item]
                inputs.append((s, n, argv, outdir))
        return inputs

    def run_pass(self, inputs, tally: Tally, reference: dict) -> None:
        recorded = reference.get(self.name, {}) if (self.count, self.K) == REFERENCE_CONFIG else {}
        for s, n, argv, outdir in inputs:
            ref = recorded.get(str(s), {}).get(str(n))
            tally.run_op(f"{self.name} seed {s} n={n}", self._op, n, argv, outdir, s, ref, tally)
            if ref is None:
                tally.reference_unchecked.add(s)
            else:
                tally.reference_checked.add(s)

    def _op(self, n, argv, outdir: Path, seed: int, ref: Optional[dict], tally: Tally) -> list[str]:
        shown = StringIO()
        t0 = tally.clock()
        with redirect_stdout(shown):
            rc = cli.main(argv)
        tally.samples[f"point_s.n{n}"].append(tally.clock() - t0)

        problems = []
        if rc != 0 or str(outdir) not in shown.getvalue():
            problems.append(f"exit code {rc}, output {shown.getvalue()!r}")
        report_text = (outdir / f"report_n{n}.json").read_text()
        csv_text = (outdir / "trajectory.csv").read_text()
        report = json.loads(report_text)

        per_k = report["per_k"]
        total = 0.0
        for k, h in per_k:
            total += h / 2.0**k
            if not 0.0 <= h <= 1.0:
                problems.append(f"d_H at k={k} is {h!r}, outside [0, 1]")
        if [k for k, _ in per_k] != list(range(1, self.K + 1)) or total != report["value"]:
            problems.append(f"value {report['value']!r} is not the 2^-k sum of per_k {per_k}")
        if report["truncation_k"] != self.K or report["tail_bound"] != 2.0**-self.K:
            problems.append(f"truncation {report['truncation_k']} / tail {report['tail_bound']!r}")
        want_csv = f"n,action_distance,norm_a,norm_b\n{n},{report['value']!r},{self.norm_a(n)!r},{self.norm_b(n)!r}\n"
        if csv_text != want_csv:
            problems.append(f"trajectory.csv {csv_text!r}, expected {want_csv!r}")

        if ref is not None:
            if report_text != ref["report"]:
                problems.append(f"report_n{n}.json differs from the reference for seed {seed}")
            if csv_text != ref["trajectory"]:
                problems.append(f"trajectory.csv differs from the reference for seed {seed}")
            digits = CRITERIA[self.name].get(n) if seed == CRITERIA_SEED else None
            if digits is not None and repr(report["value"]) != digits:
                problems.append(f"value {report['value']!r}, criterion digits {digits}")
        return problems

    def probe(self, seed: int) -> dict[str, float]:
        """Median ms of lp_distance, and of lp_feasible at that distance, per
        size, over pairs of k=2 profile measures of this workload's operators."""
        out = {}
        for n in self.sizes:
            cfg = harness.ExperimentConfig.from_mapping(dict(kv.split("=", 1) for kv in self.settings(n, seed)))
            op_a = harness.parse_operator_spec(cfg.graph_a.format(n=n, n1=n + 1))
            op_b = harness.parse_operator_spec(cfg.graph_b.format(n=n, n1=n + 1))
            s_a, s_b = harness._strategy_for(cfg, op_a, cfg.probe_a), harness._strategy_for(cfg, op_b, cfg.probe_b)
            # Hausdorff tries every (a, b) pair, so probe a grid, not only the
            # index-aligned pairs; skip the all-ones and all-zeros tuples.
            pa = profiles.profile_sample(op_a, 2, s_a).measures[2 : 2 + PROBE_GRID]
            pb = profiles.profile_sample(op_b, 2, s_b).measures[2 : 2 + PROBE_GRID]
            dist_ms, feas_ms = [], []
            for a in pa:
                for b in pb:
                    t0 = time.perf_counter()
                    d = lp_metric.lp_distance(a, b).value
                    t1 = time.perf_counter()
                    lp_metric.lp_feasible(a, b, d)
                    t2 = time.perf_counter()
                    dist_ms.append((t1 - t0) * 1e3)
                    feas_ms.append((t2 - t1) * 1e3)
            out[f"lp_metric.probe.lp_distance_ms.n{n}"] = statistics.median(dist_ms)
            out[f"lp_metric.probe.lp_feasible_ms.n{n}"] = statistics.median(feas_ms)
        return out

    def headline(self, tally: Tally) -> dict[str, tuple[float, str]]:
        n = max(self.sizes)
        return {f"point_s.n{n}": (_median(tally.samples[f"point_s.n{n}"]), "s")}


# ---------------------------------------------------------------------------
# lp_pairs: the LP engine alone, against its brute-force oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LpCase:
    a: object
    b: object
    wide: bool
    lcm: int  # lcm of every weight denominator of the pair: the flow engine's scale


def _dyadic_measure(rng: np.random.Generator, dim: int, first_den: Optional[int]):
    m = int(rng.integers(1 if first_den is None else 2, 6))
    points = rng.integers(-16, 17, size=(m, dim)) / 16.0
    raw = [int(r) for r in rng.integers(1, 16, size=m)]
    if first_den is None:
        weights = [Fraction(r, sum(raw)) for r in raw]
    else:
        rest = 1 - Fraction(1, first_den)
        weights = [Fraction(1, first_den)] + [rest * Fraction(r, sum(raw[1:])) for r in raw[1:]]
    return measures.DiscreteMeasure(dim, zip(points.tolist(), weights))


def _scale(*ms) -> int:
    return math.lcm(*(w.denominator for m in ms for w in m.weights()))


@dataclass(frozen=True)
class LpPairs:
    """Pairs of measures with at most 5 atoms each in dimension 1-4.

    Every eighth pair is wide: one atom of each measure weighs 1/p and 1/q
    for coprime odd p, q just above 2^16, so the flow engine's scale
    exceeds 2^31-1.  The other pairs use raw integer weights below 16 and
    follow the run's seed.  The wide pairs come from WIDE_SEED, so every run
    meets the known defect on the same inputs and counts the same wrong
    answers, whatever its seed.
    """

    name: str = "lp_pairs"
    pairs: int = 2000

    def build(self, seed: int, out_root: Path) -> list[LpCase]:
        narrow, wide = np.random.default_rng(seed), np.random.default_rng(WIDE_SEED)
        return [self._case(wide, True) if i % 8 == 7 else self._case(narrow, False) for i in range(self.pairs)]

    @staticmethod
    def _case(rng: np.random.Generator, wide: bool) -> LpCase:
        while True:
            dim = int(rng.integers(1, 5))
            p, q = None, None
            if wide:
                p, q = (65537 + 2 * int(x) for x in rng.integers(0, 64, size=2))
                if math.gcd(p, q) != 1:
                    continue
            a, b = _dyadic_measure(rng, dim, p), _dyadic_measure(rng, dim, q)
            lcm = _scale(a, b)
            if not wide or lcm > INT32_MAX:
                return LpCase(a, b, wide, lcm)

    def run_pass(self, inputs: list[LpCase], tally: Tally, reference: dict) -> None:
        for i, case in enumerate(inputs):
            label = f"pair {i} ({'wide' if case.wide else 'narrow'}, scale {case.lcm})"
            # Known defect: scipy's max-flow silently mis-handles capacities
            # above 2^31-1, so lp_distance can answer wrong on these pairs.
            tally.run_op(label, self._op, case, tally, known_defect=case.lcm > INT32_MAX)

    @staticmethod
    def _op(case: LpCase, tally: Tally) -> list[str]:
        t0 = tally.clock()
        ab = lp_metric.lp_distance(case.a, case.b).value
        t1 = tally.clock()
        ba = lp_metric.lp_distance(case.b, case.a).value
        t2 = tally.clock()
        tally.samples["lp_call_s"] += [t1 - t0, t2 - t1]
        oracle = lp_metric.lp_distance_bruteforce(case.a, case.b).value
        problems = []
        if ab != ba:
            problems.append(f"lp_distance(a,b)={ab!r} but lp_distance(b,a)={ba!r}")
        if not abs(ab - oracle) <= 1e-9:
            problems.append(f"lp_distance={ab!r} but brute force={oracle!r}")
        return problems

    def headline(self, tally: Tally) -> dict[str, tuple[float, str]]:
        calls = sorted(tally.samples["lp_call_s"])
        p99 = calls[math.ceil(0.99 * len(calls)) - 1] if calls else math.nan
        return {
            "lp_ms.p50": (_median(calls) * 1e3, "ms"),
            "lp_ms.p99": (p99 * 1e3, "ms"),
            "lp_ms.samples": (len(calls), "count"),
            "lp_per_s": (len(calls) / sum(calls) if calls else math.nan, "1/s"),
        }


# ---------------------------------------------------------------------------
# norms: exact (inf,1)-norms by sign enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Norms:
    """Seeded +-1 matrices (adjoint duality) and star graphs (exact 2 - 2/n)."""

    name: str = "norms"
    sizes: tuple[int, ...] = (14, 16, 17, 18)
    star_sizes: tuple[int, ...] = (4, 10, 100, 1000)

    def build(self, seed: int, out_root: Path):
        rng = np.random.default_rng(seed)
        signs = [(n, operators.WeightedOperator(rng.choice([-1.0, 1.0], size=(n, n)))) for n in self.sizes]
        stars = [(n, operators.adjacency(operators.GraphSpec("star", n))) for n in self.star_sizes]
        return signs, stars

    def run_pass(self, inputs, tally: Tally, reference: dict) -> None:
        signs, stars = inputs
        for n, A in signs:
            tally.run_op(f"sign matrix n={n}", self._duality_op, n, A, tally)
        for n, S in stars:
            tally.run_op(f"star n={n}", self._star_op, n, S)

    @staticmethod
    def _duality_op(n: int, A, tally: Tally) -> list[str]:
        t0 = tally.clock()
        v = operators.pq_norm(A, math.inf, 1)
        tally.samples[f"norm_s.n{n}"].append(tally.clock() - t0)
        w = operators.pq_norm(operators.adjoint(A), math.inf, 1)
        return [] if v == w else [f"norm {v!r} but adjoint norm {w!r}"]

    @staticmethod
    def _star_op(n: int, S) -> list[str]:
        v = operators.pq_norm(S, math.inf, 1)
        want = float(Fraction(2 * n - 2, n))
        return [] if v == want else [f"norm {v!r}, expected {want!r}"]

    def headline(self, tally: Tally) -> dict[str, tuple[float, str]]:
        n = max(self.sizes)
        return {f"norm_s.n{n}": (_median(tally.samples[f"norm_s.n{n}"]), "s")}


STAR = Trajectory(
    "star", "star:{n}", "broadcast:{n}:0", "mixed", None, None,
    norm_a=lambda n: float(Fraction(2 * n - 2, n)), norm_b=lambda n: 1.0, with_recorded_seed=True,
)
APEX = Trajectory(
    "apex", "gplus:cycle:{n}", "signed:+1:0:cycle:{n1}", "vertex_probe", "last", "0",
    norm_a=lambda n: float(Fraction(4 * n, n + 1)), norm_b=lambda n: 3.0,
)
WORKLOADS = {w.name: w for w in (STAR, APEX, LpPairs(), Norms())}
