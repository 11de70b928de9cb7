"""Claim registry and reproducible experiment runner.

Each paper claim has one entry in CLAIMS, read by both `actionlim verify`
and the acceptance tests.  Every check ties a claimed relation to a measured
value and a pass/fail verdict, emitted as one JSON-lines record per check.
Experiment configs fully determine their outputs; reruns produce
byte-identical files.
"""
from __future__ import annotations

import json
import math
import string
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import lp_metric, measures, operators, profiles
from .operators import parse_operator_spec

__all__ = [
    "VerificationRecord",
    "Claim",
    "CLAIMS",
    "ExperimentConfig",
    "STAR",
    "APEX",
    "run_verify",
    "run_experiment",
]


# ---------------------------------------------------------------------------
# verification records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationRecord:
    """One check: the same inputs give the same record, with no timings."""

    id: str
    anchor: str
    expected: str
    measured: str
    passed: bool

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))  # json.dumps refuses numpy bools

    def to_dict(self) -> dict:
        return {"id": self.id, "anchor": self.anchor, "expected": self.expected, "measured": self.measured,
                "pass": self.passed}


# closed registry of claim anchors
ANCHORS = {
    "lp_definition": "d_LP(eta,mu) = inf{eps : eta(U) <= mu(U^eps)+eps and mu(U) <= eta(U^eps)+eps for every Borel U}",
    "lp_bounded": "d_LP(eta,mu) <= 1 for any two probability measures",
    "lp_shift": "d_LP(eta (+) w, nu) = d_LP(eta, nu (+) (-w)) and d_LP(eta, eta (+) w) <= |w|",
    "lp_marginal": "d_LP(mu_x, kappa_x) <= d_LP(mu, kappa) for x-axis marginals",
    "star_norm": "norm_{inf->1}(S_n) = (1*(n-1) + (n-1)*1)/n = 2 - 2/n",
    "star_degree_norm": "q-norm of the star degree sequence = ((n-1)/n + (n-1)^q/n)^(1/q) >= (n-1)/n^(1/q)",
    "uniform_approx": "d_LP(mu, kappa_m) <= 1/k for a grid with 1/k-ball cells; stage-2 rounding adds < m/n",
    "gplus_shift": "d_LP(mu_n^{+v}, mu_n (+) v) <= 1/(|V(G_n)|+1)",
    "star_limit": "d_M(S_n, A) -> 0 for the broadcast-type limit operator A",
    "gplus_limit": "A + phi and A - phi are action limits of the apex-augmented sequence G_n^+",
    "not_self_adjoint": "|(f,1)_A| > 1-eps while |(1,f)_A| <= 2*eps: the star limit is not self-adjoint",
    "regularity_shift": "if A is c-regular then A^+ is (c+1)-regular and A^- is (c-1)-regular",
    "positivity_shift": "A^+ is positivity-preserving when A is; A^- need not be",
    "norm_discontinuity": "lim norm_{inf->1}(S_n) = 2 > 1 = norm of the limit: the (inf,1)-norm is not continuous",
    "adjoint_norms": "norm_{p->q}(A) = norm_{q'->p'}(A*) for Holder conjugates; (inf,1) is self-conjugate",
}


# ---------------------------------------------------------------------------
# randomized measure generators (dyadic coordinates keep float shifts exact)
# ---------------------------------------------------------------------------

def _random_measure(rng: np.random.Generator, dim: int, max_atoms: int, denom: int = 16) -> measures.DiscreteMeasure:
    m = int(rng.integers(1, max_atoms + 1))
    pts = rng.integers(-2 * 64, 2 * 64 + 1, size=(m, dim)) / 64.0
    raw = rng.integers(1, denom, size=m)
    total = int(raw.sum())
    ws = [Fraction(int(x), total) for x in raw]
    return measures.DiscreteMeasure(dim, zip(map(tuple, pts), ws))


# ---------------------------------------------------------------------------
# claim runners: each check's threshold lives only here
# ---------------------------------------------------------------------------

def _lp_oracle(cases: int = 200, seed: int = 2024) -> list[VerificationRecord]:
    """The max-flow engine and subset enumeration give the same float on small supports: each
    returns the correctly rounded float of the same exact rational."""
    rng = np.random.default_rng(seed)
    differ = 0
    for _ in range(cases):
        dim = int(rng.integers(1, 5))
        a = _random_measure(rng, dim, 4)
        b = _random_measure(rng, dim, 4)
        differ += lp_metric.lp_distance(a, b).value != lp_metric.lp_distance_bruteforce(a, b).value
    return [
        VerificationRecord(
            "lp_oracle", ANCHORS["lp_definition"], "flow == brute, the same float, on every random pair",
            f"{differ} of {cases} cases differ", differ == 0,
        )
    ]


# metric property -> (largest tolerated violation, anchor)
_LP_PROPERTIES = {
    "symmetry": (0.0, "lp_definition"),
    "identity": (0.0, "lp_definition"),
    "triangle": (1e-12, "lp_definition"),
    "bounded": (0.0, "lp_bounded"),
    "shift_identity": (0.0, "lp_shift"),
    "shift_contraction": (1e-12, "lp_shift"),
    "marginal_contraction": (1e-12, "lp_marginal"),
}


def _lp_properties(cases: int = 500, seed: int = 77) -> list[VerificationRecord]:
    """Worst violation per metric property over random dyadic measures."""
    rng = np.random.default_rng(seed)
    viol = dict.fromkeys(_LP_PROPERTIES, 0.0)

    def d(x: measures.DiscreteMeasure, y: measures.DiscreteMeasure) -> float:
        return lp_metric.lp_distance(x, y).value

    def worst(name: str, v: float) -> None:
        viol[name] = max(viol[name], v)

    for i in range(cases):
        dim = int(rng.integers(1, 4))
        a = _random_measure(rng, dim, 5)
        b = _random_measure(rng, dim, 5)
        dab = d(a, b)
        worst("symmetry", abs(dab - d(b, a)))
        worst("identity", d(a, a))
        worst("bounded", dab - 1.0)
        w = rng.integers(-64, 65, size=dim) / 64.0
        worst("shift_identity", abs(d(measures.shift(a, w), b) - d(a, measures.shift(b, -w))))
        worst("shift_contraction", d(a, measures.shift(a, w)) - math.sqrt(sum(c * c for c in w.tolist())))
        if i % 3 == 0:
            c = _random_measure(rng, dim, 5)
            worst("triangle", dab - d(a, c) - d(c, b))
        if dim > 1:
            k = int(rng.integers(1, dim))
            coords = sorted(rng.choice(dim, size=k, replace=False).tolist())
            worst("marginal_contraction", d(measures.marginal(a, coords), measures.marginal(b, coords)) - dab)
    return [
        VerificationRecord(
            f"lp_properties.{name}", ANCHORS[anchor], f"violation <= {tol:g}",
            f"worst violation {viol[name]:.3e} over {cases} cases", viol[name] <= tol,
        )
        for name, (tol, anchor) in _LP_PROPERTIES.items()
    ]


def _norms() -> list[VerificationRecord]:
    records = []
    for n in (4, 10, 100, 1000):
        got = operators.pq_norm(operators.adjacency(operators.GraphSpec("star", n)), math.inf, 1)
        want = (2 * n - 2) / n
        records.append(
            VerificationRecord(
                f"norms.star_inf1.n{n}", ANCHORS["star_norm"], f"2 - 2/{n} = {want!r}", repr(got), got == want
            )
        )
    got = operators.pq_norm(operators.adjacency(operators.GraphSpec("star", 10)), math.inf, 2)
    records.append(
        VerificationRecord("norms.star_degree2.n10", ANCHORS["star_degree_norm"], "3.0 exactly", repr(got), got == 3.0)
    )
    for n in (10, 100, 1000):
        got = operators.pq_norm(operators.adjacency(operators.GraphSpec("star", n)), math.inf, 2)
        bound = (n - 1) / math.sqrt(n)
        records.append(
            VerificationRecord(
                f"norms.star_degree2_lower.n{n}", ANCHORS["star_degree_norm"],
                f">= (n-1)/sqrt(n) = {bound:.6f}", f"{got:.6f}", got >= bound,
            )
        )
    return records


def _discretization(atoms: int = 2048, n: int = 64) -> list[VerificationRecord]:
    """Grid quantization of a fine-grid stand-in for uniform([-1, 1]), then its masses
    rounded to multiples of 1/n."""
    pitch = 2.0 / atoms
    proxy = measures.empirical([(-1.0 + (j + 0.5) * pitch,) for j in range(atoms)])
    records = []
    for k in (2, 4, 8):
        cells = measures.discretize(proxy, k, box=[(-1.0, 1.0)])
        err = lp_metric.lp_distance(proxy, cells).value
        records.append(
            VerificationRecord(
                f"discretization.k{k}", ANCHORS["uniform_approx"], f"d_LP <= 1/{k} + {pitch:g}",
                f"{err:.6f}", err <= 1.0 / k + pitch,
            )
        )
        m = cells.support_size
        err = lp_metric.lp_distance(proxy, measures.discretize(proxy, k, box=[(-1.0, 1.0)], n=n)).value
        records.append(
            VerificationRecord(
                f"discretization.k{k}.n{n}", ANCHORS["uniform_approx"], f"d_LP <= 1/{k} + {pitch:g} + {m}/{n}",
                f"{err:.6f}", err <= 1.0 / k + pitch + m / n,
            )
        )
    return records


def _gplus_shift(n: int = 50, graphs: int = 50, k: int = 2, seed: int = 11) -> list[VerificationRecord]:
    """Worst d_LP(apex-augmented measure, shifted base measure) - 1/(n+1)."""
    rng = np.random.default_rng(seed)
    dev = -math.inf
    for _ in range(graphs):
        spec = operators.GraphSpec("erdos_renyi", n, p=float(rng.uniform(0.05, 0.6)), seed=int(rng.integers(1 << 31)))
        fs = rng.uniform(-1.0, 1.0, size=(k, n))
        v = rng.uniform(-1.0, 1.0, size=k)
        mu_plus = profiles.measure_of(operators.gplus(spec), np.concatenate([fs, v[:, None]], axis=1))
        mu_shift = measures.shift(profiles.measure_of(operators.adjacency(spec), fs), tuple([0.0] * k) + tuple(v))
        dev = max(dev, lp_metric.lp_distance(mu_plus, mu_shift).value - 1.0 / (n + 1))
    return [
        VerificationRecord(
            "gplus_shift", ANCHORS["gplus_shift"], "d_LP - 1/(n+1) <= 1e-12",
            f"worst excess {dev:.3e} over {graphs} graphs", dev <= 1e-12,
        )
    ]


def _self_adjoint() -> list[VerificationRecord]:
    records = []
    for n in (8, 64):
        got = operators.non_self_adjoint_witness(operators.broadcast(n, 0), 0)
        want = 1.0 - 1.0 / n
        records.append(
            VerificationRecord(
                f"self_adjoint.witness.n{n}", ANCHORS["not_self_adjoint"], f"1 - 1/{n} = {want!r}",
                repr(got), got == want,
            )
        )
    specs = [
        operators.GraphSpec("star", 9),
        operators.GraphSpec("cycle", 12),
        operators.GraphSpec("complete", 7),
        operators.GraphSpec("path", 11),
        operators.GraphSpec("erdos_renyi", 20, p=0.3, seed=5),
    ]
    defects = [operators.self_adjoint_defect(operators.adjacency(s)) for s in specs]
    records.append(
        VerificationRecord(
            "self_adjoint.adjacency_zero", ANCHORS["not_self_adjoint"], "defect 0 for adjacency matrices",
            f"defects {defects}", all(d == 0.0 for d in defects),
        )
    )
    return records


def _regularity() -> list[VerificationRecord]:
    records = []
    for n in (8, 64):
        cyc = operators.adjacency(operators.GraphSpec("cycle", n))
        for sign, want in ((1, 3.0), (-1, 1.0)):
            got = operators.c_regularity(operators.signed_limit(cyc, 0, sign))
            records.append(
                VerificationRecord(
                    f"regularity.c.n{n}.sign{sign:+d}", ANCHORS["regularity_shift"], f"{want!r} exactly",
                    repr(got), got == want,
                )
            )
        neg = operators.positivity_defect(operators.signed_limit(cyc, 0, -1))
        pos = operators.positivity_defect(operators.signed_limit(cyc, 0, 1))
        records.append(
            VerificationRecord(
                f"regularity.positivity.n{n}", ANCHORS["positivity_shift"], "defect > 0 for -, = 0 for +",
                f"minus {neg!r}, plus {pos!r}", neg > 0.0 and pos == 0.0,
            )
        )
    return records


def _norm_gap() -> list[VerificationRecord]:
    records = []
    strat = profiles.TestFunctionStrategy("mixed", count=8, seed=3)
    for n in (8, 128):
        star_norm = profiles.norm_from_profile(
            profiles.profile_sample(operators.adjacency(operators.GraphSpec("star", n)), 1, strat)
        )
        bcast_norm = profiles.norm_from_profile(profiles.profile_sample(operators.broadcast(n, 0), 1, strat))
        want = (2 * n - 2) / n
        ok = star_norm == want and bcast_norm == 1.0
        records.append(
            VerificationRecord(
                f"norm_gap.n{n}", ANCHORS["norm_discontinuity"],
                f"star readout {want!r}, broadcast readout 1.0, persistent gap",
                f"star {star_norm!r}, broadcast {bcast_norm!r}, gap {star_norm - bcast_norm!r}", ok,
            )
        )
    return records


def _adjoint_duality(cases: int = 50, seed: int = 42) -> list[VerificationRecord]:
    rng = np.random.default_rng(seed)
    ok = True
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(2, 13))
        A = operators.WeightedOperator(rng.choice([-1.0, 1.0], size=(n, n)))
        left = operators.pq_norm(A, math.inf, 1)
        right = operators.pq_norm(operators.adjoint(A), math.inf, 1)
        worst = max(worst, abs(left - right))
        ok = ok and left == right
    return [
        VerificationRecord(
            "adjoint_duality", ANCHORS["adjoint_norms"], "exact equality over random sign matrices n <= 12",
            f"max |diff| {worst:.3e} over {cases} cases", ok,
        )
    ]


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Fully determines an experiment's outputs (replay-stable).

    Operator templates may use the tokens {n} and {n1} (= n + 1) and no other
    replacement field; probe vertices may be an integer index or "last".
    """

    graph_a: str = "star:{n}"
    graph_b: str = "broadcast:{n}:0"
    sizes: tuple[int, ...] = (8, 32, 128)
    K: int = 3
    count: int = 64
    seed: int = 7
    strategy: str = "mixed"
    probe_a: Optional[str] = None
    probe_b: Optional[str] = None
    out: str = "experiment_out"

    def __post_init__(self):
        if not self.sizes:
            raise ValueError("config key 'sizes' is empty: an experiment needs at least one size")
        repeat = next((n for i, n in enumerate(self.sizes) if n in self.sizes[:i]), None)
        if repeat is not None:
            raise ValueError(f"config key 'sizes' repeats size {repeat}: each size writes one report")
        for key in ("graph_a", "graph_b"):
            template = getattr(self, key)
            try:  # a format spec or conversion ({n:x}, {n!r}) would format and build the wrong operator
                ok = all(name is None or (name in ("n", "n1") and not spec and conversion is None)
                         for _, name, spec, conversion in string.Formatter().parse(template))
            except ValueError:  # an unmatched brace
                ok = False
            if not ok:
                raise ValueError(f"config key {key!r} may use only the tokens {{n}} and {{n1}}, got {template!r}")

    @classmethod
    def from_file(cls, path: str | Path, overrides: Optional[dict] = None) -> "ExperimentConfig":
        """Flat key=value config file; CLI overrides win."""
        kv: dict = {}
        for raw in Path(path).read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            kv[key.strip()] = value.strip()
        kv.update(overrides or {})
        return cls.from_mapping(kv)

    @classmethod
    def from_mapping(cls, kv: dict) -> "ExperimentConfig":
        return cls(**{key: cls.parse_value(key, value) for key, value in kv.items()})

    @classmethod
    def parse_value(cls, key: str, value):
        """One config value as its field holds it: sizes, K, count and seed are integers.

        A string (a config file's or a `--set` value) is parsed, sizes as a list
        split on commas and spaces.  Any other value, such as JSON's (a
        manifest's `config` replays), is read by `measures.int_value`: K, count
        and seed, each entry of a sizes list or tuple, and a sizes that is one
        integer; so a float or a bool is refused by its key, not truncated.
        """
        if key not in {f.name for f in fields(cls)}:
            raise ValueError(f"unknown config key {key!r}")
        if key not in ("sizes", "K", "count", "seed"):
            return value
        if isinstance(value, str):
            try:
                return tuple(int(x) for x in value.replace(",", " ").split()) if key == "sizes" else int(value)
            except ValueError:
                raise ValueError(f"config key {key!r} needs integers, got {value!r}") from None
        if key != "sizes":
            return measures.int_value(value, f"config key {key!r}")
        if not isinstance(value, (list, tuple)):
            return (measures.int_value(value, "config key 'sizes'"),)
        return tuple(measures.int_value(x, f"config key 'sizes' entry {i}") for i, x in enumerate(value))

    def to_dict(self) -> dict:
        return dict(asdict(self), sizes=list(self.sizes))


def _strategy_for(
    cfg: ExperimentConfig, op: operators.WeightedOperator, probe: str | int | None
) -> profiles.TestFunctionStrategy:
    """Test functions for one operator: vertex_probe at `probe` ("last" or None: the last vertex) when a
    probe is given or the strategy is vertex_probe, otherwise `cfg.strategy`.  A string probe is
    parsed; any other is read by `measures.int_value`, so a float or a bool is refused."""
    if cfg.strategy == "vertex_probe" or probe is not None:
        if probe in (None, "last"):
            vertex = op.n - 1
        elif not isinstance(probe, str):
            vertex = measures.int_value(probe, "probe")
        else:
            try:
                vertex = int(probe)
            except ValueError:
                raise ValueError(f"probe {probe!r} must be a vertex index or 'last'") from None
        return profiles.TestFunctionStrategy("vertex_probe", count=cfg.count, seed=cfg.seed, probe_vertex=vertex)
    return profiles.TestFunctionStrategy(cfg.strategy, count=cfg.count, seed=cfg.seed)


def _run_size(cfg: ExperimentConfig, n: int) -> tuple[profiles.DistanceReport, float, float]:
    """One size of an experiment: its distance report and the two operators' norm readouts."""
    op_a = parse_operator_spec(cfg.graph_a.format(n=n, n1=n + 1))
    op_b = parse_operator_spec(cfg.graph_b.format(n=n, n1=n + 1))
    strat_a = _strategy_for(cfg, op_a, cfg.probe_a)
    strat_b = _strategy_for(cfg, op_b, cfg.probe_b)
    report = profiles.action_distance_estimate(op_a, op_b, cfg.K, strat_a, strat_b)
    norm_a, norm_b = (profiles.norm_from_profile(P) for P in report.profiles_1)
    return report, norm_a, norm_b


def run_experiment(cfg: ExperimentConfig) -> Path:
    """Write manifest, per-size distance reports, and a trajectory CSV; every size is computed
    before the output directory is made, so an experiment that fails writes nothing."""
    results = [(n, *_run_size(cfg, n)) for n in cfg.sizes]
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for n, report, _, _ in results:
        (outdir / f"report_n{n}.json").write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    manifest = {"config": cfg.to_dict(), "files": [f"report_n{n}.json" for n in cfg.sizes] + ["trajectory.csv"]}
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    csv_lines = ["n,action_distance,norm_a,norm_b"]
    csv_lines += [f"{n},{report.value!r},{na!r},{nb!r}" for n, report, na, nb in results]
    (outdir / "trajectory.csv").write_text("\n".join(csv_lines) + "\n")
    return outdir


# ---------------------------------------------------------------------------
# criteria 06 and 07: two experiments, checked as claims
# ---------------------------------------------------------------------------

# the defaults are the star experiment
STAR = ExperimentConfig()
APEX = ExperimentConfig(
    graph_a="gplus:cycle:{n}", graph_b="signed:+1:0:cycle:{n1}", strategy="vertex_probe", probe_a="last", probe_b="0"
)


def _convergence(cfg: ExperimentConfig, check_id: str, anchor: str, halves: bool = False) -> list[VerificationRecord]:
    """The experiment's estimates are nonincreasing in n; with `halves`, the last is at most half the first."""
    vals = [_run_size(cfg, n)[0].value for n in cfg.sizes]
    ok = all(b <= a for a, b in zip(vals, vals[1:]))
    expected = f"estimate nonincreasing over n in ({','.join(map(str, cfg.sizes))})"
    if halves:
        ok = ok and vals[-1] <= vals[0] / 2
        expected += " and final <= first/2"
    measured = "trajectory " + ", ".join(f"{v:.5f}" for v in vals)
    return [VerificationRecord(check_id, ANCHORS[anchor], expected, measured, ok)]


# ---------------------------------------------------------------------------
# claim registry, read by `actionlim verify` and the acceptance gate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    """One paper claim: its acceptance criterion, its verify suite, its checks."""

    number: int  # acceptance criterion number
    name: str  # acceptance criterion name
    suite: str  # `actionlim verify --suite` name
    run: Callable[[], list[VerificationRecord]]


CLAIMS: tuple[Claim, ...] = (
    Claim(1, "lp-oracle-equivalence", "lp_oracle", _lp_oracle),
    Claim(2, "lp-metric-properties", "lp_properties", _lp_properties),
    Claim(3, "star-norms-exact", "norms", _norms),
    Claim(4, "discretization-bound", "discretization", _discretization),
    Claim(5, "apex-shift-bound", "gplus_shift", _gplus_shift),
    Claim(6, "star-convergence", "star_convergence",
          partial(_convergence, STAR, "star_convergence", "star_limit", halves=True)),
    Claim(7, "apex-limit-convergence", "gplus_limit", partial(_convergence, APEX, "gplus_limit", "gplus_limit")),
    Claim(8, "non-self-adjointness", "self_adjoint", _self_adjoint),
    Claim(9, "regularity-shift", "regularity", _regularity),
    Claim(10, "norm-discontinuity", "norm_gap", _norm_gap),
    Claim(11, "adjoint-norm-duality", "adjoint_duality", _adjoint_duality),
)


def run_verify(suite: str = "all") -> list[VerificationRecord]:
    """Run one claim's suite, or all of them; returns records sorted by id."""
    claims = [c for c in CLAIMS if suite in ("all", c.suite)]
    if not claims:
        raise ValueError(f"unknown suite {suite!r}; known: {', '.join(c.suite for c in CLAIMS)} or 'all'")
    return sorted((r for c in claims for r in c.run()), key=lambda r: r.id)
