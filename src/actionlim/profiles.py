"""Sampling k-profiles of finite operators and estimating the action metric.

A k-profile element is the joint distribution of (f_1..f_k, Af_1..Af_k)
over the coordinates, for test vectors f_i with entries in [-1, 1].  The
action metric estimate truncates the 2^-k series at K and reports the tail
bound separately.  All sampling is deterministic given the seed: per-tuple
generators are derived by hashing (seed, k, index, n), so neither the
evaluation order nor the operator identity affects the draws.
"""
from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .lp_metric import hausdorff
from .measures import DiscreteMeasure, float_rows, float_vector, int_value, mean_abs
from .operators import WeightedOperator

__all__ = [
    "TestFunctionStrategy",
    "ProfileSample",
    "DistanceReport",
    "measure_of",
    "profile_sample",
    "action_distance_estimate",
    "norm_from_profile",
]

STRATEGY_KINDS = (
    "mixed",
    "iid_uniform",
    "rademacher",
    "block_step",
    "indicator",
    "vertex_probe",
)

# values a vertex_probe tuple puts on its probe vertex, in turn
PROBE_VALUES = tuple(float(v) for v in np.linspace(-1.0, 1.0, 9))


def _derived_rng(seed: int, k: int, index: int, n: int, tag: bytes = b"") -> np.random.Generator:
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<qqqq", seed, k, index, n))
    h.update(tag)
    return np.random.default_rng(int.from_bytes(h.digest(), "little"))


@dataclass(frozen=True)
class TestFunctionStrategy:
    """Deterministic generator of k-tuples of test vectors in [-1, 1]^n.

    count, seed and probe_vertex are read by `int_value` and stored as Python ints, so
    a bool or a float is refused by name, and a numpy integer draws and fingerprints
    as the equal Python int does.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    kind: str = "mixed"
    count: int = 64
    seed: int = 0
    probe_vertex: Optional[int] = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}; choose from {STRATEGY_KINDS}")
        object.__setattr__(self, "count", int_value(self.count, "count"))
        object.__setattr__(self, "seed", int_value(self.seed, "seed"))
        if self.probe_vertex is not None:
            object.__setattr__(self, "probe_vertex", int_value(self.probe_vertex, "probe_vertex"))
        if self.count < 0:
            raise ValueError("count must be >= 0")
        if not -(2**63) <= self.seed < 2**63:
            raise ValueError(f"seed {self.seed} is outside the signed 64-bit range")
        if self.kind == "vertex_probe" and self.probe_vertex is None:
            raise ValueError("vertex_probe requires probe_vertex")

    def fingerprint(self) -> str:
        s = f"{self.kind}:{self.count}:{self.seed}"
        if self.kind == "vertex_probe":
            s += f":v{self.probe_vertex}:g{len(PROBE_VALUES)}"
        return s

    def _draw(self, kind: str, rng: np.random.Generator, n: int, k: int) -> np.ndarray:
        if kind == "iid_uniform":
            return rng.uniform(-1.0, 1.0, size=(k, n))
        if kind == "rademacher":
            return rng.choice([-1.0, 1.0], size=(k, n))
        if kind == "block_step":
            out = np.empty((k, n))
            for row in range(k):
                blocks = int(rng.integers(1, min(8, n) + 1))
                cuts = np.sort(rng.choice(np.arange(1, n), size=blocks - 1, replace=False)) if blocks > 1 else np.array([], dtype=int)
                values = rng.uniform(-1.0, 1.0, size=blocks)
                out[row] = np.repeat(values, np.diff(np.concatenate(([0], cuts, [n]))))
            return out
        if kind == "indicator":
            density = rng.uniform(0.0, 1.0)
            return (rng.random(size=(k, n)) < density).astype(float)
        raise AssertionError(kind)

    # The memo holds the last draw, keyed by value: two equal strategies sampling
    # two operators of the same size at the same k share one draw.
    @functools.lru_cache(maxsize=1)
    def tuples(self, n: int, k: int) -> tuple[np.ndarray, ...]:
        """Deterministic tuples (ones, zeros) followed by `count` drawn tuples, read-only."""
        if self.kind == "vertex_probe" and not 0 <= (self.probe_vertex or 0) < n:
            raise ValueError(f"probe vertex {self.probe_vertex} out of range for n={n}")
        out = [np.ones((k, n)), np.zeros((k, n))]
        if self.kind == "vertex_probe":
            # each base is drawn once and carries every probe value in turn
            g = len(PROBE_VALUES)
            for b in range(-(-self.count // g)):
                base = self._draw("iid_uniform", _derived_rng(self.seed, k, b, n, b"base"), n, k)
                for value in PROBE_VALUES[: self.count - b * g]:
                    fs = base.copy()
                    fs[:, self.probe_vertex] = value
                    out.append(fs)
        else:
            mixed_cycle = ("iid_uniform", "rademacher", "block_step", "indicator")
            for i in range(self.count):
                kind = mixed_cycle[i % 4] if self.kind == "mixed" else self.kind
                out.append(self._draw(kind, _derived_rng(self.seed, k, i, n), n, k))
        for fs in out:
            fs.setflags(write=False)
        return tuple(out)


@dataclass(frozen=True)
class ProfileSample:
    k: int
    measures: tuple[DiscreteMeasure, ...]
    operator_id: str

    def __post_init__(self):
        for m in self.measures:
            if m.dim != 2 * self.k:
                raise ValueError(f"measure has dim {m.dim}, expected {2 * self.k}")


@dataclass(frozen=True)
class DistanceReport:
    value: float
    per_k: tuple[tuple[int, float], ...]
    truncation_k: int
    tail_bound: float
    strategy_fingerprint: str
    # the two operators' sampled 1-profiles, kept for norm readouts; not serialized
    profiles_1: tuple[ProfileSample, ProfileSample] = field(repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "per_k": [[k, v] for k, v in self.per_k],
            "truncation_k": self.truncation_k,
            "tail_bound": self.tail_bound,
            "strategy": self.strategy_fingerprint,
        }


def measure_of(A: WeightedOperator, fs: Sequence[Sequence[float]]) -> DiscreteMeasure:
    """Joint distribution of (f_1..f_k, Af_1..Af_k) over weighted coordinates.

    fs is a (k, n) array or k rows, or one vector as k = 1; an entry that is no number
    is refused with its index by `float_rows` (a float64 array is taken as it is).  The
    measure gets the operator's masses as one cached int64 array
    (`WeightedOperator._mass_array`), which `DiscreteMeasure` checks in two reductions.
    """
    where, what = "test vector {} entry {}", "test vector entries"
    F = float_rows(fs, where, what)
    if F.ndim == 1:  # one vector: read again as one row, so that its entries are checked
        F = float_vector(fs, where, what)[None, :]
    if F.ndim != 2:
        raise ValueError(f"test vectors must form a vector or a (k, n) array, got an array of shape {F.shape}")
    k, n = F.shape
    if n != A.n:
        raise ValueError(f"test vectors have length {n}, operator has n={A.n}")
    if not (np.abs(F) <= 1).all():  # NaN fails the comparison too
        raise ValueError("test vector entries must lie in [-1, 1]")
    Y = F @ A.matrix.T  # row i: A f_i evaluated at each coordinate
    # atom j: the point (F[:, j], Y[:, j]) with the mass of coordinate j
    return DiscreteMeasure(2 * k, points=np.concatenate((F, Y)).T, masses=A._mass_array, denom=A.denom)


def profile_sample(A: WeightedOperator, k: int, strategy: TestFunctionStrategy) -> ProfileSample:
    """The k-profile measures of A, one per tuple of the strategy; k is read by `int_value`."""
    k = int_value(k, "k")
    if k < 1:
        raise ValueError("k must be >= 1")
    measures = tuple(measure_of(A, fs) for fs in strategy.tuples(A.n, k))
    return ProfileSample(k, measures, A.name or f"operator:{A.n}")


def action_distance_estimate(
    A: WeightedOperator,
    B: WeightedOperator,
    K: int,
    strategy: TestFunctionStrategy,
    strategy_b: Optional[TestFunctionStrategy] = None,
) -> DistanceReport:
    """Truncated action-metric estimate: sum over k <= K of d_H / 2^k.

    `strategy_b` lets the two operators use differently targeted probes
    (e.g. one probing an apex vertex, the other a distinguished coordinate)
    while sharing seeds and hence base tuples.  The report's fingerprint
    names both strategies, `a|b`, even when they are the same.  K is read by `int_value`.
    """
    K = int_value(K, "K")
    if K < 1:
        raise ValueError("truncation K must be >= 1")
    sb = strategy_b or strategy
    per_k = []
    total = 0.0
    for k in range(1, K + 1):
        P, Q = profile_sample(A, k, strategy), profile_sample(B, k, sb)
        if k == 1:
            profiles_1 = (P, Q)
        h = hausdorff(P.measures, Q.measures).value
        per_k.append((k, h))
        total += h / 2.0**k
    fp = f"{strategy.fingerprint()}|{sb.fingerprint()}"
    return DistanceReport(total, tuple(per_k), K, 2.0**-K, fp, profiles_1)


def norm_from_profile(P: ProfileSample) -> float:
    """Largest mean |y| over sampled 1-profile measures.

    A lower bound on the (inf,1)-norm; attains it for nonnegative operators
    whenever the all-ones tuple is included in the sample.
    """
    if P.k != 1:
        raise ValueError("norm readout requires a 1-profile sample")
    return max(mean_abs(m, 1) for m in P.measures)
