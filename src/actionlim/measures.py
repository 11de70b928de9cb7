"""Finitely supported probability measures on R^d.

Weights are exact rationals so that mass comparisons in the metric engine
are exact; atom coordinates are floats.  All values are immutable after
construction and every operation returns a fresh measure.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DiscreteMeasure",
    "ShiftVector",
    "empirical",
    "shift",
    "marginal",
    "mean_abs",
    "product_with_dirac",
    "discretize",
]


def _as_weight(w) -> Fraction:
    """Convert a weight to an exact Fraction.

    Floats are converted exactly (binary value), so dyadic weights like 0.25
    round-trip; strings use the "num/den" form.
    """
    if isinstance(w, Rational):
        f = Fraction(w)
    elif isinstance(w, float):
        f = Fraction(w)
    elif isinstance(w, str):
        f = Fraction(w)
    else:
        raise TypeError(f"unsupported weight type {type(w).__name__}")
    if f < 0:
        raise ValueError(f"negative weight {f}")
    return f


@dataclass(frozen=True)
class DiscreteMeasure:
    """A discrete probability measure: atoms with exact rational weights.

    Atoms with identical coordinates are merged on construction and zero
    weights dropped; atoms are kept sorted so equal measures compare equal.
    Non-finite coordinates are rejected, since NaN atoms would never merge.
    """

    dim: int
    atoms: tuple[tuple[tuple[float, ...], Fraction], ...]

    def __init__(self, dim: int, atoms: Iterable[tuple[Sequence[float], object]]):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        merged: dict[tuple[float, ...], Fraction] = {}
        for point, w in atoms:
            p = tuple(float(c) for c in point)
            if len(p) != dim:
                raise ValueError(f"point {p} has {len(p)} coordinates, expected {dim}")
            merged[p] = merged.get(p, Fraction(0)) + _as_weight(w)
        if not np.isfinite(np.fromiter(itertools.chain.from_iterable(merged), dtype=float)).all():
            raise ValueError("atom coordinates must be finite")
        cleaned = tuple(sorted((p, w) for p, w in merged.items() if w != 0))
        total = sum((w for _, w in cleaned), Fraction(0))
        if total != 1:
            raise ValueError(f"weights sum to {total}, expected exactly 1")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "atoms", cleaned)

    @property
    def support_size(self) -> int:
        return len(self.atoms)

    def points(self) -> np.ndarray:
        """Support as a (m, dim) float array."""
        return np.array([p for p, _ in self.atoms], dtype=float).reshape(-1, self.dim)

    def weights(self) -> tuple[Fraction, ...]:
        return tuple(w for _, w in self.atoms)

    def mass(self, point: Sequence[float]) -> Fraction:
        p = tuple(float(c) for c in point)
        for q, w in self.atoms:
            if q == p:
                return w
        return Fraction(0)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "atoms": [{"p": list(p), "w": f"{w.numerator}/{w.denominator}"} for p, w in self.atoms],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "DiscreteMeasure":
        return cls(int(d["dim"]), [(a["p"], a["w"]) for a in d["atoms"]])

    @classmethod
    def from_json(cls, s: str) -> "DiscreteMeasure":
        return cls.from_dict(json.loads(s))


@dataclass(frozen=True)
class ShiftVector:
    """Translation vector for the measure shift operation."""

    dim: int
    components: tuple[float, ...]

    def __init__(self, components: Sequence[float]):
        comps = tuple(float(c) for c in components)
        if len(comps) < 1:
            raise ValueError("shift vector must have at least one component")
        object.__setattr__(self, "dim", len(comps))
        object.__setattr__(self, "components", comps)

    def __neg__(self) -> "ShiftVector":
        return ShiftVector(tuple(-c for c in self.components))

    def norm(self) -> float:
        return math.sqrt(sum(c * c for c in self.components))


def _coerce_shift(v, dim: int) -> ShiftVector:
    sv = v if isinstance(v, ShiftVector) else ShiftVector(v)
    if sv.dim != dim:
        raise ValueError(f"shift vector has dim {sv.dim}, measure has dim {dim}")
    return sv


def empirical(points: Sequence[Sequence[float]], weights: Sequence | None = None) -> DiscreteMeasure:
    """Empirical measure (1/n) sum of Diracs, or with explicit weights."""
    pts = [tuple(float(c) for c in p) for p in points]
    if not pts:
        raise ValueError("empty point list")
    dim = len(pts[0])
    if weights is None:
        n = len(pts)
        ws: list = [Fraction(1, n)] * n
    else:
        if len(weights) != len(pts):
            raise ValueError(f"{len(weights)} weights for {len(pts)} points")
        ws = list(weights)
    return DiscreteMeasure(dim, zip(pts, ws))


def shift(mu: DiscreteMeasure, v) -> DiscreteMeasure:
    """Translate every atom of mu by v; weights unchanged."""
    sv = _coerce_shift(v, mu.dim)
    return DiscreteMeasure(
        mu.dim,
        [(tuple(c + d for c, d in zip(p, sv.components)), w) for p, w in mu.atoms],
    )


def marginal(mu: DiscreteMeasure, coords: Sequence[int]) -> DiscreteMeasure:
    """Project mu onto the given coordinate subset (atoms re-merged)."""
    cs = list(coords)
    if not cs:
        raise ValueError("empty coordinate subset")
    for c in cs:
        if not 0 <= c < mu.dim:
            raise ValueError(f"coordinate {c} out of range for dim {mu.dim}")
    return DiscreteMeasure(len(cs), [(tuple(p[c] for c in cs), w) for p, w in mu.atoms])


def mean_abs(mu: DiscreteMeasure, coord: int) -> float:
    """Exact weighted mean of |x_coord|, returned as the nearest float."""
    if not 0 <= coord < mu.dim:
        raise ValueError(f"coordinate {coord} out of range for dim {mu.dim}")
    total = sum((w * abs(Fraction(p[coord])) for p, w in mu.atoms), Fraction(0))
    return float(total)


def product_with_dirac(nu: DiscreteMeasure, z: Sequence[float]) -> DiscreteMeasure:
    """Product measure nu x delta_z on R^{2k}: each atom (x, w) becomes ((x, z), w)."""
    zz = tuple(float(c) for c in z)
    if len(zz) != nu.dim:
        raise ValueError(f"z has {len(zz)} coordinates, nu has dim {nu.dim}")
    return DiscreteMeasure(2 * nu.dim, [(p + zz, w) for p, w in nu.atoms])


def discretize(
    mu: DiscreteMeasure,
    k: int,
    box: Sequence[tuple[float, float]] | None = None,
    n: int | None = None,
) -> DiscreteMeasure:
    """Quantize mu onto grid-cell centers of an axis-aligned grid.

    The grid covers `box` (per-dimension (lo, hi); default the atom hull)
    with cell diameter <= 1/k, so the output is within Levy-Prokhorov
    distance 1/k of mu.  With `n` given, a second stage rounds the cell
    masses to multiples of 1/n (cells with larger fractional part receive
    the extra unit first), at additional distance < m/n for m cells.
    """
    if k < 1:
        raise ValueError("resolution k must be >= 1")
    d = mu.dim
    pts = mu.points()
    if box is None:
        box = [(float(pts[:, j].min()), float(pts[:, j].max())) for j in range(d)]
    box = [(float(lo), float(hi)) for lo, hi in box]
    if len(box) != d:
        raise ValueError(f"box has {len(box)} dimensions, measure has {d}")
    for p, _ in mu.atoms:
        for c, (lo, hi) in zip(p, box):
            if not lo <= c <= hi:
                raise ValueError(f"atom coordinate {c} outside box [{lo}, {hi}]")

    # cell side <= 1/(k*sqrt(d)) forces cell diameter <= 1/k
    counts = []
    pitches = []
    for lo, hi in box:
        span = hi - lo
        cnt = max(1, math.ceil(span * k * math.sqrt(d))) if span > 0 else 1
        counts.append(cnt)
        pitches.append(span / cnt if span > 0 else 0.0)

    cells: dict[tuple[int, ...], Fraction] = {}
    for p, w in mu.atoms:
        idx = []
        for c, (lo, _), cnt, pitch in zip(p, box, counts, pitches):
            i = 0 if pitch == 0.0 else min(cnt - 1, int((c - lo) / pitch))
            idx.append(i)
        key = tuple(idx)
        cells[key] = cells.get(key, Fraction(0)) + w

    def center(idx: tuple[int, ...]) -> tuple[float, ...]:
        return tuple(
            lo + (i + 0.5) * pitch if pitch > 0 else lo
            for i, (lo, _), pitch in zip(idx, box, pitches)
        )

    keys = sorted(cells)
    masses = [cells[key] for key in keys]

    if n is not None:
        if n < 1:
            raise ValueError("stage-2 sample count n must be >= 1")
        scaled = [m * n for m in masses]
        floors = [int(s) for s in scaled]
        leftover = n - sum(floors)
        # hand the leftover units to cells by decreasing fractional part
        order = sorted(range(len(keys)), key=lambda i: (-(scaled[i] - floors[i]), i))
        for i in order[:leftover]:
            floors[i] += 1
        masses = [Fraction(f, n) for f in floors]

    return DiscreteMeasure(d, [(center(key), m) for key, m in zip(keys, masses) if m != 0])
