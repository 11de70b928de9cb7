"""Finitely supported probability measures on R^d.

A measure is a sorted float point array with integer masses over one
denominator, so weights are exact rationals and the metric engine compares
masses in integers.  All values are immutable after construction and every
operation returns a fresh measure.
"""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DiscreteMeasure",
    "integer_masses",
    "weight_ratios",
    "empirical",
    "shift",
    "marginal",
    "mean_abs",
    "discretize",
]


def weight_ratios(weights: Iterable) -> list[tuple[int, int]]:
    """Each weight as (numerator, denominator) in lowest terms, both Python ints.

    Each weight is taken through Fraction (ints, floats at their exact binary
    value, Fractions, "num/den" strings).  A numpy integer keeps its fixed
    width inside a Fraction, so the exact sums built from it could wrap;
    operator.index turns each part into a Python int.  Non-finite weights
    (a JSON 1e400 reads as inf) are refused with their index.
    """
    ratios = []
    for i, w in enumerate(weights):
        try:
            f = w if isinstance(w, Fraction) else Fraction(w)  # Fraction(w) would copy a Fraction
        except (OverflowError, ValueError):  # Fraction(inf) overflows, Fraction(nan) is a ValueError
            raise ValueError(f"weight {i} is {w!r}: weights must be finite numbers") from None
        ratios.append((operator.index(f.numerator), operator.index(f.denominator)))
    return ratios


def integer_masses(weights: Iterable) -> tuple[list[int], int]:
    """Probability weights as integer masses over one denominator.

    Each weight is read by `weight_ratios`.  Returns (masses, denom) with
    weight i = masses[i] / denom, where the masses are nonnegative Python
    ints with gcd 1.  Non-finite weights, negative weights and weights not
    summing to exactly 1 are refused.
    """
    ratios = weight_ratios(weights)
    for n, d in ratios:
        if n < 0:
            raise ValueError(f"negative weight {Fraction(n, d)}: weights must be positive or zero")
    denom = math.lcm(*(d for _, d in ratios))
    masses = [n * (denom // d) for n, d in ratios]
    if sum(masses) != denom:
        raise ValueError(f"weights sum to {Fraction(sum(masses), denom)}, expected exactly 1")
    g = math.gcd(*masses)
    return [m // g for m in masses], denom // g


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """A discrete probability measure: distinct points with exact rational weights.

    Row i of `support` carries weight masses[i] / denom, where the masses are
    positive integers with gcd 1 and denom is their sum.  The constructor takes
    either (point, weight) atoms, whose weights it turns into integer masses
    by `integer_masses`, or a points array with nonnegative integer masses
    summing to denom.  Both then take one canonicalisation path: it merges
    equal points, drops zero masses and sorts the rows lexicographically
    (-0.0 stored as 0.0), so equal measures have equal fields.  The merge is
    one exact pass over index arrays: one lexsort of every row, then one
    `np.add.reduceat` over the masses held as Python ints, so no mass
    overflows at any size; a point whose merged mass is 0 is dropped after.
    Non-finite coordinates are rejected, since NaN atoms would never merge.
    """

    dim: int
    support: np.ndarray  # read-only float64 (m, dim)
    masses: tuple[int, ...]
    denom: int

    def __init__(
        self,
        dim: int,
        atoms: Iterable[tuple[Sequence[float], object]] | None = None,
        *,
        points=None,
        masses: Sequence[int] | None = None,
        denom: int | None = None,
    ):
        try:  # stored as a Python int, so a numpy integer dim writes as JSON
            if isinstance(dim, bool):  # operator.index(True) is 1, but JSON true is no dim
                raise TypeError
            dim = operator.index(dim)
        except TypeError:  # JSON 1.5 and 1e400 read as floats
            raise ValueError(f"dim must be an integer, got {dim!r}") from None
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if (points is not None, masses is not None, denom is not None) != (atoms is None,) * 3:
            raise TypeError("give either atoms or points, masses and denom")
        if atoms is not None:
            atoms = list(atoms)
            points = [p for p, _ in atoms] or np.empty((0, dim))
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != dim:
            raise ValueError(f"points must have {dim} coordinates, got an array of shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("atom coordinates must be finite")
        if atoms is not None:
            masses, denom = integer_masses([w for _, w in atoms])
        else:
            masses = list(map(operator.index, masses))
            if len(masses) != len(pts):
                raise ValueError(f"{len(masses)} masses for {len(pts)} points")
            if min(masses, default=0) < 0 or sum(masses) != denom or denom < 1:
                raise ValueError(f"masses must be nonnegative and sum to denom {denom} >= 1")
        mass = np.array(masses, dtype=object)  # Python ints, exact at any size
        # lexicographic; a column-major points array (as measure_of passes) gives contiguous keys
        order = np.lexsort(pts.T[::-1])
        pts = pts[order] + 0.0  # + 0.0 turns -0.0 into 0.0
        first = np.ones(len(order), dtype=bool)
        first[1:] = (pts[1:] != pts[:-1]).any(axis=1)  # rows that start a run of equal points
        merged = np.add.reduceat(mass[order], np.flatnonzero(first)).tolist()
        pts = pts[first]
        if 0 in merged:  # points that carry no mass
            pts = pts[[m != 0 for m in merged]]
            merged = [m for m in merged if m]
        g = math.gcd(*merged)
        pts.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "support", pts)
        # a list, not a generator: tuple() resizes as a generator yields, and with a
        # generator here perfbench star read 1.6 MB more peak RSS
        object.__setattr__(self, "masses", tuple([m // g for m in merged]))
        object.__setattr__(self, "denom", denom // g)

    def __eq__(self, other):
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return self.masses == other.masses and np.array_equal(self.support, other.support)

    def __hash__(self):
        return hash((self.masses, self.support.shape, self.support.tobytes()))

    @property
    def support_size(self) -> int:
        return len(self.masses)

    def points(self) -> np.ndarray:
        """Support as a read-only (m, dim) float array."""
        return self.support

    def weights(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(m, self.denom) for m in self.masses)

    def mass(self, point: Sequence[float]) -> Fraction:
        p = np.asarray(point, dtype=float)
        if p.shape != (self.dim,):
            raise ValueError(f"point of shape {p.shape} for a measure of dim {self.dim}")
        hit = np.flatnonzero((self.support == p).all(axis=1))
        return Fraction(self.masses[hit[0]], self.denom) if len(hit) else Fraction(0)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "atoms": [
                {"p": p, "w": f"{w.numerator}/{w.denominator}"}
                for p, w in zip(self.support.tolist(), self.weights())
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "DiscreteMeasure":
        return cls(d["dim"], [(a["p"], a["w"]) for a in d["atoms"]])

    @classmethod
    def from_json(cls, s: str) -> "DiscreteMeasure":
        return cls.from_dict(json.loads(s))


def empirical(points: Sequence[Sequence[float]]) -> DiscreteMeasure:
    """Empirical measure (1/n) sum of Diracs; DiscreteMeasure(dim, atoms) takes weights."""
    pts = [tuple(float(c) for c in p) for p in points]
    if not pts:
        raise ValueError("empty point list")
    return DiscreteMeasure(len(pts[0]), points=pts, masses=[1] * len(pts), denom=len(pts))


def shift(mu: DiscreteMeasure, v: Sequence[float]) -> DiscreteMeasure:
    """Translate every atom of mu by the vector v of mu.dim floats; weights unchanged."""
    w = np.asarray(v, dtype=float)
    if w.shape != (mu.dim,):
        raise ValueError(f"shift vector of shape {w.shape} for a measure of dim {mu.dim}")
    return DiscreteMeasure(mu.dim, points=mu.points() + w, masses=mu.masses, denom=mu.denom)


def marginal(mu: DiscreteMeasure, coords: Sequence[int]) -> DiscreteMeasure:
    """Project mu onto the given coordinate subset (atoms re-merged)."""
    cs = list(coords)
    if not cs:
        raise ValueError("empty coordinate subset")
    for c in cs:
        if not 0 <= c < mu.dim:
            raise ValueError(f"coordinate {c} out of range for dim {mu.dim}")
    return DiscreteMeasure(len(cs), points=mu.points()[:, cs], masses=mu.masses, denom=mu.denom)


def mean_abs(mu: DiscreteMeasure, coord: int) -> float:
    """Exact weighted mean of |x_coord|, returned as the nearest float."""
    if not 0 <= coord < mu.dim:
        raise ValueError(f"coordinate {coord} out of range for dim {mu.dim}")
    # each |x| is n / d with d a power of two, so the largest d is a common denominator
    ratios = [abs(x).as_integer_ratio() for x in mu.points()[:, coord].tolist()]
    den = max(d for _, d in ratios)
    total = sum(m * n * (den // d) for m, (n, d) in zip(mu.masses, ratios))
    return float(Fraction(total, den * mu.denom))


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
    if n is not None and n < 1:
        raise ValueError("stage-2 sample count n must be >= 1")
    d = mu.dim
    pts = mu.points()
    if box is None:
        box = [(float(pts[:, j].min()), float(pts[:, j].max())) for j in range(d)]
    box = [(float(lo), float(hi)) for lo, hi in box]
    if len(box) != d:
        raise ValueError(f"box has {len(box)} dimensions, measure has {d}")
    lo, hi = np.array(box).T
    outside = np.argwhere((pts < lo) | (pts > hi))
    if len(outside):
        i, j = outside[0]
        raise ValueError(f"atom coordinate {pts[i, j]} outside box [{lo[j]}, {hi[j]}]")

    # cell side <= 1/(k*sqrt(d)) forces cell diameter <= 1/k
    span = hi - lo
    counts = np.array([max(1, math.ceil(s * k * math.sqrt(d))) for s in span.tolist()])
    pitch = span / counts
    cell = np.minimum(counts - 1, ((pts - lo) / np.where(pitch > 0, pitch, 1.0)).astype(int))
    # the constructor merges the atoms that fall into one cell
    cells = DiscreteMeasure(d, points=lo + (cell + 0.5) * pitch, masses=mu.masses, denom=mu.denom)
    if n is None:
        return cells

    # units of mass * n / denom: hand the leftover units to cells by decreasing remainder
    floors, rems = zip(*(divmod(m * n, cells.denom) for m in cells.masses))
    floors = list(floors)
    order = sorted(range(len(floors)), key=lambda i: (-rems[i], i))
    for i in order[: n - sum(floors)]:
        floors[i] += 1
    return DiscreteMeasure(d, points=cells.points(), masses=floors, denom=n)
