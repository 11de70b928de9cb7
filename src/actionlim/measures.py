"""Finitely supported probability measures on R^d.

A measure is a sorted float point array with integer masses over one
denominator, so weights are exact rationals and the metric engine compares
masses in integers.  All values are immutable after construction and every
operation returns a fresh measure.
"""
from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DiscreteMeasure",
    "dyadic",
    "int_value",
    "real_value",
    "integer_masses",
    "weight_masses",
    "weight_ratios",
    "empirical",
    "shift",
    "marginal",
    "mean_abs",
    "discretize",
]


def int_value(value, what: str) -> int:
    """value as a Python int: the one reader of a caller's integer.

    A Python or numpy integer of any width is taken at its value, through
    operator.index, so a numpy one neither wraps in later sums nor writes
    as a JSON non-number.  A bool or numpy bool (JSON true), and anything
    operator.index refuses (a float such as JSON 1.5 or 1e400, a string,
    None, a Fraction), is refused with a ValueError that names it by what.
    """
    if not isinstance(value, (bool, np.bool_)):  # operator.index(True) is 1
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def real_value(value, what: str):
    """value, a numpy float as the Python number it equals, when it is a real number: the one reader of a caller's real.

    Python and numpy ints, Python floats and Fractions are real numbers, and
    are returned unchanged, so an exact Fraction threshold stays exact and an
    int keeps its label.  A numpy float is returned as the Python number it
    equals, since under NumPy 2 a Python float that meets a float32 or float16
    scalar is computed in that width: a float16, float32 or float64 as
    float(value), which is exact; a finite wider float (np.longdouble) as the
    Fraction of its integer ratio; a NaN or an infinity as a float, for the
    callers' refusals.  A bool or numpy bool (JSON true) and a non-number (a
    string such as "0.5", None) are refused with a ValueError that names it
    by what.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    if isinstance(value, np.floating):
        if value.dtype.itemsize > 8 and np.isfinite(value):
            return Fraction(*value.as_integer_ratio())
        return float(value)
    return value


def weight_ratios(weights: Iterable) -> list[tuple[int, int]]:
    """Each weight as (numerator, denominator) in lowest terms, both Python ints.

    Each weight is taken through Fraction (ints, floats at their exact binary
    value, Fractions, integer, plain decimal and "num/den" strings), a numpy
    float through its exact as_integer_ratio (Fraction takes float64, a float
    subclass, but no other width).  A numpy integer keeps its fixed width
    inside a Fraction, so the exact sums built from it could wrap;
    operator.index turns each part into a Python int.  Non-finite weights (a
    JSON 1e400 reads as inf), bools (JSON true) and non-numbers (JSON null)
    are refused with their index, and so is a string with an exponent
    ("1e999999999"), which Fraction would expand into an exact int of that
    many digits; a str, bytes or dict (read one character or key at a time)
    or a non-iterable weights argument is refused whole.
    """
    try:
        if isinstance(weights, (str, bytes, dict)):
            raise TypeError
        items = iter(weights)
    except TypeError:
        raise ValueError(f"weights must be a sequence of numbers, got {weights!r}") from None
    ratios = []
    for i, w in enumerate(items):
        if isinstance(w, str) and ("e" in w or "E" in w):
            raise ValueError(f"weight {i} is {w!r}: weight strings must have no exponent")
        try:
            if isinstance(w, bool):  # Fraction(True) is 1, but JSON true is no weight
                raise TypeError
            if isinstance(w, np.floating):
                n, d = w.as_integer_ratio()
            else:
                f = w if isinstance(w, Fraction) else Fraction(w)  # Fraction(w) would copy a Fraction
                n, d = f.numerator, f.denominator
        except (OverflowError, ValueError, TypeError, ZeroDivisionError):  # inf, nan, None, "1/0"
            raise ValueError(f"weight {i} is {w!r}: weights must be finite numbers") from None
        ratios.append((operator.index(n), operator.index(d)))
    return ratios


def dyadic(values: Iterable[float]) -> tuple[list[int], int]:
    """Floats as integer numerators over one denominator: value i is nums[i] / den exactly.
    A finite float is n / 2^e, so the largest of these denominators (1 for no values) is common
    to all; an inf or NaN raises as float.as_integer_ratio does (OverflowError, ValueError)."""
    ratios = [x.as_integer_ratio() for x in values]
    den = max((d for _, d in ratios), default=1)
    return [n * (den // d) for n, d in ratios], den


def float_rows(rows, where: str, what: str) -> np.ndarray:
    """Rows of real numbers as a float64 array, refusing every other entry.

    An integer or float ndarray is converted on its dtype alone (a float64
    one is returned as it is).  Any other rows are read entry by entry first,
    since np.asarray(..., dtype=float) reads True (JSON true) and "1" as
    1.0 and None (JSON null) as nan, and raises an OverflowError on an
    integer past the float range: each of these is refused with a ValueError
    that names the entry by where.format(i, j); what names the entries in
    the message.  Python and numpy ints and floats are numbers.  Rows, or a
    row, that are not sequences are left to the callers' shape checks.
    """
    if isinstance(rows, np.ndarray):
        if rows.dtype.kind in "iuf":
            return np.asarray(rows, dtype=float)
        rows = rows.tolist()  # bools, strings and objects as Python values
    for i, row in enumerate(rows if isinstance(rows, (list, tuple)) else ()):
        for j, x in enumerate(row if isinstance(row, (list, tuple, np.ndarray)) else ()):
            if isinstance(x, (bool, np.bool_)) or not isinstance(x, (int, float, np.integer, np.floating)):
                raise ValueError(f"{where.format(i, j)} is {x!r}: {what} must be numbers")
            try:
                float(x)
            except OverflowError:  # an integer too large for a float
                raise ValueError(f"{where.format(i, j)} is an integer past the float range") from None
    try:
        return np.array(rows, dtype=float)
    except TypeError as exc:  # a row that is neither a number nor a sequence, e.g. a JSON object
        raise ValueError(f"{what} must be numbers: {exc}") from None


def float_vector(v, where: str, what: str) -> np.ndarray:
    """One vector read by `float_rows` as a single row, entry j named by where.format(0, j).

    An ndarray is passed as a one-row view, so an integer or float one is still converted on
    its dtype alone; anything else is wrapped in a list, so its entries are read one by one.
    The result has v's shape (a vector's is (n,)), left to the callers' shape checks.
    """
    return float_rows(v[None] if isinstance(v, np.ndarray) else [v], where, what)[0]


def weight_masses(weights: Iterable) -> tuple[list[int], int]:
    """Nonnegative weights as integer masses over the lcm of their denominators.

    Each weight is read by `weight_ratios`; a negative one is refused with its
    index.  Returns (masses, denom) with weight i = masses[i] / denom, both
    Python ints; the weights need not sum to 1.
    """
    ratios = weight_ratios(weights)
    for i, (n, d) in enumerate(ratios):
        if n < 0:
            raise ValueError(f"weight {i} is {Fraction(n, d)}: weights must be nonnegative")
    denom = math.lcm(*(d for _, d in ratios))
    return [n * (denom // d) for n, d in ratios], denom


def integer_masses(weights: Iterable) -> tuple[list[int], int]:
    """Probability weights as integer masses over one denominator.

    The weights are read by `weight_masses`.  Returns (masses, denom) with
    weight i = masses[i] / denom, where the masses are nonnegative Python
    ints with gcd 1.  Weights not summing to exactly 1 are refused.
    """
    masses, denom = weight_masses(weights)
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
    summing to denom.  dim, denom and each of those masses are read by
    `int_value`, a mass named by its index, except a 1-D integer ndarray of
    masses (as `profiles.measure_of` passes), which is checked in two
    reductions: one `min` and one sum over Python ints, which cannot
    overflow.  Both forms then take one canonicalisation path: it merges
    equal points, drops zero masses and sorts the rows lexicographically
    (-0.0 stored as 0.0), so equal measures have equal fields.  The merge is
    one exact pass over index arrays: one lexsort of every row, then one
    `np.add.reduceat` over the masses, skipped when no two sorted rows are
    equal (the sorted masses are then the merged ones).  Masses are summed
    as int64 when denom < 2**63, where every partial sum is at most denom
    and so fits, and as Python ints above, so no mass overflows at any size;
    either way they are stored as Python ints.  A point whose merged mass is
    0 is dropped after.
    Non-finite coordinates are rejected, since NaN atoms would never merge,
    and so is a coordinate that is no number (`float_rows`).
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
        dim = int_value(dim, "dim")
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if (points is not None, masses is not None, denom is not None) != (atoms is None,) * 3:
            raise TypeError("give either atoms or points, masses and denom")
        if atoms is not None:
            atoms = list(atoms)
            points = [p for p, _ in atoms] or np.empty((0, dim))
        pts = float_rows(points, "atom {} coordinate {}", "coordinates")
        if pts.ndim != 2 or pts.shape[1] != dim:
            raise ValueError(f"points must have {dim} coordinates, got an array of shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("atom coordinates must be finite")
        if atoms is not None:
            masses, denom = integer_masses([w for _, w in atoms])
        else:
            denom = int_value(denom, "denom")
            array = isinstance(masses, np.ndarray) and masses.ndim == 1 and masses.dtype.kind in "iu"
            if not array:
                masses = [int_value(m, f"mass {i}") for i, m in enumerate(masses)]
            if len(masses) != len(pts):
                raise ValueError(f"{len(masses)} masses for {len(pts)} points")
            if array:  # two reductions; a sum over Python ints cannot overflow
                low, total = masses.min(initial=0), sum(masses.tolist())
            else:
                low, total = min(masses, default=0), sum(masses)
            if low < 0 or total != denom or denom < 1:
                raise ValueError(f"masses must be nonnegative and sum to denom {denom} >= 1")
        # each mass and every partial sum is <= denom, so int64 is exact below 2**63
        # (an int64 array is taken as it is)
        mass = np.asarray(masses, dtype=np.int64) if denom < 2**63 else np.array(masses, dtype=object)
        # lexicographic; a column-major points array (as measure_of passes) gives contiguous keys
        order = np.lexsort(pts.T[::-1])
        pts = pts.take(order, axis=0)
        pts += 0.0  # turns -0.0 into 0.0, in place on the gathered copy
        mass = mass.take(order)
        new = (pts[1:] != pts[:-1]).any(axis=1)  # row i + 1 starts a run of equal points
        if new.all():  # no point repeats: the gathered masses are the merged ones
            merged = mass.tolist()
        else:
            first = np.concatenate(([True], new))
            merged = np.add.reduceat(mass, np.flatnonzero(first)).tolist()
            pts = pts[first]
        if 0 in merged:  # points that carry no mass
            pts = pts[[m != 0 for m in merged]]
            merged = [m for m in merged if m]
        g = math.gcd(*merged)
        if g != 1:
            # a list, not a generator: tuple() resizes as a generator yields, and with a
            # generator here perfbench star read 1.6 MB more peak RSS
            merged = [m // g for m in merged]
        pts.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "support", pts)
        object.__setattr__(self, "masses", tuple(merged))
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
        """The exact mass at point, mu.dim numbers read by `float_vector`; 0 off the support."""
        p = float_vector(point, "coordinate {1} of the point", "coordinates")
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
        dim, atoms = _fields(d, "measure JSON", "dim", "atoms")
        if not isinstance(atoms, list):
            raise ValueError(f"measure 'atoms' must be a list, got {atoms!r}")
        return cls(dim, [_fields(a, f"atom {i}", "p", "w") for i, a in enumerate(atoms)])

    @classmethod
    def from_json(cls, s: str) -> "DiscreteMeasure":
        return cls.from_dict(json.loads(s))


def _fields(d, what: str, *keys: str) -> list:
    """The values of the keys in the JSON object d; a d that is no object, or lacks a key,
    is refused with a ValueError that names what and the key."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be an object, got {type(d).__name__}")
    for key in keys:
        if key not in d:
            raise ValueError(f"{what} has no {key!r}")
    return [d[key] for key in keys]


def empirical(points: Sequence[Sequence[float]]) -> DiscreteMeasure:
    """Empirical measure (1/n) sum of Diracs; DiscreteMeasure(dim, atoms) takes weights.

    The points are read by `float_rows`, so a coordinate that is no number (True, "0.5",
    None) is refused by point and coordinate; their length is the measure's dim.
    """
    pts = float_rows(points, "point {} coordinate {}", "coordinates")
    if not len(pts):
        raise ValueError("empty point list")
    return DiscreteMeasure(pts.shape[-1], points=pts, masses=[1] * len(pts), denom=len(pts))


def shift(mu: DiscreteMeasure, v: Sequence[float]) -> DiscreteMeasure:
    """Translate every atom of mu by the vector v of mu.dim numbers; weights unchanged.

    v is read by `float_vector`, so an entry that is no number (True, "0.5", None) is
    refused by its index, and a v of any other shape by its shape.
    """
    w = float_vector(v, "entry {1} of v", "entries of v")
    if w.shape != (mu.dim,):
        raise ValueError(f"shift vector of shape {w.shape} for a measure of dim {mu.dim}")
    return DiscreteMeasure(mu.dim, points=mu.points() + w, masses=mu.masses, denom=mu.denom)


def marginal(mu: DiscreteMeasure, coords: Sequence[int]) -> DiscreteMeasure:
    """Project mu onto the given coordinate subset (atoms re-merged); each coordinate is read
    by `int_value`, since numpy would read a list of bools as a mask."""
    cs = [int_value(c, "coordinate") for c in coords]
    if not cs:
        raise ValueError("empty coordinate subset")
    for c in cs:
        if not 0 <= c < mu.dim:
            raise ValueError(f"coordinate {c} out of range for dim {mu.dim}")
    return DiscreteMeasure(len(cs), points=mu.points()[:, cs], masses=mu.masses, denom=mu.denom)


def mean_abs(mu: DiscreteMeasure, coord: int) -> float:
    """Exact weighted mean of |x_coord|, returned as the nearest float; coord is read by `int_value`."""
    coord = int_value(coord, "coordinate")
    if not 0 <= coord < mu.dim:
        raise ValueError(f"coordinate {coord} out of range for dim {mu.dim}")
    nums, den = dyadic(np.abs(mu.points()[:, coord]).tolist())
    return sum(map(operator.mul, mu.masses, nums)) / (den * mu.denom)  # int / int rounds correctly


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
    The box is read by `float_rows`: a bound that is no number (True, "0",
    None) is refused by dimension and bound, and a box that is not one
    (lo, hi) pair per dimension by its shape.  k is read by `real_value`: a
    real k works (cells of diameter <= 1/k), a bool, a non-number, a NaN or
    an infinite k is refused, and so is a k whose grid would have more than
    2^53 cells a side (10**300, or any k beyond the floats, on a span > 0),
    where the float cell index stops counting exactly.
    """
    k = real_value(k, "resolution k")
    if k != k or k == math.inf:
        raise ValueError(f"resolution k must be a finite number, got {k!r}")
    if k < 1:
        raise ValueError("resolution k must be >= 1")
    if n is not None:
        n = int_value(n, "stage-2 sample count n")  # a Python int, so n * mass cannot wrap
        if n < 1:
            raise ValueError("stage-2 sample count n must be >= 1")
    d = mu.dim
    pts = mu.points()
    if box is None:
        lo, hi = pts.min(axis=0), pts.max(axis=0)
    else:
        bounds = float_rows(box, "box dimension {} bound {}", "box bounds")
        if bounds.ndim == 2 and len(bounds) != d:
            raise ValueError(f"box has {len(bounds)} dimensions, measure has {d}")
        if bounds.shape != (d, 2):
            raise ValueError(f"box must be one (lo, hi) pair per dimension, got an array of shape {bounds.shape}")
        lo, hi = bounds.T
    outside = np.argwhere((pts < lo) | (pts > hi))
    if len(outside):
        i, j = outside[0]
        raise ValueError(f"atom coordinate {pts[i, j]} outside box [{lo[j]}, {hi[j]}]")

    # cell side <= 1/(k*sqrt(d)) forces cell diameter <= 1/k; each atom's cell index is
    # a float64, which counts cells exactly only up to 2^53 a side
    span = hi - lo
    try:
        counts = [math.ceil(s * k * math.sqrt(d)) if s else 1 for s in span.tolist()]
    except OverflowError:  # s * k beyond the floats
        counts = [math.inf]
    if max(counts) > 2**53:
        raise ValueError("resolution k is too large: the grid would have more than 2^53 cells a side")
    counts = np.array(counts)
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
