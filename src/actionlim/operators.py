"""Finite weighted operators: graph generators, limit approximants, the
operator-spec grammar, norms, and structure checks.

An operator is an n x n real matrix together with a probability weight
vector on coordinates, held like a measure's: positive integer masses over
one denominator (uniform by default).  Application is plain matrix-vector
multiplication; norms are taken with respect to the weights.

The broadcast matrix (every row has a single 1 in a distinguished column)
models evaluation at a distinguished coordinate; adding it to or
subtracting it from a base operator gives the two signed limit approximants.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .measures import dyadic, float_rows, float_vector, int_value, integer_masses, real_value, weight_masses

__all__ = [
    "WeightedOperator",
    "GraphSpec",
    "UnsupportedNormError",
    "adjacency",
    "gplus",
    "broadcast",
    "signed_limit",
    "parse_operator_spec",
    "load_edge_list",
    "apply",
    "q_norm",
    "pq_norm",
    "bilinear",
    "adjoint",
    "self_adjoint_defect",
    "non_self_adjoint_witness",
    "c_regularity",
    "positivity_defect",
]

# sign vectors per block of the (inf,1) enumeration; at n 17-20, on a 2 MB L2 cache,
# 2^13 measured faster than 2^12 (more passes) and 2^14 (block and buffer out of cache)
_SIGN_CHUNK = 1 << 13

GRAPH_KINDS = ("star", "empty", "cycle", "path", "complete", "edge_list", "erdos_renyi")


class UnsupportedNormError(ValueError):
    """Raised for (p, q, A) combinations outside the computable regimes."""


@dataclass(frozen=True)
class WeightedOperator:
    """Coordinate i carries weight masses[i] / denom (positive masses, gcd 1).

    The matrix is held read-only.  A read-only float64 ndarray that owns its
    memory (`base is None`), as each builder here makes, is taken as it is,
    so building an n-vertex operator holds one n x n array at peak; anything
    else (a list, a writeable array, a view) is copied, so the caller's
    array stays its own.  An entry that is no number is refused by
    `float_rows`.  Finiteness is read from the matrix's min and max,
    through which a NaN propagates, with no n x n temporary; both are kept
    as Python floats (`_low`, `_high`), so the norms and checks that need
    the matrix's range do not scan it again.
    """

    n: int
    matrix: np.ndarray
    masses: tuple[int, ...]
    denom: int
    name: str = ""

    def __init__(self, matrix, weights=None, name: str = ""):
        m = float_rows(matrix, "matrix row {} column {}", "matrix entries")
        if m.base is not None or (m is matrix and m.flags.writeable):  # the caller's memory
            m = np.array(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        n = m.shape[0]
        if n == 0:
            raise ValueError("operator needs at least one coordinate, got a 0 x 0 matrix")
        low, high = float(m.min()), float(m.max())
        if not math.isfinite(low) or not math.isfinite(high):  # NaN propagates through both
            raise ValueError("matrix entries must be finite")
        masses, denom = ([1] * n, n) if weights is None else integer_masses(weights)
        if len(masses) != n:
            raise ValueError(f"{len(masses)} weights for n={n}")
        if 0 in masses:
            raise ValueError("weights must be positive")
        m.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "masses", tuple(masses))
        object.__setattr__(self, "denom", denom)
        object.__setattr__(self, "name", name)
        # the matrix's range, kept outside the dataclass fields as Python floats, so that
        # positivity_defect, which returns one, writes as it would from the matrix
        object.__setattr__(self, "_low", low)
        object.__setattr__(self, "_high", high)

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(m, self.denom) for m in self.masses)

    @cached_property
    def _integer_bound(self) -> float:
        """n * max|a_ij| * denom if every entry is an integer, else inf.

        Below 2^53, every sum of entries weighted by the integer masses is an integer a
        float64 holds exactly, in any order.  Computed once per operator, 64 rows at a time,
        so no n x n temporary is made; max|a_ij| is read from the range kept at construction.
        """
        m = self.matrix
        if not all(np.array_equal(c, np.round(c)) for c in (m[i : i + 64] for i in range(0, self.n, 64))):
            return math.inf
        return self.n * int(max(-self._low, self._high)) * self.denom

    @cached_property
    def _mass_array(self) -> np.ndarray | tuple[int, ...]:
        """The masses as one read-only int64 array if denom < 2^63, else the masses tuple.

        Every mass is at most denom, so the array holds each exactly; `profiles.measure_of`
        hands it to every measure it builds, whose constructor checks it in two reductions.
        """
        if self.denom >= 2**63:
            return self.masses
        a = np.array(self.masses, dtype=np.int64)
        a.setflags(write=False)
        return a

    @cached_property
    def _row_sums(self) -> tuple[tuple[int, ...], int]:
        """The exact row sums, as integers over one power-of-two denominator.

        Each row is read by `dyadic` on its own, so its sum is an integer over a power of two
        and the largest of these is common to all; row by row, no n x n list is made.
        Computed once per operator, for `pq_norm` and `c_regularity`.
        """
        if self._integer_bound < 2**53:  # every partial sum is an integer a float64 holds
            return tuple(int(x) for x in (self.matrix @ np.ones(self.n)).tolist()), 1
        rows = [(sum(nums), den) for nums, den in (dyadic(row.tolist()) for row in self.matrix)]
        den = max(d for _, d in rows)
        return tuple(s * (den // d) for s, d in rows), den

    @property
    def weights_float(self) -> np.ndarray:
        return np.array([m / self.denom for m in self.masses])  # int / int rounds correctly

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "matrix": self.matrix.tolist(),
            "weights": [f"{w.numerator}/{w.denominator}" for w in self.weights],
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WeightedOperator":
        if not isinstance(d, dict) or "matrix" not in d:
            raise ValueError("operator JSON must be an object with a 'matrix'")
        name = d.get("name", "")
        if not isinstance(name, str):
            raise ValueError(f"operator 'name' must be a string, got {name!r}")
        op = cls(d["matrix"], d.get("weights"), name)
        n = d.get("n", op.n)
        if type(n) is not int or n != op.n:  # to_dict writes n; JSON true is no n
            raise ValueError(f"operator 'n' is {n!r}, but its matrix is {op.n} x {op.n}")
        return op


@dataclass(frozen=True)
class GraphSpec:
    """Named generator or edge list for a finite simple graph.

    n and seed name the graph in its label, so each is read by `int_value` and
    stored as a Python int, as is each vertex of an edge list; p is read by
    `real_value`, which refuses a bool or a non-number.
    """

    kind: str
    n: int
    edges: tuple[tuple[int, int], ...] = field(default=())
    p: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n", int_value(self.n, "n"))
        object.__setattr__(self, "seed", int_value(self.seed, "seed"))
        # p is kept as given, so an int or Fraction p labels the graph as before
        if self.p is not None:
            real_value(self.p, "p")
        if self.kind not in GRAPH_KINDS:
            raise ValueError(f"unknown graph kind {self.kind!r}; choose from {GRAPH_KINDS}")
        if self.n < 1:
            raise ValueError("vertex count must be >= 1")
        if self.kind == "edge_list":
            # numpy reads a bool index as a mask, so the edge (True, 2) would fill a whole row
            edges = tuple((int_value(u, f"edge {i} vertex"), int_value(v, f"edge {i} vertex"))
                          for i, (u, v) in enumerate(self.edges))
            object.__setattr__(self, "edges", edges)
            seen = set()
            for u, v in edges:
                if u == v:
                    raise ValueError(f"loop at vertex {u}")
                if not (0 <= u < self.n and 0 <= v < self.n):
                    raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
                key = (min(u, v), max(u, v))
                if key in seen:
                    raise ValueError(f"duplicate edge ({u}, {v})")
                seen.add(key)
        if self.kind == "erdos_renyi":
            if self.p is None or not 0 <= self.p <= 1:
                raise ValueError("erdos_renyi requires edge probability p in [0, 1]")

    def label(self) -> str:
        if self.kind == "erdos_renyi":
            return f"er:{self.n}:{self.p}:{self.seed}"
        return f"{self.kind}:{self.n}"


def _edge_set(spec: GraphSpec) -> list[tuple[int, int]]:
    n = spec.n
    if spec.kind == "star":
        return [(0, i) for i in range(1, n)]
    if spec.kind == "empty":
        return []
    if spec.kind == "cycle":
        if n < 3:
            raise ValueError("cycle requires n >= 3")
        return [(i, (i + 1) % n) for i in range(n)]
    if spec.kind == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if spec.kind == "complete":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    if spec.kind == "edge_list":
        return [(min(u, v), max(u, v)) for u, v in spec.edges]
    if spec.kind == "erdos_renyi":
        # one draw per vertex pair i < j, in row-major order, all from one call
        i, j = np.triu_indices(n, 1)
        keep = np.random.default_rng(spec.seed).random(len(i)) < spec.p
        return list(zip(i[keep].tolist(), j[keep].tolist()))
    raise AssertionError(spec.kind)


def adjacency(spec: GraphSpec) -> WeightedOperator:
    """Symmetric 0/1 adjacency matrix with uniform weights."""
    m = np.zeros((spec.n, spec.n))
    for u, v in _edge_set(spec):
        m[u, v] = m[v, u] = 1.0
    m.setflags(write=False)  # handed to the operator, not copied
    return WeightedOperator(m, name=spec.label())


def gplus(spec: GraphSpec) -> WeightedOperator:
    """Adjacency of the graph plus an apex vertex adjacent to all others."""
    n = spec.n
    m = np.zeros((n + 1, n + 1))
    for u, v in _edge_set(spec):
        m[u, v] = m[v, u] = 1.0
    m[n, :n] = 1.0
    m[:n, n] = 1.0
    m.setflags(write=False)
    return WeightedOperator(m, name=f"gplus:{spec.label()}")


def broadcast(n: int, i_star: int = 0) -> WeightedOperator:
    """Rank-one matrix sending f to f[i_star] times the all-ones vector; n and i_star
    are read by `int_value`."""
    n, i_star = int_value(n, "n"), int_value(i_star, "i_star")
    if not 0 <= i_star < n:
        raise ValueError(f"distinguished index {i_star} out of range for n={n}")
    m = np.zeros((n, n))
    m[:, i_star] = 1.0
    m.setflags(write=False)
    return WeightedOperator(m, name=f"broadcast:{n}:{i_star}")


def signed_limit(A: WeightedOperator, i_star: int, sign: int) -> WeightedOperator:
    """A plus or minus the broadcast matrix on A's coordinates; sign (+1 or -1, 1.0 too) is
    read by `real_value`, so a bool is refused, and i_star by `int_value`."""
    if real_value(sign, "sign") not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    i_star = int_value(i_star, "i_star")
    if not 0 <= i_star < A.n:
        raise ValueError(f"distinguished index {i_star} out of range for n={A.n}")
    m = A.matrix.copy()
    m[:, i_star] += float(sign)
    m.setflags(write=False)
    tag = "+" if sign == 1 else "-"
    return WeightedOperator(m, A.weights, name=f"signed:{tag}:{i_star}:{A.name}")


# ---------------------------------------------------------------------------
# operator specs: the one grammar that names an operator, read by the CLI and
# by experiment configs
# ---------------------------------------------------------------------------

def load_edge_list(path: str | Path) -> GraphSpec:
    """Edge-list file: one `u v` pair per line, 0-based, `#` comments."""
    edges = []
    max_v = -1
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line: {raw!r}")
        u, v = int(parts[0]), int(parts[1])
        edges.append((u, v))
        max_v = max(max_v, u, v)
    return GraphSpec("edge_list", max_v + 1, edges=tuple(edges))


def parse_operator_spec(spec: str) -> WeightedOperator:
    """Build an operator from a compact spec string.

    Grammar: star:N | empty:N | cycle:N | path:N | complete:N |
    er:N:P[:SEED] | edgelist:PATH | gplus:<graph spec> |
    broadcast:N[:I] | signed:SIGN:I:<graph spec> | a path ending in .json
    to operator JSON.  Any spec the grammar refuses, whose file cannot be
    read or holds no operator, or whose matrix cannot be allocated (a
    MemoryError, as at star:1000000000), raises one ValueError that names the
    whole spec.
    """
    try:
        if spec.endswith(".json"):
            return WeightedOperator.from_dict(json.loads(Path(spec).read_text()))
        head, _, rest = spec.partition(":")
        if head == "gplus":
            return gplus(_parse_graph_spec(rest))
        if head == "broadcast":
            parts = rest.split(":")
            if len(parts) > 2:
                raise ValueError("expected broadcast:N[:I]")
            n = _int_field(parts[0], "vertex count", least=1)
            i_star = _int_field(parts[1], "index") if len(parts) > 1 else 0
            return broadcast(n, i_star)
        if head == "signed":
            parts = rest.split(":", 2)
            if len(parts) != 3:
                raise ValueError("expected signed:SIGN:I:<graph spec>")
            sign_s, i_s, inner = parts
            sign = 1 if sign_s in ("+", "+1") else -1 if sign_s in ("-", "-1") else None
            if sign is None:
                raise ValueError(f"sign {sign_s!r} is not one of +, +1, -, -1")
            i_star = _int_field(i_s, "index")
            return signed_limit(adjacency(_parse_graph_spec(inner)), i_star, sign)
        return adjacency(_parse_graph_spec(spec))
    except (ValueError, OSError, MemoryError) as exc:
        raise ValueError(f"operator spec {spec!r}: {exc}") from exc


def _int_field(text: str, what: str, least: int | None = None) -> int:
    """One integer field of a spec."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{what} {text!r} is not an integer") from None
    if least is not None and value < least:
        raise ValueError(f"{what} {value} is below {least}")
    return value


def _parse_graph_spec(spec: str) -> GraphSpec:
    head, _, rest = spec.partition(":")
    if head == "edgelist":
        return load_edge_list(rest)
    if head == "er":
        parts = rest.split(":")
        if len(parts) not in (2, 3):
            raise ValueError("expected er:N:P[:SEED]")
        n, prob = _int_field(parts[0], "vertex count", least=1), float(parts[1])
        seed = _int_field(parts[2], "seed") if len(parts) > 2 else 0
        return GraphSpec("erdos_renyi", n, p=prob, seed=seed)
    if head in ("star", "empty", "cycle", "path", "complete"):
        return GraphSpec(head, _int_field(rest, "vertex count", least=1))
    raise ValueError(f"unknown graph kind {head!r}")


def apply(A: WeightedOperator, f: Sequence[float]) -> np.ndarray:
    """Af; an entry of f that is no number is refused with its index (`float_vector`)."""
    v = float_vector(f, "entry {1} of f", "entries of f")
    if v.shape != (A.n,):
        raise ValueError(f"vector length {v.shape} does not match n={A.n}")
    return A.matrix @ v


def q_norm(f: Sequence[float], weights: Sequence[Fraction], q: float) -> float:
    """Weighted q-norm (sum_i w_i |f_i|^q)^(1/q); essential sup for q=inf.

    The entries of f are numbers (`float_vector`, which takes a float64
    array as it is), and the weights become
    integer masses (`weight_masses`).  The norm is that of `_norm` on the
    |f_i| read exactly by `dyadic`: correctly rounded at q=inf and at
    integer q.  An entry with zero weight counts at no q.

    q is read by `measures.real_value`, so a float32 q is taken at its value
    and its power sum is not run in float32.

    Refused with a ValueError that names the input: an f or weights that is
    no sequence of numbers, an infinite, NaN or negative weight, a NaN
    entry (the max at q=inf would depend on the order), an infinite entry at
    finite q, a q that is a bool, no number, NaN or below 1, and whatever
    `_norm` refuses.
    """
    q = real_value(q, "q")
    if not q >= 1:  # NaN fails it too
        raise ValueError(f"q must be >= 1, got q={q!r}")
    v = float_vector(f, "entry {1} of f", "entries of f")
    if v.ndim != 1:
        raise ValueError(f"f must be a sequence of numbers, got {f!r}")
    v = v.tolist()
    masses, denom = weight_masses(weights)
    if len(v) != len(masses):
        raise ValueError("length mismatch between vector and weights")
    for i, x in enumerate(v):
        if math.isnan(x):
            raise ValueError(f"entry {i} of f is nan: a NaN entry has no norm")
        if math.isinf(x) and not math.isinf(q):
            raise ValueError(f"entry {i} of f is {x!r}: finite q={q!r} needs finite entries")
    if any(math.isinf(x) and m for x, m in zip(v, masses)):  # only at q=inf: the sup
        return math.inf
    # an entry of zero weight counts at no q, so an infinite one is read as 0
    return _norm(*dyadic([abs(x) if m else 0.0 for x, m in zip(v, masses)]), masses, denom, q)


def _norm(nums: list[int], den: int, masses: Sequence[int], denom: int, q: float) -> float:
    """Weighted q-norm of the exact values nums[i] / den, value i weighted masses[i] / denom.

    nums and masses are nonnegative Python ints, den a power of two, denom > 0 and q >= 1.
    The path is chosen from q here, once:
    - q=inf: the largest value with positive mass, correctly rounded; an infinity past the
      float range.
    - integer q: the power sum is one exact integer over one denominator, and the norm the
      integer q-th root of it scaled by 2^(q*s), over 2^s, s chosen so that the root has
      about 57 bits: the one rounding, to the float nearest the exact norm, is the last step.
    - any other q: the power sum in float64, weight i as the correctly rounded
      masses[i] / denom and value i as the correctly rounded nums[i] / den.
    Refused with a ValueError: a norm at integer q that rounds to inf, or to 0 while some
    weighted value is nonzero; at other q a power sum that does so (its q-th root would be
    inf or 0, not the norm).
    """
    if math.isinf(q):
        return _nearest(max((n for n, m in zip(nums, masses) if m), default=0), den)
    if not float(q).is_integer():
        try:
            mean = sum(m / denom * (n / den) ** q for n, m in zip(nums, masses))
        except OverflowError:  # a value or its float power past the float range
            mean = math.inf
        if mean == math.inf or (mean == 0.0 and any(n and m for n, m in zip(nums, masses))):
            raise ValueError(f"the power sum of f at q={q!r} is outside the float range")
        return mean ** (1.0 / q)
    qi = int(q)
    total = sum(m * n**qi for m, n in zip(masses, nums))
    if not total:
        return 0.0
    # r = floor of the norm times 2^s, from the power sum times 2^(q*s) by Newton's method;
    # s puts r near 2^56, at least 2 bits past a float's 53, so no float rounding boundary
    # lies strictly between r and r + 1, and (r + 1/2) / 2^s (r / 2^s if r is the exact
    # root) rounds to the norm's float.  den is 2^e, so the power sum times 2^(q*s) is
    # total * 2^shift / denom, shift = q*(s - e), and only denom divides
    e = den.bit_length() - 1
    log_norm = (math.log2(total) - math.log2(denom)) / qi - e
    s = 56 - math.floor(log_norm)
    shift = qi * (s - e)
    big = (total << shift if shift >= 0 else total >> -shift) // denom
    r = int(2.0 ** (log_norm + s))
    r = ((qi - 1) * r + big // r ** (qi - 1)) // qi  # >= floor(big^(1/q)), by AM-GM
    while (lower := ((qi - 1) * r + big // r ** (qi - 1)) // qi) < r:
        r = lower
    power = r**qi * denom
    exact = power == total << shift if shift >= 0 else power << -shift == total
    odd = 2 * r + (not exact)
    try:
        norm = odd / (1 << s + 1) if s >= -1 else float(odd << -s - 1)  # rounds correctly
    except OverflowError:  # the norm itself past the float range
        norm = math.inf
    if norm in (0.0, math.inf):
        raise ValueError(f"the norm of f at q={q!r} is outside the float range")
    return norm


def _nearest(num: int, den: int) -> float:
    """num / den correctly rounded; past the float range, an infinity of num's sign."""
    try:
        return num / den  # int / int rounds correctly
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _sup_inf_to_1(A: WeightedOperator) -> float:
    """Sup over f in {-1,1}^n of the weighted 1-norm of Af.

    f and -f give the same norm, so only the sign vectors whose last sign is
    +1 are enumerated (bit i of a code gives the sign of f_i, set for +1).
    The low signs, low = min(n - 1, log2 _SIGN_CHUNK), are built once by
    doubling: column r of an (n, 2^low) block is the sum of s_i A e_i over
    i < low, column 0 has every s_i = -1, and column r + 2^i is column r
    plus 2 A e_i.  Each code of the high signs adds one offset
    A[:, low:] @ s_high to the whole block before the absolute values are
    weighted and the max taken.  The block is stored row by row: each row's
    2^low entries are contiguous, which measured faster than column-major
    storage for both the broadcast add and the weighted sum.
    For an integer-valued matrix with bound = n * max|a_ij| * denom < 2^53
    (`WeightedOperator._integer_bound`) the result is the exact norm,
    correctly rounded: weighted by the integer masses, every block entry,
    offset, shifted entry, product and partial sum is an integer of
    magnitude at most bound.  A float type holds every
    such integer when bound is within its exact-integer range, so any
    summation order (a BLAS gemv or an FMA included) gives the same integer.
    The loop runs in float32 when bound <= 2^24, float32's range, and in
    float64 (range 2^53) otherwise.  Any other matrix gets a float64
    result, its sums taken in the order above.
    """
    n = A.n
    if n > 20:
        raise UnsupportedNormError("exact (inf,1) enumeration limited to n <= 20")
    bound = A._integer_bound
    exact = bound < 2**53
    dtype = np.float32 if bound <= 2**24 else np.float64
    m = A.matrix.astype(dtype, copy=False)
    w = np.array(A.masses, dtype=dtype) if exact else A.weights_float
    low = min(n - 1, _SIGN_CHUNK.bit_length() - 1)
    block = np.empty((n, 1 << low), dtype=dtype)
    block[:, 0] = -m[:, :low].sum(axis=1)
    for i in range(low):
        np.add(block[:, : 1 << i], 2.0 * m[:, i : i + 1], out=block[:, 1 << i : 2 << i])
    # every code of the high signs, with the last sign (bit n - 1 - low) set
    high = np.arange(1 << (n - 1 - low)) | (1 << (n - 1 - low))
    signs = ((high[:, None] >> np.arange(n - low)) & 1) * 2 - 1
    offsets = signs.astype(dtype) @ m[:, low:].T
    buf = np.empty_like(block)
    best = 0.0
    for offset in offsets:
        np.add(block, offset[:, None], out=buf)
        np.abs(buf, out=buf)
        best = max(best, float((w @ buf).max()))
    return int(best) / A.denom if exact else best  # int / int rounds correctly


def pq_norm(A: WeightedOperator, p: float, q: float) -> float:
    """Operator (p,q)-norm in the supported regimes.

    Supported: (a) entrywise-nonnegative A with p=inf and any q >= 1,
    where the norm is `_norm` of A's exact row sums (`WeightedOperator._row_sums`,
    kept per operator) under A's integer masses, the core q_norm also
    calls: correctly rounded at q=inf and integer q, and summed in float64
    at other q; a norm or power sum outside the float range is refused with
    a ValueError; (b) any A with p=inf, q=1 and n <= 20, by enumeration
    over sign vectors in blocks of low-sign sums built by doubling, plus one
    offset per code of the high signs (_sup_inf_to_1).  That is exact for
    integer-valued A with
    bound = n * max|a_ij| * denom < 2^53, its sums taken in float32 when
    bound <= 2^24 and in float64 above, and float64 for any other A.
    Other regimes raise UnsupportedNormError.  p and q are read by
    `measures.real_value`, as q_norm reads q; a p or q that is a bool, no
    number, NaN or below 1 is refused with a ValueError that names it.
    """
    p, q = real_value(p, "p"), real_value(q, "q")
    for name, value in (("p", p), ("q", q)):
        if not value >= 1:  # NaN fails it too
            raise ValueError(f"{name} must be >= 1, got {name}={value!r}")
    if math.isinf(p) and A._low >= 0:  # the matrix is finite, so no NaN entry
        return _norm(*A._row_sums, A.masses, A.denom, q)
    if math.isinf(p) and q == 1:
        return _sup_inf_to_1(A)
    raise UnsupportedNormError(
        "supported regimes: (p=inf, any q) for entrywise-nonnegative matrices, "
        "or (p=inf, q=1) with n <= 20 by sign enumeration"
    )


def bilinear(A: WeightedOperator, f: Sequence[float], g: Sequence[float]) -> float:
    """Weighted bilinear form: expectation of (Af) * g (exact accumulation).

    f and g are read as `apply` reads f, so an entry that is no number is refused with its index.
    """
    gf = float_vector(g, "entry {1} of g", "entries of g")
    if gf.shape != (A.n,):
        raise ValueError(f"vector length {gf.shape} does not match n={A.n}")
    (na, da), (nb, db) = dyadic(apply(A, f).tolist()), dyadic(gf.tolist())
    return sum(m * x * y for m, x, y in zip(A.masses, na, nb)) / (A.denom * da * db)  # int / int rounds correctly


def adjoint(A: WeightedOperator) -> WeightedOperator:
    """The operator A* with (v,w)_A = (w,v)_{A*}: matrix W^{-1} A^T W.

    Scaled by the integer masses, so uniform weights give the exact transpose.
    """
    w = np.array(A.masses, dtype=float)
    m = A.matrix.T * w[None, :]
    m /= w[:, None]  # in place, in the order of A^T W then W^{-1}
    m.setflags(write=False)
    return WeightedOperator(m, A.weights, name=f"adjoint({A.name})" if A.name else "")


def self_adjoint_defect(A: WeightedOperator) -> float:
    """Max-abs entry of A^T W - W A; zero iff the bilinear form is symmetric."""
    w = A.weights_float
    d = A.matrix.T * w[None, :] - w[:, None] * A.matrix
    return float(np.max(np.abs(d)))


def non_self_adjoint_witness(B: WeightedOperator, i_star: int) -> float:
    """Asymmetry of the bilinear form on (indicator of i_star, all-ones); i_star is read
    by `int_value`."""
    i_star = int_value(i_star, "i_star")
    if not 0 <= i_star < B.n:
        raise ValueError(f"index {i_star} out of range for n={B.n}")
    f = np.zeros(B.n)
    f[i_star] = 1.0
    ones = np.ones(B.n)
    return abs(bilinear(B, f, ones) - bilinear(B, ones, f))


def c_regularity(A: WeightedOperator) -> Optional[float]:
    """Eigenvalue c of the all-ones vector, correctly rounded, if every row of A
    sums to exactly c; else None.

    The row sums are exact (`WeightedOperator._row_sums`, kept per operator, so
    `pq_norm` reads the same ones); one past the float range rounds to an
    infinity of its sign.
    """
    sums, den = A._row_sums
    return _nearest(sums[0], den) if len(set(sums)) == 1 else None


def positivity_defect(A: WeightedOperator) -> float:
    """Zero iff A is positivity-preserving (entrywise nonnegative)."""
    return max(0.0, -A._low)
