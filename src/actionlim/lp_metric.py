"""Exact Levy-Prokhorov distances between discrete measures.

The main engine decides coupling feasibility (Strassen's theorem) with an
integer max-flow over the measures' masses scaled to one common denominator
(scipy while capacities fit in int32, exact Python ints above), and locates the
minimum feasible epsilon by a monotone search over the pairwise-distance
breakpoints.  A subset-enumeration oracle covers small supports, and the
Hausdorff distance between finite measure sets is built on top.
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow
from scipy.spatial.distance import cdist

from .measures import DiscreteMeasure

__all__ = [
    "LpResult",
    "HausdorffResult",
    "lp_feasible",
    "lp_distance",
    "lp_distance_bruteforce",
    "hausdorff",
]

# scipy's maximum_flow truncates capacities to int32; wider scales use _exact_max_flow
_INT32_MAX = 2**31 - 1


@dataclass(frozen=True)
class LpResult:
    value: float
    method: str  # "exact_flow" or "brute_force"


@dataclass(frozen=True)
class HausdorffResult:
    value: float
    argmax_side: str  # "left" or "right"
    witness: tuple[int, int]


def _exact_max_flow(ca: Sequence[int], cb: Sequence[int], mask: np.ndarray) -> int:
    """Max-flow in Python ints from source via A-atoms (capacities `ca`) and
    B-atoms (capacities `cb`) to sink, with an uncapacitated A -> B edge where
    `mask` holds: Edmonds-Karp on a dense residual capacity matrix."""
    p, q = mask.shape
    sink = p + q + 1
    cap = [[0] * (sink + 1) for _ in range(sink + 1)]
    cap[0][1 : p + 1] = ca
    for j, c in enumerate(cb):
        cap[1 + p + j][sink] = c
    for i, j in zip(*np.nonzero(mask)):
        cap[1 + i][1 + p + j] = sum(ca)  # never binds: the source sends at most sum(ca)
    total = 0
    while True:
        parent = {0: None}  # breadth-first search for a shortest augmenting path
        queue = deque([0])
        while queue and sink not in parent:
            u = queue.popleft()
            for v, c in enumerate(cap[u]):
                if c > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return total
        path, v = [], sink
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        push = min(cap[u][v] for u, v in path)
        for u, v in path:
            cap[u][v] -= push
            cap[v][u] += push
        total += push


class _Pair:
    """Shared state for one (mu, nu) pair: masses over one scale, and distances."""

    def __init__(self, mu: DiscreteMeasure, nu: DiscreteMeasure):
        if mu.dim != nu.dim:
            raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
        self.scale = math.lcm(mu.denom, nu.denom)
        # int64 while scipy takes the capacities, exact Python ints above
        dtype = np.int64 if self.scale <= _INT32_MAX else object
        self.ca = np.array(mu.masses, dtype=dtype) * (self.scale // mu.denom)
        self.cb = np.array(nu.masses, dtype=dtype) * (self.scale // nu.denom)
        self.dist = cdist(mu.points(), nu.points())

    def max_coupling(self, eps: float) -> Fraction:
        """Largest coupling mass placeable on pairs at distance <= eps."""
        mask = self.dist <= eps
        if not mask.any():
            return Fraction(0)
        if self.scale > _INT32_MAX:
            return Fraction(_exact_max_flow(self.ca, self.cb, mask), self.scale)
        ii, jj = np.nonzero(mask)
        p, q = mask.shape
        sink = p + q + 1
        rows = np.concatenate([np.zeros(p, dtype=np.int64), 1 + ii, 1 + p + np.arange(q)])
        cols = np.concatenate([1 + np.arange(p), 1 + p + jj, np.full(q, sink)])
        # middle edges effectively uncapacitated
        caps = np.concatenate([self.ca, np.full(len(ii), self.scale), self.cb])
        graph = csr_matrix((caps, (rows, cols)), shape=(sink + 1, sink + 1))
        flow = maximum_flow(graph, 0, sink).flow_value
        return Fraction(int(flow), self.scale)

    def feasible(self, eps) -> bool:
        """Coupling with mass >= 1 - eps supported on pairs at distance <= eps."""
        e = Fraction(eps) if not isinstance(eps, Fraction) else eps
        if e < 0:
            raise ValueError("negative epsilon")
        if e >= 1:
            return True
        return self.max_coupling(float(e)) >= 1 - e


def lp_feasible(mu: DiscreteMeasure, nu: DiscreteMeasure, eps: float) -> bool:
    """True iff a coupling puts mass >= 1-eps on pairs at distance <= eps."""
    return _Pair(mu, nu).feasible(eps)


def _distance_from_pair(pair: _Pair) -> float:
    # breakpoints: 0 and every pairwise distance below 1
    ds = np.unique(pair.dist)
    breaks = [0.0] + [float(d) for d in ds if 0.0 < d < 1.0]
    m = len(breaks)

    flows: dict[int, Fraction] = {}

    def coupling(i: int) -> Fraction:
        if i not in flows:
            flows[i] = pair.max_coupling(breaks[i])
        return flows[i]

    def valid(i: int) -> bool:
        # minimal feasible eps in [breaks[i], next) exists iff 1-F_i < next
        nxt = Fraction(breaks[i + 1]) if i + 1 < m else Fraction(1)
        return 1 - coupling(i) < nxt

    # valid() is monotone in i: find the first valid breakpoint interval
    if not valid(m - 1):
        return 1.0
    lo, hi = 0, m - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if valid(mid):
            hi = mid
        else:
            lo = mid + 1
    value = max(Fraction(breaks[lo]), 1 - coupling(lo))
    return min(1.0, float(value))


def lp_distance(mu: DiscreteMeasure, nu: DiscreteMeasure) -> LpResult:
    """Exact Levy-Prokhorov distance via the flow engine."""
    if mu == nu:
        return LpResult(0.0, "exact_flow")
    v = _distance_from_pair(_Pair(mu, nu))
    return LpResult(v, "exact_flow")


def _subset_tables(points_a, wa, points_b, wb):
    """Per subset of A-atoms: mass, plus sorted reach distances into B with
    prefix B-masses, enabling O(log) evaluation of mass(B within eps)."""
    dist = cdist(points_a, points_b)
    p = len(wa)
    tables = []
    for bits in range(1, 1 << p):
        members = [i for i in range(p) if bits >> i & 1]
        mass = sum((wa[i] for i in members), Fraction(0))
        mind = dist[members].min(axis=0)
        order = np.argsort(mind, kind="stable")
        sorted_d = mind[order]
        prefix = list(itertools.accumulate((wb[j] for j in order), initial=Fraction(0)))
        tables.append((mass, sorted_d, prefix))
    return tables


def lp_distance_bruteforce(mu: DiscreteMeasure, nu: DiscreteMeasure) -> LpResult:
    """Oracle: evaluate the Borel-set definition over all unions of atoms.

    Guarded to combined supports of at most 10 atoms.
    """
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    if mu.support_size + nu.support_size > 10:
        raise ValueError("combined support too large for brute force (max 10 atoms)")

    pa, pb = mu.points(), nu.points()
    wa, wb = mu.weights(), nu.weights()
    tab_ab = _subset_tables(pa, wa, pb, wb)
    tab_ba = _subset_tables(pb, wb, pa, wa)

    def reach_mass(table_entry, eps: Fraction) -> Fraction:
        _, sorted_d, prefix = table_entry
        ds = sorted_d.tolist()
        idx = bisect_right(ds, float(eps))
        # float cutoff may be off by one ulp; correct with exact comparisons
        while idx < len(ds) and Fraction(ds[idx]) <= eps:
            idx += 1
        while idx > 0 and Fraction(ds[idx - 1]) > eps:
            idx -= 1
        return prefix[idx]

    def feasible(eps: Fraction) -> bool:
        for tables in (tab_ab, tab_ba):
            for entry in tables:
                mass = entry[0]
                if mass > reach_mass(entry, eps) + eps:
                    return False
        return True

    candidates: set[Fraction] = {Fraction(0), Fraction(1)}
    for d in np.unique(cdist(pa, pb)):
        candidates.add(Fraction(float(d)))
    for tables in (tab_ab, tab_ba):
        for mass, sorted_d, prefix in tables:
            for idx in range(len(sorted_d) + 1):
                deficit = mass - prefix[idx]
                if 0 <= deficit <= 1:
                    candidates.add(deficit)

    ordered = sorted(c for c in candidates if 0 <= c <= 1)
    # feasibility is monotone in eps: binary search the first feasible candidate
    lo, hi = 0, len(ordered) - 1
    if not feasible(ordered[hi]):
        value = 1.0
    else:
        while lo < hi:
            mid = (lo + hi) // 2
            if feasible(ordered[mid]):
                hi = mid
            else:
                lo = mid + 1
        value = float(ordered[lo])
    return LpResult(value, "brute_force")


def _directed(A: Sequence[DiscreteMeasure], B: Sequence[DiscreteMeasure], cache: dict):
    """sup over a of inf over b of d_LP(a, b), with witness indices.

    Candidate b's are tried starting at the index paired with a, and pruned
    with a single feasibility check against the current best.
    """
    best_val = -1.0
    best_witness = (0, 0)
    for i, a in enumerate(A):
        order = [i] if i < len(B) else []
        order += [j for j in range(len(B)) if j != i]
        cur = math.inf
        cur_j = order[0]
        for j in order:
            key = (i, j)
            if key in cache:
                d = cache[key]
            else:
                pair = _Pair(a, B[j])
                if cur < math.inf and not pair.feasible(cur):
                    continue  # d_LP(a, B[j]) > cur, cannot improve the min
                d = _distance_from_pair(pair)
                cache[key] = d
            if d < cur:
                cur, cur_j = d, j
            if cur == 0.0:
                break
        if cur > best_val:
            best_val = cur
            best_witness = (i, cur_j)
    return best_val, best_witness


def hausdorff(A: Sequence[DiscreteMeasure], B: Sequence[DiscreteMeasure]) -> HausdorffResult:
    """Hausdorff distance between two finite sets of measures under d_LP."""
    A, B = list(A), list(B)
    if not A or not B:
        raise ValueError("hausdorff requires nonempty measure sets")
    dims = {m.dim for m in A} | {m.dim for m in B}
    if len(dims) != 1:
        raise ValueError(f"mixed dimensions {sorted(dims)}")
    cache_ab: dict = {}
    left, w_left = _directed(A, B, cache_ab)
    cache_ba = {(j, i): d for (i, j), d in cache_ab.items()}
    right, w_right = _directed(B, A, cache_ba)
    if left >= right:
        return HausdorffResult(left, "left", w_left)
    return HausdorffResult(right, "right", (w_right[1], w_right[0]))
