"""Exact Levy-Prokhorov distances between discrete measures.

The main engine decides coupling feasibility (Strassen's theorem) with an
integer max-flow over exactly scaled rational weights, and locates the
minimum feasible epsilon by a monotone search over the pairwise-distance
breakpoints.  A subset-enumeration oracle covers small supports, and the
Hausdorff distance between finite measure sets is built on top.
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_right
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

_MAX_SCALE = 1 << 60


@dataclass(frozen=True)
class LpResult:
    value: float
    method: str  # "exact_flow" or "brute_force"


@dataclass(frozen=True)
class HausdorffResult:
    value: float
    argmax_side: str  # "left" or "right"
    witness: tuple[int, int]


class _Pair:
    """Shared state for one (mu, nu) pair: scaled weights and distances."""

    def __init__(self, mu: DiscreteMeasure, nu: DiscreteMeasure):
        if mu.dim != nu.dim:
            raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
        self.wa = mu.weights()
        self.wb = nu.weights()
        lcm = 1
        for w in (*self.wa, *self.wb):
            lcm = math.lcm(lcm, w.denominator)
        if lcm > _MAX_SCALE:
            raise ValueError("weight denominators too large for exact flow scaling")
        self.scale = lcm
        self.ca = np.array([int(w * lcm) for w in self.wa], dtype=np.int64)
        self.cb = np.array([int(w * lcm) for w in self.wb], dtype=np.int64)
        self.dist = cdist(mu.points(), nu.points())
        self.p = len(self.wa)
        self.q = len(self.wb)

    def max_coupling(self, eps: float) -> Fraction:
        """Largest coupling mass placeable on pairs at distance <= eps."""
        mask = self.dist <= eps
        ii, jj = np.nonzero(mask)
        p, q = self.p, self.q
        if len(ii) == 0:
            return Fraction(0)
        sink = p + q + 1
        rows = np.concatenate([np.zeros(p, dtype=np.int64), 1 + ii, 1 + p + np.arange(q)])
        cols = np.concatenate([1 + np.arange(p), 1 + p + jj, np.full(q, sink)])
        # middle edges effectively uncapacitated
        caps = np.concatenate([self.ca, np.full(len(ii), self.scale, dtype=np.int64), self.cb])
        graph = csr_matrix((caps, (rows, cols)), shape=(sink + 1, sink + 1))
        flow = maximum_flow(graph, 0, p + q + 1).flow_value
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
    if eps < 0:
        raise ValueError("negative epsilon")
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
    if mu.atoms == nu.atoms:
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
