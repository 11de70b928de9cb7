"""Exact Levy-Prokhorov distances between discrete measures.

The main engine sweeps the pairwise-distance breakpoints upward and grows one
integer max-flow (Strassen's theorem) over the measures' masses scaled to one
common denominator, in Python ints at every scale, until the minimum feasible
epsilon is located (Garel & Masse, AStA 2009).  The distance-0 edges open
first, and the mass they leave unmatched bounds d_LP from above, so the rest
of the sweep runs under that ceiling and sorts only the few edges below it,
in one stable sort by distance (ties row-major).  A small pair (|A||B| <=
2(|A| + |B|)) sorts (distance, i, j) tuples from Python lists instead, the
same order without numpy's per-call cost on a few numbers.  Each max flow
searches for an augmenting path, each search in a breadth-first tree of its
own, only while some atom of mu with mass left and some atom of nu with room
left both touch an opened edge; otherwise no path exists, and no search tree
is built.  A subset-enumeration oracle covers small supports: it tests
Strassen's condition on every union of the smaller side's atoms, its masses
over the two denominators' lcm and its distances compared as floats, one way
only (for probability measures the largest deficit is the same both ways, by
a complement argument), at the distance levels its binary search probes (the
largest deficit never rises from one level to the next, so O(log L) of the L
levels settle the answer).
The Hausdorff distance between finite measure sets is built on top.
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter, sub
from typing import Sequence

import numpy as np

from .measures import DiscreteMeasure, real_value

__all__ = [
    "LpResult",
    "HausdorffResult",
    "lp_feasible",
    "lp_distance",
    "lp_distance_bruteforce",
    "hausdorff",
]


def cdist(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """scipy's Euclidean cdist, the one distance kernel, loaded on the first call.

    The import rebinds this module's `cdist` to scipy's function, so every
    later call goes straight to scipy, and a caller that computes no distance
    (norms, profiles, `actionlim limit`) never imports scipy at all.
    """
    global cdist
    from scipy.spatial.distance import cdist
    return cdist(xa, xb)


@dataclass(frozen=True)
class LpResult:
    value: float
    method: str  # "exact_flow" or "brute_force"


@dataclass(frozen=True)
class HausdorffResult:
    value: float
    argmax_side: str  # "left" or "right"
    witness: tuple[int, int]
    # candidates = tv_ends + gap_skips + pairs, pairs = prunes + exact; a candidate is a
    # visited (i, j) whose distance was not yet known; tv_ends are the rows ended by the
    # total-variation bound of their first candidate; pushes (along single opened edges),
    # augmentations (along longer tree paths), rebuilds (one breadth-first tree per search;
    # a search is made only while an A-atom with mass left and a B-atom with room left
    # both have an opened edge) and breakpoints (sweep steps whose flow was tested) and
    # edges_sorted (candidate edges at positive distance the sweep put in order;
    # distance-0 edges open unsorted) are summed over the pairs
    counts: dict[str, int] = field(default_factory=dict, compare=False)


# the counters each flow pair keeps, summed into HausdorffResult.counts in this order
_PAIR_COUNTS = ("pushes", "augmentations", "rebuilds", "breakpoints", "edges_sorted")


class _Pair:
    """One (mu, nu) pair as an incremental max-flow in Python ints: source ->
    A-atom (mu's masses) -> B-atom over the opened edges (uncapacitated) ->
    sink (nu's masses), all masses over one common scale; `dist` is the caller's
    cdist(mu.points(), nu.points()).  The pair keeps no search tree: each
    search builds its own breadth-first tree over every opened edge.  The pair
    counts its direct pushes, its tree-path augmentations, the trees its
    searches built (one per search), and the breakpoints `_distance_upto` tests
    on it and the edges it puts in order.

    Two counters decide when a search can find nothing: live_a counts the
    A-atoms with residual source mass and at least one opened edge, live_b the
    B-atoms with residual sink capacity and at least one opened edge into them
    (entered).  An augmenting path leaves the source into an A-atom with
    residual mass and goes on along one of its opened edges; it enters the sink
    from a B-atom with residual capacity, which it reached along an opened edge
    (the residual graph's only arcs into a B-atom).  So while either count is 0
    no augmenting path exists and the flow is already maximum: `max_flow`
    searches only while both are positive, and builds no tree otherwise.
    Only flow along an atom's edges lowers its residual mass, and a measure
    stores no zero mass, so an atom's first edge finds all of it: each count
    rises when an atom's first edge opens and falls when a push or an
    augmentation empties the atom.  So a pair's state is its residual graph
    and the two counts.  The pair does not remember that its flow is
    maximum: the sweep calls `max_flow` once after each `open`, and never
    twice with nothing opened in between."""

    def __init__(self, mu: DiscreteMeasure, nu: DiscreteMeasure, dist: np.ndarray):
        self.scale = math.lcm(mu.denom, nu.denom)
        self.src = [m * (self.scale // mu.denom) for m in mu.masses]  # residual source -> A
        self.snk = [m * (self.scale // nu.denom) for m in nu.masses]  # residual B -> sink
        self.out: list[list[int]] = [[] for _ in self.src]  # opened edges A -> B
        self.into: list[dict[int, int]] = [{} for _ in self.snk]  # into[j][i]: flow A_i -> B_j
        self.flow = 0
        self.dist = dist
        self.entered = [False] * len(self.snk)  # B_j has an opened edge into it
        self.live_a = self.live_b = 0  # see the class docstring
        self.pushes = self.augmentations = self.rebuilds = self.breakpoints = self.edges_sorted = 0

    def open(self, edges) -> None:
        """Add A -> B edges, pushing min(src[i], snk[j]) straight along each one
        (source -> A_i -> B_j -> sink is an augmenting path).  A new edge may
        also open a longer augmenting path, which only `max_flow` finds."""
        src, snk, into, out, entered = self.src, self.snk, self.into, self.out, self.entered
        pushes = flow = 0
        live_a, live_b = self.live_a, self.live_b
        for i, j in edges:
            if not out[i]:
                live_a += 1
            out[i].append(j)
            if not entered[j]:
                entered[j] = True
                live_b += 1
            if push := min(src[i], snk[j]):
                src[i] -= push
                snk[j] -= push
                into[j][i] = push
                flow += push
                pushes += 1
                if not src[i]:
                    live_a -= 1
                if not snk[j]:
                    live_b -= 1
        self.live_a, self.live_b = live_a, live_b
        self.pushes += pushes
        self.flow += flow

    def _search(self) -> tuple[int, list, list] | None:
        """One breadth-first tree from the source over the residual graph, grown
        until it reaches a B-atom j with residual sink capacity: (j, reach_a,
        reach_b), where reach_a[i] is -1 (the source) or the B-atom that reached
        A_i and reach_b[j] the A-atom that reached B_j; None if it reaches none."""
        self.rebuilds += 1
        out, into, snk = self.out, self.into, self.snk
        reach_a = [-1 if c else None for c in self.src]
        reach_b: list[int | None] = [None] * len(snk)
        queue = deque([i for i, c in enumerate(self.src) if c and out[i]])
        while queue:
            i = queue.popleft()
            for j in out[i]:
                if reach_b[j] is None:
                    reach_b[j] = i
                    if snk[j]:
                        return j, reach_a, reach_b
                    for k in into[j]:
                        if reach_a[k] is None:
                            reach_a[k] = j
                            queue.append(k)
        return None

    def max_flow(self) -> int:
        """Augment along tree paths to a maximum flow over the opened edges,
        searching only while both live counts are positive.  Not idempotent: a
        second call with nothing opened in between searches again (and finds
        nothing), so the sweep calls it once after each `open` and never twice
        in a row."""
        while self.live_a and self.live_b and (found := self._search()):
            j, reach_a, reach_b = found
            path = [(reach_b[j], j)]  # A -> B edges of the tree path, from the sink back
            while (back := reach_a[path[-1][0]]) >= 0:
                path.append((reach_b[back], back))
            rev = [(i, b) for (i, _), (_, b) in zip(path, path[1:])]  # B_b -> A_i, cancelling flow
            first = path[-1][0]
            push = min(self.snk[j], self.src[first], *(self.into[b][i] for i, b in rev))
            self.snk[j] -= push
            self.src[first] -= push
            if not self.snk[j]:
                self.live_b -= 1
            if not self.src[first]:
                self.live_a -= 1
            for i, b in path:
                self.into[b][i] = self.into[b].get(i, 0) + push
            for i, b in rev:
                self.into[b][i] -= push
                if not self.into[b][i]:
                    del self.into[b][i]
            self.flow += push
            self.augmentations += 1
        return self.flow


def _sorted_edges(pair: _Pair, flat: np.ndarray):
    """The edges (distance, i, j) at flat, ascending row-major indices into
    dist, in the order of one stable argsort by distance: by distance, then
    row-major.  pair.edges_sorted counts the edges sorted."""
    dists = pair.dist.ravel()[flat]
    order = np.argsort(dists, kind="stable")
    pair.edges_sorted += len(order)
    ii, jj = np.divmod(flat[order], pair.dist.shape[1])
    return zip(dists[order].tolist(), ii.tolist(), jj.tolist())


def _distance_upto(pair: _Pair, ceiling: float = math.inf) -> float | None:
    """d_LP of a fresh pair, correctly rounded, if it is <= ceiling (>= 0), else None.

    Sweeps the breakpoints 0 and each pairwise distance below min(ceiling, 1)
    upward, opening that distance's edges and growing the flow F: the least
    feasible eps in [b, next breakpoint) exists iff 1 - F < next, and is then
    max(b, 1 - F).  Past the last breakpoint under a ceiling below 1, d_LP <=
    ceiling iff 1 - F <= ceiling.

    The distance-0 edges, the sweep's first group, open first in row-major
    order (distinct atoms whose distance underflows to 0.0 among them), and
    their max flow F lowers the ceiling to 1 - F (in units of 1/scale, rest
    = scale - F).  This is exact: the coupling that routes F along the
    distance-0 edges and the rest anywhere puts mass at most rest/scale on
    pairs farther apart than rest/scale, so d_LP <= rest/scale (<= the total
    variation, Gibbs & Su 2002).  rest / scale is rounded to nearest; one
    integer compare tells whether it fell below the exact value, and
    math.nextafter then steps it up, so the lower ceiling is never below
    d_LP.  The sweep then goes on over the positive distances under that
    ceiling.  It stops at the first breakpoint above d_LP with the test it
    would make under the caller's ceiling, or, where that breakpoint lies
    above the new ceiling, with the same test past the last breakpoint; so
    values, pushes, trees and breakpoints are those of the sweep over every
    edge, and only the distance-0 edges go unsorted.

    The edges come in one order, by distance and then row-major, from one
    of two paths chosen by the pair's size.  A small pair (|A||B| <= 2(|A| +
    |B|)) takes `_upto_lists`, which sorts Python tuples from one
    `dist.tolist()`, where numpy's per-call cost outweighs a few numbers; a
    larger pair takes `_upto_arrays`, whose numpy mask and argsort cost less
    per edge.  Both give the same values, trees and counts.
    """
    dist = pair.dist
    if dist.size <= 2 * sum(dist.shape):
        return _upto_lists(pair, ceiling)
    return _upto_arrays(pair, ceiling)


def _upto_lists(pair: _Pair, ceiling: float) -> float | None:
    """`_distance_upto` over the rows of dist as Python lists.  Sorting (d, i, j)
    tuples orders by distance, then row-major, as one stable argsort over
    row-major flat indices does, and tolist gives the same float64 values."""
    rows = pair.dist.tolist()
    zeros = [(i, j) for i, row in enumerate(rows) for j, d in enumerate(row) if d == 0.0]
    ceiling, rest = _open_zeros(pair, zeros, ceiling) if zeros else (ceiling, pair.scale)
    # with no bound below 1, the float below 1.0 keeps exactly the distances d < 1.0
    top = ceiling if ceiling < 1 else math.nextafter(1.0, 0.0)
    edges = sorted([(d, i, j) for i, row in enumerate(rows) for j, d in enumerate(row) if 0.0 < d <= top])
    pair.edges_sorted += len(edges)
    return _sweep(pair, edges, ceiling, rest)


def _upto_arrays(pair: _Pair, ceiling: float) -> float | None:
    """`_distance_upto` over numpy masks of dist's row-major flat view (flat
    index k is edge divmod(k, |B|), in np.nonzero's order), its edges sorted
    by `_sorted_edges`."""
    flat = pair.dist.ravel()
    zeros = np.flatnonzero(flat == 0.0)
    edges = [divmod(k, pair.dist.shape[1]) for k in zeros.tolist()]
    ceiling, rest = _open_zeros(pair, edges, ceiling) if edges else (ceiling, pair.scale)
    mask = flat <= ceiling if ceiling < 1 else flat < 1.0
    mask[zeros] = False
    return _sweep(pair, _sorted_edges(pair, np.flatnonzero(mask)), ceiling, rest)


def _open_zeros(pair: _Pair, edges, ceiling: float) -> tuple[float, int]:
    """Open the distance-0 edges, grow their max flow F and return (min(ceiling,
    rest/scale rounded up), rest), rest = scale - F: the sweep's first breakpoint
    tests this rest, with no second max-flow call."""
    scale = pair.scale
    pair.open(edges)
    rest = scale - pair.max_flow()
    up = rest / scale
    n, d = up.as_integer_ratio()
    if n * scale < rest * d:
        up = math.nextafter(up, math.inf)
    return min(ceiling, up), rest


def _sweep(pair: _Pair, edges, ceiling: float, rest: int) -> float | None:
    """The breakpoint sweep of `_distance_upto` over the positive-distance edges,
    given as (distance, i, j) in order, from rest = 1 - F in units of 1/scale, F
    the max flow over the distance-0 edges (0, rest = scale, where none opened).
    Each step opens one distance's edges and calls `max_flow` once, right after
    that `open`; each breakpoint is tested against the rest already in hand."""
    scale = pair.scale
    if ceiling < 1:
        cn, cd = ceiling.as_integer_ratio()
    else:
        cn, cd = 1, 0  # no bound: every d_LP <= 1 is returned
    b = 0.0
    for nxt, group in itertools.groupby(edges, key=itemgetter(0)):  # each nxt > b
        pair.breakpoints += 1
        n, d = nxt.as_integer_ratio()
        if rest * d < n * scale:
            return _max_float(b, rest, scale)
        b = nxt
        pair.open((i, j) for _, i, j in group)
        rest = scale - pair.max_flow()
    pair.breakpoints += 1
    return _max_float(b, rest, scale) if rest * cd <= cn * scale else None


def _max_float(b: float, rest: int, scale: int) -> float:
    """max(b, rest / scale), correctly rounded, chosen by comparing ints."""
    n, d = b.as_integer_ratio()
    return b if rest * d <= n * scale else rest / scale  # int / int rounds correctly


def _check_dims(mu: DiscreteMeasure, nu: DiscreteMeasure) -> None:
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")


def lp_feasible(mu: DiscreteMeasure, nu: DiscreteMeasure, eps: float) -> bool:
    """True iff a coupling puts mass >= 1-eps on pairs at distance <= eps.

    eps is read by `measures.real_value` and compared as it is, so a Fraction is an exact
    threshold and a float32 eps is compared at its value, not in float32; a bool (JSON
    true), a non-number such as "0.5" or None, a NaN and a negative eps are refused with
    a ValueError.
    """
    eps = real_value(eps, "eps")
    if eps != eps:
        raise ValueError(f"epsilon is not a number: eps={eps!r}")
    if eps < 0:
        raise ValueError("negative epsilon")
    _check_dims(mu, nu)
    if eps >= 1:  # d_LP <= 1 always
        return True
    return _distance_upto(_Pair(mu, nu, cdist(mu.points(), nu.points())), eps) is not None


def lp_distance(mu: DiscreteMeasure, nu: DiscreteMeasure) -> LpResult:
    """Exact Levy-Prokhorov distance via the flow engine."""
    _check_dims(mu, nu)
    dist = cdist(mu.points(), nu.points())
    return LpResult(_distance_upto(_Pair(mu, nu, dist)), "exact_flow")


def lp_distance_bruteforce(mu: DiscreteMeasure, nu: DiscreteMeasure) -> LpResult:
    """Oracle: evaluate the Borel-set definition over all unions of atoms.

    Guarded to combined supports of at most 10 atoms.  The masses sit on
    scale = lcm(mu.denom, nu.denom) as Python ints; the pairwise distances
    stay the floats cdist gives.  N_eps(T) at a level eps, itself a float, is
    decided by the float compare d <= eps, which is exact.  A distance >= 1
    (inf, where cdist overflows, included) is never a level and never <= a
    probed level, since every level is below 1, so it needs no clamp.

    The condition is tested one way only, over the unions T of the measure
    with fewer atoms (mu on a tie), say mu: mu(T) <= nu(N_eps(T)) + eps.  For
    probability measures the largest deficit mu(T) - nu(N_eps(T)) equals the
    largest deficit the other way.  For a union T of nu's atoms, let S be
    the mu-atoms outside N_eps(T); no atom of T lies within eps of S, so
    nu(N_eps(S)) <= 1 - nu(T), and nu(T) - mu(N_eps(T)) = nu(T) - 1 + mu(S)
    <= mu(S) - nu(N_eps(S)).  The same holds with mu and nu swapped, and both
    largest deficits are >= 0 (take T = every atom), so either side gives W.

    Let l_0 = 0 < l_1 < ... be the distances below 1, and l_L = 1 + 1/scale.
    N_eps(T) is constant for eps in [l_k, l_k+1), so eps there is feasible iff
    eps >= W_k, the largest deficit at l_k; the least feasible eps of that
    interval is max(l_k, W_k) if it is below l_k+1.  N_eps(T) only grows with
    eps, so W_k never rises with k and `max(l_k, W_k) < l_k+1` is monotone in
    k; it holds in the last interval, as every deficit is at most 1.  A binary
    search over k finds the first k where it holds, and d_LP = max(l_k, W_k),
    with one pass over the unions per level it probes.

    Each probed level costs one exact compare: as l_k < l_k+1, the test is
    W_k < l_k+1, one integer cross-multiplication of W_k (an int over scale)
    with l_k+1's integer ratio.  The answer max(l_k, W_k / scale) is taken
    between floats: rounding to nearest keeps the order against the float
    l_k, so it is l_k or W_k / scale (int / int, correctly rounded), the
    correctly rounded d_LP.
    """
    _check_dims(mu, nu)
    if mu.support_size + nu.support_size > 10:
        raise ValueError("combined support too large for brute force (max 10 atoms)")
    if nu.support_size < mu.support_size:  # d_LP is symmetric: enumerate the smaller side
        mu, nu = nu, mu

    scale = math.lcm(mu.denom, nu.denom)
    dist = cdist(mu.points(), nu.points()).tolist()

    def subset_masses(m: DiscreteMeasure) -> list[int]:
        table = [0]  # table[T]: mass of the atoms whose bits are set in T
        up = scale // m.denom
        for x in m.masses:
            table += [t + x * up for t in table]
        return table

    own, other = subset_masses(mu), subset_masses(nu)

    def worst_deficit(eps: float) -> int:
        """The largest mu(T) - nu(N_eps(T)) over every union T of mu's atoms (0 for the empty one)."""
        reach = [0]  # reach[T]: bitmask of nu's atoms in N_eps(T), bits as in own
        for row in dist:
            near = sum(1 << j for j, d in enumerate(row) if d <= eps)
            reach += [r | near for r in reach]
        return max(map(sub, own, map(other.__getitem__, reach)))

    levels = sorted({d for row in dist for d in row if d < 1.0} | {0.0})  # l_0 ... l_L-1
    least: dict[int, float] = {}  # k -> max(l_k, W_k), for each level k the search probes

    def feasible_below_next(k: int) -> bool:
        """Whether the least feasible eps in [l_k, l_k+1) exists."""
        worst = worst_deficit(levels[k])
        least[k] = max(levels[k], worst / scale)  # int / int rounds correctly
        if k + 1 == len(levels):  # l_L = 1 + 1/scale exceeds every deficit
            return True
        n, d = levels[k + 1].as_integer_ratio()
        return worst * d < n * scale

    # the key holds at the last level, so the first k where it holds is one the search probed
    first = bisect_left(range(len(levels)), True, key=feasible_below_next)
    return LpResult(least[first], "brute_force")


def _tv(mu: DiscreteMeasure, nu: DiscreteMeasure) -> tuple[int, int]:
    """The total variation 1 - sum over x of min(mu(x), nu(x)), exactly, as
    (rest, scale): TV = rest / scale, scale = lcm of the two denominators.

    Equal support rows are found by their bytes (each C-ordered float64 row
    viewed as one void item), which is float equality here: a
    DiscreteMeasure stores no -0.0 and no NaN.  Distinct atoms whose cdist
    underflows to 0.0 count as distinct, so TV may exceed what the flow
    engine's distance-0 edges match; it is still >= d_LP (Gibbs & Su 2002).
    """
    scale = math.lcm(mu.denom, nu.denom)
    row = f"V{8 * mu.dim}"
    up_mu, up_nu = scale // mu.denom, scale // nu.denom
    own = dict(zip(mu.support.view(row).ravel().tolist(), mu.masses))
    common = 0
    for key, m in zip(nu.support.view(row).ravel().tolist(), nu.masses):
        if x := own.get(key):
            common += min(x * up_mu, m * up_nu)
    return scale - common, scale


def _directed(A: Sequence[DiscreteMeasure], B: Sequence[DiscreteMeasure],
              known: np.ndarray, counts: dict, floor: float = -1.0):
    """max(floor, sup over a of inf over b of d_LP(a, b)), with witness indices.

    Candidate b's are tried starting at the index paired with a; each is
    dropped as soon as it is shown not to lower the current best cur.
    known[i, j] is NaN until settled, then d_LP(A[i], B[j]) exactly (as the
    correctly rounded float every engine returns), or an upper bound on that
    float that is at most the running sup of every pass that reads it (the
    total-variation end below); it is read and written.

    A row's first candidate, when unknown and once the running sup is >= 0,
    is first tested by its exact total variation (`_tv`), rounded to the
    nearest float: if that is <= the running sup, the row ends with no
    cdist, no flow and no update of sup or witness (tv_ends).  This is
    exact: d_LP <= TV (Gibbs & Su 2002), rounding to nearest keeps the
    order, so the candidate's float d_LP, and with it the row's inf, is <=
    the sup, and the sup moves only on a strictly larger row.  The sup is
    stored in known[i, j] as that upper bound.  The forward pass never reads
    a cell of its own row twice; a bound it stores is at most the forward
    value, the reverse pass's floor, so the reverse pass ends a row as soon
    as it reads one (cur falls to the bound, at most its running sup); a
    bound the reverse pass stores is read by nothing.

    Any other candidate is settled by its known value; by its cdist
    matrix when min(1, gap) >= cur, gap the least atom distance (gap skip:
    for eps < gap no atom of b lies within eps of a's support, so Strassen's
    condition needs eps >= 1 and d_LP >= min(1, gap) >= cur; at cur = inf
    nothing is skipped, not even a pair whose distances all overflow to
    inf, whose d_LP is 1); or by a flow pair, which
    returns the exact distance or proves it above cur (prune).  A skip or
    prune leaves the min unchanged, since only d < cur lowers it.  A row ends
    as soon as cur <= the running sup (early break, Taha & Hanbury, TPAMI
    2015): its inf is at most cur, and the sup moves only on a strictly larger
    row, so value and witness are those of the full loop.

    The running sup starts at floor, so a row also ends once cur <= floor.
    Where the directed sup exceeds floor, value and witness are still those of
    the full loop: a row whose inf is <= floor cannot attain that sup, and a
    row whose inf is above floor never meets the floor (cur is never below
    the inf), so it is scanned as before.  Where no row exceeds floor, the
    result is (floor, (0, 0)).  `hausdorff` passes the forward value as the
    reverse pass's floor (at the default -1 every row counts).
    """
    best_val = floor
    best_witness = (0, 0)
    for i, a in enumerate(A):
        order = itertools.chain([i], range(i), range(i + 1, len(B))) if i < len(B) else range(len(B))
        row = known[i].tolist()
        cur, cur_j = math.inf, 0  # the first candidate sets both: at cur = inf it is never skipped or pruned
        for j in order:
            d = row[j]
            if d != d:  # NaN: not yet computed
                counts["candidates"] += 1
                b = B[j]
                if cur == math.inf and best_val >= 0:  # the first candidate, under a sup
                    rest, scale = _tv(a, b)
                    if rest / scale <= best_val:  # d_LP <= TV, rounded alike: cur falls to the sup, the row ends
                        counts["tv_ends"] += 1
                        cur = known[i, j] = best_val
                        break
                dist = cdist(a.points(), b.points())
                if cur <= 1.0 and dist.min() >= cur:  # min(1, gap) >= cur
                    counts["gap_skips"] += 1
                    continue
                counts["pairs"] += 1
                pair = _Pair(a, b, dist)
                exact = _distance_upto(pair, cur)
                for key in _PAIR_COUNTS:
                    counts[key] += getattr(pair, key)
                if exact is None:
                    counts["prunes"] += 1
                    continue
                counts["exact"] += 1
                d = known[i, j] = exact
            if d < cur:
                cur, cur_j = d, j
            if cur <= best_val or cur == 0.0:
                break
        if cur > best_val:
            best_val = cur
            best_witness = (i, cur_j)
    return best_val, best_witness


def hausdorff(A: Sequence[DiscreteMeasure], B: Sequence[DiscreteMeasure]) -> HausdorffResult:
    """Hausdorff distance between two finite sets of measures under d_LP.

    The two directed passes share one (len(A), len(B)) array of settled
    distances, exact or bounded above by the forward value; the reverse pass
    reads its transpose, so a distance settled in one pass is not settled
    again in the other.  A pair skipped or pruned in one pass is settled
    afresh, by its total variation, its gap or a flow, if the other visits
    it.  The reverse pass starts its running sup at the forward value
    (`_directed`'s floor).
    """
    A, B = list(A), list(B)
    if not A or not B:
        raise ValueError("hausdorff requires nonempty measure sets")
    dims = {m.dim for m in A} | {m.dim for m in B}
    if len(dims) != 1:
        raise ValueError(f"mixed dimensions {sorted(dims)}")
    known = np.full((len(A), len(B)), np.nan)
    counts = dict.fromkeys(("candidates", "tv_ends", "gap_skips", "pairs", "prunes", "exact") + _PAIR_COUNTS, 0)
    left, w_left = _directed(A, B, known, counts)
    right, w_right = _directed(B, A, known.T, counts, left)
    if left >= right:
        return HausdorffResult(left, "left", w_left, counts)
    return HausdorffResult(right, "right", (w_right[1], w_right[0]), counts)
