import dataclasses
import hashlib
import itertools
import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow
from scipy.spatial.distance import cdist

from actionlim import (
    DiscreteMeasure,
    empirical,
    hausdorff,
    lp_distance,
    lp_distance_bruteforce,
    lp_feasible,
    marginal,
    profile_sample,
    shift,
)
from actionlim import harness, lp_metric
from actionlim.lp_metric import (HausdorffResult, LpResult, _distance_upto, _Pair, _sorted_edges, _upto_arrays,
                                  _upto_lists)
from actionlim.operators import parse_operator_spec

dyadic = st.integers(-128, 128).map(lambda i: i / 64.0)
coarse = st.integers(-4, 4).map(lambda i: i / 8)  # nine points, so measures often share an atom


@st.composite
def dyadic_measures(draw, dim, max_atoms=4, coords=dyadic, min_atoms=1):
    m = draw(st.integers(min_atoms, max_atoms))
    pts = [tuple(draw(coords) for _ in range(dim)) for _ in range(m)]
    raw = [draw(st.integers(1, 8)) for _ in range(m)]
    total = sum(raw)
    return DiscreteMeasure(dim, zip(pts, (Fraction(r, total) for r in raw)))


def dirac(*coords):
    return empirical([coords])


def new_pair(a, b):
    """A fresh flow pair over the atoms' cdist matrix, as lp_distance builds it."""
    return _Pair(a, b, cdist(a.points(), b.points()))


class TestKnownValues:
    def test_identical_measures(self):
        mu = empirical([(0.0,), (1.0,)])
        assert lp_distance(mu, mu).value == 0.0

    def test_two_diracs_close(self):
        # distance eps works iff eps >= 0.5: ball reach needs eps >= 0.5
        assert lp_distance(dirac(0.0), dirac(0.5)).value == 0.5

    def test_two_diracs_far_caps_at_one(self):
        assert lp_distance(dirac(0.0), dirac(7.0)).value == 1.0

    def test_mass_defect(self):
        mu = DiscreteMeasure(1, [((0.0,), Fraction(1, 2)), ((1.0,), Fraction(1, 2))])
        assert lp_distance(mu, dirac(0.0)).value == 0.5

    def test_small_mass_far_atom(self):
        # only 1/8 of the mass is displaced, so eps = 1/8 suffices
        mu = DiscreteMeasure(1, [((0.0,), Fraction(7, 8)), ((5.0,), Fraction(1, 8))])
        assert lp_distance(mu, dirac(0.0)).value == 0.125

    def test_euclidean_distance_multidim(self):
        assert lp_distance(dirac(0.0, 0.0), dirac(0.3, 0.4)).value == pytest.approx(0.5)

    @pytest.mark.parametrize("call", [lp_distance, lambda a, b: lp_feasible(a, b, 0.5)],
                             ids=["lp_distance", "lp_feasible"])
    def test_dimension_mismatch_message(self, call):
        with pytest.raises(ValueError, match="^dimension mismatch: 1 vs 2$"):
            call(dirac(0.0), dirac(0.0, 0.0))


class TestFeasibility:
    def test_monotone_in_eps(self):
        a, b = dirac(0.0), dirac(0.5)
        assert not lp_feasible(a, b, 0.25)
        assert lp_feasible(a, b, 0.5)
        assert lp_feasible(a, b, 0.75)

    def test_exact_rational_threshold(self):
        mu = DiscreteMeasure(1, [((0.0,), Fraction(2, 3)), ((10.0,), Fraction(1, 3))])
        assert lp_feasible(mu, dirac(0.0), Fraction(1, 3))
        assert not lp_feasible(mu, dirac(0.0), Fraction(1, 3) - Fraction(1, 10**9))

    @pytest.mark.parametrize("eps", [1.0, math.inf, math.nan], ids=["one", "inf", "nan"])
    def test_eps_one_inf_nan(self, eps):
        # the diracs sit 5 apart, so d_LP = 1: every eps >= 1 is feasible, NaN is refused
        a, b = dirac(0.0), dirac(5.0)
        if math.isnan(eps):
            with pytest.raises(ValueError, match="^epsilon is not a number: eps=nan$"):
                lp_feasible(a, b, eps)
        else:
            assert lp_feasible(a, b, eps)

    def test_negative_eps_refused(self):
        with pytest.raises(ValueError, match="^negative epsilon$"):
            lp_feasible(dirac(0.0), dirac(0.0), -0.5)


class TestOracleAgreement:
    @given(dyadic_measures(1), dyadic_measures(1))
    @settings(max_examples=60, deadline=None)
    def test_dim1(self, a, b):
        # both engines return the correctly rounded float of the same exact rational
        assert lp_distance(a, b).value == lp_distance_bruteforce(a, b).value

    @given(dyadic_measures(3), dyadic_measures(3))
    @settings(max_examples=60, deadline=None)
    def test_dim3(self, a, b):
        assert lp_distance(a, b).value == lp_distance_bruteforce(a, b).value


def fraction_reference(mu, nu):
    """Reference oracle in Fractions: per union T of atoms, its mass, the sorted
    least distances from T to the other side's atoms and their prefix masses;
    Strassen's condition both ways at every candidate, binary searched."""
    def tables(x, y):
        dist, wx, wy = cdist(x.points(), y.points()), x.weights(), y.weights()
        out = []
        for bits in range(1, 1 << len(wx)):
            members = [i for i in range(len(wx)) if bits >> i & 1]
            mind = dist[members].min(axis=0)
            order = np.argsort(mind, kind="stable")
            prefix = list(itertools.accumulate((wy[j] for j in order), initial=Fraction(0)))
            out.append((sum(wx[i] for i in members), mind[order].tolist(), prefix))
        return out

    both = tables(mu, nu) + tables(nu, mu)

    def reach_mass(ds, prefix, eps):
        idx = bisect_right(ds, float(eps))
        # the float cutoff may be off by one ulp; correct with exact comparisons
        while idx < len(ds) and Fraction(ds[idx]) <= eps:
            idx += 1
        while idx > 0 and Fraction(ds[idx - 1]) > eps:
            idx -= 1
        return prefix[idx]

    def feasible(eps):
        return all(mass <= reach_mass(ds, prefix, eps) + eps for mass, ds, prefix in both)

    candidates = {Fraction(0), Fraction(1)}
    candidates.update(Fraction(d) for d in np.unique(cdist(mu.points(), nu.points())).tolist())
    candidates.update(mass - x for mass, _, prefix in both for x in prefix)
    ordered = sorted(c for c in candidates if 0 <= c <= 1)
    lo, hi = 0, len(ordered) - 1  # eps = 1 is always feasible
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(ordered[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(ordered[lo])


# 5-point grid coordinates, so distances tie and reach 0
grid5 = st.sampled_from([-0.5, -0.25, 0.0, 0.25, 0.5])


@st.composite
def grid_measure(draw, dim, atoms):
    """A measure on exactly `atoms` distinct grid points, with masses over a
    small denominator, one near 2^31 or one of at least 10^30."""
    pts = draw(st.lists(st.tuples(*[grid5] * dim), min_size=atoms, max_size=atoms, unique=True))
    den = draw(st.one_of(st.integers(atoms, 16), st.integers(2**31 - 8, 2**31 + 8),
                         st.integers(10**30, 10**30 + 64)))
    cuts = sorted(draw(st.lists(st.integers(1, max(den - 1, 1)), min_size=atoms - 1, max_size=atoms - 1, unique=True)))
    masses = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, den])]
    return DiscreteMeasure(dim, points=pts, masses=masses, denom=den)


@st.composite
def oracle_pair(draw):
    """Two grid measures in dims 1-3 with combined support 2-10, often exactly 10."""
    dim = draw(st.integers(1, 3))
    room = min(5**dim, 9)  # at most 5 distinct grid points in dim 1
    total = draw(st.one_of(st.just(10), st.integers(2, 10)))
    p = draw(st.integers(max(1, total - room), min(total - 1, room)))
    return draw(grid_measure(dim, p)), draw(grid_measure(dim, total - p))


def largest_deficit(x, y, eps):
    """max of x(T) - y(N_eps(T)) over every nonempty union T of x's atoms, in Fractions."""
    dist = [[Fraction(d) for d in row] for row in cdist(x.points(), y.points()).tolist()]
    wx, wy = x.weights(), y.weights()
    deficits = []
    for bits in range(1, 1 << len(wx)):
        members = [i for i in range(len(wx)) if bits >> i & 1]
        near = [j for j in range(len(wy)) if any(dist[i][j] <= eps for i in members)]
        deficits.append(sum(wx[i] for i in members) - sum(wy[j] for j in near))
    return max(deficits)


class TestOracle:
    @given(oracle_pair())
    @settings(max_examples=80, deadline=None)
    def test_matches_fraction_reference(self, pair):
        a, b = pair
        assert a.support_size + b.support_size <= 10
        assert lp_distance_bruteforce(a, b).value == fraction_reference(a, b)

    @given(oracle_pair())
    @settings(max_examples=60, deadline=None)
    def test_largest_deficit_is_the_same_both_ways(self, pair):
        # the oracle enumerates only the smaller side's unions: for probability measures the
        # largest deficit over mu's unions equals the largest over nu's, at every level
        a, b = pair
        levels = {Fraction(0)} | {Fraction(d) for d in cdist(a.points(), b.points()).ravel().tolist()}
        for eps in sorted(levels):
            assert largest_deficit(a, b, eps) == largest_deficit(b, a, eps) >= 0

    @pytest.mark.parametrize("a, b, want", [
        # 9 + 1 atoms, the dirac's side enumerated in either order: the mass of the atoms at
        # 0, 7/8 and 1, 14/36, lies inside [5/16, 7/16)
        (DiscreteMeasure(1, points=[(x / 8,) for x in range(9)], masses=[3, 1, 4, 1, 5, 9, 2, 6, 5], denom=36),
         dirac(0.4375), 7 / 18),
        (dirac(0.0, 0.0), dirac(0.375, 0.5), 0.625),  # 1 + 1 atoms: two diracs closer than 1
    ])
    def test_smaller_side_in_either_order(self, a, b, want):
        for x, y in ((a, b), (b, a)):
            assert lp_distance_bruteforce(x, y).value == fraction_reference(x, y) == lp_distance(x, y).value == want

    def test_numpy_integer_weight_gives_a_python_float(self):
        # a numpy mass used to reach the oracle's sums, which then returned np.float64
        a = DiscreteMeasure(1, [((0.0,), np.int64(1))])
        b = DiscreteMeasure(1, [((0.0,), Fraction(1, 2)), ((2.0,), Fraction(1, 2))])
        for x, y in ((a, b), (b, a)):
            got = lp_distance_bruteforce(x, y).value
            assert got == 0.5 and type(got) is float

    def test_shares_no_code_with_the_flow_engine(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called the flow engine")

        for name in ("_Pair", "_sorted_edges", "_distance_upto"):
            monkeypatch.setattr(lp_metric, name, refuse)
        a = DiscreteMeasure(1, points=[(x / 8,) for x in (0, 2, 4, 6, 8)], masses=[5, 1, 4, 1, 2], denom=13)
        b = DiscreteMeasure(1, points=[(x / 8,) for x in (1, 3, 5, 7, 9)], masses=[1, 6, 1, 1, 2], denom=11)
        assert lp_distance_bruteforce(a, b).value == lp_distance_bruteforce(b, a).value == 42 / 143
        with pytest.raises(AssertionError, match="the oracle called the flow engine"):
            lp_distance(a, b)

    def test_every_distance_overflowing_gives_one(self):
        # cdist overflows to inf; the oracle clamps it to 1 before taking its integer ratio
        a, b = dirac(1e200, 0.0), dirac(0.0, 1e200)
        for x, y in ((a, b), (b, a)):
            assert lp_distance_bruteforce(x, y).value == lp_distance(x, y).value == 1.0

    def test_guard_boundary(self):
        five = empirical([(x,) for x in (0.0, 0.25, 0.5, 0.75, 1.0)])
        shifted = shift(five, (0.25,))
        # four atoms coincide, so 4/5 of the mass couples at distance 0
        assert lp_distance_bruteforce(five, shifted) == LpResult(0.2, "brute_force")
        six = empirical([(x,) for x in (0.0, 0.25, 0.5, 0.75, 1.0, 1.25)])
        with pytest.raises(ValueError, match="^combined support too large"):
            lp_distance_bruteforce(six, shifted)

    @pytest.mark.parametrize("den", [7, 2**31 - 1, 10**30 + 7])
    def test_identical_measures_zero(self, den):
        mu = DiscreteMeasure(2, points=[(0.0, 0.0), (0.25, 0.0), (0.0, 0.25), (-0.5, 0.5), (0.5, 0.5)],
                             masses=[1, 1, 1, 2, den - 5], denom=den)
        assert lp_distance_bruteforce(mu, mu).value == 0.0

    # the oracle binary searches the levels l_0 = 0 < l_1 < ... (the distances below 1):
    # d_LP = max(l_k, W_k) at the first k where that is below l_k+1, W_k the largest deficit
    @pytest.mark.parametrize("a, b, want", [
        # at l_1 = 0.5 every deficit is 0 <= l_1, so d_LP is the level itself
        (dirac(0.0), dirac(0.5), 0.5),
        (empirical([(0.0,), (0.25,)]), empirical([(0.125,), (0.625,)]), 0.375),
        # W_0 = 1/4 (the far atom's mass) lies strictly inside [0, 0.875)
        (dirac(0.0), DiscreteMeasure(1, [((0.0,), Fraction(3, 4)), ((0.875,), Fraction(1, 4))]), 0.25),
        (dirac(0.0), DiscreteMeasure(1, [((0.125,), Fraction(3, 5)), ((0.875,), Fraction(2, 5))]), 0.4),
    ])
    def test_level_and_interior_answers(self, a, b, want):
        for x, y in ((a, b), (b, a)):
            assert lp_distance_bruteforce(x, y).value == fraction_reference(x, y) == want

    def test_every_distance_at_least_one(self):
        # the one level is 0, and its interval [0, 1 + 1/scale) holds eps = 1
        a = DiscreteMeasure(2, [((0.0, 0.0), Fraction(1, 3)), ((0.0, 1.0), Fraction(2, 3))])
        b = DiscreteMeasure(2, [((1.0, 0.0), Fraction(1, 7)), ((2.0, 2.0), Fraction(6, 7))])
        assert lp_distance_bruteforce(a, b).value == fraction_reference(a, b) == 1.0
        assert lp_distance_bruteforce(dirac(0.0), dirac(1.0)).value == 1.0

    def test_wide_scale_answer_at_a_level(self):
        # scale = 8 * 65537 * 65539 > 2^31; at l_1 = 0.125 the one deficit,
        # 1/65537 - 1/65539, is below the level, so d_LP is 0.125 exactly
        a = DiscreteMeasure(1, [((0.0,), Fraction(1, 65537)), ((0.25,), Fraction(65536, 65537))])
        b = DiscreteMeasure(1, [((0.125,), Fraction(1, 65539)), ((0.375,), Fraction(65538, 65539))])
        assert math.lcm(65537, 65539, 8) > 2**31
        for x, y in ((a, b), (b, a)):
            assert lp_distance_bruteforce(x, y).value == fraction_reference(x, y) == 0.125

    def test_equidistant_atoms(self):
        # every cross distance is 1/4, the one level above 0: W_0 = 1, W_1 = 0
        a = DiscreteMeasure(2, [((0.0, 0.0), Fraction(1))])
        b = DiscreteMeasure(2, zip([(0.25, 0.0), (-0.25, 0.0), (0.0, 0.25), (0.0, -0.25)],
                                   [Fraction(1, 10), Fraction(2, 10), Fraction(3, 10), Fraction(4, 10)]))
        for x, y in ((a, b), (b, a)):
            assert lp_distance_bruteforce(x, y).value == fraction_reference(x, y) == 0.25

    def test_ten_atom_grid_with_tied_distances(self):
        # two interleaved 1-D grids, 10 atoms in all: 25 distances on 5 values, so the
        # levels are 0, 1/8, 3/8, 5/8 and 7/8, and d_LP = 42/143 lies inside [1/8, 3/8)
        a = DiscreteMeasure(1, points=[(x / 8,) for x in (0, 2, 4, 6, 8)], masses=[5, 1, 4, 1, 2], denom=13)
        b = DiscreteMeasure(1, points=[(x / 8,) for x in (1, 3, 5, 7, 9)], masses=[1, 6, 1, 1, 2], denom=11)
        assert len(set(cdist(a.points(), b.points()).ravel().tolist())) == 5
        for x, y in ((a, b), (b, a)):
            assert lp_distance_bruteforce(x, y).value == fraction_reference(x, y) == lp_distance(x, y).value


class TestMetricAxioms:
    @given(dyadic_measures(2), dyadic_measures(2))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_bound(self, a, b):
        d = lp_distance(a, b).value
        assert d == lp_distance(b, a).value
        assert 0.0 <= d <= 1.0

    @given(dyadic_measures(2))
    @settings(max_examples=30, deadline=None)
    def test_identity(self, a):
        assert lp_distance(a, a).value == 0.0

    @given(dyadic_measures(1, 3), dyadic_measures(1, 3), dyadic_measures(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_triangle(self, a, b, c):
        assert lp_distance(a, b).value <= lp_distance(a, c).value + lp_distance(c, b).value + 1e-12

    @given(dyadic_measures(2), dyadic_measures(2), st.tuples(dyadic, dyadic))
    @settings(max_examples=40, deadline=None)
    def test_shift_identity(self, a, b, w):
        left = lp_distance(shift(a, w), b).value
        right = lp_distance(a, shift(b, tuple(-c for c in w))).value
        assert left == right

    @given(dyadic_measures(2), dyadic_measures(2))
    @settings(max_examples=40, deadline=None)
    def test_marginal_contraction(self, a, b):
        d_full = lp_distance(a, b).value
        d_marg = lp_distance(marginal(a, [0]), marginal(b, [0])).value
        assert d_marg <= d_full + 1e-12


def unpruned_hausdorff(A, B):
    """Reference: lp_distance on every pair, in hausdorff's order, with its strict-< rule."""
    def directed(X, Y, d):
        best, witness = -1.0, (0, 0)
        for i in range(len(X)):
            order = ([i] if i < len(Y) else []) + [j for j in range(len(Y)) if j != i]
            cur, cur_j = math.inf, order[0]
            for j in order:
                if d(i, j) < cur:
                    cur, cur_j = d(i, j), j
            if cur > best:
                best, witness = cur, (i, cur_j)
        return best, witness

    left, w_left = directed(A, B, lambda i, j: lp_distance(A[i], B[j]).value)
    right, w_right = directed(B, A, lambda i, j: lp_distance(B[i], A[j]).value)
    if left >= right:
        return HausdorffResult(left, "left", w_left)
    return HausdorffResult(right, "right", (w_right[1], w_right[0]))


# dyadic grid points, plus coordinates whose squared differences underflow or overflow
tiny_or_dyadic = st.one_of(dyadic, st.sampled_from([1e-160, -1e-160, 3e-160, 0.0, 1e200, -1e200]),
                           st.floats(-1e-160, 1e-160))


@st.composite
def measure_set_pair(draw):
    """Two measure sets drawn from one small pool, so sets repeat measures and distances tie."""
    dim = draw(st.integers(1, 3))
    pool = draw(st.lists(dyadic_measures(dim, 3, tiny_or_dyadic), min_size=1, max_size=4))
    pick = st.lists(st.sampled_from(pool), min_size=1, max_size=5)
    return draw(pick), draw(pick)


def assert_counts_add_up(c):
    assert c["candidates"] == c["gap_skips"] + c["pairs"]
    assert c["pairs"] == c["prunes"] + c["exact"]


class TestHausdorff:
    def test_zero_for_identical_sets(self):
        ms = [dirac(0.0), dirac(1.0)]
        assert hausdorff(ms, ms).value == 0.0

    def test_known_value(self):
        res = hausdorff([dirac(0.0)], [dirac(0.0), dirac(0.25)])
        assert res.value == 0.25
        assert res.argmax_side == "right"

    def test_symmetric(self):
        left = [dirac(0.0), dirac(0.5)]
        right = [dirac(0.125)]
        assert hausdorff(left, right).value == hausdorff(right, left).value

    def test_max_of_directed(self):
        # left covers right but not conversely
        left = [dirac(0.0), dirac(1.0)]
        right = [dirac(0.0)]
        assert hausdorff(left, right).value == lp_distance(dirac(1.0), dirac(0.0)).value

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            hausdorff([], [dirac(0.0)])

    def test_requires_matching_dim(self):
        with pytest.raises(ValueError):
            hausdorff([dirac(0.0)], [dirac(0.0, 0.0)])

    def test_every_distance_overflowing_is_one_not_inf(self):
        # cdist overflows to inf between the two diracs, so the gap is inf; the paired
        # candidate at cur = inf must still be computed, and d_LP = 1
        A, B = [dirac(1e200, 0.0)], [dirac(0.0, 1e200)]
        assert cdist(A[0].points(), B[0].points()).tolist() == [[math.inf]]
        for X, Y in ((A, B), (B, A)):
            res = hausdorff(X, Y)
            assert res == HausdorffResult(1.0, "left", (0, 0)) == unpruned_hausdorff(X, Y)
            assert res.counts["gap_skips"] == 0 and res.counts["exact"] == 1

    def test_gap_skip_keeps_a_closer_candidate(self):
        # the left side decides: for A[0] the paired candidate B[0] sets cur = 0.5,
        # then B[1] has gap 0.375, inside (cur / 2, cur), and is the minimum
        A = [dirac(0.0), dirac(0.5)]
        B = [dirac(0.5), dirac(0.375)]
        res = hausdorff(A, B)
        assert res == HausdorffResult(0.375, "left", (0, 1))

    @given(st.lists(dyadic_measures(1, 3), min_size=1, max_size=4),
           st.lists(dyadic_measures(1, 3), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_matches_exhaustive_search(self, A, B):
        d = [[lp_distance(a, b).value for b in B] for a in A]
        exhaustive = max(max(min(row) for row in d), max(min(col) for col in zip(*d)))
        res = hausdorff(A, B)
        assert res.value == exhaustive
        i, j = res.witness
        assert lp_distance(A[i], B[j]).value == res.value

    @given(measure_set_pair())
    @settings(max_examples=80, deadline=None)
    def test_same_result_as_unpruned_loop(self, sets):
        A, B = sets
        res = hausdorff(A, B)
        assert res == unpruned_hausdorff(A, B)  # value, side and witness; counts do not compare
        assert_counts_add_up(res.counts)

    @given(st.lists(dyadic_measures(1, 3, coarse), min_size=2, max_size=6),
           st.lists(dyadic_measures(1, 3, coarse), min_size=2, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_same_result_as_unpruned_loop_after_prunes(self, A, B):
        # a shared atom makes the gap 0 while d_LP stays large, so forward rows prune
        # often, and the reverse pass must compute some of those pairs exactly
        assert hausdorff(A, B) == unpruned_hausdorff(A, B)

    def test_candidate_with_gap_below_cur_is_computed(self):
        # row A[0] = a: B[0] sets cur = 0.75; B[1]'s nearest atom (0.375, 0.5) is 0.625
        # from a, below cur, so B[1] must be computed: its distance 0.625 is the row's
        # minimum and the Hausdorff value
        a = dirac(0.0, 0.0)
        far = dirac(0.75, 0.0)
        corner = empirical([(0.375, 0.5), (0.5, 0.625)])
        gap = cdist(a.points(), corner.points()).min()
        assert gap == 0.625
        A, B = [a, far], [far, corner]
        res = hausdorff(A, B)
        assert res == HausdorffResult(0.625, "left", (0, 1))
        assert res == unpruned_hausdorff(A, B)

    def test_forward_prune_is_computed_exactly_in_reverse(self):
        # forward row A[0]: B[0] sets cur = 0.125, then B[1] builds a pair and is pruned
        # at d_LP 0.5; in the reverse pass B[1] -> A[0] is that row's minimum (0.5, below
        # A[1]'s 0.75), so the pair pruned forward must be computed exactly there
        A = [dirac(0.0), dirac(-0.25)]
        B = [dirac(0.125), DiscreteMeasure(1, [((0.0625,), Fraction(1, 4)), ((0.5,), Fraction(3, 4))])]
        res = hausdorff(A, B)
        assert res == HausdorffResult(0.5, "right", (0, 1))
        assert res.counts["prunes"] == 1
        assert res == unpruned_hausdorff(A, B)

    def test_reverse_pass_settles_forward_skips_afresh(self):
        # A[0] = 1/4 at 0.0625 + 3/4 at 0.5625, A[1] = dirac(0.0625); B[0] = 1/4 at 0.0625
        # + 3/4 at 0.5, B[1] = dirac(0.25).  Forward: row 0 computes B[0] (0.0625) and
        # gap-skips B[1] (gap 0.1875); row 1 computes B[1] (0.1875), then B[0] shares an
        # atom with A[1] (gap 0) but sits at d_LP 0.4375, so it is pruned.  Reverse: row
        # B[0] has A[0] known (cur = 0.0625) and meets the forward prune A[1] with cur
        # finite: gap 0 < cur, so a pair is built and pruned again; row B[1] has A[1] known
        # (0.1875) and gap-skips A[0] again (gap 0.1875 >= cur).  Sup 0.1875 both ways, a
        # tie the left side wins.  Pair (0, 0) pushes at breakpoints 0 and 0.0625 and stops
        # at 0.4375 (two pushes, three trees, two breakpoints tested); the exact dirac pair
        # pushes once (two trees, two breakpoints); each prune opens only the distance-0 edge,
        # pushes 1/4 along it and fails the one test at its ceiling (two trees, one breakpoint).
        # Edges sorted: the distance-0 edges open first and are never sorted, and their flow
        # 1/4 lowers each pair's ceiling to at most 3/4, so pair (0, 0) sorts its 3 positive
        # distances (all below 3/4), the dirac pair its 1, and each prune none (its one
        # positive distance, 0.4375, is above its ceiling).
        A = [DiscreteMeasure(1, [((0.0625,), Fraction(1, 4)), ((0.5625,), Fraction(3, 4))]), dirac(0.0625)]
        B = [DiscreteMeasure(1, [((0.0625,), Fraction(1, 4)), ((0.5,), Fraction(3, 4))]), dirac(0.25)]
        res = hausdorff(A, B)
        assert res == HausdorffResult(0.1875, "left", (1, 1))
        assert res == unpruned_hausdorff(A, B)
        assert res.counts == {"candidates": 6, "gap_skips": 2, "pairs": 4, "prunes": 2, "exact": 2,
                              "pushes": 5, "augmentations": 0, "rebuilds": 9, "breakpoints": 6,
                              "edges_sorted": 4}
        assert_counts_add_up(res.counts)

    def test_counts_on_a_hand_sized_example(self):
        # forward row A[0] = dirac(0): B[0] is exact (0.25) and sets cur; B[1] straddles 0,
        # and its gap 0.5 >= cur (gap skip); B[2] sits 0.75 away, so its gap is past cur too
        # (gap skip); B[3] has an atom 0.125 away but d_LP 0.75 (pair built, then pruned).
        # The reverse pass computes B[1..3] against A[0] (B[0] is known), each first in its
        # row with cur = inf, so the forward prune of B[3] is settled afresh.  Every pair
        # opens its edges in one batch and pushes along each of them directly: one push per
        # pair, but two for B[1]'s two half atoms, and no longer tree path is left to augment.
        # Each pair builds one tree up front and one after its batch of pushes, and
        # tests two breakpoints: 0 and the one distance at which its edges open.  Each sorts
        # its edges below 1 (at or below cur for the prune): one, but two for B[1]; B[3]'s
        # edge at distance 1.0 is never a candidate.
        B = [dirac(0.25), empirical([(-0.5,), (0.5,)]), dirac(0.75),
             DiscreteMeasure(1, [((0.125,), Fraction(1, 4)), ((1.0,), Fraction(3, 4))])]
        res = hausdorff([dirac(0.0)], B)
        assert res == HausdorffResult(0.75, "right", (0, 2))
        assert res.counts == {"candidates": 7, "gap_skips": 2, "pairs": 5, "prunes": 1, "exact": 4,
                              "pushes": 6, "augmentations": 0, "rebuilds": 10, "breakpoints": 10,
                              "edges_sorted": 6}
        assert_counts_add_up(res.counts)

    def test_early_break_ends_a_row_at_the_running_sup(self):
        # A = diracs at 0, 0.3125, 0.5; B = diracs at 0.3125, 0.125, 0.375.  Forward: row 0
        # computes B[0] (0.3125) and B[1] (0.125) and gap-skips B[2]: sup 0.125.  Row 1's
        # first candidate B[1] is 0.1875, above the sup, so the row goes on to B[0] (0);
        # a break on cur <= 1.5 * sup would stop it at 0.1875.  Row 2's first candidate
        # B[2] is 0.125, a tie with the sup, so the row breaks after it; a break on
        # cur < sup would go on and gap-skip B[0] and B[1].  Reverse: row B[0] breaks at
        # its known A[1] (0) by the cur == 0 clause, as the pass has no sup yet, so A[2]
        # is never visited; row B[1] has A[1] and A[0] known and gap-skips A[2] (gap
        # 0.375 >= 0.125): sup 0.125, a tie the left side wins; row B[2] breaks at its
        # known first candidate A[2] (0.125).  Every pair is two diracs: one push, two
        # trees, two breakpoints and one edge sorted, but the pair at distance 0 tests one
        # breakpoint and sorts nothing, as its edge opens before the sweep sorts any.
        A = [dirac(0.0), dirac(0.3125), dirac(0.5)]
        B = [dirac(0.3125), dirac(0.125), dirac(0.375)]
        res = hausdorff(A, B)
        assert res == HausdorffResult(0.125, "left", (0, 1))
        assert res == unpruned_hausdorff(A, B)
        assert res.counts == {"candidates": 7, "gap_skips": 2, "pairs": 5, "prunes": 0, "exact": 5,
                              "pushes": 5, "augmentations": 0, "rebuilds": 10, "breakpoints": 9,
                              "edges_sorted": 4}
        assert_counts_add_up(res.counts)


INT32_MAX = 2**31 - 1


@st.composite
def near_int32_measures(draw, dim=1):
    """Measures whose masses share one denominator within 8 of 2^31."""
    den = draw(st.integers(2**31 - 8, 2**31 + 8))
    m = draw(st.integers(1, 3))
    cuts = sorted(draw(st.lists(st.integers(1, den - 1), min_size=m - 1, max_size=m - 1, unique=True)))
    masses = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, den])]
    pts = [tuple(draw(dyadic) for _ in range(dim)) for _ in range(m)]
    return DiscreteMeasure(dim, zip(pts, (Fraction(x, den) for x in masses)))


def two_atoms(den, p0, p1):
    return DiscreteMeasure(1, [((p0,), Fraction(1, den)), ((p1,), 1 - Fraction(1, den))])


class TestWideScale:
    """Flow scales beyond int32, the width at which scipy's max-flow once
    truncated capacities; the one engine counts in Python ints at every scale."""

    def test_int32_overflow_regression(self):
        # scale 65537 * 65539 > 2^31 - 1; the int32 flow answered 0.99994
        a, b = two_atoms(65537, 0.0, 0.5), two_atoms(65539, 0.0, 0.9)
        assert lp_distance_bruteforce(a, b).value == 0.4
        assert lp_distance(a, b).value == lp_distance(b, a).value == 0.4

    @pytest.mark.parametrize("den_a, den_b", [
        (INT32_MAX, INT32_MAX),  # scale at 2^31 - 1
        (INT32_MAX + 1, INT32_MAX + 1),  # one past it
        (INT32_MAX, 2),
        (3**40, 7),
    ])
    def test_both_sides_of_the_cap(self, den_a, den_b):
        a, b = two_atoms(den_a, 0.0, 0.25), two_atoms(den_b, 0.125, 1.0)
        assert lp_distance(a, b).value == lp_distance_bruteforce(a, b).value
        assert lp_feasible(a, b, lp_distance(a, b).value)

    @given(near_int32_measures(), near_int32_measures())
    @settings(max_examples=60, deadline=None)
    def test_denominators_near_int32_match_oracle(self, a, b):
        assert lp_distance(a, b).value == lp_distance_bruteforce(a, b).value

    @given(near_int32_measures(2), near_int32_measures(2))
    @settings(max_examples=30, deadline=None)
    def test_denominators_near_int32_match_oracle_dim2(self, a, b):
        assert lp_distance(a, b).value == lp_distance_bruteforce(a, b).value


def scipy_max_flow(pair, mask):
    """Reference: scipy's max-flow on the pair's graph with A -> B edges where mask holds."""
    p, q = mask.shape
    sink = p + q + 1
    ii, jj = np.nonzero(mask)
    rows = np.concatenate([np.zeros(p, dtype=np.int64), 1 + ii, 1 + p + np.arange(q)])
    cols = np.concatenate([1 + np.arange(p), 1 + p + jj, np.full(q, sink)])
    caps = np.array([*pair.src, *[pair.scale] * len(ii), *pair.snk], dtype=np.int64)
    graph = csr_matrix((caps, (rows, cols)), shape=(sink + 1, sink + 1))
    return int(maximum_flow(graph, 0, sink).flow_value)


def strassen_holds(a, b, eps):
    """Exact check of mu(S) <= nu(S^eps) + eps over every union S of atoms, both ways."""
    for x, y in ((a, b), (b, a)):
        near = [[Fraction(d) <= eps for d in row] for row in cdist(x.points(), y.points())]
        wx, wy = x.weights(), y.weights()
        for bits in range(1, 1 << len(wx)):
            S = [i for i in range(len(wx)) if bits >> i & 1]
            reach = sum(w for j, w in enumerate(wy) if any(near[i][j] for i in S))
            if sum(wx[i] for i in S) > reach + eps:
                return False
    return True


narrow_or_wide = st.one_of(dyadic_measures(2, 5), near_int32_measures(2))


class TestFlowEngine:
    @given(dyadic_measures(2, 6), dyadic_measures(2, 6), st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]))
    @settings(max_examples=60, deadline=None)
    def test_flow_matches_scipy_reference(self, a, b, eps):
        # narrow scales only: scipy is the reference where its capacities fit
        pair = new_pair(a, b)
        mask = pair.dist <= eps
        expected = scipy_max_flow(pair, mask)
        pair.open(zip(*np.nonzero(mask)))
        assert pair.max_flow() == expected

    @given(narrow_or_wide, narrow_or_wide, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_flow_incremental_equals_fresh(self, a, b, rnd):
        pair = new_pair(a, b)
        edges = [(i, j) for i in range(a.support_size) for j in range(b.support_size)]
        rnd.shuffle(edges)
        opened = []
        while edges:
            k = rnd.randint(1, 4)
            batch, edges = edges[:k], edges[k:]
            pair.open(batch)
            opened += batch
            fresh = new_pair(a, b)
            fresh.open(opened)
            assert pair.max_flow() == fresh.max_flow()

    @given(st.one_of(dyadic_measures(1), near_int32_measures()),
           st.one_of(dyadic_measures(1), near_int32_measures()))
    @settings(max_examples=60, deadline=None)
    def test_distance_upto_ceiling(self, a, b):
        brute = lp_distance_bruteforce(a, b).value
        d = _distance_upto(new_pair(a, b))
        exact = one_sort_distance_upto(new_pair(a, b))
        breaks = {x for x in new_pair(a, b).dist.ravel().tolist() if x < 1}
        for c in {0.0, d, math.nextafter(d, 0.0), *breaks, 1.0}:
            got = _distance_upto(new_pair(a, b), c)
            assert (got is None) == (not strassen_holds(a, b, Fraction(c)))
            assert got is None or got == brute
        # the exact value as ceiling; d rounded down as ceiling correctly gives None
        assert _distance_upto(new_pair(a, b), exact) == d
        assert d == float(exact) == brute

    @staticmethod
    def flows_after_batches(a_masses, b_masses, batches):
        """max_flow() after each opened batch, over atoms at 0, 1, 2, ... with these masses."""
        def line(masses):
            return DiscreteMeasure(1, [((float(k),), m) for k, m in enumerate(masses)])

        pair = new_pair(line(a_masses), line(b_masses))
        flows = []
        for batch in batches:
            pair.open(batch)
            flows.append(pair.max_flow())
        return pair, flows

    def test_push_then_reroute_through_a_pushed_edge(self):
        # scale 21: src (7, 14), snk (3, 6, 12).  Batch 1 pushes 7 along A0 -> B2; batch 2
        # pushes 5 along A1 -> B2, which fills B2, and the last 3 need the longer path
        # A1 -> B2 -> A0 -> B0 through the pushed edge, found only in a tree rebuilt after
        # the push
        pair, flows = self.flows_after_batches(
            [Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 7), Fraction(2, 7), Fraction(4, 7)],
            [[(0, 2), (0, 0)], [(1, 2)]])
        assert pair.scale == 21
        assert flows == [7, 15]
        assert (pair.pushes, pair.augmentations) == (2, 1)

    def test_push_is_capped_by_both_ends(self):
        # scale 4: src (3, 1), snk (2, 2); A0 -> B0 carries only B0's 2, leaving 1 of A0
        # for B1
        pair, flows = self.flows_after_batches(
            [Fraction(3, 4), Fraction(1, 4)], [Fraction(1, 2), Fraction(1, 2)], [[(0, 0)], [(0, 1)]])
        assert pair.scale == 4
        assert flows == [2, 3]


def one_sort_distance_upto(pair, ceiling=math.inf):
    """Reference: `_distance_upto` with every candidate edge put in order by one
    stable argsort over np.nonzero, before the sweep starts."""
    if ceiling < 1:
        cn, cd = ceiling.as_integer_ratio()
        ii, jj = np.nonzero(pair.dist <= ceiling)
    else:
        cn, cd = 1, 0
        ii, jj = np.nonzero(pair.dist < 1.0)
    dists = pair.dist[ii, jj]
    order = np.argsort(dists, kind="stable")
    edges = zip(dists[order].tolist(), ii[order].tolist(), jj[order].tolist())
    scale, b = pair.scale, 0.0
    for nxt, group in itertools.groupby(edges, key=lambda e: e[0]):
        if nxt > b:
            pair.breakpoints += 1
            rest = scale - pair.max_flow()
            n, d = nxt.as_integer_ratio()
            if rest * d < n * scale:
                return max(Fraction(b), Fraction(rest, scale))
            b = nxt
        pair.open((i, j) for _, i, j in group)
    pair.breakpoints += 1
    rest = scale - pair.max_flow()
    return max(Fraction(b), Fraction(rest, scale)) if rest * cd <= cn * scale else None


def candidate_mask(dist, ceiling):
    """The edges `_distance_upto` sweeps under a ceiling."""
    return dist <= ceiling if ceiling < 1 else dist < 1.0


def flow_state(pair):
    """Each A-atom's opened edges in the order they opened, the flow on each edge
    and the pair's counters: the sweep's order of equal distances decides where
    the greedy push sends mass."""
    return pair.out, pair.into, pair.pushes, pair.augmentations, pair.rebuilds, pair.breakpoints


def line_measure(m):
    """m atoms of equal mass; a stand-in where only the support sizes matter."""
    return empirical([(float(i),) for i in range(m)])


@st.composite
def tied_distance_matrices(draw):
    """A (p, q) matrix over a few multiples of 1/8 in [0, 2): long tie runs, and
    entries >= 1 that no sweep opens."""
    p, q = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.choice(np.arange(16) / 8, size=draw(st.integers(1, 6)), replace=False)
    return rng.choice(values, size=(p, q))


def grid(shift):
    """Points 1/8 apart in [-1/2, 1/2], moved by shift."""
    return st.integers(-4, 4).map(lambda i: i / 8 + shift)


# two measures of 12-40 draws on a grid, the second moved by up to 3/4: most distances
# are below 1 and tie, and a larger shift makes the sweep run through several chunks
many_atoms = st.tuples(st.integers(1, 2), st.integers(0, 12).map(lambda i: i / 16)).flatmap(
    lambda dim_shift: st.tuples(dyadic_measures(dim_shift[0], 40, grid(0.0), min_atoms=12),
                                dyadic_measures(dim_shift[0], 40, grid(dim_shift[1]), min_atoms=12)))


# the same, of 1-6 atoms: most pairs fit in `_sorted_edges`' first chunk
few_atoms = st.tuples(st.integers(1, 2), st.integers(0, 12).map(lambda i: i / 16)).flatmap(
    lambda dim_shift: st.tuples(dyadic_measures(dim_shift[0], 6, grid(0.0)),
                                dyadic_measures(dim_shift[0], 6, grid(dim_shift[1]))))


def tv_ceiling(a, b):
    """rest/scale after the distance-0 edges' max flow, rounded up to a float: the
    ceiling `_distance_upto` lowers to (1.0 when no distance is 0)."""
    pair = new_pair(a, b)
    ii, jj = np.nonzero(pair.dist == 0)
    pair.open(zip(ii.tolist(), jj.tolist()))
    rest = Fraction(pair.scale - pair.max_flow(), pair.scale)
    up = float(rest)
    return up if up >= rest else math.nextafter(up, math.inf)


def assert_sweep_matches_reference(a, b):
    """`_distance_upto` against the one-sort reference at ceilings around d_LP and at
    breakpoints: the same value, opened edges, flows and counters.  A one-chunk pair
    sorts every edge at a positive distance under the lowered ceiling, no more, no less."""
    dist = new_pair(a, b).dist
    one_chunk = dist.size <= 2 * sum(dist.shape)
    tv = tv_ceiling(a, b)
    d = one_sort_distance_upto(new_pair(a, b))
    breaks = sorted({x for x in dist.ravel().tolist() if x < 1})
    for c in {math.inf, 0.0, d, float(d), math.nextafter(float(d), 0.0), *(breaks if one_chunk else breaks[::4])}:
        pair, ref = new_pair(a, b), new_pair(a, b)
        got, want = _distance_upto(pair, c), one_sort_distance_upto(ref, c)
        assert got == (None if want is None else float(want))
        assert flow_state(pair) == flow_state(ref)
        if one_chunk:
            assert pair.edges_sorted == sum(0.0 < x <= tv and (x <= c if c < 1 else x < 1.0)
                                            for x in dist.ravel().tolist())
        else:
            assert pair.edges_sorted <= candidate_mask(dist, c).sum()


# Within one distance, pushes along edges that share no atom commute, so any order that
# keeps each row's and each column's edges in index order pushes the same.  A batch with
# no push instead queues its reached A-atoms for the tree search, and their order decides
# the augmenting path: in this one-chunk 3x5 pair the edges at 1/8 open with no push, and
# opening them column-major puts other flows on the edges than row-major (random small
# pairs reach this rarely)
TIE_ORDER_PAIR = (
    DiscreteMeasure(1, [((float(k),), Fraction(m, 12)) for k, m in enumerate((5, 3, 4))]),
    DiscreteMeasure(1, [((float(k),), Fraction(m, 33)) for k, m in enumerate((8, 6, 5, 8, 6))]),
    np.array([[0, 3, 1, 1, 0], [0, 1, 1, 0, 0], [1, 0, 3, 1, 0]]) / 8,
)


@st.composite
def flow_pairs_with_edge_cases(draw):
    """(a, b, dist): a tied distance matrix with some entries set to 0.0, to 1e-200 (as
    far from 0.0 as distinct atoms can be) or to inf (an overflowed distance), over
    measures of random integer masses on as many atoms."""
    dist = draw(tied_distance_matrices())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    special = rng.choice([0.0, 1e-200, math.inf], size=dist.shape)
    dist = np.where(rng.random(dist.shape) < draw(st.sampled_from([0.0, 0.2, 0.5])), special, dist)

    def weighted(m):
        raw = [draw(st.integers(1, 8)) for _ in range(m)]
        return DiscreteMeasure(1, [((float(k),), Fraction(r, sum(raw))) for k, r in enumerate(raw)])

    return weighted(dist.shape[0]), weighted(dist.shape[1]), dist


class TestChunkedOrder:
    """`_sorted_edges` sorts a long candidate list a chunk at a time; the sweep must
    see the order of one stable sort, ties and all."""

    @given(tied_distance_matrices(), st.sampled_from([math.inf, 1.0, 0.875, 0.5, 0.375, 0.0]))
    @settings(max_examples=150, deadline=None)
    def test_edge_order_is_one_stable_sort(self, dist, ceiling):
        pair = _Pair(line_measure(dist.shape[0]), line_measure(dist.shape[1]), dist)
        mask = candidate_mask(dist, ceiling)
        ii, jj = np.nonzero(mask)
        order = np.argsort(dist[ii, jj], kind="stable")
        expected = list(zip(dist[ii, jj][order].tolist(), ii[order].tolist(), jj[order].tolist()))
        assert list(itertools.chain.from_iterable(_sorted_edges(pair, mask))) == expected
        assert pair.edges_sorted == len(expected)

    @given(many_atoms)
    @settings(max_examples=40, deadline=None)
    def test_sweep_matches_one_sort_reference(self, measures):
        assert_sweep_matches_reference(*measures)

    @given(few_atoms)
    @settings(max_examples=80, deadline=None)
    def test_one_chunk_sweep_matches_one_sort_reference(self, measures):
        assert_sweep_matches_reference(*measures)

    @pytest.mark.parametrize("p, q, path", [(4, 4, "lists"), (3, 6, "lists"), (6, 3, "lists"),
                                            (4, 5, "arrays"), (5, 4, "arrays")])
    def test_one_chunk_boundary(self, monkeypatch, p, q, path):
        # p*q <= 2(p + q) at 4x4 and 3x6 (16 and 18, both at the bound), not at 4x5 (20 > 18).
        # The atoms 1/8 apart tie and share points with the other side
        a = DiscreteMeasure(1, [((k / 8,), Fraction(k + 1, p * (p + 1) // 2)) for k in range(p)])
        b = DiscreteMeasure(1, [((k / 8 + 1 / 16 * (k % 2),), Fraction(q - k, q * (q + 1) // 2)) for k in range(q)])
        taken = []
        for name in ("_upto_lists", "_upto_arrays"):
            run = getattr(lp_metric, name)
            monkeypatch.setattr(lp_metric, name, lambda pair, c, run=run, name=name: taken.append(name) or run(pair, c))
        assert_sweep_matches_reference(a, b)
        assert set(taken) == {f"_upto_{path}"}

    def test_one_chunk_tie_order_reaches_the_tree_search(self):
        a, b, dist = TIE_ORDER_PAIR
        for c in (math.inf, 0.375, 0.125):
            pair, ref = _Pair(a, b, dist), _Pair(a, b, dist)
            assert _distance_upto(pair, c) == float(one_sort_distance_upto(ref, c))
            assert flow_state(pair) == flow_state(ref)

    @given(flow_pairs_with_edge_cases(), st.sampled_from([math.inf, 1.0, 0.875, 0.5, 0.375, 1e-200, 0.0]))
    @example(TIE_ORDER_PAIR, math.inf)
    @settings(max_examples=150, deadline=None)
    def test_both_paths_agree(self, case, ceiling):
        # every pair through both paths, whatever its size, with distance-0, tiny and
        # overflowed entries
        a, b, dist = case
        lists, arrays = _Pair(a, b, dist), _Pair(a, b, dist)
        assert _upto_lists(lists, ceiling) == _upto_arrays(arrays, ceiling)
        assert flow_state(lists) == flow_state(arrays)
        if dist.size <= 2 * sum(dist.shape):  # one chunk: both sort every candidate
            assert lists.edges_sorted == arrays.edges_sorted
        else:  # the arrays path leaves the chunks past the sweep's stop unsorted
            assert lists.edges_sorted >= arrays.edges_sorted

    def test_sweep_that_stops_early_sorts_one_chunk(self):
        # 30 atoms 1/64 apart against the same atoms moved by 1/128: the 59 edges at 1/128
        # carry the whole mass, so d_LP = 1/128.  All 900 distances are below 1; the first
        # chunk runs to the 120th smallest, 5/128 (59 + 57 edges at 1/128 and 3/128), and
        # takes all 55 edges at 5/128 with it: 171 edges sorted, none past them
        a = empirical([(i / 64,) for i in range(30)])
        b = empirical([(i / 64 + 1 / 128,) for i in range(30)])
        pair, ref = new_pair(a, b), new_pair(a, b)
        assert _distance_upto(pair) == one_sort_distance_upto(ref) == Fraction(1, 128)
        assert flow_state(pair) == flow_state(ref)
        assert pair.edges_sorted == 171


class TestZeroDistanceFirst:
    """`_distance_upto` opens the distance-0 edges before the sweep and lowers its
    ceiling to the rest of the mass, rounded up to a float."""

    def test_tv_ceiling_rounds_up(self):
        # a = dirac(0), b = (1 - 1/s) at 0 + 1/s at 1/64: the distance-0 edge carries all but
        # 1/s, so d_LP = 1/s, and float(1/s) lies below 1/s; a ceiling rounded to nearest
        # would prune the pair at its own value
        s = 2_147_483_640
        assert Fraction(1 / s) < Fraction(1, s)
        a = dirac(0.0)
        b = DiscreteMeasure(1, [((0.0,), 1 - Fraction(1, s)), ((1 / 64,), Fraction(1, s))])
        want = float(Fraction(1, s))
        for x, y in ((a, b), (b, a)):
            assert lp_distance(x, y).value == lp_distance_bruteforce(x, y).value == want
            assert hausdorff([x], [y]).value == want
        assert _distance_upto(new_pair(a, b), Fraction(1, s)) == want
        assert _distance_upto(new_pair(a, b), want) is None  # below the exact value
        # the far atom moved to the rounded-up ceiling itself: its edge lies at the ceiling,
        # so the sweep sorts it (candidates are the distances <= the ceiling) and stops there
        up = math.nextafter(want, math.inf)
        b = DiscreteMeasure(1, [((0.0,), 1 - Fraction(1, s)), ((up,), Fraction(1, s))])
        for x, y in ((a, b), (b, a)):
            assert lp_distance(x, y).value == lp_distance_bruteforce(x, y).value == want
            pair = new_pair(x, y)
            assert _distance_upto(pair) == want
            assert (pair.breakpoints, pair.edges_sorted) == (1, 1)

    @pytest.mark.parametrize("a, b", [
        # (0,) and (1e-200,) are distinct atoms whose cdist underflows to 0.0
        (dirac(0.0), DiscreteMeasure(1, [((1e-200,), Fraction(7, 8)), ((0.5,), Fraction(1, 8))])),
        (empirical([(0.0,), (1e-200,)]),
         DiscreteMeasure(1, [((2e-200,), Fraction(5, 6)), ((0.25,), Fraction(1, 6))])),
        (dirac(0.0, 0.0), DiscreteMeasure(2, [((1e-200, 0.0), Fraction(3, 4)), ((0.0, 0.75), Fraction(1, 4))])),
    ])
    def test_underflowed_distances_open_at_breakpoint_zero(self, a, b):
        dist = cdist(a.points(), b.points())
        assert not (a.points()[:, None] == b.points()).all(axis=2).any()  # no shared atom
        assert (dist == 0).any()
        value = lp_distance_bruteforce(a, b).value
        assert value < dist[dist > 0].min()  # settled by the distance-0 edges alone
        for x, y in ((a, b), (b, a)):
            assert lp_distance(x, y).value == lp_distance_bruteforce(x, y).value == value
            assert hausdorff([x], [y]).value == value
        pair = new_pair(a, b)
        assert _distance_upto(pair) == value
        assert (pair.breakpoints, pair.edges_sorted) == (1, 0)


class TestExperimentSets:
    def test_36_sets_are_pinned(self):
        # the star and apex profile-set pairs at seeds 7 and 11, n 8/32/128 and k 1-3, built as
        # harness._run_size builds them: the sha256 of their (value, side, witness) triples, in
        # this order, pins every Hausdorff answer the two experiments read
        triples = []
        for base in (harness.STAR, harness.APEX):
            for seed in (7, 11):
                cfg = dataclasses.replace(base, seed=seed)
                for n in (8, 32, 128):
                    a = parse_operator_spec(cfg.graph_a.format(n=n, n1=n + 1))
                    b = parse_operator_spec(cfg.graph_b.format(n=n, n1=n + 1))
                    strat_a = harness._strategy_for(cfg, a, cfg.probe_a)
                    strat_b = harness._strategy_for(cfg, b, cfg.probe_b)
                    for k in (1, 2, 3):
                        r = hausdorff(profile_sample(a, k, strat_a).measures, profile_sample(b, k, strat_b).measures)
                        triples.append(repr((r.value, r.argmax_side, r.witness)))
        assert hashlib.sha256("".join(triples).encode()).hexdigest()[:16] == "2d4bf9b5f7b03e40"
