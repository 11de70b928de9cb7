import itertools
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from test_measures import SAME_MEASURE

from actionlim import (
    DiscreteMeasure,
    GraphSpec,
    UnsupportedNormError,
    WeightedOperator,
    adjacency,
    adjoint,
    apply,
    bilinear,
    broadcast,
    c_regularity,
    gplus,
    integer_masses,
    positivity_defect,
    pq_norm,
    q_norm,
    self_adjoint_defect,
)
from actionlim import operators
from actionlim.operators import parse_operator_spec

# the weights of each measure spelling, plus denominators near 2^31 whose lcm is 2^62 - 1
WEIGHT_SPELLINGS = {name: [w for _, w in atoms] for name, atoms in SAME_MEASURE.items()}
WEIGHT_SPELLINGS["near_2_31"] = [
    Fraction(1, 2**31 - 1), Fraction(1, 2**31 + 1), 1 - Fraction(1, 2**31 - 1) - Fraction(1, 2**31 + 1),
]


@st.composite
def integer_matrices_with_rational_weights(draw):
    n = draw(st.integers(2, 7))
    m = draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n))
    raw = [Fraction(draw(st.integers(1, 20)), draw(st.integers(1, 20))) for _ in range(n)]
    return m, [r / sum(raw) for r in raw]


@st.composite
def integer_matrices_near_float32_bound(draw):
    """An integer matrix and weights with n * max|a_ij| * denom within 64 of 2^24.

    The last row is +-a throughout and carries nearly all the mass, so some sign vector
    takes its weighted entry to about the bound itself; its first entry -a sends the
    matrix to the sign enumeration.
    """
    n = draw(st.integers(2, 5))
    a = draw(st.integers(1, 12))
    denom = (2**24 + draw(st.integers(-4, 64))) // (n * a)  # so n * a * denom is within 64 of 2^24
    m = [draw(st.lists(st.integers(-a, a), min_size=n, max_size=n)) for _ in range(n - 1)]
    m.append([-a] + [draw(st.sampled_from([-a, a])) for _ in range(n - 1)])
    small = draw(st.lists(st.integers(1, 1000), min_size=n - 1, max_size=n - 1))
    masses = small + [denom - sum(small)]
    assume(math.gcd(*masses) == 1)  # or the weights reduce to a smaller denominator
    return m, [Fraction(k, denom) for k in masses]


def power_sum(f, weights, q: int) -> Fraction:
    return sum((Fraction(w) * abs(Fraction(x)) ** q for x, w in zip(f, weights)), Fraction(0))


def power_sum_norm(f, weights, q: int) -> float:
    """The weighted q-norm from its power sum taken as one Fraction."""
    total = power_sum(f, weights, q)
    return float(total) if q == 1 else float(total) ** (1.0 / q)


def log_norm(f, weights, q: int) -> float:
    """The natural log of the weighted q-norm (-inf for 0), from the exact power sum."""
    total = power_sum(f, weights, q)
    return (math.log(total.numerator) - math.log(total.denominator)) / q if total else -math.inf


# every float class q_norm must take exactly: signed zeros, subnormals, normals and entries near the top
Q_NORM_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-4.0, 4.0, allow_nan=False),
)


def exact_inf_one_norm(m, weights) -> Fraction:
    """The (inf,1)-norm of an integer matrix by enumerating every sign vector in exact arithmetic."""
    return max(
        sum(w * abs(sum(a * s for a, s in zip(row, f))) for row, w in zip(m, weights))
        for f in itertools.product((-1, 1), repeat=len(m))
    )


class TestWeightedOperator:
    def test_uniform_weights_default(self):
        A = WeightedOperator(np.eye(3))
        assert A.weights == (Fraction(1, 3),) * 3
        assert (A.masses, A.denom) == ((1, 1, 1), 3)

    def test_weights_validated(self):
        with pytest.raises(ValueError, match="sum"):
            WeightedOperator(np.eye(2), [Fraction(1, 2), Fraction(1, 3)])
        with pytest.raises(ValueError, match="positive"):
            WeightedOperator(np.eye(2), [Fraction(3, 2), Fraction(-1, 2)])

    def test_matrix_immutable(self):
        A = WeightedOperator(np.eye(2))
        with pytest.raises(ValueError):
            A.matrix[0, 0] = 5.0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            WeightedOperator(np.ones((2, 3)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one coordinate"):
            WeightedOperator(np.zeros((0, 0)))

    @pytest.mark.parametrize("name", sorted(WEIGHT_SPELLINGS))
    def test_operator_and_measure_share_weight_form(self, name):
        ws = WEIGHT_SPELLINGS[name]
        masses, denom = integer_masses(ws)
        mu = DiscreteMeasure(1, [((float(i),), w) for i, w in enumerate(ws)])
        assert (mu.masses, mu.denom) == (tuple(m for m in masses if m), denom)
        if 0 in masses:
            # a measure drops a zero weight, an operator refuses it
            with pytest.raises(ValueError, match="positive"):
                WeightedOperator(np.eye(len(ws)), ws)
        else:
            A = WeightedOperator(np.eye(len(ws)), ws)
            assert (A.masses, A.denom) == (mu.masses, mu.denom)
            assert A.weights == mu.weights()

    def test_dict_round_trip(self):
        A = WeightedOperator([[0.0, 1.0], [1.0, 0.0]], [Fraction(1, 4), Fraction(3, 4)], name="x")
        B = WeightedOperator.from_dict(A.to_dict())
        assert np.array_equal(A.matrix, B.matrix)
        assert A.weights == B.weights
        assert B.name == "x"


class TestGraphs:
    def test_star_structure(self):
        A = adjacency(GraphSpec("star", 4))
        expected = np.array([[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]], dtype=float)
        assert np.array_equal(A.matrix, expected)

    def test_star_action(self):
        A = adjacency(GraphSpec("star", 4))
        assert np.array_equal(apply(A, [1.0, 0.5, -0.5, 0.0]), [0.0, 1.0, 1.0, 1.0])

    def test_cycle_degrees(self):
        A = adjacency(GraphSpec("cycle", 5))
        assert np.array_equal(A.matrix.sum(axis=1), np.full(5, 2.0))

    def test_cycle_too_small(self):
        with pytest.raises(ValueError, match="n >= 3"):
            adjacency(GraphSpec("cycle", 2))

    def test_complete_graph(self):
        A = adjacency(GraphSpec("complete", 4))
        assert np.array_equal(A.matrix, np.ones((4, 4)) - np.eye(4))

    def test_edge_list_validation(self):
        with pytest.raises(ValueError, match="loop"):
            GraphSpec("edge_list", 3, edges=((0, 0),))
        with pytest.raises(ValueError, match="duplicate"):
            GraphSpec("edge_list", 3, edges=((0, 1), (1, 0)))
        with pytest.raises(ValueError, match="out of range"):
            GraphSpec("edge_list", 3, edges=((0, 5),))

    def test_erdos_renyi_deterministic(self):
        a = adjacency(GraphSpec("erdos_renyi", 12, p=0.4, seed=9))
        b = adjacency(GraphSpec("erdos_renyi", 12, p=0.4, seed=9))
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.matrix, a.matrix.T)

    def test_erdos_renyi_default_seed_is_its_label(self):
        # without a seed the graph is seed 0's, the one its label er:12:0.5:0 names
        A = adjacency(GraphSpec("erdos_renyi", 12, p=0.5))
        assert A.name == "er:12:0.5:0"
        assert np.array_equal(A.matrix, adjacency(GraphSpec("erdos_renyi", 12, p=0.5)).matrix)
        assert np.array_equal(A.matrix, parse_operator_spec("er:12:0.5").matrix)
        assert np.array_equal(A.matrix, parse_operator_spec(A.name).matrix)

    @pytest.mark.parametrize("seed", [None, 1.5, "3"])
    def test_erdos_renyi_seed_must_be_an_integer(self, seed):
        # a seed of None would draw a new graph on each call, and 1.5 would label a graph no spec names
        with pytest.raises(TypeError, match=f"seed must be an integer, got {re.escape(repr(seed))}"):
            GraphSpec("erdos_renyi", 12, p=0.5, seed=seed)

    def test_erdos_renyi_integer_seed_types_label_alike(self):
        a = GraphSpec("erdos_renyi", 12, p=0.5, seed=np.int64(4))
        assert a.seed == 4 and type(a.seed) is int
        assert a.label() == "er:12:0.5:4"
        assert np.array_equal(adjacency(a).matrix, adjacency(GraphSpec("erdos_renyi", 12, p=0.5, seed=4)).matrix)

    def test_gplus_apex(self):
        A = gplus(GraphSpec("cycle", 5))
        assert A.n == 6
        assert np.array_equal(A.matrix[5, :5], np.ones(5))
        assert np.array_equal(A.matrix[:5, 5], np.ones(5))
        assert A.matrix[5, 5] == 0.0


class TestNorms:
    def test_q_norm_values(self):
        w = [Fraction(1, 2), Fraction(1, 2)]
        assert q_norm([3.0, -4.0], w, 1) == 3.5
        assert q_norm([3.0, -4.0], w, 2) == pytest.approx(math.sqrt(12.5))
        assert q_norm([3.0, -4.0], w, math.inf) == 4.0

    @pytest.mark.parametrize("n", [2, 10, 100])
    def test_star_degree_norm_at_non_integer_q(self, n):
        q = 1.5
        want = ((n - 1) / n + (n - 1) ** q / n) ** (1 / q)
        assert pq_norm(adjacency(GraphSpec("star", n)), math.inf, q) == pytest.approx(want, rel=0, abs=1e-12)

    def test_sign_enumeration_agrees_with_nonnegative_formula(self):
        A = adjacency(GraphSpec("cycle", 6))
        # nonnegative path and the enumeration must agree
        B = WeightedOperator(A.matrix.copy())
        direct = pq_norm(B, math.inf, 1)
        m = A.matrix.copy()
        m[0, 1] = 1.0  # still nonnegative but force no shortcut change
        assert direct == 2.0

    def test_signed_matrix_enumeration(self):
        m = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert pq_norm(WeightedOperator(m), math.inf, 1) == 2.0

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 10])
    def test_sign_enumeration_matches_full_product(self, n):
        m = np.random.default_rng(n).choice([-1.0, 1.0], size=(n, n))
        # every sign vector, not only the half with the last sign +1
        best = max(np.abs(m @ np.array(f)).sum() for f in itertools.product((-1.0, 1.0), repeat=n))
        assert pq_norm(WeightedOperator(m), math.inf, 1) == float(Fraction(int(best), n))

    def test_sign_enumeration_with_float_weights(self):
        rng = np.random.default_rng(3)
        m = rng.uniform(-1.0, 1.0, size=(7, 7))
        w = [Fraction(i + 1, 28) for i in range(7)]
        wf = np.array([float(x) for x in w])
        best = max(np.abs(m @ np.array(f)) @ wf for f in itertools.product((-1.0, 1.0), repeat=7))
        assert pq_norm(WeightedOperator(m, w), math.inf, 1) == pytest.approx(best, rel=1e-12)

    # the bound n * max|a_ij| * denom picks the loop's float type: float32 up to 2^24, its
    # exact-integer range, float64 up to 2^53.  The 1 x 1 examples have bounds 2^24 and 2^24 + 1
    # (negative, so they take the enumeration, not the nonnegative branch).  The bound is 6d for
    # [[3, -1], [1, 2]] with weights over d: the examples sit on each side of 2^24 and below 2^53
    @given(integer_matrices_with_rational_weights())
    @example(([[-(2**24)]], [Fraction(1)]))
    @example(([[-(2**24 + 1)]], [Fraction(1)]))
    @example(([[3, -1], [1, 2]], [Fraction(1, 2**24 // 6), 1 - Fraction(1, 2**24 // 6)]))
    @example(([[3, -1], [1, 2]], [Fraction(1, 2**24 // 6 + 1), 1 - Fraction(1, 2**24 // 6 + 1)]))
    @example(([[3, -1], [1, 2]], [Fraction(1, 2**53 // 6), 1 - Fraction(1, 2**53 // 6)]))
    @settings(max_examples=200, deadline=None)
    def test_sign_enumeration_exact_for_integer_matrices(self, case):
        m, w = case
        assert pq_norm(WeightedOperator(m, w), math.inf, 1) == float(exact_inf_one_norm(m, w))

    @given(integer_matrices_near_float32_bound())
    @settings(max_examples=200, deadline=None)
    def test_sign_enumeration_exact_near_float32_bound(self, case):
        m, w = case
        A = WeightedOperator(m, w)
        assert abs(A.n * int(np.abs(A.matrix).max()) * A.denom - 2**24) <= 64
        assert pq_norm(A, math.inf, 1) == float(exact_inf_one_norm(m, w))

    def test_sign_enumeration_float_past_exact_bound(self):
        # 6d passes 2^53 here, so the float path runs, and for these weights it misses the
        # correctly rounded norm 3 - 7/d in the last bit
        m, d = [[3, -1], [1, 2]], 2**53 // 6 + 1
        w = [Fraction(7, d), 1 - Fraction(7, d)]
        norm = float(exact_inf_one_norm(m, w))
        assert norm == float(3 - Fraction(7, d))
        got = pq_norm(WeightedOperator(m, w), math.inf, 1)
        assert got != norm
        assert got == pytest.approx(norm, rel=1e-15)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_multi_block_enumeration_matches_full_product(self, monkeypatch, n):
        # blocks of 4 codes, so every n > 3 takes several offsets of the high signs
        monkeypatch.setattr(operators, "_SIGN_CHUNK", 1 << 2)
        rng = np.random.default_rng(100 + n)
        m = rng.choice([-1, 1], size=(n, n))
        assert pq_norm(WeightedOperator(m), math.inf, 1) == float(exact_inf_one_norm(m.tolist(), [Fraction(1, n)] * n))
        m = rng.integers(-5, 6, size=(n, n)).tolist()
        raw = [Fraction(int(a), int(b)) for a, b in rng.integers(1, 20, size=(n, 2))]
        w = [r / sum(raw) for r in raw]
        assert pq_norm(WeightedOperator(m, w), math.inf, 1) == float(exact_inf_one_norm(m, w))
        # an entry of 2^25 + 1 puts n * max|a_ij| * denom between 2^24 and 2^53 at every n: the
        # float64 loop, with integer sums that float32 would round
        m = rng.integers(-5, 6, size=(n, n)).tolist()
        m[0][0] = -(2**25 + 1)
        raw = [int(r) for r in rng.integers(1, 2**20, size=n)]
        w = [Fraction(r, sum(raw)) for r in raw]
        A = WeightedOperator(m, w)
        assert 2**24 < A.n * (2**25 + 1) * A.denom < 2**53
        assert pq_norm(A, math.inf, 1) == float(exact_inf_one_norm(m, w))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_multi_block_enumeration_float_error_bound(self, monkeypatch, n):
        monkeypatch.setattr(operators, "_SIGN_CHUNK", 1 << 2)
        rng = np.random.default_rng(200 + n)
        m = rng.uniform(-3.0, 3.0, size=(n, n))
        raw = rng.integers(1, 20, size=n)
        w = [Fraction(int(r), int(raw.sum())) for r in raw]
        # every float is an integer over 2^k for one k, so the exact norm is an integer norm / 2^k
        scale = max(Fraction(x).denominator for x in m.flat)
        exact = exact_inf_one_norm([[int(Fraction(x) * scale) for x in row] for row in m], w) / scale
        # each entry of Af is a float sum of at most 2n + 1 terms (the low signs, their doubled
        # corrections and the offset) whose sizes add up to at most 3 sum_j |a_ij|, and the
        # weighted sum adds n + 1 more roundings: about 7n u times the weighted absolute row
        # sums, so 16 n u of them is a safe bound
        bound = 16 * n * 2.0**-53 * float(sum(wi * Fraction(float(np.abs(row).sum())) for wi, row in zip(w, m)))
        assert abs(Fraction(pq_norm(WeightedOperator(m, w), math.inf, 1)) - exact) <= bound

    @pytest.mark.parametrize("q", [1, 2, 3, 2.5, math.inf])
    def test_nonnegative_norm_is_the_q_norm_of_the_degrees(self, q):
        # zero and -0.0 entries are nonnegative too; the power sum from the operator's masses
        # must give q_norm's value from its Fraction weights
        m = np.random.default_rng(7).uniform(0.0, 2.0, size=(5, 5))
        m[1, 2] = -0.0
        m[3, :] = 0.0
        for A in (
            adjacency(GraphSpec("star", 9)),
            WeightedOperator(m, [Fraction(k, 15) for k in range(1, 6)]),
            WeightedOperator([[-0.0, 1.0], [3.0, 0.5]], [Fraction(1, 3), Fraction(2, 3)]),
        ):
            assert pq_norm(A, math.inf, q) == q_norm(apply(A, np.ones(A.n)), A.weights, q)

    def test_adjoint_duality_exact_at_n20(self):
        A = WeightedOperator(np.random.default_rng(20).choice([-1.0, 1.0], size=(20, 20)))
        assert pq_norm(A, math.inf, 1) == pq_norm(adjoint(A), math.inf, 1)

    def test_near_integer_matrix_not_rounded(self):
        # within np.allclose of an integer matrix, but not integral
        m = [[1000.001, -1.0], [1.0, 1.0]]
        exact = max(
            sum(abs(sum(Fraction(x) * s for x, s in zip(row, f))) for row in m) / 2
            for f in itertools.product((-1, 1), repeat=2)
        )
        assert pq_norm(WeightedOperator(m), math.inf, 1) == float(exact) == 500.5005

    def test_unsupported_regime_raises(self):
        m = np.array([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(UnsupportedNormError):
            pq_norm(WeightedOperator(m), math.inf, 2)
        with pytest.raises(UnsupportedNormError):
            pq_norm(WeightedOperator(-np.eye(25)), math.inf, 1)

    def test_invalid_pq(self):
        with pytest.raises(ValueError):
            pq_norm(adjacency(GraphSpec("star", 3)), 0.5, 1)

    @pytest.mark.parametrize("p, q, bad", [(math.nan, 1, "p"), (math.inf, math.nan, "q"), (math.nan, math.nan, "p")])
    def test_nan_exponent_refused(self, p, q, bad):
        # `p < 1` is False for NaN; the first exponent that fails the check is named
        with pytest.raises(ValueError, match=f"{bad} must be >= 1, got {bad}=nan"):
            pq_norm(adjacency(GraphSpec("star", 4)), p, q)

    def test_q_norm_refuses_nan(self):
        with pytest.raises(ValueError, match="q must be >= 1, got q=nan"):
            q_norm([1.0, 2.0], [Fraction(1, 2), Fraction(1, 2)], math.nan)

    @pytest.mark.parametrize("f, i", [([math.nan, 1.0], 0), ([1.0, math.nan], 1)])
    @pytest.mark.parametrize("q", [1, 2, 1.5, math.inf])
    def test_q_norm_refuses_nan_entry(self, f, i, q):
        # at q=inf the max of [nan, 1.0] and of [1.0, nan] would differ
        with pytest.raises(ValueError, match=f"entry {i} of f is nan"):
            q_norm(f, [Fraction(1, 2)] * 2, q)

    @pytest.mark.parametrize("x", [math.inf, -math.inf])
    def test_q_norm_inf_entry(self, x):
        w = [Fraction(1, 2)] * 2
        for q in (1, 2, 1.5):
            with pytest.raises(ValueError, match=f"entry 1 of f is {x!r}: finite q={q!r} needs finite entries"):
                q_norm([1.0, x], w, q)
        assert q_norm([1.0, x], w, math.inf) == math.inf

    def test_q_norm_refuses_negative_weight(self):
        with pytest.raises(ValueError, match="weight 0 is -1/2: weights must be nonnegative"):
            q_norm([1.0, 2.0], [Fraction(-1, 2), Fraction(3, 2)], 1)

    @pytest.mark.filterwarnings("error")
    def test_q_norm_numpy_integer_weights_sum_exactly(self):
        # Fraction(np.int32(3)) keeps a numpy numerator, whose power sums would run in fixed width
        assert q_norm([1e9], [np.int32(3)], 1) == 3e9
        assert q_norm([3.0, 1.0], [np.int64(1)] * 2, 40) == q_norm([3.0, 1.0], [1, 1], 40) == 3.0
        got = q_norm([1.0, 2.0], [np.int32(1)] * 2, 1)
        assert got == 3.0 and type(got) is float

    @pytest.mark.parametrize("q", [1, 2, 40, 2.5, math.inf])
    def test_q_norm_numpy_weights_are_python_weights(self, q):
        f = [3.0, -1.0, 0.5]
        for python, numpy_weights in (
            ([1, 3, 2], [np.int32(1), np.int64(3), np.int64(2)]),
            ([Fraction(1, 4), Fraction(3, 4)], [Fraction(np.int64(1), np.int64(4)), Fraction(np.int32(3), 4)]),
            ([0.25, 0.125, 0.625], list(np.array([0.25, 0.125, 0.625]))),
        ):
            want = q_norm(f[: len(python)], python, q)
            got = q_norm(f[: len(python)], numpy_weights, q)
            assert got == want and type(got) is type(want) is float

    @pytest.mark.parametrize("q", [2.5])
    @pytest.mark.parametrize("x", [1e300, 1e-200])
    def test_q_norm_refuses_power_sum_outside_float_range(self, q, x):
        # its root would be inf or 0, where the norm of [x, x] is x; non-integer q sums in float64
        with pytest.raises(ValueError, match=f"power sum of f at q={q!r} is outside the float range"):
            q_norm([x, x], [Fraction(1, 2)] * 2, q)

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("x", [1e300, 1e-200])
    def test_q_norm_answers_power_sum_outside_float_range(self, q, x):
        # at integer q the exact power sum is scaled into the float range before its root
        assert q_norm([x, x], [Fraction(1, 2)] * 2, q) == pytest.approx(x, rel=1e-12)

    @pytest.mark.parametrize("q", [2, 3, 7])
    @pytest.mark.parametrize("x", [1.7976931348623157e308, 1e300, 1e-200, 2.2250738585072014e-308, 5e-324])
    def test_q_norm_one_entry_outside_float_range_is_exact(self, q, x):
        # the norm of [x] under weight 1 is |x| itself, though its power sum leaves the float
        # range; the largest float used to be refused, its root rounding up to 2^1024
        assert q_norm([x], [1], q) == q_norm([-x], [1], q) == x

    @pytest.mark.parametrize("f, w, q", [
        ([1e300, 3e299], [Fraction(1, 3), Fraction(2, 3)], 2),
        ([1e300, 1e308], [Fraction(1, 2), Fraction(1, 2)], 3),
        ([1e-200, 7e-201], [Fraction(1, 2), Fraction(1, 2)], 3),
        ([5e-324, 1e-323], [Fraction(1, 7), Fraction(6, 7)], 5),  # a subnormal norm
        ([3.0, 1.5], [Fraction(1, 2), Fraction(1, 2)], 10000),
    ])
    def test_q_norm_outside_float_range_is_correctly_rounded(self, f, w, q):
        # the exact power sum lies between the q-th powers of the midpoints around the answer
        z = q_norm(f, w, q)
        lo = (Fraction(z) + Fraction(math.nextafter(z, 0.0))) / 2
        hi = (Fraction(z) + Fraction(math.nextafter(z, math.inf))) / 2
        assert lo**q <= power_sum(f, w, q) <= hi**q

    @pytest.mark.parametrize("above", [False, True])
    @pytest.mark.parametrize("z, q", [(1e300, 2), (1e-200, 3), (1e-201, 3)])  # even, even, odd last bits
    def test_q_norm_midpoint_outside_float_range(self, z, q, above):
        # a weight that makes the norm of [z] the midpoint m between z and the next float, or
        # a hair above it: the tie rounds to even, anything above it rounds up
        m = (Fraction(z) + Fraction(math.nextafter(z, math.inf))) / 2
        w = (m / Fraction(z)) ** q + (Fraction(1, 10**400) if above else 0)
        want = math.nextafter(z, math.inf) if above else float(m)
        assert q_norm([z], [w], q) == want

    def test_q_norm_power_sum_past_inf_at_large_q(self):
        # the power sum is about 2^15849, and no power of 2^q brings it into the float range;
        # the norm is 3 (1/2 + 2^-q/2)^(1/q), and 2^-10000 is far below an ulp
        assert q_norm([3.0, 1.5], [Fraction(1, 2)] * 2, 10000) == pytest.approx(3 * 2 ** -1e-4, rel=1e-12)

    @pytest.mark.parametrize("f, w, q", [
        ([1e300], Fraction(10**20), 2),  # the norm is 1e310
        ([1e-300], Fraction(1, 10**60), 2),  # the norm is 1e-330, below the least subnormal
        ([5e-324], Fraction(1, 3), 1),  # at q=1 the norm is the mean, 5e-324 / 3
    ])
    def test_q_norm_refuses_norm_outside_float_range(self, f, w, q):
        with pytest.raises(ValueError, match=f"the norm of f at q={q} is outside the float range"):
            q_norm(f, [w], q)

    @given(
        st.lists(st.tuples(Q_NORM_ENTRIES, st.fractions(min_value=0, max_denominator=10**6)), max_size=8),
        st.integers(1, 4),
    )
    @example([(-0.0, Fraction(1))], 1)
    @example([(5e-324, Fraction(1, 2)), (2.2250738585072014e-308, Fraction(1, 2))], 1)
    @example([(1e300, Fraction(1, 7)), (-1e300, Fraction(6, 7))], 1)
    @example([(1e300, Fraction(1, 2))], 2)  # the power sum is past the largest float, the norm is not
    @example([(1e-200, Fraction(1, 2))], 2)  # the power sum rounds to 0, the norm does not
    @example([(5e-324, Fraction(1, 3))], 1)  # refused: the norm (the mean at q=1) rounds to 0
    @example([(1e300, Fraction(10**20))], 2)  # refused: the norm is past the largest float
    @settings(max_examples=300, deadline=None)
    def test_q_norm_is_the_fraction_power_sum(self, entries, q):
        # a power sum inside the float range: the bits of its rounded root; outside it, the
        # norm to 1e-12 relative (or to the least subnormal), or a refusal where the norm is
        # itself outside the float range
        f, w = [x for x, _ in entries], [v for _, v in entries]
        try:
            want = power_sum_norm(f, w, q)
        except OverflowError:
            want = math.inf
        if want == math.inf or (want == 0.0 and any(x and v for x, v in zip(f, w))):
            log_want = log_norm(f, w, q)
            try:
                got = q_norm(f, w, q)
            except ValueError as exc:
                assert "is outside the float range" in str(exc)
                assert log_want > math.log(sys.float_info.max) - 1e-12 or log_want < math.log(5e-324) + 1e-12
                return
            assert got == pytest.approx(math.exp(log_want), rel=1e-12, abs=5e-324)
            return
        got = q_norm(f, w, q)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


class TestStructure:
    def test_bilinear_symmetric_for_adjacency(self):
        A = adjacency(GraphSpec("cycle", 6))
        f = np.array([1.0, -1.0, 0.5, 0.0, 0.25, -0.75])
        g = np.array([0.5, 0.5, -1.0, 1.0, 0.0, 0.25])
        assert bilinear(A, f, g) == bilinear(A, g, f)

    def test_adjoint_transposes_under_uniform_weights(self):
        A = WeightedOperator([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(adjoint(A).matrix, A.matrix.T)

    def test_adjoint_is_exact_transpose_for_float_entries(self):
        A = WeightedOperator(np.random.default_rng(5).uniform(-1.0, 1.0, size=(6, 6)))
        assert np.array_equal(adjoint(A).matrix, A.matrix.T)

    def test_adjoint_respects_weights(self):
        w = [Fraction(1, 4), Fraction(3, 4)]
        A = WeightedOperator([[0.0, 1.0], [0.0, 0.0]], w)
        B = adjoint(A)
        f, g = [1.0, 2.0], [3.0, 5.0]
        assert bilinear(A, f, g) == pytest.approx(bilinear(B, g, f))

    def test_self_adjoint_defect_broadcast(self):
        # rank-one broadcast on 8 coordinates: defect is 1/8, the weighted
        # asymmetry of the only off-pattern entry pair
        assert self_adjoint_defect(broadcast(8, 0)) == 0.125

    def test_self_adjoint_defect_zero_for_adjacency(self):
        assert self_adjoint_defect(adjacency(GraphSpec("star", 9))) == 0.0

    def test_c_regularity(self):
        assert c_regularity(adjacency(GraphSpec("cycle", 5))) == 2.0
        assert c_regularity(adjacency(GraphSpec("star", 5))) is None
        assert c_regularity(broadcast(7, 2)) == 1.0

    def test_positivity_defect(self):
        cyc4 = adjacency(GraphSpec("cycle", 4))
        assert positivity_defect(cyc4) == 0.0
        m = cyc4.matrix.copy()
        m[:, 0] -= 2.0
        # column shifted by -2: the diagonal entry drops to -2
        assert positivity_defect(WeightedOperator(m)) == 2.0


class TestRefusals:
    """Each input the module refuses, with its exception and message."""

    @pytest.mark.parametrize("call, message", [
        (lambda: WeightedOperator([[math.inf]]), "matrix entries must be finite"),
        (lambda: WeightedOperator([[0.0]], weights=[Fraction(1, 2), Fraction(1, 2)]), "2 weights for n=1"),
        (lambda: GraphSpec("wheel", 4),
         "unknown graph kind 'wheel'; choose from "
         "('star', 'empty', 'cycle', 'path', 'complete', 'edge_list', 'erdos_renyi')"),
        (lambda: GraphSpec("star", 0), "vertex count must be >= 1"),
        (lambda: parse_operator_spec("signed:x:0:cycle:4"),
         "operator spec 'signed:x:0:cycle:4': sign 'x' is not one of +, +1, -, -1"),
        (lambda: apply(broadcast(3), [1.0, 1.0]), "vector length (2,) does not match n=3"),
        (lambda: bilinear(broadcast(3), [1.0, 1.0, 1.0], [1.0, 1.0]), "vector length (2,) does not match n=3"),
        (lambda: q_norm([1.0, 1.0], [Fraction(1)], 2), "length mismatch between vector and weights"),
        # Fraction(inf) overflows and Fraction(nan) fails unnamed: each is refused by its index
        (lambda: q_norm([1.0, 1.0], [Fraction(1, 2), math.inf], 2), "weight 1 is inf: weights must be finite numbers"),
        (lambda: q_norm([1.0, 1.0], [math.nan, Fraction(1, 2)], 1), "weight 0 is nan: weights must be finite numbers"),
        (lambda: operators.non_self_adjoint_witness(broadcast(3), 3), "index 3 out of range for n=3"),
    ], ids=["non_finite_matrix", "weight_count", "graph_kind", "graph_n_0", "signed_sign", "apply_length",
            "bilinear_length", "q_norm_length", "q_norm_weight_inf", "q_norm_weight_nan", "witness_index"])
    def test_refused(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
