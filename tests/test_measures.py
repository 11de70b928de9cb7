import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from actionlim import (
    DiscreteMeasure,
    discretize,
    empirical,
    integer_masses,
    marginal,
    mean_abs,
    shift,
)
from actionlim import cli, measures
from actionlim.measures import int_value, real_value, weight_ratios

# dyadic coordinates make float translation exact
dyadic = st.integers(-128, 128).map(lambda i: i / 64.0)


@st.composite
def dyadic_measures(draw, dim):
    m = draw(st.integers(1, 4))
    pts = [tuple(draw(dyadic) for _ in range(dim)) for _ in range(m)]
    raw = [draw(st.integers(1, 8)) for _ in range(m)]
    total = sum(raw)
    return DiscreteMeasure(dim, zip(pts, (Fraction(r, total) for r in raw)))


class TestConstruction:
    def test_duplicate_atoms_merge(self):
        mu = DiscreteMeasure(1, [((0.0,), Fraction(1, 4)), ((0.0,), Fraction(1, 4)), ((1.0,), Fraction(1, 2))])
        assert mu.support_size == 2
        assert mu.mass((0.0,)) == Fraction(1, 2)

    def test_zero_weights_dropped(self):
        mu = DiscreteMeasure(1, [((0.0,), 1), ((3.0,), 0)])
        assert mu.support_size == 1

    def test_atoms_sorted_so_equal_measures_compare_equal(self):
        a = DiscreteMeasure(1, [((1.0,), Fraction(1, 2)), ((0.0,), Fraction(1, 2))])
        b = DiscreteMeasure(1, [((0.0,), Fraction(1, 2)), ((1.0,), Fraction(1, 2))])
        assert a == b

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            DiscreteMeasure(1, [((0.0,), Fraction(1, 3))])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            DiscreteMeasure(1, [((0.0,), Fraction(3, 2)), ((1.0,), Fraction(-1, 2))])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="coordinates"):
            DiscreteMeasure(2, [((0.0,), 1)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            DiscreteMeasure(2, [((0.0, bad), Fraction(1, 2)), ((1.0, 0.0), Fraction(1, 2))])

    def test_string_weights(self):
        mu = DiscreteMeasure(1, [((0.0,), "1/3"), ((1.0,), "2/3")])
        assert mu.mass((1.0,)) == Fraction(2, 3)
        # integer, plain decimal and num/den strings read exactly; a JSON 1e-3 is a float,
        # read at its binary value, so only a string is refused for its exponent
        assert weight_ratios(json.loads('["12", "0.125", "3/4", 1e-3]')) == [
            (12, 1), (1, 8), (3, 4), (0.001).as_integer_ratio()]

    def test_empirical_uniform(self):
        mu = empirical([(0.0,), (1.0,), (2.0,)])
        assert mu.weights() == (Fraction(1, 3),) * 3


HALF = Fraction(1, 2)
# each spelling of the measure 1/2 delta_(0,1) + 1/2 delta_(1,-1)
SAME_MEASURE = {
    "sorted": [((0.0, 1.0), HALF), ((1.0, -1.0), HALF)],
    "permuted": [((1.0, -1.0), HALF), ((0.0, 1.0), HALF)],
    "split_duplicates": [((0.0, 1.0), Fraction(1, 4)), ((1.0, -1.0), HALF), ((0.0, 1.0), Fraction(1, 4))],
    "float_weights": [((0.0, 1.0), 0.5), ((1.0, -1.0), 0.5)],
    "string_weights": [((0.0, 1.0), "1/2"), ((1.0, -1.0), "1/2")],
    "mixed_weights": [((1.0, -1.0), "1/2"), ((0.0, 1.0), 0.25), ((0.0, 1.0), Fraction(1, 4))],
    "negative_zero": [((-0.0, 1.0), HALF), ((1.0, -1.0), HALF)],
    "zero_weight_atom": [((0.0, 1.0), HALF), ((5.0, 5.0), 0), ((1.0, -1.0), HALF)],
}


class TestCanonicalForm:
    @pytest.mark.parametrize("name", sorted(SAME_MEASURE))
    def test_spellings_equal_and_hash_equal(self, name):
        ref = DiscreteMeasure(2, SAME_MEASURE["sorted"])
        mu = DiscreteMeasure(2, SAME_MEASURE[name])
        assert mu == ref and hash(mu) == hash(ref)
        assert mu.masses == (1, 1) and mu.denom == 2
        assert mu.points().tolist() == [[0.0, 1.0], [1.0, -1.0]]
        assert mu.to_json() == ref.to_json()
        masses, denom = integer_masses(w for _, w in SAME_MEASURE[name])
        assert DiscreteMeasure(2, points=[p for p, _ in SAME_MEASURE[name]], masses=masses, denom=denom) == ref

    def test_atoms_or_array_form_not_both(self):
        with pytest.raises(TypeError, match="either"):
            DiscreteMeasure(1, [((0.0,), 1)], points=[[0.0]], masses=[1], denom=1)
        with pytest.raises(TypeError, match="either"):
            DiscreteMeasure(1, points=[[0.0]], masses=[1])

    def test_spellings_are_one_dict_key(self):
        table = {DiscreteMeasure(2, atoms): name for name, atoms in SAME_MEASURE.items()}
        assert len(table) == 1
        assert DiscreteMeasure(2, SAME_MEASURE["sorted"]) in table

    def test_different_measures_differ(self):
        ref = DiscreteMeasure(2, SAME_MEASURE["sorted"])
        assert ref != DiscreteMeasure(2, [((0.0, 1.0), Fraction(1, 3)), ((1.0, -1.0), Fraction(2, 3))])
        assert ref != DiscreteMeasure(2, [((0.0, 1.0), HALF), ((1.0, -0.5), HALF)])
        assert ref != DiscreteMeasure(1, [((0.0,), HALF), ((1.0,), HALF)])
        assert ref != "not a measure"

    def test_negative_zero_stored_as_zero(self):
        mu = DiscreteMeasure(1, [((-0.0,), 1)])
        assert math.copysign(1.0, mu.points()[0, 0]) == 1.0
        assert mu.to_json() == '{"dim": 1, "atoms": [{"p": [0.0], "w": "1/1"}]}'

    def test_points_read_only(self):
        mu = empirical([(0.0,), (1.0,)])
        with pytest.raises(ValueError):
            mu.points()[0, 0] = 5.0
        assert mu.points()[0, 0] == 0.0

    def test_masses_reduced_after_merging(self):
        mu = DiscreteMeasure(1, [((0.0,), Fraction(1, 6)), ((0.0,), Fraction(1, 3)), ((1.0,), HALF)])
        assert mu.masses == (1, 1) and mu.denom == 2

    def test_numpy_integer_dim_round_trips(self):
        mu = DiscreteMeasure(np.int64(2), [((0.0, 1.0), 1)])
        assert type(mu.dim) is int
        assert DiscreteMeasure.from_json(mu.to_json()) == mu

    def test_numpy_integer_weights_give_python_ints(self):
        # Fraction(np.int64(1)) keeps a numpy numerator, whose sums would run in fixed width
        masses, denom = integer_masses([np.int64(1)])
        assert (masses, denom) == ([1], 1) and type(masses[0]) is int
        masses, denom = integer_masses([Fraction(np.int64(1), np.int64(3)), Fraction(2, 3)])
        assert (masses, denom) == ([1, 2], 3) and all(type(m) is int for m in masses) and type(denom) is int
        mu = DiscreteMeasure(1, [((0.0,), np.int64(1))])
        assert type(mu.masses[0]) is int and type(mu.denom) is int

    def test_numpy_float_weights_are_read_exactly(self):
        # Fraction takes np.float64, a float subclass, but no other numpy float width
        for x in (np.float16(0.1), np.float32(0.1), np.float64(0.1), np.longdouble(1) / 3):
            [(num, den)] = weight_ratios([x])
            assert type(num) is type(den) is int and math.gcd(num, den) == 1
            assert np.longdouble(num) / np.longdouble(den) == x  # num < 2^64: both convert exactly
        assert weight_ratios([np.float32(0.1)]) == [Fraction(float(np.float32(0.1))).as_integer_ratio()]
        assert integer_masses([np.float32(0.25), np.float16(0.75)]) == ([1, 3], 4)
        mu = DiscreteMeasure(1, [((0.0,), np.float32(0.5)), ((1.0,), np.longdouble(0.5))])
        assert mu.masses == (1, 1) and mu.denom == 2

    def test_huge_denominator_stays_exact(self):
        tiny = Fraction(1, 3**60)
        mu = DiscreteMeasure(1, [((0.0,), tiny), ((1.0,), 1 - tiny)])
        assert mu.denom == 3**60 and mu.masses == (1, 3**60 - 1)
        assert mu.weights() == (tiny, 1 - tiny)


def list_canonical(dim, points, masses, denom):
    """Reference canonicalisation with per-atom lists, as the constructor merged
    before its numpy merge: (support bytes, masses, denom)."""
    pts = np.asarray(points, dtype=float).reshape(-1, dim)
    keep = [i for i, m in enumerate(masses) if m]
    order = [keep[i] for i in np.lexsort(pts[keep].T[::-1]).tolist()]
    pts = pts[order] + 0.0
    first = np.ones(len(order), dtype=bool)
    first[1:] = (pts[1:] != pts[:-1]).any(axis=1)
    starts = np.flatnonzero(first).tolist() + [len(order)]
    ordered = [masses[i] for i in order]
    merged = [sum(ordered[a:b]) for a, b in zip(starts, starts[1:])]
    g = math.gcd(*merged)
    return pts[first].tobytes(), tuple(m // g for m in merged), denom // g


# few distinct coordinates, so atoms often coincide; -0.0 must merge with 0.0
coordinate = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
mass = st.one_of(st.just(0), st.integers(1, 6), st.integers(2**64, 2**70))


@st.composite
def raw_atoms(draw):
    dim = draw(st.integers(1, 3))
    m = draw(st.integers(1, 8))
    points = [[draw(coordinate) for _ in range(dim)] for _ in range(m)]
    masses = [draw(mass) for _ in range(m)]
    if not any(masses):
        masses[draw(st.integers(0, m - 1))] = 1
    return dim, points, masses


def dict_canonical(points, masses, denom):
    """Reference merge in Python ints: a dict keyed on row tuples (-0.0 + 0.0 is 0.0,
    so the two zeros share a key), zero masses dropped, rows sorted, masses reduced by
    their gcd: (support rows, masses, denom)."""
    merged = {}
    for row, m in zip(points, masses):
        key = tuple(x + 0.0 for x in row)
        merged[key] = merged.get(key, 0) + m
    rows = sorted(key for key, m in merged.items() if m)
    g = math.gcd(*(merged[key] for key in rows))
    return [list(key) for key in rows], tuple(merged[key] // g for key in rows), denom // g


@st.composite
def int64_edge_atoms(draw):
    """(dim, points, masses, denom) with denom just below 2^63, at or just above it, or
    small: the masses split denom at sorted cuts, so a repeated cut gives a zero mass,
    over few coordinates, so rows repeat and -0.0 meets 0.0."""
    dim = draw(st.integers(1, 8))
    m = draw(st.integers(1, 10))
    denom = draw(st.one_of(st.integers(2**63 - 16, 2**63 - 1), st.integers(2**63, 2**63 + 16),
                           st.integers(1, 12)))
    cuts = sorted(draw(st.lists(st.integers(0, denom), min_size=m - 1, max_size=m - 1)))
    masses = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, denom])]
    points = [[draw(coordinate) for _ in range(dim)] for _ in range(m)]
    return dim, points, masses, denom


@st.composite
def mass_array_atoms(draw):
    """(dim, points, masses, denom, dtype) for an int64 or uint64 mass array: denom small,
    just below 2^63 or anywhere below it, split at sorted cuts (so zero masses), over rows
    that may repeat (with -0.0 beside 0.0) or, with distinct first coordinates, may not."""
    dim = draw(st.integers(1, 8))
    m = draw(st.integers(1, 10))
    denom = draw(st.one_of(st.integers(1, 12), st.integers(2**63 - 16, 2**63 - 1), st.integers(1, 2**63 - 1)))
    cuts = sorted(draw(st.lists(st.integers(0, denom), min_size=m - 1, max_size=m - 1)))
    masses = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, denom])]
    points = [[draw(coordinate) for _ in range(dim)] for _ in range(m)]
    if draw(st.booleans()):  # no two rows equal
        for i, row in enumerate(points):
            row[0] = i - 0.5
    return dim, points, masses, denom, draw(st.sampled_from([np.int64, np.uint64]))


class TestMergeReference:
    @given(raw_atoms())
    @settings(max_examples=150, deadline=None)
    def test_points_form_matches_list_reference(self, atoms):
        dim, points, masses = atoms
        mu = DiscreteMeasure(dim, points=points, masses=masses, denom=sum(masses))
        assert (mu.support.tobytes(), mu.masses, mu.denom) == list_canonical(dim, points, masses, sum(masses))
        assert all(type(m) is int for m in mu.masses)

    @given(raw_atoms())
    @settings(max_examples=150, deadline=None)
    def test_atoms_form_matches_list_reference(self, atoms):
        dim, points, masses = atoms
        weights = [Fraction(m, sum(masses)) for m in masses]
        mu = DiscreteMeasure(dim, zip(points, weights))
        assert (mu.support.tobytes(), mu.masses, mu.denom) == list_canonical(dim, points, *integer_masses(weights))
        assert all(type(m) is int for m in mu.masses)

    @given(int64_edge_atoms())
    @settings(max_examples=150, deadline=None)
    def test_merge_matches_python_int_reference_at_the_int64_edge(self, atoms):
        dim, points, masses, denom = atoms
        mu = DiscreteMeasure(dim, points=points, masses=masses, denom=denom)
        assert (mu.support.tolist(), mu.masses, mu.denom) == dict_canonical(points, masses, denom)
        assert all(type(m) is int for m in mu.masses)

    @given(mass_array_atoms())
    @settings(max_examples=200, deadline=None)
    def test_integer_mass_array_gives_the_list_fields(self, atoms):
        # an int64 or uint64 array is checked in two reductions, not read element by element
        dim, points, masses, denom, dtype = atoms
        mu = DiscreteMeasure(dim, points=points, masses=np.array(masses, dtype=dtype), denom=denom)
        ref = DiscreteMeasure(dim, points=points, masses=masses, denom=denom)
        assert (mu.support.tobytes(), mu.masses, mu.denom) == (ref.support.tobytes(), ref.masses, ref.denom)
        assert all(type(m) is int for m in mu.masses) and type(mu.denom) is int

    def test_integer_mass_array_past_int64_merges_exactly(self):
        masses = np.array([2**63, 1, 1], dtype=np.uint64)  # denom 2^63 + 2 takes the Python-int merge
        mu = DiscreteMeasure(1, points=[[0.0], [1.0], [-0.0]], masses=masses, denom=2**63 + 2)
        assert mu.support.tolist() == [[0.0], [1.0]] and mu.masses == (2**63 + 1, 1) and mu.denom == 2**63 + 2
        assert all(type(m) is int for m in mu.masses)

    @pytest.mark.parametrize("masses, denom, message", [
        ([1, -1, 2], 2, "masses must be nonnegative and sum to denom 2 >= 1"),
        ([1, 1, 1], 4, "masses must be nonnegative and sum to denom 4 >= 1"),
        ([1, 1], 2, "2 masses for 3 points"),
    ], ids=["negative", "wrong_sum", "wrong_length"])
    def test_integer_mass_array_refused_as_the_list(self, masses, denom, message):
        points = [[0.0], [1.0], [2.0]]
        for given_masses in (masses, np.array(masses, dtype=np.int64)):
            with pytest.raises(ValueError) as exc:
                DiscreteMeasure(1, points=points, masses=given_masses, denom=denom)
            assert str(exc.value) == message

    def test_two_dimensional_mass_array_takes_the_list_route(self):
        # read element by element, as every masses argument but a 1-D integer array
        with pytest.raises(ValueError, match=r"^mass 0 must be an integer, got array\(\[1, 1, 1\]\)$"):
            DiscreteMeasure(1, points=[[0.0], [1.0], [2.0]], masses=np.array([[1, 1, 1]]), denom=3)

    def test_huge_masses_merge_exactly(self):
        big = 2**64 + 1
        mu = DiscreteMeasure(1, points=[[0.0], [-0.0], [1.0]], masses=[big, big, 2], denom=2 * big + 2)
        # 2 * (2^64 + 1) overflows int64; the merged mass keeps every digit
        assert mu.masses == (big, 1) and mu.denom == big + 1


# files written by `actionlim profile --graph star:5 -k 1 --count 4 --seed 1`,
# recorded so that a change of representation keeps the serialized form
GOLDEN_PROFILE = {
    "measure_0002.json": (
        '{"dim": 2, "atoms": [{"p": [-0.9925911123464033, -0.44711120333294296], "w": "1/5"}, '
        '{"p": [-0.5142462545107342, -0.9925911123464033], "w": "1/5"}, '
        '{"p": [-0.4964273888875692, -0.9925911123464033], "w": "1/5"}, '
        '{"p": [0.2031641331376952, -0.9925911123464033], "w": "1/5"}, '
        '{"p": [0.3603983069276653, -0.9925911123464033], "w": "1/5"}]}'
    ),
    "measure_0005.json": (
        '{"dim": 2, "atoms": [{"p": [0.0, 0.0], "w": "2/5"}, {"p": [0.0, 2.0], "w": "1/5"}, '
        '{"p": [1.0, 0.0], "w": "2/5"}]}'
    ),
}


class TestSerialization:
    def test_numpy_numbers_are_coordinates(self):
        # numpy scalars are numbers (np.int64 is no int); a float64 array is taken on its dtype
        mu = DiscreteMeasure(1, [([np.int64(1)], Fraction(1, 2)), ((np.float32(0.5),), Fraction(1, 2))])
        assert mu.support.tolist() == [[0.5], [1.0]]
        pts = np.array([[0.5], [1.0]])
        assert measures.float_rows(pts, "atom {} coordinate {}", "coordinates") is pts

    def test_profile_json_matches_golden(self, tmp_path, capsys):
        argv = ["profile", "--graph", "star:5", "-k", "1", "--count", "4", "--seed", "1", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        for name, text in GOLDEN_PROFILE.items():
            assert (tmp_path / name).read_text() == text + "\n"
            assert DiscreteMeasure.from_json(text).to_json() == text

    def test_round_trip(self):
        mu = DiscreteMeasure(2, [((0.5, -1.0), Fraction(1, 3)), ((0.0, 0.25), Fraction(2, 3))])
        assert DiscreteMeasure.from_json(mu.to_json()) == mu

    def test_dict_weight_format(self):
        mu = DiscreteMeasure(1, [((0.0,), Fraction(1, 3)), ((1.0,), Fraction(2, 3))])
        assert mu.to_dict()["atoms"][0]["w"] == "1/3"

    def test_non_finite_json_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            DiscreteMeasure.from_json('{"dim": 1, "atoms": [{"p": [NaN], "w": "1/1"}]}')


class TestOperations:
    def test_shift(self):
        mu = empirical([(0.0, 0.0), (1.0, 2.0)])
        nu = shift(mu, (1.0, -1.0))
        assert nu.mass((1.0, -1.0)) == Fraction(1, 2)
        assert nu.mass((2.0, 1.0)) == Fraction(1, 2)

    def test_mass_of_a_point(self):
        mu = empirical([(0.0, 1.0), (1.0, 0.0)])
        assert mu.mass((1.0, 0.0)) == Fraction(1, 2)
        assert mu.mass((1.0, 1.0)) == Fraction(0)  # right dimension, off the support
        with pytest.raises(ValueError, match=r"shape \(1,\) for a measure of dim 2"):
            mu.mass((0.0,))

    def test_shift_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            shift(empirical([(0.0,)]), (1.0, 2.0))

    def test_marginal_merges(self):
        mu = empirical([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)])
        mx = marginal(mu, [0])
        assert mx == empirical([(0.0,), (1.0,)])

    def test_mean_abs(self):
        mu = DiscreteMeasure(1, [((-0.5,), Fraction(1, 2)), ((1.0,), Fraction(1, 2))])
        assert mean_abs(mu, 0) == 0.75

    @given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.integers(1, 2**40)),
                    min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_mean_abs_is_the_rounded_exact_mean(self, atoms):
        # reference: one Fraction per atom, summed exactly and rounded once
        mu = DiscreteMeasure(1, points=[[x] for x, _ in atoms], masses=[m for _, m in atoms],
                             denom=sum(m for _, m in atoms))
        exact = sum((m * abs(Fraction(x)) for m, x in zip(mu.masses, mu.points()[:, 0].tolist())), Fraction(0))
        assert mean_abs(mu, 0) == float(exact / mu.denom)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_dyadic_is_exact_over_one_power_of_two(self, xs):
        nums, den = measures.dyadic(xs)
        assert den & (den - 1) == 0 and all(type(k) is int for k in nums)
        assert [Fraction(k, den) for k in nums] == [Fraction(x) for x in xs]

    def test_dyadic_refuses_non_finite_as_as_integer_ratio_does(self):
        assert measures.dyadic([]) == ([], 1)
        assert measures.dyadic([0.5, -3.0, 0.125]) == ([4, -24, 1], 8)
        with pytest.raises(OverflowError):
            measures.dyadic([1.0, math.inf])
        with pytest.raises(ValueError):
            measures.dyadic([math.nan])

    @given(dyadic_measures(2), st.tuples(dyadic, dyadic))
    @settings(max_examples=50, deadline=None)
    def test_shift_round_trip_exact(self, mu, v):
        assert shift(shift(mu, v), tuple(-c for c in v)) == mu

    @given(dyadic_measures(3))
    @settings(max_examples=50, deadline=None)
    def test_marginal_preserves_total_mass(self, mu):
        assert sum(marginal(mu, [0, 2]).weights(), Fraction(0)) == 1


class TestDiscretize:
    def test_quantized_points_close(self):
        pts = [(j / 100.0,) for j in range(100)]
        mu = empirical(pts)
        quant = discretize(mu, 4)
        dists = np.abs(mu.points() - quant.points().T).min(axis=1)
        assert max(dists) <= 1 / 4

    def test_stage_two_masses_are_multiples(self):
        mu = empirical([(j / 7.0,) for j in range(7)])
        quant = discretize(mu, 2, n=4)
        assert all(w.denominator <= 4 for w in quant.weights())
        assert sum(quant.weights(), Fraction(0)) == 1

    def test_atom_outside_box_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            discretize(empirical([(2.0,)]), 2, box=[(-1.0, 1.0)])

    def test_real_resolution_still_runs(self):
        # a real k is a cell diameter bound 1/k, as an integer one is
        mu = empirical([(j / 10.0,) for j in range(11)])
        assert discretize(mu, 2.5) == discretize(mu, Fraction(5, 2))
        assert discretize(mu, 2.0) == discretize(mu, 2)

    def test_float32_resolution_is_read_at_its_value(self):
        # a float32 k once stayed float32, so span * k ran in float32 and gave 4,748 cells of
        # 0.0012005661, wider than 1/k = 0.0012005660; at its float64 value it needs 4,749
        span = 5.700288052607967
        mu = empirical([(0.0,), (span,)])
        k = np.float32(832.9404)
        quant = discretize(mu, k)
        assert quant == discretize(mu, float(k))
        width = 2 * quant.points()[0, 0]  # the first cell starts at 0
        assert round(span / width) == 4749 and width <= 1 / float(k)

    def test_large_resolution_still_runs(self):
        # 10**15 cells of 3e-16 over a span of 0.3, below the 2^53 a side that is refused:
        # each atom keeps its own cell, within 1/k of it
        quant = discretize(empirical([(0.0,), (0.3,)]), 10**15)
        assert quant.support_size == 2
        assert np.abs(quant.points()[:, 0] - [0.0, 0.3]).max() <= 1e-15
        # a single atom spans nothing: one cell, whatever k
        assert discretize(empirical([(0.25,)]), 10**400) == empirical([(0.25,)])

    def test_point_mass_stays_put(self):
        mu = empirical([(0.5, 0.5)])
        quant = discretize(mu, 8)
        assert quant.support_size == 1

    def test_cell_diameter_multidim(self):
        rng = np.random.default_rng(0)
        mu = empirical([tuple(p) for p in rng.uniform(-1, 1, size=(50, 2))])
        quant = discretize(mu, 3, box=[(-1.0, 1.0), (-1.0, 1.0)])
        qpts = quant.points()
        for p in mu.points():
            d = math.sqrt(min(((qpts - p) ** 2).sum(axis=1)))
            assert d <= 1 / 3


TOO_FINE = "resolution k is too large: the grid would have more than 2^53 cells a side"


class TestRefusals:
    """Each input the module refuses, with its exception and message."""

    @pytest.mark.parametrize("call, message", [
        (lambda: DiscreteMeasure(0, [((), 1)]), "dim must be >= 1"),
        (lambda: DiscreteMeasure(1, points=[[0.0], [1.0]], masses=[1], denom=1), "1 masses for 2 points"),
        (lambda: DiscreteMeasure(1, points=[[0.0], [1.0]], masses=[1, 1], denom=3),
         "masses must be nonnegative and sum to denom 3 >= 1"),
        (lambda: empirical([]), "empty point list"),
        (lambda: marginal(empirical([(0.0, 1.0)]), []), "empty coordinate subset"),
        (lambda: marginal(empirical([(0.0, 1.0)]), [2]), "coordinate 2 out of range for dim 2"),
        (lambda: mean_abs(empirical([(0.0, 1.0)]), 2), "coordinate 2 out of range for dim 2"),
        (lambda: discretize(empirical([(0.0,)]), 0), "resolution k must be >= 1"),
        (lambda: discretize(empirical([(0.0,)]), 1, n=0), "stage-2 sample count n must be >= 1"),
        (lambda: discretize(empirical([(0.0,)]), 1, box=[(0, 1), (0, 1)]), "box has 2 dimensions, measure has 1"),
        # Fraction(inf) overflows and int(inf) too: each is refused by name, not by a traceback
        (lambda: integer_masses([math.inf]), "weight 0 is inf: weights must be finite numbers"),
        (lambda: integer_masses([Fraction(1, 2), math.nan]), "weight 1 is nan: weights must be finite numbers"),
        (lambda: DiscreteMeasure(1, [((0.0,), math.inf)]), "weight 0 is inf: weights must be finite numbers"),
        (lambda: DiscreteMeasure.from_json('{"dim": 1e400, "atoms": [{"p": [0], "w": "1/1"}]}'),
         "dim must be an integer, got inf"),
        (lambda: DiscreteMeasure.from_json('{"dim": 1.5, "atoms": [{"p": [0], "w": "1/1"}]}'),
         "dim must be an integer, got 1.5"),
        (lambda: DiscreteMeasure.from_json('{"dim": 1, "atoms": [{"p": [0], "w": 1e400}]}'),
         "weight 0 is inf: weights must be finite numbers"),
        # operator.index(True) is 1, but a bool dim would write JSON `true`, which from_dict refuses
        (lambda: DiscreteMeasure(True, [((0.0,), 1)]), "dim must be an integer, got True"),
        (lambda: DiscreteMeasure(1.0, [((0.0,), 1)]), "dim must be an integer, got 1.0"),
        (lambda: DiscreteMeasure(2.5, [((0.0, 0.0), 1)]), "dim must be an integer, got 2.5"),
        (lambda: DiscreteMeasure("1", [((0.0,), 1)]), "dim must be an integer, got '1'"),
        # Fraction(True) is 1, but JSON true is no weight, as it is no dim; null is no number
        (lambda: DiscreteMeasure.from_dict({"dim": 1, "atoms": [{"p": [0], "w": True}]}),
         "weight 0 is True: weights must be finite numbers"),
        (lambda: DiscreteMeasure.from_json('{"dim": 1, "atoms": [{"p": [0], "w": 0.5}, {"p": [1], "w": null}]}'),
         "weight 1 is None: weights must be finite numbers"),
        (lambda: integer_masses([np.float32("inf")]), f"weight 0 is {np.float32('inf')!r}: weights must be finite numbers"),
        # Fraction expands a decimal exponent into an exact int, 10^100000 here
        (lambda: DiscreteMeasure.from_dict({"dim": 1, "atoms": [{"p": [0.0], "w": "1e100000"}]}),
         "weight 0 is '1e100000': weight strings must have no exponent"),
        (lambda: DiscreteMeasure.from_dict({"dim": 1, "atoms": [{"p": [0.0], "w": "1/2"}, {"p": [1.0], "w": "1E5"}]}),
         "weight 1 is '1E5': weight strings must have no exponent"),
        # one reader, one message for a negative weight, and a weights argument read whole
        (lambda: integer_masses([Fraction(3, 2), Fraction(-1, 2)]), "weight 1 is -1/2: weights must be nonnegative"),
        (lambda: integer_masses(5), "weights must be a sequence of numbers, got 5"),
        (lambda: integer_masses(b"1"), "weights must be a sequence of numbers, got b'1'"),
        # np.asarray reads JSON true and "0.5" as numbers and null as nan, and overflows on a huge integer
        (lambda: DiscreteMeasure.from_dict({"dim": 1, "atoms": [{"p": [True], "w": 1}]}),
         "atom 0 coordinate 0 is True: coordinates must be numbers"),
        (lambda: DiscreteMeasure.from_json('{"dim": 2, "atoms": [{"p": [0, 0], "w": 0.5}, {"p": [0, "0.5"], "w": 0.5}]}'),
         "atom 1 coordinate 1 is '0.5': coordinates must be numbers"),
        (lambda: DiscreteMeasure.from_json('{"dim": 1, "atoms": [{"p": [null], "w": 1}]}'),
         "atom 0 coordinate 0 is None: coordinates must be numbers"),
        (lambda: DiscreteMeasure.from_dict({"dim": 1, "atoms": [{"p": [-10**400], "w": 1}]}),
         "atom 0 coordinate 0 is an integer past the float range"),
        # the constructor holds the same gate as from_dict, for atoms and for a points array
        (lambda: DiscreteMeasure(1, [([True], 1)]), "atom 0 coordinate 0 is True: coordinates must be numbers"),
        (lambda: DiscreteMeasure(1, [(["0.5"], 1)]), "atom 0 coordinate 0 is '0.5': coordinates must be numbers"),
        (lambda: DiscreteMeasure(2, points=[(0.0, 1.0), (0.5, None)], masses=[1, 1], denom=2),
         "atom 1 coordinate 1 is None: coordinates must be numbers"),
        (lambda: DiscreteMeasure(1, points=np.array([[True]]), masses=[1], denom=1),
         "atom 0 coordinate 0 is True: coordinates must be numbers"),
        # a JSON value of the wrong shape is refused by the key it lacks or holds wrongly
        (lambda: DiscreteMeasure.from_json('[1, 2]'), "measure JSON must be an object, got list"),
        (lambda: DiscreteMeasure.from_json('{"atoms": []}'), "measure JSON has no 'dim'"),
        (lambda: DiscreteMeasure.from_json('{"dim": 1}'), "measure JSON has no 'atoms'"),
        (lambda: DiscreteMeasure.from_json('{"dim": 1, "atoms": {"p": [0], "w": 1}}'),
         "measure 'atoms' must be a list, got {'p': [0], 'w': 1}"),
        (lambda: DiscreteMeasure.from_json('{"dim": 1, "atoms": [{"p": [0], "w": 1}, 3]}'),
         "atom 1 must be an object, got int"),
        (lambda: DiscreteMeasure.from_json('{"dim": 1, "atoms": [{"p": [0]}]}'), "atom 0 has no 'w'"),
        (lambda: DiscreteMeasure.from_json('{"dim": 1, "atoms": [{"p": {"x": 0}, "w": 1}]}'),
         "coordinates must be numbers: float() argument must be a string or a real number, not 'dict'"),
        # denom and each listed mass are read by int_value, as dim is
        (lambda: DiscreteMeasure(1, points=[[0.0]], masses=[2], denom=2.0), "denom must be an integer, got 2.0"),
        (lambda: DiscreteMeasure(1, points=[[0.0]], masses=[1], denom="1"), "denom must be an integer, got '1'"),
        (lambda: DiscreteMeasure(1, points=[[0.0], [1.0]], masses=[1, True], denom=2), "mass 1 must be an integer, got True"),
        (lambda: DiscreteMeasure(1, points=[[0.0]], masses=[1.0], denom=1), "mass 0 must be an integer, got 1.0"),
        # the points of empirical, the vector of shift, the point of mass and the box of discretize
        # are read by float_rows, which refuses True, "0.5" and None
        (lambda: empirical([(True,), (0.5,)]), "point 0 coordinate 0 is True: coordinates must be numbers"),
        (lambda: empirical([(0.5,), ("0.5",)]), "point 1 coordinate 0 is '0.5': coordinates must be numbers"),
        (lambda: empirical([(None,)]), "point 0 coordinate 0 is None: coordinates must be numbers"),
        (lambda: shift(empirical([(0.0,)]), (True,)), "entry 0 of v is True: entries of v must be numbers"),
        (lambda: shift(empirical([(0.0,)]), ("0.5",)), "entry 0 of v is '0.5': entries of v must be numbers"),
        (lambda: empirical([(0.0,), (1.0,)]).mass(("1",)),
         "coordinate 0 of the point is '1': coordinates must be numbers"),
        (lambda: discretize(empirical([(0.5,)]), 2, box=[("0", "1")]),
         "box dimension 0 bound 0 is '0': box bounds must be numbers"),
        (lambda: discretize(empirical([(0.5,)]), 2, box=[(False, True)]),
         "box dimension 0 bound 0 is False: box bounds must be numbers"),
        (lambda: discretize(empirical([(0.5,)]), 2, box=[(0.0, 0.5, 1.0)]),
         "box must be one (lo, hi) pair per dimension, got an array of shape (1, 3)"),
        # indices and counts are integers: numpy reads a list of bools as a mask, so [True, True]
        # would keep both coordinates, not coordinate 1 twice
        (lambda: marginal(empirical([(0.0, 1.0)]), [True, True]), "coordinate must be an integer, got True"),
        (lambda: marginal(empirical([(0.0, 1.0)]), [0.0]), "coordinate must be an integer, got 0.0"),
        (lambda: mean_abs(empirical([(0.0, 1.0)]), True), "coordinate must be an integer, got True"),
        (lambda: discretize(empirical([(0.5,)]), 1, n=2.0), "stage-2 sample count n must be an integer, got 2.0"),
        # k is read by real_value: True once ran as k = 1, and a NaN k passed the k < 1 test
        (lambda: discretize(empirical([(0.5,)]), True), "resolution k must be a real number, got True"),
        (lambda: discretize(empirical([(0.5,)]), "2"), "resolution k must be a real number, got '2'"),
        (lambda: discretize(empirical([(0.5,)]), math.nan), "resolution k must be a finite number, got nan"),
        (lambda: discretize(empirical([(0.5,)]), math.inf), "resolution k must be a finite number, got inf"),
        # a k too large for the grid once escaped as an OverflowError from the float or int64 cell count
        (lambda: discretize(empirical([(0.0,), (0.3,)]), 10**400), TOO_FINE),
        (lambda: discretize(empirical([(0.0,), (0.3,)]), Fraction(10**400)), TOO_FINE),
        (lambda: discretize(empirical([(0.0,), (0.3,)]), 10**300), TOO_FINE),
    ], ids=["dim_0", "mass_count", "mass_sum", "empirical_empty", "marginal_empty", "marginal_out_of_range",
            "mean_abs_out_of_range", "discretize_k_0", "discretize_n_0", "discretize_box_dims",
            "weight_inf", "weight_nan", "atom_weight_inf", "json_dim_overflows", "json_dim_fractional",
            "json_weight_overflows", "dim_bool", "dim_float", "dim_fractional", "dim_string",
            "json_weight_bool", "json_weight_null", "weight_float32_inf", "json_weight_exponent",
            "json_weight_exponent_upper", "weight_negative", "weights_int",
            "weights_bytes", "json_coordinate_bool",
            "json_coordinate_string", "json_coordinate_null", "json_coordinate_huge_int", "coordinate_bool",
            "coordinate_string", "points_none", "points_bool_array", "json_list", "json_no_dim", "json_no_atoms",
            "json_atoms_object", "json_atom_int", "json_atom_no_w", "json_point_object", "denom_float",
            "denom_string", "mass_bool", "mass_float", "empirical_coordinate_bool", "empirical_coordinate_string",
            "empirical_coordinate_null", "shift_entry_bool", "shift_entry_string", "mass_point_string",
            "discretize_box_string", "discretize_box_bool", "discretize_box_shape", "marginal_coordinate_bool",
            "marginal_coordinate_float", "mean_abs_coordinate_bool", "discretize_n_float", "discretize_k_bool",
            "discretize_k_string", "discretize_k_nan", "discretize_k_inf", "discretize_k_beyond_floats",
            "discretize_k_fraction_beyond_floats", "discretize_k_beyond_int64"])
    def test_refused(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


NUMPY_INTEGERS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


class TestIntValue:
    """`int_value`, the one reader of a caller's integer."""

    @given(st.one_of(
        st.integers(),
        st.sampled_from(NUMPY_INTEGERS).flatmap(
            lambda t: st.integers(int(np.iinfo(t).min), int(np.iinfo(t).max)).map(t)),
    ))
    def test_integers_read_as_python_ints(self, value):
        got = int_value(value, "x")
        assert type(got) is int and got == value

    @pytest.mark.parametrize("value", [True, False, np.True_, 2.0, np.float64(2.0), "2", None, Fraction(2, 1)],
                             ids=repr)
    def test_refused_by_name(self, value):
        with pytest.raises(ValueError) as exc:
            int_value(value, "x")
        assert str(exc.value) == f"x must be an integer, got {value!r}"

    def test_numpy_integer_dim_and_denom_stored_as_python_ints(self):
        mu = DiscreteMeasure(np.int64(1), points=[[0.0], [1.0]], masses=np.array([1, 3]), denom=np.int32(4))
        assert type(mu.dim) is int and type(mu.denom) is int
        assert (mu.dim, mu.masses, mu.denom) == (1, (1, 3), 4)
        assert mu.to_json() == DiscreteMeasure(1, points=[[0.0], [1.0]], masses=[1, 3], denom=4).to_json()


class TestRealValue:
    """`real_value`, the one reader of a caller's real number (its refusals: eps and GraphSpec.p)."""

    @pytest.mark.parametrize("value", [0, 2, 0.5, np.float64(0.5), np.float32(0.5), np.int64(3), Fraction(1, 3),
                                       np.float16(0.1), np.float32(0.1), np.longdouble(1) / 3, np.float32("inf"),
                                       np.longdouble("-inf"), np.float32("nan"), np.longdouble("nan")], ids=repr)
    def test_reals_returned_as_they_are(self, value):
        # a numpy float comes back as the exact Python number it equals, since under NumPy 2 a
        # float32 scalar would pull the Python floats it meets down to float32: a finite
        # longdouble, wider than float64, as its Fraction, any other as a float; all else as it is
        got = real_value(value, "x")
        if not isinstance(value, np.floating):
            assert got is value
        elif value.dtype.itemsize > 8 and np.isfinite(value):
            assert type(got) is Fraction and got == Fraction(*value.as_integer_ratio())
        else:
            assert type(got) is float and (got == value or got != got and value != value)
