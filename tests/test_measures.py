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
from actionlim import cli

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
    ], ids=["dim_0", "mass_count", "mass_sum", "empirical_empty", "marginal_empty", "marginal_out_of_range",
            "mean_abs_out_of_range", "discretize_k_0", "discretize_n_0", "discretize_box_dims",
            "weight_inf", "weight_nan", "atom_weight_inf", "json_dim_overflows", "json_dim_fractional",
            "json_weight_overflows", "dim_bool", "dim_float", "dim_fractional", "dim_string"])
    def test_refused(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
