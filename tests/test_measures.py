import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from actionlim import (
    DiscreteMeasure,
    ShiftVector,
    discretize,
    empirical,
    marginal,
    mean_abs,
    product_with_dirac,
    shift,
)

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


class TestSerialization:
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
        nu = shift(mu, ShiftVector((1.0, -1.0)))
        assert nu.mass((1.0, -1.0)) == Fraction(1, 2)
        assert nu.mass((2.0, 1.0)) == Fraction(1, 2)

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

    def test_product_with_dirac(self):
        nu = empirical([(0.0,), (1.0,)])
        prod = product_with_dirac(nu, (0.25,))
        assert prod.dim == 2
        assert prod.mass((1.0, 0.25)) == Fraction(1, 2)

    @given(dyadic_measures(2), st.tuples(dyadic, dyadic))
    @settings(max_examples=50, deadline=None)
    def test_shift_round_trip_exact(self, mu, v):
        sv = ShiftVector(v)
        assert shift(shift(mu, sv), -sv) == mu

    @given(dyadic_measures(3))
    @settings(max_examples=50, deadline=None)
    def test_marginal_preserves_total_mass(self, mu):
        assert sum(marginal(mu, [0, 2]).weights(), Fraction(0)) == 1


class TestDiscretize:
    def test_quantized_points_close(self):
        pts = [(j / 100.0,) for j in range(100)]
        mu = empirical(pts)
        quant = discretize(mu, 4)
        dists = [
            min(abs(p[0] - q[0]) for q, _ in quant.atoms) for p, _ in mu.atoms
        ]
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
        for p, _ in mu.atoms:
            d = math.sqrt(min(((qpts - np.array(p)) ** 2).sum(axis=1)))
            assert d <= 1 / 3
