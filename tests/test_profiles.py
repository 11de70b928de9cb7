from fractions import Fraction

import numpy as np
import pytest

from actionlim import (
    GraphSpec,
    TestFunctionStrategy,
    WeightedOperator,
    action_distance_estimate,
    adjacency,
    broadcast,
    measure_of,
    norm_from_profile,
    profile_hausdorff,
    profile_sample,
)
from actionlim import profiles
from actionlim.profiles import PROBE_VALUES


@pytest.fixture
def draws(monkeypatch):
    """Arguments of every `_derived_rng` call, made with the draw memo emptied first."""
    calls = []
    real = profiles._derived_rng

    def counting(*args):
        calls.append(args)
        return real(*args)

    memo = TestFunctionStrategy.tuples
    monkeypatch.setattr(profiles, "_derived_rng", counting)
    memo.cache_clear()
    yield calls
    memo.cache_clear()


class TestStrategy:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            TestFunctionStrategy("bogus")

    def test_vertex_probe_requires_vertex(self):
        with pytest.raises(ValueError, match="probe_vertex"):
            TestFunctionStrategy("vertex_probe")

    def test_tuples_start_with_ones_and_zeros(self):
        ts = TestFunctionStrategy("mixed", count=2, seed=1).tuples(5, 2)
        assert len(ts) == 4
        assert np.array_equal(ts[0], np.ones((2, 5)))
        assert np.array_equal(ts[1], np.zeros((2, 5)))

    def test_entries_in_unit_ball(self):
        for kind in ("mixed", "iid_uniform", "rademacher", "block_step", "indicator"):
            for fs in TestFunctionStrategy(kind, count=8, seed=3).tuples(10, 2):
                assert np.max(np.abs(fs)) <= 1.0

    def test_deterministic_and_order_free(self):
        a = TestFunctionStrategy("mixed", count=6, seed=9).tuples(7, 2)
        TestFunctionStrategy.tuples.cache_clear()  # draw again rather than reuse the memo
        b = TestFunctionStrategy("mixed", count=6, seed=9).tuples(7, 2)
        assert a is not b
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_seed_changes_draws(self):
        a = TestFunctionStrategy("iid_uniform", count=1, seed=0).tuples(7, 1)[2]
        b = TestFunctionStrategy("iid_uniform", count=1, seed=1).tuples(7, 1)[2]
        assert not np.array_equal(a, b)

    def test_vertex_probe_pins_probe_column(self):
        strat = TestFunctionStrategy("vertex_probe", count=18, seed=4, probe_vertex=3)
        for i, fs in enumerate(strat.tuples(6, 2)[2:]):
            assert np.all(fs[:, 3] == PROBE_VALUES[i % len(PROBE_VALUES)])

    def test_vertex_probe_shares_bases_across_targets(self):
        # same seed, different probe vertex: the non-probed columns agree
        a = TestFunctionStrategy("vertex_probe", count=9, seed=4, probe_vertex=0).tuples(6, 2)
        b = TestFunctionStrategy("vertex_probe", count=9, seed=4, probe_vertex=5).tuples(6, 2)
        for fa, fb in zip(a[2:], b[2:]):
            assert np.array_equal(fa[:, 1:5], fb[:, 1:5])

    def test_vertex_probe_draws_each_base_once(self, draws):
        strat = TestFunctionStrategy("vertex_probe", count=64, seed=4, probe_vertex=2)
        got = strat.tuples(6, 2)[2:]
        # 64 probe tuples over 9 probe values: bases 0..7, one draw each
        assert draws == [(4, 2, b, 6, b"base") for b in range(8)]
        for i, fs in enumerate(got):
            want = strat._draw("iid_uniform", profiles._derived_rng(4, 2, i // 9, 6, b"base"), 6, 2)
            want[:, 2] = PROBE_VALUES[i % 9]
            assert np.array_equal(fs, want)

    @pytest.mark.parametrize("kind", ["mixed", "vertex_probe"])
    def test_tuples_are_read_only(self, kind):
        ts = TestFunctionStrategy(kind, count=10, seed=1, probe_vertex=0).tuples(4, 2)
        assert isinstance(ts, tuple)
        for fs in ts:
            assert not fs.flags.writeable
            with pytest.raises(ValueError):
                fs[0, 0] = 0.5

    @pytest.mark.parametrize("seed", [2**63, -(2**63) - 1])
    def test_seed_outside_int64_refused(self, seed):
        with pytest.raises(ValueError, match=f"seed {seed} "):
            TestFunctionStrategy("mixed", count=1, seed=seed)

    @pytest.mark.parametrize("seed", [2**63 - 1, -(2**63)])
    def test_int64_seed_bounds_draw(self, seed):
        assert len(TestFunctionStrategy("mixed", count=1, seed=seed).tuples(3, 1)) == 3

    def test_probe_vertex_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            TestFunctionStrategy("vertex_probe", probe_vertex=9).tuples(5, 1)

    def test_fingerprint_distinguishes(self):
        a = TestFunctionStrategy("mixed", count=4, seed=1)
        b = TestFunctionStrategy("mixed", count=4, seed=2)
        assert a.fingerprint() != b.fingerprint()


class TestMeasureOf:
    def test_joint_distribution(self):
        A = adjacency(GraphSpec("star", 3))
        mu = measure_of(A, [[1.0, 0.5, -0.5]])
        # atoms (f(j), Af(j)) with weight 1/3 each
        assert mu.dim == 2
        assert mu.mass((1.0, 0.0)) == Fraction(1, 3)
        assert mu.mass((0.5, 1.0)) == Fraction(1, 3)
        assert mu.mass((-0.5, 1.0)) == Fraction(1, 3)

    def test_respects_operator_weights(self):
        A = WeightedOperator(np.eye(2), [Fraction(1, 4), Fraction(3, 4)])
        mu = measure_of(A, [[1.0, 0.0]])
        assert mu.mass((1.0, 1.0)) == Fraction(1, 4)
        assert mu.mass((0.0, 0.0)) == Fraction(3, 4)

    def test_rejects_oversized_entries(self):
        A = adjacency(GraphSpec("star", 3))
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            measure_of(A, [[2.0, 0.0, 0.0]])

    def test_rejects_nan_entries(self):
        A = adjacency(GraphSpec("star", 3))
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            measure_of(A, [[np.nan, 0.5, 0.5]])

    def test_rejects_three_dimensional_input(self):
        A = adjacency(GraphSpec("star", 5))
        with pytest.raises(ValueError, match=r"shape \(2, 2, 5\)"):
            measure_of(A, np.zeros((2, 2, 5)))

    def test_rejects_length_mismatch(self):
        A = adjacency(GraphSpec("star", 3))
        with pytest.raises(ValueError, match="length"):
            measure_of(A, [[1.0, 0.0]])


class TestSampling:
    def test_profile_sample_shape(self):
        strat = TestFunctionStrategy("mixed", count=4, seed=0)
        sample = profile_sample(adjacency(GraphSpec("cycle", 6)), 2, strat)
        assert sample.k == 2
        assert len(sample.measures) == 6
        assert all(m.dim == 4 for m in sample.measures)

    def test_identical_operators_have_zero_hausdorff(self):
        strat = TestFunctionStrategy("mixed", count=4, seed=0)
        A = adjacency(GraphSpec("cycle", 6))
        assert profile_hausdorff(profile_sample(A, 1, strat), profile_sample(A, 1, strat)) == 0.0

    def test_action_distance_report(self):
        strat = TestFunctionStrategy("mixed", count=4, seed=0)
        A = adjacency(GraphSpec("star", 8))
        B = broadcast(8, 0)
        rep = action_distance_estimate(A, B, 2, strat)
        assert rep.truncation_k == 2
        assert rep.tail_bound == 0.25
        assert rep.value == sum(h / 2.0**k for k, h in rep.per_k)
        assert rep.value > 0.0
        d = rep.to_dict()
        assert d["strategy"] == strat.fingerprint()

    def test_action_distance_zero_for_equal_operators(self):
        strat = TestFunctionStrategy("mixed", count=4, seed=0)
        A = adjacency(GraphSpec("cycle", 6))
        assert action_distance_estimate(A, A, 2, strat).value == 0.0

    def test_norm_from_profile_star_exact(self):
        strat = TestFunctionStrategy("mixed", count=8, seed=3)
        got = norm_from_profile(profile_sample(adjacency(GraphSpec("star", 8)), 1, strat))
        assert got == 1.75

    def test_norm_from_profile_requires_k1(self):
        strat = TestFunctionStrategy("mixed", count=2, seed=0)
        with pytest.raises(ValueError, match="1-profile"):
            norm_from_profile(profile_sample(adjacency(GraphSpec("cycle", 4)), 2, strat))


class TestSharedDraw:
    @pytest.mark.parametrize(
        "seed_b, n_b, draws_per_k",
        [(7, 8, 64), (8, 8, 128), (7, 9, 128)],
        ids=["equal", "unequal_strategy", "unequal_n"],
    )
    def test_one_draw_per_k_only_when_both_sides_match(self, monkeypatch, draws, seed_b, n_b, draws_per_k):
        A, B = adjacency(GraphSpec("star", 8)), broadcast(n_b, 0)
        # separately built, so equal only by value, as the experiment runner builds them
        strat_a, strat_b = TestFunctionStrategy("mixed", 64, 7), TestFunctionStrategy("mixed", 64, seed_b)
        report = action_distance_estimate(A, B, 3, strat_a, strat_b)
        assert len(draws) == 3 * draws_per_k
        monkeypatch.setattr(TestFunctionStrategy, "tuples", TestFunctionStrategy.tuples.__wrapped__)
        unshared = action_distance_estimate(A, B, 3, strat_a, strat_b)
        assert report.to_dict() == unshared.to_dict()
        assert report.to_dict()["strategy"] == f"mixed:64:7|mixed:64:{seed_b}"
