from fractions import Fraction

import numpy as np
import pytest

from actionlim import (
    DiscreteMeasure,
    GraphSpec,
    TestFunctionStrategy,
    WeightedOperator,
    action_distance_estimate,
    adjacency,
    broadcast,
    hausdorff,
    measure_of,
    norm_from_profile,
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

    def test_numpy_integers_stored_as_python_ints(self):
        s = TestFunctionStrategy("vertex_probe", count=np.int32(4), seed=np.int64(3), probe_vertex=np.uint8(1))
        assert all(type(x) is int for x in (s.count, s.seed, s.probe_vertex))
        assert s == TestFunctionStrategy("vertex_probe", count=4, seed=3, probe_vertex=1)
        assert s.fingerprint() == "vertex_probe:4:3:v1:g9"

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

    def test_one_vector_is_a_one_tuple(self):
        A = adjacency(GraphSpec("star", 3))
        assert measure_of(A, [1.0, 0.5, -0.5]) == measure_of(A, [[1.0, 0.5, -0.5]])

    def test_rejects_oversized_entries(self):
        A = adjacency(GraphSpec("star", 3))
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            measure_of(A, [[2.0, 0.0, 0.0]])

    @pytest.mark.parametrize("x", [1 + 1e-10, np.nextafter(1.0, 2.0), -np.nextafter(1.0, 2.0)])
    def test_rejects_entries_just_past_one(self, x):
        A = adjacency(GraphSpec("star", 3))
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            measure_of(A, [[x, 0.0, 0.0]])

    def test_accepts_plus_and_minus_one(self):
        A = adjacency(GraphSpec("star", 3))
        mu = measure_of(A, [[1.0, -1.0, 1.0]])
        assert mu.mass((1.0, 0.0)) == Fraction(1, 3)  # the centre: f = 1, Af = -1 + 1

    def test_rejects_nan_entries(self):
        A = adjacency(GraphSpec("star", 3))
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            measure_of(A, [[np.nan, 0.5, 0.5]])

    def test_rejects_three_dimensional_input(self):
        A = adjacency(GraphSpec("star", 5))
        with pytest.raises(ValueError, match=r"shape \(2, 2, 5\)"):
            measure_of(A, np.zeros((2, 2, 5)))

    @pytest.mark.parametrize("n", [8, 32])
    def test_equals_the_atoms_route(self, n):
        # the same float rows, built through (point, weight) atoms: the operator's cached
        # int64 masses give the fields the atoms' Fractions give, merged or not
        strategy = TestFunctionStrategy("mixed", 64, 7)
        for A in (adjacency(GraphSpec("star", n)), broadcast(n)):
            for k in (1, 2, 3):
                for fs in strategy.tuples(n, k):
                    mu = measure_of(A, fs)
                    rows = np.concatenate((fs, fs @ A.matrix.T)).T.tolist()
                    ref = DiscreteMeasure(2 * k, zip(rows, A.weights))
                    assert (mu.support.tobytes(), mu.masses, mu.denom) == (ref.support.tobytes(), ref.masses, ref.denom)

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
        assert hausdorff(profile_sample(A, 1, strat).measures, profile_sample(A, 1, strat).measures).value == 0.0

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
        # the fingerprint records both operators' strategies, here the same one twice
        assert d["strategy"] == f"{strat.fingerprint()}|{strat.fingerprint()}"

    def test_action_distance_zero_for_equal_operators(self):
        strat = TestFunctionStrategy("mixed", count=4, seed=0)
        A = adjacency(GraphSpec("cycle", 6))
        assert action_distance_estimate(A, A, 2, strat).value == 0.0

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


class TestRefusals:
    """Each input the module refuses, with its exception and message."""

    @pytest.mark.parametrize("call, message", [
        (lambda: TestFunctionStrategy(count=-1), "count must be >= 0"),
        (lambda: profiles.ProfileSample(1, (DiscreteMeasure(1, [((0.0,), 1)]),), "x"), "measure has dim 1, expected 2"),
        (lambda: profile_sample(broadcast(3), 0, TestFunctionStrategy()), "k must be >= 1"),
        (lambda: action_distance_estimate(broadcast(3), broadcast(3), 0, TestFunctionStrategy()),
         "truncation K must be >= 1"),
        # np.asarray(..., dtype=float) read True and "0.5" as numbers and None as nan
        (lambda: measure_of(broadcast(2), [[True, False]]), "test vector 0 entry 0 is True: test vector entries must be numbers"),
        (lambda: measure_of(broadcast(2), [[0.0, 1.0], ["0.5", 1.0]]),
         "test vector 1 entry 0 is '0.5': test vector entries must be numbers"),
        (lambda: measure_of(broadcast(2), [None, 1.0]), "test vector 0 entry 0 is None: test vector entries must be numbers"),
        (lambda: measure_of(broadcast(2), np.array([[0.5, None]])),
         "test vector 0 entry 1 is None: test vector entries must be numbers"),
        # the strategy's integers, k and K are read by int_value
        (lambda: TestFunctionStrategy(count=2.0), "count must be an integer, got 2.0"),
        (lambda: TestFunctionStrategy(seed=1.5), "seed must be an integer, got 1.5"),
        (lambda: TestFunctionStrategy(seed=True), "seed must be an integer, got True"),
        (lambda: TestFunctionStrategy("vertex_probe", probe_vertex=True), "probe_vertex must be an integer, got True"),
        (lambda: profile_sample(broadcast(3), 1.0, TestFunctionStrategy()), "k must be an integer, got 1.0"),
        (lambda: action_distance_estimate(broadcast(3), broadcast(3), 1.0, TestFunctionStrategy()),
         "K must be an integer, got 1.0"),
    ], ids=["strategy_count", "sample_dim", "profile_k_0", "estimate_K_0", "vector_entry_bool", "vector_entry_string",
            "one_vector_entry_null", "vector_entry_object_array", "strategy_count_float", "strategy_seed_float",
            "strategy_seed_bool", "strategy_probe_vertex_bool", "profile_k_float", "estimate_K_float"])
    def test_refused(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
