import numpy as np
import pytest

from actionlim import (
    GraphSpec,
    adjacency,
    broadcast,
    non_self_adjoint_witness,
    positivity_defect,
    signed_limit,
)


class TestBroadcast:
    def test_matrix_shape(self):
        B = broadcast(4, 1)
        expected = np.zeros((4, 4))
        expected[:, 1] = 1.0
        assert np.array_equal(B.matrix, expected)

    def test_fixes_constant_one(self):
        B = broadcast(6, 0)
        assert np.array_equal(B.matrix @ np.ones(6), np.ones(6))

    def test_index_validated(self):
        with pytest.raises(ValueError, match="out of range"):
            broadcast(4, 4)


class TestSignedLimit:
    def test_plus_adds_column(self):
        A = adjacency(GraphSpec("cycle", 5))
        P = signed_limit(A, 0, 1)
        assert np.array_equal(P.matrix, A.matrix + broadcast(5, 0).matrix)

    def test_minus_subtracts_column(self):
        A = adjacency(GraphSpec("cycle", 5))
        M = signed_limit(A, 0, -1)
        assert np.array_equal(M.matrix, A.matrix - broadcast(5, 0).matrix)

    def test_minus_loses_positivity(self):
        A = adjacency(GraphSpec("cycle", 8))
        assert positivity_defect(signed_limit(A, 0, -1)) == 1.0
        assert positivity_defect(signed_limit(A, 0, 1)) == 0.0

    def test_sign_validated(self):
        with pytest.raises(ValueError, match="sign"):
            signed_limit(adjacency(GraphSpec("cycle", 4)), 0, 2)

    def test_float_sign_still_builds(self):
        A = adjacency(GraphSpec("cycle", 4))
        assert signed_limit(A, 0, 1.0).name == signed_limit(A, 0, 1).name == "signed:+:0:cycle:4"
        assert np.array_equal(signed_limit(A, 0, -1.0).matrix, signed_limit(A, 0, -1).matrix)


class TestWitness:
    def test_zero_for_symmetric(self):
        A = adjacency(GraphSpec("cycle", 8))
        assert non_self_adjoint_witness(A, 0) == 0.0
