"""Finite-stage approximants of the limit operators of apex-vertex sequences.

The broadcast matrix (every row has a single 1 in a distinguished column)
models evaluation at a distinguished coordinate; adding or subtracting it
from a base operator yields the two signed limit approximants.
"""
from __future__ import annotations

import numpy as np

from .operators import WeightedOperator, bilinear

__all__ = [
    "broadcast",
    "signed_limit",
    "non_self_adjoint_witness",
]


def broadcast(n: int, i_star: int = 0) -> WeightedOperator:
    """Rank-one matrix sending f to f[i_star] times the all-ones vector."""
    if not 0 <= i_star < n:
        raise ValueError(f"distinguished index {i_star} out of range for n={n}")
    m = np.zeros((n, n))
    m[:, i_star] = 1.0
    return WeightedOperator(m, name=f"broadcast:{n}:{i_star}")


def signed_limit(A: WeightedOperator, i_star: int, sign: int) -> WeightedOperator:
    """A plus or minus the broadcast matrix on A's coordinates."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not 0 <= i_star < A.n:
        raise ValueError(f"distinguished index {i_star} out of range for n={A.n}")
    m = A.matrix.copy()
    m[:, i_star] += float(sign)
    tag = "+" if sign == 1 else "-"
    return WeightedOperator(m, A.weights, name=f"signed:{tag}:{i_star}:{A.name}")


def non_self_adjoint_witness(B: WeightedOperator, i_star: int) -> float:
    """Asymmetry of the bilinear form on (indicator of i_star, all-ones)."""
    if not 0 <= i_star < B.n:
        raise ValueError(f"index {i_star} out of range for n={B.n}")
    f = np.zeros(B.n)
    f[i_star] = 1.0
    ones = np.ones(B.n)
    return abs(bilinear(B, f, ones) - bilinear(B, ones, f))
