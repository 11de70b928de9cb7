"""Finite-stage approximants of the limit operators of apex-vertex sequences.

The broadcast matrix (every row has a single 1 in a distinguished column)
models evaluation at a distinguished coordinate; adding or subtracting it
from a base operator yields the two signed limit approximants.  The
limiting star profile set, products of measures with a Dirac in the
y-block, comes with a distance-to-set upper bound.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp_metric import lp_distance
from .measures import DiscreteMeasure, product_with_dirac
from .operators import WeightedOperator, bilinear

__all__ = [
    "StarLimitSet",
    "broadcast",
    "signed_limit",
    "distance_to_star_limit",
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


@dataclass(frozen=True)
class StarLimitSet:
    """The limiting star k-profile: products (measure on [-1,1]^k) x delta_z."""

    k: int

    def contains(self, mu: DiscreteMeasure, tol: float = 1e-12) -> bool:
        if mu.dim != 2 * self.k:
            return False
        pts = mu.points()
        x, y = pts[:, : self.k], pts[:, self.k :]
        if np.max(np.abs(x)) > 1 + tol:
            return False
        if np.max(np.abs(y)) > 1 + tol:
            return False
        # y-block must collapse to a single point
        return bool(np.all(np.abs(y - y[0]) <= tol))


def distance_to_star_limit(mu: DiscreteMeasure, k: int) -> float:
    """Upper bound on d_LP from mu to the limiting star profile set.

    Candidate Dirac locations z are the distinct y-block support points and
    the weighted y-mean, clamped into [-1, 1]^k; the x-marginal (clamped
    likewise) provides the product partner.
    """
    if mu.dim != 2 * k:
        raise ValueError(f"measure has dim {mu.dim}, expected {2 * k}")
    pts = mu.points()
    w = np.array([m / mu.denom for m in mu.masses])
    x_clamped = DiscreteMeasure(k, zip(np.clip(pts[:, :k], -1.0, 1.0), mu.weights()))
    ys = pts[:, k:]
    candidates = [tuple(row) for row in np.clip(ys, -1.0, 1.0)]
    candidates.append(tuple(np.clip(w @ ys, -1.0, 1.0)))
    best = 1.0
    for z in dict.fromkeys(candidates):
        d = lp_distance(mu, product_with_dirac(x_clamped, z)).value
        best = min(best, d)
    return best


def non_self_adjoint_witness(B: WeightedOperator, i_star: int) -> float:
    """Asymmetry of the bilinear form on (indicator of i_star, all-ones)."""
    if not 0 <= i_star < B.n:
        raise ValueError(f"index {i_star} out of range for n={B.n}")
    f = np.zeros(B.n)
    f[i_star] = 1.0
    ones = np.ones(B.n)
    return abs(bilinear(B, f, ones) - bilinear(B, ones, f))
