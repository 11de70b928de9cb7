"""Operator profiles of finite graphs and exact Levy-Prokhorov metrics."""

from .measures import (
    DiscreteMeasure,
    discretize,
    empirical,
    integer_masses,
    marginal,
    mean_abs,
    shift,
)
from .lp_metric import (
    HausdorffResult,
    LpResult,
    hausdorff,
    lp_distance,
    lp_distance_bruteforce,
    lp_feasible,
)
from .operators import (
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
    non_self_adjoint_witness,
    positivity_defect,
    pq_norm,
    q_norm,
    self_adjoint_defect,
    signed_limit,
)
from .profiles import (
    DistanceReport,
    ProfileSample,
    TestFunctionStrategy,
    action_distance_estimate,
    measure_of,
    norm_from_profile,
    profile_sample,
)

__version__ = "0.1.0"
