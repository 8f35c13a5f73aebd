"""Convergence-domain geometry for multivariate power series.

Given a coefficient rule for a power series in several variables, this
package estimates the logarithmic image of its domain of absolute
convergence, evaluates support functions and convex closures over the
probability simplex, constructs a series realizing a prescribed
logarithmically convex region, and decomposes a series along a direction
set into routed (elementary) and wedge summands.
"""

from .construct import (
    EmptyWindow,
    InfiniteSupport,
    build_family,
    extremal_sequence,
    series_for_domain,
)
from .convex import (
    EmptyDomain,
    HDomain,
    HalfSpace,
    LpResult,
    SampledFunction,
    convex_closure_value,
    lp_maximize,
    reduce_to_dense_subset,
    support_value,
)
from .decompose import (
    ElementaryDecomposition,
    NeedTwoDirections,
    SimpleDecomposition,
    SupportsOverlap,
    decompose_elementary,
    decompose_simple,
    estimate_domain,
    sum_domain_check,
)
from .hadamard import (
    Membership,
    MembershipVerdict,
    NotElementary,
    classify,
    direction_functional,
    elementary_halfspace,
    hadamard_indicator,
    slice_radius,
)
from .multiindex import (
    Directions,
    MultiIndex,
    SimplexDirection,
    ZeroIndexNotProjectable,
    enumerate_degree,
    nearest_index_of_degree,
    project,
    uniform_directions_2d,
)
from .oracle import ProbeOutcome, ProbeVerdict, agreement_grid, probe
from .series import (
    DimensionMismatch,
    ExplicitTable,
    FullGeometric,
    RayGeometric,
    SeriesSpec,
    SumRule,
    SupportWeighted,
)

__version__ = "0.1.0"
