"""Isoperimetric machinery for finite abelian groups.

Exact edge-boundary counting in directed Cayley graphs, compression of sets
along independent generators, downset weight analytics in the non-negative
integer lattice, popular-difference dimension bounds, and a verification
harness that confirms every bound exhaustively or by seeded sampling.
"""

from .boundary import (
    BoundaryStats,
    Verdict,
    boundary_counts,
    edge_boundary,
    gamma_star,
    independence_bound_holds,
    log_lower_bound_holds,
    small_exponent_bound_holds,
    subgroup_rank,
)
from .compression import (
    CompressionContext,
    compress_along,
    full_compress,
    group_weight,
    is_compressed,
    phi_embed,
    progression,
)
from .groups import (
    Element,
    GeneratorSeq,
    GroupSet,
    GroupSpec,
    SpecMismatchError,
    add,
    is_independent,
    max_order_cap,
    min_nonzero_order,
    order_of,
    span,
)
from .harness import (
    ExampleInstance,
    GeneratorPolicy,
    VerifyPlan,
    VerifyReport,
    build_example,
    draw_generating_seq,
    emit_report,
    enumerate_downsets,
    gray_subset_sweep,
    replay_witness,
    run_verify,
)
from .lattice import (
    LatticeSet,
    WeightStats,
    avg_weight_bound_holds,
    is_downset,
    lattice_compress_along,
    loomis_whitney_feasible,
    loomis_whitney_holds,
    lw_plus_feasible,
    lw_plus_holds,
    projection_sizes,
    weight,
    weight_stats,
)
from .popular import (
    DiffSpectrum,
    DimensionResult,
    diff_spectrum,
    dim_dissociated,
    dim_independent,
    popular_diffs,
    popular_dim_bound_holds,
)
from .prng import SplitMix64

__version__ = "0.1.0"
