"""Certified minimax values for finite families of real symmetric matrices.

The central identity this library computes and certifies: for symmetric
A_1, ..., A_m,

    min over unit-trace PSD X of  max_i <A_i, X>
        =  max over probability vectors y of  lambda_min(sum_i y_i A_i).

The toolkit has four layers: exact linear oracles over the two strategy
domains (``symmat``, ``domains``), a deterministic saddle-point solver
returning self-verifying two-sided certificates (``saddle``), an explicit
block semidefinite embedding with feasibility lifts, interior points, and
SDPA export (``embed``), and the classic matrix-game special case solved
exactly for cross-validation (``classic``).
"""

__version__ = "0.1.0"

from .tolerances import DEFAULT_TOLS, Tolerances
from .symmat import (
    EigDecomposition,
    SymMatrix,
    eigh,
    frobenius_inner,
    is_psd,
    lambda_max,
    lambda_min,
)
from .domains import (
    InstanceSet,
    SimplexPoint,
    SpectraplexPoint,
    best_response_index,
    lambda_min_by_bisection,
    payoff,
    sample_simplex,
    sample_spectraplex,
    spectraplex_linear_min,
    weighted_combination,
)
from .saddle import (
    SaddleCertificate,
    SaddleConfig,
    lower_value,
    solve_maximin,
    solve_minimax,
    upper_value,
)
from .embed import (
    DegenerateMultiplierError,
    DualInfeasibleError,
    DualLift,
    ExtractedDual,
    PrimalLift,
    SdpEmbedding,
    build_embedding,
    extract_dual,
    interior_dual_point,
    interior_primal_point,
    lift_dual,
    lift_primal,
    sdpa_text,
    weak_duality_check,
)
from .classic import (
    DiagonalReductionReport,
    VectorGame,
    classic_value_exact,
    embed_diagonal,
    verify_diagonal_reduction,
)
from .files import (
    InstanceFormatError,
    Report,
    load_instance,
    parse_instance,
    report_from_certificate,
    report_from_json,
    report_to_json,
    report_to_text,
)

__all__ = [
    "__version__",
    "Tolerances",
    "DEFAULT_TOLS",
    "SymMatrix",
    "EigDecomposition",
    "frobenius_inner",
    "eigh",
    "lambda_min",
    "lambda_max",
    "is_psd",
    "SpectraplexPoint",
    "SimplexPoint",
    "InstanceSet",
    "spectraplex_linear_min",
    "lambda_min_by_bisection",
    "best_response_index",
    "weighted_combination",
    "payoff",
    "sample_spectraplex",
    "sample_simplex",
    "SaddleConfig",
    "SaddleCertificate",
    "upper_value",
    "lower_value",
    "solve_minimax",
    "solve_maximin",
    "SdpEmbedding",
    "PrimalLift",
    "DualLift",
    "ExtractedDual",
    "DualInfeasibleError",
    "DegenerateMultiplierError",
    "build_embedding",
    "lift_primal",
    "interior_primal_point",
    "lift_dual",
    "interior_dual_point",
    "extract_dual",
    "weak_duality_check",
    "sdpa_text",
    "VectorGame",
    "DiagonalReductionReport",
    "embed_diagonal",
    "classic_value_exact",
    "verify_diagonal_reduction",
    "InstanceFormatError",
    "Report",
    "load_instance",
    "parse_instance",
    "report_from_certificate",
    "report_to_json",
    "report_from_json",
    "report_to_text",
]
