"""Exact arithmetic for p-curvatures, q-adic valuations, connection
deformations, and finiteness certification of rank-2 surface-group
representations."""

from .fields import GF, QQ, PrimeField, RationalField, ReductionError, is_prime, primes_in
from .poly import (
    IrreducibilityUndecided,
    Polynomial,
    count_real_roots_closed,
    is_irreducible_q,
    isolate_real_roots,
    poly_gcd,
    poly_xgcd,
    refine_real_root,
    squarefree_part,
)
from .ratfunc import FunctionField, RationalFunction, reduce_rational_mod_p
from .linalg import Matrix
from .numberfield import (
    CompositumError,
    NumberField,
    NumberFieldElement,
    compositum,
    is_root_of_unity,
    minimal_polynomial,
)
from .connection import (
    CompanionConnection,
    ConnectionMatrix,
    Derivation,
    PCurvatureReport,
    frobenius_twist_multiplier,
    gauge_transform,
    nabla_power_matrix,
    p_curvature,
    p_curvature_at,
    scan_primes,
)
from .valuation import (
    NewtonPolygon,
    NonvanishingPrediction,
    PredictionNotApplicable,
    ValuationProfile,
    newton_polygon,
    predict_nonvanishing,
    q_valuation,
    standard_tower,
    verify_prediction,
)
from .deformation import (
    BlockExtension,
    DeformationSolution,
    NormalizationResult,
    TruncatedFamily,
    block_power_pair,
    gauge_family,
    normalize_family,
    solve_deformation,
    step_conjugate,
)
from .surface import (
    ArchReport,
    Finite,
    FiniteOrder,
    FinitenessCertificate,
    Inconclusive,
    InfiniteOrder,
    NonarchReport,
    Obstructed,
    Representation,
    SurfacePresentation,
    TracePolynomial,
    Word,
    arch_check,
    certify_finiteness,
    conjugate_representation,
    element_order,
    fricke_polynomial,
    nonarch_check,
    reduce_word,
    simple_loop_products,
)

__version__ = "0.1.0"

# No answer uses these two modules, so they load on first use (PEP 562)
# instead of with every tool.
_LAZY = {
    "INF": "laurent",
    "TruncatedLaurentSeries": "laurent",
    "ValuationUndecided": "laurent",
    "BoxC": "intervals",
    "PrecisionExceeded": "intervals",
    "RatInterval": "intervals",
    "certified_root_enclosures": "intervals",
}

__all__ = [name for name in dir() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value
