"""Exact splitting of vector bundles on the sphere and Fuchsian ODE tools.

Everything is computed over the rationals with no rounding anywhere:
Laurent-polynomial transition matrices are factored into B * A * C =
diag(x^d_i) with certified factors, sheaf cohomology dimensions come
from exact section counts, scalar equations and residue systems get
their singularity data and global exponent identities, and monodromy
tuples are screened by the single-Jordan-block non-realizability
criterion.
"""

from .bundles import (
    BundleOnP1,
    Factorization,
    RiemannRochReport,
    SectionSpace,
    SplittingType,
    VerificationReport,
    birkhoff_factor,
    bundle,
    degree,
    det_bundle,
    dual,
    h0_dim,
    h1_dim,
    is_isomorphic,
    riemann_roch_check,
    section_profile,
    splitting_type,
    splitting_type_and_profile,
    twist,
    verify_factorization,
)
from .errors import (
    BGSplitError,
    DimensionMismatch,
    InternalSearchExhausted,
    InvalidBundle,
    NotFirstKind,
    NotFuchsian,
    NotInvertible,
    NotInvertibleOverLaurentRing,
    ParseError,
    ResonantExponents,
    WorkBudgetExceeded,
)
from .fuchsian import (
    FrobeniusSeries,
    FuchsianSystem,
    FuchsRelationReport,
    IndicialData,
    INF,
    LocalSystemData,
    ScalarODE,
    SingularityReport,
    classify_singularity_scalar,
    classify_singularity_system,
    exponents_system,
    frobenius_series,
    fuchs_relation_scalar,
    fuchs_relation_system,
    fuchsian_system,
    gauge_transform,
    indicial_polynomial,
    local_system,
    ode_residual,
    scalar_ode,
)
from .laurent import LaurentPoly, lp
from .linalg import nullspace
from .lmatrix import LaurentMatrix
from .monodromy import (
    CriterionReport,
    IrreducibilityCertificate,
    JordanProfile,
    MonodromyRep,
    bolibrukh_criterion,
    check_product_identity,
    irreducibility_certificate,
    is_irreducible,
    jordan_profile,
    monodromy_rep,
)
from .ratfunc import RatFunc

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
