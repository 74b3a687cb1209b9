"""Exact arithmetic for Delsarte rank-metric codes, (q,r)-polymatroids,
their rank generating functions, and the q-binomial calculus relating
them, with every identity checkable against brute-force oracles."""

from .errors import (
    AmbientMismatch,
    BudgetExceeded,
    DivisionByZero,
    InvalidValue,
    LengthMismatch,
    MalformedCode,
    NegativeExponent,
    NonIntegralResult,
    NonPrimeCharacteristic,
    QrankError,
    ReducibleModulus,
    ShapeMismatch,
    ZeroCode,
)
from .gf import FieldContext, gf_new
from .matspace import (
    MatrixFq,
    column_space,
    kernel,
    rank,
    rref_decompose,
    trace_product,
)
from .subspaces import (
    Subspace,
    SubspaceLattice,
    enumerate_subspaces,
    lattice,
    orthogonal_complement,
)
from .qseries import (
    HomogeneousMPoly,
    HomogeneousPoly,
    MultiPoly,
    galois_number,
    gaussian_binomial,
    moebius_coefficient,
    p_j_coeff,
    q_power,
    q_product,
    q_transform,
)
from .delsarte import (
    RankMetricCode,
    all_codes,
    ambient_counts,
    code_from_generators,
    dual_code,
    min_rank_distance,
    random_code,
    rank_distribution,
    rank_weight_enumerator,
    restrict,
)
from .qpolymatroid import (
    QPolymatroid,
    from_code,
    rank_generating_function,
    verify_axioms,
)
from .identities import (
    CodeAnalysis,
    IdentityReport,
    check_all,
    dual_polymatroid_check,
    exact_sequence_check,
    greene_check,
    macwilliams_dual_enumerator,
    macwilliams_transform,
    rgf_duality_check,
)

__version__ = "0.1.0"
